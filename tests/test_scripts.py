"""The sweep configs and scripts under ``scripts/``, and the README's
library example, run against the library."""

import importlib.util
import re
from pathlib import Path

import pytest

from sbmimo.bench import SweepConfig, snr_range
from sbmimo.cli import parse_command
from sbmimo.sb import SBParams

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# The paper's two BER experiments, pinned: 16x16 QPSK with plain and
# regularized SB, and 8x8 16-QAM with a longer, finer anneal; each as the
# command line resolves it, with its --out and --trace paths.
SWEEPS = {
    "qpsk16x16.json": (
        SweepConfig(
            nt=16, nr=16, modulation="qpsk",
            snr_db=snr_range(0.0, 25.0, 2.5), instances=2_000,
            detectors=("mmse", "sb", "sb-reg"),
            sb=SBParams(n_steps=100, dt=0.5), r=0.5, seed=0, workers=1,
        ),
        "qpsk16x16.csv",
        None,
    ),
    "qam16_8x8.json": (
        SweepConfig(
            nt=8, nr=8, modulation="qam16",
            snr_db=snr_range(10.0, 20.0, 2.0), instances=1_000,
            detectors=("mmse", "sb-reg"),
            sb=SBParams(n_steps=400, dt=0.25, n_restarts=10), r=0.5, seed=0,
            workers=1,
        ),
        "qam16_8x8.csv",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_config_file(name):
    assert parse_command(["--config", str(SCRIPTS / name)]) == SWEEPS[name]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_optimality_check_runs(capsys):
    module = load_script("optimality_check")
    assert module.main(["--sizes", "2", "--instances", "3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["nt", "spins", "optimal", "mean", "excess"]
    assert row.split()[:2] == ["2", "4"]


def test_optimality_check_modulation_names(capsys):
    # Names resolve as the library resolves them, case-blind; an unknown
    # one is a usage error whose message names the valid choices.
    module = load_script("optimality_check")
    tables = []
    for name in ("qpsk", "QPSK"):
        argv = ["--modulation", name, "--sizes", "2", "--instances", "3"]
        assert module.main(argv) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    with pytest.raises(SystemExit) as exc:
        module.main(["--modulation", "qam64", "--sizes", "2"])
    assert exc.value.code == 2
    assert "qam16" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
