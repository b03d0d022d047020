"""The sweep configs and scripts under ``scripts/``, and the README's
library example, run against the library."""

import importlib.util
import re
from dataclasses import replace
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
    # optimality_check.py's defaults; the script sets nt and nr per size
    # and adds ml-oracle.
    "optimality.json": (
        SweepConfig(
            modulation="qpsk", snr_db=(10.0,), instances=200,
            detectors=("sb",),
            sb=SBParams(n_steps=100, dt=0.5, n_restarts=10), seed=0,
        ),
        None,
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
    assert header.split() == [
        "nt", "spins", "optimal", "snr_db", "detector", "ber", "ml_ber"
    ]
    assert row.split()[:2] == ["2", "4"] and row.split()[3:5] == ["10", "sb"]


def test_optimality_check_modulation_names(capsys):
    # Names resolve as the library resolves them, case-blind; an unknown
    # one is a usage error whose message names the valid choices.
    module = load_script("optimality_check")
    tables = []
    for name in ("qpsk", "QPSK"):
        argv = ["--mod", name, "--sizes", "2", "--instances", "3"]
        assert module.main(argv) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    with pytest.raises(SystemExit) as exc:
        module.main(["--mod", "qam64", "--sizes", "2"])
    assert exc.value.code == 2
    assert "qam16" in capsys.readouterr().err


def test_optimality_check_sweeps_a_config_file(monkeypatch):
    # A --config replaces the defaults and flags override it: the 16-QAM
    # file gives its dt 0.25 sweep at each size, with the oracle added.
    module = load_script("optimality_check")
    sweeps = []
    monkeypatch.setattr(module, "run_sweep", lambda cfg: sweeps.append(cfg) or [])
    argv = ["--config", str(SCRIPTS / "qam16_8x8.json"), "--sizes", "2,4,6",
            "--instances", "5"]
    assert module.main(argv) == 0
    base = SWEEPS["qam16_8x8.json"][0]
    assert sweeps == [
        replace(base, nt=n, nr=n, instances=5,
                detectors=("mmse", "sb-reg", "ml-oracle"))
        for n in (2, 4, 6)
    ]


@pytest.mark.parametrize("source", ["flags", "config"])
def test_optimality_check_ignores_output_paths(
    capsys, monkeypatch, tmp_path, source
):
    # out and trace, set by a flag or by a config file, are reported as
    # ignored on stderr; the table still prints and no file is written.
    module = load_script("optimality_check")
    monkeypatch.chdir(tmp_path)
    argv = ["--sizes", "2", "--instances", "3"]
    if source == "flags":
        argv += ["--out", "sweep.csv", "--trace", "trace.csv"]
        notes = ["out=sweep.csv", "trace=trace.csv"]
    else:
        argv += ["--config", str(SCRIPTS / "qam16_8x8.json"), "--steps", "20"]
        notes = ["out=qam16_8x8.csv"]
    assert module.main(argv) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) > 1  # the header and the rows
    assert err.splitlines() == [
        f"note: optimality_check.py writes no file; ignoring {note}"
        for note in notes
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--instances", "0"],
    ["--sizes", "abc"],
    ["--snr-list", "nan"],
    ["--snr-db", "10"],
    ["--sizes", "2,13"],  # 26 spins, above the oracle's limit
    ["--sizes", "0"],
])
def test_optimality_check_bad_input_exits_2_before_sweeping(
    capsys, monkeypatch, argv
):
    module = load_script("optimality_check")

    def refuse(cfg):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(module, "run_sweep", refuse)
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_readme_library_example_runs(capsys):
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
