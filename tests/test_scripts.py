"""The sweep configs under ``scripts/``, and the README's library
example, run against the library."""

import re
from pathlib import Path

import pytest

from sbmimo.bench import SweepConfig, snr_range
from sbmimo.cli import main, parse_command
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
    # How often SB reaches the exact ML optimum at 8x8 QPSK, 10 dB, in the
    # summary's second table; a README loop reruns it per size.
    "optimality.json": (
        SweepConfig(
            nt=8, nr=8, modulation="qpsk", snr_db=(10.0,), instances=200,
            detectors=("sb", "ml-oracle"),
            sb=SBParams(n_steps=100, dt=0.5, n_restarts=10), seed=0,
        ),
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_config_file(name):
    assert parse_command(["--config", str(SCRIPTS / name)]) == SWEEPS[name]


def test_optimality_config_prints_the_ml_optimal_table(capsys):
    # The README loop's smallest size: the summary's second table counts,
    # per SNR point, SB's decisions that reach the ML optimum.
    argv = ["--config", str(SCRIPTS / "optimality.json"),
            "--nt", "2", "--nr", "2", "--instances", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ML-optimal decisions (of instances counted):" in out
    assert re.search(r"^ +10 +\d+/5$", out, re.M)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
