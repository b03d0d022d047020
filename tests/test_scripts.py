"""The sweep configs and scripts under ``scripts/`` run against the library."""

import importlib.util
from pathlib import Path

import pytest

from sbmimo.bench import SweepConfig, snr_range
from sbmimo.cli import parse_config
from sbmimo.sb import SBParams

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The paper's two BER experiments, pinned: 16x16 QPSK with plain and
# regularized SB, and 8x8 16-QAM with a longer, finer anneal.
SWEEPS = {
    "qpsk16x16.json": SweepConfig(
        nt=16, nr=16, modulation="qpsk", snr_db=snr_range(0.0, 25.0, 2.5),
        instances=2_000, detectors=("mmse", "sb", "sb-reg"),
        sb=SBParams(n_steps=100, dt=0.5), r=0.5, seed=0, workers=1,
        out="qpsk16x16.csv",
    ),
    "qam16_8x8.json": SweepConfig(
        nt=8, nr=8, modulation="qam16", snr_db=snr_range(10.0, 20.0, 2.0),
        instances=1_000, detectors=("mmse", "sb-reg"),
        sb=SBParams(n_steps=400, dt=0.25, n_restarts=10), r=0.5, seed=0,
        workers=1, out="qam16_8x8.csv",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_config_file(name):
    assert parse_config(["--config", str(SCRIPTS / name)]) == SWEEPS[name]


def test_optimality_check_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "optimality_check", SCRIPTS / "optimality_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--sizes", "2", "--instances", "3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["nt", "spins", "optimal", "mean", "excess"]
    assert row.split()[:2] == ["2", "4"]
