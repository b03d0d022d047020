"""Golden sweeps: fresh runs must reproduce committed outputs byte for byte.

Each ``tests/golden/NAME.json`` is an ``sbmimo-bench --config`` file and
``NAME.csv`` the CSV it produced; ``NAME-trace.csv``, where present, is its
``--trace`` output.  The QPSK and 16-QAM files were written by the solver
as it stood before restarts were batched, and the BPSK file by the code
as it stood before the dense spin transform was retired, each by

    sbmimo-bench --config tests/golden/NAME.json --out tests/golden/NAME.csv

(plus ``--trace tests/golden/NAME-trace.csv``).  A mismatch means results
changed: explain it, do not regenerate the files to make it pass.
"""

from pathlib import Path

import pytest

from sbmimo.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = ("bpsk-4x4", "qpsk-4x4", "qam16-2x2", "qam16-2x2-restarts5")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", CASES)
def test_sweep_reproduces_golden_files(name, workers, tmp_path, capsys):
    out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
    golden_trace = GOLDEN / f"{name}-trace.csv"
    argv = [
        "--config", str(GOLDEN / f"{name}.json"),
        "--out", str(out),
        "--workers", str(workers),
    ]
    if golden_trace.exists():
        argv += ["--trace", str(trace)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    if golden_trace.exists():
        assert trace.read_bytes() == golden_trace.read_bytes()

