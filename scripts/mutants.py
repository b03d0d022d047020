#!/usr/bin/env python3
"""Mutation check: the test suite must catch each of a fixed list of
one-line source edits.

Each mutant replaces one line of a module under src/sbmimo and names the
tests that must fail once it does.  The script first runs every named
test on an unedited copy of src/, where all must pass.  Then, per
mutant, it copies src/ into a temporary directory, applies the edit
there and runs the mutant's tests with the copy first on PYTHONPATH.
It exits 1 if a mutant survives (one of its tests passes), if an edit's
text does not occur exactly once in its module, or if sbmimo is not
imported from the copy (an editable install also puts src/ on the
path).  It needs only the standard library and pytest:

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/sbmimo
    old: str
    new: str
    tests: tuple[str, ...]  # node ids that must fail


SB = "tests/test_sb.py::"
DETECTORS = "tests/test_detectors.py::"
BLOCKS = "tests/test_bench.py::TestBlocks::"

MUTANTS = (
    Mutant(
        "per-model gemm in place of np.matvec in sb.step",
        "sb.py",
        "    force = np.matvec(j, s)",
        "    force = s @ (j[:, 0] if j.ndim == 4 else j)",
        (SB + "TestBlock::test_matches_per_instance_reference",),
    ),
    Mutant(
        "one diverged restart fails every model of its block",
        "sb.py",
        "                live &= finite",
        "                live &= finite.all()",
        (
            SB + "TestBlock::test_matches_per_instance_reference",
            SB + "TestBlock::test_mixed_block",
        ),
    ),
    Mutant(
        "sb-reg anchored at the previous problem's MMSE spins",
        "detectors.py",
        "        else regularize(problems[k].model, anchors[k].spins, r)",
        "        else regularize(problems[k].model, anchors[k - 1].spins, r)",
        (
            DETECTORS + "TestSbDetect::test_block_decisions_match_blocks_of_one",
            BLOCKS + "test_block_size_does_not_change_records[1]",
        ),
    ),
    Mutant(
        "modulate reads each symbol's bits transposed",
        "channel.py",
        "    spins = 1.0 - 2.0 * bits.reshape(-1, c.axes, c.bits_per_axis)",
        "    spins = 1.0 - 2.0 * bits.reshape(-1, c.bits_per_axis, c.axes)"
        ".swapaxes(1, 2)",
        ("tests/test_reduction.py::test_spin_mismatches_count_bit_errors",),
    ),
    Mutant(
        "a NaN readout energy ranks first, as under np.argmin",
        "sb.py",
        "            key=lambda i: (math.isnan(energies[i]), energies[i]),",
        "            key=lambda i: (not math.isnan(energies[i]), energies[i]),",
        (SB + "TestSolve::test_nan_energy_ranks_last",),
    ),
    Mutant(
        "the oracle's ties go to the largest spin vector",
        "detectors.py",
        "        best = min(best, (float(v), min(tied)))",
        "        best = min(best, (float(v), max(tied)))",
        (
            DETECTORS + "TestOracle::test_tie_break_is_first_lexicographic",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[qam16]",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[bpsk]",
        ),
    ),
    Mutant(
        "sb_solve fills its outcomes in order, ignoring the gaps",
        "detectors.py",
        "    for k, res in zip(todo, solved):",
        "    for k, res in enumerate(solved):",
        (
            DETECTORS + "TestSbDetect::test_problem_without_an_anchor_is_not_solved",
            BLOCKS + "test_block_with_some_anchors_missing",
        ),
    ),
    Mutant(
        "a block's sb_detect calls run in descending instance order",
        "bench.py",
        "    for k, p in enumerate(problems):",
        "    for k, p in reversed(list(enumerate(problems))):",
        (BLOCKS + "test_call_order_within_blocks",),
    ),
)


# pytest with hypothesis's shrinking off: the first failing example
# kills a mutant, and shrinking it can take minutes.  Examples are
# derandomized, so a run repeats, and no example database is written.
PYTEST = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.generate], derandomize=True,
    database=None,
)
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def run_tests(src: Path, tests) -> tuple[int, set]:
    """Run tests against the package in src; return pytest's exit code and
    the node ids that failed or errored."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    where = subprocess.run(
        [sys.executable, "-c", "import sbmimo; print(sbmimo.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: sbmimo was imported from {where}, not from {src}")
    proc = subprocess.run(
        [sys.executable, "-c", PYTEST, "-q", "-rfE", "-p", "no:cacheprovider",
         *tests],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    failed = {
        line.split()[1] for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc.returncode, failed


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = run_tests(copy_src(tmp), tests)
    if code != 0:
        print(f"error: on the unedited source pytest exited {code}; failed: "
              f"{', '.join(sorted(failed)) or '-'}", file=sys.stderr)
        return 1
    bad = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = src / "sbmimo" / m.module
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                print(f"STALE     {m.name}: the edit's text occurs {count} "
                      f"times in {m.module}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            _, failed = run_tests(src, m.tests)
        passed = [t for t in m.tests if t not in failed]
        seconds = time.perf_counter() - t0
        if passed:
            print(f"SURVIVED  {m.name}: did not fail {', '.join(passed)}")
            bad += 1
        else:
            print(f"killed    {m.name} ({seconds:.1f} s)")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
