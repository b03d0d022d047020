#!/usr/bin/env python3
"""Mutation check: the test suite must catch each of a fixed list of
small source edits.

Each mutant replaces one line of a module under src/sbmimo, or swaps two
adjacent ones, and names the tests that must fail once it does.  The script first runs every named
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
PREPARE = DETECTORS + "TestPrepare::"
BLOCKS = "tests/test_bench.py::TestBlocks::"
GOLDEN = "tests/test_golden.py::test_sweep_reproduces_golden_files"
REDUCTION = "tests/test_reduction.py::"
CLI = "tests/test_cli.py::"
EDGES = tuple(
    f"{REDUCTION}TestSpinMaps::test_nearest_level_rule_at_its_edges[{c}]"
    for c in ("bpsk", "qpsk", "qam16")
)
EXACT = REDUCTION + "test_nearest_level_rule_is_exact"
ONE_REDUCTION = (
    "tests/test_bench.py::TestRunSweep::"
    "test_one_reduction_and_one_mmse_per_instance"
)

MUTANTS = (
    Mutant(
        "per-row np.matvec in place of the per-model gemm in sb.step",
        "sb.py",
        "    np.matmul(s, j, out=force)",
        "    np.copyto(force, np.matvec(j[..., None, :, :], s))",
        (
            SB + "TestSolve::test_matches_per_restart_reference",
            SB + "TestBlock::test_matches_per_instance_reference",
        ),
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
        "solve reports a model whose every restart diverged as solved",
        "sb.py",
        "        if kept:",
        "        if True:",
        (
            SB + "TestSolve::test_all_restarts_diverging_gives_no_readout",
            SB + "TestBlock::test_mixed_block",
            "tests/test_bench.py::TestRunSweep::"
            "test_every_restart_diverging_is_a_failure",
        ),
    ),
    Mutant(
        "the wall rule keeps a clamped position's momentum",
        "sb.py",
        "    y *= keep",
        "    pass",
        (SB + "TestStep::test_wall_rule_clamps_and_zeroes_momentum",),
    ),
    Mutant(
        "the wall rule also clamps |x| == 1",
        "sb.py",
        "np.less_equal(",
        "np.less(",
        (SB + "TestStep::test_wall_rule_clamps_and_zeroes_momentum",),
    ),
    Mutant(
        "clamped momenta keep a negative zero",
        "sb.py",
        "    y += _ZERO",
        "    pass",
        (SB + "TestStep::test_wall_rule_clamps_and_zeroes_momentum",),
    ),
    Mutant(
        "the wall rule leaves x unclamped",
        "sb.py",
        "    np.minimum(np.maximum(x, _MINUS_ONE, out=x), _ONE, out=x)",
        "    pass",
        (
            SB + "TestStep::test_positions_stay_walled",
            SB + "TestStep::test_wall_rule_clamps_and_zeroes_momentum",
        ),
    ),
    Mutant(
        "sb-reg anchored at the previous problem's MMSE spins",
        "detectors.py",
        "                  for m, a in zip(models, anchors, strict=True)]",
        "                  for m, a in zip(models, anchors[-1:] + anchors[:-1],"
        " strict=True)]",
        (
            DETECTORS + "TestSbDetect::test_block_decisions_match_blocks_of_one",
            BLOCKS + "test_block_size_does_not_change_records[1]",
        ),
    ),
    Mutant(
        "the payload draw reads each symbol's bits as (weight, axis)",
        "channel.py",
        "    digits = 1 - bits.reshape(nt, c.axes, c.bits_per_axis)",
        "    digits = 1 - bits.reshape(nt, c.bits_per_axis, c.axes)"
        ".swapaxes(1, 2)",
        ("tests/test_channel.py::test_sent_levels_replay_the_payload_draw",),
    ),
    Mutant(
        "LSB-first Constellation.weights",
        "channel.py",
        "        w = 2 ** np.arange(self.bits_per_axis - 1, -1, -1,"
        " dtype=np.int8)",
        "        w = 2 ** np.arange(self.bits_per_axis, dtype=np.int8)",
        ("tests/test_channel.py::test_sent_levels_replay_the_payload_draw",),
    ),
    Mutant(
        "a NaN readout energy ranks first, as under np.argmin",
        "sb.py",
        "    best = np.lexsort((e, np.isnan(e), ~live))[:, 0].tolist()",
        "    best = np.lexsort((e, ~np.isnan(e), ~live))[:, 0].tolist()",
        (SB + "TestSolve::test_nan_energy_ranks_last",),
    ),
    Mutant(
        "tied readout energies go to the later restart",
        "sb.py",
        "    best = np.lexsort((e, np.isnan(e), ~live))[:, 0].tolist()",
        "    best = (n_restarts - 1 - np.lexsort(np.stack("
        "(e, np.isnan(e), ~live))[..., ::-1])[:, 0]).tolist()",
        (SB + "TestSolve::test_tie_keeps_earlier_restart",),
    ),
    Mutant(
        "the energy kernel adds the fields before its dot with s",
        "ising.py",
        "    return quad + np.vecdot(h[..., None, :], s)"
        " + np.asarray(offset)[..., None]",
        "    return np.vecdot(np.vecmat(s, j[..., None, :, :])"
        " + h[..., None, :], s) + np.asarray(offset)[..., None]",
        ("tests/test_ising.py::TestStackedEnergies::"
         "test_stack_matches_single_row_expression",),
    ),
    Mutant(
        "the oracle's ties go to the largest spin vector",
        "detectors.py",
        "            leaf = (float(low), min(spins[e == low].tolist()))",
        "            leaf = (float(low), max(spins[e == low].tolist()))",
        (
            DETECTORS + "TestOracle::test_tie_break_is_first_lexicographic",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[qam16]",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[bpsk]",
        ),
    ),
    Mutant(
        "the oracle's bound shrinks to the best leaf without the slack",
        "detectors.py",
        "            bound = min(bound, d.min() + slack)",
        "            bound = min(bound, d.min())",
        (
            DETECTORS + "TestOracle::test_exact_ties_survive_the_shrinking_bound",
        ),
    ),
    Mutant(
        "a later leaf block replaces the oracle's incumbent unscored",
        "detectors.py",
        "            if best is None or leaf < best:",
        "            if True:",
        (
            DETECTORS + "TestOracle::test_first_leaf_block_keeps_its_optimum",
        ),
    ),
    Mutant(
        "the oracle scores a leaf block before lowering the bound",
        "detectors.py",
        "            bound = min(bound, d.min() + slack)\n"
        "            spins = level_spins(idx[d <= bound], c)\n",
        "            spins = level_spins(idx[d <= bound], c)\n"
        "            bound = min(bound, d.min() + slack)\n",
        (
            DETECTORS + "TestOracle::test_shrinking_bound_pins_the_search_work",
        ),
    ),
    Mutant(
        "the oracle expands waiting blocks without filtering them again",
        "detectors.py",
        "        if bound < pushed:",
        "        if False:",
        (
            DETECTORS + "TestOracle::test_shrinking_bound_pins_the_search_work",
        ),
    ),
    Mutant(
        "sb_solve solves an anchorless problem's plain model",
        "detectors.py",
        "        models = [None if a is None else regularize(m, a.spins, r)",
        "        models = [m if a is None else regularize(m, a.spins, r)",
        (
            DETECTORS + "TestSbDetect::test_problem_without_an_anchor_is_not_solved",
            BLOCKS + "test_block_with_some_anchors_missing",
        ),
    ),
    Mutant(
        "a block's sb_detect calls run in descending point order",
        "bench.py",
        "            for p, s, a in zip(problems, solved,\n"
        "                               anchors or [None] * len(problems))\n"
        "        ]\n",
        "            for p, s, a in reversed(list(zip(problems, solved,\n"
        "                               anchors or [None] * len(problems))))\n"
        "        ][::-1]\n",
        (BLOCKS + "test_call_order_within_blocks",),
    ),
    Mutant(
        "the sweep sums its counts over an (instance, SNR) split",
        "bench.py",
        "    shape = (len(cfg.detectors), len(_COUNTS), len(cfg.snr_db),"
        " cfg.instances)",
        "    shape = (len(cfg.detectors), len(_COUNTS), cfg.instances,"
        " len(cfg.snr_db))",
        (
            GOLDEN + "[qpsk-4x4-1]",
            GOLDEN + "[qpsk-2x2-sbreg-2]",
            GOLDEN + "[qpsk-16x16-1]",
        ),
    ),
    Mutant(
        "the sweep joins its blocks' counts in reverse order",
        "bench.py",
        "    counts = np.concatenate(blocks, axis=-1)",
        "    counts = np.concatenate(blocks[::-1], axis=-1)",
        (GOLDEN + "[qpsk-4x4-1]", GOLDEN + "[qpsk-16x16-2]"),
    ),
    Mutant(
        "the noise is drawn before the channel",
        "channel.py",
        "    re, im = rng.standard_normal((2, nr, nt))\n"
        "    h = np.sqrt(0.5) * (re + 1j * im)\n"
        "    noise_var = noise_variance_for_snr(snr_db, nt, c)\n"
        "    re, im = rng.standard_normal((2, nr))\n",
        "    noise = rng.standard_normal((2, nr))\n"
        "    re, im = rng.standard_normal((2, nr, nt))\n"
        "    h = np.sqrt(0.5) * (re + 1j * im)\n"
        "    noise_var = noise_variance_for_snr(snr_db, nt, c)\n"
        "    re, im = noise\n",
        (
            "tests/test_channel.py::TestSampleInstance::"
            "test_matches_the_two_draw_reference[qpsk-6-3]",
            "tests/test_channel.py::TestSampleInstance::"
            "test_matches_the_two_draw_reference[qam16-3-8]",
            GOLDEN + "[bpsk-4x4-1]",
        ),
    ),
    Mutant(
        "the stacked reduction sums y_r . y_r by einsum",
        "reduction.py",
        "np.vecdot(sys.y_r, sys.y_r)",
        'np.einsum("...i,...i->...", sys.y_r, sys.y_r)',
        (PREPARE + "test_block_matches_each_instance_alone",),
    ),
    Mutant(
        "a block whose stacked MMSE solve fails solves its first instance only",
        "detectors.py",
        "        for b in range(len(soft)):",
        "        for b in range(1):",
        (
            PREPARE + "test_block_mixes_singular_and_regular_gram",
            PREPARE + "test_block_matches_each_instance_alone",
        ),
    ),
    Mutant(
        "a block's initial states are written into the wrong model's rows",
        "sb.py",
        "        initial_states(hh.shape[1], seed, n_restarts, out=xy[:, b])",
        "        initial_states(hh.shape[1], seed, n_restarts, out=xy[:, -1 - b])",
        (SB + "TestBlock::test_matches_per_instance_reference",),
    ),
    Mutant(
        "symbols_to_spins swaps the nearest-level rule's midpoint sides",
        "reduction.py",
        "np.where(v > 0, left, right)",
        "np.where(v > 0, right, left)",
        (*EDGES, EXACT),
    ),
    Mutant(
        "symbols_to_spins rounds a non-finite value like a finite one",
        "reduction.py",
        "    v = np.nan_to_num(realify_symbols(x, c), posinf=0.0, neginf=0.0)",
        "    v = realify_symbols(x, c)",
        (
            *EDGES, EXACT,
            REDUCTION + "TestSpinMaps::test_off_lattice_symbol_takes_nearest_point",
        ),
    ),
    Mutant(
        "nearest_level swaps its bisection sides",
        "reduction.py",
        "bisect.bisect_left if value > 0 else bisect.bisect_right",
        "bisect.bisect_right if value > 0 else bisect.bisect_left",
        (*EDGES, EXACT),
    ),
    Mutant(
        "nearest_level bisects a non-finite value",
        "reduction.py",
        "    value = value if math.isfinite(value) else 0.0",
        "    pass",
        (*EDGES, EXACT),
    ),
    Mutant(
        "compute_c0 sums each matrix's squares over its last axis only",
        "sb.py",
        "np.sum(np.square(jk, out=jk), axis=(-2, -1))",
        "np.sum(np.square(jk, out=jk), axis=-1)",
        (SB + "TestNormalization::test_block_c0_matches_each_matrix",),
    ),
    Mutant(
        "ml_oracle realifies the instance again",
        "detectors.py",
        "    c, sys = p.c, p.sys",
        "    c, sys = p.c, realify(p.inst.h, p.inst.y, p.c)",
        (ONE_REDUCTION + "[detectors2-0]", ONE_REDUCTION + "[detectors3-1]"),
    ),
    Mutant(
        "regularize takes a penalty weight that is not a number",
        "reduction.py",
        '    r = setting("r", r, 0.0)',
        "    pass",
        (
            REDUCTION + "TestRegularize::test_bad_inputs_rejected",
            REDUCTION + "TestRegularize::test_bool_weight_rejected",
            REDUCTION + "TestRegularize::test_weight_runs_as_its_float",
        ),
    ),
    Mutant(
        "a setting is stored as given, not as the number that runs",
        "sb.py",
        '        raise ValueError(f"{name} must be {rule}, got {value!r}")\n'
        "    return out\n",
        '        raise ValueError(f"{name} must be {rule}, got {value!r}")\n'
        "    return value\n",
        (
            "tests/test_bench.py::TestWriteCsv::"
            "test_float32_settings_are_written_as_the_float_that_ran",
            "tests/test_bench.py::TestRunSweep::"
            "test_small_numpy_integer_sizes_do_not_wrap",
            "tests/test_bench.py::TestConfigValidation::"
            "test_invalid_configs_rejected[kw30]",
        ),
    ),
    Mutant(
        "a setting's finiteness is checked before it is converted",
        "sb.py",
        "and out < math.inf):",
        "and value < math.inf):",
        (SB + "TestParams::test_rejects_bad_values",),
    ),
    Mutant(
        "_eval_block hands the trace to every SB-family detector",
        "bench.py",
        "        trace = None  # the first SB-family solve alone is traced",
        "        pass",
        (GOLDEN + "[qpsk-2x2-sbreg-1]", GOLDEN + "[qpsk-2x2-sbreg-2]"),
    ),
    Mutant(
        "the CLI passes setting text on unread",
        "cli.py",
        "        return kind(value)",
        "        return value",
        (
            CLI + "TestConfigFile::test_every_flag_is_a_config_key[_]",
            CLI + "TestConfigFile::test_every_flag_is_a_config_key[-]",
        ),
    ),
    Mutant(
        "the CLI passes a whole float count on as a float",
        "cli.py",
        "        return int(value) if whole else value",
        "        return value",
        (CLI + "TestMain::test_integral_float_count_is_accepted",),
    ),
    Mutant(
        "the SNR flags are added outside their exclusive group",
        "cli.py",
        '        group = snr if key.startswith("snr") else parser',
        "        group = parser",
        (
            CLI + "TestFlagParsing::"
            "test_snr_and_snr_list_flags_exclude_each_other",
        ),
    ),
    Mutant(
        "a refusal names the field, not the key the user set",
        "cli.py",
        "        raise ConfigError(text)",
        "        raise ConfigError(str(err))",
        tuple(
            f"{CLI}TestMain::test_refusal_names_the_key_not_the_field[{i}]"
            for i in ("restarts-file", "steps-flag", "snr-list-file",
                      "mod-flag")
        ) + (
            CLI + "TestMain::test_non_integral_count_returns_2[2.7-steps]",
            CLI + "TestMain::test_non_integral_count_returns_2[null-restarts]",
        ),
    ),
    Mutant(
        "the config loader lets a repeated key win",
        "cli.py",
        '            raise ConfigError(f"config file repeats the key {key!r}")',
        "            pass",
        (
            CLI + "TestConfigFile::test_repeated_key_returns_2[top-level]",
            CLI + "TestConfigFile::test_repeated_key_returns_2[nested]",
        ),
    ),
    Mutant(
        "snr_range lets an infinite point count through",
        "bench.py",
        "    if not math.isfinite(span):",
        "    if False:",
        (CLI + "TestMain::test_bad_value_returns_2[snr-grid-inf-count]",),
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
