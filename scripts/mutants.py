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
FRONT = DETECTORS + "TestOracleFront::"
PIN = FRONT + "test_block_matches_per_instance_reference"
RECORD = DETECTORS + "TestDetectionResult::test_records_match_their_lookups"
BLOCKS = "tests/test_bench.py::TestBlocks::"
GOLDEN = "tests/test_golden.py::test_sweep_reproduces_golden_files"
REDUCTION = "tests/test_reduction.py::"
CLI = "tests/test_cli.py::"
EDGES = tuple(
    f"{REDUCTION}TestSpinMaps::test_nearest_level_rule_at_its_edges[{c}]"
    for c in ("bpsk", "qpsk", "qam16")
)
EXACT = REDUCTION + "test_nearest_level_rule_is_exact"

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
        "sb_solve takes a model whose every restart diverged as solved",
        "detectors.py",
        "    done &= diverged < params.n_restarts",
        "    done &= diverged <= params.n_restarts",
        (
            DETECTORS + "TestSbDetect::"
            "test_problem_whose_every_restart_diverges_is_unsolved",
            "tests/test_bench.py::TestRunSweep::"
            "test_every_restart_diverging_is_a_failure",
        ),
    ),
    Mutant(
        "sb-reg scores a diverged readout in place of its anchor",
        "detectors.py",
        "        spins = np.where(done[:, None], spins, anchors)",
        "        pass",
        (DETECTORS + "TestSbDetect::test_diverged_readout_is_not_scored",),
    ),
    Mutant(
        "solve counts no diverged restart of a model whose every one diverged",
        "sb.py",
        "    diverged[block] = n_restarts - live.sum(axis=1)",
        "    diverged[block] = n_restarts - live.sum(axis=1).clip(1)",
        (
            SB + "TestSolve::test_all_restarts_diverging_gives_no_readout",
            SB + "TestBlock::test_mixed_block",
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
        "regularize(plain, anchors[keep], r)",
        "regularize(plain, np.roll(anchors, 1, 0)[keep], r)",
        (
            DETECTORS + "TestSbDetect::test_block_decisions_match_blocks_of_one",
            BLOCKS + "test_block_size_does_not_change_records[1]",
        ),
    ),
    Mutant(
        "the stacked regularize anchors each row at the next row's MMSE spins",
        "reduction.py",
        "        h=model.h - 2.0 * r * s_p,",
        "        h=model.h - 2.0 * r * np.roll(s_p, -1, tuple(range(s_p.ndim - 1))),",
        (
            DETECTORS + "TestSbDetect::test_block_decisions_match_blocks_of_one",
            REDUCTION + "TestRegularize::test_weight_runs_as_its_float",
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
        "    best = np.lexsort((e, np.isnan(e), ~live))[:, 0]",
        "    best = np.lexsort((e, ~np.isnan(e), ~live))[:, 0]",
        (SB + "TestSolve::test_nan_energy_ranks_last",),
    ),
    Mutant(
        "tied readout energies go to the later restart",
        "sb.py",
        "    best = np.lexsort((e, np.isnan(e), ~live))[:, 0]",
        "    best = n_restarts - 1 - np.lexsort(np.stack("
        "(e, np.isnan(e), ~live))[..., ::-1])[:, 0]",
        (SB + "TestSolve::test_tie_keeps_earlier_restart",),
    ),
    Mutant(
        "solve scores its field-only models' spins in reversed order",
        "sb.py",
        "energy(model[~coupled], spins[~coupled, None])",
        "energy(model[~coupled], spins[~coupled, None][::-1])",
        (SB + "TestBlock::test_mixed_block",),
    ),
    Mutant(
        "an IsingModel takes one model unstacked",
        "ising.py",
        "        if (h.ndim != 2 or j.shape",
        "        if (h.ndim < 1 or j.shape",
        ("tests/test_ising.py::TestModelShape::test_only_a_stack_is_a_model",),
    ),
    Mutant(
        "the energy kernel adds the fields before its dot with s",
        "ising.py",
        "    return quad + np.vecdot(h[..., None, :], s) + offset[..., None]",
        "    return np.vecdot(np.vecmat(s, j[..., None, :, :])"
        " + h[..., None, :], s) + offset[..., None]",
        ("tests/test_ising.py::TestStackedEnergies::"
         "test_stack_matches_single_row_expression",),
    ),
    Mutant(
        "the oracle's ties go to the largest spin vector",
        "detectors.py",
        "                order = np.lexsort((*s.T[::-1], e, g))",
        "                order = np.lexsort((*-s.T[::-1], e, g))",
        (
            DETECTORS + "TestOracle::test_tie_break_is_first_lexicographic",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[qam16]",
            DETECTORS + "TestOracle::test_zero_channel_tie_is_all_minus_one[bpsk]",
        ),
    ),
    Mutant(
        "the oracle's bound shrinks to the best leaf without the slack",
        "detectors.py",
        "                    bound[u], np.minimum.reduceat(d, first) + slack[u]",
        "                    bound[u], np.minimum.reduceat(d, first)",
        (
            DETECTORS + "TestOracle::test_exact_ties_survive_the_shrinking_bound",
        ),
    ),
    Mutant(
        "a leaf lowers every instance's bound to the block's best",
        "detectors.py",
        "                bound[u] = np.minimum(\n"
        "                    bound[u], np.minimum.reduceat(d, first) + slack[u]\n"
        "                )\n",
        "                bound = np.minimum(bound, d.min() + slack)\n",
        (DETECTORS + "TestOracle::test_block_decisions_match_blocks_of_one",),
    ),
    Mutant(
        # A block of one has one run, so the blocks' property kills it.
        "each prefix's product takes a neighbouring instance's rows",
        "detectors.py",
        "np.repeat(rz[u, j:i, i:], runs, axis=0)",
        "np.repeat(rz[u, j:i, i:], np.roll(runs, 1), axis=0)",
        (
            DETECTORS + "TestOracle::test_block_decisions_match_blocks_of_one",
            BLOCKS + "test_oracle_bounds_every_instance[4-qpsk]",
        ),
    ),
    Mutant(
        "a later leaf entry replaces the oracle's incumbent unscored",
        "detectors.py",
        "(e, best[u])",
        "(e, np.full(len(u), np.inf))",
        (
            DETECTORS + "TestOracle::test_first_leaf_block_keeps_its_optimum",
        ),
    ),
    Mutant(
        "the oracle's incumbent starts at +inf",
        "detectors.py",
        "        best = energy(model, spins[:, None])[:, 0]",
        "        best = np.full(n_b, np.inf)",
        (
            RECORD,
            DETECTORS + "TestOracle::test_block_decisions_match_blocks_of_one",
        ),
    ),
    Mutant(
        "the oracle scores a leaf entry before lowering the bound",
        "detectors.py",
        "                bound[u] = np.minimum(\n"
        "                    bound[u], np.minimum.reduceat(d, first) + slack[u]\n"
        "                )\n"
        "                keep = d <= bound.take(g)\n",
        "                keep = d <= bound.take(g)\n"
        "                bound[u] = np.minimum(\n"
        "                    bound[u], np.minimum.reduceat(d, first) + slack[u]\n"
        "                )\n",
        (
            DETECTORS + "TestOracle::test_shrinking_bound_pins_the_search_work",
        ),
    ),
    Mutant(
        "the oracle expands waiting entries without filtering them again",
        "detectors.py",
        "            if not keep.all():",
        "            if False:",
        (
            DETECTORS + "TestOracle::test_shrinking_bound_pins_the_search_work",
        ),
    ),
    Mutant(
        "sb_solve solves an anchorless problem's plain model",
        "detectors.py",
        "    done = np.ones(n_b, dtype=bool) if r is None else"
        " p.mmse.done.copy()",
        "    done = np.ones(n_b, dtype=bool)",
        (
            DETECTORS + "TestSbDetect::test_problem_without_an_anchor_is_not_solved",
            BLOCKS + "test_block_with_some_anchors_missing",
        ),
    ),
    Mutant(
        "sb-reg's ties go to the anchor",
        "detectors.py",
        "        sb = e <= p.mmse.ising_energy  # ties keep the readout",
        "        sb = e < p.mmse.ising_energy",
        (DETECTORS + "TestSbDetect::test_energy_tie_keeps_solver_readout",),
    ),
    Mutant(
        "sb-reg scores its readouts under the regularized models",
        "detectors.py",
        "energy(p.model, ",
        "energy(model, ",
        (DETECTORS + "TestSbDetect::test_regularized_never_loses_to_anchor",),
    ),
    Mutant(
        "a block's sb_detect calls run in descending point order",
        "bench.py",
        "        for b in np.flatnonzero(solved.done).tolist():",
        "        for b in np.flatnonzero(solved.done)[::-1].tolist():",
        (BLOCKS + "test_call_order_within_blocks",),
    ),
    Mutant(
        "the tally counts the bit errors of undecided points",
        "bench.py",
        "np.count_nonzero(res.spins != sent, axis=1) * res.done,",
        "np.count_nonzero(res.spins != sent, axis=1),",
        (
            "tests/test_bench.py::TestRunSweep::"
            "test_failed_detections_skip_instance_for_that_detector",
            "tests/test_bench.py::TestRunSweep::"
            "test_every_restart_diverging_is_a_failure",
        ),
    ),
    Mutant(
        "the oracle leaves a decision with a NaN energy undone",
        "detectors.py",
        "                               np.ones(n_b, dtype=bool))",
        "                               best == best)",
        (RECORD,),
    ),
    Mutant(
        "prepare passes an infinite entry of y on",
        "detectors.py",
        "    y[~np.isfinite(y)] = np.nan",
        "    pass",
        (
            RECORD,
            DETECTORS + "TestOracle::test_block_decisions_match_blocks_of_one",
        ),
    ),
    Mutant(
        "prepare scores each MMSE decision under a neighbouring problem's model",
        "detectors.py",
        "    e = energy(model, spins[:, None])",
        "    e = energy(model[np.roll(np.arange(len(insts)), 1)],"
        " spins[:, None])",
        (
            PREPARE + "test_one_energies_call_scores_the_block",
            PREPARE + "test_block_matches_each_instance_alone",
        ),
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
        "np.vecdot(y_r, y_r)",
        'np.einsum("...i,...i->...", y_r, y_r)',
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
        "        xy[:, b] = initial_states(model.n, seed, n_restarts)",
        "        xy[:, -1 - b] = initial_states(model.n, seed, n_restarts)",
        (SB + "TestBlock::test_matches_per_instance_reference",),
    ),
    Mutant(
        "nearest_index swaps the nearest-level rule's midpoint sides",
        "reduction.py",
        "np.where(v > 0, left, right)",
        "np.where(v > 0, right, left)",
        (*EDGES, EXACT),
    ),
    Mutant(
        "nearest_index rounds a non-finite value like a finite one",
        "reduction.py",
        "    v = np.where(np.isfinite(v), v, 0.0)",
        "    pass",
        (
            *EDGES, EXACT,
            REDUCTION + "TestSpinMaps::test_off_lattice_symbol_takes_nearest_point",
        ),
    ),
    Mutant(
        "compute_c0 sums each matrix's squares over its last axis only",
        "sb.py",
        "np.sum(np.square(jk, out=jk), axis=(-2, -1))",
        "np.sum(np.square(jk, out=jk), axis=-1)",
        (SB + "TestNormalization::test_block_c0_matches_each_matrix",),
    ),
    Mutant(
        "the MMSE-SIC start reads the plain triangle, not the regularized one",
        "detectors.py",
        "            row = reg[:, i]",
        "            row = rz[:, i]",
        (
            PIN + "[qpsk-nt4-nr2--10dB]",
            PIN + "[qam16-nt3-nr5-5dB]",
            FRONT + "test_random_blocks_match_per_instance_reference",
        ),
    ),
    Mutant(
        "the regularizer diagonal takes another instance's lam",
        "detectors.py",
        "= lam[:, None]",
        "= lam[::-1, None]",
        (
            PIN + "[bpsk-nt3-nr5-mixed]",
            PIN + "[qam16-nt4-nr2-mixed]",
        ),
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
        "-math.inf < out < math.inf",
        "-math.inf < value < math.inf",
        (SB + "TestParams::test_rejects_bad_values",),
    ),
    Mutant(
        "a setting with no lower bound takes -inf",
        "sb.py",
        "-math.inf < out < math.inf",
        "out < math.inf",
        (
            SB + "TestParams::test_setting_with_no_lower_bound_is_still_finite",
            CLI + "TestMain::test_bad_value_returns_2[snr-neg-inf]",
        ),
    ),
    Mutant(
        "the oracle counts its prefix distances down",
        "detectors.py",
        "            nodes[u] += runs * len(combos)",
        "            nodes[u] -= runs * len(combos)",
        (
            DETECTORS + "TestOracle::test_exact_ties_survive_the_shrinking_bound",
            DETECTORS + "TestOracle::test_beats_every_candidate_by_full_scan",
        ),
    ),
    Mutant(
        "MMSE takes a decision at zero noise",
        "detectors.py",
        "    ok = np.isfinite(delta) & (delta > 0)",
        "    ok = np.isfinite(delta) & (delta >= 0)",
        (DETECTORS + "TestMmse::test_zero_noise_has_no_decision",),
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
        " if span < math.inf else span",
        " if True else span",
        (CLI + "TestMain::test_bad_value_returns_2[snr-grid-inf-count]",),
    ),
    Mutant(
        # Killed just above the limit: the 1e8-point grid that the CLI
        # test refuses would take gigabytes without the check.
        "snr_range builds a grid of any finite point count",
        "bench.py",
        "    if count > SNR_POINT_LIMIT:",
        "    if False:",
        ("tests/test_bench.py::TestSnrRange::test_point_count_is_bounded",),
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
