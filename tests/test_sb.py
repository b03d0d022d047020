import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from sbmimo import sb
from sbmimo.ising import IsingModel
from sbmimo.sb import (
    SBParams,
    compute_c0,
    initial_states,
    pump_schedule,
    solve,
    step,
)

from conftest import (
    all_spin_vectors,
    energy_ref,
    huge_model,
    model_of,
    random_model,
    sign_pm1,
    solve_one,
    stack,
)


def reference_runs(model, params, seed=0, trace=None):
    """Evolve the restarts of a stack of one together, an (R, N) array
    per step.

    An independent per-model loop the batched solver must match bit for
    bit.  The forces are the one per-model product signs (R, N) @ J that
    solve takes, so a model's rows depend on its restart count; the rest
    is written apart from solve.  Returns each restart's readout, or None
    where it diverged; with ``trace`` a list, appends a row per step of
    each restart, restart-major, as solve's trace gets.
    """
    (j,), (h,) = model.j, model.h
    c0 = compute_c0(j)
    n_steps = params.n_steps
    starts = []
    for restart in range(params.n_restarts):
        rng = np.random.default_rng([seed, restart])
        starts.append((rng.uniform(-0.1, 0.1, model.n),
                       rng.uniform(-0.1, 0.1, model.n)))
    x, y = (np.array(v) for v in zip(*starts))
    alive = np.ones(params.n_restarts, dtype=bool)
    rows = [[] for _ in alive]
    for k in range(n_steps):
        a = 1.0 if n_steps == 1 else k / (n_steps - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            force = -(1.0 - a) * x - c0 * (
                sign_pm1(x) @ j + 0.5 * h
            )
            y = y + params.dt * force
            x = x + params.dt * y
        alive &= np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
        over = np.abs(x) > 1.0
        x = np.where(over, sign_pm1(x), x)
        y = np.where(over, 0.0, y)
        if trace is not None:
            for r in np.flatnonzero(alive).tolist():
                spins = sign_pm1(x[r]).astype(np.int8)
                e = energy_ref(model, spins)
                rows[r].append((r, k, a, x[r], y[r], e))
    if trace is not None:
        trace.extend(row for run in rows for row in run)
    return [sign_pm1(xr).astype(np.int8) if ok else None
            for xr, ok in zip(x, alive)]


def reference_best(model, runs):
    # (spins, energy) of the first strict minimum over survivors, where a
    # NaN energy ranks last; if every survivor's is NaN, the first wins.
    best = None
    for spins in runs:
        if spins is not None:
            e = energy_ref(model, spins)
            if (
                best is None
                or e < best[1]
                or math.isnan(best[1]) and not math.isnan(e)
            ):
                best = (spins, e)
    return best


def same_energy(got, want):
    # Energies near the float limit can be NaN on both sides.
    return got == want or math.isnan(got) and math.isnan(want)


def assert_same_rows(rows, expected):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got[:3] == want[:3]
        assert same_energy(got[5], want[5])
        assert np.array_equal(got[3], want[3])
        assert np.array_equal(got[4], want[4])


def overflowing_model():
    # Every coupling at 1e308: under any sign pattern two equal spins put
    # J @ s at inf for some row, so every restart diverges at its first
    # step although c0 is finite and > 0.
    j = np.full((3, 3), 1e308)
    np.fill_diagonal(j, 0.0)
    return model_of(j, np.zeros(3))


def staggered_divergence_model():
    # Couplings and fields near the float limit: J @ s + h / 2 overflows
    # in row 0 when (s1, s2) = (+, -) and in row 2 when (s0, s1) = (+, +),
    # and stays finite otherwise, energies included.  With the seed
    # returned, restart 0 diverges at step 0, restart 1 at step 1, restart 3
    # at step 6, and restart 2 finishes.
    j = 2e307 * np.array([[0, 4, -3], [4, 0, -3], [-3, -3, 0]], dtype=float)
    model = model_of(j, 2e307 * np.array([6.0, 0.0, -6.0]))
    return model, SBParams(n_steps=12, dt=0.5, n_restarts=4), 15


class TestNormalization:
    # c0 = 1 / (2 sqrt(N) lambda), lambda the rms off-diagonal coupling.
    def test_lambda_two_spin_uniform(self):
        m = model_of([[0, 3], [3, 0]], [0, 0])  # lambda = 3
        assert compute_c0(m.j[0]) == pytest.approx(
            1.0 / (6.0 * math.sqrt(2.0)))

    def test_lambda_three_spin_uniform(self):
        j = np.full((3, 3), 2.0)  # lambda = 2
        np.fill_diagonal(j, 0.0)
        assert compute_c0(j) == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)))

    def test_lambda_matches_scalar_loop(self, rng):
        (j,) = random_model(rng, 8).j
        total = 0.0
        for i in range(8):
            for k in range(8):
                if i != k:
                    total += j[i, k] ** 2
        lam = math.sqrt(total / (8 * 7))
        expected = 1.0 / (2.0 * math.sqrt(8) * lam)
        assert compute_c0(j) == pytest.approx(expected, rel=1e-12)

    def test_c0_two_spin_uniform(self):
        m = model_of([[0, 1], [1, 0]], [0, 0])
        assert compute_c0(m.j[0]) == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0)))

    def test_c0_four_spin_uniform(self):
        j = np.ones((4, 4))
        np.fill_diagonal(j, 0.0)
        assert compute_c0(j) == pytest.approx(0.25)

    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=-5.0, max_value=5.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_c0_matches_lambda_oracle(self, n, log_scale, seed):
        # Bit for bit the unscaled formula, wherever sum(J**2) is a
        # normal float.
        m = random_model(np.random.default_rng(seed), n)
        j = m.j[0] * 10.0**log_scale
        lam = math.sqrt(float(np.sum(j**2)) / (n * (n - 1)))
        assert compute_c0(j) == 1 / (2 * math.sqrt(n) * lam)

    @given(
        st.integers(min_value=2, max_value=64),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**32),
                      st.integers(min_value=-1050, max_value=1000)),
            min_size=1, max_size=5,
        ),
    )
    # The first model is below max |J| ~ 2^-1000 and is scaled up.
    @example(n=3, draws=[(1, -1050), (2, 0), (3, 1000)])
    @settings(max_examples=60, deadline=None)
    def test_block_c0_matches_each_matrix(self, n, draws):
        # compute_c0 on a block's stack of couplings, some scaled up,
        # gives bit for bit each matrix's c0 alone, and that is finite at
        # either end of the float range.
        models = []
        for seed, e in draws:
            m = random_model(np.random.default_rng(seed), n)
            models.append(IsingModel(np.ldexp(m.j, e), np.ldexp(m.h, e),
                                     np.zeros(1)))
        # Each model's c0 is tiled to its rows, every entry the same.
        _, j, _, c0 = sb._stack(stack(models), range(len(models)), 3)
        for jb, tile in zip(j, c0):
            c = compute_c0(jb)
            assert (tile == c).all() and 0.0 < c < math.inf


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        assert pump_schedule(100)[0] == 0.0
        assert pump_schedule(100)[99] == 1.0
        assert pump_schedule(101)[50] == 0.5

    def test_single_step_schedule(self):
        assert pump_schedule(1).tolist() == [1.0]

    def test_monotone(self):
        values = pump_schedule(25).tolist()
        assert len(values) == 25
        assert values == sorted(values)
        # Same values as evaluating k / (n_steps - 1) one step at a time.
        assert values == [k / 24 for k in range(25)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pump_schedule(0)
        with pytest.raises(ValueError):
            pump_schedule(-1)


def step_buffers(xy, half_h):
    # The buffers step takes besides the state: the signs sign(x), the
    # force and keep scratch arrays and h / 2 tiled to one row per restart.
    s = sign_pm1(xy[0])
    return s, np.empty_like(s), np.empty_like(s), np.tile(half_h, (len(s), 1))


def step_rows(x, y, a, j, half_h, c0, dt=0.5):
    # step on a fresh (2, R, N) state from x and y, with s = sign(x) and
    # j (N, N); returns the new x and y, the per-row mask (None when every
    # row stayed finite) and s.
    xy = np.array([x, y], dtype=float)
    s, force, keep, half_h = step_buffers(xy, half_h)
    finite = step(xy, s, force, keep, a, np.asarray(j, dtype=float),
                  half_h, c0, dt)
    return xy[0], xy[1], finite, s


def step_model(m, x, y, a, c0, dt=0.5):
    # step on a stack of one, with rows given as nested lists.
    return step_rows(x, y, a, m.j[0], 0.5 * m.h[0], c0, dt)


class TestStep:
    def test_free_drift_at_full_pump(self):
        # J = 0, h = 0, a = 1: zero force, x drifts by dt*y.
        m = model_of(np.zeros((2, 2)), np.zeros(2))
        x0, y0 = [[0.1, -0.2], [0.0, 0.3]], [[0.3, 0.4], [-0.2, 0.1]]
        x, y, finite, s = step_model(m, x0, y0, a=1.0, c0=0.7)
        assert np.allclose(y, y0)
        assert np.allclose(x, np.array(x0) + 0.5 * y)
        assert finite is None
        assert np.array_equal(s, sign_pm1(x))

    def test_hand_evaluated_update(self):
        # n=1, h=2, a=0: y = dt*(-(1)(0) - c0*(0 + h/2)) = -0.25, x = dt*y.
        m = model_of([[0.0]], [2.0])
        x, y, _, s = step_model(m, [[0.0]], [[0.0]], a=0.0, c0=0.5)
        assert y[0, 0] == pytest.approx(-0.25)
        assert x[0, 0] == pytest.approx(-0.125)
        assert s.tolist() == [[-1.0]]

    def test_wall_rule_clamps_and_zeroes_momentum(self):
        m = model_of(np.zeros((1, 1)), np.zeros(1))
        x, y, _, s = step_model(
            m, [[0.7], [-0.7], [0.1], [0.5], [-0.5]],
            [[1.0], [-1.0], [1.0], [1.0], [-1.0]], a=1.0, c0=1.0,
        )
        # The position updates give +-1.2, clamped to the wall with their
        # momentum zeroed; 0.6 is inside.  The rule is strict: rows that
        # land exactly on +-1.0 stay there and keep their momentum.
        assert x[:, 0].tolist() == [1.0, -1.0, 0.6, 1.0, -1.0]
        assert y[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0, -1.0]
        assert s[:, 0].tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]
        # A zeroed negative momentum (-0.7 moved to -1.2) is +0.0, not
        # -0.0, which the trace would print as "-0".
        assert not np.signbit(y[:2]).any()

    def test_finite_rows_with_overflowing_sum_are_kept(self):
        # Free drift to 1e308 in every entry: the sum over x overflows, so
        # the exact per-row check runs, finds every row finite, and the
        # wall rule clamps them.
        m = model_of(np.zeros((3, 3)), np.zeros(3))
        with np.errstate(over="ignore"):
            x, y, finite, s = step_model(
                m, [[0.5] * 3] * 2, [[1e308] * 3] * 2, a=1.0, c0=1.0, dt=1.0
            )
        assert finite.tolist() == [True, True]
        assert x.tolist() == s.tolist() == [[1.0] * 3] * 2
        assert y.tolist() == [[0.0] * 3] * 2

    def test_divergence_is_reported(self):
        # Under (+, +) J @ s + h/2 overflows; under (-, -) it cancels to 0.
        j = np.array([[0.0, 1e308], [1e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, finite, _ = step_rows(
                [[0.1, 0.1], [-0.1, -0.1]], np.zeros((2, 2)), 0.0,
                j, np.array([1e308, 1e308]), 1.0, 0.5,
            )
        assert finite.tolist() == [False, True]
        # A lone restart that overflows leaves the solve no readout.
        lone = overflowing_model()
        assert 0.0 < compute_c0(lone.j[0]) < math.inf
        assert reference_runs(lone, SBParams(n_steps=5)) == [None]
        assert solve_one(lone, SBParams(n_steps=5)) is None

    def test_allocates_no_array(self, rng):
        # A step runs in the buffers solve allocates once: at 128 x 32 its
        # peak traced allocation stays far below one array of x's shape,
        # which a fresh force array would take.
        m = random_model(rng, 32)
        (j,), (h,) = m.j, m.h
        xy = initial_states(32, seed=1, n_restarts=128)
        s, force, keep, half_h = step_buffers(xy, 0.5 * h)
        c0 = compute_c0(j)
        step(xy, s, force, keep, 0.5, j, half_h, c0, 0.5)
        tracemalloc.start()
        try:
            assert step(xy, s, force, keep, 1.0, j, half_h, c0, 0.5) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.nbytes // 4

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_positions_stay_walled(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = random_model(rng, n)
        (j,), (h,) = m.j, m.h
        dt = float(rng.uniform(0.1, 1.5))
        xy = initial_states(n, int(rng.integers(2**32)), 3)
        s, force, keep, half_h = step_buffers(xy, 0.5 * h)
        c0 = compute_c0(j)
        for a in pump_schedule(30):
            assert step(xy, s, force, keep, a, j, half_h, c0, dt) is None
            assert np.max(np.abs(xy[0])) <= 1.0
            # The signs step hands on are sign(x) with sign(0) = +1.
            assert np.array_equal(s, sign_pm1(xy[0]))


class TestSign:
    def test_sign_of_zero_is_positive(self):
        assert sign_pm1(np.array([0.0]))[0] == 1.0
        assert np.array_equal(
            sign_pm1(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0]
        )


class TestSolve:
    def test_ferromagnetic_pair(self):
        m = model_of([[0, -1], [-1, 0]], [0, 0])
        res = solve_one(m, SBParams(n_steps=100, dt=0.5), seed=1)
        assert res.energy == -2.0
        assert abs(res.spins.sum()) == 2  # aligned

    def test_field_only_degenerate_path(self):
        res = solve_one(model_of([[0.0]], [3.0]), SBParams(), seed=0)
        assert res.spins.tolist() == [-1]
        assert res.energy == -3.0
        res = solve_one(model_of(np.zeros((3, 3)), [1.0, -2.0, 0.0]), SBParams())
        # s = -sgn(h), ties at h = 0 resolve to +1
        assert res.spins.tolist() == [-1, 1, 1]

    def test_pure_function_of_inputs(self, rng):
        m = random_model(rng, 6)
        params = SBParams(n_steps=80, dt=0.4, n_restarts=3)
        a, b = solve_one(m, params, seed=99), solve_one(m, params, seed=99)
        assert np.array_equal(a.spins, b.spins)
        assert a.energy == b.energy

    def test_best_restart_selected(self, rng):
        # Re-run each restart trajectory alone and compare the pick.
        m = random_model(rng, 7)
        params = SBParams(n_steps=60, dt=0.5, n_restarts=5)
        res = solve_one(m, params, seed=17)
        runs = reference_runs(m, params, seed=17)
        energies = [energy_ref(m, spins) for spins in runs]
        assert res.energy == min(energies)
        assert np.array_equal(res.spins, runs[int(np.argmin(energies))])

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=1.5),
        st.integers(min_value=0, max_value=2**32),
        st.booleans(),
    )
    # A draw whose coupling exceeds 2.25 at n = 2 once overflowed in the
    # test's own scaling, before the solver ran.
    @example(n=2, restarts=1, steps=1, dt=1.0, seed=158, huge=True)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_restart_reference(
        self, n, restarts, steps, dt, seed, huge
    ):
        # A huge model sits near the float limit, where J @ s + h / 2
        # overflows under some sign patterns: restarts diverge at various
        # steps, some or all of them, and energies can overflow.
        rng = np.random.default_rng(seed)
        m = random_model(rng, n)
        if huge:
            m = huge_model(m)
        params = SBParams(n_steps=steps, dt=dt, n_restarts=restarts)
        rows, ref_rows = [], []
        quiet = "ignore" if huge else "warn"
        with np.errstate(over=quiet, invalid=quiet):
            runs = reference_runs(m, params, seed, ref_rows)
            survivors = [s for s in runs if s is not None]
            if not survivors:
                assert solve_one(m, params, seed, rows) is None
            else:
                res = solve_one(m, params, seed, rows)
                spins, e = reference_best(m, runs)
                assert np.array_equal(res.spins, spins)
                assert same_energy(res.energy, e)
                assert res.diverged_restarts == restarts - len(survivors)
        assert_same_rows(rows, ref_rows)

    def test_overflowing_sum_of_finite_rows_is_kept(self):
        # c0 * h / 2 is about 1e308 in every entry, so each step at dt = 1
        # drives every x_i to about -1e308: finite, but their sum is -inf.
        # The divergence screen then runs the exact per-row check, which
        # keeps both rows for the wall rule to clamp, as the reference does.
        j = np.ldexp(np.ones((3, 3)) - np.eye(3), -10)
        c0 = compute_c0(j)
        m = model_of(j, np.full(3, 2.0 * (1e308 / c0)))
        with np.errstate(over="ignore"):
            push = c0 * (0.5 * m.h)
            assert np.isfinite(push).all() and np.isinf(push.sum())
        params = SBParams(n_steps=6, dt=1.0, n_restarts=2)
        rows, ref_rows = [], []
        res = solve_one(m, params, 5, rows)
        runs = reference_runs(m, params, 5, ref_rows)
        assert res.diverged_restarts == 0
        assert res.spins.tolist() == runs[0].tolist() == [-1, -1, -1]
        assert len(rows) == 12
        assert_same_rows(rows, ref_rows)

    def test_one_restart_diverging_is_dropped(self):
        m, params, seed = staggered_divergence_model()
        runs = reference_runs(m, params, seed)
        assert [r is None for r in runs] == [True, True, False, True]
        res = solve_one(m, params, seed)
        assert res.diverged_restarts == 3
        spins, e = reference_best(m, runs)
        assert np.array_equal(res.spins, spins)
        assert res.energy == e

    def test_trace_restart_major_and_stops_at_divergence(self):
        m, params, seed = staggered_divergence_model()
        rows, ref_rows = [], []
        solve_one(m, params, seed, rows)
        reference_runs(m, params, seed, ref_rows)
        restarts = [row[0] for row in rows]
        assert restarts == sorted(restarts)
        # restart 0 diverges at step 0, restart 1 at step 1, restart 3 at 6
        assert [restarts.count(r) for r in range(4)] == [0, 1, 12, 6]
        assert_same_rows(rows, ref_rows)

    def test_nan_energy_ranks_last(self, monkeypatch):
        # Near the float limit a readout's energy can be NaN (inf - inf;
        # see test_ising.py's huge draws), but which readouts overflow
        # depends on the BLAS kernel's summation order, so the energies
        # are pinned here: the five readouts score [inf, 4.05e307, -inf,
        # nan, inf].  np.argmin would return the NaN one, and restart 2,
        # whose readout differs from every other, must win.
        m = random_model(np.random.default_rng(239), 8)
        params = SBParams(n_steps=20, n_restarts=5)
        runs = reference_runs(m, params, seed=4)
        assert len({tuple(s) for s in runs}) == 5
        pinned = [math.inf, 4.05e307, -math.inf, math.nan, math.inf]
        monkeypatch.setattr(
            sb, "energy", lambda model, s: np.array([pinned])
        )
        res = solve_one(m, params, seed=4)
        assert res.energy == -math.inf and res.diverged_restarts == 0
        assert np.array_equal(res.spins, runs[2])

    def test_all_nan_energies_keep_the_first_readout(self, rng, monkeypatch):
        m = random_model(rng, 6)
        params = SBParams(n_steps=20, n_restarts=4)
        runs = reference_runs(m, params, seed=2)
        assert len({tuple(s) for s in runs}) > 1
        calls = []

        def nan_energies(model, s):
            calls.append(s.shape)
            return np.full(s.shape[:-1], math.nan)

        monkeypatch.setattr(sb, "energy", nan_energies)
        res = solve_one(m, params, seed=2)
        assert calls == [(1, 4, 6)]  # one call ranks every restart
        assert math.isnan(res.energy)
        assert np.array_equal(res.spins, runs[0])

    def test_tie_keeps_earlier_restart(self):
        # Ferromagnetic pair: both aligned readouts score -2, so every
        # restart ties; restart 0 wins even where later ones differ,
        # whichever of them runs last.
        m = model_of([[0, -1], [-1, 0]], [0, 0])
        params = SBParams(n_steps=50, dt=0.5, n_restarts=6)
        runs = reference_runs(m, params, seed=1)
        assert {energy_ref(m, s) for s in runs} == {-2.0}
        assert len({tuple(s) for s in runs}) == 2
        for restarts in range(1, 7):
            fewer = dataclasses.replace(params, n_restarts=restarts)
            res = solve_one(m, fewer, seed=1)
            assert np.array_equal(res.spins, runs[0])

    def test_finds_ground_state_usually(self, rng):
        # Statistical: 200 random 8-spin models, 10 restarts each.
        hits = 0
        for _ in range(200):
            m = random_model(rng, 8)
            res = solve_one(m, SBParams(n_steps=100, dt=0.5, n_restarts=10),
                        seed=int(rng.integers(2**63)))
            best = min(energy_ref(m, s) for s in all_spin_vectors(8))
            hits += res.energy <= best + 1e-9
        assert hits >= 190  # >= 95% of 200

    def test_coupling_scale_invariance(self, rng):
        # h = 0: c0 ~ 1/lambda cancels any positive scaling of J, so the
        # force field is scale-free and trajectories coincide.  The spin
        # comparison uses a power-of-two factor, where the cancellation
        # is exact in floating point (no chaotic drift from rounding).
        a = rng.normal(size=(6, 6))
        j = (a + a.T) / 2.0
        np.fill_diagonal(j, 0.0)
        m1 = model_of(j, np.zeros(6))
        x = rng.uniform(-1, 1, 6)
        for kappa in (3.0, 4.0):
            mk = model_of(kappa * j, np.zeros(6))
            f1 = compute_c0(m1.j[0]) * (m1.j[0] @ sign_pm1(x))
            fk = compute_c0(mk.j[0]) * (mk.j[0] @ sign_pm1(x))
            assert fk == pytest.approx(f1, rel=1e-12)
        m4 = model_of(4.0 * j, np.zeros(6))
        params = SBParams(n_steps=50, dt=0.5)
        assert np.array_equal(
            solve_one(m1, params, seed=5).spins, solve_one(m4, params, seed=5).spins
        )

    @pytest.mark.parametrize("k", [520, -560])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_power_of_two_rescaling_is_exact(self, k, seed):
        # Scaling J, h and offset by 2^k scales c0 by 2^-k, leaves every
        # force and so every trajectory bit for bit, and scales the energy
        # by 2^k.  At 2^520 sum(J**2) overflows and at 2^-560 it
        # underflows, so c0 cannot come from the unscaled formula.
        rng = np.random.default_rng(seed)
        m = random_model(rng, int(rng.integers(2, 13)))
        scaled = IsingModel(
            j=np.ldexp(m.j, k), h=np.ldexp(m.h, k),
            offset=np.ldexp(m.offset, k),
        )
        assert compute_c0(scaled.j) == np.ldexp(compute_c0(m.j), -k)
        params = SBParams(n_steps=40, n_restarts=3)
        res, ref = solve_one(scaled, params, seed), solve_one(m, params, seed)
        assert np.array_equal(res.spins, ref.spins)
        assert res.energy == math.ldexp(ref.energy, k)

    def test_subnormal_couplings_solve(self):
        # At max |J| = 2^-1060 the true c0 is beyond the float range.  The
        # model 2^600 times larger has the same forces, so the same spins.
        j, h = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, -0.25])
        params = SBParams(n_steps=30, n_restarts=3)
        tiny = solve_one(
            model_of(np.ldexp(j, -1060), np.ldexp(h, -1060)), params, seed=4
        )
        ref = solve_one(
            model_of(np.ldexp(j, -460), np.ldexp(h, -460)), params, seed=4
        )
        assert np.array_equal(tiny.spins, ref.spins)
        assert tiny.energy == math.ldexp(ref.energy, -600)

    def test_negation_symmetry(self, rng):
        # h = 0 dynamics are odd: a row holding the negated state follows
        # the negated path.
        a = rng.normal(size=(5, 5))
        j = (a + a.T) / 2.0
        np.fill_diagonal(j, 0.0)
        c0 = compute_c0(j)
        xy = initial_states(5, seed=3, n_restarts=1)
        xy = np.concatenate([xy, -xy], axis=1)
        x, y = xy
        s, force, keep, half_h = step_buffers(xy, np.zeros(5))
        for a in pump_schedule(40):
            step(xy, s, force, keep, a, j, half_h, c0, 0.5)
            assert np.array_equal(x[1], -x[0])
            assert np.array_equal(y[1], -y[0])
        assert np.array_equal(s[1], -s[0])

    def test_all_restarts_diverging_gives_no_readout(self):
        # J @ s overflows in every restart, so the outcome is None.
        params = SBParams(n_steps=50, dt=1.0, n_restarts=2)
        m = overflowing_model()
        assert reference_runs(m, params) == [None, None]
        assert solve_one(m, params) is None

    def test_trace_hook_sees_every_step(self, rng):
        m = random_model(rng, 4)
        rows = []
        params = SBParams(n_steps=25, dt=0.5, n_restarts=2)
        solve_one(m, params, seed=8, trace=rows)
        assert len(rows) == 25 * 2
        steps = [r[1] for r in rows[:25]]
        assert steps == list(range(25))
        assert rows[0][2] == 0.0 and rows[24][2] == 1.0  # pump ramp
        for row in rows:
            assert row[5] == energy_ref(m, sign_pm1(row[3]).astype(np.int8))


def assert_matches_reference(model, params, seed, outcome, rows):
    # One model's row of a block's outcome, (spins, energy, diverged),
    # and its trace rows against its own per-restart reference run.  A
    # model whose every restart diverged counts n_restarts, and its
    # spins and energy are not read.
    spins, e, diverged = outcome
    ref_rows = []
    runs = reference_runs(model, params, seed, ref_rows)
    survivors = [s for s in runs if s is not None]
    assert diverged == params.n_restarts - len(survivors)
    if survivors:
        want, want_e = reference_best(model, runs)
        assert spins.dtype == np.int8 and np.array_equal(spins, want)
        assert same_energy(e, want_e)
    assert_same_rows(rows, ref_rows)


def outcomes(out):
    # solve's (spins, energy, diverged) arrays as one row per model.
    spins, e, diverged = out
    assert spins.shape[:1] == e.shape == diverged.shape
    return list(zip(spins, e.tolist(), diverged.tolist()))


class TestBlock:
    @given(
        st.integers(min_value=2, max_value=40),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**32), st.booleans()),
            min_size=1, max_size=5,
        ),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=1.5),
    )
    # A draw whose field entry exceeds 3.18 at n = 2 once overflowed
    # in huge_model itself, before the solver ran.
    @example(
        n=2, draws=[(468335, True), (10064063, True)],
        restarts=1, steps=1, dt=0.05,
    )
    # No shrink phase: shrinking a failing block here can run for
    # minutes, and the first failing example already names the fault.
    @settings(
        max_examples=60, deadline=None,
        phases=[ph for ph in Phase if ph is not Phase.shrink],
    )
    def test_matches_per_instance_reference(
        self, n, draws, restarts, steps, dt
    ):
        # A block of models of one size, each with its own seed, some of
        # them huge: every model's outcome and trace rows are bit for bit
        # those of its reference run alone, whatever its block-mates do.
        # A model whose every restart diverges alone counts them all.
        models = []
        for seed, huge in draws:
            m = random_model(np.random.default_rng(seed), n)
            models.append(huge_model(m) if huge else m)
        seeds = [seed for seed, _ in draws]
        params = SBParams(n_steps=steps, dt=dt, n_restarts=restarts)
        traces = [[] for _ in models]
        quiet = "ignore" if any(huge for _, huge in draws) else "warn"
        with np.errstate(over=quiet, invalid=quiet):
            out = outcomes(solve(stack(models), params, seeds, traces))
        assert len(out) == len(models)
        for (seed, huge), m, outcome, rows in zip(draws, models, out, traces):
            quiet = "ignore" if huge else "warn"
            with np.errstate(over=quiet, invalid=quiet):
                assert_matches_reference(m, params, seed, outcome, rows)

    def test_mixed_block(self):
        # One block of 3-spin models: staggered divergence, every restart
        # diverging, two with zero couplings (solved by fields alone, with
        # different energies) and a plain model.  Each outcome is the one
        # the model gets alone.
        staggered, params, seed = staggered_divergence_model()
        field_only = [model_of(np.zeros((3, 3)), [1.0, -2.0, 0.0]),
                      model_of(np.zeros((3, 3)), [-0.5, 4.0, 1.5], 2.0)]
        plain = random_model(np.random.default_rng(3), 3)
        models = [staggered, overflowing_model(), *field_only, plain]
        seeds = [seed, 0, 0, 0, 11]
        traces = [[] for _ in models]
        with np.errstate(over="ignore", invalid="ignore"):
            out = outcomes(solve(stack(models), params, seeds, traces))
            for m, s, outcome, rows in zip(models, seeds, out, traces):
                if any(m is f for f in field_only):
                    alone = solve_one(m, params, s)
                    assert np.array_equal(outcome[0], alone.spins)
                    assert outcome[1:] == (alone.energy, 0)
                    assert rows == []
                else:
                    assert_matches_reference(m, params, s, outcome, rows)
        assert [d for _, _, d in out] == [3, params.n_restarts, 0, 0, 0]
        assert out[2][0].tolist() == [-1, 1, 1]
        assert out[3][0].tolist() == [1, -1, -1]
        assert [out[2][1], out[3][1]] == [-3.0, -4.0]
        # The kernel evolves the subset of coupled models, and each of
        # their outcomes and traces is the one the block gets without the
        # field-only models.  (sb_solve's unsolved problems are tested in
        # test_detectors.py.)
        coupled = [0, 1, 4]
        sub_traces = [[] for _ in coupled]
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcomes(solve(stack([models[k] for k in coupled]), params,
                                 [seeds[k] for k in coupled], sub_traces))
        for k, outcome, rows in zip(coupled, got, sub_traces):
            spins, e, diverged = out[k]
            assert outcome[2] == diverged
            if diverged < params.n_restarts:
                assert np.array_equal(outcome[0], spins)
                assert same_energy(outcome[1], e)
            assert_same_rows(rows, traces[k])

    def test_one_energies_call_per_ranking_and_traced_step(
        self, rng, monkeypatch
    ):
        # The block's readouts are scored by one stacked energy call, and
        # a traced solve adds one per step; the models solved by fields
        # alone are scored together by one call first.  No row is scored
        # alone.
        calls = []

        def counting(model, s, _energy=sb.energy):
            calls.append(s.shape)
            return _energy(model, s)

        monkeypatch.setattr(sb, "energy", counting)
        models = stack([random_model(rng, 5) for _ in range(3)])
        params = SBParams(n_steps=7, n_restarts=4)
        solve(models, params, [0, 1, 2])
        assert calls == [(3, 4, 5)]
        calls.clear()
        solve(models, params, [0, 1, 2], [[], [], []])
        assert calls == [(3, 4, 5)] * 8
        calls.clear()
        free = model_of(np.zeros((5, 5)), rng.normal(size=5))
        mixed = [free, models[[0]], free, models[[1]], free]
        spins, e, _ = solve(stack(mixed), params, [0, 1, 2, 3, 4])
        assert calls == [(3, 1, 5), (2, 4, 5)]
        assert e[[0, 2, 4]].tolist() == [energy_ref(free, spins[0])] * 3

    def test_block_needs_one_size_and_one_seed_per_model(self, rng):
        # Models of two sizes make no stack, and one model unstacked is
        # not a block: no IsingModel holds it.
        params = SBParams(n_steps=5)
        a, b = random_model(rng, 3), random_model(rng, 4)
        with pytest.raises(ValueError, match=r"h \(2, 4\)"):
            IsingModel(np.concatenate([a.j, a.j]), np.concatenate([b.h, b.h]),
                       np.zeros(2))
        with pytest.raises(ValueError, match=r"h \(3,\)"):
            solve(IsingModel(a.j[0], a.h[0], a.offset[0]), params, [0])
        with pytest.raises(ValueError, match="one seed each"):
            solve(stack([a, a]), params, [0])


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SBParams(n_steps=0)
        with pytest.raises(ValueError):
            SBParams(dt=0.0)
        with pytest.raises(ValueError):
            SBParams(n_restarts=0)
        # A string or None, which the CLI never passes, fails as a bad
        # setting too, not as a TypeError from the range check.
        # An integer beyond the float range was accepted and failed in
        # the solver's first step.  An extended-precision 1e400 is finite
        # but runs as float("inf"), so the bound holds for float(dt).
        for value in (math.inf, math.nan, "0.5", None, 10**400,
                      np.longdouble("1e400")):
            with pytest.raises(ValueError, match="dt must be"):
                SBParams(dt=value)

    def test_setting_with_no_lower_bound_is_still_finite(self):
        # A least of -inf bounds nothing, but the value must be finite:
        # -inf was returned as it was.  A count beyond the float range
        # is compared, not converted, so it stays an int.
        assert sb.setting("x", -1e308, -math.inf) == -1e308
        for value in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError,
                               match=f"x must be finite, got {value!r}$"):
                sb.setting("x", value, -math.inf)
        assert sb.setting("n", 10**400, 0) == 10**400

    def test_dt_must_not_be_a_bool(self):
        # True would run as dt = 1, and write_csv would write "True".
        with pytest.raises(ValueError, match="dt"):
            SBParams(dt=True)

    @pytest.mark.parametrize("key", ["n_steps", "n_restarts"])
    def test_counts_must_be_integers(self, key):
        # 2.5 would run a pump schedule that overshoots 1; True would pass
        # as 1; even an integral float fails later in range().
        for value in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=key):
                SBParams(**{key: value})
        assert getattr(SBParams(**{key: np.int64(3)}), key) == 3

    def test_has_only_the_knobs_the_pipeline_sets(self):
        names = [f.name for f in dataclasses.fields(SBParams)]
        assert names == ["n_steps", "dt", "n_restarts"]

    def test_init_state_deterministic_and_bounded(self):
        x, y = initial_states(16, seed=4, n_restarts=3)
        x2, y2 = initial_states(16, seed=4, n_restarts=2)
        # A row does not depend on how many restarts run.
        assert np.array_equal(x[:2], x2) and np.array_equal(y[:2], y2)
        assert not np.array_equal(x[1], x[2])
        # Row r: x then y from default_rng([seed, r]).
        rng = np.random.default_rng([4, 1])
        assert np.array_equal(x[1], rng.uniform(-0.1, 0.1, 16))
        assert np.array_equal(y[1], rng.uniform(-0.1, 0.1, 16))
        assert np.max(np.abs(x)) <= 0.1 and np.max(np.abs(y)) <= 0.1
