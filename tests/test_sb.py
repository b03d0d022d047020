import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.ising import IsingModel, energy
from sbmimo.sb import (
    DegenerateModelError,
    SBParams,
    SolverDivergenceError,
    batch_step,
    compute_c0,
    compute_lambda,
    initial_states,
    pump_schedule,
    sign_pm1,
    solve,
)

from conftest import all_spin_vectors, random_model


def model_of(j, h, offset=0.0):
    j = np.asarray(j, dtype=float)
    return IsingModel(n=len(j), j=j, h=np.asarray(h, dtype=float), offset=offset)


def reference_runs(model, params, trace=None):
    """Evolve each restart alone, one (N,) vector per step.

    An independent per-restart loop the batched solver must match bit for
    bit.  Returns each restart's readout, or None where it diverged; with
    ``trace`` a list, appends a row per step as solve's trace_hook gets.
    """
    c0 = params.c0_override or compute_c0(model)
    n_steps = params.n_steps
    runs = []
    for restart in range(params.n_restarts):
        rng = np.random.default_rng([params.seed, restart])
        x = rng.uniform(-0.1, 0.1, model.n)
        y = rng.uniform(-0.1, 0.1, model.n)
        for k in range(n_steps):
            a = 1.0 if n_steps == 1 else k / (n_steps - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                force = -(params.a0 - a) * x - c0 * (
                    model.j @ sign_pm1(x) + 0.5 * model.h
                )
                y = y + params.dt * force
                x = x + params.dt * params.a0 * y
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                runs.append(None)
                break
            over = np.abs(x) > 1.0
            x = np.where(over, sign_pm1(x), x)
            y = np.where(over, 0.0, y)
            if trace is not None:
                spins = sign_pm1(x).astype(np.int8)
                trace.append((restart, k, a, x, y, energy(model, spins)))
        else:
            runs.append(sign_pm1(x).astype(np.int8))
    return runs


def reference_best(model, runs):
    # (spins, energy, restart) of the first strict minimum over survivors.
    best = None
    for restart, spins in enumerate(runs):
        if spins is not None:
            e = energy(model, spins)
            if best is None or e < best[1]:
                best = (spins, e, restart)
    return best


def assert_same_rows(rows, expected):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got[:3] == want[:3] and got[5] == want[5]
        assert np.array_equal(got[3], want[3])
        assert np.array_equal(got[4], want[4])


def staggered_divergence_model():
    # Couplings near the float limit: some sign patterns overflow the
    # force and others do not.  With the seed below, restart 0 diverges
    # at step 1, restart 2 at step 7, and restarts 1 and 3 finish.
    j = 1e307 * np.array([[0.0, 0.0, 3.0], [0.0, 0.0, -1.0], [3.0, -1.0, 0.0]])
    model = IsingModel(n=3, j=j, h=1e307 * np.array([-1.0, 2.0, -2.0]))
    params = SBParams(
        n_steps=12, dt=0.5, c0_override=4.0, n_restarts=4, seed=7
    )
    return model, params


class TestNormalization:
    def test_lambda_two_spin_uniform(self):
        assert compute_lambda(model_of([[0, 1], [1, 0]], [0, 0])) == pytest.approx(1.0)

    def test_lambda_three_spin_uniform(self):
        j = np.full((3, 3), 2.0)
        np.fill_diagonal(j, 0.0)
        assert compute_lambda(model_of(j, np.zeros(3))) == pytest.approx(2.0)

    def test_lambda_matches_scalar_loop(self, rng):
        m = random_model(rng, 8)
        total = 0.0
        for i in range(8):
            for k in range(8):
                if i != k:
                    total += m.j[i, k] ** 2
        expected = math.sqrt(total / (8 * 7))
        assert compute_lambda(m) == pytest.approx(expected, rel=1e-12)

    def test_lambda_needs_two_spins(self):
        with pytest.raises(ValueError):
            compute_lambda(model_of([[0.0]], [1.0]))

    def test_lambda_zero_for_zero_couplings(self):
        assert compute_lambda(model_of(np.zeros((3, 3)), np.ones(3))) == 0.0

    def test_c0_two_spin_uniform(self):
        m = model_of([[0, 1], [1, 0]], [0, 0])
        assert compute_c0(m) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_c0_four_spin_uniform(self):
        j = np.ones((4, 4))
        np.fill_diagonal(j, 0.0)
        assert compute_c0(model_of(j, np.zeros(4))) == pytest.approx(0.25)

    def test_c0_matches_lambda_oracle(self, rng):
        m = random_model(rng, 8)
        assert compute_c0(m) == pytest.approx(
            1.0 / (2.0 * math.sqrt(8) * compute_lambda(m)), rel=1e-12
        )

    def test_c0_rejects_zero_couplings(self):
        with pytest.raises(DegenerateModelError):
            compute_c0(model_of(np.zeros((3, 3)), np.ones(3)))


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


def step_model(m, x, y, a, c0, dt=0.5, a0=1.0):
    # batch_step on a model, with rows given as nested lists.
    return batch_step(
        np.array(x, dtype=float), np.array(y, dtype=float), a,
        m.j.T, 0.5 * m.h, c0, dt, a0,
    )


class TestStep:
    def test_free_drift_at_full_pump(self):
        # J = 0, h = 0, a = 1, a0 = 1: zero force, x drifts by dt*y.
        m = model_of(np.zeros((2, 2)), np.zeros(2))
        x0, y0 = [[0.1, -0.2], [0.0, 0.3]], [[0.3, 0.4], [-0.2, 0.1]]
        x, y, finite = step_model(m, x0, y0, a=1.0, c0=0.7)
        assert np.allclose(y, y0)
        assert np.allclose(x, np.array(x0) + 0.5 * y)
        assert finite.tolist() == [True, True]

    def test_hand_evaluated_update(self):
        # n=1, h=2, a=0: y = dt*(-(a0)(0) - c0*(0 + h/2)) = -0.25, x = dt*y.
        m = model_of([[0.0]], [2.0])
        x, y, _ = step_model(m, [[0.0]], [[0.0]], a=0.0, c0=0.5)
        assert y[0, 0] == pytest.approx(-0.25)
        assert x[0, 0] == pytest.approx(-0.125)

    def test_wall_rule_clamps_and_zeroes_momentum(self):
        m = model_of(np.zeros((1, 1)), np.zeros(1))
        x, y, _ = step_model(m, [[0.7], [0.1]], [[1.0], [1.0]], a=1.0, c0=1.0)
        # position update would give 1.2 -> clamped to the wall; the
        # second row (0.6) is inside and keeps its momentum
        assert x[:, 0].tolist() == [1.0, 0.6]
        assert y[:, 0].tolist() == [0.0, 1.0]

    def test_divergence_raises(self):
        # Under (+, +) J @ s + h/2 overflows; under (-, -) it cancels to 0.
        j = np.array([[0.0, 1e308], [1e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, finite = batch_step(
                np.array([[0.1, 0.1], [-0.1, -0.1]]), np.zeros((2, 2)), 0.0,
                j.T, np.array([1e308, 1e308]), 1.0, 0.5, 1.0,
            )
        assert finite.tolist() == [False, True]
        # A lone restart that overflows fails the whole solve.
        lone = IsingModel(n=2, j=j, h=np.zeros(2))
        with pytest.raises(SolverDivergenceError):
            solve(lone, SBParams(n_steps=5, dt=1.0, c0_override=10.0))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_positions_stay_walled(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = random_model(rng, n)
        dt = float(rng.uniform(0.1, 1.5))
        x, y = initial_states(n, int(rng.integers(2**32)), 3)
        c0 = compute_c0(m)
        for a in pump_schedule(30):
            x, y, finite = batch_step(x, y, a, m.j.T, 0.5 * m.h, c0, dt, 1.0)
            assert finite.all()
            assert np.max(np.abs(x)) <= 1.0


class TestSign:
    def test_sign_of_zero_is_positive(self):
        assert sign_pm1(np.array([0.0]))[0] == 1.0
        assert np.array_equal(
            sign_pm1(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0]
        )


class TestSolve:
    def test_ferromagnetic_pair(self):
        m = model_of([[0, -1], [-1, 0]], [0, 0])
        res = solve(m, SBParams(n_steps=100, dt=0.5, seed=1))
        assert res.energy == -2.0
        assert abs(res.spins.sum()) == 2  # aligned

    def test_field_only_degenerate_path(self):
        res = solve(model_of([[0.0]], [3.0]), SBParams(seed=0))
        assert res.spins.tolist() == [-1]
        assert res.energy == -3.0
        res = solve(model_of(np.zeros((3, 3)), [1.0, -2.0, 0.0]), SBParams())
        # s = -sgn(h), ties at h = 0 resolve to +1
        assert res.spins.tolist() == [-1, 1, 1]

    def test_pure_function_of_inputs(self, rng):
        m = random_model(rng, 6)
        params = SBParams(n_steps=80, dt=0.4, n_restarts=3, seed=99)
        a, b = solve(m, params), solve(m, params)
        assert np.array_equal(a.spins, b.spins)
        assert a.energy == b.energy and a.restart == b.restart

    def test_best_restart_selected(self, rng):
        # Re-run each restart trajectory alone and compare the pick.
        m = random_model(rng, 7)
        params = SBParams(n_steps=60, dt=0.5, n_restarts=5, seed=17)
        res = solve(m, params)
        energies = [energy(m, spins) for spins in reference_runs(m, params)]
        assert res.energy == min(energies)
        assert res.restart == int(np.argmin(energies))

    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=1.5),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_restart_reference(self, n, restarts, steps, dt, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n)
        params = SBParams(n_steps=steps, dt=dt, n_restarts=restarts, seed=seed)
        rows, ref_rows = [], []
        res = solve(m, params, trace_hook=lambda *row: rows.append(row))
        runs = reference_runs(m, params, ref_rows)
        spins, e, restart = reference_best(m, runs)
        assert np.array_equal(res.spins, spins)
        assert (res.energy, res.restart) == (e, restart)
        assert res.diverged_restarts == sum(r is None for r in runs)
        assert_same_rows(rows, ref_rows)

    def test_one_restart_diverging_is_dropped(self):
        m, params = staggered_divergence_model()
        runs = reference_runs(m, params)
        assert [r is None for r in runs] == [True, False, True, False]
        res = solve(m, params)
        assert res.diverged_restarts == 2
        spins, e, restart = reference_best(m, runs)
        assert np.array_equal(res.spins, spins)
        assert (res.energy, res.restart) == (e, restart)

    def test_trace_restart_major_and_stops_at_divergence(self):
        m, params = staggered_divergence_model()
        rows, ref_rows = [], []
        solve(m, params, trace_hook=lambda *row: rows.append(row))
        reference_runs(m, params, ref_rows)
        restarts = [row[0] for row in rows]
        assert restarts == sorted(restarts)
        # restart 0 diverges at step 1, restart 2 at step 7
        assert [restarts.count(r) for r in range(4)] == [1, 12, 7, 12]
        assert_same_rows(rows, ref_rows)

    def test_tie_keeps_earlier_restart(self):
        # Ferromagnetic pair: both aligned readouts score -2, so every
        # restart ties; restart 0 wins even where later ones differ.
        m = model_of([[0, -1], [-1, 0]], [0, 0])
        params = SBParams(n_steps=50, dt=0.5, n_restarts=6, seed=1)
        runs = reference_runs(m, params)
        assert {energy(m, s) for s in runs} == {-2.0}
        assert len({tuple(s) for s in runs}) == 2
        res = solve(m, params)
        assert res.restart == 0
        assert np.array_equal(res.spins, runs[0])

    def test_finds_ground_state_usually(self, rng):
        # Statistical: 200 random 8-spin models, 10 restarts each.
        hits = 0
        for _ in range(200):
            m = random_model(rng, 8)
            res = solve(m, SBParams(n_steps=100, dt=0.5, n_restarts=10,
                                    seed=int(rng.integers(2**63))))
            best = min(energy(m, s) for s in all_spin_vectors(8))
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
        m1 = IsingModel(n=6, j=j, h=np.zeros(6))
        x = rng.uniform(-1, 1, 6)
        for kappa in (3.0, 4.0):
            mk = IsingModel(n=6, j=kappa * j, h=np.zeros(6))
            f1 = compute_c0(m1) * (m1.j @ sign_pm1(x))
            fk = compute_c0(mk) * (mk.j @ sign_pm1(x))
            assert fk == pytest.approx(f1, rel=1e-12)
        m4 = IsingModel(n=6, j=4.0 * j, h=np.zeros(6))
        params = SBParams(n_steps=50, dt=0.5, seed=5)
        assert np.array_equal(solve(m1, params).spins, solve(m4, params).spins)

    def test_negation_symmetry(self, rng):
        # h = 0 dynamics are odd: a row holding the negated state follows
        # the negated path.
        a = rng.normal(size=(5, 5))
        j = (a + a.T) / 2.0
        np.fill_diagonal(j, 0.0)
        m = IsingModel(n=5, j=j, h=np.zeros(5))
        c0 = compute_c0(m)
        x, y = initial_states(5, seed=3, n_restarts=1)
        x, y = np.vstack([x, -x]), np.vstack([y, -y])
        for a in pump_schedule(40):
            x, y, _ = batch_step(x, y, a, m.j.T, 0.5 * m.h, c0, 0.5, 1.0)
            assert np.array_equal(x[1], -x[0])
            assert np.array_equal(y[1], -y[0])
        assert np.array_equal(sign_pm1(x[1]), -sign_pm1(x[0]))

    def test_all_restarts_diverging_raises(self):
        # c0 * J overflows to inf in the force, every restart.
        j = np.array([[0.0, 1e308], [1e308, 0.0]])
        m = IsingModel(n=2, j=j, h=np.zeros(2))
        params = SBParams(n_steps=50, dt=1.0, c0_override=10.0, n_restarts=2)
        with pytest.raises(SolverDivergenceError):
            solve(m, params)

    def test_trace_hook_sees_every_step(self, rng):
        m = random_model(rng, 4)
        rows = []
        params = SBParams(n_steps=25, dt=0.5, n_restarts=2, seed=8)
        solve(m, params, trace_hook=lambda *row: rows.append(row))
        assert len(rows) == 25 * 2
        steps = [r[1] for r in rows[:25]]
        assert steps == list(range(25))
        assert rows[0][2] == 0.0 and rows[24][2] == 1.0  # pump ramp
        for row in rows:
            assert row[5] == energy(m, sign_pm1(row[3]).astype(np.int8))


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SBParams(n_steps=0)
        with pytest.raises(ValueError):
            SBParams(dt=0.0)
        with pytest.raises(ValueError):
            SBParams(a0=-1.0)
        with pytest.raises(ValueError):
            SBParams(n_restarts=0)
        with pytest.raises(ValueError):
            SBParams(c0_override=0.0)
        for key in ("dt", "a0", "c0_override"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=key):
                    SBParams(**{key: value})

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
