from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.channel import (
    BPSK,
    QAM16,
    QPSK,
    ChannelInstance,
    add_awgn,
    modulate,
    sample_channel,
    sample_instance,
)
from sbmimo.detectors import (
    ORACLE_SPIN_LIMIT,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
    sb_solve,
)
from sbmimo.ising import energy
from sbmimo.reduction import (
    instance_model,
    regularize,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, SolverDivergenceError

from conftest import (
    all_spin_vectors,
    detect_one,
    nearest_point_bits,
    solve_one,
    spins_to_bits,
)


def make_instance(nt, nr, c, noise_var, seed):
    """Instance with an explicit noise variance instead of an SNR."""
    rng = np.random.default_rng(seed)
    tx_symbols = modulate(rng.integers(0, 2, nt * c.bps), c)
    h = sample_channel(nt, nr, rng)
    y = add_awgn(h @ tx_symbols, noise_var, rng)
    return ChannelInstance(h=h, tx_symbols=tx_symbols, noise_var=noise_var, y=y)


def exhaustive_ml(model):
    """First minimum of energy over all spin vectors in lexicographic order."""
    table = np.array(list(all_spin_vectors(model.n)))
    energies = [energy(model, s) for s in table]
    k = int(np.argmin(energies))
    return table[k], energies[k]


def zero_channel(nt, nr, c):
    """y = 0 through H = 0: every spin vector has residual zero."""
    return ChannelInstance(
        h=np.zeros((nr, nt), dtype=complex),
        tx_symbols=modulate(np.zeros(nt * c.bps, dtype=np.int8), c),
        noise_var=1.0, y=np.zeros(nr, dtype=complex),
    )


@st.composite
def oracle_instances(draw):
    # Up to 12 spins, nr from 1 to nt + 2 (rank-deficient and tall).
    c = draw(st.sampled_from([BPSK, QPSK, QAM16]))
    nt = draw(st.integers(1, 12 // c.bps))
    nr = draw(st.integers(1, nt + 2))
    snr = draw(st.floats(-10.0, 40.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_instance(nt, nr, c, snr, np.random.default_rng(seed)), c


class TestMmse:
    def test_noiseless_limit_recovers_bits(self):
        inst = make_instance(2, 2, QPSK, 1e-12, seed=11)
        assert np.linalg.cond(inst.h) < 100  # invertible, well-behaved
        res = mmse_detect(prepare(inst, QPSK))
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK),
            nearest_point_bits(inst.tx_symbols, QPSK),
        )
        assert np.array_equal(
            res.spins, symbols_to_spins(inst.tx_symbols, QPSK)
        )

    def test_matches_independent_pseudo_inverse(self):
        inst = make_instance(2, 2, QPSK, 0.8, seed=21)
        res = mmse_detect(prepare(inst, QPSK))
        hh = inst.h.conj().T
        gram = hh @ inst.h + (inst.noise_var / QPSK.symbol_energy) * np.eye(2)
        soft = np.linalg.pinv(gram) @ (hh @ inst.y)
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK), nearest_point_bits(soft, QPSK)
        )

    def test_energy_is_definitionally_consistent(self, rng):
        inst = sample_instance(3, 3, QAM16, 14.0, rng)
        res = mmse_detect(prepare(inst, QAM16))
        model = instance_model(inst, QAM16)
        assert res.ising_energy == energy(model, res.spins)

    @pytest.mark.parametrize("c", [QPSK, BPSK], ids=["qpsk", "bpsk"])
    def test_singular_gram_at_tiny_noise_takes_least_squares(self, c):
        # nt 2, nr 1: H^H H is exactly [[1, 1], [1, 1]], and sigma^2 / Es
        # is far below its rounding, so the regularized Gram matrix is
        # exactly singular in floating point; the least-squares path
        # still gives a decision.
        inst = ChannelInstance(
            h=np.array([[1.0, 1.0]], dtype=complex),
            tx_symbols=modulate(np.zeros(2 * c.bps, dtype=np.int8), c),
            noise_var=1e-300, y=np.array([2.0], dtype=complex),
        )
        gram = inst.h.conj().T @ inst.h + 1e-300 / c.symbol_energy * np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.ones(2))
        p = prepare(inst, c)
        res = mmse_detect(p)
        assert res.spins.shape == (p.model.n,)
        assert np.isfinite(res.ising_energy)
        assert res.ising_energy == energy(p.model, res.spins)

    def test_rejects_nonpositive_noise(self):
        inst = make_instance(2, 2, QPSK, 1e-6, seed=3)
        bad = replace(inst, noise_var=0.0)
        with pytest.raises(ValueError):
            mmse_detect(prepare(bad, QPSK))


class TestOracle:
    def test_noiseless_recovers_transmitted(self):
        inst = make_instance(2, 2, QPSK, 1e-12, seed=5)
        res = ml_oracle(prepare(inst, QPSK))
        assert np.array_equal(
            res.spins, symbols_to_spins(inst.tx_symbols, QPSK)
        )
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK),
            nearest_point_bits(inst.tx_symbols, QPSK),
        )

    def test_beats_every_candidate_by_full_scan(self, rng):
        inst = sample_instance(2, 2, QPSK, 4.0, rng)
        res = ml_oracle(prepare(inst, QPSK))
        model = instance_model(inst, QPSK)
        table = np.array(list(all_spin_vectors(model.n)))
        energies = np.array([energy(model, s) for s in table])
        assert res.ising_energy == energies.min()
        assert np.array_equal(table[np.argmin(energies)], res.spins)

    def test_tie_break_is_first_lexicographic(self, rng):
        # With y = 0 and orthogonal columns every sign choice per column
        # ties; the oracle must return the all-minus-one vector.
        h = np.eye(2) + 0j
        inst = ChannelInstance(
            h=h,
            tx_symbols=modulate(np.zeros(4, dtype=np.int8), QPSK),
            noise_var=1.0, y=np.zeros(2, dtype=complex),
        )
        res = ml_oracle(prepare(inst, QPSK))
        assert np.array_equal(res.spins, -np.ones(4))

    @pytest.mark.parametrize("c", [QAM16, BPSK], ids=["qam16", "bpsk"])
    def test_zero_channel_tie_is_all_minus_one(self, c):
        res = ml_oracle(prepare(zero_channel(2, 2, c), c))
        assert np.array_equal(res.spins, -np.ones(2 * c.bps))
        assert res.ising_energy == 0.0

    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_reference(self, case):
        inst, c = case
        res = ml_oracle(prepare(inst, c))
        spins, e = exhaustive_ml(instance_model(inst, c))
        assert np.array_equal(res.spins, spins)
        assert res.ising_energy == e

    def test_split_frontier_matches_reference(self, monkeypatch):
        # A 3-row block splits every frontier wider than one prefix.  The
        # zero channel prunes nothing, so all 2^8 leaves come in blocks;
        # with nr < nt the unpruned top levels split the random cases.
        monkeypatch.setattr("sbmimo.detectors._BLOCK_ROWS", 3)
        res = ml_oracle(prepare(zero_channel(2, 2, QAM16), QAM16))
        assert res.extras["candidates"] == 256
        assert np.array_equal(res.spins, -np.ones(8))
        rng = np.random.default_rng(8)
        for c, nt, nr, snr in [(QAM16, 3, 2, 0.0), (QPSK, 5, 3, -10.0)]:
            inst = sample_instance(nt, nr, c, snr, rng)
            res = ml_oracle(prepare(inst, c))
            spins, e = exhaustive_ml(instance_model(inst, c))
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == e

    def test_fewer_receivers_qam16_is_exact(self):
        # nr < nt: R has fewer rows than coordinates, so the top levels of
        # the search go unpruned; the answer must still be the optimum.
        rng = np.random.default_rng(63)
        for snr in (-10.0, 10.0, 40.0):
            inst = sample_instance(3, 1, QAM16, snr, rng)
            res = ml_oracle(prepare(inst, QAM16))
            spins, e = exhaustive_ml(instance_model(inst, QAM16))
            assert isinstance(res.extras["candidates"], int)
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == e

    def test_guard_refuses_large_search(self, rng):
        inst = sample_instance(7, 2, QAM16, 10.0, rng)  # 28 spins
        with pytest.raises(ValueError, match=str(ORACLE_SPIN_LIMIT)):
            ml_oracle(prepare(inst, QAM16))

    def test_dominates_other_detectors(self, rng):
        params = SBParams(n_steps=60, dt=0.5)
        for k in range(20):
            inst = sample_instance(2, 2, QPSK, float(5 + k), rng)
            p = prepare(inst, QPSK)
            ml = ml_oracle(p)
            mmse = mmse_detect(p)
            sbr = detect_one(p, params, mmse, r=0.5, seed=1)
            assert ml.ising_energy <= mmse.ising_energy + 1e-9
            assert ml.ising_energy <= sbr.ising_energy + 1e-9


class TestSbDetect:
    def test_plain_readout_is_consistent(self, rng):
        inst = sample_instance(3, 3, QPSK, 10.0, rng)
        res = detect_one(prepare(inst, QPSK), SBParams(n_steps=80), seed=2)
        model = instance_model(inst, QPSK)
        assert res.ising_energy == energy(model, res.spins)
        assert res.detector == "sb"
        assert set(res.extras) == {"diverged_restarts"}

    def test_regularized_never_loses_to_anchor(self, rng):
        params = SBParams(n_steps=50, dt=0.5)
        for k in range(40):
            inst = sample_instance(3, 3, QPSK, float(rng.uniform(0, 25)), rng)
            p = prepare(inst, QPSK)
            anchor = mmse_detect(p)
            res = detect_one(p, params, anchor, r=0.5)
            assert set(res.extras) == {"diverged_restarts", "selected"}
            readout = solve_one(regularize(p.model, anchor.spins, 0.5), params)
            sb_energy = energy(p.model, readout.spins)
            assert res.ising_energy <= anchor.ising_energy
            assert res.ising_energy == min(sb_energy, anchor.ising_energy)
            winner = readout if res.extras["selected"] == "sb" else anchor
            assert np.array_equal(res.spins, winner.spins)

    @pytest.mark.parametrize("restarts", [1, 4])
    def test_each_decision_energy_evaluated_once(self, monkeypatch, restarts):
        # solve scores each restart's readout once; sb reuses the winner's
        # energy and sb-reg scores only its readout under the plain model.
        import sbmimo.detectors
        import sbmimo.sb

        calls = []
        for module in (sbmimo.detectors, sbmimo.sb):
            def counting(model, s, _energy=module.energy):
                calls.append(module.__name__)
                return _energy(model, s)
            monkeypatch.setattr(module, "energy", counting)
        rng = np.random.default_rng(8)
        inst = sample_instance(3, 3, QPSK, 10.0, rng)
        params = SBParams(n_steps=40, n_restarts=restarts)
        p = prepare(inst, QPSK)
        anchor = mmse_detect(p)
        assert len(calls) == 1
        sb = detect_one(p, params, seed=3)
        assert len(calls) == 1 + restarts
        reg = detect_one(p, params, anchor, r=0.5, seed=3)
        assert len(calls) == 1 + 2 * restarts + 1
        assert sb.ising_energy == energy(p.model, sb.spins)
        assert reg.ising_energy == energy(p.model, reg.spins)

    def test_block_decisions_match_blocks_of_one(self, rng):
        # sb_solve over a block, then sb_detect per problem, decides each
        # problem as solving it alone does; a divergence outcome raises.
        params = SBParams(n_steps=40, n_restarts=2)
        problems = [
            prepare(sample_instance(3, 3, QPSK, 10.0, rng), QPSK)
            for _ in range(5)
        ]
        anchors = [mmse_detect(p) for p in problems]
        seeds = [11, 12, 13, 14, 15]
        for block_anchors in (None, anchors):
            solved = sb_solve(problems, params, seeds, block_anchors, 0.5)
            for k, (p, outcome) in enumerate(zip(problems, solved)):
                anchor = block_anchors and block_anchors[k]
                res = sb_detect(p, outcome, anchor)
                alone = detect_one(p, params, anchor, 0.5, seeds[k])
                assert np.array_equal(res.spins, alone.spins)
                assert res.ising_energy == alone.ising_energy
                assert res.extras == alone.extras
        with pytest.raises(SolverDivergenceError, match="injected"):
            sb_detect(problems[0], SolverDivergenceError("injected"))

    def test_problem_without_an_anchor_is_not_solved(self, rng):
        # An anchored block may have gaps: a None anchor's outcome is
        # None, and every other problem is decided as in a block of one.
        params = SBParams(n_steps=40, n_restarts=2)
        problems = [
            prepare(sample_instance(3, 3, QPSK, 10.0, rng), QPSK)
            for _ in range(5)
        ]
        anchors = [mmse_detect(p) if k % 2 else None
                   for k, p in enumerate(problems)]
        seeds = [21, 22, 23, 24, 25]
        solved = sb_solve(problems, params, seeds, anchors, 0.5)
        assert [s is None for s in solved] == [a is None for a in anchors]
        for k in (1, 3):
            res = sb_detect(problems[k], solved[k], anchors[k])
            alone = detect_one(problems[k], params, anchors[k], 0.5, seeds[k])
            assert np.array_equal(res.spins, alone.spins)
            assert res.ising_energy == alone.ising_energy
        assert sb_solve(problems[:1], params, [1], [None], 0.5) == [None]

    def test_energy_tie_keeps_solver_readout(self):
        # At high SNR the solver usually lands on the MMSE decision, so
        # the two candidate energies tie and the SB readout must win.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            inst = sample_instance(2, 2, QPSK, 28.0, rng)
            p = prepare(inst, QPSK)
            params = SBParams(n_steps=100)
            anchor = mmse_detect(p)
            res = detect_one(p, params, anchor, r=0.5, seed=seed)
            model = regularize(p.model, anchor.spins, 0.5)
            readout = solve_one(model, params, seed)
            if energy(p.model, readout.spins) == anchor.ising_energy:
                assert res.extras["selected"] == "sb"
                assert np.array_equal(res.spins, readout.spins)
                return
        pytest.fail("no energy tie found in 30 high-SNR instances")

    def test_detector_outputs_are_commensurate(self, rng):
        inst = sample_instance(2, 2, QAM16, 16.0, rng)
        params = SBParams(n_steps=60)
        p = prepare(inst, QAM16)
        anchor = mmse_detect(p)
        results = [
            anchor,
            ml_oracle(p),
            detect_one(p, params, seed=4),
            detect_one(p, params, anchor, r=0.5, seed=4),
        ]
        for res in results:
            assert res.spins.shape == (2 * QAM16.bps,)
        assert [r.detector for r in results] == [
            "mmse", "ml-oracle", "sb", "sb-reg"
        ]
