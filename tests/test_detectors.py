import bisect
import operator
import tracemalloc
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
    realify,
    sample_instance,
)
from sbmimo.detectors import (
    ORACLE_SPIN_LIMIT,
    DetectionResult,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
    sb_solve,
)
from sbmimo.ising import IsingModel, energy
from sbmimo.reduction import (
    level_spins,
    regularize,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, solve

from conftest import (
    all_spin_vectors,
    assert_same_model,
    detect_one,
    draw_instance,
    energy_ref,
    model_from,
    nearest_point_bits,
    sent_symbols,
    solve_one,
    spin_transform,
    spins_to_bits,
)


def make_instance(nt, nr, c, noise_var, seed):
    """Instance with an explicit noise variance instead of an SNR."""
    return draw_instance(nt, nr, c, noise_var, np.random.default_rng(seed))


def exhaustive_ml(model):
    """First minimum of energy over all spin vectors in lexicographic order."""
    table = np.array(list(all_spin_vectors(model.n)))
    energies = [energy_ref(model, s) for s in table]
    k = int(np.argmin(energies))
    return table[k], energies[k]


def oracle(p, b):
    """ml_oracle's decision on problem b, with its work counts checked:
    every leaf scored is a prefix distance computed, and at least one
    leaf is scored."""
    res = ml_oracle(p, b)
    assert res.extras["nodes"] >= res.extras["candidates"] >= 1
    return res


def zero_channel(nt, nr, c):
    """y = 0 through H = 0: every spin vector has residual zero."""
    return ChannelInstance(
        h=np.zeros((nr, nt), dtype=complex),
        tx_levels=np.zeros(c.axes * nt, dtype=np.int8),
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


@st.composite
def oracle_blocks(draw):
    # A block of 2 to 4 same-size instances of up to 12 spins, nr from 1
    # to nt + 2 (wide and tall): at least one drawn at its own SNR in
    # [-10, 25] dB, beside others drawn so, zero channels, or drawn with
    # a NaN, an inf, a -inf or an inf * 1j in y.
    c = draw(st.sampled_from([BPSK, QPSK, QAM16]))
    nt = draw(st.integers(1, 12 // c.bps))
    nr = draw(st.integers(1, nt + 2))
    bad = [np.nan, np.inf, -np.inf, complex(0, np.inf)]
    kinds = draw(st.lists(st.sampled_from(["drawn", "zero", *bad]),
                          min_size=1, max_size=3))
    kinds.insert(draw(st.integers(0, len(kinds))), "drawn")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    insts = []
    for kind in kinds:
        inst = sample_instance(nt, nr, c, float(rng.uniform(-10, 25)), rng)
        if kind == "zero":
            inst = zero_channel(nt, nr, c)
        elif kind != "drawn":
            y = inst.y.copy()
            y[rng.integers(nr)] = kind
            inst = replace(inst, y=y)
        insts.append(inst)
    return insts, c


def mmse_reference(inst, c):
    """One instance's MMSE decision taken alone, by the per-instance
    solve and lstsq fallback the stacked one must reproduce bit for bit:
    its spins, or None where both fail."""
    nt = inst.h.shape[1]
    hh = inst.h.conj().T
    delta = inst.noise_var / c.symbol_energy
    gram = hh @ inst.h + delta * np.eye(nt)
    try:
        soft = np.linalg.solve(gram, hh @ inst.y)
    except np.linalg.LinAlgError:
        a = np.vstack([inst.h, np.sqrt(delta) * np.eye(nt)])
        try:
            soft = np.linalg.lstsq(a, np.r_[inst.y, np.zeros(nt)])[0]
        except np.linalg.LinAlgError:
            return None
    return symbols_to_spins(soft, c)


def singular_instance(nt, nr, c, rng):
    """Equal columns and noise far below their Gram's rounding: for nt >= 2
    the regularized Gram matrix is exactly singular, so its solve fails
    and MMSE takes the least-squares path."""
    y = rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
    return ChannelInstance(
        h=np.ones((nr, nt), dtype=complex),
        tx_levels=np.zeros(c.axes * nt, dtype=np.int8),
        noise_var=1e-300, y=y,
    )


@st.composite
def instance_blocks(draw):
    # A block of up to 6 same-size instances, nr from 1 to nt + 3 (wide
    # and tall), each regular or with an exactly singular Gram matrix.
    c = draw(st.sampled_from([BPSK, QPSK, QAM16]))
    nt = draw(st.integers(1, 6))
    nr = draw(st.integers(1, nt + 3))
    singular = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    insts = [
        singular_instance(nt, nr, c, rng) if bad
        else sample_instance(nt, nr, c, float(rng.uniform(-10, 60)), rng)
        for bad in singular
    ]
    return insts, c


class TestPrepare:
    @given(instance_blocks())
    @settings(max_examples=150, deadline=None)
    def test_block_matches_each_instance_alone(self, block):
        # The stacked reduction and MMSE solve give each row of the block
        # the system, model and MMSE decision of its instance alone, bit
        # for bit, including where one singular Gram matrix in the block
        # makes the stacked solve fall back to per-instance solves.
        insts, c = block
        p = prepare(insts, c)
        assert len(p.noise_var) == len(p.mmse.spins) == len(p.model.h)
        assert len(p.noise_var) == len(insts)
        assert p.mmse.done.all()
        assert p.c is c
        for b, inst in enumerate(insts):
            h_r, y_r = realify(inst.h, inst.y, c)
            assert p.noise_var[b] == inst.noise_var
            assert p.h_r[b].tobytes() == h_r.tobytes()
            assert p.y_r[b].tobytes() == y_r.tobytes()
            nt = inst.h.shape[1]
            model = model_from(h_r @ spin_transform(c, nt), y_r)
            assert_same_model(p.model[[b]], model)
            spins = mmse_reference(inst, c)
            assert spins is not None
            res = mmse_detect(p, b)
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == energy_ref(model, spins)
            assert np.array_equal(p.mmse.spins[b], spins)
            assert p.mmse.ising_energy[b] == res.ising_energy

    def test_block_mixes_singular_and_regular_gram(self, rng):
        # One pinned block of each kind: the stacked solve raises, so the
        # regular instances are solved one by one.
        insts = [sample_instance(2, 1, QPSK, 10.0, rng),
                 singular_instance(2, 1, QPSK, rng),
                 sample_instance(2, 1, QPSK, 20.0, rng)]
        gram = np.ones((2, 2)) + 1e-300 / QPSK.symbol_energy * np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.ones(2))
        p = prepare(insts, QPSK)
        for b, inst in enumerate(insts):
            assert np.array_equal(p.mmse.spins[b], mmse_reference(inst, QPSK))

    def test_one_energies_call_scores_the_block(self, monkeypatch, rng):
        # prepare scores every MMSE decision of a block in one energy
        # call, each under its own problem's model as the single-row
        # expression scores it; mmse_detect hands back row b of the
        # stored record.
        import sbmimo.detectors

        shapes = []
        score = sbmimo.detectors.energy

        def counting(model, s):
            shapes.append(model.j.shape)
            return score(model, s)

        monkeypatch.setattr(sbmimo.detectors, "energy", counting)
        insts = [sample_instance(3, 2, QAM16, snr, rng)
                 for snr in (0.0, 10.0, 20.0, 30.0)]
        p = prepare(insts, QAM16)
        assert shapes == [(4, 12, 12)]
        assert p.mmse.done.tolist() == [True] * 4
        for b in range(len(insts)):
            res = mmse_detect(p, b)
            assert res.spins.tobytes() == p.mmse.spins[b].tobytes()
            assert res.ising_energy == p.mmse.ising_energy[b]
            assert (res.detector, res.extras) == ("mmse", {})
            assert res.ising_energy == energy_ref(p.model[[b]], res.spins)
        assert len(shapes) == 1

    def test_no_decision_is_a_detection_failure(self, rng):
        # A problem whose MMSE record is not done has no decision: its
        # lookup gives None, which the sweep counts as a failure.
        p = prepare([sample_instance(2, 2, QPSK, 10.0, rng)], QPSK)
        assert mmse_detect(p, 0) is not None
        undone = replace(p.mmse, done=np.array([False]))
        assert mmse_detect(replace(p, mmse=undone), 0) is None


class TestDetectionResult:
    def test_records_match_their_lookups(self, rng, monkeypatch):
        # Each detector's record of a block against its [b] and its
        # lookup: row b of the record, or None exactly where done[b] is
        # False.  Problem 1 has a NaN in y and problem 2 the same instance
        # with an inf there: MMSE and the oracle decide both, with a NaN
        # energy, sb and sb-reg neither, and both decide alike, with no
        # warning.  MMSE reports no decision on problem 3, so sb-reg has
        # none there either.  Problems 5 to 7 have noise variances of 0,
        # -1 and NaN: MMSE and so sb-reg decide none of them, and the
        # oracle and sb decide each.
        import sbmimo.detectors

        mmse_spins = sbmimo.detectors._mmse_spins

        def failing(*args):
            s, ok = mmse_spins(*args)
            ok[3] = False
            return s, ok

        monkeypatch.setattr(sbmimo.detectors, "_mmse_spins", failing)
        insts = [sample_instance(3, 3, QPSK, 10.0, rng) for _ in range(4)]
        y = insts[1].y.copy()
        y[0] = np.nan
        insts[1] = replace(insts[1], y=y)
        y = y.copy()
        y[0] = np.inf
        insts.insert(2, replace(insts[1], y=y))
        insts += [replace(insts[0], noise_var=v) for v in (0.0, -1.0, np.nan)]
        p = prepare(insts, QPSK)
        params = SBParams(n_steps=40, n_restarts=2)
        seeds = [5, 6, 6, 7, 8, 9, 10, 11]
        sb = sb_solve(p, params, seeds)
        reg = sb_solve(p, params, seeds, 0.5)
        cases = [
            (p.mmse, lambda b: mmse_detect(p, b), [1, 1, 1, 0, 1, 0, 0, 0],
             set()),
            (p.oracle, lambda b: ml_oracle(p, b), [1, 1, 1, 1, 1, 1, 1, 1],
             {"candidates", "nodes"}),
            (sb, lambda b: sb_detect(sb, b), [1, 0, 0, 1, 1, 1, 1, 1],
             {"diverged_restarts"}),
            (reg, lambda b: sb_detect(reg, b), [1, 0, 0, 0, 1, 0, 0, 0],
             {"diverged_restarts", "selected"}),
        ]
        for rec, lookup, done, keys in cases:
            assert rec.spins.shape == (8, 6) and rec.spins.dtype == np.int8
            assert rec.ising_energy.shape == (8,)
            assert rec.done.tolist() == [bool(d) for d in done]
            assert set(rec.extras) == keys
            nan = np.isnan(rec.ising_energy).tolist()
            assert nan[1] and nan[2] and not (nan[0] or nan[4])
            for b in (3, 5, 6, 7):
                assert nan[b] == (not rec.done[b])
            for b in range(8):
                for res in (rec[b], lookup(b)):
                    if not rec.done[b]:
                        assert res is None
                        continue
                    assert res.detector == rec.detector and res.done is True
                    assert res.spins.tobytes() == rec.spins[b].tobytes()
                    assert type(res.ising_energy) is float
                    assert np.array_equal(res.ising_energy,
                                          rec.ising_energy[b], equal_nan=True)
                    assert res.extras == {
                        key: value[b] for key, value in rec.extras.items()
                    }
                    assert all(type(v) in (int, str)
                               for v in res.extras.values())
            if rec.done[1]:
                assert rec.spins[1].tobytes() == rec.spins[2].tobytes()
                assert rec[1].extras == rec[2].extras
        assert p.oracle.extras["candidates"][1:3].tolist() == [0, 0]


class TestMmse:
    def test_noiseless_limit_recovers_bits(self):
        inst = make_instance(2, 2, QPSK, 1e-12, seed=11)
        assert np.linalg.cond(inst.h) < 100  # invertible, well-behaved
        res = mmse_detect(prepare([inst], QPSK), 0)
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK),
            nearest_point_bits(sent_symbols(inst, QPSK), QPSK),
        )
        assert np.array_equal(
            res.spins, level_spins(inst.tx_levels, QPSK)
        )

    def test_matches_independent_pseudo_inverse(self):
        inst = make_instance(2, 2, QPSK, 0.8, seed=21)
        res = mmse_detect(prepare([inst], QPSK), 0)
        hh = inst.h.conj().T
        gram = hh @ inst.h + (inst.noise_var / QPSK.symbol_energy) * np.eye(2)
        soft = np.linalg.pinv(gram) @ (hh @ inst.y)
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK), nearest_point_bits(soft, QPSK)
        )

    def test_energy_is_definitionally_consistent(self, rng):
        inst = sample_instance(3, 3, QAM16, 14.0, rng)
        res = mmse_detect(prepare([inst], QAM16), 0)
        model = prepare([inst], QAM16).model[[0]]
        assert res.ising_energy == energy_ref(model, res.spins)

    @pytest.mark.parametrize("c", [QPSK, BPSK], ids=["qpsk", "bpsk"])
    def test_singular_gram_at_tiny_noise_takes_least_squares(self, c):
        # nt 2, nr 1: H^H H is exactly [[1, 1], [1, 1]], and sigma^2 / Es
        # is far below its rounding, so the regularized Gram matrix is
        # exactly singular in floating point; the least-squares path
        # still gives a decision.
        inst = ChannelInstance(
            h=np.array([[1.0, 1.0]], dtype=complex),
            tx_levels=np.zeros(2 * c.axes, dtype=np.int8),
            noise_var=1e-300, y=np.array([2.0], dtype=complex),
        )
        gram = inst.h.conj().T @ inst.h + 1e-300 / c.symbol_energy * np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.ones(2))
        p = prepare([inst], c)
        res = mmse_detect(p, 0)
        assert res.spins.shape == (p.model[[0]].n,)
        assert np.isfinite(res.ising_energy)
        assert res.ising_energy == energy_ref(p.model[[0]], res.spins)

    def test_failed_least_squares_has_no_decision(self):
        # Two equal columns of H make the regularized Gram matrix exactly
        # singular at tiny noise, whatever a NaN third column holds, so
        # both solves fail; the NaN makes lstsq fail too.
        inst = ChannelInstance(
            h=np.array([[1.0, 1.0, np.nan]], dtype=complex),
            tx_levels=np.zeros(6, dtype=np.int8), noise_var=1e-300,
            y=np.array([1.0], dtype=complex),
        )
        p = prepare([inst], QPSK)
        assert not p.mmse.done[0]
        assert mmse_detect(p, 0) is None

    def test_zero_noise_has_no_decision(self):
        # At noise_var 0 the regularizer is 0, and this H^H H alone is
        # invertible, yet no decision is taken, as for any variance that
        # is not positive: p.mmse is not done there and the lookup is None.
        inst = replace(make_instance(2, 2, QPSK, 1e-6, seed=3), noise_var=0.0)
        p = prepare([inst], QPSK)
        assert np.linalg.cond(inst.h) < 100
        assert not p.mmse.done[0]
        assert p.mmse[0] is None
        assert mmse_detect(p, 0) is None

    def test_rejects_nonpositive_noise(self):
        # A noise variance that is not a finite positive number has no
        # decision, and a block-mate with one leaves a good instance's
        # decision as it is alone.
        inst = make_instance(2, 2, QPSK, 1e-6, seed=3)
        for noise_var in (0.0, -1.0, float("nan")):
            bad = replace(inst, noise_var=noise_var)
            p = prepare([bad, inst], QPSK)
            assert mmse_detect(p, 0) is None
            assert np.array_equal(mmse_detect(p, 1).spins,
                                  mmse_reference(inst, QPSK))


def triangles_reference(h_r, y_r, lam):
    """One instance's [R z] of h_r = Q R with z = Q^T y_r, and the same for
    [h_r; lam I] with y_r padded by zeros, from its own QR of the two
    systems: the per-instance front end the block's must reproduce."""
    m, k = h_r.shape
    a = np.zeros((2, m + k, k + 1))
    a[:, :m, :k] = h_r
    a[:, :m, k] = y_r
    np.fill_diagonal(a[1, m:], lam)
    return np.linalg.qr(a, mode="r")[:, :k]


def babai_reference(rz, c):
    """The MMSE-SIC lattice point from one regularized [R z], by scalar
    Python floats: last coordinate first, each centre summed left to
    right and rounded by a bisection of the midpoints (ties to the
    smaller amplitude, a non-finite centre as 0)."""
    k = len(rz)
    lv = c.levels
    mid = [(a + b) / 2 for a, b in zip(lv, lv[1:])]
    rows = rz.tolist()
    x = [0.0] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        centre = row[k] - sum(map(operator.mul, row[i + 1:k], x[i + 1:]))
        centre = centre / row[i] if row[i] else 0.0
        centre = centre if np.isfinite(centre) else 0.0
        side = bisect.bisect_left if centre > 0 else bisect.bisect_right
        x[i] = lv[side(mid, centre)]
    return np.array(x, dtype=np.float64)


def assert_front_matches_reference(insts, c):
    # Bit for bit: each instance's R, z and start are its own front end's.
    p = prepare(insts, c)
    rz, start = p.oracle_front
    k = p.h_r.shape[-1]
    assert rz.shape == (len(insts), k, k + 1) and start.shape == rz.shape[:2]
    for b, inst in enumerate(insts):
        lam = (max(0.0, inst.noise_var) / c.symbol_energy) ** 0.5
        plain, reg = triangles_reference(p.h_r[b], p.y_r[b], lam)
        assert rz[b].tobytes() == plain.tobytes()
        assert start[b].tobytes() == babai_reference(reg, c).tobytes()


def front_blocks():
    # Per constellation, wide (nr < nt) and tall blocks at each of three
    # SNRs and one block mixing them; then a zero pivot (noise_var 0 with
    # nr < nt) and a non-finite centre (a NaN in y) beside a regular row.
    rng = np.random.default_rng(41)
    snrs = (-10.0, 5.0, 25.0)
    for c in (BPSK, QPSK, QAM16):
        for nt, nr in ((4, 2), (3, 5)):
            shape = f"{c.name}-nt{nt}-nr{nr}"
            for snr in snrs:
                insts = [sample_instance(nt, nr, c, snr, rng)
                         for _ in range(3)]
                yield pytest.param(c, insts, id=f"{shape}-{snr:g}dB")
            insts = [sample_instance(nt, nr, c, snr, rng) for snr in snrs]
            yield pytest.param(c, insts, id=f"{shape}-mixed")
        inst = sample_instance(4, 2, c, 5.0, rng)
        y = inst.y.copy()
        y[0] = np.nan
        insts = [inst, replace(inst, noise_var=0.0), replace(inst, y=y)]
        yield pytest.param(c, insts, id=f"{c.name}-edges")


class TestOracleFront:
    @pytest.mark.parametrize("c, insts", front_blocks())
    def test_block_matches_per_instance_reference(self, c, insts):
        assert_front_matches_reference(insts, c)

    @given(instance_blocks())
    @settings(max_examples=60, deadline=None)
    def test_random_blocks_match_per_instance_reference(self, block):
        insts, c = block
        assert_front_matches_reference(insts, c)

    def test_zero_pivot_and_nan_centre_round_from_zero(self):
        # noise_var 0 with nr < nt leaves the regularized triangle's last
        # rows zero, and a NaN in y makes every centre NaN: each such
        # coordinate goes where 0 does, to the level +1.
        c, insts = list(front_blocks())[-1].values
        p = prepare(insts, c)
        start = p.oracle_front[1]
        m = p.h_r.shape[1]
        assert np.all(start[1, m:] == 1)
        assert np.all(start[2] == 1)
        assert not np.all(start[0] == 1)


class TestOracle:
    def test_noiseless_recovers_transmitted(self):
        inst = make_instance(2, 2, QPSK, 1e-12, seed=5)
        res = oracle(prepare([inst], QPSK), 0)
        assert np.array_equal(
            res.spins, level_spins(inst.tx_levels, QPSK)
        )
        assert np.array_equal(
            spins_to_bits(res.spins, QPSK),
            nearest_point_bits(sent_symbols(inst, QPSK), QPSK),
        )

    def test_beats_every_candidate_by_full_scan(self, rng):
        inst = sample_instance(2, 2, QPSK, 4.0, rng)
        res = oracle(prepare([inst], QPSK), 0)
        model = prepare([inst], QPSK).model[[0]]
        table = np.array(list(all_spin_vectors(model.n)))
        energies = np.array([energy_ref(model, s) for s in table])
        assert res.ising_energy == energies.min()
        assert np.array_equal(table[np.argmin(energies)], res.spins)

    def test_tie_break_is_first_lexicographic(self, rng):
        # With y = 0 and orthogonal columns every sign choice per column
        # ties; the oracle must return the all-minus-one vector.
        h = np.eye(2) + 0j
        inst = ChannelInstance(
            h=h,
            tx_levels=np.zeros(4, dtype=np.int8),
            noise_var=1.0, y=np.zeros(2, dtype=complex),
        )
        res = oracle(prepare([inst], QPSK), 0)
        assert np.array_equal(res.spins, -np.ones(4))

    @pytest.mark.parametrize("c", [QAM16, BPSK], ids=["qam16", "bpsk"])
    def test_zero_channel_tie_is_all_minus_one(self, c):
        res = oracle(prepare([zero_channel(2, 2, c)], c), 0)
        assert np.array_equal(res.spins, -np.ones(2 * c.bps))
        assert res.ising_energy == 0.0

    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_reference(self, case):
        inst, c = case
        res = oracle(prepare([inst], c), 0)
        spins, e = exhaustive_ml(prepare([inst], c).model[[0]])
        assert np.array_equal(res.spins, spins)
        assert res.ising_energy == e

    @given(oracle_blocks())
    @settings(max_examples=25, deadline=None)
    def test_block_decisions_match_blocks_of_one(self, case):
        # One search over the block decides each instance bit for bit as
        # its block of one and the exhaustive scan do.  An instance with
        # a NaN or an infinity in y takes level 0 everywhere, scoring NaN,
        # with no leaf scored, and leaves its block-mates as they are.
        insts, c = case
        p = prepare(insts, c)
        for b, inst in enumerate(insts):
            one = prepare([inst], c)
            spins, e = exhaustive_ml(one.model[[0]])
            for res in (ml_oracle(p, b), ml_oracle(one, 0)):
                assert np.array_equal(res.spins, spins)
                assert np.array_equal(res.ising_energy, e, equal_nan=True)
                if not np.isfinite(inst.y).all():
                    assert res.extras["candidates"] == 0
                else:
                    assert (res.extras["nodes"] >= res.extras["candidates"]
                            >= 1)

    def test_split_frontier_matches_reference(self, monkeypatch):
        # A 3-row block splits every frontier wider than one prefix.  The
        # zero channel prunes nothing, so all 2^8 leaves come in blocks;
        # with nr < nt the unpruned top levels split the random cases.
        monkeypatch.setattr("sbmimo.detectors._BLOCK_ROWS", 3)
        res = oracle(prepare([zero_channel(2, 2, QAM16)], QAM16), 0)
        assert res.extras["candidates"] == 256
        assert np.array_equal(res.spins, -np.ones(8))
        rng = np.random.default_rng(8)
        for c, nt, nr, snr in [(QAM16, 3, 2, 0.0), (QPSK, 5, 3, -10.0)]:
            inst = sample_instance(nt, nr, c, snr, rng)
            res = oracle(prepare([inst], c), 0)
            spins, e = exhaustive_ml(prepare([inst], c).model[[0]])
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == e

    def test_fewer_receivers_qam16_is_exact(self):
        # nr < nt: R has fewer rows than coordinates, so the top levels of
        # the search go unpruned; the answer must still be the optimum.
        rng = np.random.default_rng(63)
        for snr in (-10.0, 10.0, 40.0):
            inst = sample_instance(3, 1, QAM16, snr, rng)
            res = oracle(prepare([inst], QAM16), 0)
            spins, e = exhaustive_ml(prepare([inst], QAM16).model[[0]])
            assert isinstance(res.extras["candidates"], int)
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == e

    @pytest.mark.parametrize("snr", [5.0, 10.0, 15.0])
    def test_benchmark_shape_matches_exhaustive_reference(self, snr):
        # 8x8 QPSK, 16 spins: the shape the benchmark's oracle workload
        # runs, above the 12 spins of the property above.
        rng = np.random.default_rng(int(snr))
        for _ in range(2):
            inst = sample_instance(8, 8, QPSK, snr, rng)
            res = oracle(prepare([inst], QPSK), 0)
            spins, e = exhaustive_ml(prepare([inst], QPSK).model[[0]])
            assert np.array_equal(res.spins, spins)
            assert res.ising_energy == e

    def test_shrinking_bound_pins_the_search_work(self, monkeypatch):
        # 4x2 16-QAM at -10 dB: the top four levels go unpruned, and
        # 9,392 leaves lie within the MMSE-SIC point's distance.  Only
        # those within slack of the best leaf are scored.
        inst = sample_instance(4, 2, QAM16, -10.0, np.random.default_rng(3))
        spins, e = exhaustive_ml(prepare([inst], QAM16).model[[0]])
        res = oracle(prepare([inst], QAM16), 0)
        assert np.array_equal(res.spins, spins)
        assert res.ising_energy == e
        assert res.extras["candidates"] <= 1
        assert res.extras["nodes"] <= 26_000  # 23,716 measured
        # 64-row blocks split the frontier, so blocks wait on the stack
        # while leaves lower the bound; filtering them against it when
        # they are taken up halves the work (11,136 prefix distances
        # without that filter).
        monkeypatch.setattr("sbmimo.detectors._BLOCK_ROWS", 64)
        res = oracle(prepare([inst], QAM16), 0)
        assert np.array_equal(res.spins, spins)
        assert res.extras["nodes"] <= 6_000  # 5,376 measured

    def test_exact_ties_survive_the_shrinking_bound(self):
        # Integer channel and received vector: three spin vectors tie
        # exactly at residual 9, while their distances over the QR
        # factor differ in the last bits.  The bound keeps its slack as
        # it shrinks, so every tie is scored and the first one wins.
        inst = ChannelInstance(
            h=np.array([[1j, -1 - 1j], [2, -1 + 2j]]),
            tx_levels=np.zeros(4, dtype=np.int8),
            noise_var=1.0, y=np.array([-3 - 1j, 1 + 2j]),
        )
        res = oracle(prepare([inst], QPSK), 0)
        spins, e = exhaustive_ml(prepare([inst], QPSK).model[[0]])
        assert np.array_equal(res.spins, spins)
        assert res.ising_energy == e == 9.0
        assert res.extras["candidates"] == 3

    def test_first_leaf_block_keeps_its_optimum(self, monkeypatch):
        # One coordinate per round and one prefix per expansion make each
        # leaf block hold at most two leaves, and a slack as wide as the
        # distances keeps worse leaves within the bound, so later blocks
        # are scored too.  Sent at level 0 without noise, the optimum is
        # the first leaf of the search (all -1): no later block with a
        # higher energy may replace it.
        monkeypatch.setattr("sbmimo.detectors._BLOCK_ROWS", 3)
        monkeypatch.setattr("sbmimo.detectors._ROUND_ROWS", 2)
        monkeypatch.setattr("sbmimo.detectors._MARGIN", 1.0)
        h = sample_instance(4, 4, QPSK, 10.0, np.random.default_rng(4)).h
        inst = ChannelInstance(
            h=h, tx_levels=np.zeros(8, dtype=np.int8),
            noise_var=1.0, y=h @ np.full(4, -1 - 1j),
        )
        p = prepare([inst], QPSK)
        spins, e = exhaustive_ml(p.model[[0]])
        scored = []  # the oracle's energy calls alone

        def recording(*args):
            scored.append(energy(*args))
            return scored[-1]

        monkeypatch.setattr("sbmimo.detectors.energy", recording)
        res = oracle(p, 0)
        assert np.array_equal(res.spins, spins)
        assert np.array_equal(spins, -np.ones(8))
        assert res.ising_energy == e
        # The first call scores the incumbent's start, the all -1 point;
        # the rest score the leaf blocks.
        start, *leaves = scored
        assert start.shape == (1, 1) and start[0, 0] == e
        assert len(leaves) >= 2
        assert leaves[0].min() == e < min(b.min() for b in leaves[1:])
        # A block of one scores each leaf entry as one unpadded piece.
        assert res.extras["candidates"] == sum(b.size for b in leaves)

    def test_memory_per_instance_does_not_grow_with_the_block(self):
        # Each prefix's product reads only its own instance's rows of
        # [R z], so the oracle's peak traced allocation per instance on a
        # 64-instance 8x8 QPSK block at 5 dB stays near a 32-instance
        # block's from the same streams (0.93x measured).  A product with
        # every instance's rows side by side grows with the block: ~1.5x.
        def peak_per_instance(insts):
            p = prepare(insts, QPSK)
            tracemalloc.start()
            try:
                p.oracle
                return tracemalloc.get_traced_memory()[1] / len(insts)
            finally:
                tracemalloc.stop()

        insts = [
            sample_instance(8, 8, QPSK, 5.0, np.random.default_rng([1, 0, i]))
            for i in range(64)
        ]
        assert peak_per_instance(insts) <= 1.25 * peak_per_instance(insts[:32])

    def test_guard_refuses_large_search(self, rng):
        inst = sample_instance(7, 2, QAM16, 10.0, rng)  # 28 spins
        with pytest.raises(ValueError, match=str(ORACLE_SPIN_LIMIT)):
            oracle(prepare([inst], QAM16), 0)

    def test_dominates_other_detectors(self, rng):
        params = SBParams(n_steps=60, dt=0.5)
        for k in range(20):
            inst = sample_instance(2, 2, QPSK, float(5 + k), rng)
            p = prepare([inst], QPSK)
            ml = oracle(p, 0)
            mmse = mmse_detect(p, 0)
            sbr = detect_one(p, params, True, r=0.5, seed=1)
            assert ml.ising_energy <= mmse.ising_energy + 1e-9
            assert ml.ising_energy <= sbr.ising_energy + 1e-9


class TestSbDetect:
    def test_plain_readout_is_consistent(self, rng):
        inst = sample_instance(3, 3, QPSK, 10.0, rng)
        res = detect_one(prepare([inst], QPSK), SBParams(n_steps=80), seed=2)
        model = prepare([inst], QPSK).model[[0]]
        assert res.ising_energy == energy_ref(model, res.spins)
        assert res.detector == "sb"
        assert set(res.extras) == {"diverged_restarts"}

    def test_regularized_never_loses_to_anchor(self, rng):
        params = SBParams(n_steps=50, dt=0.5)
        for k in range(40):
            inst = sample_instance(3, 3, QPSK, float(rng.uniform(0, 25)), rng)
            p = prepare([inst], QPSK)
            anchor = mmse_detect(p, 0)
            res = detect_one(p, params, True, r=0.5)
            assert set(res.extras) == {"diverged_restarts", "selected"}
            readout = solve_one(
                regularize(p.model[[0]], anchor.spins[None], 0.5), params)
            sb_energy = energy_ref(p.model[[0]], readout.spins)
            assert res.ising_energy <= anchor.ising_energy
            assert res.ising_energy == min(sb_energy, anchor.ising_energy)
            winner = readout if res.extras["selected"] == "sb" else anchor
            assert np.array_equal(res.spins, winner.spins)

    @pytest.mark.parametrize("restarts", [1, 4])
    def test_each_decision_energy_evaluated_once(self, monkeypatch, restarts):
        # On a block of several problems, prepare scores the MMSE
        # decisions in one energy call, and mmse_detect nothing; solve
        # scores every restart's readout in one energy call; sb reuses
        # each winner's energy, sb-reg scores the block's readouts under
        # the plain models in one more energy call, and sb_detect scores
        # nothing.  No model is scored alone.
        import sbmimo.detectors
        import sbmimo.sb

        calls = []

        def counting(module, name):
            func = getattr(module, name)

            def counted(*args):
                calls.append(f"{module.__name__}.{name}")
                return func(*args)
            return counted

        for module in (sbmimo.detectors, sbmimo.sb):
            monkeypatch.setattr(module, "energy", counting(module, "energy"))
        rng = np.random.default_rng(8)
        insts = [sample_instance(3, 3, QPSK, 10.0, rng) for _ in range(4)]
        params = SBParams(n_steps=40, n_restarts=restarts)
        seeds = [3, 4, 5, 6]
        p = prepare(insts, QPSK)
        for b in range(4):
            res = mmse_detect(p, b)
            assert res.ising_energy == p.mmse.ising_energy[b]
            assert np.array_equal(res.spins, p.mmse.spins[b])
        assert calls == ["sbmimo.detectors.energy"]
        sb = sb_solve(p, params, seeds)
        assert calls[1:] == ["sbmimo.sb.energy"]
        reg = sb_solve(p, params, seeds, 0.5)
        assert calls[2:] == ["sbmimo.sb.energy", "sbmimo.detectors.energy"]
        for b in range(4):
            for solved in (sb, reg):
                res = sb_detect(solved, b)
                assert res.ising_energy == energy_ref(p.model[[b]], res.spins)
        assert len(calls) == 4

    def test_block_decisions_match_blocks_of_one(self, rng, monkeypatch):
        # sb_solve over a block, then sb_detect per problem, decides each
        # problem as solving it alone does; a problem not done (no
        # readout: every restart diverged) looks up as None.  No
        # model of the block needs rescaling, so every step evolves the
        # stacked J that prepare built, anchored or not: not a copy.
        import sbmimo.sb

        params = SBParams(n_steps=40, n_restarts=2)
        insts = [sample_instance(3, 3, QPSK, 10.0, rng) for _ in range(5)]
        p = prepare(insts, QPSK)
        seeds = [11, 12, 13, 14, 15]
        stepped = []
        step = sbmimo.sb.step

        def recording(xy, s, force, keep, a, j, *args):
            stepped.append(j)
            return step(xy, s, force, keep, a, j, *args)

        monkeypatch.setattr(sbmimo.sb, "step", recording)
        for anchored in (False, True):
            r = 0.5 if anchored else None
            stepped.clear()
            solved = sb_solve(p, params, seeds, r)
            assert len(stepped) == params.n_steps
            assert all(j is p.model.j for j in stepped)
            for b in range(len(insts)):
                res = sb_detect(solved, b)
                alone = detect_one(prepare([insts[b]], QPSK), params,
                                   anchored, 0.5, seeds[b])
                assert res.detector == alone.detector
                assert np.array_equal(res.spins, alone.spins)
                assert res.ising_energy == alone.ising_energy
                assert res.extras == alone.extras
        assert solved.done.all()
        undone = replace(solved, done=np.arange(5) != 2)
        assert sb_detect(undone, 2) is None
        assert sb_detect(undone, 1).ising_energy == solved.ising_energy[1]

    def test_problem_without_an_anchor_is_not_solved(self, rng, monkeypatch):
        # An anchored block may have gaps: a problem with no MMSE decision
        # is not solved and its trace list is left as it is, and every
        # other problem is decided and traced as in a block of one.  With
        # no decision at all, nothing is solved.
        import sbmimo.detectors

        params = SBParams(n_steps=40, n_restarts=2)
        insts = [sample_instance(3, 3, QPSK, 10.0, rng) for _ in range(5)]
        p = prepare(insts, QPSK)
        gaps = np.arange(5) % 2 == 1
        p = replace(p, mmse=replace(p.mmse, done=gaps))
        seeds = [21, 22, 23, 24, 25]
        traces = [[] if b % 2 else ["kept"] for b in range(5)]
        solved = sb_solve(p, params, seeds, 0.5, traces)
        assert solved.done.tolist() == gaps.tolist()
        assert traces[0] == traces[2] == traces[4] == ["kept"]
        for b in (0, 2, 4):
            assert p.mmse[b] is None
            assert sb_detect(solved, b) is None
            assert np.isnan(solved.ising_energy[b])
        for b in (1, 3):
            res = sb_detect(solved, b)
            one = prepare([insts[b]], QPSK)
            alone = detect_one(one, params, True, 0.5, seeds[b])
            assert np.array_equal(res.spins, alone.spins)
            assert res.ising_energy == alone.ising_energy
            rows = []
            sb_solve(one, params, [seeds[b]], 0.5, [rows])
            assert len(traces[b]) == len(rows) > 0
            for got, want in zip(traces[b], rows):
                assert got[:3] == want[:3] and got[5] == want[5]
                assert np.array_equal(got[3], want[3])
                assert np.array_equal(got[4], want[4])

        def no_solve(*args):
            raise AssertionError("solve called on a block with no anchor")

        monkeypatch.setattr(sbmimo.detectors, "solve", no_solve)
        none = replace(p, mmse=replace(p.mmse, done=np.zeros(5, dtype=bool)))
        solved = sb_solve(none, params, seeds, 0.5)
        assert [sb_detect(solved, b) for b in range(5)] == [None] * 5

    def test_problem_whose_every_restart_diverges_is_unsolved(self, rng):
        # Problem 1's couplings at 1e308 overflow J @ s under every sign
        # pattern, so each of its restarts diverges at the first step,
        # plain and anchored: it has no decision, and each block-mate is
        # decided as in a block of one.  That model overflows wherever it
        # is scored, its anchor included, hence the errstate.
        params = SBParams(n_steps=40, n_restarts=2)
        insts = [sample_instance(3, 3, BPSK, 10.0, rng) for _ in range(3)]
        p = prepare(insts, BPSK)
        j = p.model.j.copy()
        j[1] = np.where(np.eye(3, dtype=bool), 0.0, 1e308)
        model = IsingModel(j, p.model.h, p.model.offset)
        anchor_e = p.mmse.ising_energy.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            anchor_e[1] = energy_ref(model[[1]], p.mmse.spins[1])
        p = replace(p, model=model,
                    mmse=replace(p.mmse, ising_energy=anchor_e))
        seeds = [41, 42, 43]
        for anchored in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                solved = sb_solve(p, params, seeds, 0.5 if anchored else None)
            assert solved[1] is None
            for b in (0, 2):
                alone = detect_one(prepare([insts[b]], BPSK), params,
                                   anchored, 0.5, seeds[b])
                assert solved[b].detector == alone.detector
                assert np.array_equal(solved[b].spins, alone.spins)
                assert solved[b].ising_energy == alone.ising_energy
                assert solved[b].extras == alone.extras

    def test_diverged_readout_is_not_scored(self):
        # Couplings and fields at 0.5e308: the spins (+1, +1) score past
        # the float range and the anchor (-1, -1) scores 0.  At dt = 1e300
        # every restart diverges, and with this seed the anchored solve
        # reads out (+1, +1).  sb-reg scores the anchor in its place, so no
        # overflow is raised (a RuntimeWarning fails this suite) and the
        # problem has no decision.
        inst = sample_instance(2, 2, BPSK, 10.0, np.random.default_rng(0))
        big = IsingModel(np.array([[[0.0, 0.5e308], [0.5e308, 0.0]]]),
                         np.full((1, 2), 0.5e308), np.zeros(1))
        anchor = np.full(2, -1, dtype=np.int8)
        p = replace(prepare([inst], BPSK), model=big, mmse=DetectionResult(
            "mmse", anchor[None], np.array([energy_ref(big[[0]], anchor)]), {},
            np.array([True]),
        ))
        params = SBParams(n_steps=20, dt=1e300, n_restarts=1)
        spins, _, diverged = solve(regularize(big, anchor[None], 0.5),
                                   params, [2])
        assert diverged.tolist() == [1] and spins.tolist() == [[1, 1]]
        with pytest.raises(FloatingPointError):
            with np.errstate(over="raise"):
                energy_ref(big[[0]], spins[0])
        solved = sb_solve(p, params, [2], 0.5)
        assert solved.done.tolist() == [False] and solved[0] is None

    @pytest.mark.parametrize("r", [None, 0.5], ids=["plain", "anchored"])
    def test_seed_and_trace_lists_must_match_the_block(
        self, rng, monkeypatch, r
    ):
        # Too few or too many seeds or trace lists are refused before any
        # work: nothing is regularized or solved.
        import sbmimo.detectors

        def no_work(*args):
            raise AssertionError("work done before the refusal")

        p = prepare([sample_instance(2, 2, QPSK, 10.0, rng)
                     for _ in range(3)], QPSK)
        monkeypatch.setattr(sbmimo.detectors, "solve", no_work)
        monkeypatch.setattr(sbmimo.detectors, "regularize", no_work)
        for seeds, trace in (([1, 2], None), ([1, 2, 3, 4, 5], None),
                             ([1, 2, 3], [[], []]),
                             ([1, 2, 3], [[], [], [], []])):
            with pytest.raises(ValueError, match="a block needs a stack of "
                               "same-size models and one seed each"):
                sb_solve(p, SBParams(n_steps=10), seeds, r, trace)

    def test_decisions_are_labelled_by_r(self, rng):
        # Without r, each decision is its problem's readout, "sb", with
        # the readout's own energy.  With r, each is "sb-reg": of the
        # readout of its regularized model solved alone, scored under
        # the unregularized model, and its anchor, the lower energy, the
        # readout on a tie.  The short anneal loses to some anchors and
        # the long one beats some; both tie others.
        snrs = (0.0, 0.0, 5.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        insts = [sample_instance(3, 3, QPSK, snr, rng) for snr in snrs]
        p = prepare(insts, QPSK)
        seeds = list(range(31, 31 + len(insts)))
        kinds = set()
        for params in (SBParams(n_steps=3, n_restarts=2),
                       SBParams(n_steps=40, n_restarts=2)):
            plain = sb_solve(p, params, seeds)
            reg = sb_solve(p, params, seeds, 0.5)
            for b, seed in enumerate(seeds):
                model, anchor = p.model[[b]], p.mmse[b]
                readout = solve_one(model, params, seed)
                res = plain[b]
                assert res.detector == "sb"
                assert res.extras == {"diverged_restarts": 0}
                assert np.array_equal(res.spins, readout.spins)
                assert res.ising_energy == energy_ref(model, readout.spins)
                readout = solve_one(regularize(model, anchor.spins[None], 0.5),
                                    params, seed)
                sb_energy = energy_ref(model, readout.spins)
                keep = sb_energy <= anchor.ising_energy
                res = reg[b]
                assert res.detector == "sb-reg"
                assert res.extras == {"diverged_restarts": 0,
                                      "selected": "sb" if keep else "mmse"}
                want = readout.spins if keep else anchor.spins
                assert np.array_equal(res.spins, want)
                assert res.ising_energy == min(sb_energy, anchor.ising_energy)
                kinds.add(np.sign(sb_energy - anchor.ising_energy))
        assert kinds == {-1.0, 0.0, 1.0}

    def test_energy_tie_keeps_solver_readout(self):
        # At high SNR the solver usually lands on the MMSE decision, so
        # the two candidate energies tie and the SB readout must win.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            inst = sample_instance(2, 2, QPSK, 28.0, rng)
            p = prepare([inst], QPSK)
            params = SBParams(n_steps=100)
            anchor = mmse_detect(p, 0)
            res = detect_one(p, params, True, r=0.5, seed=seed)
            model = regularize(p.model[[0]], anchor.spins[None], 0.5)
            readout = solve_one(model, params, seed)
            if energy_ref(p.model[[0]], readout.spins) == anchor.ising_energy:
                assert res.extras["selected"] == "sb"
                assert np.array_equal(res.spins, readout.spins)
                return
        pytest.fail("no energy tie found in 30 high-SNR instances")

    def test_detector_outputs_are_commensurate(self, rng):
        inst = sample_instance(2, 2, QAM16, 16.0, rng)
        params = SBParams(n_steps=60)
        p = prepare([inst], QAM16)
        anchor = mmse_detect(p, 0)
        results = [
            anchor,
            oracle(p, 0),
            detect_one(p, params, seed=4),
            detect_one(p, params, True, r=0.5, seed=4),
        ]
        for res in results:
            assert res.spins.shape == (2 * QAM16.bps,)
        assert [r.detector for r in results] == [
            "mmse", "ml-oracle", "sb", "sb-reg"
        ]
