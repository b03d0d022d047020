import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.channel import (
    BPSK,
    QAM16,
    QPSK,
    get_constellation,
    modulate,
    realify,
    sample_channel,
    sample_instance,
)
from sbmimo.ising import energy
from sbmimo.reduction import (
    build_ising,
    instance_model,
    level_spins,
    regularize,
    spin_matrix,
    symbols_to_spins,
)

from conftest import (
    all_spin_vectors,
    constellation_points,
    nearest_point_bits,
    random_model,
    spin_transform,
    spins_to_bits,
    spins_to_symbols,
)


def real_channel(rng, c, nt, nr=None):
    h = sample_channel(nt, nt if nr is None else nr, rng)
    return realify(h, np.zeros(h.shape[0]), c).h_r


class TestContext:
    def test_qpsk_transform_is_identity(self, rng):
        h_r = real_channel(rng, QPSK, 3)
        assert spin_matrix(h_r, QPSK).shape == (6, 6)
        assert np.array_equal(spin_matrix(h_r, QPSK), h_r)

    def test_bpsk_transform_is_identity(self, rng):
        h_r = real_channel(rng, BPSK, 4)
        assert spin_matrix(h_r, BPSK).shape == (8, 4)
        assert np.array_equal(spin_matrix(h_r, BPSK), h_r)

    def test_qam16_block_structure(self, rng):
        nt = 2
        h_r = real_channel(rng, QAM16, nt)
        eye = np.eye(nt)
        zero = np.zeros((nt, nt))
        expected = np.block(
            [[2 * eye, eye, zero, zero], [zero, zero, 2 * eye, eye]]
        )
        assert spin_matrix(h_r, QAM16).shape == (4, 8)
        assert np.array_equal(spin_matrix(h_r, QAM16), h_r @ expected)

    def test_qam16_image_is_the_lattice(self):
        # The 16 bit patterns modulate onto the 16 lattice points, and
        # symbols_to_spins maps those onto all 16 spin vectors.
        symbols = {
            modulate(np.array(bits), QAM16)[0]
            for bits in itertools.product((0, 1), repeat=4)
        }
        assert len(symbols) == 16
        flat = {v for x in symbols for v in (x.real, x.imag)}
        assert flat == {-3.0, -1.0, 1.0, 3.0}
        spins = {
            tuple(symbols_to_spins(np.array([x]), QAM16)) for x in symbols
        }
        assert spins == {tuple(s) for s in all_spin_vectors(4)}


class TestBuildIsing:
    def test_zero_residual_at_transmitted_spins(self, rng):
        for c in (BPSK, QPSK, QAM16):
            inst = sample_instance(3, 3, c, 10.0, rng)
            clean = realify(inst.h, inst.h @ inst.tx_symbols, c)
            model = build_ising(clean, c)
            s_true = symbols_to_spins(inst.tx_symbols, c)
            assert energy(model, s_true) == pytest.approx(0.0, abs=1e-9)

    def test_energy_equals_residual(self, rng):
        inst = sample_instance(2, 2, QPSK, 8.0, rng)
        model = instance_model(inst, QPSK)
        sys = realify(inst.h, inst.y, QPSK)
        a = sys.h_r @ spin_transform(QPSK, 2)
        for _ in range(50):
            s = rng.choice([-1, 1], size=4)
            resid = sys.y_r - a @ s
            assert energy(model, s) == pytest.approx(
                resid @ resid, rel=1e-10
            )

    def test_argmin_matches_symbol_domain_search(self, rng):
        # Exhaustive scan over all 4^3 QPSK symbol vectors.
        inst = sample_instance(3, 3, QPSK, 6.0, rng)
        model = instance_model(inst, QPSK)
        best_spins = min(
            all_spin_vectors(6), key=lambda s: energy(model, s)
        )
        points = constellation_points(QPSK)
        best_symbols, best_res = None, np.inf
        for combo in itertools.product(points, repeat=3):
            x = np.array(combo)
            res = float(np.sum(np.abs(inst.y - inst.h @ x) ** 2))
            if res < best_res:
                best_res = res
                best_symbols = x
        assert np.array_equal(spins_to_symbols(best_spins, QPSK), best_symbols)

    def test_built_model_satisfies_ising_invariants(self, rng):
        for c in (BPSK, QPSK, QAM16):
            inst = sample_instance(2, 3, c, 12.0, rng)
            model = instance_model(inst, c)
            assert model.n == 2 * c.bps
            assert model.j.shape == (model.n, model.n)
            assert np.all(np.diagonal(model.j) == 0.0)
            assert np.array_equal(model.j, model.j.T)

    def test_dimension_mismatch_rejected(self, rng):
        # A BPSK system has nt real unknowns, not the 2 nt QPSK needs.
        inst = sample_instance(3, 3, BPSK, 8.0, rng)
        sys = realify(inst.h, inst.y, BPSK)
        with pytest.raises(ValueError):
            build_ising(sys, QPSK)
        with pytest.raises(ValueError):
            build_ising(type(sys)(h_r=sys.h_r, y_r=sys.y_r[:-1]), BPSK)


class TestSpinMaps:
    def test_qpsk_spins_to_bits_example(self):
        assert spins_to_bits(np.array([1, -1]), QPSK).tolist() == [0, 1]

    def test_qam16_spins_to_bits_example(self):
        s = np.array([1, 1, -1, 1])  # real 3, imag -1
        assert spins_to_bits(s, QAM16).tolist() == [0, 0, 1, 0]
        assert symbols_to_spins(np.array([3 - 1j]), QAM16).tolist() == s.tolist()

    def test_qam16_symbols_to_spins_examples(self):
        assert symbols_to_spins(np.array([3 + 3j]), QAM16)[:2].tolist() == [1, 1]
        assert symbols_to_spins(np.array([-1 + 3j]), QAM16)[:2].tolist() == [-1, 1]

    def test_qpsk_symbols_to_spins_example(self):
        assert symbols_to_spins(np.array([1 - 1j]), QPSK).tolist() == [1, -1]

    def test_off_lattice_symbol_takes_nearest_point(self):
        # 2 ties between 1 and 3 and goes to the smaller amplitude; 1.4
        # is nearest 1; a non-finite coordinate goes to +1.
        for x, point in [(2.0 + 1.4j, 1 + 1j), (-2.5 - 0.2j, -3 - 1j)]:
            assert symbols_to_spins(np.array([x]), QAM16).tolist() == (
                symbols_to_spins(np.array([point]), QAM16).tolist()
            )
        for c in (QPSK, QAM16):
            x = np.array([complex(np.nan, -np.inf)])
            assert spins_to_symbols(symbols_to_spins(x, c), c).tolist() == [
                1 + 1j
            ]

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_bit_spin_symbol_round_trips(self, c):
        for bits in itertools.product((0, 1), repeat=c.bps):
            b = np.array(bits, dtype=np.int8)
            sym = modulate(b, c)
            s = symbols_to_spins(sym, c)
            assert np.array_equal(spins_to_bits(s, c), b)
            assert np.array_equal(spins_to_symbols(s, c), sym)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_spin_domain_round_trip(self, c):
        # symbols_to_spins inverts the T map on every spin assignment.
        for nt in (1, 3):
            for s in all_spin_vectors(nt * c.bps):
                sym = spins_to_symbols(s, c)
                assert np.array_equal(symbols_to_spins(sym, c), s)

    def test_multiuser_layout_matches_modulate(self, rng):
        for c in (QPSK, QAM16):
            bits = rng.integers(0, 2, 3 * c.bps)
            sym = modulate(bits, c)
            s = symbols_to_spins(sym, c)
            assert np.array_equal(spins_to_bits(s, c), bits)

    def test_length_mismatch_rejected(self):
        # Symbols come as a non-empty vector, a real channel in whole
        # column blocks.
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([[1 + 1j]]), QPSK)
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([], dtype=complex), QPSK)
        with pytest.raises(ValueError):
            spin_matrix(np.ones((4, 3)), QPSK)


class TestRegularize:
    def test_zero_weight_is_identity(self, rng):
        m = random_model(rng, 5)
        s_p = rng.choice([-1, 1], size=5)
        out = regularize(m, s_p, 0.0)
        assert np.array_equal(out.j, m.j)
        assert np.array_equal(out.h, m.h)
        assert out.offset == m.offset

    def test_penalty_vanishes_at_anchor(self, rng):
        m = random_model(rng, 6)
        s_p = rng.choice([-1, 1], size=6)
        out = regularize(m, s_p, 0.5)
        assert energy(out, s_p) == pytest.approx(energy(m, s_p), rel=1e-12)

    def test_penalty_identity_exhaustive(self, rng):
        m = random_model(rng, 6)
        s_p = rng.choice([-1, 1], size=6)
        out = regularize(m, s_p, 0.5)
        for s in all_spin_vectors(6):
            penalty = 0.5 * float(np.sum((s - s_p) ** 2))
            assert energy(out, s) - energy(m, s) == pytest.approx(
                penalty, abs=1e-10
            )

    def test_couplings_and_invariants_preserved(self, rng):
        m = random_model(rng, 4)
        out = regularize(m, np.ones(4), 2.0)
        assert out.j is m.j or np.array_equal(out.j, m.j)
        assert out.h.shape == (4,)
        assert np.all(np.diagonal(out.j) == 0.0)
        assert np.array_equal(out.j, out.j.T)

    def test_bad_inputs_rejected(self, rng):
        m = random_model(rng, 4)
        # A non-finite r would otherwise reach the solver as a nan or inf
        # field and surface as a divergence blamed on dt.
        for r in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="r must be finite and >= 0"):
                regularize(m, np.ones(4), r)
        with pytest.raises(ValueError):
            regularize(m, np.ones(3), 0.5)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_objective_embedding_property(seed, name, nt):
    # The single end-to-end invariant: Ising energy == ML residual.
    c = get_constellation(name)
    rng = np.random.default_rng(seed)
    inst = sample_instance(nt, nt, c, float(rng.uniform(0, 30)), rng)
    model = instance_model(inst, c)
    sys = realify(inst.h, inst.y, c)
    a = sys.h_r @ spin_transform(c, nt)
    s = rng.choice([-1, 1], size=nt * c.bps)
    resid = sys.y_r - a @ s
    assert energy(model, s) == pytest.approx(float(resid @ resid), rel=1e-10)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_spin_matrix_equals_product_with_transform(seed, name, nt, extra_rx):
    # Block scaling reproduces h_r @ T bit for bit, T from its definition.
    c = get_constellation(name)
    h_r = real_channel(np.random.default_rng(seed), c, nt, nt + extra_rx)
    a = spin_matrix(h_r, c)
    ref = h_r @ spin_transform(c, nt)
    assert a.shape == ref.shape and a.dtype == ref.dtype
    assert a.tobytes() == ref.tobytes()


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_bits_survive_modulation_and_spin_layout(seed, name, nt):
    # channel's bit labels and reduction's spin layout agree.
    c = get_constellation(name)
    bits = np.random.default_rng(seed).integers(0, 2, nt * c.bps)
    spins = symbols_to_spins(modulate(bits, c), c)
    assert spins.shape == (nt * c.bps,)
    assert np.array_equal(spins_to_bits(spins, c), bits)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_spin_mismatches_count_bit_errors(seed, name, nt):
    # The sweep counts bit errors as mismatches with the transmitted
    # spins; through the reference bit layout they are the bit errors.
    c = get_constellation(name)
    rng = np.random.default_rng(seed)
    inst = sample_instance(nt, nt, c, float(rng.uniform(0, 30)), rng)
    s = rng.choice([-1, 1], size=nt * c.bps).astype(np.int8)
    spin_errors = np.count_nonzero(s != symbols_to_spins(inst.tx_symbols, c))
    tx_bits = nearest_point_bits(inst.tx_symbols, c)
    bit_errors = np.count_nonzero(spins_to_bits(s, c) != tx_bits)
    assert spin_errors == bit_errors


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([np.int8, np.int64]),
)
@settings(max_examples=60, deadline=None)
def test_level_spins_land_on_their_levels(seed, name, nt, batch, dtype):
    # level_spins' layout against T from its definition: for every row of
    # a batch, T s puts each real coordinate on the level it indexes.
    c = get_constellation(name)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(c.levels), (batch, c.axes * nt)).astype(dtype)
    s = level_spins(idx, c)
    assert s.shape == (batch, nt * c.bps) and s.dtype == np.int8
    levels, t = np.array(c.levels), spin_transform(c, nt)
    for b in range(batch):
        assert np.array_equal(t @ s[b], levels[idx[b]])
