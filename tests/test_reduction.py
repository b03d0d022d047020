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
    sample_instance,
)
from sbmimo.ising import energy
from sbmimo.reduction import (
    ReductionContext,
    build_ising,
    instance_model,
    regularize,
    spins_to_bits,
    spins_to_symbols,
    symbols_to_spins,
)

from conftest import all_spin_vectors, random_model


class TestContext:
    def test_qpsk_transform_is_identity(self):
        ctx = ReductionContext.for_constellation(QPSK, 3)
        assert ctx.spin_count == 6
        assert np.array_equal(ctx.t, np.eye(6))

    def test_bpsk_transform_is_identity(self):
        ctx = ReductionContext.for_constellation(BPSK, 4)
        assert ctx.spin_count == 4
        assert np.array_equal(ctx.t, np.eye(4))

    def test_qam16_block_structure(self):
        nt = 2
        ctx = ReductionContext.for_constellation(QAM16, nt)
        assert ctx.spin_count == 8
        eye = np.eye(nt)
        zero = np.zeros((nt, nt))
        expected = np.block(
            [[2 * eye, eye, zero, zero], [zero, zero, 2 * eye, eye]]
        )
        assert np.array_equal(ctx.t, expected)

    def test_qam16_image_is_the_lattice(self):
        ctx = ReductionContext.for_constellation(QAM16, 1)
        values = {tuple(ctx.t @ s) for s in all_spin_vectors(4)}
        assert len(values) == 16
        flat = {v for pair in values for v in pair}
        assert flat == {-3.0, -1.0, 1.0, 3.0}


class TestBuildIsing:
    def test_zero_residual_at_transmitted_spins(self, rng):
        for c in (BPSK, QPSK, QAM16):
            inst = sample_instance(3, 3, c, 10.0, rng)
            ctx = ReductionContext.for_constellation(c, 3)
            clean = realify(inst.h, inst.h @ inst.tx_symbols, c)
            model = build_ising(clean, ctx)
            s_true = symbols_to_spins(inst.tx_symbols, ctx)
            assert energy(model, s_true) == pytest.approx(0.0, abs=1e-9)

    def test_energy_equals_residual(self, rng):
        inst = sample_instance(2, 2, QPSK, 8.0, rng)
        model, ctx = instance_model(inst, QPSK)
        sys = realify(inst.h, inst.y, QPSK)
        a = sys.h_r @ ctx.t
        for _ in range(50):
            s = rng.choice([-1, 1], size=ctx.spin_count)
            resid = sys.y_r - a @ s
            assert energy(model, s) == pytest.approx(
                resid @ resid, rel=1e-10
            )

    def test_argmin_matches_symbol_domain_search(self, rng):
        # Exhaustive scan over all 4^3 QPSK symbol vectors.
        inst = sample_instance(3, 3, QPSK, 6.0, rng)
        model, ctx = instance_model(inst, QPSK)
        best_spins = min(
            all_spin_vectors(6), key=lambda s: energy(model, s)
        )
        points = QPSK.points()
        best_symbols, best_res = None, np.inf
        for combo in itertools.product(points, repeat=3):
            x = np.array(combo)
            res = float(np.sum(np.abs(inst.y - inst.h @ x) ** 2))
            if res < best_res:
                best_res = res
                best_symbols = x
        assert np.array_equal(spins_to_symbols(best_spins, ctx), best_symbols)

    def test_built_model_satisfies_ising_invariants(self, rng):
        for c in (BPSK, QPSK, QAM16):
            inst = sample_instance(2, 3, c, 12.0, rng)
            model, _ = instance_model(inst, c)
            assert model.j.shape == (model.n, model.n)
            assert np.all(np.diagonal(model.j) == 0.0)
            assert np.array_equal(model.j, model.j.T)

    def test_dimension_mismatch_rejected(self, rng):
        inst = sample_instance(2, 2, QPSK, 8.0, rng)
        sys = realify(inst.h, inst.y, QPSK)
        with pytest.raises(ValueError):
            build_ising(sys, ReductionContext.for_constellation(QPSK, 3))


class TestSpinMaps:
    def test_qpsk_spins_to_bits_example(self):
        ctx = ReductionContext.for_constellation(QPSK, 1)
        assert spins_to_bits(np.array([1, -1]), ctx).tolist() == [0, 1]

    def test_qam16_spins_to_bits_example(self):
        ctx = ReductionContext.for_constellation(QAM16, 1)
        s = np.array([1, 1, -1, 1])  # real 3, imag -1
        assert spins_to_bits(s, ctx).tolist() == [0, 0, 1, 0]
        assert spins_to_symbols(s, ctx)[0] == 3 - 1j

    def test_qam16_symbols_to_spins_examples(self):
        ctx = ReductionContext.for_constellation(QAM16, 1)
        assert symbols_to_spins(np.array([3 + 3j]), ctx)[:2].tolist() == [1, 1]
        assert symbols_to_spins(np.array([-1 + 3j]), ctx)[:2].tolist() == [-1, 1]

    def test_qpsk_symbols_to_spins_example(self):
        ctx = ReductionContext.for_constellation(QPSK, 1)
        assert symbols_to_spins(np.array([1 - 1j]), ctx).tolist() == [1, -1]

    def test_non_constellation_symbol_rejected(self):
        ctx = ReductionContext.for_constellation(QAM16, 1)
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([2.0 + 1j]), ctx)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_bit_spin_symbol_round_trips(self, c):
        ctx = ReductionContext.for_constellation(c, 1)
        for bits in itertools.product((0, 1), repeat=c.bps):
            b = np.array(bits, dtype=np.int8)
            sym = modulate(b, c)
            s = symbols_to_spins(sym, ctx)
            assert np.array_equal(spins_to_bits(s, ctx), b)
            assert np.array_equal(spins_to_symbols(s, ctx), sym)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_spin_domain_round_trip(self, c):
        # symbols_to_spins inverts the T map on every spin assignment.
        ctx = ReductionContext.for_constellation(c, 1)
        for s in all_spin_vectors(ctx.spin_count):
            sym = spins_to_symbols(s, ctx)
            assert np.array_equal(symbols_to_spins(sym, ctx), s)

    def test_multiuser_layout_matches_modulate(self, rng):
        for c in (QPSK, QAM16):
            ctx = ReductionContext.for_constellation(c, 3)
            bits = rng.integers(0, 2, 3 * c.bps)
            sym = modulate(bits, c)
            s = symbols_to_spins(sym, ctx)
            assert np.array_equal(spins_to_bits(s, ctx), bits)

    def test_length_mismatch_rejected(self):
        ctx = ReductionContext.for_constellation(QPSK, 2)
        with pytest.raises(ValueError):
            spins_to_bits(np.array([1, -1]), ctx)
        with pytest.raises(ValueError):
            spins_to_symbols(np.array([1, -1, 1]), ctx)
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([1 + 1j]), ctx)


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
        with pytest.raises(ValueError):
            regularize(m, np.ones(4), -0.1)
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
    model, ctx = instance_model(inst, c)
    sys = realify(inst.h, inst.y, c)
    a = sys.h_r @ ctx.t
    s = rng.choice([-1, 1], size=ctx.spin_count)
    resid = sys.y_r - a @ s
    assert energy(model, s) == pytest.approx(float(resid @ resid), rel=1e-10)
