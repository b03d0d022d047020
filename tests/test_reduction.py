import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.channel import (
    BPSK,
    QAM16,
    QPSK,
    ChannelInstance,
    get_constellation,
    realify,
    sample_instance,
)
from sbmimo.reduction import (
    instance_model,
    level_spins,
    nearest_index,
    regularize,
    symbols_to_spins,
)

from conftest import (
    all_spin_vectors,
    assert_same_model,
    constellation_points,
    energy_ref,
    model_from,
    modulate,
    nearest_point_bits,
    random_model,
    sent_symbols,
    spin_transform,
    spins_to_bits,
    spins_to_symbols,
    stack,
)


def realify_one(inst, c):
    # One instance's realify system, h_r and y_r, as a stack of one.
    return realify(inst.h[None], inst.y[None], c)


def realified(rng, c, nt, nr=None):
    inst = sample_instance(nt, nt if nr is None else nr, c, 10.0, rng)
    return realify_one(inst, c)


class TestContext:
    def test_qpsk_transform_is_identity(self, rng):
        h_r, y_r = realified(rng, QPSK, 3)
        assert h_r.shape == (1, 6, 6)
        assert_same_model(instance_model(h_r, y_r, QPSK),
                          model_from(h_r[0], y_r[0]))

    def test_bpsk_transform_is_identity(self, rng):
        h_r, y_r = realified(rng, BPSK, 4)
        assert h_r.shape == (1, 8, 4)
        assert_same_model(instance_model(h_r, y_r, BPSK),
                          model_from(h_r[0], y_r[0]))

    def test_qam16_block_structure(self, rng):
        nt = 2
        h_r, y_r = realified(rng, QAM16, nt)
        eye = np.eye(nt)
        zero = np.zeros((nt, nt))
        expected = np.block(
            [[2 * eye, eye, zero, zero], [zero, zero, 2 * eye, eye]]
        )
        model = instance_model(h_r, y_r, QAM16)
        assert model.n == 8
        assert_same_model(model, model_from(h_r[0] @ expected, y_r[0]))

    def test_qam16_image_is_the_lattice(self):
        # The 16 bit patterns modulate onto the 16 lattice points under
        # the reference labeling, and
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
            clean = dataclasses.replace(inst, y=inst.h @ sent_symbols(inst, c))
            model = instance_model(*realify_one(clean, c), c)
            s_true = level_spins(inst.tx_levels, c)
            assert energy_ref(model, s_true) == pytest.approx(0.0, abs=1e-9)

    def test_energy_equals_residual(self, rng):
        inst = sample_instance(2, 2, QPSK, 8.0, rng)
        h_r, y_r = realify_one(inst, QPSK)
        model = instance_model(h_r, y_r, QPSK)
        a = h_r[0] @ spin_transform(QPSK, 2)
        for _ in range(50):
            s = rng.choice([-1, 1], size=4)
            resid = y_r[0] - a @ s
            assert energy_ref(model, s) == pytest.approx(
                resid @ resid, rel=1e-10
            )

    def test_argmin_matches_symbol_domain_search(self, rng):
        # Exhaustive scan over all 4^3 QPSK symbol vectors.
        inst = sample_instance(3, 3, QPSK, 6.0, rng)
        model = instance_model(*realify_one(inst, QPSK), QPSK)
        best_spins = min(
            all_spin_vectors(6), key=lambda s: energy_ref(model, s)
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
            model = instance_model(*realify_one(inst, c), c)
            assert model.n == 2 * c.bps
            assert model.j.shape == (1, model.n, model.n)
            (j,) = model.j
            assert np.all(np.diagonal(j) == 0.0)
            assert np.array_equal(j, j.T)

    def test_dimension_mismatch_rejected(self, rng):
        # A receive vector one entry short of h's rows: realify refuses it.
        inst = sample_instance(3, 3, BPSK, 8.0, rng)
        short = ChannelInstance(inst.h, inst.tx_levels, inst.noise_var,
                                inst.y[:-1])
        with pytest.raises(ValueError, match="rows but y has length"):
            realify(short.h, short.y, BPSK)


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

    def test_huge_values_take_the_nearest_level(self):
        # A distance rounded to 1e16 cannot tell -1 from +1 apart, nor
        # one of 4e16 -3 from +1; exact comparisons can.
        for c, x, level in [(BPSK, -1e16, -1), (QPSK, -1e16, -1),
                            (QAM16, -4e16, -3), (QAM16, 4e16, 3)]:
            spins = symbols_to_spins(np.array([complex(x, x)]), c)
            assert spins_to_symbols(spins, c).tolist() == [
                complex(level, level if c.axes == 2 else 0)
            ]

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_nearest_level_rule_at_its_edges(self, c):
        assert_nearest_level_rule(rule_edges(c), c)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_bit_spin_symbol_round_trips(self, c):
        # Every symbol's bits through the reference modulate, onto the
        # lattice, and back through the spin layout and T.
        for bits in itertools.product((0, 1), repeat=c.bps):
            b = np.array(bits, dtype=np.int8)
            sym = modulate(b, c)
            assert sym[0] in constellation_points(c)
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
        # Symbols come as a vector, or a stack of them.
        with pytest.raises(ValueError):
            symbols_to_spins(np.array(1 + 1j), QPSK)


def exact_nearest(value, levels):
    """Index of the level nearest to value by exact rational distance,
    ties to the smaller amplitude, then to the positive level; a
    non-finite value goes to +1."""
    if not math.isfinite(value):
        return levels.index(1)
    v = Fraction(value)
    return min(range(len(levels)),
               key=lambda i: (abs(v - levels[i]), abs(levels[i]), -levels[i]))


def rule_edges(c):
    # Every midpoint of adjacent levels and its float neighbours, +-0, the
    # smallest subnormals, values whose rounded distances to two levels
    # tie, the largest floats and the non-finite values.
    lv = c.levels
    mids = [(a + b) / 2 for a, b in zip(lv, lv[1:])]
    near = [math.nextafter(m, to) for m in mids for to in (-math.inf, math.inf)]
    huge = [1e16, 4e16, 1e300, 1.7976931348623157e308]
    return [*mids, *near, 0.0, -0.0, 5e-324, -5e-324,
            *huge, *(-v for v in huge), math.inf, -math.inf, math.nan]


def assert_nearest_level_rule(values, c):
    # nearest_index on the values and symbols_to_spins on all of them at
    # once (each value on every real axis) give the exact nearest level.
    want = [exact_nearest(v, c.levels) for v in values]
    assert nearest_index(np.array(values), c).tolist() == want
    x = np.zeros(len(values), dtype=np.complex128)
    x.real = values
    x.imag = values[::-1]
    idx = np.array(want + want[::-1] if c.axes == 2 else want)
    assert np.array_equal(symbols_to_spins(x, c), level_spins(idx, c))


@given(
    st.sampled_from([BPSK, QPSK, QAM16]).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(
            st.one_of(st.floats(), st.floats(-5, 5),
                      st.sampled_from(rule_edges(c))),
            min_size=1, max_size=8,
        ))
    )
)
@settings(max_examples=300, deadline=None)
def test_nearest_level_rule_is_exact(case):
    # Random values, the edges above and huge and tiny floats: both forms
    # of the rule pick the level at the least exact distance.
    c, values = case
    assert_nearest_level_rule(values, c)


class TestRegularize:
    def test_zero_weight_is_identity(self, rng):
        m = random_model(rng, 5)
        s_p = rng.choice([-1, 1], size=(1, 5))
        out = regularize(m, s_p, 0.0)
        assert np.array_equal(out.j, m.j)
        assert np.array_equal(out.h, m.h)
        assert np.array_equal(out.offset, m.offset)

    def test_penalty_vanishes_at_anchor(self, rng):
        m = random_model(rng, 6)
        s_p = rng.choice([-1, 1], size=(1, 6))
        out = regularize(m, s_p, 0.5)
        assert energy_ref(out, s_p[0]) == pytest.approx(
            energy_ref(m, s_p[0]), rel=1e-12
        )

    def test_penalty_identity_exhaustive(self, rng):
        m = random_model(rng, 6)
        (s_p,) = anchors = rng.choice([-1, 1], size=(1, 6))
        out = regularize(m, anchors, 0.5)
        for s in all_spin_vectors(6):
            penalty = 0.5 * float(np.sum((s - s_p) ** 2))
            assert energy_ref(out, s) - energy_ref(m, s) == pytest.approx(
                penalty, abs=1e-10
            )

    def test_couplings_and_invariants_preserved(self, rng):
        m = random_model(rng, 4)
        out = regularize(m, np.ones((1, 4)), 2.0)
        assert out.j is m.j or np.array_equal(out.j, m.j)
        assert out.h.shape == (1, 4)
        (j,) = out.j
        assert np.all(np.diagonal(j) == 0.0)
        assert np.array_equal(j, j.T)

    def test_bad_inputs_rejected(self, rng):
        m = random_model(rng, 4)
        # A non-finite r would otherwise reach the solver as a nan or inf
        # field and surface as a divergence blamed on dt; a non-number
        # would raise a TypeError from math.isfinite, and an integer
        # beyond the float range an OverflowError.
        for r in (-0.1, float("nan"), float("inf"), "0.5", None, 10**400):
            with pytest.raises(ValueError, match="r must be finite and >= 0"):
                regularize(m, np.ones((1, 4)), r)
        with pytest.raises(ValueError):
            regularize(m, np.ones((1, 3)), 0.5)
        # A stack takes one anchor row per model.
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            regularize(stack([m, m]), np.ones((1, 4)), 0.5)

    @given(
        x=st.floats(0.0, 1e6, width=32),
        kind=st.sampled_from([np.float16, np.float32, np.longdouble,
                              Fraction, np.int32, np.uint8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_weight_runs_as_its_float(self, x, kind):
        # A numpy weight used to enter the arithmetic as itself: float32
        # 0.1 moved the offset by a float32 product.
        if kind in (np.int32, np.uint8):
            x = min(int(x), np.iinfo(kind).max)
        r = kind(min(x, 65504.0) if kind is np.float16 else x)
        rng = np.random.default_rng(1)
        m = random_model(rng, 5)
        s_p = np.array([[1, -1, -1, 1, 1]])
        got, want = regularize(m, s_p, r), regularize(m, s_p, float(r))
        assert got.h.tobytes() == want.h.tobytes()
        assert got.offset.dtype == np.float64 and got.offset.shape == (1,)
        assert got.offset.tobytes() == want.offset.tobytes()
        # A stack anchored in one call: each row is bit for bit its model
        # anchored alone at its own row of anchors.
        models = [m, *(random_model(rng, 5) for _ in range(2))]
        anchors = rng.choice([-1, 1], size=(3, 5))
        stacked = stack(models)
        block = regularize(stacked, anchors, r)
        assert block.j is stacked.j  # the couplings are not copied
        for b, (model, row) in enumerate(zip(models, anchors)):
            alone = regularize(model, row[None], float(r))
            assert block[[b]].h.tobytes() == alone.h.tobytes()
            assert block[[b]].offset.tobytes() == alone.offset.tobytes()

    def test_bool_weight_rejected(self, rng):
        # True would penalise with r = 1.
        m = random_model(rng, 4)
        with pytest.raises(ValueError, match="r must be finite and >= 0"):
            regularize(m, np.ones((1, 4)), True)


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
    h_r, y_r = realify_one(inst, c)
    model = instance_model(h_r, y_r, c)
    a = h_r[0] @ spin_transform(c, nt)
    s = rng.choice([-1, 1], size=nt * c.bps)
    resid = y_r[0] - a @ s
    assert energy_ref(model, s) == pytest.approx(
        float(resid @ resid), rel=1e-10
    )


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_instance_model_equals_product_with_transform(
    seed, name, nt, extra_rx
):
    # Block scaling reproduces the model of h_r @ T bit for bit, T from
    # its definition.
    c = get_constellation(name)
    h_r, y_r = realified(np.random.default_rng(seed), c, nt, nt + extra_rx)
    model = instance_model(h_r, y_r, c)
    assert model.n == nt * c.bps
    assert_same_model(model, model_from(h_r[0] @ spin_transform(c, nt),
                                        y_r[0]))


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["bpsk", "qpsk", "qam16"]),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_bits_survive_modulation_and_spin_layout(seed, name, nt):
    # Any number of users' bits through the reference modulate and the
    # spin layout come back unchanged: channel's bit labels and
    # reduction's spin layout agree.
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
    spin_errors = np.count_nonzero(s != level_spins(inst.tx_levels, c))
    tx_bits = nearest_point_bits(sent_symbols(inst, c), c)
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
