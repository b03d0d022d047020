from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.ising import IsingModel, energy

from conftest import (
    all_spin_vectors,
    energy_loop,
    energy_ref,
    huge_model,
    model_of,
    random_model,
    stack,
)


def energy_of(m, s):
    # The kernel on one row s under a stack of one.
    return float(energy(m, np.asarray(s)[None, None])[0, 0])


class TestModelShape:
    def test_spin_count_is_the_field_length(self):
        m = model_of(np.zeros((3, 3)), [1, 2, 3])
        assert m.n == 3
        assert replace(m, h=np.zeros((1, 3))).n == 3

    @pytest.mark.parametrize(
        "j_shape, h_shape",
        [((1, 3, 3), (1, 2)), ((1, 2, 3), (1, 2)), ((1, 2, 2), (1, 2, 1)),
         ((), ()),
         # Stacks: of 2 couplings and 3 fields, and of fields with a
         # second leading axis.
         ((2, 3, 3), (3, 3)), ((2, 3, 3), (2, 3, 3))],
    )
    def test_mismatch_rejected_at_construction(self, j_shape, h_shape):
        # Before, IsingModel(n=2, j=<3x3>, h=<3>) was accepted and solve
        # failed later with numpy's broadcast error.
        with pytest.raises(ValueError) as exc:
            IsingModel(np.zeros(j_shape), np.zeros(h_shape),
                       np.zeros(h_shape[:-1]))
        assert str(j_shape) in str(exc.value)
        assert str(h_shape) in str(exc.value)

    def test_replace_checks_the_new_shapes(self):
        m = model_of(np.zeros((2, 2)), [0, 0])
        with pytest.raises(ValueError):
            replace(m, h=np.zeros((1, 3)))
        # A stack of two models takes one offset per model.
        pair = IsingModel(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros(2))
        assert pair.n == 2 and pair.offset.shape == (2,)
        with pytest.raises(ValueError, match=r"offset \(3,\)"):
            replace(pair, offset=np.zeros(3))

    def test_only_a_stack_is_a_model(self):
        # One model unstacked, a scalar offset, a second leading axis and
        # an int index (which would select one model unstacked) are each
        # the shape ValueError; so is unpacking a stack into its models.
        trio = IsingModel(np.zeros((3, 2, 2)), [[1, 2], [3, 4], [5, 6]],
                          [5.0, 6.0, 7.0])
        for use in (lambda: IsingModel(np.zeros((2, 2)), [1, 2], 3.0),
                    lambda: IsingModel(np.zeros((1, 2, 2)), [[1, 2]], 3.0),
                    lambda: IsingModel(np.zeros((2, 3, 2, 2)),
                                       np.zeros((2, 3, 2)), np.zeros((2, 3))),
                    lambda: trio[0], lambda: IsingModel(*trio)):
            with pytest.raises(ValueError, match=r"need j \(B, n, n\), h "
                               r"\(B, n\) and offset \(B,\)"):
                use()
        # A list, an array, a mask or a slice selects a stack, whose
        # offsets stay a float64 array, one per model.
        for idx in ([1], np.array([0, 2]), np.array([False, True, True]),
                    slice(1, None)):
            sub = trio[idx]
            assert sub.h.tolist() == trio.h[idx].tolist()
            assert sub.offset.dtype == np.float64
            assert sub.offset.tolist() == trio.offset[idx].tolist()
            assert sub.offset.shape == (len(sub.h),)


class TestEnergy:
    def test_null_model_is_zero(self):
        m = model_of(np.zeros((3, 3)), np.zeros(3))
        for s in all_spin_vectors(3):
            assert energy_of(m, s) == 0.0

    def test_two_spin_hand_expansion(self):
        # Both ordered pairs contribute: J_01 + J_10 = 2, s_0 s_1 = -1.
        m = model_of([[0, 1], [1, 0]], [0, 0])
        assert energy_of(m, np.array([1, -1])) == -2.0

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            m = random_model(rng, 6)
            s = rng.choice([-1, 1], size=6)
            assert energy_of(m, s) == pytest.approx(
                energy_loop(m, s), rel=1e-10
            )

    def test_dimension_mismatch_rejected(self):
        # A row of the wrong length is numpy's core-dimension ValueError.
        m = model_of([[0, 1], [1, 0]], [0, 0])
        with pytest.raises(ValueError):
            energy(m, np.array([[[1, -1, 1]]]))


def stacked_draw(seed, n, huge, restarts):
    # One model per entry of huge (huge_model-scaled where True) and
    # restarts random +-1 rows per model, from one seed.
    rng = np.random.default_rng(seed)
    models = [random_model(rng, n) for _ in huge]
    models = [huge_model(m) if big else m for m, big in zip(models, huge)]
    s = rng.choice([-1.0, 1.0], size=(len(models), restarts, n))
    return models, s


def same_bits(got, want):
    # Bit for bit, NaN as NaN whatever its payload.
    same = got.view(np.int64) == want.view(np.int64)
    return (same | np.isnan(got) & np.isnan(want)).all()


def assert_matches_single_rows(models, s):
    # energy over the stack equals the single-row expression bit for bit,
    # for float64 rows and for the same rows as int8, and so does energy
    # of one row under each model taken from the stack as a stack of one;
    # returns the energies.
    block = stack(models)
    with np.errstate(over="ignore", invalid="ignore"):
        got = energy(block, s)
        got8 = energy(block, s.astype(np.int8))
        want = np.array(
            [[energy_ref(m, row) for row in rows] for m, rows in zip(models, s)]
        )
        one = np.array([energy(block[[b]], s[b:b + 1, :1])[0, 0]
                        for b in range(len(s))])
    assert same_bits(got, want) and same_bits(got8, want)
    assert same_bits(one, want[:, 0])
    return want


class TestStackedEnergies:
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.booleans(), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_single_row_expression(self, n, huge, restarts, seed):
        # A stack of models of one size, some near the float limit, where
        # energies overflow to inf and inf - inf gives NaN; rows are
        # scored as float64 and as int8.
        assert_matches_single_rows(*stacked_draw(seed, n, huge, restarts))

    def test_huge_draw_reaches_inf_and_nan(self):
        # A pinned draw that scores finite, inf, -inf and NaN rows.
        e = assert_matches_single_rows(*stacked_draw(10, 12, [True] * 2, 6))
        assert np.isnan(e).any() and np.isfinite(e).any()
        assert (e == np.inf).any() and (e == -np.inf).any()


@st.composite
def model_and_spins(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    m = random_model(rng, n)
    s = rng.choice([-1, 1], size=n)
    return m, s, rng


class TestEnergyProperties:
    @given(model_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, ms):
        m, s, rng = ms
        perm = rng.permutation(m.n)
        mp = IsingModel(
            j=m.j[:, perm][:, :, perm], h=m.h[:, perm], offset=m.offset
        )
        assert energy_of(mp, s[perm]) == pytest.approx(
            energy_of(m, s), rel=1e-10, abs=1e-10
        )

    @given(model_and_spins(), st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_offset_shifts_energy(self, ms, c):
        m, s, _ = ms
        shifted = IsingModel(j=m.j, h=m.h, offset=m.offset + c)
        assert energy_of(shifted, s) == pytest.approx(
            energy_of(m, s) + c, rel=1e-12, abs=1e-9
        )

    @given(model_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_single_flip_delta(self, ms):
        m, s, rng = ms
        k = int(rng.integers(m.n))
        flipped = s.copy()
        flipped[k] = -flipped[k]
        delta = -2.0 * s[k] * (2.0 * (m.j[0, k] @ s) + m.h[0, k])
        assert energy_of(m, flipped) - energy_of(m, s) == pytest.approx(
            delta, rel=1e-10, abs=1e-10
        )
