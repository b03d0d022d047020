from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.ising import IsingModel, energy

from conftest import all_spin_vectors, energy_loop, random_model


def model_of(j, h, offset=0.0):
    return IsingModel(j=j, h=h, offset=offset)


class TestModelShape:
    def test_spin_count_is_the_field_length(self):
        m = model_of(np.zeros((3, 3)), [1, 2, 3])
        assert m.n == 3
        assert replace(m, h=np.zeros(3)).n == 3

    @pytest.mark.parametrize(
        "j_shape, h_shape",
        [((3, 3), (2,)), ((2, 3), (2,)), ((2, 2), (2, 1)), ((), ())],
    )
    def test_mismatch_rejected_at_construction(self, j_shape, h_shape):
        # Before, IsingModel(n=2, j=<3x3>, h=<3>) was accepted and solve
        # failed later with numpy's broadcast error.
        with pytest.raises(ValueError) as exc:
            model_of(np.zeros(j_shape), np.zeros(h_shape))
        assert str(j_shape) in str(exc.value)
        assert str(h_shape) in str(exc.value)

    def test_replace_checks_the_new_shapes(self):
        m = model_of(np.zeros((2, 2)), [0, 0])
        with pytest.raises(ValueError):
            replace(m, h=np.zeros(3))


class TestEnergy:
    def test_null_model_is_zero(self):
        m = model_of(np.zeros((3, 3)), np.zeros(3))
        for s in all_spin_vectors(3):
            assert energy(m, s) == 0.0

    def test_two_spin_hand_expansion(self):
        # Both ordered pairs contribute: J_01 + J_10 = 2, s_0 s_1 = -1.
        m = model_of([[0, 1], [1, 0]], [0, 0])
        assert energy(m, np.array([1, -1])) == -2.0

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            m = random_model(rng, 6)
            s = rng.choice([-1, 1], size=6)
            assert energy(m, s) == pytest.approx(
                energy_loop(m, s), rel=1e-10
            )

    def test_dimension_mismatch_rejected(self):
        m = model_of([[0, 1], [1, 0]], [0, 0])
        with pytest.raises(ValueError):
            energy(m, np.array([1, -1, 1]))


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
            j=m.j[np.ix_(perm, perm)], h=m.h[perm], offset=m.offset
        )
        assert energy(mp, s[perm]) == pytest.approx(
            energy(m, s), rel=1e-10, abs=1e-10
        )

    @given(model_and_spins(), st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_offset_shifts_energy(self, ms, c):
        m, s, _ = ms
        shifted = IsingModel(j=m.j, h=m.h, offset=m.offset + c)
        assert energy(shifted, s) == pytest.approx(
            energy(m, s) + c, rel=1e-12, abs=1e-9
        )

    @given(model_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_single_flip_delta(self, ms):
        m, s, rng = ms
        k = int(rng.integers(m.n))
        flipped = s.copy()
        flipped[k] = -flipped[k]
        delta = -2.0 * s[k] * (2.0 * (m.j[k] @ s) + m.h[k])
        assert energy(m, flipped) - energy(m, s) == pytest.approx(
            delta, rel=1e-10, abs=1e-10
        )
