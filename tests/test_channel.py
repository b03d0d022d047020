import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.channel import (
    BPSK,
    QAM16,
    QPSK,
    add_awgn,
    get_constellation,
    modulate,
    noise_variance_for_snr,
    realify,
    realify_symbols,
    sample_channel,
    sample_instance,
)

from conftest import (
    constellation_points,
    hard_bits,
    hard_symbols,
    nearest_point_bits,
)


class TestConstellations:
    def test_point_sets(self):
        assert set(constellation_points(BPSK)) == {-1, 1}
        assert set(constellation_points(QPSK)) == {
            1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j
        }
        lattice = {a + 1j * b for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
        assert set(constellation_points(QAM16)) == lattice

    def test_symbol_energy(self):
        assert BPSK.symbol_energy == 1.0
        assert QPSK.symbol_energy == 2.0
        assert QAM16.symbol_energy == 10.0

    def test_bits_per_symbol(self):
        assert (BPSK.bps, QPSK.bps, QAM16.bps) == (1, 2, 4)
        assert (BPSK.bits_per_axis, QPSK.bits_per_axis, QAM16.bits_per_axis) == (
            1, 1, 2
        )

    def test_real_axes(self):
        assert (BPSK.axes, QPSK.axes, QAM16.axes) == (1, 2, 2)

    def test_axis_levels(self):
        assert set(BPSK.levels) == {-1, 1}
        assert set(QPSK.levels) == {-1, 1}
        assert set(QAM16.levels) == {-3, -1, 1, 3}

    def test_lookup(self):
        assert get_constellation("qpsk") is QPSK
        assert get_constellation("bpsk") is BPSK
        assert get_constellation("qam16") is QAM16
        with pytest.raises(ValueError):
            get_constellation("qam64")

    def test_points_are_distinct(self):
        for c in (BPSK, QPSK, QAM16):
            pts = constellation_points(c)
            assert len(pts) == 2**c.bps == len(set(pts))


class TestModulate:
    def test_qpsk_zero_bits(self):
        assert modulate(np.array([0, 0]), QPSK)[0] == 1 + 1j

    def test_qam16_hand_example(self):
        # spins (+1,-1,-1,+1): real 2*1-1 = 1, imag 2*(-1)+1 = -1
        assert modulate(np.array([0, 1, 1, 0]), QAM16)[0] == 1 - 1j

    def test_bpsk_sign_flip(self):
        out = modulate(np.array([0, 1]), BPSK)
        assert out.tolist() == [1, -1]

    def test_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 1, 0]), QPSK)

    def test_round_trip_exhaustive_qpsk_four_users(self):
        for bits in itertools.product((0, 1), repeat=8):
            b = np.array(bits)
            assert np.array_equal(hard_bits(modulate(b, QPSK), QPSK), b)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_round_trip_exhaustive_per_symbol(self, c):
        for bits in itertools.product((0, 1), repeat=c.bps):
            b = np.array(bits)
            sym = modulate(b, c)
            assert sym[0] in constellation_points(c)
            assert np.array_equal(hard_bits(sym, c), b)


class TestDemodulate:
    def test_qpsk_nearest_quadrant(self):
        bits = hard_bits(np.array([0.3 - 2.1j]), QPSK)
        assert bits.tolist() == [0, 1]

    def test_qam16_nearest_levels(self):
        sym = hard_symbols(np.array([2.9 + 0.2j]), QAM16)
        assert sym[0] == 3 + 1j

    def test_ties_quantize_to_smaller_amplitude(self):
        # midpoint 2 sits between 1 and 3; -2 between -1 and -3
        sym = hard_symbols(np.array([2.0 - 2.0j]), QAM16)
        assert sym[0] == 1 - 1j

    def test_tie_at_zero_resolves_positive(self):
        assert hard_symbols(np.array([0.0 + 0.0j]), QPSK)[0] == 1 + 1j
        assert hard_symbols(np.array([0.0 + 0.0j]), QAM16)[0] == 1 + 1j

    def test_bpsk_quantizes_real_axis(self):
        sym = hard_symbols(np.array([-0.2 + 5.0j]), BPSK)
        assert sym[0] == -1


class TestChannelSampling:
    def test_deterministic_given_stream(self):
        a = sample_channel(3, 4, np.random.default_rng(7))
        b = sample_channel(3, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert a.shape == (4, 3) and a.dtype == complex

    def test_single_entry_shape(self):
        assert sample_channel(1, 1, np.random.default_rng(0)).shape == (1, 1)

    def test_unit_variance_monte_carlo(self):
        h = sample_channel(100, 100, np.random.default_rng(42))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)


class TestNoise:
    def test_variance_formula_examples(self):
        assert noise_variance_for_snr(0.0, 1, BPSK) == pytest.approx(1.0)
        assert noise_variance_for_snr(10.0, 16, QPSK) == pytest.approx(3.2)

    def test_snr_definition_monte_carlo(self):
        # Receive-side SNR: ratio of summed signal and noise powers over
        # 1000 instances of a 16x16 QPSK system at 10 dB.
        rng = np.random.default_rng(2024)
        var = noise_variance_for_snr(10.0, 16, QPSK)
        sig = nse = 0.0
        for _ in range(1000):
            h = sample_channel(16, 16, rng)
            bits = rng.integers(0, 2, 32)
            x = modulate(bits, QPSK)
            clean = h @ x
            noisy = add_awgn(clean, var, rng)
            sig += np.sum(np.abs(clean) ** 2)
            nse += np.sum(np.abs(noisy - clean) ** 2)
        assert sig / nse == pytest.approx(10.0, abs=0.5)

    def test_zero_variance_passthrough(self):
        clean = np.array([1 + 2j, -3j])
        out = add_awgn(clean, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, clean)

    def test_deterministic(self):
        clean = np.zeros(4, dtype=complex)
        a = add_awgn(clean, 2.0, np.random.default_rng(5))
        b = add_awgn(clean, 2.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_empirical_variance(self):
        noise = add_awgn(
            np.zeros(10_000, dtype=complex), 2.0, np.random.default_rng(8)
        )
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.0, abs=0.1)


def random_symbols(rng, c, nt):
    bits = rng.integers(0, 2, nt * c.bps)
    return modulate(bits, c)


class TestRealify:
    def test_real_channel_block_structure(self, rng):
        h = rng.normal(size=(3, 2)) + 0j
        y = rng.normal(size=3) + 0j
        sys = realify(h, y, QPSK)
        assert sys.h_r.shape == (6, 4)
        assert np.array_equal(sys.h_r[:3, :2], h.real)
        assert np.array_equal(sys.h_r[3:, 2:], h.real)
        assert np.all(sys.h_r[:3, 2:] == 0) and np.all(sys.h_r[3:, :2] == 0)

    def test_bpsk_stacked_shape(self, rng):
        h = sample_channel(2, 3, rng)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        sys = realify(h, y, BPSK)
        assert sys.h_r.shape == (6, 2)
        assert sys.y_r.shape == (6,)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_residual_identity(self, c, rng):
        for _ in range(10):
            h = sample_channel(3, 3, rng)
            x = random_symbols(rng, c, 3)
            y = add_awgn(h @ x, 1.5, rng)
            sys = realify(h, y, c)
            x_r = realify_symbols(x, c)
            complex_res = np.sum(np.abs(y - h @ x) ** 2)
            real_res = np.sum((sys.y_r - sys.h_r @ x_r) ** 2)
            assert real_res == pytest.approx(complex_res, rel=1e-12)


class TestSampleInstance:
    def test_reproducible_and_consistent(self):
        a = sample_instance(4, 5, QPSK, 12.0, np.random.default_rng([1, 2]))
        b = sample_instance(4, 5, QPSK, 12.0, np.random.default_rng([1, 2]))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.tx_symbols, b.tx_symbols)
        assert np.array_equal(a.y, b.y)
        assert a.noise_var == b.noise_var

    def test_fields_are_linked(self):
        # The payload bits are the stream's first draw, then modulated.
        inst = sample_instance(3, 4, QAM16, 15.0, np.random.default_rng(8))
        bits = np.random.default_rng(8).integers(0, 2, 12)
        assert inst.h.shape == (4, 3)
        assert np.array_equal(modulate(bits, QAM16), inst.tx_symbols)
        assert np.array_equal(nearest_point_bits(inst.tx_symbols, QAM16), bits)
        assert inst.noise_var == noise_variance_for_snr(15.0, 3, QAM16)
        assert inst.y.shape == (4,)
        assert inst.noise_var > 0


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["bpsk", "qpsk", "qam16"]))
@settings(max_examples=40, deadline=None)
def test_modulation_round_trip_property(seed, name):
    c = get_constellation(name)
    rng = np.random.default_rng(seed)
    nt = int(rng.integers(1, 6))
    bits = rng.integers(0, 2, nt * c.bps)
    assert np.array_equal(hard_bits(modulate(bits, c), c), bits)
