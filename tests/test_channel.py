import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmimo.channel import (
    BPSK,
    QAM16,
    QPSK,
    get_constellation,
    noise_variance_for_snr,
    realify,
    realify_symbols,
    sample_instance,
)
from sbmimo.reduction import level_spins

from conftest import (
    bits_to_spins,
    constellation_points,
    draw_instance,
    hard_bits,
    hard_symbols,
    modulate,
    nearest_point_bits,
    sent_symbols,
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

    def test_bit_weights_are_msb_first_and_read_only(self):
        # An axis value is the sum over its bits of weight * spin, MSB first.
        for c, weights in ((BPSK, [1]), (QPSK, [1]), (QAM16, [2, 1])):
            assert c.weights.dtype == np.int8
            assert c.weights.tolist() == weights
            assert c.weights is c.weights  # built once per constellation
            with pytest.raises(ValueError, match="read-only"):
                c.weights[0] = 0

    def test_midpoints_are_cached_and_read_only(self):
        # The nearest-level rule's edges: one between each pair of levels.
        for c, mid in ((BPSK, [0]), (QPSK, [0]), (QAM16, [-2, 0, 2])):
            assert c.midpoints.dtype == np.float64
            assert c.midpoints.tolist() == mid
            assert c.midpoints is c.midpoints  # built once per constellation
            with pytest.raises(ValueError, match="read-only"):
                c.midpoints[0] = 1.0

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
    # The reference modulation in conftest against the labeling's hand
    # examples and against the library's hard decision.
    def test_qpsk_zero_bits(self):
        assert modulate(np.array([0, 0]), QPSK)[0] == 1 + 1j

    def test_qam16_hand_example(self):
        # spins (+1,-1,-1,+1): real 2*1-1 = 1, imag 2*(-1)+1 = -1
        assert modulate(np.array([0, 1, 1, 0]), QAM16)[0] == 1 - 1j

    def test_bpsk_sign_flip(self):
        out = modulate(np.array([0, 1]), BPSK)
        assert out.tolist() == [1, -1]

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


def channel(nt, nr, rng):
    return sample_instance(nt, nr, QPSK, 10.0, rng).h


def noise(inst, c):
    # The noise an instance's receive vector carries.
    return inst.y - inst.h @ sent_symbols(inst, c)


class TestChannelSampling:
    def test_deterministic_given_stream(self):
        a = channel(3, 4, np.random.default_rng(7))
        b = channel(3, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert a.shape == (4, 3) and a.dtype == complex

    def test_single_entry_shape(self):
        assert channel(1, 1, np.random.default_rng(0)).shape == (1, 1)

    def test_unit_variance_monte_carlo(self):
        h = channel(100, 100, np.random.default_rng(42))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)


class TestNoise:
    def test_variance_formula_examples(self):
        assert noise_variance_for_snr(0.0, 1, BPSK) == pytest.approx(1.0)
        assert noise_variance_for_snr(10.0, 16, QPSK) == pytest.approx(3.2)

    def test_snr_definition_monte_carlo(self):
        # Receive-side SNR: ratio of summed signal and noise powers over
        # 1000 instances of a 16x16 QPSK system at 10 dB.
        rng = np.random.default_rng(2024)
        sig = nse = 0.0
        for _ in range(1000):
            inst = sample_instance(16, 16, QPSK, 10.0, rng)
            sig += np.sum(np.abs(inst.h @ sent_symbols(inst, QPSK)) ** 2)
            nse += np.sum(np.abs(noise(inst, QPSK)) ** 2)
        assert sig / nse == pytest.approx(10.0, abs=0.5)

    def test_zero_variance_passthrough(self):
        # An infinite SNR leaves the receive vector noiseless.
        inst = sample_instance(2, 3, QAM16, math.inf, np.random.default_rng(1))
        assert inst.noise_var == 0.0
        assert np.array_equal(inst.y, inst.h @ sent_symbols(inst, QAM16))

    def test_deterministic(self):
        a = sample_instance(1, 4, QPSK, 0.0, np.random.default_rng(5))
        b = sample_instance(1, 4, QPSK, 0.0, np.random.default_rng(5))
        assert np.array_equal(noise(a, QPSK), noise(b, QPSK))

    def test_empirical_variance(self):
        # 0 dB at one QPSK user is noise variance 2 per receive antenna.
        inst = sample_instance(1, 10_000, QPSK, 0.0, np.random.default_rng(8))
        assert inst.noise_var == 2.0
        assert np.mean(np.abs(noise(inst, QPSK)) ** 2) == pytest.approx(
            2.0, abs=0.1
        )


def random_symbols(rng, c, nt):
    bits = rng.integers(0, 2, nt * c.bps)
    return modulate(bits, c)


class TestRealify:
    def test_real_channel_block_structure(self, rng):
        h = rng.normal(size=(3, 2)) + 0j
        y = rng.normal(size=3) + 0j
        h_r, _ = realify(h, y, QPSK)
        assert h_r.shape == (6, 4)
        assert np.array_equal(h_r[:3, :2], h.real)
        assert np.array_equal(h_r[3:, 2:], h.real)
        assert np.all(h_r[:3, 2:] == 0) and np.all(h_r[3:, :2] == 0)

    def test_bpsk_stacked_shape(self, rng):
        h = channel(2, 3, rng)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_r, y_r = realify(h, y, BPSK)
        assert h_r.shape == (6, 2)
        assert y_r.shape == (6,)

    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_residual_identity(self, c, rng):
        for _ in range(10):
            inst = sample_instance(3, 3, c, 5.0, rng)
            h, x, y = inst.h, random_symbols(rng, c, 3), inst.y
            h_r, y_r = realify(h, y, c)
            x_r = realify_symbols(x, c)
            complex_res = np.sum(np.abs(y - h @ x) ** 2)
            real_res = np.sum((y_r - h_r @ x_r) ** 2)
            assert real_res == pytest.approx(complex_res, rel=1e-12)


class TestSampleInstance:
    def test_reproducible_and_consistent(self):
        a = sample_instance(4, 5, QPSK, 12.0, np.random.default_rng([1, 2]))
        b = sample_instance(4, 5, QPSK, 12.0, np.random.default_rng([1, 2]))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.tx_levels, b.tx_levels)
        assert np.array_equal(a.y, b.y)
        assert a.noise_var == b.noise_var

    def test_fields_are_linked(self):
        # The payload bits are the stream's first draw, kept as levels.
        inst = sample_instance(3, 4, QAM16, 15.0, np.random.default_rng(8))
        bits = np.random.default_rng(8).integers(0, 2, 12)
        assert inst.h.shape == (4, 3)
        assert inst.tx_levels.shape == (6,) and inst.tx_levels.dtype == np.int8
        sent = sent_symbols(inst, QAM16)
        assert np.array_equal(modulate(bits, QAM16), sent)
        assert np.array_equal(nearest_point_bits(sent, QAM16), bits)
        assert inst.noise_var == noise_variance_for_snr(15.0, 3, QAM16)
        assert inst.y.shape == (4,)
        assert inst.noise_var > 0

    @pytest.mark.parametrize("nt, nr", [(0, 1), (1, 0), (0, 0)])
    def test_refuses_no_antennas(self, nt, nr):
        with pytest.raises(ValueError, match="need nt, nr >= 1"):
            sample_instance(nt, nr, QPSK, 10.0, np.random.default_rng(0))

    @pytest.mark.parametrize("nt, nr", [(1, 1), (4, 4), (6, 3), (3, 8),
                                        (16, 16)])
    @pytest.mark.parametrize("c", [BPSK, QPSK, QAM16], ids=lambda c: c.name)
    def test_matches_the_two_draw_reference(self, c, nt, nr):
        # One standard_normal draw each for the channel and the noise
        # gives the values, bit for bit, of two draws each (real parts,
        # then imaginary), and leaves the stream where they leave it, so
        # the solver seed drawn next is the same.
        for seed in range(20):
            snr_db = -10.0 + 2.5 * seed
            var = nt * c.symbol_energy / 10.0 ** (snr_db / 10.0)
            rng = np.random.default_rng([seed, nt, nr])
            ref_rng = np.random.default_rng([seed, nt, nr])
            inst = sample_instance(nt, nr, c, snr_db, rng)
            ref = draw_instance(nt, nr, c, var, ref_rng)
            assert inst.h.tobytes() == ref.h.tobytes()
            assert inst.y.tobytes() == ref.y.tobytes()
            assert inst.noise_var == ref.noise_var
            assert inst.tx_levels.dtype == np.int8
            assert inst.tx_levels.tobytes() == ref.tx_levels.tobytes()
            assert rng.integers(0, 1 << 63, dtype=np.uint64) == (
                ref_rng.integers(0, 1 << 63, dtype=np.uint64)
            )


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["bpsk", "qpsk", "qam16"]))
@settings(max_examples=40, deadline=None)
def test_modulation_round_trip_property(seed, name):
    c = get_constellation(name)
    rng = np.random.default_rng(seed)
    nt = int(rng.integers(1, 6))
    bits = rng.integers(0, 2, nt * c.bps)
    assert np.array_equal(hard_bits(modulate(bits, c), c), bits)


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["bpsk", "qpsk", "qam16"]))
@settings(max_examples=40, deadline=None)
def test_sent_levels_replay_the_payload_draw(seed, name):
    # Replaying an instance's stream: its first draw is the payload, whose
    # spins and symbols under the reference labeling are those of the
    # levels the instance keeps.
    c = get_constellation(name)
    nt = int(np.random.default_rng(seed).integers(1, 6))
    inst = sample_instance(nt, 2, c, 10.0, np.random.default_rng([seed, 1]))
    bits = np.random.default_rng([seed, 1]).integers(0, 2, nt * c.bps)
    assert np.array_equal(level_spins(inst.tx_levels, c), bits_to_spins(bits, c))
    assert np.array_equal(sent_symbols(inst, c), modulate(bits, c))
