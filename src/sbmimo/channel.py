"""MIMO link simulation: constellations, Rayleigh channels, AWGN, and the
real-valued decomposition of the complex system.

Constellations are kept on the unnormalized odd-integer lattice (BPSK
{-1,+1}, QPSK {+-1 +-1j}, 16-QAM {a+bj : a,b in {-3,-1,1,3}}) so that the
downstream Ising reduction stays integer-structured; the SNR accounting
absorbs the resulting symbol energies (1, 2 and 10).

SNR is defined at the receiver as E[||Hx||^2] / E[||n||^2] with unit
variance channel entries, which gives a per-antenna complex noise
variance of nt * Es / 10^(snr_db / 10).

Bit labeling is the natural binary labeling induced by the spin
transform (bit b -> spin 1 - 2b, axis value = 2*s_msb + s_lsb for
16-QAM), not Gray coding: spin errors and bit errors then correspond
one-to-one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Symbol alphabet described per real axis.

    levels are the amplitude values one axis can take, ascending; axes
    is the number of real axes per symbol, 2, or 1 for BPSK (real-only
    symbols).  bps is bits per symbol.
    """

    name: str
    bps: int
    levels: tuple[int, ...]
    axes: int = 2

    @property
    def bits_per_axis(self) -> int:
        return self.bps // self.axes

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """One axis's bit weights, MSB first, as read-only int8: the axis
        value is the sum of weight * spin over its bits ((2, 1) for 16-QAM)."""
        w = 2 ** np.arange(self.bits_per_axis - 1, -1, -1, dtype=np.int8)
        w.flags.writeable = False
        return w

    @functools.cached_property
    def midpoints(self) -> np.ndarray:
        """The midpoints of adjacent levels, ascending, as read-only
        float64: the edges of the nearest-level rule."""
        mid = np.add(self.levels[:-1], self.levels[1:]) / 2
        mid.flags.writeable = False
        return mid

    @functools.cached_property
    def symbol_energy(self) -> float:
        """Average symbol energy E_s over the alphabet."""
        return self.axes * float(np.mean(np.square(self.levels)))


BPSK = Constellation("bpsk", 1, (-1, 1), axes=1)
QPSK = Constellation("qpsk", 2, (-1, 1))
QAM16 = Constellation("qam16", 4, (-3, -1, 1, 3))

_BY_NAME = {c.name: c for c in (BPSK, QPSK, QAM16)}


def get_constellation(name: str) -> Constellation:
    try:
        return _BY_NAME[name.lower()]
    except (AttributeError, KeyError):  # AttributeError: not a string
        raise ValueError(
            f"unknown modulation {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class ChannelInstance:
    """One transmission: nr x nt channel h, sent levels, noisy receive y.

    tx_levels are int8 indices into c.levels in realify's column layout.
    """

    h: np.ndarray
    tx_levels: np.ndarray
    noise_var: float
    y: np.ndarray


def noise_variance_for_snr(snr_db: float, nt: int, c: Constellation) -> float:
    """Total complex noise variance per receive antenna for a target SNR."""
    if nt < 1:
        raise ValueError(f"need nt >= 1, got {nt}")
    return nt * c.symbol_energy / 10.0 ** (snr_db / 10.0)


def realify(
    H: np.ndarray, y: np.ndarray, c: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """The real-valued stand-in (h_r, y_r) for the complex system, of one
    system or of a stack: H (..., nr, nt) and y (..., nr).  It preserves
    the residual norm: ||y - Hx||^2 == ||y_r - h_r @ x_r||^2 for the
    matching real symbol vector x_r (see realify_symbols).

    Complex constellations use the doubled block form
    [[Re H, -Im H], [Im H, Re H]]; BPSK stacks [Re H; Im H] and keeps the
    nt real unknowns.
    """
    H = np.asarray(H, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if H.shape[:-1] != y.shape:
        raise ValueError(
            f"H has {H.shape[:-1]} rows but y has length {y.shape}"
        )
    y_r = np.concatenate([y.real, y.imag], axis=-1)
    if c.axes == 1:
        return np.concatenate([H.real, H.imag], axis=-2), y_r
    # Filled block by block: np.block costs several times as much.
    *lead, nr, nt = H.shape
    h_r = np.empty((*lead, 2 * nr, 2 * nt))
    h_r[..., :nr, :nt] = h_r[..., nr:, nt:] = H.real
    h_r[..., nr:, :nt] = H.imag
    np.negative(H.imag, out=h_r[..., :nr, nt:])
    return h_r, y_r


def realify_symbols(x: np.ndarray, c: Constellation) -> np.ndarray:
    """The real symbol vector matching realify's column layout, of each
    row of a stack x (..., nt)."""
    x = np.asarray(x, dtype=np.complex128)
    return np.concatenate([x.real, x.imag][: c.axes], axis=-1)


def sample_instance(
    nt: int,
    nr: int,
    c: Constellation,
    snr_db: float,
    rng: np.random.Generator,
) -> ChannelInstance:
    """Draw one transmission: bits, channel, then noise, in that order.

    Bit j of a symbol is a digit (MSB first) of its level index on axis
    j // bits_per_axis: bit b is the digit 1 - b, as bit b is spin 1 - 2b.
    The channel is nr x nt i.i.d. circularly-symmetric complex Gaussian
    with unit variance, and the noise complex white Gaussian with
    noise_var per receive antenna (half per axis); each is one
    standard_normal draw, its real parts first.
    """
    if nt < 1 or nr < 1:
        raise ValueError(f"need nt, nr >= 1, got nt = {nt}, nr = {nr}")
    bits = rng.integers(0, 2, nt * c.bps).astype(np.int8)
    digits = 1 - bits.reshape(nt, c.axes, c.bits_per_axis)
    tx_levels = (digits @ c.weights).T.reshape(-1)
    x = np.zeros((2, nt))  # BPSK leaves the imaginary axis 0
    x[: c.axes] = np.take(c.levels, tx_levels).reshape(c.axes, nt)
    re, im = rng.standard_normal((2, nr, nt))
    h = np.sqrt(0.5) * (re + 1j * im)
    noise_var = noise_variance_for_snr(snr_db, nt, c)
    re, im = rng.standard_normal((2, nr))
    y = h @ (x[0] + 1j * x[1]) + np.sqrt(noise_var / 2.0) * (re + 1j * im)
    return ChannelInstance(h, tx_levels, noise_var, y)
