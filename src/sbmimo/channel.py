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
    """One transmission: nr x nt channel h, sent symbols, noisy receive y."""

    h: np.ndarray
    tx_symbols: np.ndarray
    noise_var: float
    y: np.ndarray


@dataclass(frozen=True)
class RealizedSystem:
    """Real-valued stand-in for the complex system: ||y - Hx||^2 ==
    ||y_r - h_r @ x_r||^2 for the matching real symbol vector x_r."""

    h_r: np.ndarray
    y_r: np.ndarray


def _axis_weights(bits_per_axis: int) -> np.ndarray:
    # MSB-first binary weights, e.g. (2, 1) for two bits per axis.
    return 2.0 ** np.arange(bits_per_axis - 1, -1, -1)


def modulate(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit vector to symbols, bps bits per symbol.

    Within one symbol the first bits_per_axis bits set the real axis
    (MSB first) and the remaining ones the imaginary axis.
    """
    bits = np.asarray(bits)
    if bits.size % c.bps != 0:
        raise ValueError(
            f"bit count {bits.size} is not a multiple of bps = {c.bps}"
        )
    spins = 1.0 - 2.0 * bits.reshape(-1, c.axes, c.bits_per_axis)
    axis = np.zeros((len(spins), 2))  # BPSK leaves the imaginary axis 0
    axis[:, : c.axes] = spins @ _axis_weights(c.bits_per_axis)
    return axis[:, 0] + 1j * axis[:, 1]


def sample_channel(nt: int, nr: int, rng: np.random.Generator) -> np.ndarray:
    """nr x nt i.i.d. circularly-symmetric complex Gaussian, unit variance."""
    if nt < 1 or nr < 1:
        raise ValueError(f"need nt, nr >= 1, got nt = {nt}, nr = {nr}")
    re = rng.standard_normal((nr, nt))
    im = rng.standard_normal((nr, nt))
    return np.sqrt(0.5) * (re + 1j * im)


def noise_variance_for_snr(snr_db: float, nt: int, c: Constellation) -> float:
    """Total complex noise variance per receive antenna for a target SNR."""
    if nt < 1:
        raise ValueError(f"need nt >= 1, got {nt}")
    return nt * c.symbol_energy / 10.0 ** (snr_db / 10.0)


def add_awgn(
    clean: np.ndarray, noise_var: float, rng: np.random.Generator
) -> np.ndarray:
    """Add complex white Gaussian noise, noise_var per entry (half per axis)."""
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    clean = np.asarray(clean, dtype=np.complex128)
    scale = np.sqrt(noise_var / 2.0)
    re = rng.standard_normal(clean.shape)
    im = rng.standard_normal(clean.shape)
    return clean + scale * (re + 1j * im)


def realify(H: np.ndarray, y: np.ndarray, c: Constellation) -> RealizedSystem:
    """Real-valued system preserving the residual norm.

    Complex constellations use the doubled block form
    [[Re H, -Im H], [Im H, Re H]]; BPSK stacks [Re H; Im H] and keeps the
    nt real unknowns.
    """
    H = np.asarray(H, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if H.shape[0] != y.shape[0]:
        raise ValueError(
            f"H has {H.shape[0]} rows but y has length {y.shape[0]}"
        )
    y_r = np.concatenate([y.real, y.imag])
    if c.axes == 1:
        return RealizedSystem(h_r=np.vstack([H.real, H.imag]), y_r=y_r)
    # Filled block by block: np.block costs several times as much.
    nr, nt = H.shape
    h_r = np.empty((2 * nr, 2 * nt))
    h_r[:nr, :nt] = h_r[nr:, nt:] = H.real
    h_r[nr:, :nt] = H.imag
    np.negative(H.imag, out=h_r[:nr, nt:])
    return RealizedSystem(h_r=h_r, y_r=y_r)


def realify_symbols(x: np.ndarray, c: Constellation) -> np.ndarray:
    """The real symbol vector matching realify()'s column layout."""
    x = np.asarray(x, dtype=np.complex128)
    return np.concatenate([x.real, x.imag][: c.axes])


def sample_instance(
    nt: int,
    nr: int,
    c: Constellation,
    snr_db: float,
    rng: np.random.Generator,
) -> ChannelInstance:
    """Draw one transmission: bits, channel, then noise, in that order."""
    tx_symbols = modulate(rng.integers(0, 2, nt * c.bps).astype(np.int8), c)
    h = sample_channel(nt, nr, rng)
    noise_var = noise_variance_for_snr(snr_db, nt, c)
    y = add_awgn(h @ tx_symbols, noise_var, rng)
    return ChannelInstance(h, tx_symbols, noise_var, y)
