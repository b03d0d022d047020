"""Shared helpers: independent scalar-loop oracles the vectorized code
must agree with, and small deterministic model/instance factories.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sbmimo.channel import ChannelInstance
from sbmimo.detectors import sb_detect, sb_solve
from sbmimo.ising import IsingModel
from sbmimo.reduction import symbols_to_spins
from sbmimo.sb import solve


def model_of(j, h, offset=0.0) -> IsingModel:
    # The stack of one of a single model's couplings j (n, n), fields h
    # (n,) and offset: the form every IsingModel takes.
    return IsingModel(np.asarray(j)[None], np.asarray(h)[None], [offset])


def energy_loop(model: IsingModel, s) -> float:
    # Independent oracle on a stack of one: ordered-pair double sum,
    # plain Python floats.
    (j,), (h,), (total,) = model.j, model.h, model.offset.tolist()
    for i in range(model.n):
        total += h[i] * s[i]
        for k in range(model.n):
            total += j[i, k] * s[i] * s[k]
    return total


def energy_ref(model: IsingModel, s) -> float:
    # The single-row energy expression ising.energy must reproduce bit
    # for bit, for float and int8 rows: s @ J @ s + h @ s + offset, summed
    # in that order, under a stack of one.  One model's energy in tests
    # goes through it.
    (j,), (h,), (offset,) = model.j, model.h, model.offset
    s = np.asarray(s, dtype=np.float64)
    return float(s @ j @ s + h @ s + offset)


def model_from(a, y_r):
    # The Ising model of ||y_r - a s||^2 from one instance's spin matrix
    # a = H_r T, by the reduction's formulas in instance_model's order of
    # operations: the per-instance reference of the stacked reduction, as
    # a stack of one.
    g = a.T @ a
    g = 0.5 * (g + g.T)
    return model_of(
        j=g - np.diag(np.diagonal(g)),
        h=-2.0 * (a.T @ y_r),
        offset=np.trace(g) + y_r @ y_r,
    )


def assert_same_model(model, ref):
    # Bit for bit, shapes included.
    for got, want in zip((model.j, model.h, model.offset),
                         (ref.j, ref.h, ref.offset)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def sign_pm1(x) -> np.ndarray:
    # Sign with sign(0) = +1, as float64: the solver's readout rule.
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


def all_spin_vectors(n: int):
    # Lexicographic with -1 before +1, independent of detectors.ml_oracle.
    for combo in itertools.product((-1, 1), repeat=n):
        yield np.array(combo, dtype=np.int8)


def spin_transform(c, nt: int) -> np.ndarray:
    # The dense spin transform T with x_r = T s, from its definition: spin
    # block (axis, weight) maps onto that axis's nt real unknowns, scaled
    # by the weight (MSB first).  Independent of reduction.spin_matrix.
    bpa = c.bits_per_axis
    t = np.zeros((c.axes * nt, c.axes * bpa * nt))
    for axis in range(c.axes):
        for w, weight in enumerate(2 ** np.arange(bpa - 1, -1, -1)):
            block = axis * bpa + w
            rows = slice(axis * nt, (axis + 1) * nt)
            cols = slice(block * nt, (block + 1) * nt)
            t[rows, cols] = weight * np.eye(nt)
    return t


def spins_to_symbols(s, c) -> np.ndarray:
    # Complex symbol vector x with realify_symbols(x) == T s.
    s = np.asarray(s, dtype=np.float64)
    nt = s.size // c.bps
    x_r = spin_transform(c, nt) @ s
    if c.axes == 1:
        return x_r.astype(np.complex128)
    return x_r[:nt] + 1j * x_r[nt:]


def spins_to_bits(s, c) -> np.ndarray:
    # The bit vector of a spin vector, from the layouts' definitions: bit
    # j of symbol k (the real axis's bits first, MSB first) is spin block
    # j = (axis, weight), entry k, and spin s is bit (1 - s) / 2.
    # Independent of the library's spin and bit maps.
    nt = len(s) // c.bps
    bits = [
        (1 - int(s[j * nt + k])) // 2 for k in range(nt) for j in range(c.bps)
    ]
    return np.array(bits, dtype=np.int8)


def bits_to_spins(bits, c) -> np.ndarray:
    # The inverse of spins_to_bits, from the same definitions.
    nt = len(bits) // c.bps
    spins = [
        1 - 2 * int(bits[k * c.bps + j]) for j in range(c.bps) for k in range(nt)
    ]
    return np.array(spins, dtype=np.int8)


def modulate(bits, c) -> np.ndarray:
    # Reference modulation from the layouts' definitions: bits to spins,
    # then x_r = T s.  Independent of the library, which keeps the
    # payload as level indices and has no modulator.
    return spins_to_symbols(bits_to_spins(bits, c), c)


def sent_symbols(inst, c) -> np.ndarray:
    # The complex symbols of an instance's level indices (real axis
    # block, then imaginary).
    x_r = np.array(c.levels, dtype=np.float64)[inst.tx_levels]
    nt = x_r.size // c.axes
    return x_r[:nt] + 1j * x_r[nt:] if c.axes == 2 else x_r + 0j


def symbol_levels(symbols, c) -> np.ndarray:
    # Level indices of lattice symbols in realify's column layout, the
    # tx_levels of an instance that sent them.
    x = np.asarray(symbols, dtype=np.complex128)
    coords = np.concatenate([x.real, x.imag][: c.axes])
    return np.array([c.levels.index(v) for v in coords], dtype=np.int8)


def draw_instance(nt, nr, c, noise_var, rng) -> ChannelInstance:
    # The two-draw sampling that sample_instance must match bit for bit,
    # at an explicit noise variance: the payload bits through the
    # reference modulation, then the unit-variance channel's real and
    # imaginary parts as two standard_normal draws, then the noise's
    # (noise_var per receive antenna, half per axis).
    x = modulate(rng.integers(0, 2, nt * c.bps), c)
    re = rng.standard_normal((nr, nt))
    im = rng.standard_normal((nr, nt))
    h = np.sqrt(0.5) * (re + 1j * im)
    re = rng.standard_normal(nr)
    im = rng.standard_normal(nr)
    y = h @ x + np.sqrt(noise_var / 2.0) * (re + 1j * im)
    return ChannelInstance(h, symbol_levels(x, c), noise_var, y)


def bit_patterns(c) -> list:
    # Every bps-bit pattern, lexicographic.
    patterns = itertools.product((0, 1), repeat=c.bps)
    return [np.array(b, dtype=np.int8) for b in patterns]


def constellation_points(c) -> np.ndarray:
    # All 2^bps symbols, one per bit pattern in bit_patterns order.
    return np.array([modulate(b, c)[0] for b in bit_patterns(c)])


def nearest_point_bits(symbols, c) -> np.ndarray:
    # Independent nearest-point decision: per symbol, the bit pattern
    # whose modulated point is closest, by brute force over all patterns.
    patterns, points = bit_patterns(c), constellation_points(c)
    return np.concatenate(
        [patterns[int(np.argmin(np.abs(points - z)))] for z in symbols]
    )


def hard_bits(symbols, c) -> np.ndarray:
    # The library's hard decision, nearest level per axis, as bits
    # through the reference layout above.
    return spins_to_bits(symbols_to_spins(symbols, c), c)


def hard_symbols(symbols, c) -> np.ndarray:
    # The library's hard decision as symbols, mapped back through the
    # dense T.
    return spins_to_symbols(symbols_to_spins(symbols, c), c)


def stack(models) -> IsingModel:
    # Stacks of same-size models joined into one, in order.
    return IsingModel(np.concatenate([m.j for m in models]),
                      np.concatenate([m.h for m in models]),
                      np.concatenate([m.offset for m in models]))


def solve_one(model, params, seed=0, trace=None):
    # A stack of one through the block solver: its row of solve's arrays
    # as spins, energy and diverged_restarts, or None if every restart
    # diverged.
    (spins,), (e,), (diverged,) = solve(model, params, [seed],
                                        None if trace is None else [trace])
    if diverged == params.n_restarts:
        return None
    return SimpleNamespace(spins=spins, energy=float(e),
                           diverged_restarts=int(diverged))


def detect_one(p, params, anchored=False, r=0.5, seed=0):
    # sb_detect on the block of one p, solved alone, anchored at its
    # MMSE decision or not.
    return sb_detect(sb_solve(p, params, [seed], r if anchored else None), 0)


def random_model(rng, n: int, h_scale: float = 1.0) -> IsingModel:
    # A stack of one random model of n spins.
    a = rng.normal(size=(n, n))
    j = (a + a.T) / 2.0
    np.fill_diagonal(j, 0.0)
    h = rng.normal(size=n) * h_scale
    return model_of(j, h, rng.normal())


def huge_model(m):
    # J and h at 8e307 / sqrt(n): J @ s + h / 2 overflows under some sign
    # patterns, so restarts diverge at various steps, some or all of them.
    # Entries are clipped to [-2, 2] first, so that each scaled entry stays
    # finite (2 * 8e307 / sqrt(2) < float max) whatever the normal draw.
    scale = 8e307 / math.sqrt(m.n)
    return IsingModel(
        j=np.clip(m.j, -2.0, 2.0) * scale,
        h=np.clip(m.h, -2.0, 2.0) * scale,
        offset=m.offset,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
