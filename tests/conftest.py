"""Shared helpers: independent scalar-loop oracles the vectorized code
must agree with, and small deterministic model/instance factories.
"""

import itertools

import numpy as np
import pytest

from sbmimo.channel import modulate
from sbmimo.detectors import sb_detect, sb_solve
from sbmimo.ising import IsingModel
from sbmimo.reduction import symbols_to_spins
from sbmimo.sb import solve


def energy_loop(model: IsingModel, s) -> float:
    # Independent oracle: ordered-pair double sum, plain Python floats.
    total = model.offset
    for i in range(model.n):
        total += model.h[i] * s[i]
        for k in range(model.n):
            total += model.j[i, k] * s[i] * s[k]
    return total


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


def solve_one(model, params, seed=0, trace=None):
    # One model through the block solver, as the block of one: its
    # SolveResult, or its SolverDivergenceError raised.
    (out,) = solve([model], params, [seed], None if trace is None else [trace])
    if isinstance(out, Exception):
        raise out
    return out


def detect_one(p, params, anchor=None, r=0.5, seed=0):
    # sb_detect on one problem, solved as the block of one.
    anchors = None if anchor is None else [anchor]
    (solved,) = sb_solve([p], params, [seed], anchors, r)
    return sb_detect(p, solved, anchor)


def random_model(rng, n: int, h_scale: float = 1.0) -> IsingModel:
    a = rng.normal(size=(n, n))
    j = (a + a.T) / 2.0
    np.fill_diagonal(j, 0.0)
    h = rng.normal(size=n) * h_scale
    return IsingModel(j=j, h=h, offset=float(rng.normal()))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
