"""Shared helpers: independent scalar-loop oracles the vectorized code
must agree with, and small deterministic model/instance factories.
"""

import itertools

import numpy as np
import pytest

from sbmimo.ising import IsingModel


def energy_loop(model: IsingModel, s) -> float:
    # Independent oracle: ordered-pair double sum, plain Python floats.
    total = model.offset
    for i in range(model.n):
        total += model.h[i] * s[i]
        for k in range(model.n):
            total += model.j[i, k] * s[i] * s[k]
    return total


def all_spin_vectors(n: int):
    # Lexicographic with -1 before +1, independent of detectors._spin_chunks.
    for combo in itertools.product((-1, 1), repeat=n):
        yield np.array(combo, dtype=np.int8)


def random_model(rng, n: int, h_scale: float = 1.0) -> IsingModel:
    a = rng.normal(size=(n, n))
    j = (a + a.T) / 2.0
    np.fill_diagonal(j, 0.0)
    h = rng.normal(size=n) * h_scale
    return IsingModel(n=n, j=j, h=h, offset=float(rng.normal()))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
