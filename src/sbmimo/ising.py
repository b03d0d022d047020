"""Ising problem representation and energy evaluation.

The cost function is the quadratic form over spins ``s`` in {-1, +1}^n

    E(s) = s^T J s + h . s + offset,

where the double sum runs over all ordered index pairs, so each unordered
pair (i, k) contributes ``2 * J[i, k] * s[i] * s[k]``.  ``J`` is symmetric
with zero diagonal.  The ``offset`` carries the constant dropped when the
diagonal of a Gram matrix is zeroed out, so the energy of a detection
model reproduces the squared residual of the underlying least-squares
objective exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IsingModel:
    """Immutable coupling matrix / field vector pair with an energy offset."""

    n: int
    j: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", np.asarray(self.j, dtype=np.float64))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        object.__setattr__(self, "offset", float(self.offset))


def energy(model: IsingModel, s: np.ndarray) -> float:
    """Evaluate ``s^T J s + h . s + offset`` for a spin vector ``s``.

    Raises ValueError on a length mismatch.  Spin values are not checked;
    callers own the {-1, +1} contract.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (model.n,):
        raise ValueError(
            f"spin vector has shape {s.shape}, expected ({model.n},)"
        )
    return float(s @ model.j @ s + model.h @ s + model.offset)


def spin_table(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows ``start:stop`` of the 2^n spin vectors, lexicographic, -1 first.

    Row k encodes the binary digits of k (MSB first) mapped 0 -> -1,
    1 -> +1.  The rows are float64 so they feed matrix products directly.
    """
    if n < 1:
        raise ValueError(f"spin count must be >= 1, got {n}")
    total = 1 << n
    stop = total if stop is None else min(stop, total)
    ks = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (ks[:, None] >> shifts[None, :]) & 1
    return 2.0 * bits - 1.0
