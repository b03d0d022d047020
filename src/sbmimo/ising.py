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
