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
    """Couplings j (n x n) and fields h (n,), n spins, with an offset."""

    j: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        if h.ndim != 1 or j.shape != (len(h), len(h)):
            raise ValueError(
                f"need j (n, n) and h (n,), got j {j.shape} and h {h.shape}"
            )
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def n(self) -> int:
        return len(self.h)


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
