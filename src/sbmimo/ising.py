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
    """A stack of B same-size models of n spins: couplings j (B, n, n),
    fields h (B, n) and offsets (B,), which model[idx] selects by a
    list, an array, a mask or a slice.  A single model is the stack of
    one."""

    j: np.ndarray
    h: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64)
        if (h.ndim != 2 or j.shape != (*h.shape, h.shape[-1])
                or offset.shape != h.shape[:-1]):
            raise ValueError(
                f"need j (B, n, n), h (B, n) and offset (B,), got "
                f"j {j.shape}, h {h.shape} and offset {offset.shape}"
            )
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self) -> int:
        return self.h.shape[-1]

    def __getitem__(self, idx) -> IsingModel:
        return IsingModel(self.j[idx], self.h[idx], self.offset[idx])


def energy(model: IsingModel, s) -> np.ndarray:
    """Energies of stacked spin rows s (B, R, n), int8 or float, under
    a stack of B models.  Returns (B, R).

    Each row is summed as ``(s @ J) @ s + h @ s + offset``, in that order,
    so a row scores bit for bit as it would alone, and int8 rows as their
    float64 values.  A row length other than n is numpy's ValueError;
    spin values are not checked: callers own the {-1, +1} contract.
    """
    j, h, offset = model.j, model.h, model.offset
    quad = np.vecdot(np.vecmat(s, j[..., None, :, :]), s)
    return quad + np.vecdot(h[..., None, :], s) + offset[..., None]
