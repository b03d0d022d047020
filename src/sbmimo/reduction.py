"""Ising formulation of the detection objective.

Substituting the spin expansion x_r = T s into the squared residual
||y_r - H_r x_r||^2 and splitting the Gram matrix G = (H_r T)^T (H_r T)
into off-diagonal couplings and a constant (s_i^2 = 1 turns the diagonal
into trace(G)) gives an Ising model whose energy equals the residual
exactly for every spin assignment:

    J = G - diag(G),  h = -2 (H_r T)^T y_r,  offset = trace(G) + ||y_r||^2.

The spin vector is laid out in nt-sized blocks ordered (axis, weight):
[real | imag] for QPSK, [real MSB | real LSB | imag MSB | imag LSB] for
16-QAM, a single real block for BPSK.  A system with nt transmitters has
nt * bps spins.  T maps block (axis, weight) onto that axis's nt real
unknowns scaled by the weight, so x_r = T s lands every entry on the
constellation lattice; H_r T is never formed by a product with T but by
scaling H_r's column blocks (see instance_model).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from sbmimo.channel import Constellation, realify_symbols
from sbmimo.ising import IsingModel
from sbmimo.sb import setting


def instance_model(h_r: np.ndarray, y_r: np.ndarray,
                   c: Constellation) -> IsingModel:
    """Reduce realify systems to their detection Ising models, whose
    energy equals ||y_r - H_r T s||^2 for every s.  H_r T is each axis's
    column block of H_r once per weight, scaled by it.

    h_r (B, m, k) and y_r (B, m) are a stack of B systems, as realify
    gives them; returns the stack of their models, each system's bit for
    bit what it would be alone.
    """
    *lead, m, k = h_r.shape
    nt = k // c.axes
    blocks = h_r.reshape(*lead, m, c.axes, 1, nt) * c.weights[:, None]
    a = blocks.reshape(*lead, m, nt * c.bps)
    h = -2.0 * (a.mT @ y_r[..., None])[..., 0]
    g = a.mT @ a
    del blocks, a  # a stack's temporaries are large: free each when done
    g = g + g.mT
    g *= 0.5
    # vecdot sums y_r . y_r as a lone dot does (einsum may not).
    offset = np.trace(g, axis1=-2, axis2=-1) + np.vecdot(y_r, y_r)
    np.einsum("...ii->...i", g)[...] = 0.0  # g is now J
    return IsingModel(g, h, offset)


def level_spins(idx: np.ndarray, c: Constellation) -> np.ndarray:
    """Spins of rows of level indices, laid out (axis, weight, entry).

    idx is (..., axes * nt): per real coordinate in realify's column
    layout, the index of its level among c's ascending levels, so level
    i's spins are the binary digits of i, one per weight in c.weights
    (MSB first), with +1 for a one.  Returns int8 spins of shape
    (..., nt * bps).
    """
    idx = np.asarray(idx, dtype=np.int8)
    lead, nt = idx.shape[:-1], idx.shape[-1] // c.axes
    ones = idx.reshape(*lead, c.axes, 1, nt) & c.weights[:, None]
    return np.where(ones, 1, -1).astype(np.int8).reshape(*lead, nt * c.bps)


def nearest_index(v, c: Constellation) -> np.ndarray:
    """Index of the level nearest to each value of the array v among c's
    ascending levels: the one nearest-level rule, which symbols_to_spins
    and the ML oracle's MMSE-SIC start both round by.

    A value on a midpoint goes to the level of smaller amplitude: the
    lower one above zero, the upper one at or below it, so 0 goes to +1
    as sign(0) does elsewhere.  A non-finite value goes where 0 does.
    The comparisons against the midpoints of adjacent levels are exact,
    so the level is the nearest to any finite value.
    """
    v = np.where(np.isfinite(v), v, 0.0)
    mid = c.midpoints
    left, right = mid.searchsorted(v, "left"), mid.searchsorted(v, "right")
    return np.where(v > 0, left, right)


def symbols_to_spins(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Spins of the lattice point nearest to x on each real axis (see
    nearest_index): the hard decision, which inverts x_r = T s on the
    lattice.  x is one symbol vector (nt,) or a stack (..., nt)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or x.size == 0:
        raise ValueError(f"symbol vector has shape {x.shape}, expected (nt,)")
    return level_spins(nearest_index(realify_symbols(x, c), c), c)


def regularize(model: IsingModel, s_p: np.ndarray, r: float) -> IsingModel:
    """Add the anchor penalty r * ||s - s_p||^2 in closed form to each
    model of a stack, anchored at its own row of s_p (B, n).

    Over spins, ||s - s_p||^2 = 2n - 2 s . s_p, so only the fields and the
    offset move: h -> h - 2 r s_p, offset -> offset + 2 r n.  Couplings
    are untouched (the same array) and, for spin rows s, the identity
    energy(new, s) == energy(old, s) + r * ||s - s_p||^2 holds exactly.
    """
    r = setting("r", r, 0.0)
    s_p = np.asarray(s_p, dtype=np.float64)
    if s_p.shape != model.h.shape:
        raise ValueError(
            f"anchor has shape {s_p.shape}, expected {model.h.shape}"
        )
    return replace(
        model,
        h=model.h - 2.0 * r * s_p,
        offset=model.offset + 2.0 * r * model.n,
    )
