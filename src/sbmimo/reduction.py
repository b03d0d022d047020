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
scaling H_r's column blocks (see spin_matrix).
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from sbmimo.channel import (
    ChannelInstance,
    Constellation,
    RealizedSystem,
    _axis_weights,
    realify,
    realify_symbols,
)
from sbmimo.ising import IsingModel


def spin_matrix(h_r: np.ndarray, c: Constellation) -> np.ndarray:
    """H_r T: each axis's column block of H_r once per weight, scaled by it."""
    h_r = np.asarray(h_r, dtype=np.float64)
    if h_r.ndim != 2 or h_r.shape[1] == 0 or h_r.shape[1] % c.axes:
        raise ValueError(
            f"real channel of shape {h_r.shape} does not have {c.axes} "
            f"column block(s) of nt >= 1 columns for {c.name}"
        )
    m, nt = h_r.shape[0], h_r.shape[1] // c.axes
    w = _axis_weights(c.bits_per_axis)
    blocks = h_r.reshape(m, c.axes, 1, nt) * w[None, None, :, None]
    return blocks.reshape(m, nt * c.bps)


def build_ising(sys: RealizedSystem, c: Constellation) -> IsingModel:
    """Ising model whose energy equals ||y_r - H_r T s||^2 for every s."""
    a = spin_matrix(sys.h_r, c)
    if sys.y_r.shape != (a.shape[0],):
        raise ValueError(
            f"y_r has shape {sys.y_r.shape} but h_r has {a.shape[0]} rows"
        )
    g = a.T @ a
    g = 0.5 * (g + g.T)
    j = g - np.diag(np.diagonal(g))
    h = -2.0 * (a.T @ sys.y_r)
    offset = float(np.trace(g) + sys.y_r @ sys.y_r)
    return IsingModel(j=j, h=h, offset=offset)


def instance_model(inst: ChannelInstance, c: Constellation) -> IsingModel:
    """Reduce one channel instance to its detection Ising model."""
    return build_ising(realify(inst.h, inst.y, c), c)


def level_spins(idx: np.ndarray, c: Constellation) -> np.ndarray:
    """Spins of rows of level indices, laid out (axis, weight, entry).

    idx is (..., axes * nt): per real coordinate in realify's column
    layout, the index of its level among c's ascending levels, so level
    i's spins are the binary digits of i, MSB first, with +1 for a one.
    Returns int8 spins of shape (..., nt * bps).
    """
    idx = np.asarray(idx, dtype=np.int8)
    lead, nt = idx.shape[:-1], idx.shape[-1] // c.axes
    bits = (idx.reshape(*lead, c.axes, 1, nt) >> _shifts(c)) & 1
    return (2 * bits - 1).reshape(*lead, nt * c.bps)


@functools.cache
def _shifts(c: Constellation) -> np.ndarray:
    # The bit shifts of one axis's weights, MSB first, as an int8 column.
    shifts = np.arange(c.bits_per_axis - 1, -1, -1, dtype=np.int8)[:, None]
    shifts.flags.writeable = False
    return shifts


@functools.cache
def _decisions(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    # c's levels in tie order (smaller amplitude first, then the positive
    # one), and each one's index among the ascending levels.
    order = sorted(c.levels, key=lambda v: (abs(v), -v))
    index = np.array([c.levels.index(v) for v in order], dtype=np.int8)
    return np.array(order, dtype=np.float64), index


def symbols_to_spins(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Spins of the lattice point nearest to x on each real axis.

    On a lattice point this inverts x_r = T s; elsewhere it is the hard
    decision.  Distance ties prefer the smaller amplitude, then the
    positive level, so 0 goes to +1 as sign(0) does elsewhere; a
    non-finite coordinate goes to +1 too.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"symbol vector has shape {x.shape}, expected (nt,)")
    order, index = _decisions(c)
    d = np.abs(realify_symbols(x, c)[:, None] - order)
    return level_spins(index[np.argmin(d, axis=1)], c)


def regularize(model: IsingModel, s_p: np.ndarray, r: float) -> IsingModel:
    """Add the anchor penalty r * ||s - s_p||^2 in closed form.

    Over spins, ||s - s_p||^2 = 2n - 2 s . s_p, so only the fields and the
    offset move: h -> h - 2 r s_p, offset -> offset + 2 r n.  Couplings
    are untouched and the identity
    energy(new, s) == energy(old, s) + r * ||s - s_p||^2 holds exactly.
    """
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"penalty weight r must be finite and >= 0, got {r}")
    s_p = np.asarray(s_p, dtype=np.float64)
    if s_p.shape != (model.n,):
        raise ValueError(
            f"anchor has shape {s_p.shape}, expected ({model.n},)"
        )
    return replace(
        model,
        h=model.h - 2.0 * r * s_p,
        offset=model.offset + 2.0 * r * model.n,
    )
