"""Detectors: linear MMSE, exact ML oracle, and the bifurcation
solver composed with the reduction (plain and MMSE-anchored regularized).

Every detector takes a ``Problem``: the instance reduced once by
``prepare`` and shared by every detector run on it.  Each reports the
Ising energy of its decision under the unregularized instance model,
which equals the squared ML residual; the regularized path selects
between the solver readout and the MMSE anchor by that energy, so its
result never scores worse than MMSE's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sbmimo.channel import (
    ChannelInstance,
    Constellation,
    realify,
)
from sbmimo.ising import IsingModel, energy
from sbmimo.reduction import (
    instance_model,
    regularize,
    spin_matrix,
    spins_to_bits,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, solve

ORACLE_SPIN_LIMIT = 24
# Rows one frontier expansion may build in ml_oracle.
_BLOCK_ROWS = 1 << 16
# Pruning slack, relative to the largest distance an instance can reach.
_MARGIN = 1e-9


class DetectionFailureError(RuntimeError):
    """Linear detection could not produce an estimate."""


@dataclass(frozen=True)
class Problem:
    """One channel instance with its Ising model and constellation.

    Built once per instance by ``prepare`` and shared by every detector.
    """

    inst: ChannelInstance
    model: IsingModel
    c: Constellation


def prepare(inst: ChannelInstance, c: Constellation) -> Problem:
    """Reduce one channel instance to the problem every detector takes."""
    return Problem(inst=inst, model=instance_model(inst, c), c=c)


@dataclass(frozen=True)
class DetectionResult:
    """A detector's decision as spins and bits, with its model energy."""

    detector: str
    bits: np.ndarray
    spins: np.ndarray
    ising_energy: float
    extras: dict


def _result(detector, spins, ising_energy, p: Problem, **extras):
    return DetectionResult(
        detector=detector,
        bits=spins_to_bits(spins, p.c),
        spins=spins,
        ising_energy=ising_energy,
        extras=extras,
    )


def mmse_detect(p: Problem) -> DetectionResult:
    """Regularized linear estimate, hard-quantized onto the lattice.

    Soft estimate (H^H H + (sigma^2 / Es) I)^-1 H^H y; the regularizer
    scaling reflects the unnormalized constellation energy Es.
    """
    inst, c = p.inst, p.c
    if not inst.noise_var > 0:
        raise ValueError(f"noise_var must be > 0, got {inst.noise_var}")
    hh = inst.h.conj().T
    gram = hh @ inst.h + (inst.noise_var / c.symbol_energy) * np.eye(inst.nt)
    try:
        soft = np.linalg.solve(gram, hh @ inst.y)
    except np.linalg.LinAlgError as err:
        raise DetectionFailureError(f"regularized Gram solve failed: {err}")
    spins = symbols_to_spins(soft, c)
    return _result("mmse", spins, energy(p.model, spins), p)


def _babai_point(sys, c, noise_var):
    """The MMSE-SIC lattice point: on the QR of [h_r; lam I] with
    lam^2 = noise_var / Es, the nearest level per real coordinate, last
    coordinate first, each given the ones already decided."""
    m, k = sys.h_r.shape
    lam = (max(0.0, noise_var) / c.symbol_energy) ** 0.5
    q, r = np.linalg.qr(np.vstack([sys.h_r, lam * np.eye(k)]))
    z = (q[:m].T @ sys.y_r).tolist()
    r = r.tolist()
    x = [0] * k
    for i in range(k - 1, -1, -1):
        rest = z[i] - sum(r[i][j] * x[j] for j in range(i + 1, k))
        centre = rest / r[i][i] if r[i][i] else 0.0
        x[i] = min(c.levels, key=lambda v: abs(v - centre))
    return np.array(x, dtype=np.float64)


def _leaf_blocks(r, z, lv, bound):
    """Level-index rows x whose distance ||z - r lv[x]||^2 is within
    bound, in blocks.

    Breadth-first down the triangle from the last coordinate: each step
    extends every surviving prefix by every level and keeps the
    extensions whose partial distance is still within bound.  A frontier
    wider than one block expands a block's worth of prefixes and keeps
    the rest for later, so one step builds at most _BLOCK_ROWS rows and
    at most one block per level waits.
    """
    k = len(z)
    cut = max(1, _BLOCK_ROWS // len(lv))
    stack = [(k, np.zeros((1, k), dtype=np.int8), np.zeros(1))]
    while stack:
        i, idx, d = stack.pop()
        if i == 0:
            yield idx
            continue
        if len(d) > cut:
            stack.append((i, idx[cut:], d[cut:]))
            idx, d = idx[:cut], d[:cut]
        i -= 1
        t = z[i] - lv[idx[:, i + 1:]] @ r[i, i + 1:]
        e = t[:, None] - r[i, i] * lv
        d = d[:, None] + e * e
        rows, cols = np.nonzero(d <= bound)
        if rows.size:
            idx = idx[rows]
            idx[:, i] = cols
            stack.append((i, idx, d[rows, cols]))


def ml_oracle(p: Problem) -> DetectionResult:
    """Global minimizer of the squared residual by exact pruned search.

    The search runs over the real coordinates of realify's system, with
    h_r = Q R: a prefix (last coordinate first) is dropped once its
    partial distance exceeds that of the MMSE-SIC lattice point by more
    than rounding can move it, so the optimum is never dropped.  With
    nr < nt, R has fewer rows than coordinates and the top levels simply
    go unpruned.  Each surviving leaf is scored by the squared residual
    over spin_matrix, and ties go to the lexicographically smallest spin
    vector (-1 before +1): the answer of a scan over all 2^n spin vectors
    in that order.  extras["candidates"] counts the leaves scored.
    Refuses above ORACLE_SPIN_LIMIT spins.
    """
    n = p.model.n
    if n > ORACLE_SPIN_LIMIT:
        raise ValueError(
            f"{n} spins exceed the oracle limit of {ORACLE_SPIN_LIMIT}"
        )
    c, nt = p.c, p.inst.nt
    sys = realify(p.inst.h, p.inst.y, c)
    k = sys.h_r.shape[1]
    lv = np.array(c.levels, dtype=np.float64)
    q, r = np.linalg.qr(sys.h_r)
    z = q.T @ sys.y_r
    # With fewer rows than coordinates, the missing rows of R are zero.
    r = np.vstack([r, np.zeros((k - len(r), k))])
    z = np.concatenate([z, np.zeros(k - len(z))])
    xb = _babai_point(sys, c, p.inst.noise_var)
    radius = float(np.sum((z - r @ xb) ** 2))
    # No distance exceeds 2 * scale, and rounding in the QR and the sums
    # moves one by a small multiple of (rows * k * eps) * scale.
    scale = sys.y_r @ sys.y_r + np.sum(sys.h_r**2) * k * lv.max() ** 2
    bound = radius + _MARGIN * float(scale)

    a = spin_matrix(sys.h_r, c)
    shifts = np.arange(c.bits_per_axis - 1, -1, -1)[:, None]
    weights = 1 << np.arange(n - 1, -1, -1)
    best = (np.inf, 0)  # (residual, spin bits as an integer, MSB first)
    candidates = 0
    for idx in _leaf_blocks(r, z, lv, bound):
        # Level index j's binary digits are that coordinate's spin bits
        # (+1 -> 1), MSB first; spins are laid out (axis, weight, entry).
        bits = (idx.reshape(len(idx), -1, 1, nt) >> shifts) & 1
        bits = bits.reshape(len(idx), n)
        resid = sys.y_r[None, :] - (2.0 * bits - 1.0) @ a.T
        values = np.einsum("ij,ij->i", resid, resid)
        v = values.min()
        best = min(best, (float(v), int((bits[values == v] @ weights).min())))
        candidates += len(idx)
    bits = (best[1] >> np.arange(n - 1, -1, -1)) & 1
    spins = (2 * bits - 1).astype(np.int8)
    e = energy(p.model, spins)
    return _result("ml-oracle", spins, e, p, candidates=candidates)


def sb_detect(
    p: Problem,
    params: SBParams,
    anchor: DetectionResult | None = None,
    r: float = 0.5,
    seed: int = 0,
    trace_hook=None,
) -> DetectionResult:
    """Detect by solving the instance Ising model with the SB solver.

    With no anchor the plain model is solved and its readout returned.
    Otherwise ``anchor`` is the instance's MMSE result: the model is
    anchored at its spins with penalty weight r, solved, and the readout
    and the anchor are compared under the unregularized model; the lower
    energy wins (ties keep the solver readout).  seed draws the solver's
    initial states.
    """
    model = p.model if anchor is None else regularize(p.model, anchor.spins, r)
    res = solve(model, params, seed, trace_hook)
    if anchor is None:
        return _result(
            "sb", res.spins, res.energy, p,
            diverged_restarts=res.diverged_restarts,
        )
    sb_energy = energy(p.model, res.spins)
    sb_wins = sb_energy <= anchor.ising_energy
    return _result(
        "sb-reg",
        res.spins if sb_wins else anchor.spins,
        sb_energy if sb_wins else anchor.ising_energy,
        p,
        diverged_restarts=res.diverged_restarts,
        selected="sb" if sb_wins else "mmse",
    )
