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
    _decisions,
    instance_model,
    level_spins,
    regularize,
    spin_matrix,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, SolverDivergenceError, SolveResult, solve

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
    """A detector's decision as spins, with its model energy."""

    detector: str
    spins: np.ndarray
    ising_energy: float
    extras: dict


def mmse_detect(p: Problem) -> DetectionResult:
    """Regularized linear estimate, hard-quantized onto the lattice.

    Soft estimate (H^H H + d I)^-1 H^H y with d = sigma^2 / Es; the
    regularizer scaling reflects the unnormalized constellation energy
    Es.  Where that solve fails (d below the rounding of a rank-deficient
    H^H H, as at nr < nt and very high SNR), lstsq of [H; sqrt(d) I] gives it.
    """
    inst, c = p.inst, p.c
    if not inst.noise_var > 0:
        raise ValueError(f"noise_var must be > 0, got {inst.noise_var}")
    nt = inst.h.shape[1]
    hh = inst.h.conj().T
    delta = inst.noise_var / c.symbol_energy
    gram = hh @ inst.h + delta * np.eye(nt)
    try:
        soft = np.linalg.solve(gram, hh @ inst.y)
    except np.linalg.LinAlgError:
        a = np.vstack([inst.h, np.sqrt(delta) * np.eye(nt)])
        try:
            soft = np.linalg.lstsq(a, np.r_[inst.y, np.zeros(nt)])[0]
        except np.linalg.LinAlgError as err:
            raise DetectionFailureError(f"regularized solve failed: {err}")
    spins = symbols_to_spins(soft, c)
    return DetectionResult("mmse", spins, energy(p.model, spins), {})


def _babai_point(sys, c, noise_var):
    """The MMSE-SIC lattice point: on the QR of [h_r; lam I] with
    lam^2 = noise_var / Es, the nearest level per real coordinate (ties as
    in symbols_to_spins), last coordinate first, each given the ones
    already decided."""
    m, k = sys.h_r.shape
    levels = _decisions(c)[0].tolist()
    lam = (max(0.0, noise_var) / c.symbol_energy) ** 0.5
    q, r = np.linalg.qr(np.vstack([sys.h_r, lam * np.eye(k)]))
    z = (q[:m].T @ sys.y_r).tolist()
    r = r.tolist()
    x = [0] * k
    for i in range(k - 1, -1, -1):
        rest = z[i] - sum(r[i][j] * x[j] for j in range(i + 1, k))
        centre = rest / r[i][i] if r[i][i] else 0.0
        x[i] = min(levels, key=lambda v: abs(v - centre))
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
    over spin_matrix of its spins (see level_spins), and ties go to the
    lexicographically smallest spin vector (-1 before +1): the answer of
    a scan over all 2^n spin vectors in that order.  extras["candidates"]
    counts the leaves scored.  Refuses above ORACLE_SPIN_LIMIT spins.
    """
    n = p.model.n
    if n > ORACLE_SPIN_LIMIT:
        raise ValueError(
            f"{n} spins exceed the oracle limit of {ORACLE_SPIN_LIMIT}"
        )
    c = p.c
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
    best = (np.inf, (-1,) * n)  # (residual, spins as a tuple)
    candidates = 0
    for idx in _leaf_blocks(r, z, lv, bound):
        spins = level_spins(idx, c)
        resid = sys.y_r[None, :] - spins @ a.T
        values = np.einsum("ij,ij->i", resid, resid)
        v = values.min()
        tied = map(tuple, spins[values == v].tolist())
        best = min(best, (float(v), min(tied)))
        candidates += len(idx)
    spins = np.array(best[1], dtype=np.int8)
    e = energy(p.model, spins)
    return DetectionResult("ml-oracle", spins, e, {"candidates": candidates})


def sb_solve(
    problems,
    params: SBParams,
    seeds,
    anchors=None,
    r: float = 0.5,
    trace: list | None = None,
) -> list:
    """Solve a block of same-size problems' Ising models in one solve call.

    With no anchors each plain model is solved.  Otherwise ``anchors``
    holds each problem's MMSE result, and each model is anchored at its
    spins with penalty weight r; a problem whose anchor is None is not
    solved.  seeds holds one solver seed per problem, which draws its
    initial states; trace, when given, holds one list per problem for
    solve's trace rows.  Returns one outcome per problem: None for an
    unsolved one, else solve's SolveResult, or the SolverDivergenceError
    of a problem whose every restart diverged.  ``sb_detect`` turns one
    into a decision.
    """
    plain = anchors is None
    todo = [k for k in range(len(problems)) if plain or anchors[k] is not None]
    models = [
        problems[k].model if plain
        else regularize(problems[k].model, anchors[k].spins, r)
        for k in todo
    ]
    solved = solve(models, params, [seeds[k] for k in todo],
                   trace and [trace[k] for k in todo])
    out = [None] * len(problems)
    for k, res in zip(todo, solved):
        out[k] = res
    return out


def sb_detect(
    p: Problem,
    solved: SolveResult | SolverDivergenceError,
    anchor: DetectionResult | None = None,
) -> DetectionResult:
    """The SB decision on one problem from its ``sb_solve`` outcome.

    Raises the outcome if it is a SolverDivergenceError.  With no anchor
    the readout of the plain model is the decision.  Otherwise
    ``anchor`` is the MMSE result the model was anchored at, and the
    readout and the anchor are compared under the unregularized model;
    the lower energy wins (ties keep the solver readout).
    """
    if isinstance(solved, SolverDivergenceError):
        raise solved
    extras = {"diverged_restarts": solved.diverged_restarts}
    if anchor is None:
        return DetectionResult("sb", solved.spins, solved.energy, extras)
    sb_energy = energy(p.model, solved.spins)
    sb_wins = sb_energy <= anchor.ising_energy
    extras["selected"] = "sb" if sb_wins else "mmse"
    return DetectionResult(
        "sb-reg",
        solved.spins if sb_wins else anchor.spins,
        sb_energy if sb_wins else anchor.ising_energy,
        extras,
    )
