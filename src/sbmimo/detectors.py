"""Detectors: linear MMSE, exact ML oracle, and the bifurcation
solver composed with the reduction (plain and MMSE-anchored regularized).

Every detector reads a ``Problem``, a block of instances reduced, their
MMSE decisions taken and scored, once by ``prepare``, and decides the
whole block as one ``DetectionResult`` of arrays; ``mmse_detect``,
``ml_oracle`` and ``sb_detect`` look one decision up by its index.  Each
reports the Ising energy of its decision under the unregularized
instance model, which equals the squared ML residual; the regularized
path selects between the solver readout and the MMSE anchor by that
energy, so its result never scores worse than MMSE's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from sbmimo.channel import Constellation, realify
from sbmimo.ising import IsingModel, energy
from sbmimo.reduction import (
    instance_model,
    level_spins,
    nearest_index,
    regularize,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, solve

ORACLE_SPIN_LIMIT = 24
# Rows one frontier expansion may build in ml_oracle, and the most one
# round that expands several coordinates at once may build (no more).
# A block's lockstep rounds reach the first far more often than one
# instance's: at 2^16 they ran out of cache, 20-25 % slower than 2^14 at
# 4x2 and 12x4 at -10 dB, and held three times the memory.
_BLOCK_ROWS = 1 << 14
_ROUND_ROWS = 256
# Pruning slack, relative to the largest distance an instance can reach.
_MARGIN = 1e-9


@dataclass(frozen=True)
class DetectionResult:
    """A detector's decisions on a block of B instances: spins (B, n)
    int8, their energies (B,) under the unregularized models, NaN where
    no decision was made, each extra a (B,) array, and done (B,), the
    mask of the instances decided.  result[b] is decision b alone, or
    None where done[b] is False: the same class with spins (n,), a float
    energy, Python scalar extras and done True."""

    detector: str
    spins: np.ndarray
    ising_energy: np.ndarray | float
    extras: dict
    done: np.ndarray | bool = True

    def __getitem__(self, b: int) -> DetectionResult | None:
        if not self.done[b]:
            return None
        return DetectionResult(
            self.detector, self.spins[b], float(self.ising_energy[b]),
            {key: value[b].item() for key, value in self.extras.items()},
        )


@dataclass(frozen=True)
class Problem:
    """A solver block of same-size channel instances, built once by
    ``prepare`` for every detector: their noise variances (B,), stacked
    realify systems h_r (B, m, k) and y_r (B, m) and Ising model, the
    constellation, and the block's MMSE decisions, also ``sb-reg``'s
    anchors, as one DetectionResult (done where the solves succeeded).
    The ML oracle's front end and its decisions are built for the whole
    block on first use (oracle_front, oracle)."""

    noise_var: np.ndarray
    h_r: np.ndarray
    y_r: np.ndarray
    model: IsingModel
    c: Constellation
    mmse: DetectionResult

    @functools.cached_property
    def oracle_front(self) -> tuple[np.ndarray, np.ndarray]:
        """The ML oracle's front end, built for the block on first use:
        [R z] (B, k, k + 1) of each h_r = Q R with z = Q^T y_r (upper
        trapezoidal; with fewer rows than coordinates, the rows past h_r's
        are zero), and each MMSE-SIC lattice point (B, k), the search's
        start (of those tried, it searched least: linear MMSE 1.4x, ZF-SIC
        4.5x).  Two stacked QRs, in turn on one buffer, factor each
        [h_r; 0 | y_r; 0] and then [h_r; lam I | y_r; 0], lam^2 = noise_var
        / Es: half the peak memory of one QR of both systems side by side.
        The start is the Babai point of the latter: per coordinate, last
        first, the nearest level (see nearest_index) to its centre given
        the ones decided, each row summed left to right; a zero pivot's
        centre is 0.
        """
        h_r, y_r, c = self.h_r, self.y_r, self.c
        n_b, m, k = h_r.shape
        a = np.zeros((n_b, m + k, k + 1))
        a[:, :m, :k] = h_r
        a[:, :m, k] = y_r
        rz = np.linalg.qr(a, mode="r")[:, :k]
        lam = np.array([(max(0.0, v) / c.symbol_energy) ** 0.5
                        for v in self.noise_var.tolist()])
        np.einsum("bii->bi", a[:, m:, :k])[...] = lam[:, None]
        reg = np.linalg.qr(a, mode="r")[:, :k]
        x = np.zeros((n_b, k))
        for i in range(k - 1, -1, -1):
            row = reg[:, i]
            done = np.add.accumulate(row[:, i + 1:k] * x[:, i + 1:], axis=1)
            centre = row[:, k] - done[:, -1] if i < k - 1 else row[:, k]
            centre = np.divide(centre, row[:, i], out=np.zeros(n_b),
                               where=row[:, i] != 0)
            x[:, i] = np.take(c.levels, nearest_index(centre, c))
        return rz, x

    @functools.cached_property
    def oracle(self) -> DetectionResult:
        """Every instance's ML decision (see ml_oracle), by one pruned
        search over the block on first use, every one done: spins (B, n)
        int8, energy (B,), and per instance the leaves scored and the
        prefix distances computed, extras "candidates" and "nodes" (B,).
        Above ORACLE_SPIN_LIMIT spins it refuses, on every use.

        The block's instances go down their triangles in lockstep: an
        entry of the frontier holds prefixes at one depth, in instance
        order, each with its instance's index g.  Each round extends every
        prefix of an entry by every level combination of the next w
        coordinates and keeps the extensions whose distance at the end of
        them is still within their instance's bound (partial distances
        never decrease, so this drops no leaf within it).  Each prefix is
        multiplied by its own instance's rows of [R z] alone, so a round's
        memory is linear in its rows; one product with every instance's
        rows side by side would hold rows x instances.  w is the largest
        with rows * levels^w at most _ROUND_ROWS, the rows counted over
        the entry, at least 1 and at most the coordinates left.  An
        entry wider than one block expands a block's worth of prefixes
        and keeps the rest for later, so one round builds at most
        _BLOCK_ROWS rows and at most one entry per depth waits.  A leaf
        entry lowers each of its instances' bounds to that instance's best
        distance plus slack.  Every entry is filtered against its
        instances' bounds when taken up, so one that waited drops the
        prefixes the lowered bounds exclude.  The leaf entry's leaves
        within the lowered bounds are scored under their own models, and
        one lexsort keeps each instance's incumbent.  The order in which
        prefixes are visited changes the work, never what lies within the
        final bound, so each decision is bit for bit what a block of one
        gives.  Each instance's incumbent starts as level 0 at every
        coordinate (all -1 spins), scored by one energy call on the block:
        the first spin vector in lexicographic order, it stays only where
        the exhaustive scan picks it, and an instance with no leaf within
        its bound (a non-finite input) keeps it, with a NaN energy and 0
        candidates.
        """
        if self.model.n > ORACLE_SPIN_LIMIT:
            raise ValueError(f"{self.model.n} spins exceed the oracle limit "
                             f"of {ORACLE_SPIN_LIMIT}")
        c, model, (rz, start) = self.c, self.model, self.oracle_front
        n_b, k = start.shape
        r = rz[:, :, :k]
        flat = self.h_r.reshape(n_b, -1)
        resid = rz[:, :, k] - np.matvec(r, start)
        # No distance exceeds 2 * scale, and rounding in the QR and the sums
        # moves one by a small multiple of (rows * k * eps) * scale.
        scale = (np.vecdot(self.y_r, self.y_r)
                 + np.vecdot(flat, flat) * k * max(c.levels) ** 2)
        slack = _MARGIN * scale
        bound = np.vecdot(resid, resid) + slack
        n_lv = len(c.levels)
        cut = max(1, _BLOCK_ROWS // n_lv)
        spins = level_spins(np.zeros((n_b, k), dtype=np.int8), c)
        best = energy(model, spins[:, None])[:, 0]
        candidates = np.zeros(n_b, dtype=np.int64)
        nodes = np.zeros(n_b, dtype=np.int64)
        # g takes the smallest dtype: waiting entries hold one per row.
        g = np.arange(n_b, dtype=np.min_scalar_type(n_b))
        # A prefix row holds its levels, then -1: its product with [R z]
        # is R x - z.
        x = np.zeros((n_b, k + 1), dtype=np.int8)
        x[:, k] = -1
        stack = [(k, g, x, np.zeros(n_b))]
        while stack:
            i, g, x, d = stack.pop()
            keep = d <= bound.take(g)
            if not keep.all():
                g, x, d = g[keep], x[keep], d[keep]
                if not len(d):
                    continue
            if i == 0:
                u, first, _ = _runs(g)
                bound[u] = np.minimum(
                    bound[u], np.minimum.reduceat(d, first) + slack[u]
                )
                keep = d <= bound.take(g)
                g, s = g[keep], level_spins(nearest_index(x[keep, :k], c), c)
                e = _leaf_energies(model, g, s)
                candidates += np.bincount(g, minlength=n_b)
                g, s, e = (np.concatenate(pair) for pair in
                           ((g, u), (s, spins[u]), (e, best[u])))
                order = np.lexsort((*s.T[::-1], e, g))
                win = order[_runs(g[order])[1]]
                spins[g[win]], best[g[win]] = s[win], e[win]
                continue
            if len(d) > cut:
                stack.append((i, g[cut:], x[cut:], d[cut:]))
                g, x, d = g[:cut], x[:cut], d[:cut]
            w = 1
            while w < i and len(d) * n_lv ** (w + 1) <= _ROUND_ROWS:
                w += 1
            j = i - w
            combos, values = _combos(c.levels, w)
            # Per-instance values reach each row by np.repeat over its run
            # (a fancy-index gather of them costs several times more), and
            # each prefix meets its own instance's rows j:i of [R z] alone.
            u, _, runs = _runs(g)
            own = np.repeat(rz[u, j:i, i:], runs, axis=0)
            e = np.repeat(r[u, j:i, j:i] @ values, runs, axis=0)
            e += np.matvec(own, x[:, i:].astype(np.float64))[:, :, None]
            e *= e
            dd = e.sum(1)
            dd += d[:, None]
            nodes[u] += runs * len(combos)
            rows, cols = np.nonzero(dd <= np.repeat(bound[u], runs)[:, None])
            if rows.size:
                x = x[rows]
                x[:, j:i] = combos[cols]
                stack.append((j, g[rows], x, dd[rows, cols]))
        extras = {"candidates": candidates, "nodes": nodes}
        return DetectionResult("ml-oracle", spins, best, extras,
                               np.ones(n_b, dtype=bool))


def _leaf_energies(model, g, s):
    # Energies of spin rows s, each under model[g] for its instance index
    # g (sorted), by one ising.energy call that copies no J per row:
    # each instance's rows are cut into pieces of at most ceil(rows /
    # instances), zero-padded to that length, so the call scores at most
    # about twice the rows under at most twice the instances' models.
    u, first, runs = _runs(g)
    size = -(-len(g) // len(u))
    pieces = -(-runs // size)
    pos = np.arange(len(g)) - np.repeat(first, runs)
    piece = np.repeat(np.cumsum(pieces) - pieces, runs) + pos // size
    cell = piece, pos % size
    rows = np.zeros((pieces.sum(), size, s.shape[1]), dtype=s.dtype)
    rows[cell] = s
    return energy(model[np.repeat(u, pieces)], rows)[cell]


def _runs(g):
    # The distinct values of a sorted array, where each one's run starts,
    # and its length.
    first = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    return g[first], first, np.diff(np.concatenate((first, [len(g)])))


def _mmse_spins(h, y, noise_var, c):
    """The MMSE decisions' spins of a stack, (B, n), and a mask of the
    instances that have one: h (B, nr, nt), y (B, nr) and noise_var (B,).

    Soft estimate (H^H H + d I)^-1 H^H y with d = sigma^2 / Es; the
    regularizer scaling reflects the unnormalized constellation energy
    Es.  One solve covers the stack; it raises if one matrix is singular,
    and then each instance is solved alone.  Where that solve fails (d
    below the rounding of a rank-deficient H^H H, as at nr < nt and very
    high SNR), lstsq of [H; sqrt(d) I] gives it, and where that fails too,
    or d is not a finite positive number, the mask is False.
    """
    nt = h.shape[-1]
    delta = noise_var / c.symbol_energy
    ok = np.isfinite(delta) & (delta > 0)
    d = np.where(ok, delta, 1.0)  # stands in where no decision is taken
    hh = h.conj().mT
    rhs = (hh @ y[..., None])[..., 0]
    gram = hh @ h
    gram += d[:, None, None] * np.eye(nt)
    try:
        soft = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        soft = np.zeros_like(rhs)
        for b in range(len(soft)):
            try:
                soft[b] = np.linalg.solve(gram[b], rhs[b])
            except np.linalg.LinAlgError:
                a = np.vstack([h[b], np.sqrt(d[b]) * np.eye(nt)])
                try:
                    soft[b] = np.linalg.lstsq(a, np.r_[y[b], np.zeros(nt)])[0]
                except np.linalg.LinAlgError:
                    ok[b] = False
    return symbols_to_spins(soft, c), ok


def prepare(insts, c: Constellation) -> Problem:
    """Realify a block of same-size channel instances, reduce them, and
    take and score their MMSE decisions, each in one stacked pass: the
    block every detector takes.  Each instance's row is bit for bit what
    it would be in a block of one.  A non-finite entry of y is taken as
    NaN, so an infinite one decides as a NaN does, with no warning."""
    insts = list(insts)
    h = np.array([inst.h for inst in insts], dtype=np.complex128)
    y = np.array([inst.y for inst in insts], dtype=np.complex128)
    y[~np.isfinite(y)] = np.nan
    noise_var = np.array([inst.noise_var for inst in insts], dtype=np.float64)
    h_r, y_r = realify(h, y, c)
    model = instance_model(h_r, y_r, c)
    spins, ok = _mmse_spins(h, y, noise_var, c)
    e = energy(model, spins[:, None])[:, 0]
    mmse = DetectionResult("mmse", spins, np.where(ok, e, np.nan), {}, ok)
    return Problem(noise_var, h_r, y_r, model, c, mmse)


def mmse_detect(p: Problem, b: int) -> DetectionResult | None:
    """Regularized linear estimate, hard-quantized onto the lattice: the
    decision ``prepare`` took and scored for instance b (see _mmse_spins),
    p.mmse[b], or None where it took none: a noise variance that is not
    a finite positive number, or the regularized solve and its lstsq
    fallback both failed."""
    return p.mmse[b]


@functools.cache
def _combos(levels, w):
    # Every combination of levels at w coordinates, one int8 row each in
    # level-index order, and the same as float64 columns.
    idx = np.indices((len(levels),) * w).reshape(w, -1)
    grid = np.array(levels, dtype=np.int8)[idx.T]
    values = grid.T.astype(np.float64)
    grid.flags.writeable = values.flags.writeable = False
    return grid, values


def ml_oracle(p: Problem, b: int) -> DetectionResult:
    """Global minimizer of the squared residual by exact pruned search:
    instance b's decision from p.oracle, which the first call takes for
    the whole block.

    The search runs over the real coordinates of realify's system, with
    h_r = Q R from p.oracle_front, breadth-first down the triangle from
    the last coordinate, several coordinates per numpy round while few
    prefixes survive.  A prefix is dropped once its partial distance
    exceeds the bound: first that of the MMSE-SIC start, then the best
    leaf found so far, each plus the most rounding can move a distance,
    so the optimum is never dropped.  With nr < nt, R has fewer rows
    than coordinates and the top levels simply go unpruned.  The leaves
    within the bound are scored under p.model[[b]] by their spins' energy
    (see level_spins) against an incumbent that starts at the all -1
    point; the lowest energy wins, and ties go to the lexicographically
    smallest spin vector (-1 before +1): the answer of a scan over all
    2^n spin vectors in that order, whatever the block.
    extras["candidates"] counts the leaves scored and extras["nodes"] the
    prefix distances computed; both can move with instance b's
    block-mates, since a round's width is set by all the rows it
    extends.  Refuses above ORACLE_SPIN_LIMIT spins, on every call.
    """
    return p.oracle[b]


def sb_solve(
    p: Problem,
    params: SBParams,
    seeds,
    r: float | None = None,
    trace: list | None = None,
) -> DetectionResult:
    """Decide a block by one solve call on its stacked model: plain with r
    None ("sb": the readout), else anchored by one regularize call at the
    MMSE decisions, p.mmse, with weight r ("sb-reg": the lower-energy,
    under the unregularized model, of readout and anchor, ties to the
    readout).  The anchored pick is one energy call on the block's
    readouts, each diverged one replaced by its anchor, and one np.where.
    A problem with no MMSE decision is left out (with none, solve is not
    called).  seeds holds a solver seed per problem and trace, when
    given, a list per problem for solve's trace rows; a list of another
    length is refused.  Returns the block's decisions, done where solved
    and not every restart diverged, with extras "diverged_restarts" and,
    anchored, "selected" ("sb" or "mmse")."""
    n_b = len(p.noise_var)
    if len(seeds) != n_b or trace is not None and len(trace) != n_b:
        raise ValueError("a block needs a stack of same-size models and one "
                         "seed each")
    anchors = p.mmse.spins
    done = np.ones(n_b, dtype=bool) if r is None else p.mmse.done.copy()
    keep = np.flatnonzero(done).tolist()
    # An unsolved problem stands in as its anchor, with no restart run.
    spins, e, diverged = anchors.copy(), np.zeros(n_b), np.zeros(n_b, int)
    if keep:
        # Only a block with gaps takes a subset (a copy) of its models.
        plain = p.model if len(keep) == n_b else p.model[keep]
        model = plain if r is None else regularize(plain, anchors[keep], r)
        traces = None if trace is None else [trace[b] for b in keep]
        out = solve(model, params, [seeds[b] for b in keep], traces)
        spins[keep], e[keep], diverged[keep] = out
    done &= diverged < params.n_restarts
    extras = {"diverged_restarts": diverged}
    if r is not None:  # each diverged readout scores its anchor
        spins = np.where(done[:, None], spins, anchors)
        e = energy(p.model, spins[:, None])[:, 0]
        sb = e <= p.mmse.ising_energy  # ties keep the readout
        spins = np.where(sb[:, None], spins, anchors)
        e = np.where(sb, e, p.mmse.ising_energy)
        extras["selected"] = np.where(sb, "sb", "mmse")
    name = "sb" if r is None else "sb-reg"
    return DetectionResult(name, spins, np.where(done, e, np.nan), extras, done)


def sb_detect(solved: DetectionResult, b: int) -> DetectionResult | None:
    """The SB decision ``sb_solve`` made on problem b of its block,
    solved[b], or None where it made none."""
    return solved[b]
