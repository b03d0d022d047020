"""Digital simulated bifurcation solver.

Evolves positions ``x`` and momenta ``y`` of a classical oscillator
network whose pitchfork bifurcation steers ``sign(x)`` toward low Ising
energy.  One step is a symplectic-Euler update at unit pump amplitude

    y += dt * ( -(1 - a) * x - c0 * (J @ sign(x) + h / 2) )
    x += dt * y

followed by the wall rule: any |x_i| > 1 is clamped to sign(x_i) and its
momentum zeroed.  The pump ``a`` ramps linearly from 0 to 1 over the
evolution.  The coupling strength is always derived from the model:
c0 = 1 / (2 sqrt(N) lambda) with lambda the rms off-diagonal coupling,
computed on J scaled by a power of two: it is exact under power-of-two
rescaling of the model, and sum(J**2) can neither overflow nor underflow.

solve() takes a block of same-size models, one seed each, and evolves
every restart of every model as a row of one (2, B, R, N) state of
positions and momenta, updated in place by np.matvec(J, sign(x)) with J
stacked (B, 1, N, N), one matrix-vector product per row, and in-place
ufuncs.  Rows never mix, so each is bit for bit what it would be alone.
One dot product of x with itself screens for divergence; only a
non-finite one runs the per-row check that drops diverged restarts.  A
single model is the block of one.

sign(0) is +1 everywhere (force term and readout), a fixed tie-break.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from sbmimo.ising import IsingModel, energy


class SolverDivergenceError(RuntimeError):
    """State became non-finite during evolution."""


def is_int(value) -> bool:
    """True for an integer (numpy integers too), False for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SBParams:
    """Solver configuration.

    Restarts re-run the evolution from fresh random initial states; the
    lowest-energy readout wins.  The seed of those states is not a
    setting: solve() takes it per call.
    """

    n_steps: int = 100
    dt: float = 0.5
    n_restarts: int = 1

    def __post_init__(self):
        for key in ("n_steps", "n_restarts"):
            value = getattr(self, key)
            if not (is_int(value) and value >= 1):
                raise ValueError(
                    f"{key} must be an integer >= 1, got {value!r}"
                )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class SolveResult:
    spins: np.ndarray
    energy: float
    diverged_restarts: int = 0


def compute_c0(j: np.ndarray, k: int | None = None) -> float:
    """Coupling strength 1 / (2 sqrt(N) lambda), with lambda the rms
    off-diagonal coupling sqrt(sum_{i!=k} J_ik^2 / (N (N-1))).

    J is scaled by 2^-k, where 2^(k-1) <= max |J| < 2^k, before squaring,
    and c0 by the same power of two after.  Both scalings are exact, so
    c0 equals the unscaled formula wherever that formula is finite and
    nonzero.  A caller that has taken max |J| already passes k.  Needs
    n >= 2 and a nonzero (N, N) J; solve() handles the rest.
    """
    n = len(j)
    if k is None:
        k = math.frexp(float(np.max(np.abs(j))))[1]
    lam = math.sqrt(float(np.sum(np.ldexp(j, -k) ** 2)) / (n * (n - 1)))
    return math.ldexp(1.0 / (2.0 * math.sqrt(n) * lam), -k)


def _field_only_spins(model: IsingModel) -> np.ndarray:
    # Exact minimizer of h . s for zero coupling; h_i == 0 breaks to +1.
    return np.where(model.h > 0.0, -1, 1).astype(np.int8)


def pump_schedule(n_steps: int) -> np.ndarray:
    """Linear pump ramp a_k = k / (n_steps - 1); a single step runs at 1."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps == 1:
        return np.ones(1)
    return np.arange(n_steps) / (n_steps - 1)


def initial_states(n: int, seed: int, n_restarts: int) -> np.ndarray:
    """(2, n_restarts, n) positions then momenta, i.i.d. uniform [-0.1, 0.1].

    Row r draws x then y from its own stream default_rng([seed, r]), so a
    restart starts from the same state however many restarts run.
    """
    xy = np.empty((2, n_restarts, n))
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        xy[0, r] = rng.uniform(-0.1, 0.1, n)
        xy[1, r] = rng.uniform(-0.1, 0.1, n)
    return xy


# ufuncs take a 0-d array faster than a Python float, with the same bits.
_ONE = np.array(1.0)
_ONE.flags.writeable = False


def step(xy, wall, over, a, j, half_h, c0, dt):
    """One symplectic-Euler update of the rows of x = xy[0] and y = xy[1],
    then the wall rule, all in place.

    Rows run along the last axis: (R, N) for one model, (B, R, N) for a
    block, with j (B, 1, N, N) and c0 (B, 1, 1) stacked per model.
    ``wall`` is xy's shape: sign(x) in plane 0, before and after the
    step, and zeros in plane 1.  ``over`` is a bool buffer of x's shape
    and ``half_h`` is h / 2 tiled to it.  c0 and dt run fastest as
    arrays, as solve() passes them.  Returns None when every row stayed
    finite, else the mask of rows that did; rows outside it hold
    garbage.  The mask is taken before the wall rule: clamping |x| > 1 to
    +-1 would otherwise hide an overflow.
    """
    x, y, s = xy[0], xy[1], wall[0]
    # matvec runs one matrix-vector multiply per row, so each row matches
    # J @ s bit for bit; a plain (R, N) @ (N, N) gemm sums in another order.
    force = np.matvec(j, s)
    np.add(force, half_h, out=force)
    np.multiply(force, c0, out=force)
    np.subtract(np.multiply(x, -(1.0 - a), out=s), force, out=force)
    y += np.multiply(force, dt, out=force)
    x += np.multiply(y, dt, out=force)
    # x . x is finite only if every entry is (a sum of squares cannot
    # cancel an inf), so only a non-finite one pays for the per-row mask.
    # From a finite x, a non-finite y always makes x non-finite too.
    finite = None
    if not math.isfinite(np.vdot(x, x)):
        finite = np.isfinite(x).all(axis=-1)
    # x is never -0.0 (initial_states draws none; x + dt * y is -0.0 only
    # when both terms are), so copysign gives sign(x) with sign(0) = +1.
    # Wall rule: |x| > 1 takes sign(x) from plane 0 and y = 0 from plane 1.
    np.copysign(_ONE, x, out=s)
    np.greater(np.abs(x, out=force), _ONE, out=over)
    np.copyto(xy, wall, where=over)
    return finite


def _stack(models, seeds, n_restarts):
    """The block's (2, B, R, N) initial state, J as (B, 1, N, N), h / 2 as
    (B, R, N) and c0 as (B, 1, 1).

    c0 ~ 1 / max |J| leaves the float range only below max |J| ~ 2^-1000.
    Such a model's J and h are scaled up to that by a power of two, which
    changes no force among normal floats; every other model runs as given.
    """
    b, n = len(models), models[0].n
    xy = np.empty((2, b, n_restarts, n))
    j = np.empty((b, 1, n, n))
    half_h = np.empty((b, n_restarts, n))
    c0 = np.empty((b, 1, 1))
    for k, (model, seed) in enumerate(zip(models, seeds)):
        mag = math.frexp(float(np.max(np.abs(model.j))))[1]
        shift = min(mag + 1000, 0)
        np.ldexp(model.j, -shift, out=j[k, 0])
        half_h[k] = np.ldexp(0.5 * model.h, -shift)
        c0[k] = compute_c0(j[k, 0], mag - shift)
        xy[:, k] = initial_states(n, seed, n_restarts)
    return xy, j, half_h, c0


def solve(models, params: SBParams, seeds, trace=None) -> list:
    """Run the evolution of a block of same-size models together and
    return one outcome per model, in order.

    Every restart of every model is one row of a single (2, B, R, N)
    state, started from its own initial state drawn from its model's seed
    (see initial_states), for n_steps; each reads out sign(x).  Per
    model, the readout with the lowest Ising energy wins; ties keep the
    earlier restart, and a NaN energy (inf - inf near the float limit)
    ranks last.  A restart that diverges is dropped: its row evolves on,
    unread.  A model whose every restart diverged gets a
    SolverDivergenceError as its outcome, returned rather than raised, so
    its block-mates are unaffected; every other outcome is a SolveResult.
    One model is the block of one.

    A model with all-zero couplings (including n = 1) is solved exactly
    by fields alone.

    trace, when given, holds one list per model, which is extended by
    ``(restart, step, a, x, y, readout_energy)`` for every step of every
    restart, restart-major; a diverged restart's rows stop at its last
    finite step, and a model solved by fields alone adds none.
    """
    models, seeds = list(models), list(seeds)
    if len(seeds) != len(models) or len({m.n for m in models}) > 1:
        raise ValueError("a block needs same-size models and one seed each")
    out = [None] * len(models)
    block = []  # indices of the models the kernel evolves
    for b, model in enumerate(models):
        if model.n < 2 or not model.j.any():
            spins = _field_only_spins(model)
            out[b] = SolveResult(spins=spins, energy=energy(model, spins))
        else:
            block.append(b)
    if not block:
        return out
    models = [models[b] for b in block]
    n_restarts = params.n_restarts
    xy, j, half_h, c0 = _stack(models, [seeds[b] for b in block], n_restarts)
    wall = np.zeros_like(xy)
    np.copysign(1.0, xy[0], out=wall[0])
    over = np.empty(xy.shape[1:], dtype=bool)
    dt = np.array(params.dt)
    live = np.ones(xy.shape[1:3], dtype=bool)  # per (model, restart)
    traced = None  # per model, per restart: its trace rows
    if trace is not None:
        traced = [[[] for _ in range(n_restarts)] for _ in block]
    # Overflow is handled explicitly by the per-row finiteness mask.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(pump_schedule(params.n_steps).tolist()):
            finite = step(xy, wall, over, a, j, half_h, c0, dt)
            if finite is not None and not finite.all():
                live &= finite
                if not live.any():
                    break
            if traced is not None:
                # xy is updated in place, so trace rows are copies.
                xs, ys = xy[0].copy(), xy[1].copy()
                spins = wall[0].astype(np.int8)
                for m, model in enumerate(models):
                    for r in np.flatnonzero(live[m]).tolist():
                        e = energy(model, spins[m, r])
                        traced[m][r].append((r, k, a, xs[m, r], ys[m, r], e))
    for b, rows in zip(block, traced or ()):
        for restart_rows in rows:
            trace[b].extend(restart_rows)
    readouts = wall[0].astype(np.int8)
    for m, (b, model) in enumerate(zip(block, models)):
        kept = np.flatnonzero(live[m]).tolist()
        if not kept:
            out[b] = SolverDivergenceError(
                f"all {n_restarts} restarts diverged (dt = {params.dt})"
            )
            continue
        energies = [energy(model, readouts[m, r]) for r in kept]
        # Keyed on (isnan, e), NaN ranks last; min moves on only to a
        # strictly smaller key, so ties and an all-NaN set keep the
        # earlier readout.
        best = min(
            range(len(kept)),
            key=lambda i: (math.isnan(energies[i]), energies[i]),
        )
        out[b] = SolveResult(
            spins=readouts[m, kept[best]],
            energy=energies[best],
            diverged_restarts=n_restarts - len(kept),
        )
    return out
