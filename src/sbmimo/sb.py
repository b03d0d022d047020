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

solve() takes an IsingModel, a stack of B same-size models, and one
seed each, and evolves every restart of every model as a row of one
(2, B, R, N) state of positions and momenta and one (B, R, N) array of
their signs s, updated in place by ufuncs and one np.matmul(s, J) with
the stack's own J (B, N, N): one (R, N) @ (N, N) product per model (J
is symmetric, so s @ J is J @ s).  Models never mix, so each is bit for
bit what it would be alone; its rows depend on its own restart count,
since a product of R rows may sum in another order than one of a single
row.  One dot product of x with itself screens for divergence; only a
non-finite one runs the per-row check that drops diverged restarts.  A
single model is the stack of one.

sign(0) is +1 everywhere (force term and readout), a fixed tie-break.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from sbmimo.ising import IsingModel, energy


def setting(name: str, value, least: int | float, strict: bool = False):
    """The setting ``name`` as the Python int or float that runs: a count
    by operator.index when ``least`` is an int, else a real by float().
    The converted value must be finite and >= least, or > least when
    strict.  A bool, a string, None, a value that does not convert and
    one out of range are each a ValueError that names the setting."""
    count = isinstance(least, int)
    out = math.nan  # what does not convert fails every bound
    # float() would read a string, and True would run as 1.
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = operator.index(value) if count else float(value)
        except (TypeError, OverflowError):  # a float count; an int past floats
            pass
    # Bounds are checked on the converted value: longdouble 1e400 runs as inf.
    low = least < out if strict else least <= out
    if not (low and -math.inf < out < math.inf):
        op = ">" if strict else ">="
        bound = "" if least == -math.inf else f" and {op} {least:g}"
        rule = f"an integer {op} {least}" if count else f"finite{bound}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return out


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
        problems = []
        for key, least in {"n_steps": 1, "dt": 0.0, "n_restarts": 1}.items():
            try:
                value = setting(key, getattr(self, key), least,
                                strict=key == "dt")
                object.__setattr__(self, key, value)
            except ValueError as err:
                problems.append(str(err))
        if problems:
            raise ValueError("; ".join(problems))


def compute_c0(j: np.ndarray) -> np.ndarray | float:
    """Coupling strength 1 / (2 sqrt(N) lambda) of each (N, N) matrix of
    a stack j (..., N, N), with lambda its rms off-diagonal coupling
    sqrt(sum_{i!=k} J_ik^2 / (N (N-1))); one c0 per matrix.

    Each J is scaled by 2^-k, where 2^(k-1) <= max |J| < 2^k, before
    squaring, and its c0 by the same power of two after.  Both scalings
    are exact, so c0 equals the unscaled formula wherever that formula is
    finite and nonzero.  Needs n >= 2 and nonzero matrices; solve()
    handles the rest.
    """
    n, k = j.shape[-1], _exponents(j)
    jk = np.ldexp(j, -k[..., None, None])
    lam = np.sqrt(np.sum(np.square(jk, out=jk), axis=(-2, -1)) / (n * (n - 1)))
    return np.ldexp(1.0 / (2.0 * math.sqrt(n) * lam), -k)


def _exponents(j):
    # Per matrix of a stack j (..., N, N), the k with 2^(k-1) <= max |J| < 2^k.
    return np.frexp(np.maximum(j.max(axis=(-2, -1)), -j.min(axis=(-2, -1))))[1]


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
    out = np.empty((2, n_restarts, n))
    for r in range(n_restarts):
        # One (2, n) draw is x's n values, then y's, from one stream.
        out[:, r] = np.random.default_rng([seed, r]).uniform(-0.1, 0.1, (2, n))
    return out


# ufuncs take a 0-d array faster than a Python float, with the same bits.
_ONE, _MINUS_ONE, _ZERO = np.array(1.0), np.array(-1.0), np.array(0.0)
_ONE.flags.writeable = _MINUS_ONE.flags.writeable = False
_ZERO.flags.writeable = False


def step(xy, s, force, keep, a, j, half_h, c0, dt):
    """One symplectic-Euler update of the rows of x = xy[0] and y = xy[1],
    then the wall rule, all in place; allocates no array unless a row
    may have diverged.

    Rows run along the last axis: (R, N) for one model with j (N, N), or
    (B, R, N) for a block with j (B, N, N) stacked per model; the forces
    of a model's rows are one s @ j product.  ``s`` holds sign(x) before
    and after the step, ``force`` and ``keep`` are float buffers of x's
    shape (keep ends as 1.0 where |x| <= 1, else 0.0), and ``half_h`` and
    ``c0`` are h / 2 and c0 tiled to it.  dt runs fastest as an array.
    Returns None when every row stayed finite, else the mask of rows that
    did; rows outside it hold garbage.  The mask is taken before the wall
    rule: clamping |x| > 1 to +-1 would otherwise hide an overflow.
    """
    x, y = xy
    np.matmul(s, j, out=force)
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
    # Wall rule: |x| > 1 is clamped to sign(x) and its momentum zeroed.
    # A negative momentum times 0 is -0.0; adding +0.0 makes it +0.0 and
    # leaves every other y as it is (no initial state draws a -0.0, and
    # y + dt * force is -0.0 only when y is).
    np.copysign(_ONE, x, out=s)
    np.less_equal(np.abs(x, out=force), _ONE, out=keep, casting="unsafe")
    np.minimum(np.maximum(x, _MINUS_ONE, out=x), _ONE, out=x)
    y *= keep
    y += _ZERO
    return finite


def _stack(model: IsingModel, seeds, n_restarts):
    """The block's (2, B, R, N) initial state, the J (B, N, N) it evolves
    under, and h / 2 and c0 tiled to (B, R, N), for a stack of B models.

    c0 ~ 1 / max |J| leaves the float range only below max |J| ~ 2^-1000.
    Such a model's J and h are scaled up to that by a power of two, which
    changes no force among normal floats (c0, taken on the scaled J,
    scales down by that power exactly); every other model runs as given,
    on the stack's own J.
    """
    shift = np.minimum(_exponents(model.j) + 1000, 0)
    j = np.ldexp(model.j, -shift[:, None, None]) if shift.any() else model.j
    half_h = np.ldexp(0.5 * model.h, -shift[:, None])[:, None]
    half_h = half_h.repeat(n_restarts, 1)
    c0 = np.full_like(half_h, compute_c0(j)[:, None, None])
    xy = np.empty((2, *half_h.shape))
    for b, seed in enumerate(seeds):
        xy[:, b] = initial_states(model.n, seed, n_restarts)
    return xy, j, half_h, c0


def solve(model: IsingModel, params: SBParams, seeds, trace=None):
    """Run the evolution of a stack of B same-size models together and
    return, per model, its winning readout, that readout's energy and
    its number of diverged restarts: spins (B, n) int8, energy (B,) and
    diverged (B,) int.

    Every restart of every model is one row of a single (2, B, R, N)
    state, started from its own initial state drawn from its model's seed
    (see initial_states), for n_steps; each reads out sign(x), and one
    ising.energy call scores them all.  Per model, the readout with the
    lowest energy wins; ties keep the earlier restart, and a NaN energy
    (inf - inf near the float limit) ranks last.  A restart that diverges
    is dropped: its row evolves on, unread.  A model whose every restart
    diverged has no readout: its diverged count is n_restarts, its spins
    and energy are not to be read, and its block-mates are unaffected.
    One model is the stack of one.

    A model with all-zero couplings (including n = 1) is solved exactly
    by fields alone, and such models are scored by one more energy call;
    only then does the kernel take a subset of the stack.

    trace, when given, holds one list per model, which is extended by
    ``(restart, step, a, x, y, readout_energy)`` for every step of every
    restart, restart-major; a diverged restart's rows stop at its last
    finite step, and a model solved by fields alone adds none.
    """
    if len(seeds) != len(model.h):
        raise ValueError("a block needs a stack of same-size models and one "
                         "seed each")
    # The exact minimizer of h . s; h_i == 0 breaks to +1.
    spins = np.where(model.h > 0.0, -1, 1).astype(np.int8)
    out_e = np.empty(len(seeds))
    diverged = np.zeros(len(seeds), dtype=int)
    coupled = model.j.any(axis=(1, 2)) & (model.n > 1)
    block = np.flatnonzero(coupled).tolist()  # the models the kernel evolves
    if not coupled.all():
        out_e[~coupled] = energy(model[~coupled], spins[~coupled, None])[:, 0]
    if not block:
        return spins, out_e, diverged
    if len(block) < len(seeds):
        model, seeds = model[block], [seeds[b] for b in block]
    n_restarts = params.n_restarts
    xy, j, half_h, c0 = _stack(model, seeds, n_restarts)
    s = np.copysign(1.0, xy[0])
    force, keep = np.empty_like(s), np.empty_like(s)
    dt = np.array(params.dt)
    live = np.ones(xy.shape[1:3], dtype=bool)  # per (model, restart)
    steps = []  # per traced step: (k, a, x, y, energies, live)
    # Overflow is handled explicitly by the per-row finiteness mask, and a
    # diverged row's readout, scored with the rest, may overflow too.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(pump_schedule(params.n_steps).tolist()):
            finite = step(xy, s, force, keep, a, j, half_h, c0, dt)
            if finite is not None and not finite.all():
                live &= finite
                if not live.any():
                    break
            if trace is not None:
                # xy is updated in place, so trace rows are copies.
                e = energy(model, s).tolist()
                steps.append((k, a, xy[0].copy(), xy[1].copy(), e, live.copy()))
        e = energy(model, s)
    # Dead rows rank last, then NaN energies (inf - inf near the float
    # limit); the sort is stable, so ties and an all-NaN set keep the
    # earlier restart.
    best = np.lexsort((e, np.isnan(e), ~live))[:, 0]
    rows = np.arange(len(block))
    spins[block], out_e[block] = s[rows, best], e[rows, best]
    diverged[block] = n_restarts - live.sum(axis=1)
    for m, b in enumerate(block):
        if trace is not None:
            trace[b].extend(
                (q, k, a, x[m, q], y[m, q], e_k[m][q])
                for q in range(n_restarts)
                for k, a, x, y, e_k, alive in steps if alive[m, q]
            )
    return spins, out_e, diverged
