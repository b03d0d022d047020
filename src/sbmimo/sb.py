"""Digital simulated bifurcation solver.

Evolves positions ``x`` and momenta ``y`` of a classical oscillator
network whose pitchfork bifurcation steers ``sign(x)`` toward low Ising
energy.  One step is a symplectic-Euler update at unit pump amplitude

    y += dt * ( -(1 - a) * x - c0 * (J @ sign(x) + h / 2) )
    x += dt * y

followed by the wall rule: any |x_i| > 1 is clamped to sign(x_i) and its
momentum zeroed.  The pump ``a`` ramps linearly from 0 to 1 over the
evolution.  The coupling strength is always derived from the model:
c0 = 1 / (2 sqrt(N) lambda) with lambda the rms off-diagonal coupling.
It is computed on J scaled by a power of two, so it is exact under
power-of-two rescaling of the model, and sum(J**2) can neither overflow
nor underflow.

All restarts evolve together as the rows of one (R, N) state: a step is
one product sign(X) @ J.T whatever R is.

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
    lowest-energy readout wins.
    """

    n_steps: int = 100
    dt: float = 0.5
    n_restarts: int = 1
    seed: int = 0

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


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with sign(0) = +1, as float64."""
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


def compute_c0(model: IsingModel) -> float:
    """Coupling strength 1 / (2 sqrt(N) lambda), with lambda the rms
    off-diagonal coupling sqrt(sum_{i!=k} J_ik^2 / (N (N-1))).

    J is scaled by 2^-k, where 2^(k-1) <= max |J| < 2^k, before squaring,
    and c0 by the same power of two after.  Both scalings are exact, so
    c0 equals the unscaled formula wherever that formula is finite and
    nonzero.  Needs n >= 2 and a nonzero J; solve() handles the rest.
    """
    n = model.n
    k = math.frexp(float(np.max(np.abs(model.j))))[1]
    lam = math.sqrt(float(np.sum(np.ldexp(model.j, -k) ** 2)) / (n * (n - 1)))
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


def initial_states(
    n: int, seed: int, n_restarts: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_restarts, n) positions and momenta, i.i.d. uniform [-0.1, 0.1].

    Row r draws x then y from its own stream default_rng([seed, r]), so a
    restart starts from the same state however many restarts run.
    """
    x = np.empty((n_restarts, n))
    y = np.empty((n_restarts, n))
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        x[r] = rng.uniform(-0.1, 0.1, n)
        y[r] = rng.uniform(-0.1, 0.1, n)
    return x, y


def batch_step(x, y, a, jt, half_h, c0, dt):
    """One symplectic-Euler update of every (R, N) row, then the wall rule.

    ``jt`` is J transposed and ``half_h`` is h / 2.  Returns the new x, y
    and a per-row mask of rows that stayed finite; rows outside the mask
    hold garbage.  The mask is taken before the wall rule: clamping
    |x| > 1 to +-1 would otherwise hide an overflow.
    """
    # A stacked product runs one matrix-vector multiply per row, so each
    # row matches J @ sign(x) bit for bit; a plain (R, N) @ (N, N) gemm
    # sums in another order.
    coupling = (sign_pm1(x)[:, None, :] @ jt)[:, 0, :]
    y = y + dt * (-(1.0 - a) * x - c0 * (coupling + half_h))
    x = x + dt * y
    # From a finite x, a non-finite y always makes x non-finite too.
    finite = np.isfinite(x).all(axis=1)
    # Wall rule: |x| > 1 goes to sign(x), and the clamped entries' y to 0.
    walled = np.minimum(np.maximum(x, -1.0), 1.0)
    return walled, np.where(walled != x, 0.0, y), finite


def solve(model: IsingModel, params: SBParams, trace_hook=None) -> SolveResult:
    """Run the evolution over all restarts and return the best readout.

    Restarts evolve together as the rows of one state, each from its own
    initial state (see initial_states), for n_steps; each reads out
    sign(x).  The readout with the lowest Ising energy wins; ties keep the
    earlier restart.  A restart that diverges is frozen and dropped;
    solving fails only if every restart does.

    A model with all-zero couplings (including n = 1) is solved exactly
    by fields alone.

    trace_hook, when given, is called for every step of every restart as
    ``trace_hook(restart, step, a, x, y, readout_energy)``, restart-major;
    a diverged restart's rows stop at its last finite step.
    """
    if model.n < 2 or not model.j.any():
        spins = _field_only_spins(model)
        return SolveResult(spins=spins, energy=energy(model, spins))
    c0 = compute_c0(model)
    jt, half_h = model.j.T, 0.5 * model.h
    x, y = initial_states(model.n, params.seed, params.n_restarts)
    live = np.arange(params.n_restarts)  # restart index of each row
    traced = [[] for _ in live] if trace_hook is not None else None
    # Overflow is handled explicitly by the per-row finiteness mask.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(pump_schedule(params.n_steps).tolist()):
            x, y, finite = batch_step(x, y, a, jt, half_h, c0, params.dt)
            if not finite.all():
                x, y, live = x[finite], y[finite], live[finite]
            if traced is not None:
                for xr, yr, r in zip(x, y, live.tolist()):
                    e = energy(model, sign_pm1(xr).astype(np.int8))
                    traced[r].append((r, k, a, xr, yr, e))
            if live.size == 0:
                break
    for rows in traced or ():
        for row in rows:
            trace_hook(*row)
    if live.size == 0:
        raise SolverDivergenceError(
            f"all {params.n_restarts} restarts diverged (dt = {params.dt})"
        )
    readouts = sign_pm1(x).astype(np.int8)
    energies = [energy(model, spins) for spins in readouts]
    best = int(np.argmin(energies))
    return SolveResult(
        spins=readouts[best],
        energy=energies[best],
        diverged_restarts=params.n_restarts - live.size,
    )
