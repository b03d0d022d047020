"""Digital simulated bifurcation solver.

Evolves positions ``x`` and momenta ``y`` of a classical oscillator
network whose pitchfork bifurcation steers ``sign(x)`` toward low Ising
energy.  One step is a symplectic-Euler update

    y += dt * ( -(a0 - a) * x - c0 * (J @ sign(x) + h / 2) )
    x += dt * a0 * y

followed by the wall rule: any |x_i| > 1 is clamped to sign(x_i) and its
momentum zeroed.  The pump ``a`` ramps linearly from 0 to 1 over the
evolution.  The coupling strength is c0 = 1 / (2 sqrt(N) lambda) with
lambda the rms off-diagonal coupling, unless overridden.

All restarts evolve together as the rows of one (R, N) state: a step is
one product sign(X) @ J.T whatever R is.

sign(0) is +1 everywhere (force term and readout), a fixed tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sbmimo.ising import IsingModel, energy


class DegenerateModelError(ValueError):
    """Coupling matrix is all-zero (or n < 2): c0 is undefined."""


class SolverDivergenceError(RuntimeError):
    """State became non-finite during evolution."""


@dataclass(frozen=True)
class SBParams:
    """Solver configuration.

    c0_override, when set, replaces the model-derived coupling strength.
    Restarts re-run the evolution from fresh random initial states; the
    lowest-energy readout wins.
    """

    n_steps: int = 100
    dt: float = 0.5
    a0: float = 1.0
    c0_override: float | None = None
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        positive = {"dt": self.dt, "a0": self.a0}
        if self.c0_override is not None:
            positive["c0_override"] = self.c0_override
        for key, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")


@dataclass(frozen=True)
class SolveResult:
    spins: np.ndarray
    energy: float
    restart: int
    diverged_restarts: int = 0


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with sign(0) = +1, as float64."""
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


def compute_lambda(model: IsingModel) -> float:
    """RMS off-diagonal coupling sqrt(sum_{i!=k} J_ik^2 / (N (N-1)))."""
    n = model.n
    if n < 2:
        raise ValueError(f"coupling scale needs n >= 2, got n = {n}")
    return math.sqrt(float(np.sum(model.j**2)) / (n * (n - 1)))


def compute_c0(model: IsingModel) -> float:
    """Coupling strength 1 / (2 sqrt(N) lambda).

    Raises DegenerateModelError when the coupling matrix is all-zero; the
    caller should fall back to the field-only solution (see solve()).
    """
    lam = compute_lambda(model)
    if lam == 0.0:
        raise DegenerateModelError(
            "all couplings are zero; minimize by fields alone"
        )
    return 1.0 / (2.0 * math.sqrt(model.n) * lam)


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


def batch_step(x, y, a, jt, half_h, c0, dt, a0):
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
    y = y + dt * (-(a0 - a) * x - c0 * (coupling + half_h))
    x = x + dt * a0 * y
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
        return SolveResult(
            spins=spins, energy=energy(model, spins), restart=0
        )
    c0 = params.c0_override
    if c0 is None:
        c0 = compute_c0(model)
    jt, half_h = model.j.T, 0.5 * model.h
    x, y = initial_states(model.n, params.seed, params.n_restarts)
    live = np.arange(params.n_restarts)  # restart index of each row
    traced = [[] for _ in live] if trace_hook is not None else None
    # Overflow is handled explicitly by the per-row finiteness mask.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(pump_schedule(params.n_steps).tolist()):
            x, y, finite = batch_step(
                x, y, a, jt, half_h, c0, params.dt, params.a0
            )
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
    diverged = params.n_restarts - live.size
    best = None
    for xr, r in zip(x, live.tolist()):
        spins = sign_pm1(xr).astype(np.int8)
        e = energy(model, spins)
        if best is None or e < best.energy:
            best = SolveResult(spins, e, restart=r, diverged_restarts=diverged)
    return best
