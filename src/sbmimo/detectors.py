"""Detectors: linear MMSE, exhaustive ML oracle, and the bifurcation
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
    quantize_symbols,
    realify,
)
from sbmimo.ising import IsingModel, energy, spin_table
from sbmimo.reduction import (
    instance_model,
    regularize,
    spin_matrix,
    spins_to_bits,
    symbols_to_spins,
)
from sbmimo.sb import SBParams, solve

ORACLE_SPIN_LIMIT = 24
_ENUM_CHUNK = 1 << 16


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
    spins = symbols_to_spins(quantize_symbols(soft, c), c)
    return _result("mmse", spins, energy(p.model, spins), p)


def _spin_chunks(n: int):
    # The lexicographic spin table in fixed-size blocks.
    for start in range(0, 1 << n, _ENUM_CHUNK):
        yield spin_table(n, start, start + _ENUM_CHUNK)


def ml_oracle(p: Problem) -> DetectionResult:
    """Global minimizer of the squared residual by full enumeration.

    Scans every spin assignment in lexicographic order and keeps the
    first strict minimum, so ties resolve to the lexicographically
    smallest vector.  Refuses above ORACLE_SPIN_LIMIT spins.
    """
    n = p.model.n
    if n > ORACLE_SPIN_LIMIT:
        raise ValueError(
            f"{n} spins exceed the oracle limit of {ORACLE_SPIN_LIMIT}"
        )
    sys = realify(p.inst.h, p.inst.y, p.c)
    a = spin_matrix(sys.h_r, p.c)
    best_res = np.inf
    best_spins = None
    for spins in _spin_chunks(n):
        resid = sys.y_r[None, :] - spins @ a.T
        values = np.einsum("ij,ij->i", resid, resid)
        k = int(np.argmin(values))
        if values[k] < best_res:
            best_res = float(values[k])
            best_spins = spins[k].astype(np.int8)
    e = energy(p.model, best_spins)
    return _result("ml-oracle", best_spins, e, p, candidates=1 << n)


def sb_detect(
    p: Problem,
    params: SBParams,
    anchor: DetectionResult | None = None,
    r: float = 0.5,
    trace_hook=None,
) -> DetectionResult:
    """Detect by solving the instance Ising model with the SB solver.

    With no anchor the plain model is solved and its readout returned.
    Otherwise ``anchor`` is the instance's MMSE result: the model is
    anchored at its spins with penalty weight r, solved, and the readout
    and the anchor are compared under the unregularized model; the lower
    energy wins (ties keep the solver readout).
    """
    model = p.model if anchor is None else regularize(p.model, anchor.spins, r)
    res = solve(model, params, trace_hook=trace_hook)
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
        mmse_energy=anchor.ising_energy,
        selected="sb" if sb_wins else "mmse",
    )
