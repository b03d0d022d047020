"""MIMO detection by simulated bifurcation on the Ising formulation.

The package turns maximum-likelihood MIMO detection into an Ising
ground-state search, solves it with a digital simulated bifurcation
solver, and benchmarks the result (BER vs. SNR) against a linear MMSE
baseline and an exact ML oracle.
"""

from sbmimo.ising import IsingModel, energy
from sbmimo.sb import SBParams, SolveResult, solve
from sbmimo.channel import (
    Constellation,
    ChannelInstance,
    RealizedSystem,
    get_constellation,
    modulate,
    realify,
    sample_channel,
    sample_instance,
    noise_variance_for_snr,
)
from sbmimo.reduction import (
    build_ising,
    regularize,
    symbols_to_spins,
)
from sbmimo.detectors import (
    DetectionResult,
    Problem,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
)
from sbmimo.bench import SweepConfig, BerRecord, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "IsingModel",
    "energy",
    "SBParams",
    "SolveResult",
    "solve",
    "Constellation",
    "ChannelInstance",
    "RealizedSystem",
    "get_constellation",
    "modulate",
    "realify",
    "sample_channel",
    "sample_instance",
    "noise_variance_for_snr",
    "build_ising",
    "regularize",
    "symbols_to_spins",
    "DetectionResult",
    "Problem",
    "prepare",
    "mmse_detect",
    "ml_oracle",
    "sb_detect",
    "SweepConfig",
    "BerRecord",
    "run_sweep",
    "write_csv",
]
