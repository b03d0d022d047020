"""MIMO detection by simulated bifurcation on the Ising formulation.

The package turns maximum-likelihood MIMO detection into an Ising
ground-state search, solves it with a digital simulated bifurcation
solver, and benchmarks the result (BER vs. SNR) against a linear MMSE
baseline and an exact ML oracle.  Each public name is imported from the
module that defines it (``sbmimo.channel``, ``sbmimo.detectors``, ...);
the package namespace re-exports nothing.
"""
