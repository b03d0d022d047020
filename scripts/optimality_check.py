#!/usr/bin/env python3
"""How often dSB finds the exact ML optimum, by problem size.

Finds the true optimum with the exact oracle (up to 24 spins) and
reports the fraction of instances where the solver's energy matches
it, plus the mean relative excess when it misses.
"""

import argparse
import sys

import numpy as np

from sbmimo.channel import get_constellation, sample_instance
from sbmimo.detectors import ml_oracle, prepare, sb_detect, sb_solve
from sbmimo.sb import SBParams

# Instances per solver call.
BLOCK = 64


def modulation(name: str):
    """The constellation named, case-blind; an unknown name is a usage
    error whose message lists the valid ones."""
    try:
        return get_constellation(name)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modulation", default="qpsk", type=modulation)
    ap.add_argument("--sizes", default="2,4,6,8",
                    help="comma-separated nt values (nr = nt)")
    ap.add_argument("--snr-db", type=float, default=10.0)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--restarts", type=int, default=10)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    c = args.modulation
    print(f"{'nt':>4} {'spins':>6} {'optimal':>8} {'mean excess':>12}")
    for nt in [int(v) for v in args.sizes.split(",")]:
        hits = 0
        excess = []
        params = SBParams(n_steps=args.steps, dt=0.5, n_restarts=args.restarts)
        for lo in range(0, args.instances, BLOCK):
            problems, seeds = [], []
            for i in range(lo, min(lo + BLOCK, args.instances)):
                rng = np.random.default_rng([args.seed, nt, i])
                inst = sample_instance(nt, nt, c, args.snr_db, rng)
                seeds.append(int(rng.integers(0, 1 << 63, dtype=np.uint64)))
                problems.append(prepare(inst, c))
            # One solver call evolves the whole block together.
            solved = sb_solve(problems, params, seeds)
            for p, outcome in zip(problems, solved):
                e_sb = sb_detect(p, outcome).ising_energy
                e_opt = ml_oracle(p).ising_energy
                if e_sb <= e_opt + 1e-9:
                    hits += 1
                else:
                    excess.append((e_sb - e_opt) / max(abs(e_opt), 1.0))
        spins = nt * c.bps
        mean_excess = float(np.mean(excess)) if excess else 0.0
        print(f"{nt:>4} {spins:>6} {hits / args.instances:>8.1%}"
              f" {mean_excess:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
