#!/usr/bin/env python3
"""How often each detector reaches the exact ML optimum, by size nt = nr:
one sweep per size with the ML oracle added (up to 24 spins).  Any other
option is an sbmimo-bench flag over optimality.json or a --config file.
It writes no file: an out or trace path, from a flag or the file, is
ignored with a note on stderr.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from sbmimo.bench import run_sweep
from sbmimo.channel import get_constellation
from sbmimo.cli import parse_command


def sizes(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=sizes, default=[2, 4, 6, 8])
    args, rest = ap.parse_known_args(argv)
    defaults = Path(__file__).with_name("optimality.json")
    try:
        # --sizes sets nt and nr; 1 lets a configured ml-oracle parse.
        cfg, *paths = parse_command(["--config", str(defaults), *rest,
                                     "--nt", "1", "--nr", "1"])
        dets = (*(d for d in cfg.detectors if d != "ml-oracle"), "ml-oracle")
        sweeps = [replace(cfg, nt=n, nr=n, detectors=dets) for n in args.sizes]
    except ValueError as err:  # a ConfigError, or a size SweepConfig refuses
        ap.error(str(err))
    for key, path in zip(("out", "trace"), paths):
        if path is not None:
            print(f"note: {Path(__file__).name} writes no file; ignoring "
                  f"{key}={path}", file=sys.stderr)
    bps = get_constellation(cfg.modulation).bps
    print("  nt  spins  optimal  snr_db  detector        ber     ml_ber")
    for sweep in sweeps:
        records = run_sweep(sweep)
        ml = {r.snr_db: r.ber for r in records if r.detector == "ml-oracle"}
        for r in records:
            if r.detector != "ml-oracle":
                print(f"{sweep.nt:>4} {sweep.nt * bps:>6} "
                      f"{r.ml_optimal / sweep.instances:>8.1%} {r.snr_db:>7g} "
                      f"{r.detector:>9} {r.ber:>10.3e} {ml[r.snr_db]:>10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
