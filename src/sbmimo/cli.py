"""Command-line front end for the BER sweep harness.

Precedence: command-line flags override config-file values override
defaults.  The config file is a flat JSON object whose keys mirror the
flags (hyphens may be written as underscores); unknown keys are
rejected.  The effective configuration is echoed to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from sbmimo.bench import (
    DETECTOR_NAMES,
    SNR_DEFINITION,
    SweepConfig,
    run_sweep,
    snr_range,
    summary_table,
    write_csv,
)

class ConfigError(ValueError):
    pass


def _parse_snr_spec(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--snr wants start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"non-numeric --snr field in {text!r}")
    try:
        return snr_range(start, stop, step)
    except ValueError as err:
        raise ConfigError(f"bad --snr range {text!r}: {err}")


def _parse_float_list(value) -> tuple[float, ...]:
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise ConfigError(f"non-numeric SNR list {value!r}")


def _parse_detectors(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        names = tuple(str(v) for v in value)
    else:
        names = tuple(p.strip() for p in str(value).split(","))
    for name in names:
        if name not in DETECTOR_NAMES:
            raise ConfigError(
                f"unknown detector {name!r}; choose from {DETECTOR_NAMES}"
            )
    return names


def _load_config_file(path: str, keys: set[str]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    data = {}
    for key, value in raw.items():
        norm = key.replace("-", "_")
        if norm not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        data[norm] = value
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmimo-bench",
        description=(
            "Monte-Carlo BER sweep for MIMO detection via a simulated "
            "bifurcation Ising solver, against MMSE and ML baselines."
        ),
    )
    parser.add_argument("--nt", type=int, help="transmit antennas")
    parser.add_argument("--nr", type=int, help="receive antennas")
    parser.add_argument(
        "--mod", choices=("bpsk", "qpsk", "qam16"), help="modulation"
    )
    snr = parser.add_mutually_exclusive_group()
    snr.add_argument(
        "--snr", metavar="START:STOP:STEP", help="inclusive SNR grid in dB"
    )
    snr.add_argument(
        "--snr-list", metavar="A,B,C", help="explicit SNR points in dB"
    )
    parser.add_argument("--instances", type=int, help="instances per point")
    parser.add_argument(
        "--detectors",
        metavar="NAME[,NAME...]",
        help=f"comma list from {{{','.join(DETECTOR_NAMES)}}}",
    )
    parser.add_argument("--steps", type=int, help="solver evolution steps")
    parser.add_argument("--dt", type=float, help="solver time step")
    parser.add_argument("--restarts", type=int, help="solver restarts")
    parser.add_argument("--r", type=float, help="regularization weight")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", metavar="PATH", help="write results CSV here")
    parser.add_argument(
        "--config", metavar="FILE", help="JSON config file mirroring flags"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="dump the first instance's solver trajectory as CSV",
    )
    parser.add_argument("--workers", type=int, help="worker processes")
    return parser


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """Resolve flags, optional config file, and defaults into a SweepConfig.

    The defaults are those of SweepConfig and SBParams.
    """
    args = build_parser().parse_args(argv)
    # The file takes a key for every flag but --config itself.
    keys = set(vars(args)) - {"config"}
    filedata = _load_config_file(args.config, keys) if args.config else {}
    defaults = SweepConfig()

    def pick(key, default):
        cli = getattr(args, key)
        if cli is not None:
            return cli
        return filedata.get(key, default)

    def pick_int(key, default):
        value = pick(key, default)
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)

    if args.snr is not None or args.snr_list is not None:
        # CLI grid wins outright; ignore any file-side grid.
        filedata.pop("snr", None)
        filedata.pop("snr_list", None)
    if "snr" in filedata and "snr_list" in filedata:
        raise ConfigError("config file sets both snr and snr_list")
    if args.snr is not None:
        grid = _parse_snr_spec(args.snr)
    elif args.snr_list is not None:
        grid = _parse_float_list(args.snr_list)
    elif "snr" in filedata:
        grid = _parse_snr_spec(str(filedata["snr"]))
    elif "snr_list" in filedata:
        grid = _parse_float_list(filedata["snr_list"])
    else:
        grid = defaults.snr_db

    detectors = pick("detectors", defaults.detectors)
    if not isinstance(detectors, tuple):
        detectors = _parse_detectors(detectors)
    try:
        sb = replace(
            defaults.sb,
            n_steps=pick_int("steps", defaults.sb.n_steps),
            dt=float(pick("dt", defaults.sb.dt)),
            n_restarts=pick_int("restarts", defaults.sb.n_restarts),
        )
        return SweepConfig(
            nt=pick_int("nt", defaults.nt),
            nr=pick_int("nr", defaults.nr),
            modulation=str(pick("mod", defaults.modulation)),
            snr_db=grid,
            instances=pick_int("instances", defaults.instances),
            detectors=detectors,
            sb=sb,
            r=float(pick("r", defaults.r)),
            seed=pick_int("seed", defaults.seed),
            out=pick("out", defaults.out),
            trace=pick("trace", defaults.trace),
            workers=pick_int("workers", defaults.workers),
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(str(err))


def _echo_config(cfg: SweepConfig) -> None:
    pairs = [
        f"nt={cfg.nt}",
        f"nr={cfg.nr}",
        f"mod={cfg.modulation}",
        f"snr_db={','.join(format(s, 'g') for s in cfg.snr_db)}",
        f"instances={cfg.instances}",
        f"detectors={','.join(cfg.detectors)}",
        f"steps={cfg.sb.n_steps}",
        f"dt={cfg.sb.dt:g}",
        f"restarts={cfg.sb.n_restarts}",
        f"r={cfg.r:g}",
        f"seed={cfg.seed}",
        f"workers={cfg.workers}",
        f"out={cfg.out}",
        f"trace={cfg.trace}",
        f"snr_definition={SNR_DEFINITION}",
    ]
    print("config: " + " ".join(pairs), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _echo_config(cfg)
    records = run_sweep(cfg)
    try:
        if cfg.out is not None:
            write_csv(records, cfg.out)
    except OSError as err:
        print(f"error: cannot write {cfg.out}: {err}", file=sys.stderr)
        return 1
    print(summary_table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
