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
    _fmt,
    run_sweep,
    snr_range,
    summary_table,
    trace_rows,
    write_csv,
    write_trace,
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
    # Names are checked by SweepConfig.
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(p.strip() for p in str(value).split(","))


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
        # No setting takes true or false, though int() and float() would.
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, bool) for v in items):
            raise ConfigError(f"{key} must not be true or false, got {value!r}")
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
    parser.add_argument("--mod", help="modulation")
    snr = parser.add_mutually_exclusive_group()
    # argparse takes "-10,10" after a space for a flag, so a negative
    # first value needs the "=" form.
    snr.add_argument(
        "--snr", metavar="START:STOP:STEP",
        help="inclusive SNR grid in dB (a negative start: --snr=-10:0:5)",
    )
    snr.add_argument(
        "--snr-list", metavar="A,B,C",
        help="explicit SNR points in dB (a negative first point: "
        "--snr-list=-10,10)",
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


def parse_command(argv: list[str] | None = None) -> tuple:
    """Resolve flags, optional config file, and defaults into a SweepConfig
    and the --out and --trace paths (None when unset).

    The defaults are those of SweepConfig and SBParams.
    """
    args = build_parser().parse_args(argv)
    # The file takes a key for every flag but --config itself.
    keys = set(vars(args)) - {"config"}
    values = _load_config_file(args.config, keys) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if "snr" in flags or "snr_list" in flags:
        # A command-line grid replaces any grid in the file.
        values.pop("snr", None)
        values.pop("snr_list", None)
    elif "snr" in values and "snr_list" in values:
        raise ConfigError("config file sets both snr and snr_list")
    values.update(flags)
    defaults = SweepConfig()
    paths = values.get("out"), values.get("trace")
    for key, path in zip(("out", "trace"), paths):
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string, got {path!r}")

    def count(key, default):
        value = values.get(key, default)
        if isinstance(value, float) and value % 1:  # inf % 1 is nan
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)

    if "snr" in values:
        grid = _parse_snr_spec(str(values["snr"]))
    else:
        grid = _parse_float_list(values.get("snr_list", defaults.snr_db))
    try:
        sb = replace(
            defaults.sb,
            n_steps=count("steps", defaults.sb.n_steps),
            dt=float(values.get("dt", defaults.sb.dt)),
            n_restarts=count("restarts", defaults.sb.n_restarts),
        )
        cfg = SweepConfig(
            nt=count("nt", defaults.nt),
            nr=count("nr", defaults.nr),
            modulation=str(values.get("mod", defaults.modulation)),
            snr_db=grid,
            instances=count("instances", defaults.instances),
            detectors=_parse_detectors(
                values.get("detectors", defaults.detectors)
            ),
            sb=sb,
            r=float(values.get("r", defaults.r)),
            seed=count("seed", defaults.seed),
            workers=count("workers", defaults.workers),
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(str(err))
    return (cfg, *paths)


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """The SweepConfig of a command line (see parse_command)."""
    return parse_command(argv)[0]


def _echo_config(cfg: SweepConfig, out: str | None, trace: str | None):
    pairs = [
        f"nt={cfg.nt}",
        f"nr={cfg.nr}",
        f"mod={cfg.modulation}",
        f"snr_db={','.join(_fmt(s) for s in cfg.snr_db)}",
        f"instances={cfg.instances}",
        f"detectors={','.join(cfg.detectors)}",
        f"steps={cfg.sb.n_steps}",
        f"dt={_fmt(cfg.sb.dt)}",
        f"restarts={cfg.sb.n_restarts}",
        f"r={_fmt(cfg.r)}",
        f"seed={cfg.seed}",
        f"workers={cfg.workers}",
        f"out={out}",
        f"trace={trace}",
        f"snr_definition={SNR_DEFINITION}",
    ]
    print("config: " + " ".join(pairs), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg, out, trace = parse_command(argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _echo_config(cfg, out, trace)
    records = run_sweep(cfg)
    print(summary_table(records))
    # An OSError from a write or a close carries no file name, so the
    # error line names the path being written.
    path = out
    try:
        if path is not None:
            write_csv(records, path)
        path = trace
        if path is not None:
            write_trace(trace_rows(cfg), path)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
