"""Command-line front end for the BER sweep harness.

Precedence: command-line flags override config-file values override
defaults.  The config file is a flat JSON object whose keys mirror the
flags (hyphens may be written as underscores); unknown keys, and a key
given under both spellings, are rejected.  The effective configuration
is echoed to standard error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from operator import attrgetter

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
from sbmimo.sb import SBParams

class ConfigError(ValueError):
    pass


def _parse_snr_spec(text) -> tuple[float, ...]:
    parts = text.split(":") if isinstance(text, str) else ()
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


# Each flag key, in the order the configuration is echoed and --help lists
# it: the field it sets ("sb." + an SBParams field; out and trace are the
# paths beside the SweepConfig), the kind its text reads as ([kind] for a
# comma list), and the flag's metavar and help.  argparse takes "-10,10"
# after a space for a flag, so a negative first SNR value needs "=".
_SETTINGS = {
    "nt": ("nt", int, None, "transmit antennas"),
    "nr": ("nr", int, None, "receive antennas"),
    "mod": ("modulation", str, None, "modulation"),
    "snr": ("snr_db", _parse_snr_spec, "START:STOP:STEP",
            "inclusive SNR grid in dB (a negative start: --snr=-10:0:5)"),
    "snr_list": ("snr_db", [float], "A,B,C", "explicit SNR points in dB "
                 "(a negative first point: --snr-list=-10,10)"),
    "instances": ("instances", int, None, "instances per point"),
    "detectors": ("detectors", [str], "NAME[,NAME...]",
                  f"comma list from {{{','.join(DETECTOR_NAMES)}}}"),
    "steps": ("sb.n_steps", int, None, "solver evolution steps"),
    "dt": ("sb.dt", float, None, "solver time step"),
    "restarts": ("sb.n_restarts", int, None, "solver restarts"),
    "r": ("r", float, None, "regularization weight"),
    "seed": ("seed", int, None, "master seed"),
    "workers": ("workers", int, None, "worker processes"),
    "out": ("out", str, "PATH", "write results CSV here"),
    "trace": ("trace", str, "PATH",
              "dump the first instance's solver trajectory as CSV"),
}
_NOUNS = {int: "an integer", float: "a number"}


def _read(key: str, value, kind):
    """Setting ``key`` with its text (a flag's, or a config-file string,
    which mirrors flag text) read as ``kind``, and a whole float count as
    its int; any other value goes on for SweepConfig and SBParams to check."""
    if isinstance(kind, list):
        if isinstance(value, str):
            value = [item.strip() for item in value.split(",")]
        items = value if isinstance(value, list) else [value]
        return tuple(_read(key, item, kind[0]) for item in items)
    if kind is _parse_snr_spec:  # refuses all but start:stop:step text
        return _parse_snr_spec(value)
    if not isinstance(value, str):
        whole = kind is int and isinstance(value, float) and value.is_integer()
        return int(value) if whole else value
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {value!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    values = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        if name in values:
            raise ConfigError(f"config file sets {name} twice, with hyphens "
                              "and with underscores")
        values[name] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmimo-bench",
        description=(
            "Monte-Carlo BER sweep for MIMO detection via a simulated "
            "bifurcation Ising solver, against MMSE and ML baselines."
        ),
    )
    snr = parser.add_mutually_exclusive_group()
    for key, (_, _, metavar, text) in _SETTINGS.items():
        group = snr if key.startswith("snr") else parser
        group.add_argument("--" + key.replace("_", "-"), metavar=metavar,
                           help=text)
    parser.add_argument(
        "--config", metavar="FILE", help="JSON config file mirroring flags"
    )
    return parser


def parse_command(argv: list[str] | None = None) -> tuple:
    """Resolve flags, optional config file, and defaults into a SweepConfig
    and the --out and --trace paths (None when unset).

    The defaults are those of SweepConfig and SBParams.
    """
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if v is not None}
    config = flags.pop("config", None)
    values = _load_config_file(config) if config else {}
    if "snr" in flags or "snr_list" in flags:
        # A command-line grid replaces any grid in the file.
        values.pop("snr", None)
        values.pop("snr_list", None)
    elif "snr" in values and "snr_list" in values:
        raise ConfigError("config file sets both snr and snr_list")
    values.update(flags)
    fields = {}
    for key, value in values.items():
        field, kind = _SETTINGS[key][:2]
        fields[field] = _read(key, value, kind)
    paths = fields.pop("out", None), fields.pop("trace", None)
    for key, path in zip(("out", "trace"), paths):
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string, got {path!r}")
    sb = {f[3:]: fields.pop(f) for f in list(fields) if f.startswith("sb.")}
    # The sweep is checked with default solver settings when SBParams
    # refuses one, so a refusal names every bad setting at once.
    try:
        params, problems = SBParams(**sb), []
    except ValueError as err:
        params, problems = SBParams(), [str(err)]
    try:
        cfg = SweepConfig(**fields, sb=params)
    except ValueError as err:
        problems.insert(0, str(err))
    if problems:
        # A refusal names each setting by the key that set it, not by its
        # field; a quoted word is a value and is left as written.
        keys = {_SETTINGS[k][0].removeprefix("sb."): k for k in values}
        text = re.sub(r"(?<!')\b\w+", lambda m: keys.get(m[0], m[0]),
                      "; ".join(problems))
        raise ConfigError(text)
    return (cfg, *paths)


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """The SweepConfig of a command line (see parse_command)."""
    return parse_command(argv)[0]


def _echo_config(cfg: SweepConfig, out: str | None, trace: str | None):
    paths = {"out": out, "trace": trace}
    pairs = {}
    for key, (field, *_) in _SETTINGS.items():
        if field == "snr_db":  # snr and snr_list set the one grid
            key = field
        value = paths[field] if field in paths else attrgetter(field)(cfg)
        items = value if isinstance(value, tuple) else [value]
        pairs[key] = ",".join(_fmt(v) for v in items)
    pairs["snr_definition"] = SNR_DEFINITION
    print("config:", *(f"{k}={v}" for k, v in pairs.items()), file=sys.stderr)


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
