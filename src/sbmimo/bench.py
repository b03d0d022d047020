"""Monte-Carlo BER sweep harness.

Each (snr, instance-index) pair owns a deterministic RNG stream derived
from (master seed, snr index, instance index), so results are identical
no matter how instances are chunked across worker processes.  Every
configured detector runs on the same instance (paired comparison).
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from sbmimo.channel import get_constellation, sample_instance
from sbmimo.detectors import (
    ORACLE_SPIN_LIMIT,
    DetectionFailureError,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
)
from sbmimo.sb import SBParams, SolverDivergenceError

DETECTOR_NAMES = ("mmse", "sb", "sb-reg", "ml-oracle")

# How the snr_db column is defined: receive-side signal power over noise
# power, E[|Hx|^2] / E[|n|^2], under a unit-variance Rayleigh channel.
SNR_DEFINITION = "rx:E[|Hx|^2]/E[|n|^2]"

CSV_COLUMNS = (
    "nt,nr,modulation,snr_db,detector,instances,total_bits,bit_errors,"
    "ber,steps,dt,restarts,r,seed"
).split(",")


def snr_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic SNR grid, robust to float step accumulation."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"bounds must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} below start {start}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + k * step, 10) for k in range(count))


@dataclass(frozen=True)
class SweepConfig:
    nt: int = 16
    nr: int = 16
    modulation: str = "qpsk"
    snr_db: tuple[float, ...] = snr_range(0.0, 25.0, 2.5)
    instances: int = 10_000
    detectors: tuple[str, ...] = ("mmse", "sb-reg")
    sb: SBParams = field(default_factory=SBParams)
    r: float = 0.5
    seed: int = 0
    out: str | None = None
    trace: str | None = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def validate(self) -> list[str]:
        problems = []
        if self.nt < 1 or self.nr < 1:
            problems.append(f"nt, nr must be >= 1, got {self.nt}x{self.nr}")
        try:
            c = get_constellation(self.modulation)
        except ValueError:
            problems.append(f"unknown modulation {self.modulation!r}")
            c = None
        if not self.snr_db:
            problems.append("snr_db grid is empty")
        if not all(math.isfinite(s) for s in self.snr_db):
            problems.append(f"snr_db values must be finite, got {self.snr_db}")
        if self.instances < 1:
            problems.append(f"instances must be >= 1, got {self.instances}")
        if not self.detectors:
            problems.append("no detectors configured")
        for det in self.detectors:
            if det not in DETECTOR_NAMES:
                problems.append(f"unknown detector {det!r}")
        if len(set(self.detectors)) != len(self.detectors):
            problems.append(f"duplicate detectors in {self.detectors}")
        if not (math.isfinite(self.r) and self.r >= 0):
            problems.append(f"r must be finite and >= 0, got {self.r}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        for key in ("out", "trace"):
            path = getattr(self, key)
            if path is not None and not isinstance(path, str):
                problems.append(f"{key} must be a path string, got {path!r}")
        if c is not None and "ml-oracle" in self.detectors and self.nt >= 1:
            spins = self.nt * c.bps
            if spins > ORACLE_SPIN_LIMIT:
                problems.append(
                    f"ml-oracle with {self.nt}x{c.name} needs {spins} spins, "
                    f"above the {ORACLE_SPIN_LIMIT}-spin enumeration guard"
                )
        return problems


@dataclass(frozen=True)
class BerRecord:
    nt: int
    nr: int
    modulation: str
    snr_db: float
    detector: str
    instances: int
    total_bits: int
    bit_errors: int
    ber: float
    steps: int
    dt: float
    restarts: int
    r: float
    seed: int
    snr_def: str = SNR_DEFINITION
    failures: int = 0
    selection_violations: int = 0


def _run_detector(name, p, params, anchor, r, trace_hook=None):
    if name in ("mmse", "sb-reg") and anchor is None:
        raise DetectionFailureError("MMSE failed on this instance")
    if name == "mmse":
        return anchor
    if name == "sb":
        return sb_detect(p, params, trace_hook=trace_hook)
    if name == "sb-reg":
        return sb_detect(p, params, anchor, r, trace_hook=trace_hook)
    if name == "ml-oracle":
        return ml_oracle(p)
    raise ValueError(f"unknown detector {name!r}")


def _eval_chunk(cfg: SweepConfig, snr_idx: int, start: int, stop: int):
    """Evaluate instances [start, stop) at one SNR point.

    Each instance is reduced once and MMSE runs at most once; its result
    is both the `mmse` decision and the `sb-reg` anchor, so an MMSE
    failure counts against both.  Returns per-detector tallies plus
    trace rows (only the very first instance of the sweep traces, when
    cfg.trace is set).
    """
    c = get_constellation(cfg.modulation)
    tally = {
        det: {"errors": 0, "used": 0, "failures": 0, "violations": 0}
        for det in cfg.detectors
    }
    needs_mmse = "mmse" in cfg.detectors or "sb-reg" in cfg.detectors
    trace_rows = []
    for i in range(start, stop):
        rng = np.random.default_rng([cfg.seed, snr_idx, i])
        inst = sample_instance(cfg.nt, cfg.nr, c, cfg.snr_db[snr_idx], rng)
        solver_seed = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        params = replace(cfg.sb, seed=solver_seed)
        p = prepare(inst, c)
        anchor = None
        if needs_mmse:
            try:
                anchor = mmse_detect(p)
            except DetectionFailureError:
                pass
        traced = False
        for det in cfg.detectors:
            hook = None
            want_trace = (
                cfg.trace is not None
                and snr_idx == 0
                and i == 0
                and not traced
                and det in ("sb", "sb-reg")
            )
            if want_trace:
                hook = lambda *row: trace_rows.append(row)  # noqa: E731
                traced = True
            try:
                res = _run_detector(det, p, params, anchor, cfg.r, hook)
            except (DetectionFailureError, SolverDivergenceError):
                tally[det]["failures"] += 1
                continue
            tally[det]["errors"] += int(
                np.count_nonzero(res.bits != inst.tx_bits)
            )
            tally[det]["used"] += 1
            if det == "sb-reg":
                if res.ising_energy > res.extras["mmse_energy"]:
                    tally[det]["violations"] += 1
    return snr_idx, start, tally, trace_rows


def _chunks(instances: int, workers: int):
    size = instances if workers == 1 else max(1, -(-instances // (workers * 4)))
    return [(s, min(s + size, instances)) for s in range(0, instances, size)]


def run_sweep(cfg: SweepConfig) -> list[BerRecord]:
    """Run the configured sweep and return one record per (detector, snr).

    Per-instance detector failures are counted on the record and the
    instance is skipped for that detector only, so `instances` on a
    record is the number actually counted.
    """
    c = get_constellation(cfg.modulation)
    jobs = [
        (snr_idx, start, stop)
        for snr_idx in range(len(cfg.snr_db))
        for start, stop in _chunks(cfg.instances, cfg.workers)
    ]
    if cfg.workers == 1:
        results = [_eval_chunk(cfg, *job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_eval_chunk, cfg, *job) for job in jobs]
            results = [f.result() for f in futures]
    # Fold deterministically in (snr, start) order regardless of scheduling.
    results.sort(key=lambda res: (res[0], res[1]))
    totals = {
        (snr_idx, det): {"errors": 0, "used": 0, "failures": 0, "violations": 0}
        for snr_idx in range(len(cfg.snr_db))
        for det in cfg.detectors
    }
    trace_rows = []
    for snr_idx, _start, tally, rows in results:
        trace_rows.extend(rows)
        for det, cell in tally.items():
            for key, val in cell.items():
                totals[(snr_idx, det)][key] += val
    if cfg.trace is not None:
        _write_trace(trace_rows, cfg.trace)
    bits_per_instance = cfg.nt * c.bps
    records = []
    for det in cfg.detectors:
        for snr_idx, snr in enumerate(cfg.snr_db):
            cell = totals[(snr_idx, det)]
            total_bits = cell["used"] * bits_per_instance
            ber = cell["errors"] / total_bits if total_bits else 0.0
            records.append(
                BerRecord(
                    nt=cfg.nt,
                    nr=cfg.nr,
                    modulation=cfg.modulation,
                    snr_db=snr,
                    detector=det,
                    instances=cell["used"],
                    total_bits=total_bits,
                    bit_errors=cell["errors"],
                    ber=ber,
                    steps=cfg.sb.n_steps,
                    dt=cfg.sb.dt,
                    restarts=cfg.sb.n_restarts,
                    r=cfg.r,
                    seed=cfg.seed,
                    failures=cell["failures"],
                    selection_violations=cell["violations"],
                )
            )
    records.sort(key=lambda rec: (rec.detector, rec.snr_db))
    return records


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def write_csv(records: list[BerRecord], path: str) -> None:
    """Write records as CSV with a fixed column set, sorted for diffing."""
    rows = sorted(records, key=lambda rec: (rec.detector, rec.snr_db))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in rows:
            writer.writerow(
                [
                    rec.nt,
                    rec.nr,
                    rec.modulation,
                    _fmt(rec.snr_db),
                    rec.detector,
                    rec.instances,
                    rec.total_bits,
                    rec.bit_errors,
                    f"{rec.ber:.6e}",
                    rec.steps,
                    _fmt(rec.dt),
                    rec.restarts,
                    _fmt(rec.r),
                    rec.seed,
                ]
            )


def _write_trace(rows, path: str) -> None:
    # Columns: restart, step, pump a, readout energy, then x and y vectors.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows:
            n = len(rows[0][3])
            header = ["restart", "step", "a", "energy"]
            header += [f"x{i}" for i in range(n)]
            header += [f"y{i}" for i in range(n)]
        else:
            header = ["restart", "step", "a", "energy"]
        writer.writerow(header)
        for restart, step, a, x, y, e in rows:
            row = [restart, step, f"{a:.10g}", f"{e:.10g}"]
            row += [f"{v:.10g}" for v in x]
            row += [f"{v:.10g}" for v in y]
            writer.writerow(row)


def summary_table(records: list[BerRecord]) -> str:
    """Aligned text table: one row per SNR, one BER column per detector.

    A record that counted no instance (every detection failed) shows "-".
    """
    detectors = sorted({rec.detector for rec in records})
    snrs = sorted({rec.snr_db for rec in records})
    cell = {
        (rec.snr_db, rec.detector): rec.ber for rec in records if rec.instances
    }
    width = max(12, *(len(det) + 2 for det in detectors))
    lines = [
        f"{'snr_db':>8}"
        + "".join(f"{det:>{width}}" for det in detectors)
    ]
    for snr in snrs:
        row = f"{snr:>8g}"
        for det in detectors:
            ber = cell.get((snr, det))
            row += f"{'-':>{width}}" if ber is None else f"{ber:>{width}.3e}"
        lines.append(row)
    return "\n".join(lines)
