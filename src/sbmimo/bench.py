"""Monte-Carlo BER sweep harness.

Each (snr, instance-index) pair owns a deterministic RNG stream derived
from (master seed, snr index, instance index), so results are identical
no matter how blocks of instances are spread across worker processes.
Every configured detector runs on the same instance (paired comparison).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from sbmimo.channel import (
    get_constellation,
    noise_variance_for_snr,
    sample_instance,
)
from sbmimo.detectors import (
    ORACLE_SPIN_LIMIT,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
    sb_solve,
)
from sbmimo.reduction import level_spins
from sbmimo.sb import SBParams, setting

DETECTOR_NAMES = ("mmse", "sb", "sb-reg", "ml-oracle")
SB_FAMILY = ("sb", "sb-reg")

# How the snr_db column is defined: receive-side signal power over noise
# power, E[|Hx|^2] / E[|n|^2], under a unit-variance Rayleigh channel.
SNR_DEFINITION = "rx:E[|Hx|^2]/E[|n|^2]"

CSV_COLUMNS = (
    "nt,nr,modulation,snr_db,detector,instances,total_bits,bit_errors,"
    "ber,steps,dt,restarts,r,seed"
).split(",")


# snr_range's most points, far above any real sweep's (at most 11 here).
SNR_POINT_LIMIT = 10_000


def snr_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic SNR grid, robust to float step accumulation;
    a grid above SNR_POINT_LIMIT points is refused unbuilt."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"bounds must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} below start {start}")
    span = (stop - start) / step  # inf where it overflows; floor refuses inf
    count = math.floor(span + 1e-9) + 1 if span < math.inf else span
    if count > SNR_POINT_LIMIT:
        raise ValueError(f"the grid has {count} points, above the limit "
                         f"of {SNR_POINT_LIMIT}")
    return tuple(round(start + k * step, 10) for k in range(count))


def _noise_ok(snr_db: float, nt: int, c) -> bool:
    # 10 ** (snr / 10) overflows above about 3082 dB and is 0.0 below
    # about -3233 dB; short of that the variance can still be inf (e.g.
    # -3080 dB at nt = 16).
    try:
        v = noise_variance_for_snr(snr_db, nt, c)
    except (OverflowError, ZeroDivisionError):
        return False
    return math.isfinite(v) and v > 0


def _items(value):
    # The items of an iterable other than a string as a tuple, else None.
    if isinstance(value, str):
        return None
    try:
        return tuple(value)
    except TypeError:  # not iterable
        return None


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
    workers: int = 1

    def __post_init__(self):
        # A string would be swept per character.
        snr = _items(self.snr_db)
        if snr is None:
            raise ValueError(f"snr_db must hold numbers, got {self.snr_db!r}")
        detectors = _items(self.detectors)
        if detectors is None or not all(isinstance(d, str) for d in detectors):
            raise ValueError(
                f"detectors must hold names, got {self.detectors!r}"
            )
        if not isinstance(self.sb, SBParams):
            raise ValueError(f"sb must be an SBParams, got {self.sb!r}")
        object.__setattr__(self, "detectors", detectors)
        problems = []
        # Each number is stored as the Python int or float that runs, or
        # as None when it is bad.  An int bound makes a setting a count.
        least = {"nt": 1, "nr": 1, "instances": 1, "seed": 0, "workers": 1,
                 "r": 0.0, "snr_db": -math.inf}
        for key, low in least.items():
            many = key == "snr_db"  # the one setting of several numbers
            values = []
            for value in snr if many else [getattr(self, key)]:
                try:
                    values.append(setting(key, value, low))
                except ValueError as err:
                    problems.append(str(err))
                    values.append(None)
            object.__setattr__(self, key, tuple(values) if many else values[0])
        points = [s for s in self.snr_db if s is not None]
        try:
            c = get_constellation(self.modulation)
            object.__setattr__(self, "modulation", c.name)
        except ValueError as err:
            problems.append(str(err))
            c = None
        if not snr:
            problems.append("snr_db grid is empty")
        if c is not None and self.nt is not None:
            bad = [s for s in points if not _noise_ok(s, self.nt, c)]
            if bad:
                problems.append(
                    f"snr_db {bad} out of range: the noise variance must be "
                    f"a finite positive number"
                )
            spins = self.nt * c.bps
            if "ml-oracle" in self.detectors and spins > ORACLE_SPIN_LIMIT:
                problems.append(
                    f"ml-oracle at nt={self.nt} {c.name} needs {spins} spins, "
                    f"above the oracle's {ORACLE_SPIN_LIMIT}-spin limit"
                )
        if not self.detectors:
            problems.append("no detectors configured")
        for det in self.detectors:
            if det not in DETECTOR_NAMES:
                problems.append(
                    f"unknown detector {det!r} in detectors; choose from "
                    f"{DETECTOR_NAMES}"
                )
        if len(set(self.detectors)) != len(self.detectors):
            problems.append(f"duplicate detectors in {self.detectors}")
        if len(set(points)) != len(points):
            problems.append(f"duplicate snr_db values in {self.snr_db}")
        if problems:
            raise ValueError("; ".join(problems))


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
    failures: int = 0
    selection_violations: int = 0
    ml_optimal: int = 0


# The BerRecord fields a block counts per detector and point, in the order
# of _eval_block's count axis.
_COUNTS = ("instances", "bit_errors", "failures", "selection_violations",
           "ml_optimal")

# Sweep points per dSB block, of any SNR: _eval_block solves a block as one
# solver state, and the ML oracle searches it once.  In ten alternating
# perfbench runs each at seeds 3 and 90217 (2 cores, one BLAS thread),
# qpsk16-mmse-sbreg read medians of 3,239 and 3,248 instances/s at 32
# points and 4,096 and 4,117 at 64, with peak RSS 40.7 MiB at 32 and
# 41.9 at 64 on both seeds.
_BLOCK = 64


def _eval_block(cfg: SweepConfig, points, trace=None):
    """The counts of one block of sweep points, summed per SNR point, as
    an int array of shape (detector, count, SNR point) in cfg.detectors,
    _COUNTS and cfg.snr_db order.

    points holds sweep point indices in SNR-major order, each point's SNR
    index and instance its divmod by cfg.instances, and may span several
    SNR points.
    Each point is sampled from its own RNG stream; the block is reduced,
    with every MMSE decision taken and scored, by one `prepare` call into
    one `Problem`.  Each detector decides the block as one
    `DetectionResult` of arrays: p.mmse, p.oracle, or an `sb_solve` of
    the whole block.  The tally reads each record's done mask, spins and
    energies: an undecided point is a failure, whose NaN energy meets no
    energy test, and counts no bit error.  `sb-reg` is anchored at each
    point's MMSE decision, so an MMSE failure counts against both.  Bit
    errors are spin mismatches against the spins of the sent levels:
    under the channel's bit labeling each bit is one spin.  With
    `ml-oracle` configured, a decision is ML-optimal if its energy is at
    most the oracle's e + 1e-9 max(1, |e|).  trace, when given, holds one
    list per point, and only the first SB-family detector's solve extends
    it (see `trace_rows`).
    """
    c = get_constellation(cfg.modulation)
    insts, seeds = [], []
    for point in points:
        snr_idx, i = divmod(point, cfg.instances)
        rng = np.random.default_rng([cfg.seed, snr_idx, i])
        insts.append(
            sample_instance(cfg.nt, cfg.nr, c, cfg.snr_db[snr_idx], rng)
        )
        seeds.append(int(rng.integers(0, 1 << 63, dtype=np.uint64)))
    p = prepare(insts, c)
    # perfbench wraps the lookups and checks what they return: so each
    # runs once per decided point, in this order (the first ml_oracle
    # call runs the oracle's search).
    decided = {}
    e_ml = np.full(len(points), np.nan)  # no oracle: none is ML-optimal
    if "mmse" in cfg.detectors:
        decided["mmse"] = p.mmse
        for b in np.flatnonzero(p.mmse.done).tolist():
            mmse_detect(p, b)
    if "ml-oracle" in cfg.detectors:
        for b in range(len(points)):
            ml_oracle(p, b)
        decided["ml-oracle"] = p.oracle
        e_ml = p.oracle.ising_energy
    for det in [d for d in cfg.detectors if d in SB_FAMILY]:
        r = cfg.r if det == "sb-reg" else None
        solved = decided[det] = sb_solve(p, cfg.sb, seeds, r, trace)
        trace = None  # the first SB-family solve alone is traced
        for b in np.flatnonzero(solved.done).tolist():
            sb_detect(solved, b)
    sent = level_spins(np.array([inst.tx_levels for inst in insts]), c)
    zero = np.zeros(len(points), dtype=bool)
    counts = []
    for det in cfg.detectors:
        res = decided[det]
        e = res.ising_energy
        counts.append([  # in _COUNTS order
            res.done,
            np.count_nonzero(res.spins != sent, axis=1) * res.done,
            ~res.done,
            e > p.mmse.ising_energy if det == "sb-reg" else zero,
            e <= e_ml + 1e-9 * np.maximum(1.0, abs(e_ml)),
        ])
    counts = np.array(counts, dtype=np.int64)
    totals = np.zeros((*counts.shape[:2], len(cfg.snr_db)), dtype=np.int64)
    np.add.at(totals, (..., np.asarray(points) // cfg.instances), counts)
    return totals


def trace_rows(cfg: SweepConfig) -> list:
    """Solver trajectory of the sweep's first instance (SNR index 0).

    It is taken from that instance's own block of one, sweep point 0,
    under the first SB-family detector configured.  There are no rows
    when there is none, when it fails before solving, or when the model
    has no couplings (one spin, say): `solve` settles it by fields.  Each
    row is (restart, step, a, x, y, energy), as `solve` reports it.
    """
    rows = []
    _eval_block(cfg, range(1), [rows])
    return rows


def run_sweep(cfg: SweepConfig) -> list[BerRecord]:
    """Run the configured sweep and return one record per (detector, snr).

    Per-instance detector failures are counted on the record and the
    instance is skipped for that detector only, so `instances` on a
    record is the number actually counted.  The sweep's points, indexed
    in SNR-major order, are cut into solver blocks of up to _BLOCK
    consecutive points, whatever their SNR.  The jobs, run in turn or
    spread over the worker processes, are those blocks as index ranges;
    no more processes start than there are jobs or usable CPUs.  Each
    block's counts come summed per SNR point and are added as they
    arrive, so the sweep keeps no per-point bookkeeping.  Nothing is
    written (see `write_csv`, `trace_rows` and `write_trace`).
    """
    c = get_constellation(cfg.modulation)
    points = range(len(cfg.snr_db) * cfg.instances)
    jobs = [points[k:k + _BLOCK] for k in range(0, len(points), _BLOCK)]
    # A pool may start all of its processes at its first submit.
    affinity = getattr(os, "sched_getaffinity", None)  # not on every OS
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cfg.workers, len(jobs), cpus)
    if workers == 1:
        counts = sum(_eval_block(cfg, job) for job in jobs)
    else:
        # Imported here: it pulls in multiprocessing, which a one-worker
        # sweep and a plain `import sbmimo` never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_eval_block, cfg, job) for job in jobs]
            counts = sum(f.result() for f in futures)
    totals = counts.transpose(0, 2, 1).tolist()  # per (detector, SNR point)
    bits_per_instance = cfg.nt * c.bps
    records = []
    for det, cells in zip(cfg.detectors, totals):
        for snr, cell in zip(cfg.snr_db, cells):
            tally = dict(zip(_COUNTS, cell))
            total_bits = tally["instances"] * bits_per_instance
            ber = tally["bit_errors"] / total_bits if total_bits else 0.0
            records.append(BerRecord(
                nt=cfg.nt, nr=cfg.nr, modulation=c.name, snr_db=snr,
                detector=det, total_bits=total_bits, ber=ber,
                steps=cfg.sb.n_steps, dt=cfg.sb.dt, restarts=cfg.sb.n_restarts,
                r=cfg.r, seed=cfg.seed, **tally,
            ))
    records.sort(key=lambda rec: (rec.detector, rec.snr_db))
    return records


def _fmt(value) -> str:
    """A float as its "g" text when that reads back as the same float,
    else as its repr; anything else as str."""
    if isinstance(value, float):
        text = format(value, "g")
        return text if float(text) == value else repr(value)
    return str(value)


def write_csv(records: list[BerRecord], path: str) -> None:
    """Write records as CSV with a fixed column set, sorted for diffing."""
    rows = sorted(records, key=lambda rec: (rec.detector, rec.snr_db))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in rows:
            writer.writerow(
                f"{rec.ber:.6e}" if col == "ber" else _fmt(getattr(rec, col))
                for col in CSV_COLUMNS
            )


def write_trace(rows, path: str) -> None:
    """Write `trace_rows` output as CSV: restart, step, pump a, readout
    energy, then the x and y vectors."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["restart", "step", "a", "energy"]
        if rows:
            n = len(rows[0][3])
            header += [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
        writer.writerow(header)
        for restart, step, a, x, y, e in rows:
            row = [restart, step, f"{a:.10g}", f"{e:.10g}"]
            row += [f"{v:.10g}" for v in x]
            row += [f"{v:.10g}" for v in y]
            writer.writerow(row)


def summary_table(records: list[BerRecord]) -> str:
    """Aligned text table: one row per SNR, one BER column per detector.

    A record that counted no instance (every detection failed) shows "-".
    When `ml-oracle` ran beside another detector, a second table in the
    same layout follows, with each other detector's ML-optimal decisions
    as `ml_optimal/instances`.
    """
    detectors = sorted({rec.detector for rec in records})
    snrs = sorted({rec.snr_db for rec in records})
    cell = {(rec.snr_db, rec.detector): rec for rec in records}

    def table(dets, text):
        width = max([12, *(len(det) + 2 for det in dets)])
        lines = [f"{'snr_db':>8}" + "".join(f"{det:>{width}}" for det in dets)]
        for snr in snrs:
            row = f"{_fmt(snr):>8}"
            for det in dets:
                row += f"{text(cell.get((snr, det))):>{width}}"
            lines.append(row)
        return lines

    lines = table(detectors, lambda rec: f"{rec.ber:.3e}"
                  if rec is not None and rec.instances else "-")
    others = [det for det in detectors if det != "ml-oracle"]
    if "ml-oracle" in detectors and others:
        lines.append("ML-optimal decisions (of instances counted):")
        lines += table(others, lambda rec: "-" if rec is None
                       else f"{rec.ml_optimal}/{rec.instances}")
    return "\n".join(lines)
