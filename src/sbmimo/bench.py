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
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from sbmimo.channel import (
    get_constellation,
    noise_variance_for_snr,
    sample_instance,
)
from sbmimo.detectors import (
    ORACLE_SPIN_LIMIT,
    DetectionFailureError,
    ml_oracle,
    mmse_detect,
    prepare,
    sb_detect,
    sb_solve,
)
from sbmimo.reduction import symbols_to_spins
from sbmimo.sb import SBParams, SolveResult, is_int

DETECTOR_NAMES = ("mmse", "sb", "sb-reg", "ml-oracle")
SB_FAMILY = ("sb", "sb-reg")

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


def _noise_ok(snr_db: float, nt: int, c) -> bool:
    # 10 ** (snr / 10) overflows above about 3082 dB and is 0.0 below
    # about -3233 dB; short of that the variance can still be inf (e.g.
    # -3080 dB at nt = 16).
    try:
        v = noise_variance_for_snr(snr_db, nt, c)
    except (OverflowError, ZeroDivisionError):
        return False
    return math.isfinite(v) and v > 0


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
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        try:
            c = get_constellation(self.modulation)
            object.__setattr__(self, "modulation", c.name)
        except ValueError:
            pass  # validate reports it
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def validate(self) -> list[str]:
        problems = []
        counts = {"nt": 1, "nr": 1, "instances": 1, "seed": 0, "workers": 1}
        for key, least in counts.items():
            value = getattr(self, key)
            if not (is_int(value) and value >= least):
                problems.append(
                    f"{key} must be an integer >= {least}, got {value!r}"
                )
        try:
            c = get_constellation(self.modulation)
        except ValueError as err:
            problems.append(str(err))
            c = None
        if not self.snr_db:
            problems.append("snr_db grid is empty")
        if not all(math.isfinite(s) for s in self.snr_db):
            problems.append(f"snr_db values must be finite, got {self.snr_db}")
        elif c is not None and is_int(self.nt) and self.nt >= 1:
            bad = [s for s in self.snr_db if not _noise_ok(s, self.nt, c)]
            if bad:
                problems.append(
                    f"snr_db {bad} out of range: the noise variance must be "
                    f"a finite positive number"
                )
        if not self.detectors:
            problems.append("no detectors configured")
        for det in self.detectors:
            if det not in DETECTOR_NAMES:
                problems.append(
                    f"unknown detector {det!r}; choose from {DETECTOR_NAMES}"
                )
        if len(set(self.detectors)) != len(self.detectors):
            problems.append(f"duplicate detectors in {self.detectors}")
        if len(set(self.snr_db)) != len(self.snr_db):
            problems.append(f"duplicate snr_db values in {self.snr_db}")
        if not (math.isfinite(self.r) and self.r >= 0):
            problems.append(f"r must be finite and >= 0, got {self.r}")
        if c is not None and "ml-oracle" in self.detectors and is_int(self.nt):
            spins = self.nt * c.bps
            if spins > ORACLE_SPIN_LIMIT:
                problems.append(
                    f"ml-oracle with {self.nt}x{c.name} needs {spins} spins, "
                    f"above the oracle's {ORACLE_SPIN_LIMIT}-spin limit"
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
    failures: int = 0
    selection_violations: int = 0
    ml_optimal: int = 0


# Instances per dSB block: _eval_block solves a block's instances as one
# solver state.  The cap bounds the memory a block holds at once: at
# 16x16 QPSK a block of 32 raises a sweep's peak memory by about 0.8 MiB,
# and larger blocks save little more time per instance.
_BLOCK = 32


def _instance(cfg: SweepConfig, c, snr_idx: int, i: int):
    """Sample and reduce instance i at one SNR point, and run MMSE on it.

    Returns the problem, the solver seed drawn for this instance, and the
    MMSE result, which is None when MMSE failed or no configured
    detector uses it.
    """
    rng = np.random.default_rng([cfg.seed, snr_idx, i])
    inst = sample_instance(cfg.nt, cfg.nr, c, cfg.snr_db[snr_idx], rng)
    solver_seed = int(rng.integers(0, 1 << 63, dtype=np.uint64))
    p = prepare(inst, c)
    anchor = None
    if "mmse" in cfg.detectors or "sb-reg" in cfg.detectors:
        try:
            anchor = mmse_detect(p)
        except DetectionFailureError:
            pass
    return p, solver_seed, anchor


def _eval_block(cfg: SweepConfig, snr_idx: int, start: int, stop: int):
    """Per-detector tallies of the block [start, stop) at one SNR point.

    Each instance is sampled, reduced once and run through MMSE and the
    ML oracle; then one solve per SB-family detector covers the whole
    block; then, per instance in order, the SB decisions are made and
    everything is tallied.  MMSE runs at most once per instance; its
    result is both the `mmse` decision and the `sb-reg` anchor, so an
    MMSE failure counts against both.  Bit errors are counted as spin
    mismatches against the transmitted spins: under the channel's bit
    labeling each bit is one spin.  With `ml-oracle` configured, a decision
    is ML-optimal if its energy is at most the oracle's e + 1e-9 max(1, |e|).
    """
    c = get_constellation(cfg.modulation)
    tally = {det: Counter() for det in cfg.detectors}
    problems, seeds, decided = [], [], []
    for i in range(start, stop):
        p, seed, anchor = _instance(cfg, c, snr_idx, i)
        problems.append(p)
        seeds.append(seed)
        decided.append({"mmse": anchor})
        if "ml-oracle" in cfg.detectors:
            decided[-1]["ml-oracle"] = ml_oracle(p)
    anchors = [d["mmse"] for d in decided]
    solved = {
        det: sb_solve(problems, cfg.sb, seeds,
                      anchors if det == "sb-reg" else None, cfg.r)
        for det in cfg.detectors if det in SB_FAMILY
    }
    for k, p in enumerate(problems):
        anchor = anchors[k]
        for det, outcomes in solved.items():
            if isinstance(outcomes[k], SolveResult):
                decided[k][det] = sb_detect(
                    p, outcomes[k], anchor if det == "sb-reg" else None
                )
        tx_spins = symbols_to_spins(p.inst.tx_symbols, c)
        oracle = decided[k].get("ml-oracle")
        for det in cfg.detectors:
            res = decided[k].get(det)
            if res is None:
                tally[det]["failures"] += 1
                continue
            errors = np.count_nonzero(res.spins != tx_spins)
            tally[det]["errors"] += int(errors)
            tally[det]["used"] += 1
            if det == "sb-reg":
                if res.ising_energy > anchor.ising_energy:
                    tally[det]["violations"] += 1
            if oracle is not None:
                e_ml = oracle.ising_energy
                if res.ising_energy <= e_ml + 1e-9 * max(1.0, abs(e_ml)):
                    tally[det]["optimal"] += 1
    return tally


def trace_rows(cfg: SweepConfig) -> list:
    """Solver trajectory of the sweep's first instance (SNR index 0).

    It runs under the first SB-family detector configured.  There are no
    rows when there is none, when it fails before solving, or when the
    model has no couplings (one spin, say): `solve` settles it by fields.
    Each row is (restart, step, a, x, y, energy), as `solve` reports it.
    """
    rows = []
    family = [det for det in cfg.detectors if det in SB_FAMILY]
    if family:
        c = get_constellation(cfg.modulation)
        p, seed, anchor = _instance(cfg, c, 0, 0)
        anchors = [anchor] if family[0] == "sb-reg" else None
        sb_solve([p], cfg.sb, [seed], anchors, cfg.r, [rows])
    return rows


def run_sweep(cfg: SweepConfig) -> list[BerRecord]:
    """Run the configured sweep and return one record per (detector, snr).

    Per-instance detector failures are counted on the record and the
    instance is skipped for that detector only, so `instances` on a
    record is the number actually counted.  The jobs, run in turn or
    spread over the worker processes, are the solver blocks of up to
    _BLOCK instances; no more processes start than there are jobs or
    usable CPUs.  Nothing is written (see `write_csv`, `trace_rows`
    and `write_trace`).
    """
    c = get_constellation(cfg.modulation)
    jobs = [
        (snr_idx, start, min(start + _BLOCK, cfg.instances))
        for snr_idx in range(len(cfg.snr_db))
        for start in range(0, cfg.instances, _BLOCK)
    ]
    # A pool may start all of its processes at its first submit.
    affinity = getattr(os, "sched_getaffinity", None)  # not on every OS
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cfg.workers, len(jobs), cpus)
    if workers == 1:
        tallies = [_eval_block(cfg, *job) for job in jobs]
    else:
        # Imported here: it pulls in multiprocessing, which a one-worker
        # sweep and a plain `import sbmimo` never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_eval_block, cfg, *job) for job in jobs]
            tallies = [f.result() for f in futures]
    totals = defaultdict(Counter)
    for (snr_idx, _, _), tally in zip(jobs, tallies):
        for det, cell in tally.items():
            totals[(snr_idx, det)].update(cell)
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
                    modulation=c.name,
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
                    ml_optimal=cell["optimal"],
                )
            )
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
