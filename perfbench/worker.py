"""One benchmark process: set-up, timed sweeps, a verification sweep.

Started by run.py with a fixed BLAS thread count in its environment and
``src/`` on PYTHONPATH.  Prints one JSON object on standard output.

Set-up is timed from the top of this file: importing sbmimo, resolving
the workload's JSON config through ``sbmimo.cli.parse_config`` (which
validates the SweepConfig), up to the first call of ``run_sweep``.  The
benchmark's own modules are imported after that, outside the timing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

# Nominal seconds per run_sweep call; each workload config sizes its
# instance count so one call takes about this long on a 2-core x86 host.
# Rates are medians over calls, so a burst of load from elsewhere on the
# machine spoils one call, not the run.
CHUNK_SECONDS = 2.0
SB_FAMILY = ("sb", "sb-reg")
ENERGY_RTOL = 1e-9
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=CHUNK_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced spans here (gzipped JSON lines)")
    return p.parse_args()


def machine_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def same_energy(a, b):
    return abs(a - b) <= ENERGY_RTOL * max(1.0, abs(a), abs(b))


def check_records(cfg, recs, bps, label):
    """Per-record invariants; returns a list of failure messages."""
    problems = []
    for rec in recs:
        where = f"{label} {rec.detector}@{rec.snr_db:g}dB"
        if rec.detector == "sb-reg" and rec.selection_violations != 0:
            problems.append(f"{where}: {rec.selection_violations} selection violations")
        if rec.total_bits != rec.instances * cfg.nt * bps:
            problems.append(f"{where}: total_bits {rec.total_bits} != instances x nt x bps")
        if rec.instances + rec.failures != cfg.instances:
            problems.append(
                f"{where}: instances {rec.instances} + failures {rec.failures} "
                f"!= configured {cfg.instances}"
            )
    return problems


def check_oracle(results):
    """Per instance, the oracle's energy is no higher than any detector's."""
    from tracing import per_instance

    problems = []
    for inst, energies in per_instance(results).items():
        best = energies.get("ml-oracle")
        if best is None:
            continue
        for det, e in energies.items():
            if best > e and not same_energy(best, e):
                problems.append(f"instance {inst}: ml-oracle {best!r} > {det} {e!r}")
    return problems


def per_layer(cfg, bps, tracer, chunks):
    """Per-layer metrics from the traced chunks, times at nominal speed."""
    from tracing import median_us, per_instance

    traced = [c for c in chunks if c["traced"]]
    untraced = [c for c in chunks if not c["traced"]]
    speed = statistics.median(c["speed"] for c in traced)
    d = {
        name: [(dur * speed, own * speed) for dur, own in pairs]
        for name, pairs in tracer.durations().items()
    }
    inst = tracer.instances

    def spans(*names):
        return [p for n in names for p in d.get(n, [])]

    def total(*names, which=0):
        return sum(p[which] for p in spans(*names))

    def ratio(num, den):
        return num / den if den else 0.0

    n_spins = cfg.nt * bps
    steps, restarts = cfg.sb.n_steps, cfg.sb.n_restarts
    solve_s = total("detectors.solve")
    solve_calls = len(spans("detectors.solve"))
    sb_family = [r for r in tracer.results if r[1] in SB_FAMILY]
    sb_reg = [r for r in sb_family if r[1] == "sb-reg"]
    oracle = [r for r in tracer.results if r[1] == "ml-oracle"]
    paired = [
        g for g in per_instance(tracer.results).values()
        if "sb" in g and "ml-oracle" in g
    ]
    untraced_rate = statistics.median(c["rate"] for c in untraced)
    traced_rate = statistics.median(c["rate"] for c in traced)
    return {
        "channel.sample_us": median_us(spans("bench.sample_instance")),
        "reduction.builds_per_instance": ratio(len(spans("detectors.instance_model")), inst),
        "reduction.build_us": median_us(spans("detectors.instance_model")),
        "reduction.regularize_us": median_us(spans("detectors.regularize")),
        "detectors.mmse_calls_per_instance": ratio(
            len(spans("bench.mmse_detect", "detectors.mmse_detect")), inst
        ),
        "detectors.mmse_us": median_us(spans("bench.mmse_detect", "detectors.mmse_detect")),
        "detectors.oracle_us": median_us(spans("bench.ml_oracle")),
        "detectors.oracle_candidates_per_s": ratio(
            sum(r[5] for r in oracle), total("bench.ml_oracle")
        ),
        "detectors.sb_detect_self_us": median_us(spans("bench.sb_detect"), which=1),
        "detectors.anchor_fallback_frac": ratio(
            sum(r[3] == "mmse" for r in sb_reg), len(sb_reg)
        ),
        "sb.solve_us": median_us(spans("detectors.solve")),
        "sb.solve_share": ratio(solve_s, total("bench.run_sweep")),
        "sb.spin_updates_per_s": ratio(steps * restarts * n_spins * solve_calls, solve_s),
        # Computed, not counted: one N x N matrix-vector product per step.
        "sb.gflops_computed": ratio(
            2 * n_spins**2 * steps * restarts * solve_calls, 1e9 * solve_s
        ),
        "sb.diverged_restart_frac": ratio(
            sum(r[4] for r in sb_family), restarts * len(sb_family)
        ),
        "sb.optimal_frac": ratio(
            sum(same_energy(g["sb"], g["ml-oracle"]) for g in paired), len(paired)
        ),
        "ising.energy_calls_per_instance": ratio(
            len(spans("detectors.energy", "sb.energy")), inst
        ),
        "bench.self_us_per_instance": ratio(1e6 * total("bench.run_sweep", which=1), inst),
        "bench.wall_instances_per_s": statistics.median(c["wall_rate"] for c in untraced),
        "bench.machine_speed": statistics.median(c["speed"] for c in chunks),
        "trace.untraced_instances_per_s": untraced_rate,
        "trace.traced_instances_per_s": traced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    }


def main():
    args = parse_args()
    import numpy as np

    import sbmimo
    from sbmimo import cli

    t_parse = time.perf_counter()
    cfg = cli.parse_config(["--config", args.config, "--seed", str(args.seed)])
    t_ready = time.perf_counter()
    setup = {"setup_s": t_ready - _T0, "parse_config_ms": 1e3 * (t_ready - t_parse)}
    if not Path(sbmimo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"sbmimo was imported from {sbmimo.__file__}, not from {SRC}")
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    from reference import ReferenceProcess
    from tracing import Tracer

    from sbmimo.bench import run_sweep
    from sbmimo.channel import get_constellation

    bps = get_constellation(cfg.modulation).bps
    n_chunks = max(2, round(args.seconds / CHUNK_SECONDS))
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(n_chunks + 1)]
    points = cfg.instances * len(cfg.snr_db)

    # Warm-up: first-call costs (lazy imports, BLAS init) stay out of the rates.
    run_sweep(replace(cfg, instances=1, seed=seeds[-1]))

    tracer = Tracer()
    records, chunks = [], []
    # The reference runs between sweeps; each sweep takes the mean speed of
    # the runs just before and just after it.  It runs in a process of its
    # own so that its arrays stay out of this process's peak memory.
    with ReferenceProcess() as reference:
        before = reference.speed()
        for k in range(n_chunks):
            chunk = replace(cfg, seed=seeds[k])
            traced = args.trace == 1 and k % 2 == 1
            if traced:
                with tracer.installed(), tracer.span("bench.run_sweep"):
                    t = time.perf_counter()
                    recs = run_sweep(chunk)
                    dt = time.perf_counter() - t
            else:
                t = time.perf_counter()
                recs = run_sweep(chunk)
                dt = time.perf_counter() - t
            after = reference.speed()
            speed = 0.5 * (before + after)
            before = after
            records.append(recs)
            chunks.append({
                "seed": seeds[k], "traced": traced, "seconds": dt, "speed": speed,
                "wall_rate": points / dt, "rate": points / dt / speed,
            })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Verification sweep: the first chunk again, traced, so every detector
    # outcome is seen per instance and the rerun must match bit for bit.
    verify = Tracer()
    with verify.installed(), verify.span("bench.run_sweep"):
        rerun = run_sweep(replace(cfg, seed=seeds[0]))

    problems = []
    for k, recs in enumerate(records):
        problems += check_records(cfg, recs, bps, f"chunk {k}")
    problems += check_records(cfg, rerun, bps, "rerun")
    first = [(r.detector, r.snr_db, r.bit_errors, r.total_bits) for r in records[0]]
    again = [(r.detector, r.snr_db, r.bit_errors, r.total_bits) for r in rerun]
    if first != again:
        problems.append(f"same seed, different bit errors: {first} vs {again}")
    problems += check_oracle(verify.results)
    problems += check_oracle(tracer.results)

    flat = [r for recs in records for r in recs]
    solver = [r for r in flat if r.detector in SB_FAMILY]
    attempted = n_chunks * points * len(cfg.detectors)
    failed = sum(r.failures for r in flat)
    bits = sum(r.total_bits for r in solver)
    untraced = [c for c in chunks if not c["traced"]]
    out = {
        "setup": setup,
        "machine": machine_info(np),
        "config": asdict(cfg),
        "instances_per_chunk": points,
        "chunks": chunks,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "instances_per_s": statistics.median(c["rate"] for c in untraced),
            "peak_rss_mb": peak_rss_mb,
            "solver_ber": sum(r.bit_errors for r in solver) / bits if bits else math.nan,
            "completed_frac": 1.0 - failed / attempted,
        },
        "records": [asdict(r) for r in flat],
    }
    if args.trace == 1:
        out["per_layer"] = per_layer(cfg, bps, tracer, chunks)
        out["spans"] = len(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
