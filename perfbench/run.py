"""sbmimo benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; sbmimo is imported from its
``src/``.  Every run starts fresh child processes with one BLAS thread:
SETUP_PROCESSES that only set up (import, config resolution) and one
worker that sets up, sweeps for about S seconds through
``sbmimo.bench.run_sweep`` with ``workers=1`` (a closed loop with one
caller: each instance starts when the previous one is done), then reruns
its first sweep traced to check the outputs.  Timings are divided by the
machine's speed, measured around each of them with ``reference.py``.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced sweeps and prints the
per-layer metrics from the traced ones, plus the tracing overhead.
Metric names and units are those of BENCHMARK.json at the root.

The last line of standard output is the JSON result.  The exit code is 1
if a correctness check fails and 2 if the run could not be made.
A record of the machine, settings and results is written under
``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import ReferenceProcess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 7
BLAS_THREADS = 1
# Claims made with this benchmark must also hold on this seed, which is
# kept out of tuning and of the runs a change is developed against.
HELD_OUT_SEED = 90217
TIME_LIMIT_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        fail(f"child timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"child exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    """SHA-256 over src/ so a record names its code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sbmimo" / "__init__.py").is_file():
        fail(f"no sbmimo sources under {ROOT / 'src'}")
    config = HERE / "workloads" / f"{args.workload}.json"

    common = ["--config", str(config), "--seed", str(args.seed)]
    setups = []
    with ReferenceProcess(child_env()) as reference:
        before = reference.speed()
        for _ in range(SETUP_PROCESSES):
            setup = run_child([*common, "--setup-only"], 60)["setup"]
            after = reference.speed()
            setup["speed"] = 0.5 * (before + after)
            before = after
            setups.append(setup)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--spans", str(results_dir / f"{stem}-spans.jsonl.gz")]
    out = run_child(worker_args, TIME_LIMIT_S - (time.monotonic() - start))

    if args.trace:
        values = dict(out["per_layer"])
        values["cli.parse_config_ms"] = statistics.median(
            s["parse_config_ms"] * s["speed"] for s in setups
        )
        wanted = spec["per_layer"]
    else:
        values = dict(out["end_to_end"])
        values["setup_s"] = statistics.median(s["setup_s"] * s["speed"] for s in setups)
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        fail(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    problems = out["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "blas_threads_fixed": BLAS_THREADS,
        "setup_samples": setups,
        "metrics": metrics,
        **{k: v for k, v in out.items() if k not in ("end_to_end", "per_layer")},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
