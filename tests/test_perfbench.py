"""The benchmark's trace targets resolve in the library it traces, and
its tracer keeps every detector's outcome of a sweep."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing():
    # perfbench is not a package: its tracing module is loaded by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_targets():
    return tracing().TARGETS


@pytest.mark.parametrize("target", trace_targets(), ids=lambda t: t[2])
def test_trace_target_is_callable(target):
    # The tracer refuses a target that is missing or not callable, and the
    # benchmark then exits 2; a renamed-away target fails here first.
    mod_name, attr, _ = target
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def test_tracer_keeps_one_outcome_per_point_and_detector():
    # The benchmark's oracle check pairs the outcomes its wrappers keep;
    # a wrapper that no longer fits a detector's signature, or that
    # stops keeping outcomes, fails here, not only in the benchmark run.
    from sbmimo.bench import DETECTOR_NAMES, SweepConfig, run_sweep
    from sbmimo.sb import SBParams

    cfg = SweepConfig(nt=2, nr=2, snr_db=(5.0, 15.0), instances=20,
                      detectors=DETECTOR_NAMES, sb=SBParams(n_steps=20))
    with tracing().Tracer().installed() as tracer:
        records = run_sweep(cfg)
    assert sum(rec.failures for rec in records) == 0
    kept = Counter(det for _, det, *_rest in tracer.results)
    points = len(cfg.snr_db) * cfg.instances
    assert kept == dict.fromkeys(("mmse", "sb", "sb-reg", "ml-oracle"), points)
