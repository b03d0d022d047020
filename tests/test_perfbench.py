"""The benchmark's trace targets resolve in the library it traces."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def trace_targets():
    # perfbench is not a package: its tracing module is loaded by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", trace_targets(), ids=lambda t: t[2])
def test_trace_target_is_callable(target):
    # The tracer refuses a target that is missing or not callable, and the
    # benchmark then exits 2; a renamed-away target fails here first.
    mod_name, attr, _ = target
    assert callable(getattr(importlib.import_module(mod_name), attr, None))
