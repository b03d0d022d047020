"""In-memory span tracer that wraps public sbmimo functions by name.

Each wrapper replaces a module attribute, the name the calling code looks
up at call time, so a call from ``sbmimo.bench`` into ``mmse_detect`` and a
call from ``sbmimo.detectors`` into ``mmse_detect`` are told apart.  A span
records its name, start, end, parent span and the instance it belongs to;
an instance starts at each call of the instance-sampling target.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  sb_step is deliberately absent: it runs
# thousands of times per instance and a wrapper there would distort the
# solve time; step rates are derived from the solve spans instead.
TARGETS = (
    ("sbmimo.bench", "sample_instance", "bench.sample_instance"),
    ("sbmimo.bench", "mmse_detect", "bench.mmse_detect"),
    ("sbmimo.bench", "sb_detect", "bench.sb_detect"),
    ("sbmimo.bench", "ml_oracle", "bench.ml_oracle"),
    ("sbmimo.detectors", "instance_model", "detectors.instance_model"),
    ("sbmimo.detectors", "regularize", "detectors.regularize"),
    ("sbmimo.detectors", "mmse_detect", "detectors.mmse_detect"),
    ("sbmimo.detectors", "solve", "detectors.solve"),
    ("sbmimo.detectors", "energy", "detectors.energy"),
    ("sbmimo.sb", "energy", "sb.energy"),
)
INSTANCE_SPAN = "bench.sample_instance"
# Spans whose detector outcome is kept, with the detector's name.
RESULT_SPANS = {
    "bench.mmse_detect": "mmse",
    "bench.sb_detect": None,  # "sb" or "sb-reg", read from the result
    "bench.ml_oracle": "ml-oracle",
}


class Tracer:
    """Records spans for every call into TARGETS while installed."""

    def __init__(self):
        # Spans live in flat arrays, which the cyclic garbage collector does
        # not traverse; tens of thousands of span lists would slow every
        # collection and with it the code being measured.
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        # Kept detector outcomes, as tuples of scalars for the same reason:
        # (instance, detector, energy, selected, diverged_restarts, candidates).
        self.results: list[tuple] = []
        self.instances = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name):
        if name == INSTANCE_SPAN:
            self.instances += 1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.instances - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, func, name):
        keep = name in RESULT_SPANS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = func(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                ex = out.extras
                self.results.append((
                    self.instance[idx], RESULT_SPANS[name] or out.detector,
                    out.ising_energy, ex.get("selected"),
                    ex.get("diverged_restarts"), ex.get("candidates"),
                ))
            return out

        return wrapper

    def install(self):
        """Replace every target; a missing target raises, never reads zero."""
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(mod_name)
            func = getattr(module, attr, None)
            if not callable(func):
                self.uninstall()
                raise AttributeError(
                    f"trace target {mod_name}.{attr} is missing or not callable"
                )
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name))

    def uninstall(self):
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def __len__(self):
        return len(self.start)

    def durations(self):
        """Per span name: list of (duration, self time) in seconds."""
        dur = [t1 - t0 for t0, t1 in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for d, parent in zip(dur, self.parent):
            if parent >= 0:
                child[parent] += d
        out: dict[str, list[tuple[float, float]]] = {}
        for nid, d, c in zip(self.name_id, dur, child):
            out.setdefault(self.names[nid], []).append((d, d - c))
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for row in zip(self.name_id, self.start, self.end, self.parent, self.instance):
                nid, t0, t1, parent, inst = row
                fh.write(json.dumps(
                    {"name": self.names[nid], "start": t0, "end": t1,
                     "parent": parent, "instance": inst}
                ) + "\n")


def per_instance(results):
    """Group kept detector outcomes by instance: {inst: {detector: energy}}."""
    groups: dict[int, dict[str, float]] = {}
    for inst, det, energy, *_rest in results:
        groups.setdefault(inst, {})[det] = energy
    return groups


def median_us(pairs, which=0):
    return 1e6 * statistics.median(p[which] for p in pairs) if pairs else 0.0
