import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbmimo
from sbmimo.bench import (
    SNR_POINT_LIMIT,
    BerRecord,
    SweepConfig,
    run_sweep,
    snr_range,
    summary_table,
    trace_rows,
    write_csv,
    write_trace,
)
from sbmimo.sb import SBParams

# The kinds of number a count or a real setting accepts.
INT_KINDS = (int, np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64)
REAL_KINDS = (*INT_KINDS, np.float16, np.float32, np.float64, np.longdouble,
              Fraction)

CSV_HEADER = (
    "nt,nr,modulation,snr_db,detector,instances,total_bits,bit_errors,"
    "ber,steps,dt,restarts,r,seed"
)


def small_config(**kw):
    base = dict(
        nt=2, nr=2, modulation="qpsk", snr_db=(5.0, 10.0), instances=25,
        detectors=("mmse", "sb"), sb=SBParams(n_steps=30, dt=0.5),
        r=0.5, seed=7, workers=1,
    )
    base.update(kw)
    return SweepConfig(**base)


def fail_mmse(monkeypatch, where=lambda h: np.full(len(h), True)):
    # MMSE takes no decision on the instances of a block, h (B, nr, nt),
    # that `where` picks: the solve that feeds prepare reports none.
    import sbmimo.detectors

    spins = sbmimo.detectors._mmse_spins

    def failing(h, *args):
        s, ok = spins(h, *args)
        return s, ok & ~where(h)

    monkeypatch.setattr(sbmimo.detectors, "_mmse_spins", failing)


class TestSnrRange:
    def test_inclusive_grid(self):
        assert snr_range(0.0, 25.0, 2.5) == (
            0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0
        )

    def test_single_point(self):
        assert snr_range(10.0, 10.0, 1.0) == (10.0,)

    def test_uneven_step_stops_below(self):
        assert snr_range(0.0, 10.0, 4.0) == (0.0, 4.0, 8.0)

    def test_point_count_is_bounded(self):
        # Refused before the grid is built, with the count named.
        limit = SNR_POINT_LIMIT
        assert len(snr_range(1.0, float(limit), 1.0)) == limit
        with pytest.raises(ValueError, match=f"has {limit + 1} points"):
            snr_range(0.0, float(limit), 1.0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            snr_range(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            snr_range(10.0, 0.0, 1.0)


class TestConfigValidation:
    def test_defaults(self):
        cfg = SweepConfig()
        assert (cfg.nt, cfg.nr, cfg.modulation) == (16, 16, "qpsk")
        assert cfg.snr_db == snr_range(0.0, 25.0, 2.5)
        assert cfg.instances == 10_000
        assert cfg.detectors == ("mmse", "sb-reg")
        assert (cfg.sb.n_steps, cfg.sb.dt, cfg.sb.n_restarts) == (100, 0.5, 1)
        assert cfg.r == 0.5 and cfg.seed == 0 and cfg.workers == 1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(instances=0),
            dict(detectors=()),
            dict(detectors=("mmse", "mmse")),
            dict(detectors=("zf",)),
            dict(modulation="qam64"),
            dict(nt=0),
            dict(r=-1.0),
            dict(workers=0),
            dict(snr_db=()),
            dict(modulation="qam16", nt=8, detectors=("ml-oracle",)),
            # 10 ** (snr / 10) overflows; underflows to 0; the noise
            # variance 32 / 1e-308 is inf.
            dict(snr_db=(5.0, 4000.0)),
            dict(snr_db=(-4000.0,)),
            dict(nt=16, nr=16, snr_db=(-3080.0,)),
            dict(modulation=5),
            dict(snr_db=(5.0, 5.0)),
            # A string was swept per character ("25" gave 2 and 5 dB), and
            # a bool passed as 1.0 or 0.0.
            dict(snr_db="10"),
            dict(snr_db="25"),
            dict(snr_db=(5.0, True)),
            dict(r=True),
            # Each was accepted and failed in run_sweep, or raised a
            # TypeError or a ValueError that did not name the setting.
            dict(sb=None),
            dict(sb=None, detectors=("mmse",)),
            dict(sb={"n_steps": 30}),
            dict(sb="default"),
            dict(snr_db=5.0),
            dict(snr_db=(None,)),
            dict(snr_db=("5",)),
            dict(snr_db=("abc",)),
            dict(detectors=None),
            # An integer beyond the float range raised an OverflowError.
            dict(snr_db=(10**400,)),
            dict(r=10**400),
            # nt * bps wrapped to 0 in uint8 arithmetic, so the oracle's
            # spin limit never applied.
            dict(nt=np.uint8(128), nr=np.uint8(128), modulation="qam16",
                 detectors=("ml-oracle",)),
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        # The message names a setting that was given.
        with pytest.raises(ValueError, match=rf"\b({'|'.join(kw)})\b"):
            small_config(**kw)

    @pytest.mark.parametrize("value", ["0.5", None], ids=["str", "none"])
    def test_r_must_be_a_number(self, value):
        # A value the CLI did not convert fails as a bad setting, not as
        # a TypeError from math.isfinite.
        with pytest.raises(ValueError, match="r must be"):
            small_config(r=value)

    def test_detectors_must_not_be_a_string(self):
        # A string would be swept per character: "unknown detector 'm'".
        with pytest.raises(ValueError, match="detectors must hold names"):
            small_config(detectors="mmse")

    def test_extreme_snr_within_float_range_accepted(self):
        # Near the ends of the float range: at nt = 2 QPSK, 3080 dB gives
        # a noise variance of 4e-308 and -3000 dB one of 4e300.
        cfg = small_config(snr_db=(3080.0, -3000.0))
        assert cfg.snr_db == (3080.0, -3000.0)

    @pytest.mark.parametrize(
        "key", ["nt", "nr", "instances", "seed", "workers"]
    )
    def test_counts_must_be_integers(self, key):
        # nt = 2.5 used to pass validation and fail later inside numpy.
        for value in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                small_config(**{key: value})
        assert getattr(small_config(**{key: np.int64(2)}), key) == 2

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_numbers_are_stored_as_the_python_value_that_runs(self, data):
        # Every accepted kind of number is stored as the exact int or
        # float it converts to, so what was checked is what runs and
        # what write_csv writes.
        def number(kinds, low, high):
            # A number of one of kinds in [low, high].
            kind = data.draw(st.sampled_from(kinds))
            if kind in INT_KINDS:
                lo, hi = math.ceil(low), math.floor(high)
                if kind is not int:
                    lo = max(lo, np.iinfo(kind).min)
                    hi = min(hi, np.iinfo(kind).max)
                return kind(data.draw(st.integers(lo, hi)))
            value = kind(data.draw(st.floats(low, high)))
            assume(low <= float(value) <= high)  # float16 may round out
            return value

        def count(least):
            return number(INT_KINDS, least, 100)

        def real(low, high):
            return number(REAL_KINDS, low, high)

        sweep = dict(
            nt=count(1), nr=count(1), instances=count(1), seed=count(0),
            workers=count(1), r=real(0.0, 100.0),
            snr_db=tuple(real(-50.0, 50.0) for _ in range(2)),
        )
        assume(float(sweep["snr_db"][0]) != float(sweep["snr_db"][1]))
        sb = dict(n_steps=count(1), dt=real(1e-3, 10.0), n_restarts=count(1))
        cfg = SweepConfig(**sweep, sb=SBParams(**sb), detectors=("mmse",))
        for obj, values in ((cfg, sweep), (cfg.sb, sb)):
            for key, value in values.items():
                ran = getattr(obj, key)
                if key == "snr_db":
                    assert ran == tuple(float(v) for v in value)
                    assert {type(v) for v in ran} == {float}
                elif key in ("r", "dt"):
                    assert type(ran) is float and ran == float(value)
                else:
                    assert type(ran) is int and ran == int(value)

    def test_oracle_guard_boundary(self):
        # 6 users QAM16 = 24 spins: allowed; 7 = 28: refused.
        small_config(modulation="qam16", nt=6, detectors=("ml-oracle",),
                     instances=1)
        with pytest.raises(ValueError, match="spin"):
            small_config(modulation="qam16", nt=7, detectors=("ml-oracle",),
                         instances=1)


class TestRunSweep:
    def test_small_numpy_integer_sizes_do_not_wrap(self):
        # 130 * 2 spins wrapped to 4 in uint8 arithmetic, and the sweep
        # failed in sample_instance's reshape.
        cfg = SweepConfig(nt=np.uint8(130), nr=np.uint8(130),
                          detectors=("mmse",), snr_db=(10.0,), instances=2)
        (rec,) = run_sweep(cfg)
        assert rec.instances == 2 and rec.total_bits == 520

    def test_noise_free_mmse_is_error_free(self):
        cfg = SweepConfig(
            nt=2, nr=2, modulation="qpsk", snr_db=(60.0,), instances=100,
            detectors=("mmse",), sb=SBParams(), seed=1,
        )
        (rec,) = run_sweep(cfg)
        assert rec.bit_errors == 0 and rec.ber == 0.0
        assert rec.instances == 100
        assert rec.total_bits == 100 * 2 * 2

    def test_record_shape_and_invariants(self):
        cfg = small_config()
        records = run_sweep(cfg)
        assert len(records) == len(cfg.snr_db) * len(cfg.detectors)
        for rec in records:
            assert rec.ber == rec.bit_errors / rec.total_bits
            assert rec.total_bits == rec.instances * cfg.nt * 2
            assert rec.instances == cfg.instances and rec.failures == 0
            assert (rec.steps, rec.dt, rec.restarts) == (30, 0.5, 1)

    def test_deterministic_reruns(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert a == b

    def test_worker_count_does_not_change_records(self):
        a = run_sweep(small_config(workers=1))
        b = run_sweep(small_config(workers=2))
        assert a == b

    def test_bookkeeping_does_not_grow_with_the_instances(self):
        # The sweep's own memory is its blocks', not a tuple and a count
        # column per point: ten times the instances must not take ten
        # times the peak.  Building every point's pair and concatenating
        # the blocks' columns read 1,139 KiB at 6,400 instances against
        # 140 KiB at 640; adding per-SNR sums reads 80 against 64 KiB.
        import tracemalloc

        def peak(instances):
            cfg = SweepConfig(nt=1, nr=1, modulation="bpsk", snr_db=(5.0,),
                              instances=instances, detectors=("mmse",))
            tracemalloc.start()
            try:
                run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # imports and caches outside the measured runs
        assert peak(6400) < 1.5 * peak(640)

    def test_failed_detections_skip_instance_for_that_detector(
        self, monkeypatch
    ):
        fail_mmse(monkeypatch)
        records = run_sweep(small_config(
            snr_db=(5.0,), instances=10, detectors=("mmse", "sb", "sb-reg"),
        ))
        by_det = {rec.detector: rec for rec in records}
        assert by_det["mmse"].failures == 10
        assert by_det["mmse"].instances == 0
        assert by_det["mmse"].total_bits == 0 and by_det["mmse"].ber == 0.0
        assert by_det["sb"].failures == 0 and by_det["sb"].instances == 10
        # sb-reg is anchored at the MMSE decision, so it fails with it.
        assert by_det["sb-reg"].failures == 10
        assert by_det["sb-reg"].instances == 0
        assert by_det["sb-reg"].total_bits == 0
        # An undecided point counts no bit error.
        assert by_det["mmse"].bit_errors == by_det["sb-reg"].bit_errors == 0

    def test_every_restart_diverging_is_a_failure(self):
        # At dt = 1e300 every restart overflows, so no SB-family solve
        # has a readout: each such instance is a failure, and MMSE, which
        # does not solve, is unaffected.
        cfg = small_config(
            snr_db=(0.0, 10.0), instances=40,
            detectors=("mmse", "sb", "sb-reg"),
            sb=SBParams(n_steps=20, dt=1e300, n_restarts=3),
        )
        records = run_sweep(cfg)
        assert run_sweep(replace(cfg, workers=2)) == records
        for rec in records:
            if rec.detector == "mmse":
                assert (rec.failures, rec.instances) == (0, 40)
            else:
                assert (rec.failures, rec.instances) == (40, 0)
                assert rec.total_bits == rec.bit_errors == 0
                assert rec.ber == 0.0

    @pytest.mark.parametrize(
        "detectors, mmse_calls",
        [
            (("mmse", "sb-reg"), 1),
            (("sb-reg", "mmse"), 1),
            (("sb", "ml-oracle"), 0),
            (("mmse", "sb", "sb-reg", "ml-oracle"), 1),
            (("sb-reg",), 0),
        ],
    )
    def test_one_reduction_and_one_mmse_per_instance(
        self, monkeypatch, detectors, mmse_calls
    ):
        import sbmimo.bench
        import sbmimo.detectors

        # prepare reduces each block in one stacked pass: one realify and
        # one instance_model call per block, on the stack of its points.
        calls = {"realify": [], "build": [], "mmse": 0}

        def sizing(key, func, size):
            def wrapper(*args, **kwargs):
                calls[key].append(size(args[0]))
                return func(*args, **kwargs)
            return wrapper

        def counting(func):
            def wrapper(*args, **kwargs):
                calls["mmse"] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            "sbmimo.detectors.realify",
            sizing("realify", sbmimo.detectors.realify, len),
        )
        monkeypatch.setattr(
            "sbmimo.detectors.instance_model",
            sizing("build", sbmimo.detectors.instance_model, len),
        )
        monkeypatch.setattr(
            "sbmimo.bench.mmse_detect", counting(sbmimo.bench.mmse_detect)
        )
        # Two SNR points of half a block and 8 more: a full block and a
        # 16-point one, at any block size.
        cfg = small_config(detectors=detectors,
                           instances=sbmimo.bench._BLOCK // 2 + 8)
        run_sweep(cfg)
        instances = len(cfg.snr_db) * cfg.instances
        blocks = [sbmimo.bench._BLOCK, instances - sbmimo.bench._BLOCK]
        assert calls == {
            "realify": blocks,
            "build": blocks,
            "mmse": mmse_calls * instances,
        }

    @pytest.mark.parametrize(
        "detectors, fronts_per_block",
        [
            (("mmse", "ml-oracle"), 1),
            (("ml-oracle", "sb", "sb-reg"), 1),
            (("mmse", "sb-reg"), 0),
            (("sb",), 0),
        ],
    )
    def test_oracle_front_end_built_once_per_block(
        self, monkeypatch, detectors, fronts_per_block
    ):
        import functools

        import sbmimo.bench
        from sbmimo.detectors import Problem

        # Every ml_oracle call of a block reads the block's front end,
        # built by two stacked QRs (the plain and the regularized
        # systems), and its decision from one search over the whole
        # block; a sweep without the oracle builds neither.
        callers, searched = [], []
        qr = np.linalg.qr
        search = Problem.oracle.func

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return qr(*args, **kwargs)

        def counting_search(p):
            searched.append(len(p.noise_var))
            return search(p)

        monkeypatch.setattr(np.linalg, "qr", counting)
        oracle = functools.cached_property(counting_search)
        oracle.__set_name__(Problem, "oracle")
        monkeypatch.setattr(Problem, "oracle", oracle)
        cfg = small_config(detectors=detectors,
                           instances=sbmimo.bench._BLOCK // 2 + 8)
        run_sweep(cfg)
        instances = len(cfg.snr_db) * cfg.instances
        blocks = math.ceil(instances / sbmimo.bench._BLOCK)
        assert blocks == 2
        assert callers == (
            ["sbmimo.detectors"] * (2 * fronts_per_block * blocks)
        )
        sizes = [sbmimo.bench._BLOCK, instances - sbmimo.bench._BLOCK]
        assert searched == sizes * fronts_per_block

    def test_detector_order_does_not_change_records(self):
        a = run_sweep(small_config(detectors=("mmse", "sb-reg")))
        b = run_sweep(small_config(detectors=("sb-reg", "mmse")))
        assert a == b

    def test_trace_dump(self, tmp_path):
        path = tmp_path / "trace.csv"
        cfg = small_config(
            snr_db=(8.0,), instances=3, detectors=("mmse", "sb"),
            sb=SBParams(n_steps=20, dt=0.5, n_restarts=2),
        )
        write_trace(trace_rows(cfg), str(path))
        rows = list(csv.reader(path.open()))
        n = 2 * cfg.nt  # spin count for QPSK
        assert rows[0] == (
            ["restart", "step", "a", "energy"]
            + [f"x{i}" for i in range(n)]
            + [f"y{i}" for i in range(n)]
        )
        assert len(rows) == 1 + 20 * 2
        assert float(rows[1][2]) == 0.0 and float(rows[20][2]) == 1.0

    def test_trace_header_only_when_traced_detector_fails(
        self, tmp_path, monkeypatch
    ):
        # sb-reg is the first SB-family detector configured, so it is the
        # one traced; with MMSE failing it never runs, and sb is not traced
        # in its place.
        fail_mmse(monkeypatch)
        path = tmp_path / "trace.csv"
        cfg = small_config(
            snr_db=(8.0,), instances=3, detectors=("sb-reg", "mmse", "sb"),
        )
        records = run_sweep(cfg)
        write_trace(trace_rows(cfg), str(path))
        assert list(csv.reader(path.open())) == [
            ["restart", "step", "a", "energy"]
        ]
        by_det = {rec.detector: rec for rec in records}
        assert by_det["sb-reg"].failures == 3
        assert by_det["sb"].instances == 3

    def test_trace_header_only_for_a_model_without_couplings(self, tmp_path):
        # One BPSK spin has no couplings: solve settles it by its field
        # alone, so there is no trajectory to trace.
        path = tmp_path / "trace.csv"
        cfg = small_config(
            nt=1, nr=1, modulation="bpsk", snr_db=(5.0,), instances=3,
            detectors=("sb",),
        )
        write_trace(trace_rows(cfg), str(path))
        assert list(csv.reader(path.open())) == [
            ["restart", "step", "a", "energy"]
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_singular_gram_at_very_high_snr_is_no_failure(self, workers):
        # With nr < nt at 200 dB, sigma^2 / Es is below the rounding of
        # the rank-deficient H^H H, so MMSE's Gram solve fails on some
        # instances (10 of these 60) and takes the least-squares path.
        cfg = SweepConfig(
            nt=2, nr=1, modulation="qpsk", snr_db=(200.0,), instances=60,
            detectors=("mmse", "sb", "sb-reg"), sb=SBParams(n_steps=20),
            seed=0, workers=workers,
        )
        for rec in run_sweep(cfg):
            assert (rec.instances, rec.failures) == (60, 0)

    @pytest.mark.parametrize(
        "workers, instances, expected",
        [(5000, 25, 2), (5000, 100, 4), (3, 100, 3), (2, 25, 2)],
    )
    def test_pool_gets_at_most_one_process_per_job_and_cpu(
        self, monkeypatch, workers, instances, expected
    ):
        # The pool is replaced by one that runs each job in this process,
        # so no process starts, and the host is said to have 4 CPUs.
        # instances is per SNR point at 32-point blocks, scaled with the
        # block, so each case cuts 2 or 7 jobs at any block size.
        import concurrent.futures

        import sbmimo.bench

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, func, *args):
                future = concurrent.futures.Future()
                future.set_result(func(*args))
                return future

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", InProcessPool
        )
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        cfg = small_config(instances=instances * sbmimo.bench._BLOCK // 32,
                           sb=SBParams(n_steps=5))
        records = run_sweep(replace(cfg, workers=workers))
        assert sizes == [expected]
        assert records == run_sweep(cfg)


ALL_DETECTORS = ("mmse", "sb", "sb-reg", "ml-oracle")


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3, 32, None])
    def test_block_size_does_not_change_records(self, monkeypatch, block):
        # 70 instances per point span several blocks of every size tried,
        # with a partial last block.
        import sbmimo.bench

        cfg = small_config(
            instances=70, detectors=ALL_DETECTORS,
            sb=SBParams(n_steps=20, dt=0.5, n_restarts=3),
        )
        assert cfg.instances > sbmimo.bench._BLOCK
        expected = run_sweep(cfg)
        if block is not None:
            monkeypatch.setattr(sbmimo.bench, "_BLOCK", block)
        assert run_sweep(cfg) == expected
        assert run_sweep(replace(cfg, workers=2)) == expected

    def test_block_with_some_anchors_missing(self, monkeypatch):
        # MMSE takes no decision where the channel's first entry has a
        # positive real part, so each block mixes instances with and
        # without an sb-reg anchor.  Each failure must land on its own
        # instance, as it does in blocks of one.
        import sbmimo.bench

        dropped = []

        def positive(h):
            drop = h[:, 0, 0].real > 0
            dropped.append(int(drop.sum()))
            return drop

        fail_mmse(monkeypatch, positive)
        cfg = small_config(
            instances=40, detectors=("mmse", "sb-reg"),
            sb=SBParams(n_steps=20, dt=0.5, n_restarts=2),
        )
        records = run_sweep(cfg)
        failed = sum(dropped)
        assert 0 < failed < 80
        for det in ("mmse", "sb-reg"):
            assert sum(r.failures for r in records if r.detector == det) == (
                failed
            )
        monkeypatch.setattr(sbmimo.bench, "_BLOCK", 1)
        assert run_sweep(cfg) == records

    def test_call_order_within_blocks(self, monkeypatch):
        # A span tracer charges each call to the instance sampled last.
        # So the sweep samples a block's every point, then (after one
        # stacked prepare) runs MMSE over the block, then the oracle over
        # the block, then per SB-family detector, after its solve,
        # sb_detect in ascending point order: each detector's last call
        # in a block is on the block's last point, the one sampled last.
        # Each call is keyed by its point's index in the block: a sample
        # by its count in the block, a detector call by its index b.  The
        # blocks are cut from the sweep's points in SNR-major order, so
        # one of them spans both SNR points.  An sb_detect call is named
        # by the detector whose decision it makes.
        import sbmimo.bench

        block = sbmimo.bench._BLOCK
        events = []

        def recording(name, func):
            def wrapper(*args, **kwargs):
                out = func(*args, **kwargs)
                if name == "sample_instance":
                    sampled = sum(e[0] == name for e in events)
                    events.append((name, sampled % block))
                elif name == "sb_detect":
                    events.append((f"sb_detect:{out.detector}", args[1]))
                else:
                    events.append((name, args[1]))
                return out
            return wrapper

        for name in ("sample_instance", "mmse_detect", "ml_oracle", "sb_detect"):
            func = getattr(sbmimo.bench, name)
            monkeypatch.setattr(sbmimo.bench, name, recording(name, func))
        cfg = small_config(
            instances=2 * block + 6, detectors=ALL_DETECTORS,
            sb=SBParams(n_steps=20),
        )
        run_sweep(cfg)
        points = len(cfg.snr_db) * cfg.instances
        assert cfg.instances > 2 * block and cfg.instances % block
        expected = []
        for start in range(0, points, block):
            bs = range(min(block, points - start))
            for name in ("sample_instance", "mmse_detect", "ml_oracle",
                         "sb_detect:sb", "sb_detect:sb-reg"):
                expected += [(name, b) for b in bs]
            # Every detector's last call is on the block's last point.
            last = {name: b for name, b in expected}
            assert set(last.values()) == {bs[-1]}
        assert events == expected

    def test_one_solve_per_detector_spans_the_snr_points(self, monkeypatch):
        # 5 SNR points of a quarter block less one instance each fill one
        # block and start a second, so each SB-family detector solves the
        # first block's problems, from all five points, in one call, not
        # one per point, and sb-reg's solve anchors its whole block in one
        # regularize call.  Two workers, one block each, give the same
        # records.
        import sbmimo.bench
        import sbmimo.detectors

        sizes = []
        solve = sbmimo.bench.sb_solve
        regularize = sbmimo.detectors.regularize

        def recording(p, *args, **kwargs):
            sizes.append(len(p.noise_var))
            return solve(p, *args, **kwargs)

        def anchoring(model, *args):
            sizes.append(("regularize", len(model.h)))
            return regularize(model, *args)

        monkeypatch.setattr(sbmimo.bench, "sb_solve", recording)
        monkeypatch.setattr(sbmimo.detectors, "regularize", anchoring)
        block = sbmimo.bench._BLOCK
        cfg = small_config(
            snr_db=(0.0, 5.0, 10.0, 15.0, 20.0), instances=block // 4 - 1,
            detectors=ALL_DETECTORS,
        )
        points = len(cfg.snr_db) * cfg.instances
        assert cfg.instances < block < points
        records = run_sweep(cfg)
        rest = points - block
        assert sizes == [block, block, ("regularize", block),
                         rest, rest, ("regularize", rest)]
        assert sum(rec.instances for rec in records) == len(cfg.detectors) * points
        assert run_sweep(replace(cfg, workers=2)) == records

    @pytest.mark.parametrize(
        "nt, modulation", [(4, "qpsk"), (2, "qam16")]
    )
    def test_oracle_bounds_every_instance(self, monkeypatch, nt, modulation):
        # Through the sweep's block path, each decision is recorded with
        # the point it was made on, keyed by its block (the prepare calls
        # so far) and its index b there: per instance, the oracle's
        # energy is no higher than sb's or sb-reg's, and sb-reg's no
        # higher than its MMSE anchor's.
        import sbmimo.bench

        blocks = []  # one entry per prepare call
        seen = {}  # (block, b) -> {detector: energy}

        def recording(func):
            def wrapper(block, b, *args, **kwargs):
                res = func(block, b, *args, **kwargs)
                seen.setdefault((len(blocks), b), {})[res.detector] = (
                    res.ising_energy
                )
                return res
            return wrapper

        prepare = sbmimo.bench.prepare

        def preparing(*args):
            blocks.append(None)
            return prepare(*args)

        monkeypatch.setattr(sbmimo.bench, "prepare", preparing)
        for name in ("mmse_detect", "sb_detect", "ml_oracle"):
            func = getattr(sbmimo.bench, name)
            monkeypatch.setattr(sbmimo.bench, name, recording(func))
        cfg = small_config(
            nt=nt, nr=nt, modulation=modulation,
            snr_db=(0.0, 5.0, 10.0, 15.0), instances=12,
            detectors=ALL_DETECTORS, sb=SBParams(n_steps=60, n_restarts=2),
        )
        records = run_sweep(cfg)
        assert len(seen) == 48
        optimal = dict.fromkeys(ALL_DETECTORS, 0)
        for e in seen.values():
            assert set(e) == set(ALL_DETECTORS)
            assert e["ml-oracle"] <= e["sb"] + 1e-9 * max(1.0, abs(e["sb"]))
            assert e["ml-oracle"] <= e["sb-reg"] + 1e-9 * max(1.0, abs(e["sb-reg"]))
            assert e["sb-reg"] <= e["mmse"]
            e_ml = e["ml-oracle"]
            for det in ALL_DETECTORS:
                optimal[det] += e[det] <= e_ml + 1e-9 * max(1.0, abs(e_ml))
        # Each record's ml_optimal counts its decisions that reach the
        # oracle's energy on the same instance.
        for det in ALL_DETECTORS:
            assert optimal[det] == sum(
                rec.ml_optimal for rec in records if rec.detector == det
            )
        assert optimal["ml-oracle"] == 48


class TestWriteCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_round_trip(self, tmp_path):
        rec = BerRecord(
            nt=4, nr=4, modulation="qpsk", snr_db=7.5, detector="mmse",
            instances=100, total_bits=800, bit_errors=12, ber=12 / 800,
            steps=100, dt=0.5, restarts=1, r=0.5, seed=3,
        )
        path = tmp_path / "one.csv"
        write_csv([rec], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        row = next(csv.DictReader(io.StringIO(path.read_text())))
        assert row["ber"] == "1.500000e-02"
        assert float(row["ber"]) == rec.ber
        assert row["snr_db"] == "7.5" and row["detector"] == "mmse"
        assert int(row["total_bits"]) == 800
        # Floats that six significant digits would merge or round read
        # back as configured.
        snrs = (5.0, 5.0000001)
        write_csv([replace(rec, snr_db=s, dt=0.123456789) for s in snrs],
                  str(path))
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert tuple(float(r["snr_db"]) for r in rows) == snrs
        assert {float(r["dt"]) for r in rows} == {0.123456789}

    def test_float32_settings_are_written_as_the_float_that_ran(
        self, tmp_path
    ):
        # The CSV read "0.1" for dt and r while the solver stepped with
        # float32's 0.10000000149011612.
        cfg = small_config(sb=SBParams(n_steps=5, dt=np.float32(0.1)),
                           r=np.float32(0.1), detectors=("sb-reg",),
                           snr_db=(10.0,), instances=2)
        path = tmp_path / "float32.csv"
        write_csv(run_sweep(cfg), str(path))
        (row,) = csv.DictReader(path.open())
        assert row["dt"] == row["r"] == "0.10000000149011612"

    def test_rows_sorted_by_detector_then_snr(self, tmp_path):
        cfg = small_config(detectors=("sb", "mmse"), snr_db=(10.0, 5.0),
                           instances=5)
        path = tmp_path / "sorted.csv"
        write_csv(run_sweep(cfg), str(path))
        rows = list(csv.DictReader(path.open()))
        keys = [(r["detector"], float(r["snr_db"])) for r in rows]
        assert keys == [("mmse", 5.0), ("mmse", 10.0),
                        ("sb", 5.0), ("sb", 10.0)]

    def test_full_sweep_row_count(self, tmp_path):
        cfg = small_config(instances=4)
        path = tmp_path / "full.csv"
        write_csv(run_sweep(cfg), str(path))
        rows = path.read_text().splitlines()
        assert len(rows) == 1 + len(cfg.snr_db) * len(cfg.detectors)

    def test_unwritable_path_reports_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError) as err:
            write_csv([], str(target))
        assert "missing-dir" in str(err.value)

    def test_byte_identical_across_reruns_and_workers(self, tmp_path):
        paths = []
        for k, workers in enumerate([1, 1, 2]):
            path = tmp_path / f"run{k}.csv"
            write_csv(run_sweep(small_config(instances=12, workers=workers)),
                      str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]


def test_import_leaves_out_the_process_pool():
    # run_sweep imports the process pool only for workers > 1, so
    # importing the CLI, and with it the sweep, does not pay for
    # multiprocessing.
    code = (
        "import sys, sbmimo.cli; "
        "assert 'concurrent.futures.process' not in sys.modules"
    )
    src = str(Path(sbmimo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSummary:
    def test_table_layout(self):
        records = run_sweep(small_config(instances=5))
        table = summary_table(records)
        lines = table.splitlines()
        assert len(lines) == 1 + 2  # header + one row per SNR
        assert "snr_db" in lines[0]
        assert "mmse" in lines[0] and "sb" in lines[0]
        assert "5" in lines[1] and "10" in lines[2]

    def test_no_records_gives_the_header_line(self):
        assert summary_table([]) == f"{'snr_db':>8}"

    def test_ml_optimal_table(self):
        records = run_sweep(small_config(
            detectors=("mmse", "sb", "ml-oracle"), instances=6
        ))
        lines = summary_table(records).splitlines()
        k = lines.index("ML-optimal decisions (of instances counted):")
        assert k == 3  # after the BER table's header and two SNR rows
        header, *rows = lines[k + 1:]
        assert header.split() == ["snr_db", "mmse", "sb"]
        assert [row.split()[0] for row in rows] == ["5", "10"]
        for row, snr in zip(rows, (5.0, 10.0)):
            for det, text in zip(("mmse", "sb"), row.split()[1:]):
                (rec,) = [r for r in records
                          if (r.detector, r.snr_db) == (det, snr)]
                assert text == f"{rec.ml_optimal}/{rec.instances}"
        # The oracle alone has nothing to compare.
        oracle = [r for r in records if r.detector == "ml-oracle"]
        assert len(summary_table(oracle).splitlines()) == 3

    def test_oracle_free_table_is_unchanged(self):
        rec = BerRecord(
            nt=2, nr=2, modulation="qpsk", snr_db=5.0, detector="mmse",
            instances=4, total_bits=16, bit_errors=3, ber=3 / 16,
            steps=100, dt=0.5, restarts=1, r=0.5, seed=0, ml_optimal=2,
        )
        records = [
            rec,
            replace(rec, snr_db=12.5, bit_errors=0, ber=0.0),
            replace(rec, detector="sb-reg", bit_errors=1, ber=1 / 16),
            replace(rec, detector="sb-reg", snr_db=12.5, instances=0),
        ]
        assert summary_table(records) == (
            "  snr_db        mmse      sb-reg\n"
            "       5   1.875e-01   6.250e-02\n"
            "    12.5   0.000e+00           -"
        )
