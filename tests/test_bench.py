import csv
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sbmimo
from sbmimo.bench import (
    BerRecord,
    SweepConfig,
    run_sweep,
    snr_range,
    summary_table,
    trace_rows,
    write_csv,
    write_trace,
)
from sbmimo.detectors import DetectionFailureError
from sbmimo.sb import SBParams

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


class TestSnrRange:
    def test_inclusive_grid(self):
        assert snr_range(0.0, 25.0, 2.5) == (
            0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0
        )

    def test_single_point(self):
        assert snr_range(10.0, 10.0, 1.0) == (10.0,)

    def test_uneven_step_stops_below(self):
        assert snr_range(0.0, 10.0, 4.0) == (0.0, 4.0, 8.0)

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
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

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

    def test_oracle_guard_boundary(self):
        # 6 users QAM16 = 24 spins: allowed; 7 = 28: refused.
        small_config(modulation="qam16", nt=6, detectors=("ml-oracle",),
                     instances=1)
        with pytest.raises(ValueError, match="spin"):
            small_config(modulation="qam16", nt=7, detectors=("ml-oracle",),
                         instances=1)


class TestRunSweep:
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

    def test_failed_detections_skip_instance_for_that_detector(
        self, monkeypatch
    ):
        def broken(p):
            raise DetectionFailureError("injected")

        monkeypatch.setattr("sbmimo.bench.mmse_detect", broken)
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

    @pytest.mark.parametrize(
        "detectors, mmse_calls",
        [(("mmse", "sb-reg"), 1), (("sb-reg", "mmse"), 1), (("sb", "ml-oracle"), 0)],
    )
    def test_one_reduction_and_one_mmse_per_instance(
        self, monkeypatch, detectors, mmse_calls
    ):
        import sbmimo.bench
        import sbmimo.detectors

        calls = {"build": 0, "mmse": 0}

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            "sbmimo.detectors.instance_model",
            counting("build", sbmimo.detectors.instance_model),
        )
        monkeypatch.setattr(
            "sbmimo.bench.mmse_detect", counting("mmse", sbmimo.bench.mmse_detect)
        )
        cfg = small_config(detectors=detectors, instances=6)
        run_sweep(cfg)
        instances = len(cfg.snr_db) * cfg.instances
        assert calls == {"build": instances, "mmse": mmse_calls * instances}

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
        def broken(p):
            raise DetectionFailureError("injected")

        monkeypatch.setattr("sbmimo.bench.mmse_detect", broken)
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
        import concurrent.futures

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
        cfg = small_config(instances=instances, sb=SBParams(n_steps=5))
        records = run_sweep(replace(cfg, workers=workers))
        assert sizes == [expected]
        assert records == run_sweep(cfg)


ALL_DETECTORS = ("mmse", "sb", "sb-reg", "ml-oracle")


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3, None])
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
        # MMSE fails on every other call, so each block mixes instances
        # with and without an sb-reg anchor.  Each failure must land on
        # its own instance, as it does in blocks of one.
        import sbmimo.bench

        detect = sbmimo.bench.mmse_detect
        calls = []

        def alternating(p):
            calls.append(p)
            if len(calls) % 2:
                raise DetectionFailureError("injected")
            return detect(p)

        monkeypatch.setattr(sbmimo.bench, "mmse_detect", alternating)
        cfg = small_config(
            instances=40, detectors=("mmse", "sb-reg"),
            sb=SBParams(n_steps=20, dt=0.5, n_restarts=2),
        )
        records = run_sweep(cfg)
        assert len(calls) == 80  # 40 of them failed
        for det in ("mmse", "sb-reg"):
            assert sum(r.failures for r in records if r.detector == det) == 40
        calls.clear()
        monkeypatch.setattr(sbmimo.bench, "_BLOCK", 1)
        assert run_sweep(cfg) == records

    def test_call_order_within_blocks(self, monkeypatch):
        # A span tracer charges each call to the instance sampled last.
        # So per instance the sweep samples, runs MMSE, then the oracle;
        # after the block's solves, sb_detect runs in ascending instance
        # order, so each detector's last sb_detect in a block is on the
        # block's last instance.
        import sbmimo.bench

        insts, events = [], []

        def recording(name, func):
            def wrapper(*args, **kwargs):
                out = func(*args, **kwargs)
                if name == "sample_instance":
                    insts.append(out)
                inst = out if name == "sample_instance" else args[0].inst
                k = next(k for k, x in enumerate(insts) if x is inst)
                events.append((name, k))
                return out
            return wrapper

        for name in ("sample_instance", "mmse_detect", "ml_oracle", "sb_detect"):
            func = getattr(sbmimo.bench, name)
            monkeypatch.setattr(sbmimo.bench, name, recording(name, func))
        cfg = small_config(
            instances=70, detectors=ALL_DETECTORS, sb=SBParams(n_steps=20),
        )
        run_sweep(cfg)
        block = sbmimo.bench._BLOCK
        assert cfg.instances > 2 * block
        expected = []
        for first in range(0, len(cfg.snr_db) * cfg.instances, cfg.instances):
            for start in range(first, first + cfg.instances, block):
                ks = range(start, min(start + block, first + cfg.instances))
                for k in ks:
                    expected += [("sample_instance", k), ("mmse_detect", k),
                                 ("ml_oracle", k)]
                for k in ks:
                    expected += [("sb_detect", k)] * 2
        assert events == expected

    @pytest.mark.parametrize(
        "nt, modulation", [(4, "qpsk"), (2, "qam16")]
    )
    def test_oracle_bounds_every_instance(self, monkeypatch, nt, modulation):
        # Through the sweep's block path, each decision is recorded with
        # the problem it was made on: per instance, the oracle's energy
        # is no higher than sb's or sb-reg's, and sb-reg's no higher than
        # its MMSE anchor's.
        import sbmimo.bench

        seen = {}  # id(problem) -> (problem, {detector: energy})

        def recording(func):
            def wrapper(p, *args, **kwargs):
                res = func(p, *args, **kwargs)
                seen.setdefault(id(p), (p, {}))[1][res.detector] = (
                    res.ising_energy
                )
                return res
            return wrapper

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
        for _, e in seen.values():
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
