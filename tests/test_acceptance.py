"""End-to-end acceptance checks.

One test per criterion, in order. Each prints a PASS/FAIL line with the
measured quantities (visible under `pytest -s` or in failure output), so
the module doubles as a report. The Monte-Carlo configurations and
thresholds below are pinned; changing them invalidates the evidence.
"""

import numpy as np
import pytest

from sbmimo.bench import SweepConfig, run_sweep, write_csv
from sbmimo.channel import get_constellation, realify, sample_instance
from sbmimo.detectors import ml_oracle, prepare
from sbmimo.ising import energy
from sbmimo.reduction import instance_model
from sbmimo.sb import SBParams

from conftest import all_spin_vectors, spin_transform

MASTER_SEED = 2026


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


def ber_map(records):
    return {(rec.detector, rec.snr_db): rec.ber for rec in records}


@pytest.fixture(scope="module")
def midrange_16x16_records():
    cfg = SweepConfig(
        nt=16, nr=16, modulation="qpsk", snr_db=(10.0, 12.5, 15.0),
        instances=2_000, detectors=("mmse", "sb-reg"), sb=SBParams(),
        r=0.5, seed=MASTER_SEED, workers=1,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def high_snr_16x16_records():
    cfg = SweepConfig(
        nt=16, nr=16, modulation="qpsk", snr_db=(25.0,),
        instances=5_000, detectors=("mmse", "sb", "sb-reg"), sb=SBParams(),
        r=0.5, seed=MASTER_SEED, workers=1,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def qam16_vs_qpsk_8x8_records():
    # 32-spin QAM16 landscapes need a longer, finer anneal than the
    # QPSK defaults to search well; same settings used for both
    # modulations to keep the comparison paired.
    sweeps = {}
    for mod in ("qam16", "qpsk"):
        cfg = SweepConfig(
            nt=8, nr=8, modulation=mod, snr_db=(14.0, 18.0),
            instances=1_000, detectors=("mmse", "sb-reg"),
            sb=SBParams(n_steps=400, dt=0.25, n_restarts=10),
            r=0.5, seed=MASTER_SEED, workers=1,
        )
        sweeps[mod] = run_sweep(cfg)
    return sweeps


def test_criterion_1_energy_equals_ml_residual():
    # 200 instances cycling through every modulation x nt combination,
    # 100 random spin vectors each.
    rng = np.random.default_rng(99)
    combos = [(name, nt)
              for name in ("bpsk", "qpsk", "qam16")
              for nt in (1, 2, 3, 4)]
    worst = 0.0
    for k in range(200):
        name, nt = combos[k % len(combos)]
        c = get_constellation(name)
        nr = nt + int(rng.integers(0, 3))
        snr_db = float(rng.uniform(0.0, 30.0))
        inst = sample_instance(nt, nr, c, snr_db, rng)
        model = instance_model(inst, c)
        sys_r = realify(inst.h, inst.y, c)
        a = sys_r.h_r @ spin_transform(c, nt)
        spins = rng.choice([-1.0, 1.0], size=(100, nt * c.bps))
        for s in spins:
            resid = sys_r.y_r - a @ s
            ref = float(resid @ resid)
            err = abs(energy(model, s) - ref) / max(abs(ref), 1.0)
            worst = max(worst, err)
    report(
        "criterion 1: Ising energy equals ML residual norm",
        worst <= 1e-10,
        f"max rel err {worst:.3e} over 200 instances x 100 spin vectors",
    )


def test_criterion_2_exhaustive_argmin_matches_oracle():
    c = get_constellation("qpsk")
    agree = 0
    n_inst = 500
    for i in range(n_inst):
        rng = np.random.default_rng([41, i])
        inst = sample_instance(3, 3, c, 8.0, rng)
        model = instance_model(inst, c)
        table = np.array(list(all_spin_vectors(model.n)))
        energies = np.array([energy(model, s) for s in table])
        best = table[int(np.argmin(energies))]
        if np.array_equal(best, ml_oracle(prepare(inst, c)).spins):
            agree += 1
    report(
        "criterion 2: exhaustive Ising argmin matches ML oracle",
        agree == n_inst,
        f"{agree}/{n_inst} instances agree",
    )


def test_criterion_3_sb_attains_oracle_energy():
    cfg = SweepConfig(
        nt=4, nr=4, modulation="qpsk", snr_db=(10.0,), instances=500,
        detectors=("sb", "ml-oracle"), sb=SBParams(100, 0.5, 10),
        seed=MASTER_SEED,
    )
    (rec,) = [rec for rec in run_sweep(cfg) if rec.detector == "sb"]
    rate = rec.ml_optimal / cfg.instances
    report(
        "criterion 3: SB reaches the optimal energy on >= 95% of instances",
        rate >= 0.95,
        f"optimality rate {rate:.1%} ({rec.ml_optimal}/{cfg.instances})",
    )


def test_criterion_4_beats_mmse_with_widening_gap(midrange_16x16_records):
    ber = ber_map(midrange_16x16_records)
    snrs = (10.0, 12.5, 15.0)
    beats = all(ber[("sb-reg", s)] < ber[("mmse", s)] for s in snrs)
    ratios = [ber[("mmse", s)] / ber[("sb-reg", s)] for s in snrs]
    widening = ratios[0] < ratios[1] < ratios[2]
    detail = ", ".join(
        f"{s} dB: sb-reg {ber[('sb-reg', s)]:.3e} vs "
        f"mmse {ber[('mmse', s)]:.3e} (x{r:.2f})"
        for s, r in zip(snrs, ratios)
    )
    report(
        "criterion 4: regularized SB beats MMSE with a widening gap",
        beats and widening,
        detail,
    )


def test_criterion_5_regularization_rescues_error_floor(
    high_snr_16x16_records,
):
    ber = ber_map(high_snr_16x16_records)
    plain, reg, mmse = (
        ber[("sb", 25.0)], ber[("sb-reg", 25.0)], ber[("mmse", 25.0)]
    )
    ok = plain > reg and reg <= mmse
    report(
        "criterion 5: regularization removes the high-SNR error floor",
        ok,
        f"sb {plain:.3e} > sb-reg {reg:.3e} <= mmse {mmse:.3e}",
    )


def test_criterion_6_selected_energy_never_worse_than_anchor(
    midrange_16x16_records, high_snr_16x16_records,
):
    records = list(midrange_16x16_records) + list(high_snr_16x16_records)
    violations = sum(rec.selection_violations for rec in records)
    regularized = sum(
        rec.instances for rec in records if rec.detector == "sb-reg"
    )
    report(
        "criterion 6: zero selection violations in regularized detection",
        violations == 0,
        f"{violations} violations across {regularized} regularized detections",
    )


def test_criterion_7_byte_identical_csv(tmp_path):
    def run_once(name: str, workers: int) -> bytes:
        cfg = SweepConfig(
            nt=4, nr=4, modulation="qpsk", snr_db=(5.0, 10.0),
            instances=50, detectors=("mmse", "sb", "sb-reg"),
            sb=SBParams(n_steps=50, dt=0.5), r=0.5, seed=11,
            workers=workers,
        )
        path = tmp_path / name
        write_csv(run_sweep(cfg), str(path))
        return path.read_bytes()

    first = run_once("a.csv", workers=1)
    second = run_once("b.csv", workers=1)
    parallel = run_once("c.csv", workers=2)
    ok = first == second == parallel
    report(
        "criterion 7: sweeps are deterministic and worker-count invariant",
        ok,
        f"rerun identical: {first == second}, "
        f"workers 1 vs 2 identical: {first == parallel}",
    )


def test_criterion_8_qam16_beats_mmse_and_costs_more_than_qpsk(
    qam16_vs_qpsk_8x8_records,
):
    q16 = ber_map(qam16_vs_qpsk_8x8_records["qam16"])
    q4 = ber_map(qam16_vs_qpsk_8x8_records["qpsk"])
    snrs = (14.0, 18.0)
    beats = all(q16[("sb-reg", s)] < q16[("mmse", s)] for s in snrs)
    costlier = all(
        q16[(d, s)] > q4[(d, s)]
        for d in ("mmse", "sb-reg") for s in snrs
    )
    detail = "; ".join(
        f"{s} dB qam16 sb-reg {q16[('sb-reg', s)]:.3e} vs "
        f"mmse {q16[('mmse', s)]:.3e}, qpsk sb-reg {q4[('sb-reg', s)]:.3e}"
        for s in snrs
    )
    report(
        "criterion 8: 16-QAM beats MMSE and sits above QPSK at equal SNR",
        beats and costlier,
        detail,
    )
