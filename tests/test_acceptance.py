"""End-to-end acceptance criteria for the f-wave analysis pipeline.

Each test checks one release criterion and prints a single PASS/FAIL
line with the measured numbers (shown in the pytest report via -rP).
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fwave.beats import detect_r_peaks_energy
from fwave.dataio import EcgRecording, write_recording
from fwave.extract import METHODS, beat_matrix, extract
from fwave.pipeline import PipelineConfig, run_pipeline
from fwave.preprocess import compute_bsqi, prefilter
from fwave.spectral import estimate_daf, vote_daf, welch_psd
from fwave.evaluate import auroc_rank
from fwave.synth import SynthConfig, generate

from extract_reference import segment_fiducials

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FS = 200.0


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _af_window(i, f0, hr):
    return generate(SynthConfig(
        rhythm="AF", fwave_f0=f0, mean_hr_bpm=hr, fwave_amp_mv=0.14,
        noise_rms_mv=0.028, artifact_rms_mv=0.2, rng_seed=9000 + i,
    ))


def _beats_of(x, fs):
    return segment_fiducials(x, fs, detect_r_peaks_energy(x, fs))


# --- criterion 4/9/10 share two identical full pipeline runs ---------------

@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"accept_{tag}") / "out")
        cfg = PipelineConfig.from_dict({
            "out_dir": out, "seed": 2026,
            "synth": {"n_af": 100, "n_sinus": 100},
        })
        report = run_pipeline(cfg)
        outs.append((out, report))
    return outs


def test_criterion_1_daf_recovery():
    """200 AF windows: |daf - f0| <= 0.2 Hz on >=90% (TS_B/CE/SU), >=80% (TS_PCA)."""
    rng = np.random.default_rng(20260823)
    hits = {m: 0 for m in METHODS}
    n_used = 0
    t0 = time.time()
    for i in range(200):
        f0 = rng.uniform(4.5, 11.0)
        hr = rng.uniform(70, 95)
        truth = _af_window(i, f0, hr)
        x = prefilter(truth.ecg, truth.fs)
        if not compute_bsqi(x, truth.fs).all_pass():
            continue
        n_used += 1
        beats = _beats_of(x, truth.fs)
        for m in METHODS:
            res = extract(m, beat_matrix(x, beats.fs, beats.r_peaks))
            daf = estimate_daf(welch_psd(res.residual, truth.fs))
            if abs(daf - f0) <= 0.2:
                hits[m] += 1
    elapsed = time.time() - t0
    rates = {m: hits[m] / n_used for m in METHODS}
    ok = (
        all(rates[m] >= 0.90 for m in ("TS_B", "TS_CE", "TS_SU"))
        and rates["TS_PCA"] >= 0.80
        and elapsed <= 60.0
    )
    detail = (
        f"hit rates {({m: round(r, 3) for m, r in rates.items()})} "
        f"on {n_used}/200 quality-passing windows in {elapsed:.1f}s"
    )
    _verdict(1, ok, detail)


def test_criterion_2_cancellation_floor():
    """50 sinus windows: residual RMS over cancelled spans <= 5% of input RMS."""
    def span_ratio(x, res):
        mask = np.zeros(len(x), dtype=bool)
        for a, b in res.spans:
            mask[a:b] = True
        return float(np.sqrt(np.mean(res.residual[mask] ** 2))
                     / np.sqrt(np.mean(x[mask] ** 2)))

    worst = 0.0
    for seed in range(50):
        truth = generate(SynthConfig(
            rhythm="sinus", rng_seed=seed, noise_rms_mv=0.005,
            beat_amp_cv=0.0, artifact_rms_mv=0.0,
        ))
        x = prefilter(truth.ecg, truth.fs)
        beats = _beats_of(x, truth.fs)
        for m in METHODS:
            worst = max(worst, span_ratio(x, extract(m, beat_matrix(x, beats.fs, beats.r_peaks))))

    periodic = generate(SynthConfig(
        rhythm="sinus", rng_seed=7, mean_hr_bpm=72.0, rr_jitter=0.0,
        beat_amp_cv=0.0, noise_rms_mv=0.0, artifact_rms_mv=0.0,
    ))
    x = prefilter(periodic.ecg, periodic.fs)
    beats = _beats_of(x, periodic.fs)
    basic = span_ratio(x, extract("TS_B", beat_matrix(x, beats.fs, beats.r_peaks)))

    ok = worst <= 0.05 and basic <= 0.01
    _verdict(2, ok, f"worst ratio {worst:.4f} (<=0.05), "
                    f"periodic TS_B {basic:.4f} (<=0.01)")


def test_criterion_3_least_squares_dominance():
    """Per-beat-span residual energy of TS_CE <= TS_B on every window."""
    rng = np.random.default_rng(3)
    worst_excess = 0.0
    n_spans = 0
    for i in range(30):
        if i < 20:
            truth = _af_window(500 + i, rng.uniform(4.5, 11.0), rng.uniform(70, 95))
        else:
            truth = generate(SynthConfig(rhythm="sinus", rng_seed=500 + i))
        x = prefilter(truth.ecg, truth.fs)
        beats = _beats_of(x, truth.fs)
        basic = extract("TS_B", beat_matrix(x, beats.fs, beats.r_peaks))
        scaled = extract("TS_CE", beat_matrix(x, beats.fs, beats.r_peaks))
        assert basic.spans == scaled.spans
        for a, b in basic.spans:
            e_b = float(np.sum(basic.residual[a:b] ** 2))
            e_ce = float(np.sum(scaled.residual[a:b] ** 2))
            if e_b > 0:
                worst_excess = max(worst_excess, (e_ce - e_b) / e_b)
            n_spans += 1
    ok = worst_excess <= 1e-9
    _verdict(3, ok, f"max (E_CE - E_B)/E_B = {worst_excess:.2e} "
                    f"over {n_spans} beat spans on 30 windows (tol 1e-9)")


def test_criterion_4_classification_sanity(pipeline_runs):
    """100+100 corpus: voting AUROC >= 0.90 and >= each method - 0.05."""
    _, report = pipeline_runs[0]
    vote = report["vote"]["auroc"]
    per_method = {m: report[m]["auroc"] for m in METHODS}
    ok = vote >= 0.90 and all(vote >= a - 0.05 for a in per_method.values())
    _verdict(4, ok, f"vote AUROC {vote:.3f} vs methods "
                    f"{({m: round(a, 3) for m, a in per_method.items()})}")


def test_criterion_5_auroc_oracle():
    """Rank-statistic AUROC equals brute-force pair counting, 200 instances."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = rng.choice(np.linspace(0.0, 1.0, 9), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = float(np.mean([
            1.0 if p > q else (0.5 if p == q else 0.0)
            for p in pos for q in neg
        ]))
        worst = max(worst, abs(auroc_rank(scores, labels) - brute))
    ok = worst <= 1e-12
    _verdict(5, ok, f"max |rank - brute force| = {worst:.2e} over 200 instances")


def test_criterion_6_welch_correctness():
    """6 Hz tone -> DAF 6.0 within one bin; Parseval within 10% on 20 signals."""
    t = np.arange(int(60 * FS)) / FS
    ps = welch_psd(np.sin(2 * np.pi * 6.0 * t), FS)
    daf = estimate_daf(ps)
    tone_ok = ps.resolution <= 0.05 and abs(daf - 6.0) <= ps.resolution

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        # stationary signal: white noise plus a few random tones
        x = rng.standard_normal(int(60 * FS))
        for _ in range(int(rng.integers(1, 4))):
            x += rng.uniform(0.2, 1.0) * np.sin(
                2 * np.pi * rng.uniform(0.5, 90.0) * t + rng.uniform(0, 2 * np.pi))
        psx = welch_psd(x, FS)
        integral = float(np.trapezoid(psx.power, psx.freqs))
        power = float(np.mean(x ** 2))
        worst = max(worst, abs(integral - power) / power)
    ok = tone_ok and worst <= 0.10
    _verdict(6, ok, f"tone DAF {daf:.3f} Hz (res {ps.resolution:.3f}), "
                    f"worst Parseval error {worst:.3f} (<=0.10)")


def test_criterion_7_voting_algebra():
    """Median properties on 1000 random triples/pairs; worked example."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        vals = rng.uniform(4.0, 12.0, size=3)
        dafs = [(m, float(v)) for m, v in zip(("TS_B", "TS_CE", "TS_SU"), vals)]
        out = vote_daf(dict(dafs))
        ok &= min(vals) <= out <= max(vals)
        ok &= vote_daf(dict(dafs[::-1])) == out
        ok &= out == float(np.sort(vals)[1])
        pair = rng.uniform(4.0, 12.0, size=2)
        ok &= vote_daf(dict(zip(("TS_B", "TS_CE"), pair.tolist())),
                       methods=("TS_B", "TS_CE")) == pytest.approx(float(np.mean(pair)))
    example = vote_daf({"TS_B": 6.1, "TS_CE": 5.81, "TS_SU": 5.96})
    ok = bool(ok) and example == pytest.approx(5.96)
    _verdict(7, ok, f"1000 random triples+pairs hold; "
                    f"{{6.1, 5.81, 5.96}} -> {example}")


def test_criterion_8_bsqi_gating(tmp_path):
    """10 s of 3 mV white noise drives bSQI < 0.8 and the window into the ledger."""
    truth = generate(SynthConfig(
        rhythm="AF", fwave_f0=6.0, rng_seed=88,
        noise_rms_mv=0.005, artifact_rms_mv=0.0,
    ))
    x = truth.ecg.copy()
    seg = slice(int(30 * truth.fs), int(40 * truth.fs))  # aligned 10 s segment
    x[seg] = 3.0 * np.random.default_rng(0).standard_normal(seg.stop - seg.start)

    rep = compute_bsqi(prefilter(x, truth.fs), truth.fs)
    worst = min(v for _, _, v in rep.segment_bsqi)

    out = tmp_path / "out"
    rec_dir = out / "records"
    rec_dir.mkdir(parents=True)
    rec = EcgRecording(samples=x, fs=truth.fs, record_id="noisy01")
    write_recording(rec, str(rec_dir / "noisy01.csv"), fmt="csv")
    (rec_dir / "manifest.json").write_text(json.dumps({
        "records": [{"id": "noisy01", "label": "AF", "path": "noisy01.csv"}],
    }))
    from fwave.pipeline import stage_extract
    cfg = PipelineConfig.from_dict({"out_dir": str(out), "seed": 0})
    stage_extract(cfg)
    ledger = json.loads((out / "exclusions.json").read_text())
    entry = [e for e in ledger["windows"] if e["window_id"] == "noisy01"]
    ok = worst < 0.8 and len(entry) == 1 and "bsqi" in entry[0]["reason"]
    _verdict(8, ok, f"worst segment bSQI {worst:.2f} (<0.8), "
                    f"ledger reason {entry[0]['reason']!r}" if entry else
                    f"worst segment bSQI {worst:.2f}, window missing from ledger")


def test_criterion_9_determinism(pipeline_runs):
    """Two identical runs produce byte-identical features.csv and metrics.json."""
    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    (out_a, _), (out_b, _) = pipeline_runs
    same = {
        name: sha(os.path.join(out_a, name)) == sha(os.path.join(out_b, name))
        for name in ("features.csv", "metrics.json")
    }
    ok = all(same.values())
    _verdict(9, ok, f"byte-identical: {same}")


def test_criterion_10_report_format(pipeline_runs):
    """Report prints DAF median (Q1-Q3), an F1/AUROC table, and the
    clearly-labeled non-reproducible reference values."""
    out, _ = pipeline_runs[0]
    text = Path(out, "report.txt").read_text()
    checks = {
        "median (Q1-Q3)": "median (Q1-Q3)" in text,
        "F1/AUROC table": "F1" in text and "AUROC" in text,
        "per-method rows": all(m in text for m in METHODS) and "vote" in text,
        "reference values": "0.63" in text and "0.60" in text,
        "marked non-reproducible": "NOT reproducible" in text,
    }
    ok = all(checks.values())
    _verdict(10, ok, f"report checks: {checks}")
