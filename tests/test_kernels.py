"""The detector's sample-level kernels in ``fwave.beats``.

``_moving_average_loop`` is the running-sum moving average written out
sample by sample; it is the oracle for the convolution in
``beats.moving_average``.
"""

import numpy as np

from fwave import beats
from fwave.beats import detect_r_peaks_energy
from fwave.preprocess import prefilter
from fwave.synth import SynthConfig, generate


def _moving_average_loop(x, w):
    n = x.shape[0]
    out = np.empty(n, dtype=np.float64)
    half = w // 2
    acc = 0.0
    # prime the window centered on sample 0
    hi = min(half + 1, n)
    for j in range(hi):
        acc += x[j]
    cnt = hi
    for i in range(n):
        out[i] = acc / cnt
        new = i + half + 1
        if new < n:
            acc += x[new]
            cnt += 1
        old = i - half
        if old >= 0:
            acc -= x[old]
            cnt -= 1
    return out


def test_moving_average_paths_agree():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5000)
    for w in (1, 3, 31, 301):
        a = _moving_average_loop(x, w)
        b = beats.moving_average(x, w)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_moving_average_constant_preserved():
    x = np.full(1000, 2.5)
    np.testing.assert_allclose(beats.moving_average(x, 31), 2.5)


def test_adaptive_scan_flat_input_empty():
    assert len(beats.adaptive_scan(np.zeros(1000), 40, 400, 240)) == 0


def test_detector_identical_across_paths(monkeypatch):
    truth = generate(SynthConfig(rhythm="AF", fwave_f0=6.5, rng_seed=42))
    x = prefilter(truth.ecg, truth.fs)
    det_numpy = detect_r_peaks_energy(x, truth.fs)
    monkeypatch.setattr(beats, "moving_average", _moving_average_loop)
    det_loop = detect_r_peaks_energy(x, truth.fs)
    assert len(det_numpy) > 0
    assert np.array_equal(det_loop, det_numpy)
