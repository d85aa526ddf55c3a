"""Window accounting of ``stage_extract`` over random annotation layouts,
the artifacts' invariance to the order, units and polarity of recordings,
and the config's defaults, which are its stages' defaults."""

import functools
import inspect
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fwave.pipeline
from fwave.dataio import (EcgRecording, RhythmAnnotation, extract_af_windows, write_annotations,
                          write_recording)
from fwave.errors import ConfigError
from fwave.evaluate import train_rf
from fwave.pipeline import PipelineConfig, stage_daf, stage_extract
from fwave.preprocess import compute_bsqi
from fwave.spectral import welch_psd
from fwave.synth import SynthConfig, generate

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FS = 200
WINDOW_S = 20
MIN_EVENT_S = 10
EXTRACTORS = ("TS_B", "TS_CE")

# (label, seconds, noisy): AF under MIN_EVENT_S is no episode, AF between
# MIN_EVENT_S and WINDOW_S is a short event, longer AF holds one window;
# a noisy event fails the bSQI gate
_EVENT = st.one_of(
    st.tuples(st.just("AF"), st.sampled_from([5, 12, 19, 20, 33]), st.booleans()),
    st.tuples(st.just("non-AF"), st.integers(5, 65), st.booleans()),
)


@functools.lru_cache(maxsize=1)
def _clean_ecg():
    return generate(SynthConfig(rhythm="sinus", duration_s=65.0, rng_seed=5)).ecg


def _recording(layout, record_id, rng, scale=1.0):
    clean = _clean_ecg()
    parts, events, onset = [], [], 0
    for label, seconds, noisy in layout:
        n = seconds * FS
        parts.append(rng.normal(0.0, 0.5, n) if noisy else clean[:n])
        events.append((onset, onset + n, label))
        onset += n
    rec = EcgRecording(np.concatenate(parts) * scale, float(FS), "V1", record_id)
    return rec, RhythmAnnotation(events)


def _write_recordings(tmp, layouts, scale=1.0):
    """One recording per layout, its samples times ``scale``, as files in
    ``tmp``; returns the config's ``recordings`` and the annotations."""
    os.makedirs(tmp, exist_ok=True)
    rng = np.random.default_rng(0)
    recordings, annotations = [], []
    for i, layout in enumerate(layouts):
        rid = f"rec{i}"
        rec, ann = _recording(layout, rid, rng, scale)
        rec_path, ann_path = os.path.join(tmp, f"{rid}.fwk"), os.path.join(tmp, f"{rid}.json")
        write_recording(rec, rec_path, fmt="binary")
        write_annotations(ann, ann_path)
        recordings.append({"recording": rec_path, "annotation": ann_path})
        annotations.append(ann)
    return recordings, annotations


def _config(out_dir, recordings):
    return PipelineConfig(out_dir=out_dir, recordings=recordings,
                          window_s=float(WINDOW_S), min_event_s=float(MIN_EVENT_S),
                          extractors=EXTRACTORS, dump_beats=True)


_LAYOUT = st.lists(_EVENT, min_size=1, max_size=5)


@given(st.lists(_LAYOUT, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_candidate_window_accounted_once(layouts):
    with tempfile.TemporaryDirectory() as tmp:
        recordings, annotations = _write_recordings(tmp, layouts)
        want_af, want_nonaf, want_short, want_missing = set(), {}, 0, {}
        for i, ann in enumerate(annotations):
            rid = f"rec{i}"
            slots = set()
            for onset, offset, label in ann.events:
                if label == "non-AF":
                    n_win = WINDOW_S * FS
                    slots.update(onset + k * n_win for k in range((offset - onset) // n_win))
                elif offset - onset >= WINDOW_S * FS:
                    want_af.add(f"{rid}_w{onset:09d}")
                elif offset - onset >= MIN_EVENT_S * FS:
                    want_short += 1
            n_af = sum(w.startswith(f"{rid}_") for w in want_af)
            want_nonaf[rid] = ({f"{rid}_w{s:09d}" for s in slots}, min(n_af, len(slots)))
            if len(slots) < n_af:
                want_missing[rid] = n_af - len(slots)

        cfg = _config(os.path.join(tmp, "out"), recordings)
        stage_extract(cfg)

        with open(os.path.join(cfg.out_dir, "windows.json")) as fh:
            analysed = [w["window_id"] for w in json.load(fh)["windows"]]
        with open(os.path.join(cfg.out_dir, "exclusions.json")) as fh:
            ledger = json.load(fh)
        ids = analysed + [w["window_id"] for w in ledger["windows"]]
        assert len(set(ids)) == len(ids) == len(want_af) + sum(c for _, c in want_nonaf.values())
        assert want_af <= set(ids)
        for rid, (slot_ids, count) in want_nonaf.items():
            drawn = {w for w in set(ids) - want_af if w.startswith(f"{rid}_")}
            assert drawn <= slot_ids and len(drawn) == count, rid
        events = ledger["events"]
        assert sum(e["reason"] == "af_event_shorter_than_window" for e in events) == want_short
        assert {e["record_id"]: e["missing_windows"] for e in events
                if e["reason"] == "insufficient_nonaf_duration"} == want_missing
        assert sorted(os.listdir(os.path.join(cfg.out_dir, "residuals"))) == sorted(
            f"{wid}__{m}.fwk" for wid in analysed for m in EXTRACTORS
        )
        assert sorted(os.listdir(os.path.join(cfg.out_dir, "beats"))) == sorted(
            f"{wid}.json" for wid in analysed
        )


def _artifacts(out_dir, recordings):
    """The bytes of the extract and daf stages' ledgers and table."""
    cfg = _config(out_dir, recordings)
    stage_extract(cfg)
    stage_daf(cfg)
    names = ("windows.json", "exclusions.json", "daf.csv")
    return {name: Path(out_dir, name).read_bytes() for name in names}


@given(st.lists(_LAYOUT, min_size=2, max_size=3), st.data())
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_order_of_recordings_changes_nothing(layouts, data):
    order = data.draw(st.permutations(range(len(layouts))))
    with tempfile.TemporaryDirectory() as tmp:
        recordings, _ = _write_recordings(tmp, layouts)
        want = _artifacts(os.path.join(tmp, "a"), recordings)
        assert _artifacts(os.path.join(tmp, "b"), [recordings[i] for i in order]) == want


@given(st.lists(_LAYOUT, min_size=1, max_size=3), st.integers(-40, 40),
       st.sampled_from([1.0, -1.0]))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_power_of_two_scale_and_polarity_change_nothing(layouts, k, sign):
    # scaling by a power of two is exact, so any absolute constant in the
    # detector, the gate or the extractors would show as a changed byte
    with tempfile.TemporaryDirectory() as tmp:
        want = _artifacts(os.path.join(tmp, "a"), _write_recordings(tmp, layouts)[0])
        scaled = _write_recordings(os.path.join(tmp, "scaled"), layouts, sign * 2.0 ** k)[0]
        assert _artifacts(os.path.join(tmp, "b"), scaled) == want


@pytest.mark.parametrize("error", [ConfigError("bad setting"), ValueError("a bug")])
def test_non_data_errors_are_not_window_exclusions(tmp_path, monkeypatch, error):
    def raise_error(*args, **kwargs):
        raise error

    monkeypatch.setattr(fwave.pipeline, "compute_bsqi", raise_error)
    recordings, _ = _write_recordings(str(tmp_path), [[("AF", 33, False)]])
    with pytest.raises(type(error), match=str(error)):
        stage_extract(_config(str(tmp_path / "out"), recordings))
    assert not (tmp_path / "out" / "exclusions.json").exists()


def test_config_defaults_are_the_stage_defaults():
    """PipelineConfig() keeps its defaults, and each is the default of the
    stage function that applies it, which the acceptance criteria call
    directly (``compute_bsqi(x, fs)``, ``welch_psd(x, fs)``)."""
    stages = {
        "bsqi_threshold": (compute_bsqi, "threshold"),
        "bsqi_segment_s": (compute_bsqi, "segment_s"),
        "bsqi_match_tol_ms": (compute_bsqi, "match_tol_ms"),
        "window_s": (extract_af_windows, "window_s"),
        "min_event_s": (extract_af_windows, "min_event_s"),
        "welch_seg_s": (welch_psd, "seg_s"),
        "welch_overlap": (welch_psd, "overlap"),
        "rf_max_depth": (train_rf, "max_depth"),
    }
    cfg = PipelineConfig()
    assert [getattr(cfg, key) for key in stages] == [0.8, 10.0, 150.0, 60.0, 30.0, 10.0, 0.5, 4]
    for key, (fn, name) in stages.items():
        assert getattr(cfg, key) == inspect.signature(fn).parameters[name].default, key
