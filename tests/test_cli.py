import builtins
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwave.pipeline
from fwave.cli import main
from fwave.dataio import EcgRecording, load_recording, write_recording
from fwave.errors import ConfigError
from fwave.pipeline import PipelineConfig, _window_jobs

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _config(tmp_path, **overrides):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "seed": 123,
        "synth": {"n_af": 10, "n_sinus": 10},
    }
    cfg.update(overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _tree_hashes(root):
    return {
        os.path.relpath(os.path.join(d, f), root): _sha(os.path.join(d, f))
        for d, _, files in os.walk(root) for f in files
    }


def _one_line_error(capsys, *needles, prefix="config error: "):
    err = capsys.readouterr().err.strip()
    assert err.startswith(prefix) and "\n" not in err, err
    for needle in needles:
        assert needle in err, err


class TestSynthCommand:
    def test_writes_records_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        rc = main(["synth", "--n-af", "2", "--n-sinus", "1", "--out", out,
                   "--seed", "5"])
        assert rc == 0
        manifest = json.load(open(os.path.join(out, "records", "manifest.json")))
        assert len(manifest["records"]) == 3
        labels = [e["label"] for e in manifest["records"]]
        assert labels.count("AF") == 2 and labels.count("non-AF") == 1
        assert all(e["path"].endswith(".fwk") for e in manifest["records"])
        rec = load_recording(os.path.join(out, "records", manifest["records"][0]["path"]))
        assert rec.duration_s == pytest.approx(60.0)
        truth = json.load(open(os.path.join(out, "records",
                                            manifest["records"][0]["truth"])))
        assert 4.5 <= truth["daf_true"] <= 11.0
        assert "wrote 3 records" in capsys.readouterr().out

    def test_binary_format_flag(self, tmp_path):
        out = str(tmp_path / "o")
        rc = main(["synth", "--n-af", "1", "--n-sinus", "0", "--out", out,
                   "--format", "binary"])
        assert rc == 0
        manifest = json.load(open(os.path.join(out, "records", "manifest.json")))
        assert manifest["records"][0]["path"].endswith(".fwk")
        load_recording(os.path.join(out, "records", manifest["records"][0]["path"]))

    def test_csv_format_flag(self, tmp_path):
        out = str(tmp_path / "o")
        rc = main(["synth", "--n-af", "1", "--n-sinus", "0", "--out", out,
                   "--format", "csv"])
        assert rc == 0
        manifest = json.load(open(os.path.join(out, "records", "manifest.json")))
        path = os.path.join(out, "records", manifest["records"][0]["path"])
        assert path.endswith(".csv")
        assert open(path).readline().startswith("# record_id=")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = _config(tmp)
    rc = main(["run", "--config", cfg])
    assert rc == 0
    return json.load(open(tmp / "config.json"))["out_dir"]


class TestFullRun:
    def test_artifacts_present(self, run_dir):
        for name in ("features.csv", "metrics.json", "report.txt",
                     "daf.csv", "windows.json", "exclusions.json"):
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_metrics_schema(self, run_dir):
        metrics = json.load(open(os.path.join(run_dir, "metrics.json")))
        for m in ("TS_B", "TS_CE", "TS_SU", "TS_PCA", "vote"):
            assert set(metrics[m]) == {"f1", "auroc", "n_train", "n_test", "seed"}
            assert 0.0 <= metrics[m]["f1"] <= 1.0
            assert 0.0 <= metrics[m]["auroc"] <= 1.0
        assert sorted(metrics["ranking"]) == ["TS_B", "TS_CE", "TS_PCA", "TS_SU"]
        assert len(metrics["voting_set"]) == 3
        assert set(metrics["voting_set"]) <= set(metrics["ranking"])
        for m in ("TS_B", "vote"):
            assert set(metrics["daf_summary"][m]) == {"median", "q1", "q3"}

    def test_every_window_accounted_for(self, run_dir):
        windows = json.load(open(os.path.join(run_dir, "windows.json")))["windows"]
        excl = json.load(open(os.path.join(run_dir, "exclusions.json")))["windows"]
        used = {w["window_id"] for w in windows}
        excluded = {e["window_id"] for e in excl}
        assert not used & excluded
        assert len(used) + len(excluded) == 20

    def test_residuals_are_fwk(self, run_dir):
        windows = json.load(open(os.path.join(run_dir, "windows.json")))["windows"]
        names = sorted(os.listdir(os.path.join(run_dir, "residuals")))
        assert names == sorted(
            f"{w['window_id']}__{m}.fwk" for w in windows
            for m in ("TS_B", "TS_CE", "TS_SU", "TS_PCA")
        )
        rec = load_recording(os.path.join(run_dir, "residuals", names[0]))
        assert rec.samples.dtype == np.float64

    def test_spectra_dumped(self, run_dir):
        spectra = os.listdir(os.path.join(run_dir, "spectra"))
        assert len(spectra) == 4
        first = open(os.path.join(run_dir, "spectra", sorted(spectra)[0])).readline()
        assert first.strip() == "freq_hz,power"

    def test_report_shape(self, run_dir):
        text = open(os.path.join(run_dir, "report.txt")).read()
        assert "median (Q1-Q3)" in text
        assert "F1" in text and "AUROC" in text
        assert "NOT reproducible" in text
        assert "0.63" in text and "0.60" in text


class TestStagedComposition:
    def test_stages_match_monolithic_run(self, tmp_path):
        cfg_a = _config(tmp_path / "a", seed=77)
        cfg_b = _config(tmp_path / "b", seed=77)
        assert main(["run", "--config", cfg_a]) == 0
        for cmd in ("synth", "extract", "daf", "eval"):
            extra = ["--dump-beats"] if cmd == "extract" else []
            assert main([cmd, "--config", cfg_b, *extra]) == 0
        out_a = json.load(open(cfg_a))["out_dir"]
        out_b = json.load(open(cfg_b))["out_dir"]
        for name in ("features.csv", "metrics.json", "daf.csv", "report.txt"):
            assert _sha(os.path.join(out_a, name)) == _sha(os.path.join(out_b, name)), name
        # --dump-beats: one beat map per analysed window, none elsewhere
        wids = [w["window_id"] for w in json.load(open(os.path.join(out_b, "windows.json")))["windows"]]
        assert wids and sorted(os.listdir(os.path.join(out_b, "beats"))) == sorted(
            f"{wid}.json" for wid in wids
        )
        assert not os.path.exists(os.path.join(out_a, "beats"))
        for wid in wids:
            beats = json.load(open(os.path.join(out_b, "beats", f"{wid}.json")))
            assert np.all(np.diff(beats["r_peaks"]) > 0), wid
            assert len(beats["fiducials"]) == len(beats["r_peaks"]), wid
            # the rows are the beats' cuts: ordered, disjoint and inside the window
            fid = np.array(beats["fiducials"])
            n = len(load_recording(os.path.join(out_b, "residuals", f"{wid}__TS_B.fwk")).samples)
            assert np.all(np.diff(fid, axis=1) >= 0), wid
            assert np.all(fid[:-1, 3] <= fid[1:, 0]), wid
            assert fid[0, 0] >= 0 and fid[-1, 3] <= n, wid


class TestFiducials:
    def test_built_only_for_dump_beats(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("segment_fiducials called without --dump-beats")

        monkeypatch.setattr(fwave.pipeline, "segment_fiducials", refuse)
        cfg = _config(tmp_path, synth={"n_af": 6, "n_sinus": 6})
        assert main(["run", "--config", cfg]) == 0


class TestWorkers:
    def test_two_workers_match_one(self, tmp_path):
        cfg_a = _config(tmp_path / "a", seed=31)
        cfg_b = _config(tmp_path / "b", seed=31)
        assert main(["run", "--config", cfg_a, "--workers", "1", "--dump-beats"]) == 0
        assert main(["run", "--config", cfg_b, "--workers", "2", "--dump-beats"]) == 0
        out_a = json.load(open(cfg_a))["out_dir"]
        out_b = json.load(open(cfg_b))["out_dir"]
        hashes = _tree_hashes(out_a)
        assert any(name.startswith("residuals") for name in hashes)
        assert any(name.startswith("beats") for name in hashes)
        assert hashes == _tree_hashes(out_b)


class TestStageOrder:
    """A stage run before the stage that writes its input exits with a
    one-line config error naming the file and that stage."""

    def test_extract_before_synth(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["extract", "--config", cfg]) == 2
        _one_line_error(capsys, os.path.join("records", "manifest.json"), "fwave synth")

    def test_daf_before_extract(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["daf", "--config", cfg]) == 2
        _one_line_error(capsys, "windows.json", "fwave extract")

    def test_eval_before_daf(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["eval", "--config", cfg]) == 2
        _one_line_error(capsys, "daf.csv", "fwave daf")

    def test_residuals_from_an_older_version(self, tmp_path, capsys):
        # earlier versions wrote residuals as .csv; daf now reads .fwk
        cfg = _config(tmp_path)
        out = tmp_path / "out"
        (out / "residuals").mkdir(parents=True)
        (out / "windows.json").write_text(json.dumps({
            "windows": [{"window_id": "synth0000", "label": "AF", "fs": 200.0}],
            "extractors": ["TS_B"],
        }))
        rec = EcgRecording(samples=np.zeros(100) + 0.1, fs=200.0, record_id="synth0000")
        write_recording(rec, out / "residuals" / "synth0000__TS_B.csv", fmt="csv")
        assert main(["daf", "--config", cfg]) == 2
        _one_line_error(capsys, "synth0000__TS_B.fwk", "fwave extract")

    def test_missing_feature_table(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["eval", "--features", missing, "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, missing)

    def test_feature_table_is_a_directory(self, tmp_path, capsys):
        assert main(["eval", "--features", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, str(tmp_path), "not a file")


class TestMalformedStageFiles:
    """A stage input that is not what its stage writes exits 1 with a
    one-line error naming the file and that stage."""

    @pytest.mark.parametrize("text", [
        '{"records": 5',
        '{"recs": []}',
        '[]',
        '{"records": [{"id": "synth0000", "label": "AF"}]}',
        '{"records": [{"id": "synth0000", "label": "AF", "path": 7}]}',
        '{"records": [{"id": "synth0000", "label": "AF", "path": ""}]}',
        '{"records": [{"id": "synth0000", "label": "AF", "path": "../outside.fwk"}]}',
        '{"records": [{"id": "synth0000", "label": "AF", "path": "missing.fwk"}]}',
        '{"records": [{"id": "synth0000", "label": "XX", "path": "r.fwk"}]}',
        '{"records": [{"id": "synth0000", "label": "AF", "path": "r.fwk"},'
        ' {"id": "synth0000", "label": "non-AF", "path": "r.fwk"}]}',
        '{"records": [{"id": "a/b", "label": "AF", "path": "r.fwk"}]}',
    ], ids=["truncated", "no_list_key", "not_an_object", "entry_without_path",
            "path_not_a_string", "empty_path", "path_outside_records", "missing_record",
            "unknown_label", "repeated_id", "id_with_a_slash"])
    def test_manifest(self, tmp_path, capsys, text):
        cfg = _config(tmp_path)
        rec_dir = tmp_path / "out" / "records"
        rec_dir.mkdir(parents=True)
        # a readable record inside records/ and one just outside it
        rec = EcgRecording(samples=np.zeros(100) + 0.1, fs=200.0)
        for path in (rec_dir / "r.fwk", rec_dir.parent / "outside.fwk"):
            write_recording(rec, path, fmt="binary")
        (rec_dir / "manifest.json").write_text(text)
        assert main(["extract", "--config", cfg]) == 1
        _one_line_error(capsys, os.path.join("records", "manifest.json"), "fwave synth",
                        prefix="error: ")

    @pytest.mark.parametrize("meta", [
        {"windows": [{"window_id": "synth0000", "fs": 200.0}], "extractors": ["TS_B"]},
        {"windows": [{"window_id": "synth0000", "label": "AF", "fs": "200"}],
         "extractors": ["TS_B"]},
        {"windows": []},
        {"windows": [], "extractors": ["TS_X"]},
        {"windows": [], "extractors": ["TS_B", "TS_B"]},
        {"windows": [{"window_id": "synth0000", "label": "AF", "fs": 0}],
         "extractors": ["TS_B"]},
        {"windows": [{"window_id": "synth0000", "label": "XX", "fs": 200.0}],
         "extractors": ["TS_B"]},
        {"windows": [{"window_id": "synth0000", "label": "AF", "fs": 200.0}] * 2,
         "extractors": ["TS_B"]},
    ], ids=["entry_without_label", "fs_not_a_number", "no_extractors", "unknown_extractor",
            "repeated_extractor", "fs_not_positive", "unknown_label", "repeated_window"])
    def test_windows_json(self, tmp_path, capsys, meta):
        cfg = _config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "windows.json").write_text(json.dumps(meta))
        assert main(["daf", "--config", cfg]) == 1
        _one_line_error(capsys, "windows.json", "fwave extract", prefix="error: ")


class TestStageFileFuzz:
    """``fwave extract`` on a truncated or mutated ``records/manifest.json``,
    and ``fwave daf`` on a truncated or mutated ``windows.json``, end with
    an exit code of 0 to 3, whatever the bytes."""

    @pytest.fixture(scope="class")
    def stages(self, tmp_path_factory):
        out = {}
        for stage in ("extract", "daf"):
            tmp = tmp_path_factory.mktemp(stage)
            cfg = _config(tmp, synth={"n_af": 2, "n_sinus": 2, "duration_s": 12})
            assert main(["synth", "--config", cfg]) == 0
            path = tmp / "out" / "records" / "manifest.json"
            if stage == "daf":
                assert main(["extract", "--config", cfg]) == 0
                path = tmp / "out" / "windows.json"
            out[stage] = (cfg, path, path.read_bytes())
        return out

    @staticmethod
    def _check(stages, stage, mutate):
        cfg, path, valid = stages[stage]
        path.write_bytes(mutate(valid))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([stage, "--config", cfg]) in (0, 1, 2, 3)

    @given(stage=st.sampled_from(["extract", "daf"]), cut=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_truncated(self, stages, stage, cut):
        self._check(stages, stage, lambda data: data[: int(cut * len(data))])

    @given(stage=st.sampled_from(["extract", "daf"]),
           flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
                          min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_byte_flipped(self, stages, stage, flips):
        def mutate(valid):
            data = bytearray(valid)
            for where, mask in flips:
                data[min(int(where * len(data)), len(data) - 1)] ^= mask
            return bytes(data)

        self._check(stages, stage, mutate)


class TestRecordingPaths:
    """A ``recordings`` entry naming a file that does not exist exits with
    a one-line config error naming the path and the config key."""

    @staticmethod
    def _entry(tmp_path):
        rec_path = tmp_path / "r.fwk"
        write_recording(EcgRecording(samples=np.zeros(100) + 0.1, fs=200.0),
                        rec_path, fmt="binary")
        ann_path = tmp_path / "r.json"
        ann_path.write_text(json.dumps([{"onset": 0, "offset": 100, "label": "non-AF"}]))
        return {"recording": str(rec_path), "annotation": str(ann_path)}

    @pytest.mark.parametrize("key", ["recording", "annotation"])
    def test_missing_file(self, tmp_path, capsys, key):
        entry = self._entry(tmp_path)
        entry[key] = str(tmp_path / "missing")
        cfg = _config(tmp_path, synth=None, recordings=[entry])
        assert main(["extract", "--config", cfg]) == 2
        _one_line_error(capsys, str(tmp_path / "missing"), f"recordings[0].{key}")

    def test_absent_key(self, tmp_path, capsys):
        entry = self._entry(tmp_path)
        del entry["annotation"]
        cfg = _config(tmp_path, synth=None, recordings=[entry])
        assert main(["extract", "--config", cfg]) == 2
        _one_line_error(capsys, "recordings[0].annotation")


class TestWindowIds:
    def test_colliding_record_ids_rejected(self, tmp_path, capsys):
        # header-less CSVs all get record_id "unknown", so their windows
        # would share ids and overwrite each other's residuals
        fs = 200
        x = 0.1 * np.sin(np.arange(130 * fs) * 0.05)
        recordings = []
        for i in range(2):
            rec_path = tmp_path / f"r{i}.csv"
            rec_path.write_text("# fs=200\n" + "\n".join(f"{v:.6f}" for v in x) + "\n")
            ann_path = tmp_path / f"r{i}.json"
            ann_path.write_text(json.dumps([
                {"onset": 0, "offset": 65 * fs, "label": "AF"},
                {"onset": 65 * fs, "offset": 130 * fs, "label": "non-AF"},
            ]))
            recordings.append({"recording": str(rec_path), "annotation": str(ann_path)})
        cfg = _config(tmp_path, synth=None, recordings=recordings)
        assert main(["extract", "--config", cfg]) == 2
        _one_line_error(capsys, "unknown_w000000000", "record_id")
        out = tmp_path / "out"
        assert not (out / "residuals").exists() and not (out / "windows.json").exists()

    @pytest.mark.parametrize("record_id", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_record_id_naming_no_file_rejected(self, tmp_path, capsys, record_id):
        # window ids start with the header record_id and name residual files
        fs = 200
        rec_path = tmp_path / "r.fwk"
        write_recording(EcgRecording(0.1 * np.sin(np.arange(130 * fs) * 0.05), fs,
                                     record_id=record_id), rec_path, fmt="binary")
        ann_path = tmp_path / "r.json"
        ann_path.write_text(json.dumps([
            {"onset": 0, "offset": 65 * fs, "label": "AF"},
            {"onset": 65 * fs, "offset": 130 * fs, "label": "non-AF"},
        ]))
        cfg = _config(tmp_path, synth=None,
                      recordings=[{"recording": str(rec_path), "annotation": str(ann_path)}])
        assert main(["extract", "--config", cfg]) == 1
        _one_line_error(capsys, str(rec_path), repr(record_id), prefix="error: ")
        assert not (tmp_path / "out" / "residuals").exists()


class TestStaleManifest:
    def test_recordings_run_ignores_old_synth_records(self, tmp_path):
        # a synth run left records/manifest.json in the out_dir
        assert main(["synth", "--out", str(tmp_path / "out"), "--n-af", "1", "--n-sinus", "1"]) == 0
        fs = 200
        rec_path = tmp_path / "r.fwk"
        write_recording(EcgRecording(samples=0.1 * np.sin(np.arange(130 * fs) * 0.05), fs=fs,
                                     record_id="hol0"), rec_path, fmt="binary")
        ann_path = tmp_path / "r.json"
        ann_path.write_text(json.dumps([{"onset": 0, "offset": 65 * fs, "label": "AF"},
                                        {"onset": 65 * fs, "offset": 130 * fs, "label": "non-AF"}]))
        cfg = PipelineConfig.from_dict({"out_dir": str(tmp_path / "out"), "recordings": [
            {"recording": str(rec_path), "annotation": str(ann_path)}]})
        jobs, _ = _window_jobs(cfg)
        assert [wid for wid, *_ in jobs] == ["hol0_w000000000", "hol0_w000013000"]


class TestNonAfDraws:
    @staticmethod
    def _nonaf_starts(tmp_path, seed):
        # two recordings with one layout: three 60 s AF events (one
        # window each) between ten 60 s non-AF slots
        fs = 200
        x = 0.1 * np.sin(np.arange(780 * fs) * 0.05)
        recordings = []
        for i in range(2):
            rec_path = tmp_path / f"r{i}.fwk"
            write_recording(EcgRecording(samples=x, fs=fs, record_id=f"rec{i}"),
                            rec_path, fmt="binary")
            ann_path = tmp_path / f"r{i}.json"
            ann_path.write_text(json.dumps([
                {"onset": a * fs, "offset": b * fs, "label": label}
                for a, b, label in ((0, 60, "AF"), (60, 360, "non-AF"), (360, 420, "AF"),
                                    (420, 720, "non-AF"), (720, 780, "AF"))
            ]))
            recordings.append({"recording": str(rec_path), "annotation": str(ann_path)})
        cfg = PipelineConfig.from_dict(
            {"out_dir": str(tmp_path / "out"), "seed": seed, "recordings": recordings}
        )
        jobs, _ = _window_jobs(cfg)
        starts = {"rec0": [], "rec1": []}
        for wid, _, _, label in jobs:
            if label == "non-AF":
                rid, start = wid.split("_w")
                starts[rid].append(int(start))
        return starts

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_recordings_draw_independently(self, tmp_path, seed):
        starts = self._nonaf_starts(tmp_path, seed)
        assert len(starts["rec0"]) == len(starts["rec1"]) == 3
        assert starts["rec0"] != starts["rec1"]
        assert self._nonaf_starts(tmp_path, seed) == starts


# (key, value, a word the one-line error must contain): every value is
# refused by the PipelineConfig constructor, so every path that builds a
# config refuses it
BAD_VALUES = [
    ("bsqi_segment_s", "10", "bsqi_segment_s"),
    ("workers", "2", "workers"),
    ("workers", True, "workers"),
    ("min_beats", "8", "min_beats"),
    ("min_beats", 0, "min_beats"),
    ("seed", -1, "seed"),
    ("dump_beats", 1, "dump_beats"),
    ("extractors", 5, "extractors"),
    ("synth", [], "synth"),
    ("filter", {"band_low": "0.5"}, "filter.band_low"),
    ("filter", {"bogus": 1}, "bogus"),
    ("extractors", [], "extractors"),
    ("extractors", ["TS_B", "TS_B", "TS_CE"], "extractors"),
    ("voting_set", [], "voting_set"),
    ("voting_set", ["TS_B", "TS_B"], "voting_set"),
    ("synth", {"n_af": "x"}, "synth.n_af"),
    ("synth", {"bogus": 1}, "bogus"),
    ("synth", {"f0_range": [5.0]}, "synth.f0_range"),
    ("synth", {"f0_range": [11.0, 4.0]}, "synth.f0_range"),
    ("rf_n_trees", 0, "rf_n_trees"),
    ("welch_seg_s", 0, "welch_seg_s"),
    ("welch_overlap", 1.0, "welch_overlap"),
    ("welch_overlap", -0.5, "welch_overlap"),
    ("bsqi_match_tol_ms", -5, "bsqi_match_tol_ms"),
    ("rf_max_depth", -3, "rf_max_depth"),
    ("rf_max_depth", 0, "rf_max_depth"),
    ("bsqi_segment_s", float("nan"), "bsqi_segment_s"),
    ("bsqi_threshold", float("nan"), "bsqi_threshold"),
    ("window_s", float("inf"), "window_s"),
    ("welch_seg_s", float("-inf"), "welch_seg_s"),
    ("filter", {"band_high": float("nan")}, "filter.band_high"),
    ("filter", {"notch_q": float("inf")}, "filter.notch_q"),
    ("synth", {"duration_s": float("inf")}, "synth.duration_s"),
    ("synth", {"noise_rms_mv": float("nan")}, "synth.noise_rms_mv"),
    ("synth", {"f0_range": [4.0, float("inf")]}, "synth.f0_range"),
    ("synth", {"f0_range": [2.0, 6.0]}, "synth.f0_range"),  # some draws fall below 4 Hz
    ("bsqi_threshold", 1.01, "bsqi_threshold"),
    ("bsqi_threshold", 2.0, "bsqi_threshold"),
    ("bsqi_threshold", -1.0, "bsqi_threshold"),
    ("window_s", 4.0, "window_s"),
    ("synth", {"duration_s": 5.0}, "synth.duration_s"),
    ("synth", {"fs": 0}, "synth.fs"),
    ("synth", {"n_af": -1}, "synth.n_af"),
    ("synth", {"n_af": 0, "n_sinus": 0}, "synth.n_sinus"),
    ("filter", {"notch_freq": 0}, "filter.notch_freq"),
    ("filter", {"notch_freq": -60}, "filter.notch_freq"),
    ("filter", {"notch_q": 0}, "filter.notch_q"),
    ("filter", {"notch_q": -1}, "filter.notch_q"),
]


class TestExitCodes:
    @pytest.mark.parametrize("key, value, needle", BAD_VALUES)
    def test_bad_value_is_2(self, tmp_path, capsys, key, value, needle):
        cfg = _config(tmp_path, **{key: value})
        assert main(["run", "--config", cfg]) == 2
        _one_line_error(capsys, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, needle", BAD_VALUES)
    def test_bad_value_fails_construction(self, key, value, needle):
        with pytest.raises(ConfigError, match=re.escape(needle)):
            PipelineConfig(**{key: value})

    def test_disabled_notch_is_not_checked(self):
        cfg = PipelineConfig(filter={"notch_q": 0, "notch_enabled": False})
        assert cfg.filter.notch_q == 0

    @pytest.mark.parametrize("key, value, needle", [
        ("welch_seg_s", 0.02, "welch_seg_s"),  # no Welch bin in the DAF band
        ("welch_seg_s", 0.001, "welch_seg_s"),  # segments of zero samples
        ("filter", {"notch_freq": 0}, "filter.notch_freq"),
        ("filter", {"notch_freq": -60}, "filter.notch_freq"),
        ("filter", {"notch_q": 0}, "filter.notch_q"),
        ("filter", {"notch_q": -1}, "filter.notch_q"),
        ("welch_seg_s", 40.0, "welch_seg_s"),  # longer than the 30 s records
    ])
    def test_unbuildable_filter_or_spectrum_is_2(self, tmp_path, capsys, key, value, needle):
        cfg = _config(tmp_path, synth={"n_af": 3, "n_sinus": 3, "duration_s": 30.0},
                      **{key: value})
        assert main(["run", "--config", cfg]) == 2
        _one_line_error(capsys, needle)

    @pytest.mark.parametrize("seg_s", [
        0.02,  # 12.5 Hz bins: none in the DAF band
        0.001,  # segments of zero samples
    ])
    def test_welch_grid_of_a_synth_run_fails_construction(self, tmp_path, capsys, seg_s):
        # the synth block fixes fs, so the grid is checked before any stage runs
        synth = {"n_af": 3, "n_sinus": 3, "duration_s": 30.0}
        with pytest.raises(ConfigError, match="welch_seg_s"):
            PipelineConfig(out_dir=str(tmp_path / "out"), synth=synth, welch_seg_s=seg_s)
        assert main(["run", "--config", _config(tmp_path, synth=synth, welch_seg_s=seg_s)]) == 2
        _one_line_error(capsys, "welch_seg_s")
        assert not (tmp_path / "out").exists()

    def test_reversed_f0_flags_are_2(self, tmp_path, capsys):
        argv = ["synth", "--out", str(tmp_path / "o"), "--f0-min", "11", "--f0-max", "4"]
        assert main(argv) == 2
        _one_line_error(capsys, "synth.f0_range")

    def test_config_error_is_2(self, tmp_path):
        cfg = _config(tmp_path, bogus_key=1)
        assert main(["run", "--config", cfg]) == 2

    def test_missing_config_is_2(self):
        assert main(["run"]) == 2

    def test_unreadable_config_is_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["run", "--config", str(path)]) == 2
        _one_line_error(capsys, "cannot read config", str(path))

    def test_non_object_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path)]) == 2
        _one_line_error(capsys, "JSON object")

    def test_voting_set_must_be_subset(self, tmp_path):
        cfg = _config(tmp_path, voting_set=["TS_B", "TS_X", "TS_SU"])
        assert main(["run", "--config", cfg]) == 2

    def test_short_bsqi_segment_is_2(self, tmp_path, capsys):
        cfg = _config(tmp_path, bsqi_segment_s=2, synth={"n_af": 3, "n_sinus": 3})
        assert main(["run", "--config", cfg]) == 2
        _one_line_error(capsys, "bsqi_segment_s", "5 s")

    def test_infeasible_filter_is_2(self, tmp_path, capsys):
        # synth records are filtered like recordings, before any window is gated
        cfg = _config(tmp_path, filter={"band_low": 95.0}, synth={"n_af": 3, "n_sinus": 3})
        assert main(["run", "--config", cfg]) == 2
        _one_line_error(capsys, "infeasible passband [95.0, 90.0] Hz at fs=200.0")

    def test_data_failing_the_gate_excludes_everything(self, tmp_path):
        cfg = _config(tmp_path, synth={"n_af": 3, "n_sinus": 3, "duration_s": 30.0,
                                       "noise_rms_mv": 0.5})
        rc = main(["run", "--config", cfg])
        assert rc == 3
        out_dir = json.load(open(cfg))["out_dir"]
        ledger = json.load(open(os.path.join(out_dir, "exclusions.json")))
        assert len(ledger["windows"]) == 6
        assert all("bsqi" in e["reason"] for e in ledger["windows"])


class TestConfigReadsNoFile:
    def test_missing_out_dir(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "missing")

        def no_io(*args, **kwargs):
            raise AssertionError(f"building a config touched the filesystem: {args}")

        with monkeypatch.context() as m:
            for module, name in ((os, "stat"), (os, "listdir"), (builtins, "open")):
                m.setattr(module, name, no_io)
            PipelineConfig(out_dir=out)
            PipelineConfig.from_dict({"out_dir": out})
        assert not os.path.exists(out)
        cfg = _config(tmp_path, out_dir=out, synth=None)
        assert main(["run", "--config", cfg]) == 2
        _one_line_error(capsys, os.path.join("records", "manifest.json"), "fwave synth")


class TestEvalOnFeatureTable:
    def test_hand_written_features(self, tmp_path, capsys):
        rows = ["window_id,method,daf_hz,label,split"]
        rng = np.random.default_rng(0)
        for i in range(30):
            split = "train" if i < 24 else "test"
            rows.append(f"af{i:02d},vote,{rng.uniform(5.5, 7.5):.4f},AF,{split}")
            rows.append(f"ns{i:02d},vote,{rng.uniform(9, 11):.4f},non-AF,{split}")
        feat = tmp_path / "features.csv"
        feat.write_text("\n".join(rows) + "\n")
        rc = main(["eval", "--features", str(feat), "--out", str(tmp_path / "o"),
                   "--seed", "1"])
        assert rc == 0
        metrics = json.load(open(tmp_path / "o" / "metrics.json"))
        assert metrics["vote"]["auroc"] == pytest.approx(1.0)
        assert metrics["vote"]["f1"] == pytest.approx(1.0)

    def test_full_precision_features_give_no_nan(self, tmp_path):
        # 12.0 and the float just below it: their midpoint rounds onto 12.0
        lo, hi = repr(float(np.nextafter(12.0, 0))), repr(12.0)
        rows = ["window_id,method,daf_hz,label,split"]
        for i in range(12):
            rows.append(f"af{i:02d},vote,{hi},AF,train")
            rows.append(f"ns{i:02d},vote,{lo},non-AF,train")
        for i in range(3):
            rows.append(f"taf{i},vote,13.0,AF,test")
            rows.append(f"tns{i},vote,5.0,non-AF,test")
        feat = tmp_path / "features.csv"
        feat.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--features", str(feat), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "metrics.json").read_text()
        assert "NaN" not in text, text
        assert json.loads(text)["vote"]["auroc"] == pytest.approx(1.0)

    def test_window_lacking_a_voting_method_is_exit_1(self, tmp_path, capsys):
        rows = ["window_id,method,daf_hz,label,split"]
        for i in range(12):
            split = "train" if i < 8 else "test"
            for wid, daf, label in ((f"af{i:02d}", 6.0, "AF"), (f"ns{i:02d}", 10.0, "non-AF")):
                for method in ("TS_B", "TS_CE"):
                    if (wid, method) != ("ns03", "TS_CE"):
                        rows.append(f"{wid},{method},{daf + i / 100},{label},{split}")
        feat = tmp_path / "features.csv"
        feat.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--features", str(feat), "--out", str(tmp_path / "o")]) == 1
        _one_line_error(capsys, "window ns03", "TS_CE", prefix="error: ")

    @pytest.mark.parametrize("data, needle", [
        (b"window_id,method,label,split\nw0,vote,AF,train\n", "daf_hz"),
        (b"window_id,method,daf_hz,label,split\nw0,vote,6.1,AF,train\n"
         b"w1,vote,six,AF,train\n", "line 3"),
        (b"window_id,method,daf_hz,label,split\nw0,vote,6.1,AF,tr\xe4in\n", "utf-8"),
        (b"window_id,method,daf_hz,label,split\nw0,vote,6.1,AF,train\n"
         b"w0,vote,6.2,AF,train\n", "line 3"),
        (b"window_id,method,daf_hz,label,split\nw0,vote,6.1,af,train\n", "line 2"),
        (b"window_id,method,daf_hz,label,split\nw0,vote,6.1,AF,train\n"
         b"w1,vote,9.8,XX,train\n", "'XX'"),
        (b"window_id,method,daf_hz,label,split\nw0,TS_B,6.1,non-AF,train\n"
         b"w0,TS_CE,6.2,AF,train\n", "line 3: window 'w0'"),
        (b"window_id,method,daf_hz,label,split\nw1,TS_B,6.1,AF,train\n"
         b"w1,TS_SU,6.2,AF,test\n", "line 3: window 'w1'"),
    ], ids=["no_daf_column", "non_numeric", "non_utf8", "repeated_row", "lowercase_label",
            "unknown_label", "label_differs_in_window", "split_differs_in_window"])
    def test_malformed_table_is_exit_1(self, tmp_path, capsys, data, needle):
        feat = tmp_path / "features.csv"
        feat.write_bytes(data)
        assert main(["eval", "--features", str(feat), "--out", str(tmp_path / "o")]) == 1
        _one_line_error(capsys, str(feat), needle, prefix="error: ")


class TestColdStart:
    """Each check runs in a fresh interpreter: the test run itself has
    long since loaded ``scipy.signal`` through the shared fixtures."""

    SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    # the filters and the Welch spectrum are numpy alone, so importing
    # the CLI loads none of scipy.signal, scipy.fft and scipy.linalg, and
    # no command loads scipy.signal or scipy.fft
    SCRIPT = (
        "import sys\n"
        "from fwave import cli\n"
        "before = any(m in sys.modules for m in ('scipy.signal', 'scipy.fft', 'scipy.linalg'))\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, before, any(m in sys.modules for m in ('scipy.signal', 'scipy.fft')))\n"
    )

    # the filters are numpy alone, so no scipy module loads at all
    NO_SCIPY_SCRIPT = (
        "import sys\n"
        "from fwave import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)\n"
    )

    def _fresh(self, *argv, script=SCRIPT):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_eval_on_a_feature_table_never_loads_scipy_signal(self, tmp_path):
        rows = ["window_id,method,daf_hz,label,split"]
        for i in range(10):
            split = "train" if i < 8 else "test"
            for method in ("TS_B", "TS_CE", "TS_SU", "TS_PCA"):
                rows.append(f"af{i:02d},{method},{6 + i / 10},AF,{split}")
                rows.append(f"ns{i:02d},{method},{9 + i / 10},non-AF,{split}")
        feat = tmp_path / "features.csv"
        feat.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "o")
        assert self._fresh("eval", "--features", str(feat), "--out", out) == ["0", "False", "False"]
        assert os.path.exists(os.path.join(out, "metrics.json"))

    def test_refused_welch_grid_never_loads_scipy_signal(self, tmp_path):
        # a synth block fixes fs, so the grid is checked in plain numpy
        cfg = _config(tmp_path, welch_seg_s=0.02,
                      synth={"n_af": 5, "n_sinus": 5, "duration_s": 12.0})
        assert self._fresh("run", "--config", cfg) == ["2", "False", "False"]

    def test_run_and_each_stage_never_load_scipy_signal(self, tmp_path):
        cfg = _config(tmp_path, window_s=12.0, synth={"n_af": 5, "n_sinus": 5, "duration_s": 12.0})
        assert self._fresh("run", "--config", cfg) == ["0", "False", "False"]
        staged = str(tmp_path / "staged")
        for stage in ("synth", "extract", "daf"):
            assert self._fresh(stage, "--config", cfg, "--out", staged) == ["0", "False", "False"]
        assert os.path.exists(os.path.join(staged, "daf.csv"))

    def test_run_and_each_stage_load_no_scipy(self, tmp_path):
        cfg = _config(tmp_path, window_s=12.0, synth={"n_af": 5, "n_sinus": 5, "duration_s": 12.0})
        assert self._fresh("run", "--config", cfg, script=self.NO_SCIPY_SCRIPT) == ["0", "None"]
        staged = str(tmp_path / "staged")
        for stage in ("synth", "extract", "daf"):
            argv = (stage, "--config", cfg, "--out", staged)
            assert self._fresh(*argv, script=self.NO_SCIPY_SCRIPT) == ["0", "None"]
        assert os.path.exists(os.path.join(staged, "daf.csv"))
