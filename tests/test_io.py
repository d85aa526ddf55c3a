import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwave.dataio import (
    BINARY_MAGIC,
    EcgRecording,
    RhythmAnnotation,
    extract_af_windows,
    load_annotations,
    load_recording,
    sample_nonaf_windows,
    write_annotations,
    write_recording,
)
import fwave.dataio
from fwave.errors import FormatError


def _fwk_bytes(header, payload: bytes) -> bytes:
    """A hand-built ``.fwk`` file: magic, header length, JSON header, payload."""
    raw = json.dumps(header).encode("utf-8")
    return BINARY_MAGIC + struct.pack("<I", len(raw)) + raw + payload


def _write_csv(path, samples, fs=200.0, record_id="rec1", lead="V1"):
    with open(path, "w") as fh:
        fh.write(f"# record_id={record_id}\n# fs={fs}\n# lead={lead}\n")
        for v in samples:
            fh.write(f"{v}\n")



def _write_csv_loop(rec, path):
    """``write_recording(fmt="csv")`` as it was: one write per sample."""
    with open(path, "w") as fh:
        fh.write(f"# record_id={rec.record_id}\n")
        fh.write(f"# fs={rec.fs}\n")
        fh.write(f"# lead={rec.lead_name}\n")
        for v in rec.samples:
            fh.write(f"{v:.9g}\n")


class TestCsvWriter:
    """All samples are formatted in one operation; the bytes are those
    of the loop that wrote one sample at a time."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-7, 123456789.0, 1234567891.0, -1.5e300]), min_size=1, max_size=300),
        st.sampled_from([200.0, 250, 128.5]))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_sample_loop(self, tmp_path_factory, values, fs):
        d = tmp_path_factory.mktemp("csv")
        rec = EcgRecording(np.array(values), fs, "II", "r1")
        write_recording(rec, d / "new.csv", fmt="csv")
        _write_csv_loop(rec, d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


class TestCsvFormat:
    def test_loads_60s_recording(self, tmp_path):
        p = tmp_path / "r.csv"
        _write_csv(p, np.zeros(12000) + 0.5, fs=200.0)
        rec = load_recording(p)
        assert rec.fs == 200.0
        assert len(rec.samples) == 12000
        assert rec.duration_s == pytest.approx(60.0)
        assert rec.record_id == "rec1"
        assert rec.lead_name == "V1"

    def test_nan_row_names_the_line(self, tmp_path):
        p = tmp_path / "r.csv"
        with open(p, "w") as fh:
            fh.write("# fs=200\n0.1\nNaN\n0.2\n")
        with pytest.raises(FormatError, match=r":3"):
            load_recording(p)

    def test_garbage_row_is_a_format_error(self, tmp_path):
        p = tmp_path / "r.csv"
        with open(p, "w") as fh:
            fh.write("# fs=200\n0.1\nhello\n")
        with pytest.raises(FormatError, match=r":3"):
            load_recording(p)

    def test_missing_fs_header(self, tmp_path):
        p = tmp_path / "r.csv"
        with open(p, "w") as fh:
            fh.write("# lead=V1\n0.1\n0.2\n")
        with pytest.raises(FormatError, match="fs"):
            load_recording(p)

    def test_nonpositive_fs(self, tmp_path):
        p = tmp_path / "r.csv"
        _write_csv(p, [0.1, 0.2], fs=0)
        with pytest.raises(FormatError, match="positive"):
            load_recording(p)

    def test_non_utf8_bytes(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(b"# fs=200\n0.1\n\xff\xfe0.2\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_recording(p)

    def test_csv_roundtrip(self, tmp_path):
        rec = EcgRecording(samples=np.sin(np.arange(100) * 0.3), fs=128.0,
                           lead_name="L", record_id="abc")
        p = tmp_path / "r.csv"
        write_recording(rec, p, fmt="csv")
        back = load_recording(p)
        assert back.record_id == "abc"
        assert back.fs == 128.0
        np.testing.assert_allclose(back.samples, rec.samples, rtol=1e-8)


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        # float32 storage: write what float32 can hold exactly
        samples = np.sin(np.arange(5000) * 0.01).astype(np.float32).astype(np.float64)
        rec = EcgRecording(samples=samples, fs=200.0, lead_name="V1", record_id="bin1")
        p = tmp_path / "r.fwk"
        write_recording(rec, p, fmt="binary")
        back = load_recording(p)
        assert back.record_id == "bin1"
        assert back.fs == 200.0
        assert np.array_equal(back.samples, samples)

    def test_float64_roundtrip_bit_exact(self, tmp_path):
        samples = np.random.default_rng(0).normal(size=5000)
        rec = EcgRecording(samples=samples, fs=250.0, lead_name="V1", record_id="f64")
        p = tmp_path / "r.fwk"
        write_recording(rec, p, fmt="binary")
        back = load_recording(p)
        assert back.samples.dtype == np.float64
        assert back.samples.tobytes() == samples.tobytes()

    def test_legacy_float32_file_loads(self, tmp_path):
        # files written before the dtype key carry float32 samples
        payload = np.random.default_rng(1).normal(size=300).astype("<f4")
        p = tmp_path / "old.fwk"
        p.write_bytes(_fwk_bytes(
            {"record_id": "old", "fs": 200.0, "lead": "V1", "n": 300}, payload.tobytes()))
        back = load_recording(p)
        assert back.record_id == "old" and back.fs == 200.0
        assert np.array_equal(back.samples, payload.astype(np.float64))

    def test_unknown_dtype(self, tmp_path):
        p = tmp_path / "r.fwk"
        p.write_bytes(_fwk_bytes(
            {"record_id": "r", "fs": 200.0, "lead": "V1", "n": 4, "dtype": "<i2"}, b"\0" * 32))
        with pytest.raises(FormatError, match="unknown sample dtype '<i2'"):
            load_recording(p)

    @pytest.mark.parametrize("bad", [
        {"n": "abc"}, {"n": 1.5}, {"n": -1}, {"n": True}, {"fs": "x"}, {"fs": None},
        {"fs": float("inf")}, {"fs": 0.0},
    ])
    def test_bad_header_values(self, tmp_path, bad):
        header = {"record_id": "r", "fs": 200.0, "lead": "V1", "n": 2, "dtype": "<f8", **bad}
        p = tmp_path / "r.fwk"
        p.write_bytes(_fwk_bytes(header, np.ones(2).tobytes()))
        with pytest.raises(FormatError):
            load_recording(p)

    def test_header_not_an_object(self, tmp_path):
        p = tmp_path / "r.fwk"
        p.write_bytes(_fwk_bytes(["record_id", "fs", "lead", "n"], b""))
        with pytest.raises(FormatError, match="object"):
            load_recording(p)

    def test_header_length_past_end(self, tmp_path):
        p = tmp_path / "r.fwk"
        p.write_bytes(BINARY_MAGIC + struct.pack("<I", 2**32 - 1) + b"{}")
        with pytest.raises(FormatError, match="exceeds"):
            load_recording(p)

    def test_format_inferred_from_magic(self, tmp_path):
        rec = EcgRecording(samples=np.ones(100), fs=200.0)
        pb = tmp_path / "b.dat"
        pc = tmp_path / "c.dat"
        write_recording(rec, pb, fmt="binary")
        write_recording(rec, pc, fmt="csv")
        assert len(load_recording(pb).samples) == 100
        assert len(load_recording(pc).samples) == 100

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("given_fmt", [False, True])
    def test_one_open_per_load(self, tmp_path, monkeypatch, fmt, given_fmt):
        rec = EcgRecording(samples=np.arange(100) / 7, fs=200.0, record_id="r9")
        p = tmp_path / "r.dat"
        write_recording(rec, p, fmt=fmt)
        opens = []
        monkeypatch.setattr(fwave.dataio, "open",
                            lambda *args, **kw: opens.append(args) or open(*args, **kw),
                            raising=False)
        back = load_recording(p, fmt=fmt if given_fmt else None)
        assert opens == [(str(p), "rb")]
        assert back.record_id == "r9" and len(back.samples) == 100

    def test_truncated_payload(self, tmp_path):
        rec = EcgRecording(samples=np.ones(100), fs=200.0)
        p = tmp_path / "r.fwk"
        write_recording(rec, p, fmt="binary")
        data = p.read_bytes()
        p.write_bytes(data[:-40])
        with pytest.raises(FormatError, match="expected 100 samples"):
            load_recording(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "r.fwk"
        p.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(FormatError, match="bad magic"):
            load_recording(p, fmt="binary")

    def test_long_recording(self, tmp_path):
        # Holter-scale file: an hour at 200 Hz loads with correct duration
        rec = EcgRecording(samples=np.zeros(720_000) + 1.0, fs=200.0)
        p = tmp_path / "r.fwk"
        write_recording(rec, p, fmt="binary")
        assert load_recording(p).duration_s == pytest.approx(3600.0)


def _valid_files():
    rec = EcgRecording(samples=np.sin(np.arange(40) * 0.3), fs=200.0,
                       lead_name="V1", record_id="fz")
    legacy = _fwk_bytes({"record_id": "fz", "fs": 200.0, "lead": "V1", "n": 40},
                        rec.samples.astype("<f4").tobytes())
    return rec, legacy


class TestLoaderFuzz:
    """``load_recording`` returns a valid recording or raises FormatError,
    whatever bytes it is given."""

    @pytest.fixture(scope="class")
    def seeds(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        rec, legacy = _valid_files()
        write_recording(rec, d / "r.fwk", fmt="binary")
        write_recording(rec, d / "r.csv", fmt="csv")
        files = [(d / "r.fwk").read_bytes(), (d / "r.csv").read_bytes(), legacy]
        return d / "case.dat", files

    @staticmethod
    def _check(path, data):
        path.write_bytes(data)
        try:
            rec = load_recording(path)
        except FormatError:
            return
        assert isinstance(rec, EcgRecording)
        assert rec.samples.dtype == np.float64 and rec.samples.ndim == 1
        assert rec.samples.size > 0 and np.all(np.isfinite(rec.samples))
        assert 0 < rec.fs < np.inf
        assert isinstance(rec.record_id, str) and isinstance(rec.lead_name, str)

    @given(data=st.binary(max_size=600), magic=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, seeds, data, magic):
        path, _ = seeds
        self._check(path, (BINARY_MAGIC if magic else b"") + data)

    @given(which=st.integers(0, 2), cut=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_truncated(self, seeds, which, cut):
        path, files = seeds
        data = files[which]
        self._check(path, data[: int(cut * len(data))])

    @given(which=st.integers(0, 2),
           flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
                          min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_byte_flipped(self, seeds, which, flips):
        path, files = seeds
        data = bytearray(files[which])
        for where, mask in flips:
            data[min(int(where * len(data)), len(data) - 1)] ^= mask
        self._check(path, bytes(data))


class TestAnnotationFuzz:
    """``load_annotations`` returns a RhythmAnnotation or raises
    FormatError, whatever bytes it is given."""

    VALID = json.dumps([
        {"onset": 0, "offset": 12000, "label": "non-AF"},
        {"onset": 12000, "offset": 30000, "label": "AF"},
    ], indent=1).encode("utf-8")

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("annfuzz") / "a.json"

    @staticmethod
    def _check(path, data):
        path.write_bytes(data)
        try:
            ann = load_annotations(path)
        except FormatError:
            return
        assert isinstance(ann, RhythmAnnotation)
        for onset, offset, label in ann.events:
            assert isinstance(onset, int) and isinstance(offset, int)
            assert isinstance(label, str)

    @given(data=st.binary(max_size=600))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, path, data):
        self._check(path, data)

    @given(cut=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_truncated(self, path, cut):
        self._check(path, self.VALID[: int(cut * len(self.VALID))])

    @given(flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
                          min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_byte_flipped(self, path, flips):
        data = bytearray(self.VALID)
        for where, mask in flips:
            data[min(int(where * len(data)), len(data) - 1)] ^= mask
        self._check(path, bytes(data))

    @pytest.mark.parametrize("text", [
        '[{"onset": "abc", "offset": 10, "label": "AF"}]',
        '[{"onset": 1e999, "offset": 10, "label": "AF"}]',
        '[{"onset": NaN, "offset": 10, "label": "AF"}]',
    ], ids=["text", "overflow", "nan"])
    def test_bad_onset(self, tmp_path, text):
        p = tmp_path / "a.json"
        p.write_text(text)
        with pytest.raises(FormatError, match="event 0"):
            load_annotations(p)


class TestRecordingInvariants:
    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            EcgRecording(samples=np.array([]), fs=200.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(FormatError, match="index 1"):
            EcgRecording(samples=np.array([0.0, np.inf]), fs=200.0)


class TestAnnotations:
    def test_roundtrip(self, tmp_path):
        ann = RhythmAnnotation(events=[(0, 5000, "non-AF"), (5000, 9000, "AF")])
        p = tmp_path / "a.json"
        write_annotations(ann, p)
        back = load_annotations(p)
        assert back.events == ann.events
        back.validate(9000)

    def test_rejects_overlap(self):
        ann = RhythmAnnotation(events=[(0, 5000, "AF"), (4000, 9000, "non-AF")])
        with pytest.raises(FormatError, match="overlap"):
            ann.validate(9000)

    def test_rejects_unknown_label(self):
        ann = RhythmAnnotation(events=[(0, 100, "flutter")])
        with pytest.raises(FormatError, match="flutter"):
            ann.validate(100)

    def test_rejects_out_of_bounds(self):
        ann = RhythmAnnotation(events=[(0, 200, "AF")])
        with pytest.raises(FormatError, match="out of bounds"):
            ann.validate(100)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            load_annotations(p)

    def test_non_list(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"onset": 0}))
        with pytest.raises(FormatError, match="list"):
            load_annotations(p)


def _rec(duration_s, fs=200.0):
    return EcgRecording(samples=np.zeros(int(duration_s * fs)) + 0.1, fs=fs)


class TestAfWindows:
    def test_event_length_rules(self):
        # 128 s and 700 s events yield windows; 45 s is counted excluded
        fs = 200
        rec = _rec(1000)
        ann = RhythmAnnotation(events=[
            (0, 128 * fs, "AF"),
            (130 * fs, 175 * fs, "AF"),
            (180 * fs, 880 * fs, "AF"),
        ])
        windows, excluded = extract_af_windows(rec, ann)
        assert windows == [(0, 60 * fs), (180 * fs, 240 * fs)]
        assert excluded == [(130 * fs, 175 * fs)]

    def test_windows_anchored_at_onset(self):
        fs = 200
        rec = _rec(300)
        ann = RhythmAnnotation(events=[(100 * fs, 250 * fs, "AF")])
        [(start, end)], _ = extract_af_windows(rec, ann)
        assert start == 100 * fs
        assert end - start == 60 * fs
        assert end <= 250 * fs  # fully inside the event

    def test_exact_60s_event(self):
        fs = 200
        rec = _rec(120)
        ann = RhythmAnnotation(events=[(0, 60 * fs, "AF")])
        windows, excluded = extract_af_windows(rec, ann)
        assert windows == [(0, 60 * fs)]
        assert excluded == []

    def test_short_events_ignored(self):
        fs = 200
        rec = _rec(120)
        ann = RhythmAnnotation(events=[(0, 20 * fs, "AF")])
        assert extract_af_windows(rec, ann) == ([], [])

    def test_nonaf_events_skipped(self):
        fs = 200
        rec = _rec(200)
        ann = RhythmAnnotation(events=[(0, 200 * fs, "non-AF")])
        assert extract_af_windows(rec, ann)[0] == []


class TestNonAfSampling:
    def test_three_disjoint_windows_from_300s(self):
        fs = 200
        rec = _rec(400)
        ann = RhythmAnnotation(events=[(0, 300 * fs, "non-AF")])
        wins, shortfall = sample_nonaf_windows(rec, ann, count=3, rng_seed=0)
        assert shortfall == 0
        assert len(wins) == 3
        assert wins == sorted(wins)
        for (a0, b0), (a1, _) in zip(wins, wins[1:]):
            assert b0 <= a1  # disjoint
        for a, b in wins:
            assert 0 <= a and b - a == 60 * fs and b <= 300 * fs

    def test_capacity_shortfall(self):
        fs = 200
        rec = _rec(200)
        ann = RhythmAnnotation(events=[(0, 120 * fs, "non-AF")])
        wins, shortfall = sample_nonaf_windows(rec, ann, count=5, rng_seed=0)
        assert len(wins) == 2
        assert shortfall == 3

    def test_seed_determinism(self):
        fs = 200
        rec = _rec(900)
        ann = RhythmAnnotation(events=[(0, 900 * fs, "non-AF")])
        a, _ = sample_nonaf_windows(rec, ann, count=4, rng_seed=7)
        b, _ = sample_nonaf_windows(rec, ann, count=4, rng_seed=7)
        assert a == b
