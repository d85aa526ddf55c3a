"""Recording/annotation file formats and analysis-window segmentation.

Formats:
  * CSV: header lines ``# record_id=<text>``, ``# fs=<float>``,
    ``# lead=<text>`` followed by one sample (mV) per line.
  * Binary (``.fwk``): magic ``FWK1``, u32 little-endian header length,
    JSON header ``{record_id, fs, lead, n, dtype}``, then n samples of
    ``dtype``. Files are written as ``"<f8"`` (float64, lossless); a
    header without ``dtype`` is read as ``"<f4"`` (float32), which is
    what earlier versions wrote.
  * Annotations: JSON list of ``{"onset": int, "offset": int,
    "label": "AF"|"non-AF"}``.
"""

import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

FORMATS = {"csv": "csv", "binary": "fwk"}  # record format: its file extension
LABELS = ("AF", "non-AF")  # the rhythm labels, AF (the positive class) first
BINARY_MAGIC = b"FWK1"
BINARY_DTYPE = "<f8"
LEGACY_DTYPE = "<f4"  # what .fwk headers without a dtype key hold
DEFAULT_WINDOW_S = 60.0  # analysis window length, for AF and non-AF windows alike


@dataclass
class EcgRecording:
    samples: np.ndarray  # millivolts
    fs: float
    lead_name: str = "V1"
    record_id: str = "unknown"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not 0 < self.fs < np.inf:
            raise FormatError(f"sampling rate must be positive and finite, got {self.fs}")
        if self.samples.size == 0:
            raise FormatError("recording has no samples")
        if not np.all(np.isfinite(self.samples)):
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise FormatError(f"non-finite sample at index {bad}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs


@dataclass
class RhythmAnnotation:
    events: list  # of (onset_sample, offset_sample, label)

    def validate(self, n_samples: int) -> None:
        prev_off = 0
        for onset, offset, label in self.events:
            if label not in LABELS:
                raise FormatError(f"unknown rhythm label {label!r}")
            if not 0 <= onset < offset <= n_samples:
                raise FormatError(f"event ({onset}, {offset}) out of bounds")
            if onset < prev_off:
                raise FormatError("events overlap or are unsorted")
            prev_off = offset


def load_recording(path) -> EcgRecording:
    """Load a recording: binary if the file starts with the magic, CSV
    otherwise. The file is opened once: the magic is sniffed on the
    handle that reads it."""
    path = str(path)
    with open(path, "rb") as fh:
        if fh.read(4) == BINARY_MAGIC:
            return _load_binary(fh, path)
        fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            return _load_csv(text, path)


_CSV_CHUNK = 1 << 20  # characters of lines the CSV reader parses at a time


def _load_csv(text, path) -> EcgRecording:
    """Read the CSV format from the text stream ``text`` of ``path``,
    about ``_CSV_CHUNK`` characters of lines at a time. The header lines
    that lead a chunk go through ``_csv_lines``; the rest of the chunk is
    parsed in one call, and goes line by line only if that fails (a
    header, a blank line, a bad or non-finite sample), so an error names
    its line."""
    meta = {}
    parts = []
    lineno = 0
    try:
        for lines in iter(lambda: text.readlines(_CSV_CHUNK), []):
            head = 0
            while head < len(lines) and lines[head].lstrip().startswith("#"):
                head += 1
            _csv_lines(lines[:head], lineno, meta, path)
            try:
                values = np.fromiter(map(float, lines[head:]), np.float64, len(lines) - head)
                ok = np.isfinite(values).all()
            except ValueError:
                ok = False
            if not ok:
                values = np.array(_csv_lines(lines[head:], lineno + head, meta, path))
            parts.append(values)
            lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    if "fs" not in meta:
        raise FormatError(f"{path}: missing required header 'fs'")
    try:
        fs = float(meta["fs"])
    except ValueError:
        raise FormatError(f"{path}: fs header is not a number: {meta['fs']!r}") from None
    if not 0 < fs < np.inf:
        raise FormatError(f"{path}: fs must be positive and finite, got {fs}")
    if not sum(map(len, parts)):
        raise FormatError(f"{path}: no samples")
    return EcgRecording(
        samples=np.concatenate(parts),
        fs=fs,
        lead_name=meta.get("lead", "V1"),
        record_id=meta.get("record_id", "unknown"),
    )


def _csv_lines(lines, lineno, meta, path) -> list:
    """The samples of ``lines``, which follow line ``lineno`` of the CSV
    ``path``, one line at a time; header lines go into ``meta``."""
    values = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" not in body:
                raise FormatError(f"{path}:{lineno}: malformed header line {line!r}")
            key, val = body.split("=", 1)
            meta[key.strip()] = val.strip()
            continue
        try:
            v = float(line)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not np.isfinite(v):
            raise FormatError(f"{path}:{lineno}: non-finite sample {line!r}")
        values.append(v)
    return values


def _load_binary(fh, path) -> EcgRecording:
    """Read the binary format from the binary stream ``fh`` of ``path``,
    just past its magic."""
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated header length (offset 4)")
    (hlen,) = struct.unpack("<I", raw)
    # sizes are checked before reading so a corrupt length cannot force a huge read
    size = os.fstat(fh.fileno()).st_size
    if hlen > size - 8:
        raise FormatError(f"{path}: header length {hlen} exceeds the file (offset 4)")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, huge ints
        raise FormatError(f"{path}: bad JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: JSON header is not an object")
    for key in ("record_id", "fs", "lead", "n"):
        if key not in header:
            raise FormatError(f"{path}: header missing key {key!r}")
    n = header["n"]
    if type(n) is not int or n < 0:
        raise FormatError(f"{path}: header n must be a non-negative integer, got {n!r}")
    try:
        fs = float(header["fs"])
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{path}: header fs is not a number: {header['fs']!r}") from None
    dtype = header.get("dtype", LEGACY_DTYPE)
    if dtype not in (BINARY_DTYPE, LEGACY_DTYPE):
        raise FormatError(f"{path}: unknown sample dtype {dtype!r}")
    available = (size - fh.tell()) // np.dtype(dtype).itemsize
    if available < n:
        raise FormatError(f"{path}: expected {n} samples, found {available}")
    data = np.fromfile(fh, dtype=dtype, count=n)
    return EcgRecording(
        samples=data,
        fs=fs,
        lead_name=str(header["lead"]),
        record_id=str(header["record_id"]),
    )


def write_recording(rec: EcgRecording, path, fmt="csv") -> None:
    path = str(path)
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# record_id={rec.record_id}\n")
            fh.write(f"# fs={rec.fs}\n")
            fh.write(f"# lead={rec.lead_name}\n")
            fh.write("%.9g\n" * len(rec.samples) % tuple(rec.samples.tolist()))
    elif fmt == "binary":
        header = json.dumps(
            {"record_id": rec.record_id, "fs": rec.fs, "lead": rec.lead_name,
             "n": int(len(rec.samples)), "dtype": BINARY_DTYPE}
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            rec.samples.astype(BINARY_DTYPE).tofile(fh)
    else:
        raise FormatError(f"unknown recording format {fmt!r}")


def load_annotations(path) -> RhythmAnnotation:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: annotation file is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad annotation JSON: {exc}") from None
    if not isinstance(data, list):
        raise FormatError(f"{path}: annotation file must hold a JSON list")
    events = []
    for i, item in enumerate(data):
        try:
            events.append((int(item["onset"]), int(item["offset"]), str(item["label"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: event {i}: {exc}") from None
    return RhythmAnnotation(events=events)


def write_annotations(ann: RhythmAnnotation, path) -> None:
    data = [{"onset": int(a), "offset": int(b), "label": lab} for a, b, lab in ann.events]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def extract_af_windows(
    rec: EcgRecording,
    ann: RhythmAnnotation,
    min_event_s: float = 30.0,
    window_s: float = DEFAULT_WINDOW_S,
):
    """One window per AF event long enough to hold it, anchored at onset.

    AF events shorter than ``window_s`` but at least ``min_event_s`` long
    are counted as excluded; shorter stretches are not AF episodes and
    are ignored. Returns (windows, excluded): windows as (start, end)
    sample spans, excluded events as (onset, offset) pairs.
    """
    ann.validate(len(rec.samples))
    win_n = int(round(window_s * rec.fs))
    windows, excluded = [], []
    for onset, offset, label in ann.events:
        if label != "AF":
            continue
        dur = (offset - onset) / rec.fs
        if dur >= window_s:
            windows.append((onset, onset + win_n))
        elif dur >= min_event_s:
            excluded.append((onset, offset))
    return windows, excluded


def sample_nonaf_windows(
    rec: EcgRecording,
    ann: RhythmAnnotation,
    count: int,
    rng_seed: int | np.random.SeedSequence,
    window_s: float = DEFAULT_WINDOW_S,
):
    """Up to ``count`` non-overlapping windows from non-AF regions.

    Each non-AF region is tiled into window-sized slots and slots are
    drawn uniformly without replacement, so windows never overlap and
    the draw is reproducible. Returns (windows, shortfall): windows as
    (start, end) sample spans in start order, and the number of requested
    windows that could not be placed.
    """
    ann.validate(len(rec.samples))
    win_n = int(round(window_s * rec.fs))
    slots = []
    for onset, offset, label in ann.events:
        if label != "non-AF":
            continue
        k = (offset - onset) // win_n
        slots.extend(int(onset) + i * win_n for i in range(k))
    rng = np.random.default_rng(rng_seed)
    take = min(count, len(slots))
    chosen = sorted(rng.choice(len(slots), size=take, replace=False)) if take else []
    return [(slots[i], slots[i] + win_n) for i in chosen], count - take
