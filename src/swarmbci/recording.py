"""Continuous EEG recordings, NSR file I/O, and epoch extraction.

The NSR format is deliberately minimal so recordings round-trip
bit-exactly: an ASCII magic line, a one-line JSON header, then the raw
sample-major float32 payload (frame 0 all channels, frame 1 all
channels, ...). Amplitudes are in microvolts. A file opened with
:func:`open_recording` stays open while its :class:`RecordingFile` lives, so
every window is read from the file whose header was checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from swarmbci.config import POSITIVE, check_fields, json_type_matches

MAGIC = b"NSR1"
#: Longest JSON header line read before a file is declared malformed.
MAX_HEADER_BYTES = 1 << 24
#: Frames :func:`save_recording` transposes, writes and hashes at a time (4 MiB at 64 channels).
_WRITE_BLOCK_FRAMES = 16384

#: A value of each NSR header field's JSON type (see :func:`config.json_type_matches`).
_HEADER_TYPES = {"subject_id": "", "sampling_rate_hz": 0.0, "channels": ("",),
                 "notch_hz": 0.0, "markers": ((0,),), "n_samples": 0}

#: Command codes shared by markers, trials, and the swarm simulator.
EVENT_CODES = (1, 2, 3, 4)
EVENT_NAMES = {1: "Hovering", 2: "Splitting", 3: "Dispersing", 4: "Aggregating"}

# 64-electrode 10/20-extended layout used as the default channel set.
DEFAULT_64_CHANNELS = (
    "Fp1 Fp2 AF7 AF3 AFz AF4 AF8 F7 F5 F3 F1 Fz F2 F4 F6 F8 "
    "FT7 FC5 FC3 FC1 FC2 FC4 FC6 FT8 T7 C5 C3 C1 Cz C2 C4 C6 "
    "T8 TP7 CP5 CP3 CP1 CPz CP2 CP4 CP6 TP8 P7 P5 P3 P1 Pz P2 "
    "P4 P6 P8 PO7 PO5 PO3 POz PO4 PO6 PO8 O1 Oz O2 F9 F10 Iz"
).split()


class NsrFormatError(ValueError):
    """Raised when a file does not conform to the NSR format."""


def _check_sampling_rate(fs: float) -> None:
    if not (math.isfinite(fs) and fs > 0):
        raise ValueError(f"sampling_rate_hz must be positive and finite, got {fs}")


def _check_notch(notch: float | None) -> None:
    if not (notch is None or math.isfinite(notch)):
        raise ValueError(f"notch_hz must be finite, got {notch}")


def _check_markers(markers, n_samples: int) -> None:
    idx = [m.sample_index for m in markers]
    for i, s in enumerate(idx):
        if s >= n_samples:
            raise ValueError(f"marker {i} out of range: sample_index {s} >= n_samples {n_samples}")
    if idx != sorted(idx):
        raise ValueError("markers must be sorted ascending by sample_index")


def _check_window(start: int, stop: int, n_samples: int) -> None:
    if not 0 <= start <= stop <= n_samples:
        raise ValueError(f"window [{start}, {stop}) is not within samples [0, {n_samples})")


@dataclass(frozen=True)
class ChannelLayout:
    """Ordered set of channel labels."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise ValueError("channel names must be unique")
        if not names:
            raise ValueError("layout must contain at least one channel")
        object.__setattr__(self, "names", names)

    @property
    def count(self) -> int:
        return len(self.names)

    @classmethod
    def default_64(cls) -> "ChannelLayout":
        return cls(tuple(DEFAULT_64_CHANNELS))

    @classmethod
    def generic(cls, n: int) -> "ChannelLayout":
        """Layout with placeholder names Ch01..ChNN."""
        return cls(tuple(f"Ch{i + 1:02d}" for i in range(n)))


@dataclass(frozen=True)
class EventMarker:
    """Imagery-phase onset marker.

    ``sample_index`` counts samples since recording start;
    ``event_code`` is the commanded behavior (1=Hovering, 2=Splitting,
    3=Dispersing, 4=Aggregating).
    """

    sample_index: int
    event_code: int

    def __post_init__(self):
        if self.sample_index < 0:
            raise ValueError(f"marker sample_index must be >= 0, got {self.sample_index}")
        if self.event_code not in EVENT_CODES:
            raise ValueError(f"event_code must be in {EVENT_CODES}, got {self.event_code}")


@dataclass(frozen=True)
class ParadigmTiming:
    """Per-trial phase durations in seconds (rest, cue, fixation, imagery)."""

    rest_s: float = 3.0
    cue_s: float = 3.0
    fixation_s: float = 3.0
    imagery_s: float = 4.0

    def __post_init__(self):
        check_fields(self, rest_s=POSITIVE, cue_s=POSITIVE, fixation_s=POSITIVE, imagery_s=POSITIVE)

    def imagery_len(self, fs: float) -> int:
        """Samples in one imagery window (one trial) at ``fs``; ``ValueError`` if none."""
        if (n := int(round(self.imagery_s * fs))) == 0:
            raise ValueError(f"imagery_s={self.imagery_s} s at fs={fs} Hz rounds to a trial of "
                             f"{n} samples")
        return n


@dataclass(eq=False)
class Recording:
    """Continuous multichannel recording with event markers.

    ``data`` is channels x samples, stored float32 so NSR round trips
    are bit-exact. ``==`` is identity: a field-wise ``==`` would compare the arrays.
    """

    subject_id: str
    sampling_rate_hz: float
    layout: ChannelLayout
    data: np.ndarray
    markers: list[EventMarker] = field(default_factory=list)
    notch_applied_hz: float | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        _check_sampling_rate(self.sampling_rate_hz)
        _check_notch(self.notch_applied_hz)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-D (channels x samples), got ndim={self.data.ndim}")
        if self.data.shape[0] != self.layout.count:
            raise ValueError(
                f"data has {self.data.shape[0]} rows but layout declares "
                f"{self.layout.count} channels"
            )
        self.markers = list(self.markers)
        _check_markers(self.markers, self.n_samples)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def window(self, start: int, stop: int) -> np.ndarray:
        """Channels x (stop - start) view of samples [start, stop); ``ValueError`` if outside."""
        _check_window(start, stop, self.n_samples)
        return self.data[:, start:stop]


@dataclass(frozen=True)
class RecordingFile:
    """An NSR file's checked header and its read-only descriptor (see :func:`open_recording`);
    samples stay on disk."""

    path: str
    subject_id: str
    sampling_rate_hz: float
    layout: ChannelLayout
    markers: tuple[EventMarker, ...]
    notch_applied_hz: float | None
    n_samples: int
    offset: int  # byte offset of frame 0
    fd: int = field(repr=False, compare=False)  # closed when this object is collected

    def window(self, start: int, stop: int) -> np.ndarray:
        """Channels x (stop - start) view of samples [start, stop), read at their offset.

        The view is of a new array of the frames as on disk (sample-major), read from
        the file that was checked, even if another has since been moved onto ``path``.
        ``os.preadv`` leaves the descriptor's shared offset alone, so forked processes
        read through it at once. A window outside ``[0, n_samples)`` raises
        ``ValueError``; a file that ends before ``stop`` (it shrank after it was
        opened) raises :class:`NsrFormatError`.
        """
        _check_window(start, stop, self.n_samples)
        frames = np.empty((stop - start, self.layout.count), "<f4")
        buf, got = frames.reshape(-1).view(np.uint8), 0
        at = self.offset + 4 * start * self.layout.count
        while got < len(buf) and (n := os.preadv(self.fd, [buf[got:]], at + got)):
            got += n  # a read may return less than asked
        if got != frames.nbytes:
            raise NsrFormatError(f"{self.path}: samples [{start}, {stop}) cut short: "
                                 f"read {got} of {frames.nbytes} bytes")
        return frames.T


@dataclass(frozen=True)
class Trial:
    """One epoched imagery window (channels x T) with its class label."""

    label: int
    samples: np.ndarray

    def __post_init__(self):
        if self.label not in EVENT_CODES:
            raise ValueError(f"trial label must be in {EVENT_CODES}, got {self.label}")
        samples = np.asarray(self.samples)
        if samples.ndim != 2:
            raise ValueError("trial samples must be channels x T")
        object.__setattr__(self, "samples", samples)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class TrialSet:
    """Homogeneous collection of labeled trials."""

    trials: list[Trial]
    layout: ChannelLayout
    sampling_rate_hz: float

    def __post_init__(self):
        self.trials = list(self.trials)
        for t in self.trials:
            if t.n_channels != self.layout.count:
                raise ValueError("trial channel count does not match layout")
            if t.n_samples != self.trials[0].n_samples:
                raise ValueError("all trials must share the same length T")

    def __len__(self) -> int:
        return len(self.trials)


def save_recording(rec: Recording, path) -> str:
    """Write ``rec`` to ``path`` in NSR format; return the file's sha256 hex digest.

    Invariants are re-validated before any byte is written. The sample-major
    payload is transposed and written one block of frames at a time, in two
    blocks that alternate: while this thread transposes and writes one block,
    one helper thread hashes the block before it (``hashlib`` releases the GIL).
    The hash sees the file's bytes in order, and the memory used beyond
    ``rec.data`` does not grow with the recording.
    """
    if not isinstance(rec, Recording):
        raise TypeError("save_recording expects a Recording")
    # Re-run invariant checks in case fields were mutated after construction.
    rec = Recording(
        rec.subject_id, rec.sampling_rate_hz, rec.layout, rec.data,
        rec.markers, rec.notch_applied_hz,
    )
    header = {
        "subject_id": rec.subject_id,
        "sampling_rate_hz": rec.sampling_rate_hz,
        "channels": list(rec.layout.names),
        "notch_hz": rec.notch_applied_hz,
        "markers": [[m.sample_index, m.event_code] for m in rec.markers],
        "n_samples": rec.n_samples,
    }
    head = MAGIC + b"\n" + json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    digest = hashlib.sha256(head)
    blocks = np.empty((2, _WRITE_BLOCK_FRAMES, rec.n_channels), dtype="<f4")
    with open(path, "wb") as fh, ThreadPoolExecutor(max_workers=1) as pool:
        fh.write(head)
        hashed = None  # the update of the block written last
        for k, start in enumerate(range(0, rec.n_samples, _WRITE_BLOCK_FRAMES)):
            # This block's previous update, two blocks ago, returned before the last submit.
            frames = blocks[k % 2, :min(_WRITE_BLOCK_FRAMES, rec.n_samples - start)]
            np.copyto(frames, rec.window(start, start + len(frames)).T)
            fh.write(frames)
            if hashed is not None:
                hashed.result()
            hashed = pool.submit(digest.update, frames)
        if hashed is not None:
            hashed.result()
    return digest.hexdigest()


def open_recording(path) -> RecordingFile:
    """Check an NSR file's magic, header and payload size; no sample is read.

    The file stays open, read-only, until the returned object is collected.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        src = _read_header(path, fd)
    except BaseException:
        os.close(fd)
        raise
    weakref.finalize(src, os.close, fd)
    return src


def _read_header(path, fd: int) -> RecordingFile:
    """The :class:`RecordingFile` of the NSR file open as ``fd``, after every check."""
    with open(fd, "rb", closefd=False) as fh:
        magic = fh.readline(len(MAGIC) + 1)
        if magic != MAGIC + b"\n":
            magic = magic.rstrip(b"\n")
            raise NsrFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header_line = fh.readline(MAX_HEADER_BYTES)
        if not header_line:
            raise NsrFormatError(f"{path}: missing JSON header line")
        if not header_line.endswith(b"\n"):
            raise NsrFormatError(
                f"{path}: JSON header line has no newline within {MAX_HEADER_BYTES} bytes"
            )
        offset = fh.tell()
        payload_len = os.fstat(fh.fileno()).st_size - offset
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NsrFormatError(f"{path}: malformed JSON header: {exc}") from exc

    for key, example in _HEADER_TYPES.items():
        if not (isinstance(header, dict) and key in header):
            raise NsrFormatError(f"{path}: malformed header: no field {key!r}")
        value = header[key]
        if not (json_type_matches(value, example) or key == "notch_hz" and value is None):
            raise NsrFormatError(f"{path}: malformed header: {key} has the wrong type: {value!r}")
    subject_id, fs, channels, notch, marker_pairs, n_samples = (
        header[key] for key in _HEADER_TYPES)

    n_channels = len(channels)
    expected = n_channels * n_samples * 4
    if payload_len != expected:
        raise NsrFormatError(
            f"{path}: payload is {payload_len} bytes, expected {expected} "
            f"({n_channels} channels x {n_samples} samples x 4)"
        )

    markers = []
    for i, pair in enumerate(marker_pairs):
        try:
            markers.append(EventMarker(*pair))  # a TypeError unless [sample_index, event_code]
        except (TypeError, ValueError) as exc:
            raise NsrFormatError(f"{path}: malformed marker {i}: {exc}") from exc

    try:
        fs, notch = float(fs), None if notch is None else float(notch)
        _check_sampling_rate(fs)
        _check_notch(notch)
        _check_markers(markers, n_samples)
        return RecordingFile(str(path), subject_id, fs, ChannelLayout(tuple(channels)),
                             tuple(markers), notch, n_samples, offset, fd)
    except ValueError as exc:
        raise NsrFormatError(f"{path}: {exc}") from exc


def extract_trials(rec: Recording | RecordingFile, timing: ParadigmTiming = ParadigmTiming(),
                   condition=None, margin: int = 0, indices: range | None = None) -> TrialSet:
    """Cut the imagery window after each marker into a labeled trial.

    Markers denote imagery onset; each trial is exactly
    ``imagery_s * sampling_rate_hz`` samples. Rest/cue/fixation segments
    are discarded. ``indices`` picks a range of markers (default: all);
    errors name a marker by its index in ``rec.markers``. No marker
    yields an empty TrialSet.

    Each trial is read on its own with ``margin`` (>= 0) extra samples on
    both sides, clipped to the recording. ``condition`` (e.g. a zero-phase
    filter) maps that window, float32 as read, to one of the same shape, and
    must not write to it. The trial is cropped out of it as float32. A NaN
    or Inf in a window read raises ``ValueError`` naming the channel and
    absolute sample index.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    t_len = timing.imagery_len(rec.sampling_rate_hz)
    picked = range(len(rec.markers)) if indices is None else indices
    trials = []
    for i in picked:
        m = rec.markers[i]
        end = m.sample_index + t_len
        if end > rec.n_samples:
            raise ValueError(
                f"marker {i} window out of range: [{m.sample_index}, {end}) "
                f"exceeds n_samples {rec.n_samples}"
            )
        lo, hi = max(m.sample_index - margin, 0), min(end + margin, rec.n_samples)
        window = rec.window(lo, hi)
        # A NaN or Inf reaches the minimum or the maximum; neither needs a window-sized mask.
        if not (np.isfinite(window.min(initial=0.0)) and np.isfinite(window.max(initial=0.0))):
            sample, ch = np.argwhere(~np.isfinite(window.T))[0]  # earliest sample first
            raise ValueError(
                f"subject {rec.subject_id!r}: non-finite value {window[ch, sample]} in "
                f"channel {rec.layout.names[ch]} at sample {lo + sample}"
            )
        if condition is not None:
            window = condition(window)
        trials.append(Trial(m.event_code,
                            window[:, m.sample_index - lo:end - lo].astype(np.float32)))
    return TrialSet(trials, rec.layout, rec.sampling_rate_hz)
