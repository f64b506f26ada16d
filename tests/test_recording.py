import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from references import load_recording, same_recording

from swarmbci import recording
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    NsrFormatError,
    ParadigmTiming,
    Recording,
    Trial,
    TrialSet,
    extract_trials,
    open_recording,
    save_recording,
)

#: The NSR reader, and the whole-file read through it: both refuse every bad file.
READERS = (load_recording, open_recording)


def make_recording(n_channels=4, n_samples=1000, fs=1000.0, markers=(), seed=0,
                   subject_id="test"):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_channels, n_samples)).astype(np.float32)
    return Recording(subject_id, fs, ChannelLayout.generic(n_channels), data,
                     [EventMarker(*m) for m in markers])


class TestNsrFormat:
    def test_minimal_file(self, tmp_path):
        rec = make_recording(n_channels=2, n_samples=10)
        path = tmp_path / "min.nsr"
        save_recording(rec, path)
        loaded = open_recording(path)
        assert loaded.window(0, loaded.n_samples).shape == (2, 10)
        assert loaded.markers == ()

    def test_marker_out_of_range_on_load(self, tmp_path):
        rec = make_recording(n_channels=2, n_samples=10)
        path = tmp_path / "bad.nsr"
        save_recording(rec, path)
        # Corrupt the header: marker far past the end of the data.
        raw = path.read_bytes()
        magic, header, payload = raw.split(b"\n", 2)
        header = header.replace(b'"markers":[]', b'"markers":[[9999999,1]]')
        path.write_bytes(magic + b"\n" + header + b"\n" + payload)
        for reader in READERS:
            with pytest.raises(NsrFormatError, match="out of range"):
                reader(path)

    def test_round_trip_64ch(self, tmp_path):
        markers = [(i * 50, (i % 4) + 1) for i in range(10)]
        rec = make_recording(n_channels=64, n_samples=2000, markers=markers, seed=3)
        path = tmp_path / "r.nsr"
        save_recording(rec, path)
        assert same_recording(open_recording(path), rec)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.nsr"
        path.write_bytes(b"NOPE\n{}\n")
        for reader in READERS:
            with pytest.raises(NsrFormatError, match="magic"):
                reader(path)

    def test_truncated_payload(self, tmp_path):
        rec = make_recording(n_channels=2, n_samples=10)
        path = tmp_path / "t.nsr"
        save_recording(rec, path)
        path.write_bytes(path.read_bytes()[:-4])
        for reader in READERS:
            with pytest.raises(NsrFormatError, match="payload"):
                reader(path)

    def test_save_rejects_shape_mismatch_before_write(self, tmp_path):
        rec = make_recording(n_channels=4, n_samples=100)
        rec.data = rec.data[:3]  # break the invariant post-construction
        path = tmp_path / "never.nsr"
        with pytest.raises(ValueError):
            save_recording(rec, path)
        assert not path.exists()

    def test_empty_markers_serialized_as_empty_array(self, tmp_path):
        rec = make_recording()
        path = tmp_path / "e.nsr"
        save_recording(rec, path)
        header = path.read_bytes().split(b"\n", 2)[1]
        assert b'"markers":[]' in header

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(2024)
        for i in range(50):
            n_ch = int(rng.integers(1, 9))
            n_s = int(rng.integers(1, 64))
            data = rng.standard_normal((n_ch, n_s)).astype(np.float32)
            n_m = int(rng.integers(0, 4))
            idx = np.sort(rng.integers(0, n_s, size=n_m))
            markers = [EventMarker(int(s), int(rng.integers(1, 5))) for s in idx]
            rec = Recording(f"s{i}", float(rng.integers(100, 2000)),
                            ChannelLayout.generic(n_ch), data, markers,
                            60.0 if i % 2 else None)
            path = tmp_path / f"{i}.nsr"
            save_recording(rec, path)
            assert same_recording(open_recording(path), rec)


BLOCK = recording._WRITE_BLOCK_FRAMES


def single_threaded_save_recording(rec, path):
    """``save_recording`` with one block, hashed on this thread, as it was before the
    hashing thread. Kept as the reference that the threaded writer must equal."""
    header = {
        "subject_id": rec.subject_id,
        "sampling_rate_hz": rec.sampling_rate_hz,
        "channels": list(rec.layout.names),
        "notch_hz": rec.notch_applied_hz,
        "markers": [[m.sample_index, m.event_code] for m in rec.markers],
        "n_samples": rec.n_samples,
    }
    head = recording.MAGIC + b"\n" + json.dumps(header, separators=(",", ":")).encode() + b"\n"
    digest = hashlib.sha256(head)
    block = np.empty((BLOCK, rec.n_channels), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, rec.n_samples, BLOCK):
            frames = block[:min(BLOCK, rec.n_samples - start)]
            np.copyto(frames, rec.window(start, start + len(frames)).T)
            fh.write(frames)
            digest.update(frames)
    return digest.hexdigest()


class FailingFile:
    """A binary file whose payload writes raise ``OSError`` after ``n_ok`` of them."""

    def __init__(self, path, n_ok):
        self._fh, self._writes, self._n_ok = open(path, "wb"), 0, n_ok

    def write(self, data):
        if self._writes > self._n_ok:  # the first write is the header
            raise OSError(28, "No space left on device")
        self._writes += 1
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestBlockedWriter:
    """``save_recording`` writes and hashes the payload one block of frames at a time."""

    @pytest.mark.parametrize("n_channels", [1, 3])
    @pytest.mark.parametrize("n_samples", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_payload_is_the_sample_major_array(self, tmp_path, n_channels, n_samples):
        rec = make_recording(n_channels=n_channels, n_samples=n_samples, seed=n_samples)
        path = tmp_path / "b.nsr"
        save_recording(rec, path)
        payload = path.read_bytes()[open_recording(path).offset:]
        assert payload == np.ascontiguousarray(rec.data.T, "<f4").tobytes()

    def test_nan_bit_patterns_and_negative_zero_survive(self, tmp_path):
        bits = np.array([0x7FC00000, 0x7FC00001, 0xFFC12345, 0x7F800001,  # quiet/signalling NaN
                         0x80000000, 0x7F800000, 0xFF800000, 0x00000001], dtype=np.uint32)
        data = np.tile(bits, (3, BLOCK // 4 + 1)).view(np.float32)
        rec = Recording("bits", 1000.0, ChannelLayout.generic(3), data)
        path = tmp_path / "bits.nsr"
        save_recording(rec, path)
        payload = np.frombuffer(path.read_bytes()[open_recording(path).offset:], "<u4")
        assert np.array_equal(payload, data.T.view(np.uint32).ravel())

    @pytest.mark.parametrize("n_samples", [1, BLOCK + 1])
    def test_returned_digest_is_the_files(self, tmp_path, n_samples):
        rec = make_recording(n_channels=3, n_samples=n_samples, markers=[(0, 2)])
        path = tmp_path / "d.nsr"
        digest = save_recording(rec, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("n_samples", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    def test_bytes_and_digest_equal_the_single_threaded_writer(self, tmp_path, n_samples):
        rec = make_recording(n_channels=5, n_samples=n_samples, markers=[(0, 3)],
                             seed=n_samples)
        before = threading.active_count()
        digest = save_recording(rec, tmp_path / "threaded.nsr")
        assert threading.active_count() == before
        expected = single_threaded_save_recording(rec, tmp_path / "reference.nsr")
        assert digest == expected
        assert (tmp_path / "threaded.nsr").read_bytes() == (tmp_path / "reference.nsr").read_bytes()

    def test_write_error_mid_file_is_raised_and_the_thread_ends(self, tmp_path, monkeypatch):
        # Two payload blocks are written; the third write fails while the second is hashed.
        monkeypatch.setattr(recording, "open", lambda path, mode: FailingFile(path, 2),
                            raising=False)
        rec = make_recording(n_channels=3, n_samples=4 * BLOCK)
        before = threading.active_count()
        with pytest.raises(OSError, match="No space left"):
            save_recording(rec, tmp_path / "full.nsr")
        assert threading.active_count() == before
        written = (tmp_path / "full.nsr").read_bytes()
        single_threaded_save_recording(rec, tmp_path / "reference.nsr")
        reference = (tmp_path / "reference.nsr").read_bytes()
        assert len(written) == len(reference) - 2 * BLOCK * 3 * 4
        assert reference.startswith(written)


#: Run in a fresh interpreter: the rise of the peak RSS over one save. The peak is
#: VmHWM, the new process's own: ``ru_maxrss`` starts at the forking parent's peak.
_SAVE_RSS_CHILD = textwrap.dedent("""
    import re, sys
    import numpy as np
    from swarmbci.recording import ChannelLayout, Recording, save_recording

    def peak_kib():
        with open("/proc/self/status") as fh:
            return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

    data = np.random.default_rng(0).standard_normal((64, 400_000), dtype=np.float32)
    rec = Recording("rss", 1000.0, ChannelLayout.default_64(), data)
    before = peak_kib()
    save_recording(rec, sys.argv[1])
    print(peak_kib() - before)
""")


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_save_memory_does_not_grow_with_the_payload(tmp_path):
    """Saving a 102 MB recording raises the peak RSS by < 0.25x the payload.

    A whole-array transpose plus ``tobytes`` raises it by about 2x.
    """
    src = str(Path(recording.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SAVE_RSS_CHILD, str(tmp_path / "m.nsr")],
                         capture_output=True, text=True, check=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    rise = int(out.stdout) * 1024
    payload = 64 * 400_000 * 4
    assert rise < 0.25 * payload, f"peak RSS rose {rise / 1e6:.1f} MB saving {payload / 1e6:.1f} MB"


def _split_nsr(path):
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    return json.loads(header), payload


def _write_nsr(path, header, payload, header_line=None):
    if header_line is None:
        header_line = json.dumps(header).encode() + b"\n"
    path.write_bytes(b"NSR1\n" + header_line + payload)


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
class TestBadFiles:
    @pytest.fixture
    def good(self, tmp_path):
        rec = make_recording(n_channels=3, n_samples=200, markers=[(10, 1), (120, 2)])
        path = tmp_path / "good.nsr"
        save_recording(rec, path)
        return path

    def test_good_file_accepted(self, reader, good):
        assert reader(good).subject_id == "test"

    def test_missing_header_line(self, reader, tmp_path):
        path = tmp_path / "x.nsr"
        path.write_bytes(b"NSR1\n")
        with pytest.raises(NsrFormatError, match="missing JSON header"):
            reader(path)

    def test_malformed_json(self, reader, good):
        _, payload = _split_nsr(good)
        _write_nsr(good, None, payload, header_line=b"{not json\n")
        with pytest.raises(NsrFormatError, match="malformed JSON"):
            reader(good)

    def test_partial_header(self, reader, good):
        header_line = good.read_bytes().split(b"\n", 2)[1]
        good.write_bytes(b"NSR1\n" + header_line[:20])
        with pytest.raises(NsrFormatError, match="no newline"):
            reader(good)

    def test_header_without_newline_is_not_read_to_the_end(self, reader, good, monkeypatch):
        monkeypatch.setattr(recording, "MAX_HEADER_BYTES", 256)
        good.write_bytes(b"NSR1\n" + b"x" * 4096)
        with pytest.raises(NsrFormatError, match="no newline within 256 bytes"):
            reader(good)

    @pytest.mark.parametrize("key", ["subject_id", "sampling_rate_hz", "channels",
                                     "notch_hz", "markers", "n_samples"])
    def test_missing_key(self, reader, good, key):
        header, payload = _split_nsr(good)
        del header[key]
        _write_nsr(good, header, payload)
        with pytest.raises(NsrFormatError, match="malformed header"):
            reader(good)

    def test_header_not_an_object(self, reader, good):
        _, payload = _split_nsr(good)
        _write_nsr(good, ["subject_id", "test"], payload)
        with pytest.raises(NsrFormatError, match="malformed header"):
            reader(good)

    def test_int_for_float_fields_accepted(self, reader, good):
        header, payload = _split_nsr(good)
        header["sampling_rate_hz"], header["notch_hz"] = 1000, 50
        _write_nsr(good, header, payload)
        src = reader(good)
        assert (src.sampling_rate_hz, src.notch_applied_hz) == (1000.0, 50.0)
        assert type(src.sampling_rate_hz) is float and type(src.notch_applied_hz) is float

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_payload_one_byte_off(self, reader, good, delta):
        header, payload = _split_nsr(good)
        payload = payload[:-1] if delta < 0 else payload + b"\0"
        _write_nsr(good, header, payload)
        with pytest.raises(NsrFormatError, match="payload"):
            reader(good)

    @pytest.mark.parametrize("field, value, message", [
        ("markers", [[120, 2], [10, 1]], "sorted"),
        ("markers", [[10, 7]], "malformed marker 0"),
        ("channels", ["A", "A", "B"], "unique"),
        ("sampling_rate_hz", 0.0, "positive"),
        ("sampling_rate_hz", -250.0, "positive"),
        ("sampling_rate_hz", float("nan"), "finite"),
        ("sampling_rate_hz", float("inf"), "finite"),
        # Values of the wrong JSON type are rejected, not coerced.
        ("sampling_rate_hz", True, "sampling_rate_hz has the wrong type"),
        ("sampling_rate_hz", "250", "sampling_rate_hz has the wrong type"),
        ("subject_id", 5, "subject_id has the wrong type"),
        ("channels", ["A", 2, "C"], "channels has the wrong type"),
        ("channels", "ABC", "channels has the wrong type"),
        ("notch_hz", "60", "notch_hz has the wrong type"),
        ("notch_hz", False, "notch_hz has the wrong type"),
        ("n_samples", 200.0, "n_samples has the wrong type"),
        ("n_samples", True, "n_samples has the wrong type"),
        ("markers", [[100.7, 2.9]], "markers has the wrong type"),
        ("markers", [[10, True]], "markers has the wrong type"),
        ("markers", [["10", 1]], "markers has the wrong type"),
        ("markers", {"10": 1}, "markers has the wrong type"),
        ("markers", [[10]], "malformed marker 0"),
        ("markers", [[10, 1], [120, 2, 0]], "malformed marker 1"),
        pytest.param("sampling_rate_hz", 10 ** 400, "sampling_rate_hz has the wrong type",
                     id="sampling_rate_hz-int-beyond-float"),
        ("notch_hz", float("nan"), "notch_hz must be finite"),
        ("notch_hz", float("-inf"), "notch_hz must be finite"),
    ])
    def test_invalid_field(self, reader, good, field, value, message):
        header, payload = _split_nsr(good)
        header[field] = value
        _write_nsr(good, header, payload)
        with pytest.raises(NsrFormatError, match=message):
            reader(good)


class TestRecordingFile:
    def test_windows_equal_the_loaded_data(self, tmp_path):
        rec = make_recording(n_channels=5, n_samples=300, markers=[(0, 1), (250, 4)], seed=8)
        path = tmp_path / "r.nsr"
        save_recording(rec, path)
        src = open_recording(path)
        assert (src.subject_id, src.n_samples, src.markers) == ("test", 300, tuple(rec.markers))
        for start, stop in ((0, 300), (0, 1), (17, 123), (299, 300)):
            np.testing.assert_array_equal(src.window(start, stop), rec.data[:, start:stop])

    def test_file_cut_short_after_opening_named(self, tmp_path):
        rec = make_recording(n_channels=8, n_samples=1000, seed=10)
        path = tmp_path / "r.nsr"
        save_recording(rec, path)
        src = open_recording(path)
        os.truncate(path, os.path.getsize(path) - 4 * 8 * 200)  # the last 200 frames
        np.testing.assert_array_equal(src.window(0, 800), rec.data[:, :800])
        with pytest.raises(NsrFormatError, match=rf"^{re.escape(str(path))}: samples "
                                                 r"\[750, 1000\) cut short"):
            src.window(750, 1000)

    def test_file_replaced_after_opening_still_read(self, tmp_path):
        # synth writes through os.replace: a file moved onto the path after the open,
        # of the same size, must not lend its samples to the header checked at the open.
        rec = make_recording(n_channels=8, n_samples=5000, markers=[(64, 1)], seed=12)
        path = tmp_path / "r.nsr"
        save_recording(rec, path)
        src, size = open_recording(path), os.path.getsize(path)
        other = make_recording(n_channels=8, n_samples=5000, markers=[(64, 2)], seed=13)
        save_recording(other, tmp_path / "other.nsr")
        os.replace(tmp_path / "other.nsr", path)
        assert os.path.getsize(path) == size
        assert same_recording(src, rec)

    @pytest.mark.parametrize("start, stop", [(-3, 2), (8, 12), (10, 11), (-1, 0), (6, 5)])
    def test_window_outside_the_recording_refused_by_both_readers(self, tmp_path, start, stop):
        rec = make_recording(n_channels=2, n_samples=10, seed=11)
        save_recording(rec, tmp_path / "r.nsr")
        for reader in (rec, open_recording(tmp_path / "r.nsr")):
            with pytest.raises(ValueError, match=re.escape(f"window [{start}, {stop}) is not "
                                                           "within samples [0, 10)")) as info:
                reader.window(start, stop)
            assert not isinstance(info.value, NsrFormatError)
            np.testing.assert_array_equal(reader.window(0, 10), rec.data)
            assert reader.window(10, 10).shape == (2, 0)

    def test_extract_trials_same_from_file_and_memory(self, tmp_path):
        rec = make_recording(n_channels=3, n_samples=9000, markers=[(0, 1), (4500, 2)])
        path = tmp_path / "r.nsr"
        save_recording(rec, path)
        for mem, disk in zip(extract_trials(rec).trials,
                             extract_trials(open_recording(path)).trials):
            np.testing.assert_array_equal(mem.samples, disk.samples)


class TestRecordingInvariants:
    def test_marker_past_end_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            make_recording(n_samples=10, markers=[(10, 1)])

    def test_unsorted_markers_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            make_recording(n_samples=100, markers=[(50, 1), (10, 2)])

    def test_duplicate_channel_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ChannelLayout(("C1", "C1"))

    @pytest.mark.parametrize("fs", [0.0, float("nan"), float("inf")])
    def test_sampling_rate_must_be_positive_and_finite(self, fs):
        with pytest.raises(ValueError, match="positive and finite"):
            make_recording(fs=fs)

    @pytest.mark.parametrize("notch", [float("nan"), float("inf"), float("-inf")])
    def test_notch_must_be_finite_on_write(self, notch, tmp_path):
        # The reader refuses such a header, so the writer must not make one.
        with pytest.raises(ValueError, match="notch_hz must be finite"):
            Recording("x", 250.0, ChannelLayout.generic(2), np.zeros((2, 10)), [], notch)
        rec = make_recording()
        rec.notch_applied_hz = notch
        path = tmp_path / "r.nsr"
        with pytest.raises(ValueError, match="notch_hz must be finite"):
            save_recording(rec, path)
        assert not path.exists()

    def test_default_layout_has_64_channels(self):
        assert ChannelLayout.default_64().count == 64

    def test_bad_event_code(self):
        with pytest.raises(ValueError, match="event_code"):
            EventMarker(0, 5)


class TestParadigmTiming:
    def test_durations_must_be_finite_and_positive(self):
        for name in ("rest_s", "cue_s", "fixation_s", "imagery_s"):
            for value in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value}$"):
                    ParadigmTiming(**{name: value})

    def test_imagery_window_of_no_samples_named(self):
        assert ParadigmTiming(imagery_s=0.004).imagery_len(250.0) == 1
        with pytest.raises(ValueError, match=re.escape("imagery_s=0.001 s at fs=250.0 Hz rounds "
                                                       "to a trial of 0 samples")):
            ParadigmTiming(imagery_s=0.001).imagery_len(250.0)


class TestExtractTrials:
    def test_window_arithmetic(self):
        rec = make_recording(n_channels=2, n_samples=15000, fs=1000.0,
                             markers=[(10000, 3)])
        ts = extract_trials(rec, ParadigmTiming())
        assert len(ts) == 1
        trial = ts.trials[0]
        assert trial.label == 3
        assert trial.n_samples == 4000
        np.testing.assert_array_equal(trial.samples, rec.data[:, 10000:14000])

    def test_full_session_shape(self):
        # 200 markers, 50 per class, at a reduced channel count / rate.
        fs, imagery, gap = 100.0, 4.0, 1.0
        step = int((imagery + gap) * fs)
        codes = np.repeat([1, 2, 3, 4], 50)
        rng = np.random.default_rng(0)
        rng.shuffle(codes)
        markers = [(i * step, int(c)) for i, c in enumerate(codes)]
        rec = make_recording(n_channels=4, n_samples=200 * step, fs=fs, markers=markers)
        ts = extract_trials(rec, ParadigmTiming())
        assert len(ts) == 200
        assert class_counts(ts) == [50, 50, 50, 50]
        assert [t.label for t in ts.trials] == [c for _, c in markers]

    def test_marker_at_last_sample_errors_with_index(self):
        rec = make_recording(n_channels=2, n_samples=5000, fs=1000.0,
                             markers=[(0, 1), (4999, 2)])
        with pytest.raises(ValueError, match="marker 1"):
            extract_trials(rec, ParadigmTiming())

    def test_marker_range(self):
        rec = make_recording(n_channels=2, n_samples=20000, fs=1000.0,
                             markers=[(0, 1), (5000, 2), (10000, 3), (15000, 4)])
        everything = extract_trials(rec, ParadigmTiming())
        for i in range(4):
            (trial,) = extract_trials(rec, ParadigmTiming(), indices=range(i, i + 1)).trials
            assert trial.label == everything.trials[i].label
            np.testing.assert_array_equal(trial.samples, everything.trials[i].samples)
        middle = extract_trials(rec, ParadigmTiming(), indices=range(1, 3))
        assert [t.label for t in middle.trials] == [2, 3]
        assert len(extract_trials(rec, ParadigmTiming(), indices=range(2, 2))) == 0

    @pytest.mark.parametrize("margin", [-1, -5])
    def test_negative_margin_refused_before_any_read(self, margin):
        # A negative margin would crop a window shorter than the trial.
        rec = make_recording(n_channels=2, n_samples=8000, fs=1000.0, markers=[(3000, 1)])
        reads = []
        rec.window = lambda start, stop: reads.append((start, stop))
        with pytest.raises(ValueError, match=rf"^margin must be >= 0, got {margin}$"):
            extract_trials(rec, ParadigmTiming(), margin=margin)
        assert reads == []

    def test_marker_range_errors_name_the_absolute_marker(self):
        rec = make_recording(n_channels=2, n_samples=12000, fs=1000.0,
                             markers=[(0, 1), (5000, 2), (9000, 3)])
        rec.data[1, 5100] = np.nan
        with pytest.raises(ValueError, match="marker 2 window out of range"):
            extract_trials(rec, ParadigmTiming(), indices=range(2, 3))
        with pytest.raises(ValueError, match="channel Ch02 at sample 5100"):
            extract_trials(rec, ParadigmTiming(), indices=range(1, 2))

    def test_zero_markers_gives_empty_trialset(self):
        ts = extract_trials(make_recording(), ParadigmTiming())
        assert len(ts) == 0

    def test_determinism(self):
        rec = make_recording(n_samples=15000, markers=[(100, 1), (8000, 4)])
        a = extract_trials(rec, ParadigmTiming())
        b = extract_trials(rec, ParadigmTiming())
        for ta, tb in zip(a.trials, b.trials):
            assert ta.label == tb.label
            np.testing.assert_array_equal(ta.samples, tb.samples)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_named_by_channel_and_absolute_sample(self, value):
        rec = make_recording(n_channels=3, n_samples=12000, markers=[(100, 1), (6000, 2)])
        rec.data[2, 6123] = value
        with pytest.raises(ValueError, match=r"subject 'test'.* channel Ch03 at sample 6123"):
            extract_trials(rec, ParadigmTiming())

    def test_found_in_the_margin(self):
        rec = make_recording(n_channels=2, n_samples=12000, markers=[(6000, 2)])
        rec.data[0, 5990] = np.nan
        extract_trials(rec, ParadigmTiming())
        with pytest.raises(ValueError, match="channel Ch01 at sample 5990"):
            extract_trials(rec, ParadigmTiming(), margin=20)

    def test_outside_every_window_ignored(self):
        rec = make_recording(n_channels=2, n_samples=12000, markers=[(6000, 2)])
        rec.data[1, 10] = np.nan
        rec.data[0, 11000] = np.inf
        assert len(extract_trials(rec, ParadigmTiming(), margin=100)) == 1

    def test_read_from_file(self, tmp_path):
        rec = make_recording(n_channels=2, n_samples=6000, markers=[(1000, 3)])
        rec.data[1, 1500] = np.nan
        path = tmp_path / "nan.nsr"
        save_recording(rec, path)
        with pytest.raises(ValueError, match=r"subject 'test'.* channel Ch02 at sample 1500"):
            extract_trials(open_recording(path), ParadigmTiming())


def class_counts(ts):
    """Trials per event code 1-4, from the trials' label array."""
    return np.bincount(np.array([t.label for t in ts.trials], dtype=int), minlength=5)[1:].tolist()


class TestClassHistogram:
    def test_empty(self):
        ts = TrialSet([], ChannelLayout.generic(2), 1000.0)
        assert class_counts(ts) == [0, 0, 0, 0]

    def test_mixed(self):
        x = np.zeros((2, 10), dtype=np.float32)
        ts = TrialSet([Trial(1, x), Trial(1, x), Trial(2, x)],
                      ChannelLayout.generic(2), 1000.0)
        assert class_counts(ts) == [2, 1, 0, 0]

    def test_counts_sum_to_total(self):
        rec = make_recording(n_samples=30000,
                             markers=[(i * 5000, (i % 4) + 1) for i in range(5)])
        ts = extract_trials(rec, ParadigmTiming())
        assert sum(class_counts(ts)) == len(ts)
