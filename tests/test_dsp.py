from functools import partial

import numpy as np
import pytest
from scipy import signal

from swarmbci.dsp import (
    FilterSpec,
    design_bandpass,
    design_notch,
    filter_channels,
    filtfilt,
    frequency_response,
)
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
    extract_trials,
    open_recording,
    save_recording,
)

FS = 1000.0


@pytest.fixture(scope="module")
def bandpass():
    return design_bandpass(8.0, 30.0, 2, FS)


class TestDesignBandpass:
    def test_minus_3db_at_edges(self, bandpass):
        for edge in (8.0, 30.0):
            mag, _ = frequency_response(bandpass, edge, FS)
            assert mag == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)

    def test_zeros_at_dc_and_nyquist(self, bandpass):
        assert frequency_response(bandpass, 0.0, FS)[0] < 1e-9
        assert frequency_response(bandpass, FS / 2, FS)[0] < 1e-9

    def test_near_unity_at_geometric_center(self, bandpass):
        center = np.sqrt(8.0 * 30.0)
        assert frequency_response(bandpass, center, FS)[0] >= 0.99

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            design_bandpass(30.0, 8.0, 2, FS)
        with pytest.raises(ValueError):
            design_bandpass(8.0, 600.0, 2, FS)

    def test_poles_inside_unit_circle(self, bandpass):
        assert np.max(np.abs(np.roots(bandpass.a))) < 1.0

    def test_unstable_design_rejected(self):
        # Very high order near Nyquist pushes poles onto the unit circle.
        with pytest.raises(ValueError):
            design_bandpass(1e-3, 2e-3, 20, FS)


class TestDesignNotch:
    def test_null_at_notch_frequency(self):
        spec = design_notch(60.0, 30.0, FS)
        assert frequency_response(spec, 60.0, FS)[0] < 1e-9

    def test_unity_at_dc_and_nyquist(self):
        spec = design_notch(60.0, 30.0, FS)
        assert frequency_response(spec, 0.0, FS)[0] == pytest.approx(1.0, abs=1e-6)
        assert frequency_response(spec, FS / 2, FS)[0] == pytest.approx(1.0, abs=1e-6)

    def test_narrow_notch(self):
        spec = design_notch(60.0, 30.0, FS)
        assert frequency_response(spec, 55.0, FS)[0] > 0.9
        assert frequency_response(spec, 65.0, FS)[0] > 0.9

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            design_notch(600.0, 30.0, FS)


class TestFrequencyResponse:
    def test_identity_filter(self):
        spec = FilterSpec((1.0,), (1.0,))
        for f in (0.0, 100.0, 499.0):
            mag, phase = frequency_response(spec, f, FS)
            assert mag == pytest.approx(1.0)
            assert phase == pytest.approx(0.0)

    def test_pure_delay(self):
        spec = FilterSpec((0.0, 1.0), (1.0,))
        mag, phase = frequency_response(spec, FS / 4, FS)
        assert mag == pytest.approx(1.0)
        assert phase == pytest.approx(-np.pi / 2)

    def test_in_band_gain(self, bandpass):
        mag, _ = frequency_response(bandpass, 19.0, FS)
        assert 0.95 <= mag <= 1.0


class TestFiltfilt:
    def test_constant_rejected(self, bandpass):
        x = np.full(4000, 7.5)
        assert np.max(np.abs(filtfilt(bandpass, x))) < 1e-6 * 7.5

    def test_zero_phase_by_cross_correlation(self, bandpass):
        n = 4000
        x = np.sin(2 * np.pi * 19.0 * np.arange(n) / FS)
        y = filtfilt(bandpass, x)
        yi = y[200:n - 200]
        best = max(range(-3, 4),
                   key=lambda lag: float(np.dot(x[200 + lag:n - 200 + lag], yi)))
        assert abs(best) <= 1

    def test_amplitude_matches_squared_response(self, bandpass):
        n = 4000
        x = np.sin(2 * np.pi * 19.0 * np.arange(n) / FS)
        y = filtfilt(bandpass, x)
        ratio = np.std(y[200:-200]) / np.std(x[200:-200])
        expected = frequency_response(bandpass, 19.0, FS)[0] ** 2
        assert ratio == pytest.approx(expected, rel=0.02)

    def test_linearity(self, bandpass):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        lhs = filtfilt(bandpass, 2.5 * x - 1.25 * y)
        rhs = 2.5 * filtfilt(bandpass, x) - 1.25 * filtfilt(bandpass, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))

    def test_length_preserved(self, bandpass):
        x = np.random.default_rng(2).standard_normal(777)
        assert len(filtfilt(bandpass, x)) == 777

    def test_too_short_signal(self, bandpass):
        with pytest.raises(ValueError, match="too short"):
            filtfilt(bandpass, np.zeros(10))

    def test_deterministic(self, bandpass):
        x = np.random.default_rng(3).standard_normal(1000)
        a = filtfilt(bandpass, x)
        b = filtfilt(bandpass, x)
        np.testing.assert_array_equal(a, b)


class TestSettleLen:
    def test_margins_of_the_default_band(self):
        assert design_bandpass(8.0, 30.0, 2, 1000.0).settle_len == 735
        assert design_bandpass(8.0, 30.0, 2, 250.0).settle_len == 180

    def test_transient_below_tolerance_after_settle_len(self, bandpass):
        impulse = np.zeros(3000)
        impulse[0] = 1.0
        h = signal.lfilter(bandpass.b, bandpass.a, impulse)
        n = bandpass.settle_len
        assert np.max(np.abs(h[n:])) < 1e-8 * np.max(np.abs(h))

    def test_fir_needs_no_margin(self):
        assert FilterSpec((0.5, 0.5), (1.0,)).settle_len == 0


class TestFilterChannels:
    def test_rows_match_filtfilt_bit_for_bit(self, bandpass):
        x = np.random.default_rng(6).standard_normal((3, 900))
        out = filter_channels(bandpass, x)
        for ch in range(3):
            np.testing.assert_array_equal(out[ch], filtfilt(bandpass, x[ch]))

    def test_float32_in_float32_out(self, bandpass):
        x = np.random.default_rng(7).standard_normal((2, 300)).astype(np.float32)
        out = filter_channels(bandpass, x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[1], filtfilt(bandpass, x[1]))

    def test_too_short_signal(self, bandpass):
        with pytest.raises(ValueError, match="too short"):
            filter_channels(bandpass, np.zeros((2, 10)))


def _recording(data, markers, fs=FS):
    data = np.asarray(data, dtype=np.float32)
    return Recording("w", fs, ChannelLayout.generic(data.shape[0]), data,
                     [EventMarker(*m) for m in markers])


def _filtered_trials(spec, rec, timing, margin=0):
    return extract_trials(rec, timing, partial(filter_channels, spec), margin)


class TestFilterTrialset:
    """Per-trial filtering, now done window by window inside ``extract_trials``."""

    TIMING = ParadigmTiming(imagery_s=0.5)

    def test_empty(self, bandpass):
        rec = _recording(np.zeros((2, 1000)), [])
        out = _filtered_trials(bandpass, rec, self.TIMING)
        assert len(out) == 0

    def test_shape_and_labels_preserved(self, bandpass):
        x = np.random.default_rng(4).standard_normal((2, 500))
        out = _filtered_trials(bandpass, _recording(x, [(0, 3)]), self.TIMING)
        assert out.trials[0].label == 3
        assert out.trials[0].samples.shape == (2, 500)

    def test_identical_trials_filter_identically(self, bandpass):
        x = np.random.default_rng(5).standard_normal((2, 500))
        rec = _recording(np.concatenate([x, x], axis=1), [(0, 1), (500, 1)])
        out = _filtered_trials(bandpass, rec, self.TIMING)
        np.testing.assert_array_equal(out.trials[0].samples, out.trials[1].samples)


class TestWindowedFilterEquivalence:
    """Per-window filtering against the whole-signal reference it replaces."""

    TIMING = ParadigmTiming(imagery_s=0.5)  # 500 samples at 1 kHz
    N = 6000
    # First sample, overlapping windows, a mid-recording trial, the last valid onset.
    ONSETS = (0, 300, 2600, 3100, 5500)

    @pytest.fixture(scope="class")
    def rec(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((3, self.N)) * np.array([[1.0], [40.0], [0.01]])
        return _recording(data, [(s, 1 + i % 4) for i, s in enumerate(self.ONSETS)])

    def test_continuous_stage_within_two_ulp_of_trial_peak(self, bandpass, rec):
        whole = Recording(rec.subject_id, FS, rec.layout,
                          np.stack([filtfilt(bandpass, row) for row in rec.data]),
                          rec.markers)
        reference = extract_trials(whole, self.TIMING)
        windowed = _filtered_trials(bandpass, rec, self.TIMING, bandpass.settle_len)
        assert len(windowed) == len(self.ONSETS)
        for ref, got in zip(reference.trials, windowed.trials):
            assert got.label == ref.label
            assert got.samples.dtype == np.float32
            for ref_row, got_row in zip(ref.samples, got.samples):
                ulp = np.spacing(np.max(np.abs(ref_row)))
                assert np.max(np.abs(got_row - ref_row)) <= 2 * ulp

    def test_epoch_stage_is_the_per_trial_filter_bit_for_bit(self, bandpass, rec):
        windowed = _filtered_trials(bandpass, rec, self.TIMING, margin=0)
        for trial, got in zip(extract_trials(rec, self.TIMING).trials, windowed.trials):
            expected = np.stack([filtfilt(bandpass, row) for row in trial.samples])
            np.testing.assert_array_equal(got.samples, expected)

    def test_file_windows_equal_memory_windows(self, bandpass, rec, tmp_path_factory):
        path = tmp_path_factory.mktemp("win") / "w.nsr"
        save_recording(rec, path)
        for margin in (0, bandpass.settle_len):
            mem = _filtered_trials(bandpass, rec, self.TIMING, margin)
            disk = _filtered_trials(bandpass, open_recording(path), self.TIMING, margin)
            for a, b in zip(mem.trials, disk.trials):
                np.testing.assert_array_equal(a.samples, b.samples)
