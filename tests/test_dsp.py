import itertools
from functools import partial

import numpy as np
import pytest
from references import frequency_response
from scipy import signal

from swarmbci import dsp
from swarmbci.dsp import (
    FilterSpec,
    design_bandpass,
    filter_channels,
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
#: Bands of the design grid: narrow, wide, low and near Nyquist at 250 Hz.
BANDS = ((8.0, 30.0), (1.0, 4.0), (0.5, 40.0), (1.0, 100.0), (20.0, 110.0), (8.0, 12.0),
         (30.0, 60.0), (0.1, 120.0))
#: The design grid: 144 (order, band, fs) cases.
DESIGNS = list(itertools.product(range(1, 7), BANDS, (250.0, 500.0, 1000.0)))


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
        for a0, a1, a2 in bandpass.sos[:, 3:]:
            assert np.max(np.abs(np.roots([a0, a1, a2]))) < 1.0

    def test_unstable_design_rejected(self):
        # z**2 + 1.21 has its poles at +-1.1j, outside the unit circle.
        with pytest.raises(ValueError):
            FilterSpec([[1.0, 0.0, 0.0, 1.0, 0.0, 1.21]])

    def test_low_band_high_order_accepted(self):
        # A valid band that the expanded (b, a) polynomial misreported as unstable.
        spec = design_bandpass(1.0, 4.0, 4, FS)
        assert np.max(np.abs(spec.poles)) < 1.0
        assert spec.settle_len == 12171

    @pytest.mark.parametrize("order, band, fs", [
        pytest.param(order, band, fs, id=f"order{order}-{band[0]:g}-{band[1]:g}Hz-at-{fs:g}")
        for order, band, fs in DESIGNS])
    def test_equals_scipy_butter_bit_for_bit(self, order, band, fs):
        expected = signal.butter(order, band, btype="bandpass", fs=fs, output="sos")
        spec = design_bandpass(*band, order, fs)
        np.testing.assert_array_equal(spec.sos.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(spec.zi.view(np.uint64),
                                      signal.sosfilt_zi(expected).view(np.uint64))

    def test_grid_covers_real_poles(self):
        # Wide bands at odd orders give real poles, which zpk2sos pairs with each other.
        real = [any(np.isreal(signal.butter(order, band, btype="bandpass", fs=fs,
                                             output="zpk")[1])) for order, band, fs in DESIGNS]
        assert sum(real) == 33

    def test_malformed_sections_rejected(self):
        with pytest.raises(ValueError, match="n_sections x 6"):
            FilterSpec([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="a0 must be 1"):
            FilterSpec([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]])


class TestFrequencyResponse:
    def test_identity_filter(self):
        spec = FilterSpec([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        for f in (0.0, 100.0, 499.0):
            mag, phase = frequency_response(spec, f, FS)
            assert mag == pytest.approx(1.0)
            assert phase == pytest.approx(0.0)

    def test_pure_delay(self):
        spec = FilterSpec([[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]])
        mag, phase = frequency_response(spec, FS / 4, FS)
        assert mag == pytest.approx(1.0)
        assert phase == pytest.approx(-np.pi / 2)

    def test_in_band_gain(self, bandpass):
        mag, _ = frequency_response(bandpass, 19.0, FS)
        assert 0.95 <= mag <= 1.0


class TestFiltfilt:
    """Single-signal behaviour of :func:`filter_channels` on 1-D input."""

    def test_constant_rejected(self, bandpass):
        x = np.full(4000, 7.5)
        assert np.max(np.abs(filter_channels(bandpass, x))) < 1e-6 * 7.5

    def test_zero_phase_by_cross_correlation(self, bandpass):
        n = 4000
        x = np.sin(2 * np.pi * 19.0 * np.arange(n) / FS)
        y = filter_channels(bandpass, x)
        yi = y[200:n - 200]
        best = max(range(-3, 4),
                   key=lambda lag: float(np.dot(x[200 + lag:n - 200 + lag], yi)))
        assert abs(best) <= 1

    def test_amplitude_matches_squared_response(self, bandpass):
        n = 4000
        x = np.sin(2 * np.pi * 19.0 * np.arange(n) / FS)
        y = filter_channels(bandpass, x)
        ratio = np.std(y[200:-200]) / np.std(x[200:-200])
        expected = frequency_response(bandpass, 19.0, FS)[0] ** 2
        assert ratio == pytest.approx(expected, rel=0.02)

    def test_linearity(self, bandpass):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        lhs = filter_channels(bandpass, 2.5 * x - 1.25 * y)
        rhs = 2.5 * filter_channels(bandpass, x) - 1.25 * filter_channels(bandpass, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))

    def test_length_preserved(self, bandpass):
        x = np.random.default_rng(2).standard_normal(777)
        assert len(filter_channels(bandpass, x)) == 777

    def test_too_short_signal(self, bandpass):
        with pytest.raises(ValueError, match="too short"):
            filter_channels(bandpass, np.zeros(10))

    def test_deterministic(self, bandpass):
        x = np.random.default_rng(3).standard_normal(1000)
        a = filter_channels(bandpass, x)
        b = filter_channels(bandpass, x)
        np.testing.assert_array_equal(a, b)


class TestSettleLen:
    def test_margins_of_the_default_band(self):
        assert design_bandpass(8.0, 30.0, 2, 1000.0).settle_len == 735
        assert design_bandpass(8.0, 30.0, 2, 250.0).settle_len == 180

    def test_transient_below_tolerance_after_settle_len(self, bandpass):
        impulse = np.zeros(3000)
        impulse[0] = 1.0
        h = signal.sosfilt(bandpass.sos, impulse)
        n = bandpass.settle_len
        assert np.max(np.abs(h[n:])) < 1e-8 * np.max(np.abs(h))

    def test_fir_needs_no_margin(self):
        assert FilterSpec([[0.5, 0.5, 0.0, 1.0, 0.0, 0.0]]).settle_len == 0


def _sosfiltfilt(spec, x):
    """The reference: scipy's forward-backward SOS filter with the same padding."""
    return signal.sosfiltfilt(spec.sos, np.asarray(x, dtype=np.float64), axis=-1,
                              padtype="odd", padlen=spec.pad_len)


#: Largest |filter_channels - sosfiltfilt| / max |sosfiltfilt| measured for each design
#: (fs, order, band), over 4 rows of 610, 777, 5,470 and 40,000 samples at six scales:
#: 4.0e-15, 4.8e-14, 5.4e-13 and 9.3e-11. The bounds leave a factor of 10 to 25; the
#: order-4 1-4 Hz design has poles at 0.997.
FILTER_BOUNDS = {(250.0, 2, 8.0, 30.0): 1e-13, (1000.0, 2, 8.0, 30.0): 1e-12,
                 (1000.0, 4, 8.0, 30.0): 1e-11, (1000.0, 4, 1.0, 4.0): 1e-9}


class TestFilterChannels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fs, order, low, high, n", [
        (250.0, 2, 8.0, 30.0, 610), (1000.0, 2, 8.0, 30.0, 5470), (1000.0, 4, 8.0, 30.0, 40000),
        (1000.0, 4, 1.0, 4.0, 5470)])
    def test_matches_sosfiltfilt_within_bound(self, fs, order, low, high, n, dtype):
        spec = design_bandpass(low, high, order, fs)
        x = (100.0 * np.random.default_rng(n).standard_normal((4, n))).astype(dtype)
        for data in (x, x[2]):
            got, expected = filter_channels(spec, data), _sosfiltfilt(spec, data)
            assert got.dtype == dtype and got.shape == data.shape
            error = np.max(np.abs(got.astype(np.float64) - expected))
            # float32 output rounds to half a float32 ulp of the largest value on top.
            bound = FILTER_BOUNDS[fs, order, low, high] + (2.0**-24 if dtype == np.float32 else 0.0)
            assert error <= bound * np.max(np.abs(expected))

    def test_rows_match_filtfilt_bit_for_bit(self, bandpass):
        # 13 and 41 samples pad to 2 and 3 blocks. Each row count fills the tiles of its
        # padded length and leaves 3 rows over: 1,376 rows of 64 samples, 917 of 96, 137 of
        # 640 and 16 of 5,504 make a tile.
        for n, rows in ((13, 1379), (41, 920), (610, 140), (5470, 35)):
            x = np.random.default_rng(n).standard_normal((rows, n))
            out = filter_channels(bandpass, x)
            for ch in range(len(x)):
                np.testing.assert_array_equal(out[ch], filter_channels(bandpass, x[ch]))

    @pytest.mark.parametrize("fs, order, n", [
        (250.0, 2, 610), (250.0, 2, 300), (250.0, 4, 610), (250.0, 4, 41),
        (1000.0, 2, 5470), (1000.0, 2, 4735), (1000.0, 4, 5470), (1000.0, 4, 300)])
    def test_bits_do_not_depend_on_the_tile(self, monkeypatch, fs, order, n):
        # The second n of each design is a window clipped by the end of a recording.
        spec = design_bandpass(8.0, 30.0, order, fs)
        x = 100.0 * np.random.default_rng(n + order).standard_normal((35, n))
        expected = filter_channels(spec, x).view(np.uint64)
        # Budgets below one row (so a row a tile), of 3 rows, 8 rows (35 % 8 == 3) and every row.
        for budget in (1, 3 * spec.padded_len(n), 8 * spec.padded_len(n), 35 * spec.padded_len(n)):
            monkeypatch.setattr(dsp, "_TILE", budget)
            np.testing.assert_array_equal(filter_channels(spec, x).view(np.uint64), expected,
                                          err_msg=f"tile budget {budget}")

    @pytest.mark.parametrize("fs, n, calls", [(250.0, 610, 2), (1000.0, 5470, 8)])
    def test_tiles_of_a_64_channel_window(self, monkeypatch, fs, n, calls):
        # Two passes a tile: a 250 Hz window is one tile, a 1 kHz window four tiles of 16 rows.
        spec, passes, filter_blocks = design_bandpass(8.0, 30.0, 2, fs), [], dsp._filter_blocks

        def counted(spec, blocks, out):
            passes.append(len(blocks))
            filter_blocks(spec, blocks, out)

        monkeypatch.setattr(dsp, "_filter_blocks", counted)
        filter_channels(spec, np.zeros((64, n), dtype=np.float32))
        assert len(passes) == calls and sum(passes) == 2 * 64

    def test_pad_len_of_the_bandpass(self, bandpass):
        assert bandpass.pad_len == 12

    def test_padded_len_is_whole_blocks(self, bandpass):
        assert [bandpass.padded_len(n) for n in (8, 9, 41, 5470)] == [32, 64, 96, 5504]

    def test_float32_in_float32_out(self, bandpass):
        x = np.random.default_rng(7).standard_normal((2, 300)).astype(np.float32)
        out = filter_channels(bandpass, x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[1], filter_channels(bandpass, x[1].astype(np.float64))
                                      .astype(np.float32))

    def test_too_short_signal(self, bandpass):
        with pytest.raises(ValueError, match="too short"):
            filter_channels(bandpass, np.zeros((2, 10)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_out_equals_a_fresh_buffer_bit_for_bit(self, dtype):
        # Consecutive windows of different lengths through one buffer, the
        # longest first and then shorter ones, as trials clipped by the ends
        # of a recording: none may see what an earlier window left there.
        spec = design_bandpass(8.0, 30.0, 4, 1000.0)
        rng = np.random.default_rng(12)
        out = np.full((3, spec.padded_len(5470)), np.nan)
        for n in (5470, 4000, 5470, 300, 4735):
            x = (100.0 * rng.standard_normal((3, n))).astype(dtype)
            got = filter_channels(spec, x, out=out)
            assert got.dtype == np.float64 and np.shares_memory(got, out)
            np.testing.assert_array_equal(got, filter_channels(spec, x.astype(np.float64)))

    @pytest.mark.parametrize("shape, dtype", [((400,), np.float64), ((3, 400), np.float64),
                                              ((2, 324), np.float64), ((2, 400), np.float32),
                                              ((2, 351), np.float64)])
    def test_unfit_out_rejected(self, bandpass, shape, dtype):
        # 300 samples need a row of 300 + 2 * 12, up to whole blocks: 352.
        with pytest.raises(ValueError, match="out must be float64"):
            filter_channels(bandpass, np.zeros((2, 300)), out=np.empty(shape, dtype))


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
                          filter_channels(bandpass, rec.data),
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
            expected = _sosfiltfilt(bandpass, trial.samples).astype(np.float32)
            np.testing.assert_array_equal(got.samples, expected)

    def test_file_windows_equal_memory_windows(self, bandpass, rec, tmp_path_factory):
        path = tmp_path_factory.mktemp("win") / "w.nsr"
        save_recording(rec, path)
        for margin in (0, bandpass.settle_len):
            mem = _filtered_trials(bandpass, rec, self.TIMING, margin)
            disk = _filtered_trials(bandpass, open_recording(path), self.TIMING, margin)
            for a, b in zip(mem.trials, disk.trials):
                np.testing.assert_array_equal(a.samples, b.samples)
