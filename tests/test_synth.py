import numpy as np
import pytest
from scipy import signal as sp_signal

from swarmbci.recording import ParadigmTiming, extract_trials
from swarmbci.synth import SynthConfig, generate_subject, pattern_matrix

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


class TestPatternMatrix:
    def test_rows_orthogonal(self):
        p = pattern_matrix(8)
        gram = p @ p.T
        off_diag = gram - np.diag(np.diag(gram))
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-15)

    def test_rows_unit_norm(self):
        p = pattern_matrix(10)
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-15)

    def test_two_dominant_entries_per_row(self):
        p = pattern_matrix(8)
        assert p.shape == (4, 8)
        for row in p:
            assert np.sum(row > 0) == 2

    def test_constant_across_calls(self):
        np.testing.assert_array_equal(pattern_matrix(8), pattern_matrix(8))

    def test_too_few_sources(self):
        with pytest.raises(ValueError):
            pattern_matrix(4)


class TestGenerateSubject:
    def test_full_session_structure(self):
        # Defaults give the full session shape; markers checked at small scale
        # elsewhere, here only the structural contract on a reduced config.
        cfg = SynthConfig(n_channels=16, fs_hz=250, trials_per_class=50,
                          timing=SMALL_TIMING, separability=0.3, seed=0)
        rec = generate_subject(cfg)
        assert len(rec.markers) == 200
        assert rec.n_channels == 16
        labels = [t.label for t in extract_trials(rec, SMALL_TIMING).trials]
        assert np.bincount(labels, minlength=5)[1:].tolist() == [50, 50, 50, 50]

    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=3,
                          timing=SMALL_TIMING, separability=0.7, seed=5)
        a, b = generate_subject(cfg), generate_subject(cfg)
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(n_channels=8, fs_hz=250, trials_per_class=3,
                    timing=SMALL_TIMING, separability=0.7)
        a = generate_subject(SynthConfig(seed=1, **base))
        b = generate_subject(SynthConfig(seed=2, **base))
        assert a != b

    def test_zero_separability_leaves_sources_unscaled(self):
        # With separability 0 the per-class scale factors are all 1, so
        # regenerating with relabeled trials gives identical data.
        base = dict(n_channels=8, fs_hz=250, trials_per_class=4,
                    timing=SMALL_TIMING, seed=9)
        a = generate_subject(SynthConfig(separability=0.0, **base))
        rng = np.random.default_rng(9)  # same label shuffle comes from the seed
        b = generate_subject(SynthConfig(separability=0.0, **base))
        np.testing.assert_array_equal(a.data, b.data)

    def test_markers_at_imagery_onsets(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=2,
                          timing=SMALL_TIMING, separability=0.5, seed=3)
        rec = generate_subject(cfg)
        gap = int(round(1.5 * 250))
        step = gap + int(round(2.0 * 250))
        assert [m.sample_index for m in rec.markers] == [i * step + gap for i in range(8)]

    def test_spectral_content_confined_to_band(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=4,
                          timing=SMALL_TIMING, separability=0.9, seed=4)
        rec = generate_subject(cfg)
        freqs, psd = sp_signal.periodogram(rec.data.astype(np.float64), fs=250.0, axis=1)
        mean_psd = psd.mean(axis=0)
        in_band = (freqs >= 6.0) & (freqs <= 32.0)
        peak = mean_psd[in_band].max()
        out_avg = mean_psd[~in_band & (freqs > 0)].mean()
        assert peak / out_avg > 100.0  # > 20 dB

    def test_separability_monotonicity_small_scale(self):
        from swarmbci.config import RunConfig
        from swarmbci.evaluate import evaluate_recording
        accs = []
        for sep in (0.0, 0.45, 0.9):
            cfg = SynthConfig(n_channels=12, fs_hz=250, trials_per_class=12,
                              timing=SMALL_TIMING, separability=sep, seed=8)
            rec = generate_subject(cfg)
            accs.append(evaluate_recording(rec, RunConfig(seed=1, n_pairs=2),
                                           SMALL_TIMING).mean_accuracy)
        assert accs[2] - accs[0] >= 0.4
        assert accs[2] >= accs[0]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(separability=1.5)
        with pytest.raises(ValueError):
            SynthConfig(n_sources=80, n_channels=64)
        with pytest.raises(ValueError):
            SynthConfig(noise_floor=0.0)
        for fs in (60.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fs_hz"):
                SynthConfig(fs_hz=fs)
