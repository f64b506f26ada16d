import numpy as np
import pytest

from swarmbci.config import RunConfig
from swarmbci.csp import trial_scatter
from swarmbci.decode import fit_decoder, predict
from swarmbci.evaluate import (
    CvResult,
    cross_validate,
    evaluate_recording,
    stratified_kfold,
    summarize_group,
)
from swarmbci.recording import ParadigmTiming, Trial, TrialSet, extract_trials
from swarmbci.synth import SynthConfig, generate_subject

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def small_subject(separability, seed, trials_per_class=10, n_channels=12, fs=250.0):
    cfg = SynthConfig(n_channels=n_channels, fs_hz=fs,
                      trials_per_class=trials_per_class, timing=SMALL_TIMING,
                      separability=separability, seed=seed)
    return generate_subject(cfg)


def small_trialset(separability, seed, **kwargs):
    return extract_trials(small_subject(separability, seed, **kwargs), SMALL_TIMING)


class TestStratifiedKfold:
    def test_full_session_shape_gives_balanced_folds(self):
        labels = list(np.repeat([1, 2, 3, 4], 50))
        fa = stratified_kfold(labels, 5, seed=0)
        folds = np.asarray(fa.fold_of_trial)
        for f in range(5):
            assert np.sum(folds == f) == 40
            for code in (1, 2, 3, 4):
                mask = (folds == f) & (np.asarray(labels) == code)
                assert np.sum(mask) == 10

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            stratified_kfold([1, 2, 3, 4] * 5, 1, seed=0)

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(ValueError, match="class 2"):
            stratified_kfold([1, 1, 1, 2, 2], 3, seed=0)

    def test_deterministic(self):
        labels = list(np.repeat([1, 2, 3, 4], 13))
        assert stratified_kfold(labels, 5, 42) == stratified_kfold(labels, 5, 42)

    def test_uneven_classes_differ_by_at_most_one(self):
        labels = [1] * 11 + [2] * 7 + [3] * 9 + [4] * 5
        fa = stratified_kfold(labels, 3, seed=1)
        folds = np.asarray(fa.fold_of_trial)
        labels_arr = np.asarray(labels)
        for code in (1, 2, 3, 4):
            sizes = [np.sum((folds == f) & (labels_arr == code)) for f in range(3)]
            assert max(sizes) - min(sizes) <= 1

    def test_every_trial_assigned_once(self):
        labels = list(np.repeat([1, 2, 3, 4], 10))
        fa = stratified_kfold(labels, 4, seed=2)
        assert all(0 <= f < 4 for f in fa.fold_of_trial)
        assert len(fa.fold_of_trial) == len(labels)


class TestCrossValidate:
    def test_separable_set_scores_high(self):
        ts = small_trialset(0.9, seed=30)
        res = cross_validate(ts, 5, 3, RunConfig(seed=3, n_pairs=2))
        assert res.mean_accuracy >= 0.90

    def test_zero_separability_is_chance(self):
        accs = [cross_validate(small_trialset(0.0, seed=s, trials_per_class=15),
                               5, s, RunConfig(seed=s, n_pairs=2)).mean_accuracy
                for s in (31, 32, 33)]
        assert 0.10 <= np.mean(accs) <= 0.40  # wide band: small-n binomial spread

    def test_permuted_labels_are_chance(self):
        ts = small_trialset(0.9, seed=34, trials_per_class=15)
        rng = np.random.default_rng(0)
        labels = np.asarray(ts.labels)
        rng.shuffle(labels)
        permuted = TrialSet([Trial(int(lab), t.samples) for lab, t in zip(labels, ts.trials)],
                            ts.layout, ts.sampling_rate_hz)
        accs = [cross_validate(permuted, 5, s, RunConfig(seed=s, n_pairs=2)).mean_accuracy
                for s in (1, 2, 3)]
        assert 0.10 <= np.mean(accs) <= 0.40

    def test_confusion_rows_match_class_counts(self):
        ts = small_trialset(0.5, seed=35)
        res = cross_validate(ts, 5, 0, RunConfig(n_pairs=2))
        counts = np.bincount([t.label for t in ts.trials], minlength=5)[1:]
        np.testing.assert_array_equal(res.confusion.sum(axis=1), counts)
        assert res.confusion.sum() == len(ts)

    def test_mean_matches_folds(self):
        ts = small_trialset(0.6, seed=36)
        res = cross_validate(ts, 5, 0, RunConfig(n_pairs=2))
        assert res.mean_accuracy == pytest.approx(np.mean(res.per_fold_accuracy), abs=1e-12)
        assert res.std_accuracy == pytest.approx(np.std(res.per_fold_accuracy), abs=1e-12)

    def test_reproducible_json(self):
        ts = small_trialset(0.4, seed=37)
        cfg = RunConfig(seed=9, n_pairs=2)
        a = cross_validate(ts, 4, 9, cfg)
        b = cross_validate(ts, 4, 9, cfg)
        assert a.to_json() == b.to_json()

    def test_missing_class_rejected(self):
        ts = small_trialset(0.4, seed=38)
        no4 = ts.subset([i for i, t in enumerate(ts.trials) if t.label != 4])
        with pytest.raises(ValueError, match="class 4"):
            cross_validate(no4, 4, 0, RunConfig(n_pairs=2))

    def test_no_leakage_canary(self):
        # Chance-level data plus one extreme, mislabeled trial. A decoder
        # whose training set leaks the canary memorizes its label; the CV
        # harness must reproduce the leak-free prediction instead.
        ts = small_trialset(0.0, seed=21, trials_per_class=8)
        x = ts.trials[0].samples.astype(np.float64).copy()
        x[0] = 200.0 * np.sin(2 * np.pi * 15.0 * np.arange(x.shape[1]) / 250.0)
        canary = Trial(4, x)
        trials = list(ts.trials)
        trials[0] = canary
        spiked = TrialSet(trials, ts.layout, ts.sampling_rate_hz)

        cfg = RunConfig(seed=4, n_pairs=2, k_folds=4)
        res = cross_validate(spiked, 4, cfg.seed, cfg)
        canary_fold = res.fold_of_trial[0]
        train_idx = [i for i in range(len(spiked)) if res.fold_of_trial[i] != canary_fold]

        scatters = np.stack([trial_scatter(t.samples) for t in spiked.trials])
        labels = np.asarray(spiked.labels)
        n_samples = canary.n_samples

        def fit(idx):
            return fit_decoder(scatters[idx], labels[idx], n_samples, cfg)

        leak_free = fit(train_idx)
        leaked = fit(sorted(train_idx + [0]))
        p_free = predict(leak_free, scatters[0], n_samples)[0]
        p_leaked = predict(leaked, scatters[0], n_samples)[0]
        assert p_leaked == 4  # inclusion provably changes the prediction
        assert p_free != p_leaked
        assert res.predicted_labels[0] == p_free


class TestEvaluateRecording:
    def test_continuous_and_epoch_stages_both_decode(self):
        rec = small_subject(0.9, seed=40)
        for stage in ("continuous", "epoch"):
            cfg = RunConfig(seed=1, n_pairs=2, filter_stage=stage)
            res = evaluate_recording(rec, cfg, SMALL_TIMING)
            assert res.mean_accuracy >= 0.9

    def test_normalized_log_variance_mode(self):
        rec = small_subject(0.9, seed=41)
        cfg = RunConfig(seed=1, n_pairs=2, log_variance_mode="normalized")
        res = evaluate_recording(rec, cfg, SMALL_TIMING)
        assert res.mean_accuracy >= 0.75

    def test_non_finite_sample_named(self):
        rec = small_subject(0.9, seed=43)
        onset = rec.markers[7].sample_index
        rec.data[4, onset - 3] = np.inf  # inside the continuous stage's margin
        expected = f"channel {rec.layout.names[4]} at sample {onset - 3}"
        with pytest.raises(ValueError, match=expected):
            evaluate_recording(rec, RunConfig(seed=1, n_pairs=2), SMALL_TIMING)

    def test_fingerprint_recorded(self):
        rec = small_subject(0.5, seed=42)
        cfg = RunConfig(seed=1, n_pairs=2)
        res = evaluate_recording(rec, cfg, SMALL_TIMING)
        assert res.config_fingerprint == cfg.fingerprint


class TestSummarizeGroup:
    def _result(self, mean, fingerprint="fp"):
        return CvResult([mean] * 5, mean, 0.0, np.zeros((4, 4), dtype=int), 0, fingerprint)

    def test_single_subject(self):
        g = summarize_group({"s1": self._result(0.413)})
        assert g.grand_mean == pytest.approx(0.413)
        assert g.grand_std == 0.0

    def test_two_subjects(self):
        g = summarize_group({"a": self._result(0.2), "b": self._result(0.4)})
        assert g.grand_mean == pytest.approx(0.3)
        assert g.grand_std == pytest.approx(0.1)

    def test_seven_subjects_match_hand_mean(self):
        means = [0.21, 0.34, 0.55, 0.62, 0.48, 0.30, 0.95]
        g = summarize_group({f"s{i}": self._result(m) for i, m in enumerate(means)})
        assert g.grand_mean == pytest.approx(sum(means) / 7, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_group({})

    def test_mismatched_fingerprints_refused(self):
        with pytest.raises(ValueError, match="fingerprint"):
            summarize_group({"a": self._result(0.3, "fp1"), "b": self._result(0.4, "fp2")})
