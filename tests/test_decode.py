from fractions import Fraction

import numpy as np
import pytest

from swarmbci.config import RunConfig
from swarmbci.csp import CspModel, trial_scatter
from swarmbci.decode import DecoderModel, LdaModel, fit_decoder, fit_lda, predict
from swarmbci.recording import ParadigmTiming, TrialSet, extract_trials
from swarmbci.synth import SynthConfig, generate_subject

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def small_synth_trialset(separability=0.9, seed=0, trials_per_class=8,
                         n_channels=12, fs=250.0):
    cfg = SynthConfig(n_channels=n_channels, fs_hz=fs,
                      trials_per_class=trials_per_class, timing=SMALL_TIMING,
                      separability=separability, seed=seed)
    return extract_trials(generate_subject(cfg), SMALL_TIMING)


def fit_trialset(ts, config=RunConfig(n_pairs=2)):
    """Fit the decoder on a TrialSet's trials through their scatter matrices."""
    scatters = np.stack([trial_scatter(t.samples) for t in ts.trials])
    return fit_decoder(scatters, ts.labels, ts.trials[0].n_samples, config)


def predict_trial(model, trial):
    return predict(model, trial_scatter(trial.samples), trial.n_samples)


def lda_closed_form(pos, neg, shrinkage=Fraction(0)):
    """Exact LDA in rational arithmetic (Fractions throughout).

    Pooled covariance is the total within-class scatter over the total
    count, shrunk toward scaled identity; solves the linear system by
    Cramer's rule for d <= 2.
    """
    pos = [[Fraction(v) for v in row] for row in pos]
    neg = [[Fraction(v) for v in row] for row in neg]
    d = len(pos[0])
    n_pos, n_neg = len(pos), len(neg)
    mu_p = [sum(r[j] for r in pos) / n_pos for j in range(d)]
    mu_n = [sum(r[j] for r in neg) / n_neg for j in range(d)]
    sigma = [[Fraction(0)] * d for _ in range(d)]
    for rows, mu in ((pos, mu_p), (neg, mu_n)):
        for r in rows:
            for i in range(d):
                for j in range(d):
                    sigma[i][j] += (r[i] - mu[i]) * (r[j] - mu[j])
    n_tot = n_pos + n_neg
    sigma = [[v / n_tot for v in row] for row in sigma]
    tr = sum(sigma[i][i] for i in range(d))
    for i in range(d):
        for j in range(d):
            sigma[i][j] *= (1 - shrinkage)
            if i == j:
                sigma[i][j] += shrinkage * tr / d
    diff = [mu_p[j] - mu_n[j] for j in range(d)]
    if d == 1:
        w = [diff[0] / sigma[0][0]]
    else:
        det = sigma[0][0] * sigma[1][1] - sigma[0][1] * sigma[1][0]
        w = [(diff[0] * sigma[1][1] - diff[1] * sigma[0][1]) / det,
             (sigma[0][0] * diff[1] - sigma[1][0] * diff[0]) / det]
    bias = -sum(w[j] * (mu_p[j] + mu_n[j]) for j in range(d)) / 2
    return w, bias  # equal counts assumed: prior term is zero


class TestFitLda:
    def test_1d_boundary(self):
        model = fit_lda(np.array([[1.9], [2.1]]), np.array([[-0.1], [0.1]]), shrinkage=0.0)
        assert model.score(np.array([1.0])) == pytest.approx(0.0, abs=1e-12)
        assert model.score(np.array([2.0])) > 0
        assert model.score(np.array([0.0])) < 0

    def test_identical_distributions_zero_weights(self):
        x = np.array([[0.3, -1.2], [1.1, 0.4], [-0.5, 0.9]])
        model = fit_lda(x, x.copy(), shrinkage=0.1)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-12)

    def test_means_scored_on_correct_sides(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pos = rng.standard_normal((6, 3)) + rng.standard_normal(3)
            neg = rng.standard_normal((6, 3)) + rng.standard_normal(3)
            model = fit_lda(pos, neg, shrinkage=0.05)
            assert model.score(pos.mean(axis=0)) > 0
            assert model.score(neg.mean(axis=0)) < 0

    def test_matches_rational_closed_form_1d(self):
        pos = [[1.9], [2.1], [2.3]]
        neg = [[-0.1], [0.1], [0.3]]
        w, b = lda_closed_form(pos, neg)
        model = fit_lda(np.array(pos), np.array(neg), shrinkage=0.0)
        assert model.weights[0] == pytest.approx(float(w[0]), abs=1e-10)
        assert model.bias == pytest.approx(float(b), abs=1e-10)

    def test_matches_rational_closed_form_2d(self):
        pos = [[2, 1], [3, -1], [4, 0], [3, 2]]
        neg = [[0, 0], [-1, 1], [1, -1], [0, 2]]
        shrink = Fraction(1, 20)
        w, b = lda_closed_form(pos, neg, shrink)
        model = fit_lda(np.array(pos, dtype=float), np.array(neg, dtype=float),
                        shrinkage=float(shrink))
        np.testing.assert_allclose(model.weights, [float(v) for v in w], atol=1e-10)
        assert model.bias == pytest.approx(float(b), abs=1e-10)

    def test_sign_matches_oracle_on_probes(self):
        pos = [[1, 3], [2, 5], [0, 4], [1, 6]]
        neg = [[-2, 0], [-1, 1], [-3, -1], [0, 0]]
        w, b = lda_closed_form(pos, neg, Fraction(1, 10))
        model = fit_lda(np.array(pos, dtype=float), np.array(neg, dtype=float), shrinkage=0.1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            probe = rng.uniform(-4, 6, size=2)
            exact = float(w[0]) * probe[0] + float(w[1]) * probe[1] + float(b)
            if abs(exact) > 1e-6:
                assert np.sign(model.score(probe)) == np.sign(exact)

    def test_unbalanced_prior_term(self):
        pos = np.array([[2.0], [2.2], [1.8], [2.1]])
        neg = np.array([[0.0], [0.2]])
        model = fit_lda(pos, neg, shrinkage=0.0)
        mid = (pos.mean() + neg.mean()) / 2
        assert model.score(np.array([mid])) == pytest.approx(np.log(4 / 2), abs=1e-10)

    def test_singular_covariance_advises_shrinkage(self):
        pos = np.array([[1.0, 1.0], [1.0, 1.0]])
        neg = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="shrinkage"):
            fit_lda(pos, neg, shrinkage=0.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_lda(np.array([[1.0]]), np.array([[0.0], [0.1]]), shrinkage=0.05)


class TestFitDecoder:
    def test_per_class_model_structure(self):
        ts = small_synth_trialset(trials_per_class=5)
        model = fit_trialset(ts)
        assert sorted(model.per_class) == [1, 2, 3, 4]
        for csp_model, lda_model in model.per_class.values():
            assert len(csp_model.selected) == 4
            assert lda_model.weights.shape == (4,)

    def test_missing_class_named_in_error(self):
        ts = small_synth_trialset(trials_per_class=5)
        without_3 = ts.subset([i for i, t in enumerate(ts.trials) if t.label != 3])
        with pytest.raises(ValueError, match="class 3"):
            fit_trialset(without_3, RunConfig())

    def test_duplication_invariance(self):
        ts = small_synth_trialset(trials_per_class=4, seed=5)
        doubled = TrialSet(ts.trials + ts.trials, ts.layout, ts.sampling_rate_hz)
        m1 = fit_trialset(ts)
        m2 = fit_trialset(doubled)
        probe = small_synth_trialset(trials_per_class=2, seed=99).trials[0]
        _, s1 = predict_trial(m1, probe)
        _, s2 = predict_trial(m2, probe)
        for code in (1, 2, 3, 4):
            assert s1[code] == pytest.approx(s2[code], abs=1e-9)

    def test_deterministic(self):
        ts = small_synth_trialset(trials_per_class=4, seed=6)
        m1, m2 = fit_trialset(ts), fit_trialset(ts)
        probe = ts.trials[0]
        assert predict_trial(m1, probe) == predict_trial(m2, probe)


class TestPredict:
    def test_separable_class_recovered(self):
        # Train and probe within one subject (one mixing matrix): hold out
        # the last trials of each class.
        ts = small_synth_trialset(separability=0.9, seed=7, trials_per_class=14)
        held = {c: 0 for c in (1, 2, 3, 4)}
        train_idx, test_idx = [], []
        for i in reversed(range(len(ts))):
            label = ts.trials[i].label
            if held[label] < 4:
                held[label] += 1
                test_idx.append(i)
            else:
                train_idx.append(i)
        model = fit_trialset(ts.subset(sorted(train_idx)))
        fresh = ts.subset(sorted(test_idx))
        hits = sum(predict_trial(model, t)[0] == t.label for t in fresh.trials)
        assert hits >= 0.8 * len(fresh)

    def test_all_zero_model_ties_break_to_class_1(self):
        n = 4
        csp_model = CspModel(np.eye(n), np.full(n, 0.5), (0, 1, 2, 3))
        lda_model = LdaModel(np.zeros(n), 0.0, 0.0)
        model = DecoderModel({c: (csp_model, lda_model) for c in (1, 2, 3, 4)}, "plain")
        rng = np.random.default_rng(2)
        label, scores = predict(model, trial_scatter(rng.standard_normal((n, 50))), 50)
        assert label == 1
        assert all(s == 0.0 for s in scores.values())

    def test_argmax_invariant_to_constant_score_shift(self):
        ts = small_synth_trialset(trials_per_class=5, seed=9)
        model = fit_trialset(ts)
        shifted = DecoderModel(
            {c: (csp, LdaModel(lda.weights, lda.bias + 17.5, lda.shrinkage))
             for c, (csp, lda) in model.per_class.items()},
            model.log_variance_mode)
        for t in ts.trials[:8]:
            assert predict_trial(model, t)[0] == predict_trial(shifted, t)[0]

    def test_channel_mismatch(self):
        ts = small_synth_trialset(trials_per_class=5, seed=10)
        model = fit_trialset(ts)
        with pytest.raises(ValueError, match="channels"):
            predict(model, trial_scatter(np.random.default_rng(0).standard_normal((3, 100))), 100)
