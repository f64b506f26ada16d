from fractions import Fraction

import numpy as np
import pytest

from swarmbci import decode
from swarmbci.config import RunConfig
from swarmbci.csp import (
    VARIANCE_FLOOR,
    CspModel,
    feature_projector,
    fit_csp_matrices,
    packed_traces,
    trial_scatter,
)
from swarmbci.decode import DecoderModel, LdaModel, fit_decoder, fit_lda, predict
from swarmbci.evaluate import stratified_kfold
from swarmbci.recording import EVENT_CODES, ParadigmTiming, extract_trials
from swarmbci.synth import SynthConfig, generate_subject

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def small_synth_trialset(separability=0.9, seed=0, trials_per_class=8,
                         n_channels=12, fs=250.0):
    cfg = SynthConfig(n_channels=n_channels, fs_hz=fs,
                      trials_per_class=trials_per_class, timing=SMALL_TIMING,
                      separability=separability, seed=seed)
    return extract_trials(generate_subject(cfg), SMALL_TIMING)


def fit_trials(trials, config=RunConfig(n_pairs=2)):
    """Fit the decoder on a list of trials through their scatter matrices."""
    scatters = np.stack([trial_scatter(t.samples) for t in trials])
    return fit_decoder(scatters, [t.label for t in trials], trials[0].n_samples, config)


def predict_trial(model, trial):
    return predict(model, trial_scatter(trial.samples), trial.n_samples)


def packed(full):
    """The upper triangles of (..., C, C) matrices, as ``csp.trial_scatter`` packs them."""
    return full[(..., *np.triu_indices(full.shape[-1]))]


def full_scatter(x):
    """The whole C x C scatter of one trial, as ``trial_scatter`` returned it before packing."""
    xc = np.asarray(x, dtype=np.float64)
    xc = xc - xc.mean(axis=1, keepdims=True)
    return xc @ xc.T


def full_stack_features(model, scatters, n_samples, mode):
    """``features_from_scatter`` of one model on a whole (n, C, C) stack, before packing."""
    w_sel = model.w[:, list(model.selected)]
    projected = scatters @ w_sel
    variances = np.sum(np.multiply(projected, w_sel, out=projected), axis=-2) / n_samples
    variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances, axis=-1, keepdims=True)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    return np.log(variances)


def full_stack_fit_decoder(scatters, labels, n_samples, config, train):
    """``fit_decoder`` on a whole (n, C, C) scatter stack, as it was before the rows were packed.

    Kept as the reference that the packed fit must equal to within ``FIT_BOUND``.
    """
    traces = np.trace(scatters, axis1=1, axis2=2)
    is_pos = np.asarray(labels)[:, None] == np.array(EVENT_CODES)
    sums = np.zeros((len(EVENT_CODES), 2, *scatters.shape[1:]))
    for i in np.flatnonzero(train):
        sums[range(len(EVENT_CODES)), is_pos[i].astype(int)] += scatters[i] / traces[i]
    per_class = {}
    for c, code in enumerate(EVENT_CODES):
        pos, rest = train & is_pos[:, c], train & ~is_pos[:, c]
        csp_model = fit_csp_matrices(sums[c, 1] / pos.sum(), sums[c, 0] / rest.sum(),
                                     config.n_pairs)
        feats = full_stack_features(csp_model, scatters, n_samples, config.log_variance_mode)
        per_class[code] = (csp_model, fit_lda(feats[pos], feats[rest], config.shrinkage))
    return per_class


#: Largest max |a - b| / max |b| of each fitted array against a reference fit. The class
#: sums and features are matrix products, which sum in another order than the row-by-row
#: reference (or than a product over fewer rows). Over the cases of
#: ``test_every_fold_equals_the_full_stack_fit_bit_for_bit`` at most 3.5e-11 (filters),
#: 4.0e-13 (eigenvalues), 7.6e-12 (LDA weights) and 1.6e-10 (bias) was measured.
FIT_BOUND = {"w": 1e-9, "eigenvalues": 1e-11, "weights": 2e-10, "bias": 5e-9}


def assert_fits_agree(fit, reference):
    """Two fitted (CspModel, LdaModel) pairs select the same filters and agree to within
    ``FIT_BOUND``."""
    (csp_a, lda_a), (csp_b, lda_b) = fit, reference
    assert csp_a.selected == csp_b.selected
    pairs = {"w": (csp_a.w, csp_b.w), "eigenvalues": (csp_a.eigenvalues, csp_b.eigenvalues),
             "weights": (lda_a.weights, lda_b.weights), "bias": (lda_a.bias, lda_b.bias)}
    for name, (a, b) in pairs.items():
        assert np.max(np.abs(np.subtract(a, b))) <= FIT_BOUND[name] * np.max(np.abs(b)), name


def assert_fits_equal(fit, reference):
    """Two fitted (CspModel, LdaModel) pairs are equal bit for bit."""
    (csp_a, lda_a), (csp_b, lda_b) = fit, reference
    np.testing.assert_array_equal(csp_a.w, csp_b.w)
    np.testing.assert_array_equal(csp_a.eigenvalues, csp_b.eigenvalues)
    assert csp_a.selected == csp_b.selected
    np.testing.assert_array_equal(lda_a.weights, lda_b.weights)
    assert lda_a.bias == lda_b.bias


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
        model = fit_trials(ts.trials)
        assert sorted(model.per_class) == [1, 2, 3, 4]
        for csp_model, lda_model in model.per_class.values():
            assert len(csp_model.selected) == 4
            assert lda_model.weights.shape == (4,)

    def test_missing_class_named_in_error(self):
        ts = small_synth_trialset(trials_per_class=5)
        without_3 = [t for t in ts.trials if t.label != 3]
        with pytest.raises(ValueError, match="class 3"):
            fit_trials(without_3, RunConfig())

    def test_duplication_invariance(self):
        ts = small_synth_trialset(trials_per_class=4, seed=5)
        m1 = fit_trials(ts.trials)
        m2 = fit_trials(ts.trials + ts.trials)
        probe = small_synth_trialset(trials_per_class=2, seed=99).trials[0]
        _, s1 = predict_trial(m1, probe)
        _, s2 = predict_trial(m2, probe)
        for code in (1, 2, 3, 4):
            assert s1[code] == pytest.approx(s2[code], abs=1e-9)

    def test_deterministic(self):
        ts = small_synth_trialset(trials_per_class=4, seed=6)
        m1, m2 = fit_trials(ts.trials), fit_trials(ts.trials)
        probe = ts.trials[0]
        assert predict_trial(m1, probe) == predict_trial(m2, probe)

    def test_class_means_equal_masked_numpy_means_bit_for_bit(self):
        """The CSP of each class is fit on ``np.mean(..., where=)`` class means, to within
        ``FIT_BOUND``: the class sums are one matrix product."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((90, 6, 40))
        scatters = np.stack([trial_scatter(t) for t in x])
        labels = rng.permutation(np.arange(90) % 4 + 1)
        model = fit_decoder(scatters, labels, 40, RunConfig(n_pairs=2))
        full = np.stack([full_scatter(t) for t in x])
        normalized = full / np.trace(full, axis1=1, axis2=2)[:, None, None]
        for code in (1, 2, 3, 4):
            pos = (labels == code)[:, None, None]
            expected = fit_csp_matrices(np.mean(normalized, axis=0, where=pos),
                                        np.mean(normalized, axis=0, where=~pos), 2)
            w = model.per_class[code][0].w
            assert np.max(np.abs(w - expected.w)) <= FIT_BOUND["w"] * np.max(np.abs(expected.w))

    @pytest.mark.parametrize("mode", ["plain", "normalized"])
    def test_train_mask_equals_the_sliced_stack_bit_for_bit(self, mode):
        # To within FIT_BOUND: held-out rows enter the class-sum product with weight 0,
        # which moves where the product's partial sums fall.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((48, 8, 30))
        scatters = np.stack([trial_scatter(t) for t in x])
        labels = rng.permutation(np.arange(48) % 4 + 1)
        cfg = RunConfig(n_pairs=2, log_variance_mode=mode)
        folds = stratified_kfold(labels, 4, seed=0)
        for fold in range(4):
            mask = folds != fold
            masked = fit_decoder(scatters, labels, 30, cfg, train=mask)
            sliced = fit_decoder(scatters[mask], labels[mask], 30, cfg)
            for code in (1, 2, 3, 4):
                assert_fits_agree(masked.per_class[code], sliced.per_class[code])

    @pytest.mark.parametrize("mode", ["plain", "normalized"])
    @pytest.mark.parametrize("n_channels", [4, 7, 64])
    def test_every_fold_equals_the_full_stack_fit_bit_for_bit(self, n_channels, mode):
        # The packed rows are the full matrices' upper triangles bit for bit; the fit from
        # them agrees with the unpacked reference fit to within FIT_BOUND.
        rng = np.random.default_rng(n_channels)
        gains = rng.uniform(0.2, 40.0, (1, n_channels, 1)).astype(np.float32)
        x = gains * rng.standard_normal((48, n_channels, 2 * n_channels + 20), dtype=np.float32)
        labels = rng.permutation(np.arange(48) % 4 + 1)
        scatters = np.stack([trial_scatter(t) for t in x])
        full = np.stack([full_scatter(t) for t in x])
        np.testing.assert_array_equal(packed(full), scatters)
        cfg = RunConfig(n_pairs=min(3, n_channels // 2), log_variance_mode=mode)
        folds = stratified_kfold(labels, 4, seed=n_channels)
        for fold in range(4):
            model = fit_decoder(scatters, labels, x.shape[2], cfg, train=folds != fold)
            reference = full_stack_fit_decoder(full, labels, x.shape[2], cfg, folds != fold)
            for code in EVENT_CODES:
                assert_fits_agree(model.per_class[code], reference[code])

    @pytest.mark.parametrize("shape", [(300, 64, 250), (20, 64, 4000), (90, 7, 40)])
    def test_traces_of_the_unpacked_rows_equal_np_trace_bit_for_bit(self, shape):
        # fit_decoder normalises each train row by its packed diagonal's sum, which must equal
        # np.trace of the full matrix.
        rng = np.random.default_rng(shape[0])
        gains = rng.uniform(0.01, 100.0, (shape[0], shape[1], 1)).astype(np.float32)
        x = gains * rng.standard_normal(shape, dtype=np.float32)
        scatters = np.stack([trial_scatter(t) for t in x])
        full = np.stack([full_scatter(t) for t in x])
        rows = np.flatnonzero(rng.random(shape[0]) < 0.9)
        np.testing.assert_array_equal(packed_traces(scatters, rows),
                                      np.trace(full[rows], axis1=1, axis2=2))

    @pytest.mark.parametrize("mode", ["plain", "normalized"])
    def test_held_out_rows_leave_the_fit_unchanged_bit_for_bit(self, mode):
        # Held-out rows weigh 0 in the class sums, and their features are dropped from the
        # product's result: any finite values in them give the same fit.
        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 9, 40))
        scatters = np.stack([trial_scatter(t) for t in x])
        labels = rng.permutation(np.arange(60) % 4 + 1)
        cfg = RunConfig(n_pairs=2, log_variance_mode=mode)
        folds = stratified_kfold(labels, 5, seed=0)
        for fold in range(5):
            train = folds != fold
            model = fit_decoder(scatters, labels, 40, cfg, train=train)
            other = scatters.copy()
            held_out = np.flatnonzero(~train)
            other[held_out[::2]] = 0.0  # a zero-variance trial, refused as a train row
            other[held_out[1::2]] = 1e6 * rng.standard_normal((len(held_out[1::2]),
                                                               scatters.shape[1]))
            moved = fit_decoder(other, labels, 40, cfg, train=train)
            for code in EVENT_CODES:
                assert_fits_equal(moved.per_class[code], model.per_class[code])

    def test_non_finite_row_refused_and_named_even_held_out(self):
        rng = np.random.default_rng(19)
        scatters = np.stack([trial_scatter(rng.standard_normal((4, 50))) for _ in range(12)])
        scatters[9, 0] = np.inf
        scatters[7, 3] = np.nan
        train = ~np.isin(np.arange(12), (7, 9))
        # 0 * NaN is NaN: a held-out row with weight 0 would still spread into every sum.
        with pytest.raises(ValueError, match="scatter row 7 holds a non-finite value"):
            fit_decoder(scatters, np.arange(12) % 4 + 1, 50, RunConfig(n_pairs=1), train=train)

    def test_a_column_that_overflows_holds_no_non_finite_row(self):
        # Its sum is infinite, so the rows are scanned, and none holds a non-finite value.
        scatters = np.ones((3, 10))
        scatters[:, 4] = np.finfo(np.float64).max
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(scatters, axis=0)[4])
        assert decode._first_non_finite_row(scatters) is None
        scatters[2, 7] = -np.inf
        assert decode._first_non_finite_row(scatters) == 2

    def test_train_mask_of_the_wrong_length_names_both_lengths(self):
        scatters = np.stack([packed(np.eye(4))] * 12)
        with pytest.raises(ValueError, match=r"length 12, got bool of shape \(11,\)"):
            fit_decoder(scatters, np.arange(12) % 4 + 1, 10, RunConfig(n_pairs=1),
                        train=np.ones(11, dtype=bool))

    @pytest.mark.parametrize("train", [np.ones(12, dtype=int), [1] * 12, np.arange(12), True])
    def test_non_boolean_train_mask_refused(self, train):
        scatters = np.stack([packed(np.eye(4))] * 12)
        with pytest.raises(ValueError, match="boolean mask"):
            fit_decoder(scatters, np.arange(12) % 4 + 1, 10, RunConfig(n_pairs=1), train=train)


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
        model = fit_trials([ts.trials[i] for i in sorted(train_idx)])
        fresh = [ts.trials[i] for i in sorted(test_idx)]
        hits = sum(predict_trial(model, t)[0] == t.label for t in fresh)
        assert hits >= 0.8 * len(fresh)

    def test_all_zero_model_ties_break_to_class_1(self):
        n = 4
        csp_model = CspModel(np.eye(n), np.full(n, 0.5), (0, 1, 2, 3))
        lda_model = LdaModel(np.zeros(n), 0.0, 0.0)
        model = DecoderModel({c: (csp_model, lda_model) for c in (1, 2, 3, 4)}, "plain",
                             feature_projector([csp_model] * 4))
        rng = np.random.default_rng(2)
        label, scores = predict(model, trial_scatter(rng.standard_normal((n, 50))), 50)
        assert label == 1
        assert all(s == 0.0 for s in scores.values())

    def test_argmax_invariant_to_constant_score_shift(self):
        ts = small_synth_trialset(trials_per_class=5, seed=9)
        model = fit_trials(ts.trials)
        shifted = DecoderModel(
            {c: (csp, LdaModel(lda.weights, lda.bias + 17.5, lda.shrinkage))
             for c, (csp, lda) in model.per_class.items()},
            model.log_variance_mode, model.projector)
        for t in ts.trials[:8]:
            assert predict_trial(model, t)[0] == predict_trial(shifted, t)[0]

    def test_fit_builds_the_projector_once(self, monkeypatch):
        ts = small_synth_trialset(trials_per_class=5, seed=10)
        calls = []
        monkeypatch.setattr(decode, "feature_projector",
                            lambda models: calls.append(models) or feature_projector(models))
        model = fit_trials(ts.trials)
        assert len(calls) == 1
        np.testing.assert_array_equal(
            model.projector, feature_projector([model.per_class[c][0] for c in EVENT_CODES]))

    def test_predict_reuses_the_fitted_projector(self, monkeypatch):
        ts = small_synth_trialset(trials_per_class=5, seed=10)
        model = fit_trials(ts.trials)
        assert model.projector.flags.c_contiguous  # so each product views it 2-D, uncopied
        monkeypatch.setattr(decode, "feature_projector", None)  # a rebuild would raise
        for t in ts.trials[:4]:
            predict_trial(model, t)

    def test_channel_mismatch(self):
        ts = small_synth_trialset(trials_per_class=5, seed=10)
        model = fit_trials(ts.trials)
        with pytest.raises(ValueError, match="channels"):
            predict(model, trial_scatter(np.random.default_rng(0).standard_normal((3, 100))), 100)

    def test_row_of_the_wrong_length_names_both_lengths(self):
        ts = small_synth_trialset(trials_per_class=5, seed=10)
        model = fit_trials(ts.trials)  # 12 channels: 78 packed values
        with pytest.raises(ValueError, match=r"shape \(77,\) .* 12 channels, .* length 78"):
            predict(model, np.ones(77), 100)
        with pytest.raises(ValueError, match=r"shape \(12, 12\) .* length 78"):
            predict(model, np.eye(12), 100)
