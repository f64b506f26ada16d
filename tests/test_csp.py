import warnings

import numpy as np
import pytest

from swarmbci.csp import (
    CspModel,
    _canonical_signs,
    feature_projector,
    features_from_scatter,
    fit_csp_matrices,
    trial_scatter,
)
from swarmbci.config import RunConfig
from swarmbci.decode import DecoderModel, LdaModel, fit_decoder, predict


def random_spd(n, rng, cond_floor=0.2):
    """Well-conditioned random SPD matrix, trace-normalized."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(cond_floor, 1.0, size=n)
    m = q @ np.diag(eigs) @ q.T
    m = 0.5 * (m + m.T)
    return m / np.trace(m)


def random_trial(n_channels, n_samples, rng):
    return rng.standard_normal((n_channels, n_samples))


def unpack(packed):
    """The full symmetric matrices of packed rows, by mirroring their upper triangles."""
    packed = np.asarray(packed)
    n_ch = int(np.sqrt(2 * packed.shape[-1]))
    upper = np.triu_indices(n_ch)
    full = np.zeros((*packed.shape[:-1], n_ch, n_ch))
    full[..., upper[0], upper[1]] = packed
    full[..., upper[1], upper[0]] = packed
    return full


def normalized_covariance(*trials):
    """Mean of the trials' trace-normalized covariances, as the decoder takes it."""
    scatters = unpack([trial_scatter(x) for x in trials])
    return np.mean(scatters / np.trace(scatters, axis1=1, axis2=2)[:, None, None], axis=0)


def features(model, x, mode="plain"):
    return features_from_scatter(feature_projector([model]), trial_scatter(x)[None], x.shape[1],
                                 mode)[0, 0]


def brute_force_top_eigenvalue(c_pos, c_neg, n_grid=200000, seed=0):
    """Maximize w'C+w subject to w'(C+ + C-)w = 1 by random search.

    Independent of the whitening solver: samples directions, rescales
    each to the constraint surface, takes the best objective.
    """
    rng = np.random.default_rng(seed)
    n = c_pos.shape[0]
    w = rng.standard_normal((n_grid, n))
    denom = np.einsum("ij,jk,ik->i", w, c_pos + c_neg, w)
    num = np.einsum("ij,jk,ik->i", w, c_pos, w)
    return float(np.max(num / denom))


class TestTrialCovariance:
    def test_single_active_channel(self):
        x = np.vstack([[1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(normalized_covariance(x), [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-15)

    def test_trace_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = normalized_covariance(random_trial(5, 100, rng))
            assert np.trace(c) == pytest.approx(1.0, abs=1e-12)

    def test_identical_rows(self):
        row = np.array([1.0, -1.0, 1.0, -1.0])
        np.testing.assert_allclose(normalized_covariance(np.vstack([row, row])),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_degenerate_trial(self):
        # The decoder refuses a zero-variance train trial, named by its index in the stack.
        rng = np.random.default_rng(4)
        scatters = np.stack([trial_scatter(random_trial(4, 50, rng)) for _ in range(12)])
        scatters[5] = trial_scatter(np.zeros((4, 50)))
        labels = np.arange(12) % 4 + 1
        with pytest.raises(ValueError, match="degenerate trial 5: zero total variance"):
            fit_decoder(scatters, labels, 50, RunConfig(n_pairs=1))
        # Outside the train rows it is neither refused nor featurised by the fit: only
        # its prediction clamps its features, with one warning for the four classes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_decoder(scatters, labels, 50, RunConfig(n_pairs=1),
                                train=np.arange(12) != 5)
        with pytest.warns(RuntimeWarning, match="clamped") as record:
            predict(model, scatters[5], 50)
        assert len(record) == 1

    def test_mean_centering(self):
        # A constant offset must not change the covariance.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 50))
        a = normalized_covariance(x)
        b = normalized_covariance(x + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_centred_in_out_bit_for_bit(self):
        # float32 trials, as the evaluate path crops them, are centred in float64.
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = (50.0 * rng.standard_normal((4, 120)) + 7.0).astype(np.float32)
            reference = np.asarray(x, dtype=np.float64)
            reference = reference - reference.mean(axis=1, keepdims=True)
            np.testing.assert_array_equal(unpack(trial_scatter(x)), reference @ reference.T)

    @pytest.mark.parametrize("n_samples", [250, 4000])
    def test_unpacked_row_is_the_full_scatter_bit_for_bit(self, n_samples):
        # float32 windows of 64 channels: 250 samples as at 250 Hz, 4,000 as at 1 kHz.
        rng = np.random.default_rng(n_samples)
        gains = rng.uniform(0.1, 80.0, (64, 1)).astype(np.float32)
        for _ in range(3):
            x = gains * rng.standard_normal((64, n_samples), dtype=np.float32) + np.float32(3)
            xc = np.asarray(x, dtype=np.float64)
            xc = xc - xc.mean(axis=1, keepdims=True)
            np.testing.assert_array_equal(unpack(trial_scatter(x)), xc @ xc.T)


class TestClassMeanCovariance:
    def test_single_trial(self):
        rng = np.random.default_rng(2)
        t = random_trial(4, 100, rng)
        s = unpack(trial_scatter(t))
        np.testing.assert_allclose(normalized_covariance(t), s / np.trace(s), atol=1e-15)

    def test_arithmetic_mean(self):
        t1 = np.vstack([[1.0, -1.0, 1.0, -1.0], np.zeros(4)])
        t2 = np.vstack([np.zeros(4), [1.0, -1.0, 1.0, -1.0]])
        np.testing.assert_allclose(normalized_covariance(t1, t2),
                                   [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_mean_retains_unit_trace(self):
        rng = np.random.default_rng(3)
        trials = [random_trial(6, 80, rng) for _ in range(7)]
        assert np.trace(normalized_covariance(*trials)) == pytest.approx(1.0, abs=1e-9)


class TestFitCsp:
    def test_equal_covariances_give_half_eigenvalues(self):
        rng = np.random.default_rng(4)
        c = random_spd(6, rng)
        model = fit_csp_matrices(c, c.copy(), n_pairs=2)
        np.testing.assert_allclose(model.eigenvalues, 0.5, atol=1e-9)

    def test_analytic_2x2(self):
        c_pos = np.array([[2.0, 0.0], [0.0, 1.0]]) / 3.0
        c_neg = np.array([[1.0, 0.0], [0.0, 2.0]]) / 3.0
        model = fit_csp_matrices(c_pos, c_neg, n_pairs=1)
        np.testing.assert_allclose(model.eigenvalues, [2.0 / 3.0, 1.0 / 3.0], atol=1e-8)
        # First filter spans axis 0 (the high-variance axis of c_pos), last spans axis 1.
        assert abs(model.w[0, 0]) > 100 * abs(model.w[1, 0])
        assert abs(model.w[1, 1]) > 100 * abs(model.w[0, 1])
        composite = c_pos + c_neg
        for j in range(2):
            assert model.w[:, j] @ composite @ model.w[:, j] == pytest.approx(1.0, abs=1e-8)

    def test_whitening_identity_and_complementarity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c_pos, c_neg = random_spd(8, rng), random_spd(8, rng)
            model = fit_csp_matrices(c_pos, c_neg, n_pairs=3)
            composite = c_pos + c_neg + 1e-9 * np.eye(8)
            np.testing.assert_allclose(model.w.T @ composite @ model.w, np.eye(8), atol=1e-8)
            # Whitened other-class spectrum is (1 - eigenvalues) reversed (ridge-free fit).
            m0 = fit_csp_matrices(c_pos, c_neg, n_pairs=3, ridge=0.0)
            m1 = fit_csp_matrices(c_neg, c_pos, n_pairs=3, ridge=0.0)
            np.testing.assert_allclose(m1.eigenvalues, (1.0 - m0.eigenvalues)[::-1], atol=1e-8)

    def test_eigenvalues_sorted_descending_in_unit_interval(self):
        rng = np.random.default_rng(6)
        model = fit_csp_matrices(random_spd(10, rng), random_spd(10, rng), n_pairs=2)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues >= 0) and np.all(model.eigenvalues <= 1)

    def test_brute_force_oracle_small_channels(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            c_pos, c_neg = random_spd(n, rng), random_spd(n, rng)
            model = fit_csp_matrices(c_pos, c_neg, n_pairs=1, ridge=0.0)
            brute = brute_force_top_eigenvalue(c_pos, c_neg)
            assert model.eigenvalues[0] == pytest.approx(brute, abs=1e-3)

    def test_spectrum_invariant_under_channel_mixing(self):
        rng = np.random.default_rng(8)
        n = 6
        c_pos, c_neg = random_spd(n, rng), random_spd(n, rng)
        mix = rng.standard_normal((n, n)) + 0.5 * np.eye(n)  # nonsingular
        cp2, cn2 = mix @ c_pos @ mix.T, mix @ c_neg @ mix.T
        base = fit_csp_matrices(c_pos, c_neg, n_pairs=2, ridge=0.0)
        mixed = fit_csp_matrices(0.5 * (cp2 + cp2.T), 0.5 * (cn2 + cn2.T),
                                 n_pairs=2, ridge=0.0)
        np.testing.assert_allclose(mixed.eigenvalues, base.eigenvalues, atol=1e-8)

    def test_rank_deficient_composite(self):
        c = np.zeros((4, 4))
        c[0, 0] = 1.0
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_csp_matrices(c, c, n_pairs=1, ridge=0.0)

    def test_selected_indices(self):
        rng = np.random.default_rng(9)
        model = fit_csp_matrices(random_spd(8, rng), random_spd(8, rng), n_pairs=3)
        assert model.selected == (0, 1, 2, 5, 6, 7)

    def test_n_pairs_bounds(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="n_pairs"):
            fit_csp_matrices(random_spd(4, rng), random_spd(4, rng), n_pairs=3)

    def test_deterministic_fit(self):
        rng = np.random.default_rng(11)
        c_pos, c_neg = random_spd(8, rng), random_spd(8, rng)
        a = fit_csp_matrices(c_pos, c_neg, n_pairs=3)
        b = fit_csp_matrices(c_pos.copy(), c_neg.copy(), n_pairs=3)
        np.testing.assert_array_equal(a.w, b.w)

    def test_sign_rule_equals_the_column_loop(self):
        def loop(w):  # the rule as a loop over the filters
            for j in range(w.shape[1]):
                k = int(np.argmax(np.abs(w[:, j])))
                if w[k, j] < 0:
                    w[:, j] = -w[:, j]
            return w

        rng, cols, ties = np.random.default_rng(12), np.arange(16), 0
        for _ in range(2000):
            w = rng.standard_normal((16, 16))
            # Columns whose largest magnitude is held by two entries of either sign, and
            # a column of zeros, of -0.0 or of a mix of both.
            for j in rng.choice(16, size=6, replace=False):
                a, b = rng.choice(16, size=2, replace=False)
                w[[a, b], j] = rng.choice([-1.0, 1.0], size=2) * (np.abs(w[:, j]).max() + 1.0)
            w[:, rng.integers(16)] = rng.choice([0.0, -0.0], size=16)
            first, last = np.argmax(np.abs(w), axis=0), 15 - np.argmax(np.abs(w[::-1]), axis=0)
            ties += int(np.sum(np.sign(w[first, cols]) != np.sign(w[last, cols])))
            expected = loop(w.copy())
            got = _canonical_signs(w)
            assert got is w
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert ties > 1000  # columns where the first of the tied entries decides


class TestCspFeatures:
    def _model(self, n=4, n_pairs=1, seed=12):
        rng = np.random.default_rng(seed)
        return fit_csp_matrices(random_spd(n, rng), random_spd(n, rng), n_pairs=n_pairs)

    def test_unit_variance_projection_gives_zero(self):
        # Identity filters on channels with exactly unit variance: log 1 = 0.
        model = CspModel(np.eye(2), np.array([0.5, 0.5]), (0, 1))
        x = np.tile([1.0, -1.0], 50).reshape(1, -1)
        feats = features(model, np.vstack([x, x]))
        np.testing.assert_allclose(feats, 0.0, atol=1e-12)

    def test_scaling_shifts_features_additively(self):
        model = self._model()
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 500))
        base = features(model, x)
        scaled = features(model, 10.0 * x)
        np.testing.assert_allclose(scaled - base, 2.0 * np.log(10.0), atol=1e-9)

    def test_feature_length_is_twice_n_pairs(self):
        model = self._model(n=8, n_pairs=3)
        rng = np.random.default_rng(15)
        feats = features(model, random_trial(8, 100, rng))
        assert feats.shape == (6,)

    def test_zero_variance_clamped_with_warning(self):
        model = self._model()
        with pytest.warns(RuntimeWarning, match="clamped"):
            # Channel-constant trial: centered projections all have zero variance.
            feats = features(model, np.outer([1.0, 2.0, 3.0, 4.0], np.ones(100)))
        assert np.all(np.isfinite(feats))

    def test_channel_mismatch(self):
        model = self._model()
        rng = np.random.default_rng(16)
        lda_model = LdaModel(np.zeros(2), 0.0, 0.0)
        decoder = DecoderModel({c: (model, lda_model) for c in (1, 2, 3, 4)}, "plain",
                               feature_projector([model] * 4))
        with pytest.raises(ValueError, match="channels"):
            predict(decoder, trial_scatter(random_trial(6, 100, rng)), 100)

    def test_normalized_mode_sums_to_known_total(self):
        model = self._model(n=8, n_pairs=3)
        rng = np.random.default_rng(17)
        t = random_trial(8, 300, rng)
        feats = features(model, t, mode="normalized")
        assert np.sum(np.exp(feats)) == pytest.approx(1.0, abs=1e-9)


#: Largest |difference| allowed between log-variance features that sum their product in
#: other orders: rows of a stack and single rows, or the product and an unpacked reference.
#: At most 4.4e-16 was measured in ``TestBatchedFeatures``.
FEATURE_BOUND = 1e-14


class TestBatchedFeatures:
    def _model(self, n=8, n_pairs=3, seed=18):
        rng = np.random.default_rng(seed)
        return fit_csp_matrices(random_spd(n, rng), random_spd(n, rng), n_pairs=n_pairs)

    def _trials(self, n_trials=5, n_channels=8, n_samples=200, seed=19):
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.5, 3.0, (n_trials, n_channels, 1))
        return list(gains * rng.standard_normal((n_trials, n_channels, n_samples)))

    def test_stack_matches_log_variance_of_projections(self):
        model = self._model()
        trials = self._trials()
        w_sel = model.w[:, list(model.selected)]
        stack = np.stack([trial_scatter(x) for x in trials])
        feats = features_from_scatter(feature_projector([model]), stack, 200, "plain")[0]
        reference = np.stack([np.log(np.var(w_sel.T @ x, axis=1)) for x in trials])
        np.testing.assert_allclose(feats, reference, rtol=1e-12, atol=0)

    def test_rows_equal_single_scatter_calls(self):
        model = self._model()
        trials = self._trials()
        stack = np.stack([trial_scatter(x) for x in trials])
        feats = features_from_scatter(feature_projector([model]), stack, 200, "plain")[0]
        for row, x in zip(feats, trials):
            np.testing.assert_allclose(row, features(model, x), rtol=0, atol=FEATURE_BOUND)

    def test_projection_equals_the_out_of_place_product_bit_for_bit(self):
        model = self._model()
        stack = np.stack([trial_scatter(x) for x in self._trials()])
        w_sel = model.w[:, list(model.selected)]
        reference = np.log(np.sum((unpack(stack) @ w_sel) * w_sel, axis=-2) / 200)
        feats = features_from_scatter(feature_projector([model]), stack, 200, "plain")[0]
        np.testing.assert_allclose(feats, reference, rtol=0, atol=FEATURE_BOUND)

    @pytest.mark.parametrize("mode", ["plain", "normalized"])
    def test_models_sharing_the_unpacked_rows_equal_each_model_alone(self, mode):
        models = [self._model(seed=s) for s in (18, 20, 21)]
        stack = np.stack([trial_scatter(x) for x in self._trials(n_trials=70)])
        rows = np.arange(1, 70, 2)
        together = features_from_scatter(feature_projector(models), stack, 200, mode, rows)
        assert together.shape == (3, len(rows), 6)
        for model, feats in zip(models, together):
            alone = features_from_scatter(feature_projector([model]), stack[rows], 200, mode)[0]
            np.testing.assert_allclose(feats, alone, rtol=0, atol=FEATURE_BOUND)

    def test_single_packed_row_refused(self):
        with pytest.raises(ValueError, match=r"\(n, C\(C\+1\)/2\) stack, not of shape \(36,\)"):
            features_from_scatter(feature_projector([self._model()]), np.zeros(36), 200, "plain")

    def test_a_row_length_no_channel_count_has_refused(self):
        with pytest.raises(ValueError, match=r"C\(C\+1\)/2 values a row, not 7"):
            features_from_scatter(feature_projector([self._model()]), np.zeros((3, 7)), 200,
                                  "plain")

    def test_stack_shape(self):
        model = self._model(n_pairs=2)
        stack = np.stack([trial_scatter(x) for x in self._trials(n_trials=3)])
        feats = features_from_scatter(feature_projector([model]), stack, 200, "plain")[0]
        assert feats.shape == (3, 4)

    def test_constant_trial_in_stack_clamped_with_warning(self):
        model = self._model()
        trials = self._trials(n_trials=3)
        trials[1] = np.outer(np.arange(1.0, 9.0), np.ones(200))
        stack = np.stack([trial_scatter(x) for x in trials])
        with pytest.warns(RuntimeWarning, match="clamped"):
            feats = features_from_scatter(feature_projector([model]), stack, 200, "plain")[0]
        assert np.all(np.isfinite(feats))

    def test_normalized_rows_sum_to_one(self):
        model = self._model()
        stack = np.stack([trial_scatter(x) for x in self._trials()])
        feats = features_from_scatter(feature_projector([model]), stack, 200, "normalized")[0]
        np.testing.assert_allclose(np.sum(np.exp(feats), axis=1), 1.0, atol=1e-9)
