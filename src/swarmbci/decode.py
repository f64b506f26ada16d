"""Shrinkage LDA and the one-vs-rest 4-class command decoder.

Each command gets its own (CSP, LDA) pair fit on class-vs-rest; at
decision time the four raw discriminant scores are compared directly
and the argmax wins (ties break to the smallest event code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from swarmbci.csp import (
    CspModel,
    features_from_scatter,
    fit_csp_matrices,
    trial_scatter,
    _mean_normalized,
)
from swarmbci.dsp import FilterSpec
from swarmbci.recording import EVENT_CODES, Trial, TrialSet


@dataclass(frozen=True)
class LdaModel:
    """Binary linear discriminant: score(x) = weights . x + bias."""

    weights: np.ndarray
    bias: float
    shrinkage: float

    def score(self, features: np.ndarray) -> float:
        return float(np.dot(self.weights, features) + self.bias)


@dataclass(frozen=True)
class DecoderModel:
    """One-vs-rest composition of four (CspModel, LdaModel) pairs."""

    per_class: dict[int, tuple[CspModel, LdaModel]]
    n_pairs: int
    filter_spec: FilterSpec | None
    config_fingerprint: str
    log_variance_mode: str = "plain"

    def __post_init__(self):
        if sorted(self.per_class) != list(EVENT_CODES):
            raise ValueError(f"decoder must cover classes {EVENT_CODES}")


def fit_lda(pos: np.ndarray, neg: np.ndarray, shrinkage: float = 0.05) -> LdaModel:
    """Fit a binary LDA from positive/negative feature vectors.

    Pooled covariance is the total within-class scatter divided by the
    total sample count (invariant under duplicating the data), shrunk
    toward a scaled identity: (1 - s) Sigma + s (trace(Sigma)/d) I.
    The bias places the boundary at the class-mean midpoint plus the
    log prior ratio log(n+/n-).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    neg = np.atleast_2d(np.asarray(neg, dtype=np.float64))
    if pos.shape[1] != neg.shape[1]:
        raise ValueError("positive and negative features must share dimension")
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    if n_pos < 2 or n_neg < 2:
        raise ValueError("need at least 2 samples per class")
    if not (0.0 <= shrinkage <= 1.0):
        raise ValueError("shrinkage must be in [0, 1]")

    d = pos.shape[1]
    mu_pos = pos.mean(axis=0)
    mu_neg = neg.mean(axis=0)
    pos_c = pos - mu_pos
    neg_c = neg - mu_neg
    sigma = (pos_c.T @ pos_c + neg_c.T @ neg_c) / (n_pos + n_neg)
    sigma = (1.0 - shrinkage) * sigma + shrinkage * (np.trace(sigma) / d) * np.eye(d)

    try:
        factor = cho_factor(sigma, lower=True)
        weights = cho_solve(factor, mu_pos - mu_neg)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular pooled covariance; increase shrinkage above 0"
        ) from exc
    if not np.all(np.isfinite(weights)):
        raise ValueError("singular pooled covariance; increase shrinkage above 0")

    bias = float(-weights @ (mu_pos + mu_neg) / 2.0 + np.log(n_pos / n_neg))
    return LdaModel(weights, bias, shrinkage)


def _fit_decoder_from_scatters(scatters: np.ndarray, n_samples: int, labels: np.ndarray,
                               n_pairs: int, shrinkage: float, mode: str,
                               filter_spec: FilterSpec | None,
                               fingerprint: str) -> DecoderModel:
    """Fit the OVR decoder from precomputed per-trial scatter matrices."""
    labels = np.asarray(labels)
    per_class = {}
    for code in EVENT_CODES:
        pos_mask = labels == code
        if int(pos_mask.sum()) < 2:
            raise ValueError(f"class {code} needs at least 2 training trials")
        c_pos = _mean_normalized(scatters[pos_mask])
        c_neg = _mean_normalized(scatters[~pos_mask])
        csp_model = fit_csp_matrices(c_pos, c_neg, n_pairs=n_pairs)
        feats = np.stack([
            features_from_scatter(csp_model, s, n_samples, mode) for s in scatters
        ])
        lda_model = fit_lda(feats[pos_mask], feats[~pos_mask], shrinkage=shrinkage)
        per_class[code] = (csp_model, lda_model)
    return DecoderModel(per_class, n_pairs, filter_spec, fingerprint, mode)


def fit_decoder(train: TrialSet, n_pairs: int = 3, shrinkage: float = 0.05,
                log_variance_mode: str = "plain",
                filter_spec: FilterSpec | None = None,
                config_fingerprint: str = "") -> DecoderModel:
    """Fit four class-vs-rest (CSP, LDA) pairs on a training TrialSet."""
    if len(train) == 0:
        raise ValueError("cannot fit a decoder on an empty TrialSet")
    labels = np.asarray(train.labels)
    scatters = np.stack([trial_scatter(t.samples) for t in train.trials])
    return _fit_decoder_from_scatters(
        scatters, train.trials[0].n_samples, labels, n_pairs, shrinkage,
        log_variance_mode, filter_spec, config_fingerprint,
    )


def _predict_from_scatter(model: DecoderModel, scatter: np.ndarray,
                          n_samples: int) -> tuple[int, dict[int, float]]:
    scores = {}
    for code in EVENT_CODES:
        csp_model, lda_model = model.per_class[code]
        feats = features_from_scatter(csp_model, scatter, n_samples,
                                      model.log_variance_mode)
        scores[code] = lda_model.score(feats)
    best = max(EVENT_CODES, key=lambda c: (scores[c], -c))
    return best, scores


def predict(model: DecoderModel, trial: Trial) -> tuple[int, dict[int, float]]:
    """Decode one trial: argmax of the four OVR scores, ties to the smallest code."""
    first_csp = model.per_class[1][0]
    if trial.n_channels != first_csp.n_channels:
        raise ValueError(
            f"trial has {trial.n_channels} channels, decoder expects {first_csp.n_channels}"
        )
    return _predict_from_scatter(model, trial_scatter(trial.samples), trial.n_samples)
