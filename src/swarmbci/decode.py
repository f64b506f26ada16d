"""Shrinkage LDA and the one-vs-rest 4-class command decoder.

Each command gets its own (CSP, LDA) pair fit on class-vs-rest; at
decision time the four raw discriminant scores are compared directly
and the argmax wins (ties break to the smallest event code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from swarmbci.config import RunConfig
from swarmbci.csp import CspModel, _mean_normalized, features_from_scatter, fit_csp_matrices
from swarmbci.recording import EVENT_CODES


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
    log_variance_mode: str

    def __post_init__(self):
        if sorted(self.per_class) != list(EVENT_CODES):
            raise ValueError(f"decoder must cover classes {EVENT_CODES}")


def fit_lda(pos: np.ndarray, neg: np.ndarray, shrinkage: float) -> LdaModel:
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


def fit_decoder(scatters: np.ndarray, labels: np.ndarray, n_samples: int,
                config: RunConfig) -> DecoderModel:
    """Fit four class-vs-rest (CSP, LDA) pairs from stacked (n, C, C) trial scatters.

    ``n_samples`` is the trial length the scatters were summed over;
    ``config`` supplies ``n_pairs``, ``shrinkage`` and ``log_variance_mode``.
    """
    labels = np.asarray(labels)
    per_class = {}
    for code in EVENT_CODES:
        pos_mask = labels == code
        if int(pos_mask.sum()) < 2:
            raise ValueError(f"class {code} needs at least 2 training trials")
        csp_model = fit_csp_matrices(_mean_normalized(scatters[pos_mask]),
                                     _mean_normalized(scatters[~pos_mask]), config.n_pairs)
        feats = features_from_scatter(csp_model, scatters, n_samples, config.log_variance_mode)
        lda_model = fit_lda(feats[pos_mask], feats[~pos_mask], config.shrinkage)
        per_class[code] = (csp_model, lda_model)
    return DecoderModel(per_class, config.log_variance_mode)


def predict(model: DecoderModel, scatter: np.ndarray,
            n_samples: int) -> tuple[int, dict[int, float]]:
    """Decode one trial from its (C, C) scatter: argmax of the four OVR scores.

    Ties break to the smallest event code.
    """
    n_channels = model.per_class[1][0].n_channels
    if np.shape(scatter) != (n_channels, n_channels):
        raise ValueError(
            f"scatter of shape {np.shape(scatter)} does not fit a decoder of {n_channels} channels"
        )
    scores = {}
    for code in EVENT_CODES:
        csp_model, lda_model = model.per_class[code]
        feats = features_from_scatter(csp_model, scatter, n_samples, model.log_variance_mode)
        scores[code] = lda_model.score(feats)
    best = max(EVENT_CODES, key=lambda c: (scores[c], -c))
    return best, scores
