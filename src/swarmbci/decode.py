"""Shrinkage LDA and the one-vs-rest 4-class command decoder.

Each command gets its own (CSP, LDA) pair fit on class-vs-rest; at
decision time the four raw discriminant scores are compared directly
and the argmax wins (ties break to the smallest event code).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from swarmbci.config import RunConfig
from swarmbci.csp import (
    CspModel,
    _packed_channels,
    _triangle,
    feature_projector,
    features_from_scatter,
    fit_csp_matrices,
    packed_traces,
)
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
    projector: np.ndarray = field(repr=False)  # the 4 CSP models' feature_projector, in class order

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
        np.linalg.cholesky(sigma)  # raises, as a solve need not, if sigma is not positive definite
        weights = np.linalg.solve(sigma, mu_pos - mu_neg)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular pooled covariance; increase shrinkage above 0"
        ) from exc
    if not np.all(np.isfinite(weights)):
        raise ValueError("singular pooled covariance; increase shrinkage above 0")

    bias = float(-weights @ (mu_pos + mu_neg) / 2.0 + np.log(n_pos / n_neg))
    return LdaModel(weights, bias, shrinkage)


def _first_non_finite_row(scatters: np.ndarray) -> int | None:
    """The first row of ``scatters`` that holds a NaN or an infinity, or None.

    A column sum is finite only if each of its values is, so one pass over the stack
    clears it; the rows are scanned only if a sum is not finite, as a column of finite
    values may also overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        if np.all(np.isfinite(np.add.reduce(scatters, axis=0))):
            return None
    # Row extremes, not an (n, C(C+1)/2) mask: a NaN reaches both, an infinity one of them.
    finite = np.isfinite(scatters.min(axis=1)) & np.isfinite(scatters.max(axis=1))
    return None if finite.all() else int(np.argmin(finite))


def fit_decoder(scatters: np.ndarray, labels: np.ndarray, n_samples: int,
                config: RunConfig, train: np.ndarray | None = None) -> DecoderModel:
    """Fit four class-vs-rest (CSP, LDA) pairs from an (n, C(C+1)/2) stack of packed scatters.

    Rows are packed in ``np.triu_indices(C)`` order (see ``csp.trial_scatter``). ``train``
    masks the rows to fit on (all if None); none is copied or unpacked. The 8 trace-normalised
    class sums are one product of an (8, n) weight matrix with the stack, and the features
    one product of the stack with a projector (see ``csp.features_from_scatter``). Held-out
    rows weigh 0 in both; as 0 * NaN is NaN, a non-finite value in any row is refused.
    ``n_samples`` is the trial length the scatters were summed over;
    ``config`` supplies ``n_pairs``, ``shrinkage`` and ``log_variance_mode``.
    """
    labels, n = np.asarray(labels), len(scatters)
    train = np.ones(n, dtype=bool) if train is None else np.asarray(train)
    if train.dtype != bool or train.shape != (n,):
        raise ValueError(f"train must be a boolean mask of length {n}, got {train.dtype} "
                         f"of shape {train.shape}")
    n_ch = _packed_channels(scatters)
    if (row := _first_non_finite_row(scatters)) is not None:
        raise ValueError(f"scatter row {row} holds a non-finite value")
    rows = np.flatnonzero(train)
    traces = packed_traces(scatters, rows)
    if np.any(degenerate := traces <= 0):
        raise ValueError(f"degenerate trial {rows[np.argmax(degenerate)]}: zero total variance")
    is_pos = labels[rows, None] == np.array(EVENT_CODES)  # (train row, class)
    # 1/trace at each train row's 4 target sums: row 2c sums the rest of class c, 2c + 1 class c.
    weights = np.zeros((len(EVENT_CODES) * 2, n))
    weights[2 * np.arange(len(EVENT_CODES)) + is_pos, rows[:, None]] = 1 / traces[:, None]
    sums = np.take(weights @ scatters, _triangle(n_ch)[1], axis=1).reshape(-1, n_ch, n_ch)
    if np.any(few := is_pos.sum(axis=0) < 2):
        raise ValueError(f"class {EVENT_CODES[np.argmax(few)]} needs at least 2 training trials")
    csp_models = [fit_csp_matrices(sums[2 * c + 1] / pos.sum(), sums[2 * c] / (~pos).sum(),
                                   config.n_pairs) for c, pos in enumerate(is_pos.T)]
    projector = feature_projector(csp_models)
    feats = features_from_scatter(projector, scatters, n_samples, config.log_variance_mode, rows)
    per_class = {code: (csp_model, fit_lda(f[pos], f[~pos], config.shrinkage))
                 for code, csp_model, f, pos in zip(EVENT_CODES, csp_models, feats, is_pos.T)}
    return DecoderModel(per_class, config.log_variance_mode, projector)


def predict(model: DecoderModel, scatter: np.ndarray,
            n_samples: int) -> tuple[int, dict[int, float]]:
    """Decode one trial from its packed scatter: argmax of the four OVR scores.

    The scatter's C(C+1)/2 values are in ``np.triu_indices(C)`` order (see
    ``csp.trial_scatter``). Ties break to the smallest event code.
    """
    n_channels = model.per_class[1][0].n_channels
    if np.shape(scatter) != (n_values := n_channels * (n_channels + 1) // 2,):
        raise ValueError(f"scatter of shape {np.shape(scatter)} does not fit a decoder of "
                         f"{n_channels} channels, which takes packed rows of length {n_values}")
    feats = features_from_scatter(model.projector, np.asarray(scatter)[None], n_samples,
                                  model.log_variance_mode)[:, 0]
    scores = {code: model.per_class[code][1].score(f) for code, f in zip(EVENT_CODES, feats)}
    best = max(EVENT_CODES, key=lambda c: (scores[c], -c))
    return best, scores
