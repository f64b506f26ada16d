"""Common spatial patterns for one binary (class-vs-rest) subproblem.

Spatial filters solve C+ w = lambda (C+ + C- + ridge I) w through
whitening: eigendecompose the composite covariance, whiten, then
eigendecompose the whitened C+. Filter columns are scaled so
W^T (composite) W = I and sorted by descending eigenvalue; features are
log variances of the projections onto the first and last ``n_pairs``
filters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from swarmbci.recording import Trial

#: Floor applied to projection variances before the log.
VARIANCE_FLOOR = 1e-300


@dataclass(frozen=True)
class ClassCovariance:
    """Trace-normalized mean covariance of one class's trials."""

    matrix: np.ndarray
    n_trials: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if abs(np.trace(m) - 1.0) > 1e-9:
            raise ValueError("class covariance must be trace-normalized to 1")
        if np.linalg.eigvalsh(m)[0] < -1e-10:
            raise ValueError("class covariance must be positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CspModel:
    """Fitted spatial filters for one binary subproblem.

    Columns of ``w`` are filters sorted by descending eigenvalue;
    ``selected`` indexes the columns used for features (first and last
    ``n_pairs``).
    """

    w: np.ndarray
    eigenvalues: np.ndarray
    selected: tuple[int, ...]

    @property
    def n_channels(self) -> int:
        return self.w.shape[0]

    @property
    def n_pairs(self) -> int:
        return len(self.selected) // 2


def _center(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean(axis=1, keepdims=True)


def trial_scatter(samples: np.ndarray) -> np.ndarray:
    """Channel-mean-centered scatter matrix Xc Xc^T of one trial."""
    xc = _center(samples)
    return xc @ xc.T


def trial_covariance(trial: Trial) -> np.ndarray:
    """Trace-normalized covariance C = Xc Xc^T / trace(Xc Xc^T)."""
    if trial.n_samples < 2:
        raise ValueError("trial must have at least 2 samples")
    s = trial_scatter(trial.samples)
    tr = np.trace(s)
    if tr <= 0:
        raise ValueError("degenerate trial: zero total variance")
    return s / tr


def class_mean_covariance(trials: list[Trial]) -> ClassCovariance:
    """Arithmetic mean of per-trial trace-normalized covariances."""
    if not trials:
        raise ValueError("cannot average covariances of an empty trial list")
    acc = trial_covariance(trials[0])
    for t in trials[1:]:
        acc = acc + trial_covariance(t)
    return ClassCovariance(acc / len(trials), len(trials))


def _mean_normalized(scatters: np.ndarray) -> np.ndarray:
    """Mean of trace-normalized scatter matrices (stacked n x C x C)."""
    traces = np.trace(scatters, axis1=1, axis2=2)
    if np.any(traces <= 0):
        raise ValueError("degenerate trial: zero total variance")
    return np.mean(scatters / traces[:, None, None], axis=0)


def fit_csp_matrices(c_pos: np.ndarray, c_neg: np.ndarray,
                     n_pairs: int = 3, ridge: float = 1e-9) -> CspModel:
    """Fit CSP from two class covariance matrices."""
    c_pos = np.asarray(c_pos, dtype=np.float64)
    c_neg = np.asarray(c_neg, dtype=np.float64)
    if c_pos.shape != c_neg.shape or c_pos.ndim != 2:
        raise ValueError("covariance matrices must be square and same shape")
    n_ch = c_pos.shape[0]
    if not (1 <= n_pairs <= n_ch // 2):
        raise ValueError(f"n_pairs must be in [1, {n_ch // 2}] for {n_ch} channels")

    composite = c_pos + c_neg + ridge * np.eye(n_ch)
    d, u = np.linalg.eigh(composite)
    if d[0] <= 0:
        raise ValueError("rank-deficient covariance: composite not positive definite")
    whitener = u @ np.diag(1.0 / np.sqrt(d)) @ u.T

    s_pos = whitener @ c_pos @ whitener
    s_pos = 0.5 * (s_pos + s_pos.T)
    lam, v = np.linalg.eigh(s_pos)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, 1.0)
    w = whitener @ v[:, order]

    # Canonicalize signs: largest-magnitude component of each filter positive.
    for j in range(n_ch):
        k = int(np.argmax(np.abs(w[:, j])))
        if w[k, j] < 0:
            w[:, j] = -w[:, j]

    selected = tuple(range(n_pairs)) + tuple(range(n_ch - n_pairs, n_ch))
    return CspModel(w, lam, selected)


def fit_csp(c_pos: ClassCovariance, c_neg: ClassCovariance,
            n_pairs: int = 3, ridge: float = 1e-9) -> CspModel:
    """Fit CSP from the two classes' mean covariances."""
    return fit_csp_matrices(c_pos.matrix, c_neg.matrix, n_pairs=n_pairs, ridge=ridge)


def features_from_scatter(model: CspModel, scatter: np.ndarray, n_samples: int,
                          mode: str = "plain") -> np.ndarray:
    """Log-variance features from a precomputed trial scatter matrix.

    var(w^T X) == w^T (Xc Xc^T / T) w, so features only need the scatter.
    ``mode`` "plain" takes log of raw variances; "normalized" divides by
    the sum of the selected variances first.
    """
    w_sel = model.w[:, list(model.selected)]
    variances = np.einsum("ij,jk,ki->i", w_sel.T, scatter / n_samples, w_sel)
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("zero-variance CSP projection clamped", RuntimeWarning, stacklevel=2)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    elif mode != "plain":
        raise ValueError(f"unknown log-variance mode {mode!r}")
    return np.log(variances)


def csp_features(model: CspModel, trial: Trial, mode: str = "plain") -> np.ndarray:
    """Log-variance feature vector (length 2 * n_pairs) for one trial."""
    if trial.n_channels != model.n_channels:
        raise ValueError(
            f"trial has {trial.n_channels} channels, model expects {model.n_channels}"
        )
    return features_from_scatter(model, trial_scatter(trial.samples), trial.n_samples, mode)
