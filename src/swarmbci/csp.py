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

#: Floor applied to projection variances before the log.
VARIANCE_FLOOR = 1e-300


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


def trial_scatter(samples: np.ndarray) -> np.ndarray:
    """Channel-mean-centered scatter matrix Xc Xc^T of one trial."""
    x = np.asarray(samples, dtype=np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    return xc @ xc.T


def _mean_normalized(scatters: np.ndarray) -> np.ndarray:
    """Mean of trace-normalized scatter matrices (stacked n x C x C)."""
    traces = np.trace(scatters, axis1=1, axis2=2)
    if np.any(traces <= 0):
        raise ValueError("degenerate trial: zero total variance")
    return np.mean(scatters / traces[:, None, None], axis=0)


def fit_csp_matrices(c_pos: np.ndarray, c_neg: np.ndarray,
                     n_pairs: int, ridge: float = 1e-9) -> CspModel:
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


def features_from_scatter(model: CspModel, scatter: np.ndarray, n_samples: int,
                          mode: str) -> np.ndarray:
    """Log-variance features from one (C, C) trial scatter or an (n, C, C) stack.

    var(w^T X) == w^T (Xc Xc^T / T) w, so features only need the scatter.
    Returns ``2 * n_pairs`` features per trial: shape (2 n_pairs,) for one
    scatter, (n, 2 n_pairs) for a stack. ``mode`` "plain" takes log of raw
    variances; "normalized" divides by the sum of the selected variances first.
    """
    w_sel = model.w[:, list(model.selected)]
    variances = np.sum((scatter @ w_sel) * w_sel, axis=-2) / n_samples
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("zero-variance CSP projection clamped", RuntimeWarning, stacklevel=2)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances, axis=-1, keepdims=True)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    elif mode != "plain":
        raise ValueError(f"unknown log-variance mode {mode!r}")
    return np.log(variances)
