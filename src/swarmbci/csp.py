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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache
def _triangle(n_ch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions of the C x C upper triangle; positions in a packed row of each matrix
    entry and of the diagonal."""
    upper = np.triu_indices(n_ch)
    index = np.zeros((n_ch, n_ch), dtype=np.intp)
    index[upper] = np.arange(len(upper[0]))
    return (np.ravel_multi_index(upper, index.shape), np.maximum(index, index.T).ravel(),
            index.diagonal())


def trial_scatter(samples: np.ndarray) -> np.ndarray:
    """Channel-mean-centered scatter Xc Xc^T of one trial, as its packed upper triangle.

    Xc Xc^T is exactly symmetric: its C(C+1)/2 values in ``np.triu_indices(C)`` order
    hold it all. The trial is centred in float64.
    """
    xc = np.array(samples, dtype=np.float64)
    xc -= xc.mean(axis=1, keepdims=True)
    return np.take(xc @ xc.T, _triangle(len(xc))[0])


def _packed_channels(packed: np.ndarray) -> int:
    if packed.ndim != 2:
        raise ValueError(f"packed scatters must be an (n, C(C+1)/2) stack, not of shape "
                         f"{packed.shape}")
    if (n_ch := int(np.sqrt(2 * packed.shape[1]))) * (n_ch + 1) // 2 != packed.shape[1]:
        raise ValueError(f"packed scatters have C(C+1)/2 values a row, not {packed.shape[1]}")
    return n_ch


def packed_traces(packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The trace of each packed row in ``rows``: its C diagonal values, summed as ``np.trace``
    sums a full matrix's diagonal (one 1-D sum a row), so the two agree bit for bit."""
    return packed[np.ix_(rows, _triangle(_packed_channels(packed))[2])].sum(axis=1)


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
    w = _canonical_signs(whitener @ v[:, order])
    selected = tuple(range(n_pairs)) + tuple(range(n_ch - n_pairs, n_ch))
    return CspModel(w, lam, selected)


def _canonical_signs(w: np.ndarray) -> np.ndarray:
    """``w`` with every column negated, in place, whose largest-magnitude entry (the first
    of equal ones) is negative."""
    k = np.argmax(np.abs(w), axis=0)
    return np.negative(w, out=w, where=w[k, np.arange(w.shape[1])] < 0)


def feature_projector(models: Sequence[CspModel]) -> np.ndarray:
    """The C-ordered (C(C+1)/2, models, 2 n_pairs) projector q: q[:, m, k] is w w^T of model
    m's k-th selected filter w, packed as ``trial_scatter`` packs S but with its off-diagonal
    entries doubled, so that packed S @ q[:, m, k] == w^T S w."""
    w = np.stack([m.w[:, list(m.selected)] for m in models], axis=1)  # (C, model, 2 n_pairs)
    i, j = np.triu_indices(len(w))
    return np.ascontiguousarray(w[i] * w[j] * np.where(i == j, 1.0, 2.0)[:, None, None])


def features_from_scatter(projector: np.ndarray, scatters: np.ndarray, n_samples: int,
                          mode: str, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Log-variance features of each model from an (n, C(C+1)/2) stack of packed scatters.

    ``projector`` is the models' ``feature_projector``; rows are packed as by
    ``trial_scatter``. var(w^T X) == w^T (Xc Xc^T / T) w, a dot product with the packed row,
    so one product over the whole stack gives every row's variances; ``rows`` (all by
    default) picks from its small result, so no row is copied or unpacked. Returns
    ``2 * n_pairs`` features per model and row, of shape (models, rows, 2 n_pairs).
    ``mode`` "plain" takes log of raw variances; "normalized" divides by the sum of the
    selected variances first.
    """
    _packed_channels(scatters)
    variances = (scatters @ projector.reshape(len(projector), -1))[rows] / n_samples
    variances = variances.reshape(len(variances), *projector.shape[1:]).swapaxes(0, 1)
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("zero-variance CSP projection clamped", RuntimeWarning, stacklevel=2)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances, axis=-1, keepdims=True)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    elif mode != "plain":
        raise ValueError(f"unknown log-variance mode {mode!r}")
    return np.log(variances)
