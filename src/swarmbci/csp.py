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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Floor applied to projection variances before the log.
VARIANCE_FLOOR = 1e-300
_BLOCK_ROWS = 16  # packed rows unpacked at a time, into one reused (B, C, C) buffer


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
    diagonals = packed[np.ix_(rows, _triangle(_packed_channels(packed))[2])]
    return np.array([d.sum() for d in diagonals])


def unpacked(packed: np.ndarray, rows: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The (b, C, C) matrices of the packed ``rows`` (all if None), ``_BLOCK_ROWS`` at a time.

    Every block is unpacked into one buffer, which the next block overwrites.
    """
    n_ch = _packed_channels(packed)
    rows = np.arange(len(packed)) if rows is None else rows
    full = np.empty((min(len(rows), _BLOCK_ROWS), n_ch * n_ch))
    for start in range(0, len(rows), _BLOCK_ROWS):
        # mode="clip": under the default "raise", NumPy takes into a temporary copy of out.
        block = np.take(packed[rows[start:start + _BLOCK_ROWS]], _triangle(n_ch)[1], axis=1,
                        out=full[:len(rows) - start], mode="clip")
        yield block.reshape(-1, n_ch, n_ch)


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


def features_from_scatter(models: Sequence[CspModel], scatters: np.ndarray, n_samples: int,
                          mode: str, rows: np.ndarray | None = None) -> np.ndarray:
    """Log-variance features of each model from an (n, C(C+1)/2) stack of packed scatters.

    Rows are packed as by ``trial_scatter``; only the stack rows ``rows`` (all if None) are
    unpacked, once for all models (see ``unpacked``).
    var(w^T X) == w^T (Xc Xc^T / T) w, so features only need the scatter. Returns
    ``2 * n_pairs`` features per model and row, of shape (models, rows, 2 n_pairs).
    ``mode`` "plain" takes log of raw variances; "normalized" divides by the sum of the
    selected variances first.
    """
    w = np.stack([m.w[:, list(m.selected)] for m in models])[:, None]  # (model, 1, C, 2 n_pairs)
    # Each block's projection p is multiplied in place: no second temporary of its size.
    variances = np.concatenate([np.sum(np.multiply(p := b @ w, w, out=p), axis=-2) / n_samples
                                for b in unpacked(scatters, rows)], axis=1)
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("zero-variance CSP projection clamped", RuntimeWarning, stacklevel=2)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances, axis=-1, keepdims=True)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    elif mode != "plain":
        raise ValueError(f"unknown log-variance mode {mode!r}")
    return np.log(variances)
