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
def _triangle(n_ch: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the C x C upper triangle, and of each matrix entry in a packed row."""
    upper = np.triu_indices(n_ch)
    index = np.zeros((n_ch, n_ch), dtype=np.intp)
    index[upper] = np.arange(len(upper[0]))
    return np.ravel_multi_index(upper, index.shape), np.maximum(index, index.T).ravel()


def trial_scatter(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Channel-mean-centered scatter Xc Xc^T of one trial, as its packed upper triangle.

    Xc Xc^T is exactly symmetric: its C(C+1)/2 values in ``np.triu_indices(C)`` order
    hold it all. The trial is centred in float64, in ``out`` if given (the trial's shape).
    """
    xc = np.empty(np.shape(samples)) if out is None else out
    np.copyto(xc, samples)
    xc -= xc.mean(axis=1, keepdims=True)
    return np.take(xc @ xc.T, _triangle(len(xc))[0])


def _packed_channels(packed: np.ndarray) -> int:
    if (n_ch := int(np.sqrt(2 * packed.shape[1]))) * (n_ch + 1) // 2 != packed.shape[1]:
        raise ValueError(f"packed scatters have C(C+1)/2 values a row, not {packed.shape[1]}")
    return n_ch


def unpack_buffer(packed: np.ndarray, n_rows: int) -> np.ndarray:
    """A buffer in which ``unpacked`` unpacks ``n_rows`` rows of ``packed``, block by block.

    Passes over one stack can share it. A buffer allocated per pass was mapped and
    faulted in afresh each time (512 KB at 64 channels).
    """
    n_ch = _packed_channels(packed)
    return np.empty((min(n_rows, _BLOCK_ROWS), n_ch * n_ch))


def unpacked(packed: np.ndarray, rows: np.ndarray | None = None,
             out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The (b, C, C) matrices of the packed ``rows`` (all if None), in one reused buffer.

    ``out`` is that buffer, from ``unpack_buffer`` for as many rows (a new one if None).
    """
    n_ch = _packed_channels(packed)
    rows = np.arange(len(packed)) if rows is None else rows
    full = unpack_buffer(packed, len(rows)) if out is None else out
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


def features_from_scatter(models: Sequence[CspModel], scatter: np.ndarray, n_samples: int,
                          mode: str, rows: np.ndarray | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Log-variance features of each model from one packed scatter or an (n, C(C+1)/2) stack.

    Rows are packed as by ``trial_scatter``; only the stack rows ``rows`` (all if None) are
    unpacked, once for all models, in ``out`` if given (see ``unpacked``).
    var(w^T X) == w^T (Xc Xc^T / T) w, so features only need the scatter. Returns
    ``2 * n_pairs`` features per model and trial: (models, 2 n_pairs) for one row,
    (models, rows, 2 n_pairs) for a stack. ``mode`` "plain" takes log of raw variances;
    "normalized" divides by the sum of the selected variances first.
    """
    w = np.stack([m.w[:, list(m.selected)] for m in models])[:, None]  # (model, 1, C, 2 n_pairs)
    # Each block's projection p is multiplied in place: no second temporary of its size.
    variances = np.concatenate([np.sum(np.multiply(p := b @ w, w, out=p), axis=-2) / n_samples
                                for b in unpacked(np.atleast_2d(scatter), rows, out)],
                               axis=1)
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("zero-variance CSP projection clamped", RuntimeWarning, stacklevel=2)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    if mode == "normalized":
        variances = variances / np.sum(variances, axis=-1, keepdims=True)
        variances = np.maximum(variances, VARIANCE_FLOOR)
    elif mode != "plain":
        raise ValueError(f"unknown log-variance mode {mode!r}")
    return np.log(variances)[:, 0] if np.ndim(scatter) == 1 else np.log(variances)
