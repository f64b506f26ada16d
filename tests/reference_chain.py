"""A textbook bandpass + CSP + one-vs-rest LDA chain, the reference of a differential test.

Every step is written the plain way, sharing no code with ``swarmbci``: one
``scipy.signal.sosfiltfilt`` of the whole recording, the trials cut from it,
trace-normalised class mean covariances, CSP as the generalised eigenproblem
Cp w = lambda (Cp + Cn + ridge I) w (Ramoser, Mueller-Gerking & Pfurtscheller 2000;
Blankertz et al. 2008), ``np.var`` log-variance features and a shrinkage LDA
solved with ``np.linalg.solve``. Only the "plain" log-variance mode is covered.
"""

import numpy as np
import scipy.linalg
import scipy.signal

CODES = np.array([1, 2, 3, 4])
#: Ridge added to the composite covariance, as the decoder adds it.
RIDGE = 1e-9


def filtered_trials(rec, timing, config) -> np.ndarray:
    """(n, C, T) float64 trials, cut after each marker from the zero-phase filtered recording."""
    fs = rec.sampling_rate_hz
    sos = scipy.signal.butter(config.filter_order, config.band, btype="bandpass", fs=fs,
                              output="sos")
    data = scipy.signal.sosfiltfilt(sos, rec.data, padlen=6 * config.filter_order)
    t_len = round(timing.imagery_s * fs)
    return np.stack([data[:, m.sample_index:m.sample_index + t_len] for m in rec.markers])


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Each class's trials shuffled by one seeded generator, then dealt to the folds in turn."""
    rng, fold = np.random.default_rng(seed), np.empty(len(labels), dtype=int)
    for code in CODES:
        idx = np.flatnonzero(labels == code)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    return fold


def csp_filters(cov: np.ndarray, pos: np.ndarray, n_pairs: int) -> np.ndarray:
    """The filters of the ``n_pairs`` largest and smallest eigenvalues, class ``pos`` vs rest."""
    cp, cn = cov[pos].mean(axis=0), cov[~pos].mean(axis=0)
    _, w = scipy.linalg.eigh(cp, cp + cn + RIDGE * np.eye(len(cp)))
    return np.concatenate([w[:, :n_pairs], w[:, -n_pairs:]], axis=1)


def lda(pos: np.ndarray, neg: np.ndarray, shrinkage: float) -> tuple[np.ndarray, float]:
    """Weights and bias of a shrinkage LDA; the boundary moves by the log prior ratio."""
    mp, mn = pos.mean(axis=0), neg.mean(axis=0)
    sigma = ((pos - mp).T @ (pos - mp) + (neg - mn).T @ (neg - mn)) / (len(pos) + len(neg))
    d = len(sigma)
    sigma = (1 - shrinkage) * sigma + shrinkage * np.trace(sigma) / d * np.eye(d)
    w = np.linalg.solve(sigma, mp - mn)
    return w, -w @ (mp + mn) / 2 + np.log(len(pos) / len(neg))


def cross_validate(rec, timing, config) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's predicted code under k-fold CV, and the relative margin of its top two
    scores, (best - second) / max(|best|, |second|)."""
    assert config.log_variance_mode == "plain"
    trials = filtered_trials(rec, timing, config)
    labels = np.array([m.event_code for m in rec.markers])
    centred = trials - trials.mean(axis=2, keepdims=True)
    cov = centred @ centred.transpose(0, 2, 1)
    cov /= np.trace(cov, axis1=1, axis2=2)[:, None, None]
    fold = stratified_folds(labels, config.k_folds, config.seed)
    scores = np.empty((len(labels), len(CODES)))
    for f in range(config.k_folds):
        train, test = fold != f, fold == f
        for c, code in enumerate(CODES):
            pos = labels == code
            w = csp_filters(cov[train], pos[train], config.n_pairs)
            feats = np.log(np.var(np.einsum("ck,nct->nkt", w, trials), axis=2))
            weights, bias = lda(feats[train & pos], feats[train & ~pos], config.shrinkage)
            scores[test, c] = feats[test] @ weights + bias
    top = np.sort(scores, axis=1)[:, -2:]
    return CODES[np.argmax(scores, axis=1)], np.diff(top)[:, 0] / np.abs(top).max(axis=1)
