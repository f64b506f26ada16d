"""Stratified k-fold cross-validation and accuracy reporting.

The decoder for each fold (CSP and LDA both) is fit strictly on the
other k-1 folds; the bandpass filter is parameter-fixed a priori and
applied before CV, which introduces no leakage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from swarmbci.config import RunConfig
from swarmbci.csp import trial_scatter
from swarmbci.decode import _fit_decoder_from_scatters, _predict_from_scatter
from swarmbci.dsp import design_bandpass, filter_channels
from swarmbci.recording import (
    EVENT_CODES,
    ParadigmTiming,
    Recording,
    RecordingFile,
    TrialSet,
    extract_trials,
)


@dataclass(frozen=True)
class FoldAssignment:
    """Deterministic stratified assignment of trials to folds."""

    fold_of_trial: tuple[int, ...]
    k: int
    seed: int


@dataclass
class CvResult:
    """Cross-validation outcome for one subject."""

    per_fold_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: np.ndarray  # 4x4, rows true, columns predicted
    seed: int
    config_fingerprint: str
    predicted_labels: list[int] = field(default_factory=list)
    true_labels: list[int] = field(default_factory=list)
    fold_of_trial: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "per_fold_accuracy": [float(a) for a in self.per_fold_accuracy],
            "mean_accuracy": float(self.mean_accuracy),
            "std_accuracy": float(self.std_accuracy),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "seed": self.seed,
            "config_fingerprint": self.config_fingerprint,
            "predicted_labels": list(self.predicted_labels),
            "true_labels": list(self.true_labels),
            "fold_of_trial": list(self.fold_of_trial),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class GroupSummary:
    """Multi-subject aggregation of CV results."""

    per_subject: dict[str, CvResult]
    grand_mean: float
    grand_std: float  # population std across subject means

    def to_dict(self) -> dict:
        return {
            "per_subject": {s: r.to_dict() for s, r in sorted(self.per_subject.items())},
            "grand_mean": float(self.grand_mean),
            "grand_std": float(self.grand_std),
        }


def stratified_kfold(labels, k: int, seed: int) -> FoldAssignment:
    """Assign trials to k folds, stratified by class.

    Within each class the indices are shuffled with a seeded generator
    and dealt round-robin, so per-class fold sizes differ by at most 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = list(labels)
    rng = np.random.default_rng(seed)
    fold_of_trial = [-1] * len(labels)
    for code in sorted(set(labels)):
        idx = np.asarray([i for i, lab in enumerate(labels) if lab == code])
        if len(idx) < k:
            raise ValueError(f"class {code} has {len(idx)} trials, fewer than k={k}")
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            fold_of_trial[i] = j % k
    return FoldAssignment(tuple(fold_of_trial), k, seed)


def cross_validate(ts: TrialSet, k: int, seed: int, config: RunConfig) -> CvResult:
    """Leakage-free stratified k-fold CV of the CSP+LDA decoder."""
    if len(ts) == 0:
        raise ValueError("cannot cross-validate an empty TrialSet")
    labels = np.asarray(ts.labels)
    for code in EVENT_CODES:
        if int(np.sum(labels == code)) == 0:
            raise ValueError(f"class {code} is absent from the TrialSet")

    assignment = stratified_kfold(ts.labels, k, seed)
    folds = np.asarray(assignment.fold_of_trial)
    n_samples = ts.trials[0].n_samples
    # Per-trial scatter matrices are independent of fold membership, so
    # computing them once introduces no leakage.
    scatters = np.stack([trial_scatter(t.samples) for t in ts.trials])

    confusion = np.zeros((4, 4), dtype=int)
    per_fold_accuracy = []
    predicted = [0] * len(ts)
    for fold in range(k):
        train_mask = folds != fold
        try:
            model = _fit_decoder_from_scatters(
                scatters[train_mask], n_samples, labels[train_mask],
                config.n_pairs, config.shrinkage, config.log_variance_mode,
                None, config.fingerprint,
            )
        except ValueError as exc:
            raise ValueError(f"fold {fold}: {exc}") from exc
        test_idx = np.flatnonzero(~train_mask)
        hits = 0
        for i in test_idx:
            label, _ = _predict_from_scatter(model, scatters[i], n_samples)
            predicted[i] = label
            confusion[labels[i] - 1, label - 1] += 1
            hits += int(label == labels[i])
        per_fold_accuracy.append(hits / len(test_idx))

    mean = float(np.mean(per_fold_accuracy))
    std = float(np.std(per_fold_accuracy))  # population convention
    return CvResult(
        per_fold_accuracy=per_fold_accuracy,
        mean_accuracy=mean,
        std_accuracy=std,
        confusion=confusion,
        seed=seed,
        config_fingerprint=config.fingerprint,
        predicted_labels=predicted,
        true_labels=[int(v) for v in labels],
        fold_of_trial=list(assignment.fold_of_trial),
    )


def evaluate_recording(rec: Recording | RecordingFile, config: RunConfig,
                       timing: ParadigmTiming = ParadigmTiming()) -> CvResult:
    """Full single-subject pipeline: filter and epoch each trial, cross-validate.

    ``rec`` is a Recording or an opened RecordingFile. The "continuous"
    stage filters each trial with ``settle_len`` samples of context on both
    sides, which matches filtering the whole recording to within
    ``SETTLE_TOL``; the "epoch" stage filters the trial alone.
    """
    spec = design_bandpass(config.band[0], config.band[1], config.filter_order,
                           rec.sampling_rate_hz)
    margin = spec.settle_len if config.filter_stage == "continuous" else 0
    ts = extract_trials(rec, timing, lambda window: filter_channels(spec, window), margin)
    return cross_validate(ts, config.k_folds, config.seed, config)


def summarize_group(results: dict[str, CvResult]) -> GroupSummary:
    """Aggregate subject-level CV results into grand mean/std.

    Refuses to merge results produced under different config
    fingerprints.
    """
    if not results:
        raise ValueError("summarize_group requires at least one subject")
    fingerprints = {r.config_fingerprint for r in results.values()}
    if len(fingerprints) > 1:
        raise ValueError(
            f"refusing to merge results with mismatched config fingerprints: "
            f"{sorted(fingerprints)}"
        )
    means = [r.mean_accuracy for r in results.values()]
    return GroupSummary(dict(results), float(np.mean(means)), float(np.std(means)))
