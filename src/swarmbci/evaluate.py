"""Stratified k-fold cross-validation and accuracy reporting; and ``forked`` and
``fork_map``, through which the package makes every child process.

The decoder for each fold (CSP and LDA both) is fit strictly on the
other k-1 folds; the bandpass filter is parameter-fixed a priori and
applied before CV, which introduces no leakage.
"""

from __future__ import annotations

import contextlib
import fcntl
import mmap
import multiprocessing
import os
import signal
import tempfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from swarmbci.config import RunConfig
from swarmbci.csp import trial_scatter
from swarmbci.decode import fit_decoder, predict
from swarmbci.dsp import FilterSpec, design_bandpass, filter_channels
from swarmbci.recording import (
    EVENT_CODES,
    ParadigmTiming,
    Recording,
    RecordingFile,
    extract_trials,
)


@dataclass
class CvResult:
    """Cross-validation outcome for one subject."""

    per_fold_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: list[list[int]]  # 4x4, rows true, columns predicted
    seed: int
    config_fingerprint: str
    predicted_labels: list[int] = field(default_factory=list)
    true_labels: list[int] = field(default_factory=list)
    fold_of_trial: list[int] = field(default_factory=list)


@dataclass
class GroupSummary:
    """Multi-subject aggregation of CV results."""

    per_subject: dict[str, CvResult]
    grand_mean: float
    grand_std: float  # population std across subject means


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Fold index of each trial for k folds, stratified by class.

    Within each class the indices are shuffled with a seeded generator
    and dealt round-robin, so per-class fold sizes differ by at most 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    fold_of_trial = np.full(len(labels), -1)
    for code in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == code)
        if len(idx) < k:
            raise ValueError(f"class {code} has {len(idx)} trials, fewer than k={k}")
        rng.shuffle(idx)
        fold_of_trial[idx] = np.arange(len(idx)) % k
    return fold_of_trial


def _folds(labels: np.ndarray, config: RunConfig) -> np.ndarray:
    """Each trial's fold, dealt by ``stratified_kfold``; refuses labels that cannot be
    cross-validated."""
    if len(labels) == 0:
        raise ValueError("cannot cross-validate an empty set of trials")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    unknown = sorted(set(labels.tolist()) - set(EVENT_CODES))
    if unknown:
        raise ValueError(f"labels {unknown} are not event codes {EVENT_CODES}")
    for code in EVENT_CODES:
        if int(np.sum(labels == code)) == 0:
            raise ValueError(f"class {code} is absent from the trials")
    return stratified_kfold(labels, config.k_folds, config.seed)


def cross_validate(scatters: np.ndarray, labels, n_samples: int, config: RunConfig) -> CvResult:
    """Leakage-free CV of the CSP+LDA decoder: ``config.k_folds`` folds, dealt by ``config.seed``.

    ``scatters`` stacks each trial's scatter over ``n_samples`` samples, packed in
    ``np.triu_indices(C)`` order (see ``csp.trial_scatter``); it does not depend on fold
    membership, so computing it before the folds leaks nothing. Each fold fits on the
    stack in place, through its train mask: nothing is copied.
    """
    labels = np.asarray(labels)
    if len(labels) != len(scatters):
        raise ValueError(f"{len(scatters)} scatters but {len(labels)} labels")
    folds = _folds(labels, config)
    predicted = np.empty(len(labels), dtype=int)
    for fold in range(config.k_folds):
        train_mask = folds != fold
        try:
            model = fit_decoder(scatters, labels, n_samples, config, train=train_mask)
        except ValueError as exc:
            raise ValueError(f"fold {fold}: {exc}") from exc
        for i in np.flatnonzero(~train_mask):
            predicted[i] = predict(model, scatters[i], n_samples)[0]

    hits = predicted == labels
    per_fold_accuracy = [float(np.mean(hits[folds == fold])) for fold in range(config.k_folds)]
    confusion = np.zeros((4, 4), dtype=int)
    np.add.at(confusion, (labels - 1, predicted - 1), 1)
    return CvResult(
        per_fold_accuracy=per_fold_accuracy,
        mean_accuracy=float(np.mean(per_fold_accuracy)),
        std_accuracy=float(np.std(per_fold_accuracy)),  # population convention
        confusion=confusion.tolist(),
        seed=config.seed,
        config_fingerprint=config.fingerprint,
        predicted_labels=predicted.tolist(),
        true_labels=labels.tolist(),
        fold_of_trial=folds.tolist(),
    )


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity call on this platform (macOS)


@contextlib.contextmanager
def forked(target, count: int):
    """Fork ``count`` children, each running ``target(conn)`` on its own pipe; yield this
    process's ends. No other thread may run here: the children share its memory.

    A child ignores SIGINT and closes its copies of this process's ends; an ``EOFError``
    or ``OSError`` in it means this process is gone. SIGINT is blocked while each child
    starts, so a Ctrl-C during a fork is raised here once the fork is done, not dropped
    by an at-fork hook. On every way out of the block, ``KeyboardInterrupt`` or a failed
    fork included, this process closes its ends and joins every child it started.
    """
    context = multiprocessing.get_context("fork")
    conns, children = [], []

    def child(conn, parent_conns) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for end in parent_conns:
            end.close()
        with contextlib.suppress(EOFError, OSError):  # this process is gone
            target(conn)

    try:
        for _ in range(count):
            conn, child_conn = context.Pipe()
            conns.append(conn)
            process = context.Process(target=child, args=(child_conn, tuple(conns)))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                process.start()
                children.append(process)
            finally:
                child_conn.close()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # raises a Ctrl-C held back
        yield tuple(conns)
    finally:
        for conn in conns:
            conn.close()
        for child_process in children:
            child_process.join()


def fork_map(fn, n: int, workers: int, name: str) -> list:
    """``[fn(0), ..., fn(n - 1)]``, by ``min(workers, n)`` forked children (here if one);
    this process only waits. The children take the indices one at a time from a shared
    counter, whose POSIX record lock the kernel releases if its holder dies. After a
    failure no index is handed out, and a child takes none once its pipe is closed:
    ``forked`` closes it on every way out (a Ctrl-C or a failed fork included) before it
    joins the children, and so does this process's death. The failure of the lowest
    index is raised, as a loop here would raise it.
    """
    count = min(workers, n)
    if count <= 1:
        return [fn(i) for i in range(n)]
    next_index = np.frombuffer(mmap.mmap(-1, 8), np.int64, 1)

    def take(stop: bool) -> int:
        """The next index, n once none is left; ``stop`` hands out no more."""
        fcntl.lockf(lock, fcntl.LOCK_EX)
        try:
            i = n if stop else int(next_index[0])
            next_index[0] = min(i + 1, n)
        finally:
            fcntl.lockf(lock, fcntl.LOCK_UN)
        return i

    def work(conn) -> None:  # sends this child's results by index, and its failure
        results, failure = {}, None
        # This process sends nothing, so the pipe is readable only once its end is closed.
        while (i := take(stop=failure is not None or conn.poll())) < n:
            try:
                results[i] = fn(i)
            except Exception as exc:  # raised below if no lower index failed
                failure = i, exc
        conn.send((results, failure))

    with tempfile.TemporaryFile() as lock, forked(work, count) as conns:
        try:
            answers = [conn.recv() for conn in conns]
        except EOFError:  # only a child's exit closes its end
            raise RuntimeError(f"a {name} process exited before it answered") from None
    results = {i: result for done, _ in answers for i, result in done.items()}
    failures = [failure for _, failure in answers if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(n)]


def _scatter_stack(rec: Recording | RecordingFile, timing: ParadigmTiming, spec: FilterSpec,
                   margin: int, workers: int) -> np.ndarray:
    """The (n, C(C+1)/2) packed trial scatters, reading and filtering trial by trial.

    ``fork_map`` hands the markers to ``workers`` processes, which write their rows in
    place into one stack in anonymous shared memory. Each filters through its own copy
    of one padded float64 buffer, allocated once, so its pages fault in once per subject.
    """
    n_ch, n = rec.layout.count, len(rec.markers)
    padded = spec.padded_len(timing.imagery_len(rec.sampling_rate_hz) + 2 * margin)
    n_values = n_ch * (n_ch + 1) // 2
    scatters = np.frombuffer(mmap.mmap(-1, 8 * n * n_values)).reshape(n, n_values)
    condition = partial(filter_channels, spec, out=np.empty((n_ch, padded)))

    def fill(i: int) -> None:
        (trial,) = extract_trials(rec, timing, condition, margin, range(i, i + 1)).trials
        scatters[i] = trial_scatter(trial.samples)

    fork_map(fill, n, workers, "window worker")
    return scatters


def evaluate_recording(rec: Recording | RecordingFile, config: RunConfig,
                       timing: ParadigmTiming = ParadigmTiming(), *,
                       workers: int | None = None) -> CvResult:
    """Full single-subject pipeline: filter and epoch each trial, cross-validate.

    ``rec`` is a Recording or an opened RecordingFile. The markers' labels are
    checked before any window is read. The "continuous" stage filters each trial
    with ``settle_len`` samples of context on both sides, which matches filtering
    the whole recording to within ``SETTLE_TOL``; the "epoch" stage filters the
    trial alone. Trials are read and filtered by ``workers`` forked processes (default:
    one per CPU this process may use; with one, here), and only their scatter matrices
    are kept; with every child joined, the folds are fit here, on the stack in place.
    The result does not depend on the worker count.
    """
    workers = usable_cpus() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    labels = np.array([m.event_code for m in rec.markers], dtype=int)
    _folds(labels, config)  # refuses unusable labels before any window is read
    spec = design_bandpass(config.band[0], config.band[1], config.filter_order,
                           rec.sampling_rate_hz)
    margin = spec.settle_len if config.filter_stage == "continuous" else 0
    scatters = _scatter_stack(rec, timing, spec, margin, workers)
    return cross_validate(scatters, labels, timing.imagery_len(rec.sampling_rate_hz), config)


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
