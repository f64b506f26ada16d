import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import reference_chain
from sessions import processes_left

import swarmbci
from swarmbci import evaluate
from swarmbci.config import RunConfig
from swarmbci.csp import trial_scatter
from swarmbci.decode import fit_decoder, predict
from swarmbci.evaluate import (
    CvResult,
    _scatter_stack,
    cross_validate,
    evaluate_recording,
    stratified_kfold,
    summarize_group,
)
from swarmbci.dsp import design_bandpass, filter_channels
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
    Trial,
    extract_trials,
    open_recording,
    save_recording,
)
from swarmbci.synth import SynthConfig, generate_subject

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def small_subject(separability, seed, trials_per_class=10, n_channels=12, fs=250.0):
    cfg = SynthConfig(n_channels=n_channels, fs_hz=fs,
                      trials_per_class=trials_per_class, timing=SMALL_TIMING,
                      separability=separability, seed=seed)
    return generate_subject(cfg)


def small_trialset(separability, seed, **kwargs):
    return extract_trials(small_subject(separability, seed, **kwargs), SMALL_TIMING)


def cv(trials, k, seed, config):
    """``cross_validate`` on the trials' stacked scatter matrices and labels."""
    scatters = np.stack([trial_scatter(t.samples) for t in trials])
    return cross_validate(scatters, [t.label for t in trials], trials[0].n_samples,
                          replace(config, k_folds=k, seed=seed))


class TestStratifiedKfold:
    def test_full_session_shape_gives_balanced_folds(self):
        labels = list(np.repeat([1, 2, 3, 4], 50))
        folds = stratified_kfold(labels, 5, seed=0)
        for f in range(5):
            assert np.sum(folds == f) == 40
            for code in (1, 2, 3, 4):
                mask = (folds == f) & (np.asarray(labels) == code)
                assert np.sum(mask) == 10

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            stratified_kfold([1, 2, 3, 4] * 5, 1, seed=0)

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(ValueError, match="class 2"):
            stratified_kfold([1, 1, 1, 2, 2], 3, seed=0)

    def test_deterministic(self):
        labels = list(np.repeat([1, 2, 3, 4], 13))
        np.testing.assert_array_equal(stratified_kfold(labels, 5, 42),
                                      stratified_kfold(labels, 5, 42))

    def test_uneven_classes_differ_by_at_most_one(self):
        labels = [1] * 11 + [2] * 7 + [3] * 9 + [4] * 5
        folds = stratified_kfold(labels, 3, seed=1)
        labels_arr = np.asarray(labels)
        for code in (1, 2, 3, 4):
            sizes = [np.sum((folds == f) & (labels_arr == code)) for f in range(3)]
            assert max(sizes) - min(sizes) <= 1

    def test_every_trial_assigned_once(self):
        labels = list(np.repeat([1, 2, 3, 4], 10))
        folds = stratified_kfold(labels, 4, seed=2)
        assert all(0 <= f < 4 for f in folds)
        assert len(folds) == len(labels)


class TestCrossValidate:
    def test_separable_set_scores_high(self):
        ts = small_trialset(0.9, seed=30)
        res = cv(ts.trials, 5, 3, RunConfig(seed=3, n_pairs=2))
        assert res.mean_accuracy >= 0.90

    def test_zero_separability_is_chance(self):
        accs = [cv(small_trialset(0.0, seed=s, trials_per_class=15).trials,
                   5, s, RunConfig(seed=s, n_pairs=2)).mean_accuracy
                for s in (31, 32, 33)]
        assert 0.10 <= np.mean(accs) <= 0.40  # wide band: small-n binomial spread

    def test_permuted_labels_are_chance(self):
        ts = small_trialset(0.9, seed=34, trials_per_class=15)
        rng = np.random.default_rng(0)
        labels = np.asarray([t.label for t in ts.trials])
        rng.shuffle(labels)
        permuted = [Trial(int(lab), t.samples) for lab, t in zip(labels, ts.trials)]
        accs = [cv(permuted, 5, s, RunConfig(seed=s, n_pairs=2)).mean_accuracy
                for s in (1, 2, 3)]
        assert 0.10 <= np.mean(accs) <= 0.40

    def test_confusion_rows_match_class_counts(self):
        ts = small_trialset(0.5, seed=35)
        res = cv(ts.trials, 5, 0, RunConfig(n_pairs=2))
        counts = np.bincount([t.label for t in ts.trials], minlength=5)[1:]
        np.testing.assert_array_equal(np.sum(res.confusion, axis=1), counts)
        assert np.sum(res.confusion) == len(ts)

    def test_mean_matches_folds(self):
        ts = small_trialset(0.6, seed=36)
        res = cv(ts.trials, 5, 0, RunConfig(n_pairs=2))
        assert res.mean_accuracy == pytest.approx(np.mean(res.per_fold_accuracy), abs=1e-12)
        assert res.std_accuracy == pytest.approx(np.std(res.per_fold_accuracy), abs=1e-12)

    def test_reproducible_json(self):
        ts = small_trialset(0.4, seed=37)
        cfg = RunConfig(seed=9, n_pairs=2)
        a = cv(ts.trials, 4, 9, cfg)
        b = cv(ts.trials, 4, 9, cfg)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    def test_missing_class_rejected(self):
        ts = small_trialset(0.4, seed=38)
        no4 = [t for t in ts.trials if t.label != 4]
        with pytest.raises(ValueError, match="class 4"):
            cv(no4, 4, 0, RunConfig(n_pairs=2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cross_validate(np.empty((0, 6)), np.empty(0, dtype=int), 10, RunConfig())

    def test_scatters_and_labels_of_different_lengths_rejected(self):
        labels = np.arange(29) % 4 + 1
        with pytest.raises(ValueError, match="30 scatters but 29 labels"):
            cross_validate(np.zeros((30, 6)), labels, 10, RunConfig(k_folds=2))

    def test_labels_outside_the_event_codes_rejected(self):
        labels = np.arange(40) % 4 + 1
        labels[[0, 1, 2, 3]] = [5, 0, 5, 5]
        with pytest.raises(ValueError, match=r"labels \[0, 5\] are not event codes"):
            cross_validate(np.zeros((40, 6)), labels, 10, RunConfig(k_folds=2))

    def test_float_labels_rejected_before_any_fold(self, monkeypatch):
        def fit_decoder(*args, **kwargs):
            raise AssertionError("a fold was fitted")

        monkeypatch.setattr(evaluate, "fit_decoder", fit_decoder)
        labels = np.arange(40) % 4 + 1.0
        with pytest.raises(ValueError, match="labels must be integers, got dtype float64"):
            cross_validate(np.zeros((40, 6)), labels, 10, RunConfig(k_folds=2))

    def test_confusion_rows_are_true_and_columns_predicted(self):
        ts = small_trialset(0.1, seed=41, trials_per_class=8, n_channels=8)
        res = cv(ts.trials, 2, 3, RunConfig(n_pairs=1))
        confusion = np.array(res.confusion)
        assert np.trace(confusion) < len(ts)  # some trials decoded wrong
        assert not np.array_equal(confusion, confusion.T)  # a transposed update would differ
        pairs = list(zip(res.true_labels, res.predicted_labels))
        for t in range(1, 5):
            for p in range(1, 5):
                assert confusion[t - 1][p - 1] == pairs.count((t, p))

    def test_folds_and_seed_come_from_the_config(self):
        ts = small_trialset(0.9, seed=30)
        scatters = np.stack([trial_scatter(t.samples) for t in ts.trials])
        labels = [t.label for t in ts.trials]
        cfg = RunConfig(k_folds=3, seed=9)
        res = cross_validate(scatters, labels, ts.trials[0].n_samples, cfg)
        assert len(res.per_fold_accuracy) == 3
        assert res.fold_of_trial == stratified_kfold(labels, 3, 9).tolist()
        assert res.seed == 9 and res.config_fingerprint == cfg.fingerprint
        default = cross_validate(scatters, labels, ts.trials[0].n_samples, RunConfig())
        with pytest.raises(ValueError, match="fingerprint"):
            summarize_group({"a": res, "b": default})

    def test_no_leakage_canary(self):
        # Chance-level data plus one extreme, mislabeled trial. A decoder
        # whose training set leaks the canary memorizes its label; the CV
        # harness must reproduce the leak-free prediction instead.
        ts = small_trialset(0.0, seed=21, trials_per_class=8)
        x = ts.trials[0].samples.astype(np.float64).copy()
        x[0] = 200.0 * np.sin(2 * np.pi * 15.0 * np.arange(x.shape[1]) / 250.0)
        canary = Trial(4, x)
        spiked = list(ts.trials)
        spiked[0] = canary
        scatters = np.stack([trial_scatter(t.samples) for t in spiked])
        labels = np.asarray([t.label for t in spiked])
        n_samples = canary.n_samples

        cfg = RunConfig(seed=4, n_pairs=2, k_folds=4)
        res = cross_validate(scatters, labels, n_samples, cfg)
        canary_fold = res.fold_of_trial[0]
        train_idx = [i for i in range(len(spiked)) if res.fold_of_trial[i] != canary_fold]

        def fit(idx):
            return fit_decoder(scatters[idx], labels[idx], n_samples, cfg)

        leak_free = fit(train_idx)
        leaked = fit(sorted(train_idx + [0]))
        p_free = predict(leak_free, scatters[0], n_samples)[0]
        p_leaked = predict(leaked, scatters[0], n_samples)[0]
        assert p_leaked == 4  # inclusion provably changes the prediction
        assert p_free != p_leaked
        assert res.predicted_labels[0] == p_free


class TestEvaluateRecording:
    def test_continuous_and_epoch_stages_both_decode(self):
        rec = small_subject(0.9, seed=40)
        for stage in ("continuous", "epoch"):
            cfg = RunConfig(seed=1, n_pairs=2, filter_stage=stage)
            res = evaluate_recording(rec, cfg, SMALL_TIMING)
            assert res.mean_accuracy >= 0.9

    def test_normalized_log_variance_mode(self):
        rec = small_subject(0.9, seed=41)
        cfg = RunConfig(seed=1, n_pairs=2, log_variance_mode="normalized")
        res = evaluate_recording(rec, cfg, SMALL_TIMING)
        assert res.mean_accuracy >= 0.75

    def test_non_finite_sample_named(self):
        rec = small_subject(0.9, seed=43)
        onset = rec.markers[7].sample_index
        rec.data[4, onset - 3] = np.inf  # inside the continuous stage's margin
        expected = f"channel {rec.layout.names[4]} at sample {onset - 3}"
        with pytest.raises(ValueError, match=expected):
            evaluate_recording(rec, RunConfig(seed=1, n_pairs=2), SMALL_TIMING)

    def test_subject_that_errs_is_pinned(self):
        # 0.49 accuracy, 102 trials off the confusion diagonal: unlike EVALUATE_SHA256's
        # subjects, this pin also moves when a wrong prediction flips.
        timing = ParadigmTiming(0.5, 0.5, 0.5, 1.0)
        rec = generate_subject(SynthConfig(n_channels=32, fs_hz=250.0, trials_per_class=50,
                                           timing=timing, separability=0.2, seed=5))
        res = evaluate_recording(rec, RunConfig(seed=1), timing)
        assert res.mean_accuracy == pytest.approx(0.49)
        assert hashlib.sha256(json.dumps(asdict(res), sort_keys=True).encode()).hexdigest() == (
            "75072f387d8085908995cb081bd6fad21b029397208c18ffd0a00a2881b5fa6b")

    def test_fingerprint_recorded(self):
        rec = small_subject(0.5, seed=42)
        cfg = RunConfig(seed=1, n_pairs=2)
        res = evaluate_recording(rec, cfg, SMALL_TIMING)
        assert res.config_fingerprint == cfg.fingerprint

    def test_default_fingerprint_is_pinned(self):
        assert RunConfig().fingerprint == "5308ab5eca135082"

    @pytest.mark.parametrize("stage", ["continuous", "epoch"])
    def test_streamed_equals_the_materialised_trials(self, stage, tmp_path):
        subject = small_subject(0.6, seed=44)
        cfg = RunConfig(seed=2, n_pairs=2, filter_stage=stage)
        spec = design_bandpass(*cfg.band, cfg.filter_order, subject.sampling_rate_hz)
        t_len, end = SMALL_TIMING.imagery_len(250.0), subject.n_samples
        # Windows clipped by the recording's start and end by different amounts,
        # between full ones: each trial reuses the filter buffer of the one before.
        extra = [EventMarker(0, 1), EventMarker(spec.settle_len // 3, 2),
                 EventMarker(end - t_len - spec.settle_len // 2, 3), EventMarker(end - t_len, 4)]
        markers = sorted(subject.markers + extra, key=lambda m: m.sample_index)
        rec = Recording("clipped", 250.0, subject.layout, subject.data, markers)
        save_recording(rec, tmp_path / "r.nsr")
        margin = spec.settle_len if stage == "continuous" else 0
        ts = extract_trials(rec, SMALL_TIMING, lambda w: filter_channels(spec, w), margin)
        expected = cv(ts.trials, cfg.k_folds, cfg.seed, cfg)
        reference = np.stack([trial_scatter(t.samples) for t in ts.trials])
        alive = threading.active_count()
        # A filter buffer shared between workers, or a row left unfilled, changes the stack.
        for source, workers in itertools.product(
                (rec, open_recording(tmp_path / "r.nsr")), (1, 2, 3)):
            got = evaluate_recording(source, cfg, SMALL_TIMING, workers=workers)
            assert json.dumps(asdict(got), sort_keys=True) == json.dumps(asdict(expected),
                                                                        sort_keys=True)
            assert threading.active_count() == alive
            assert multiprocessing.active_children() == []
            scatters = _scatter_stack(source, SMALL_TIMING, spec, margin, workers)
            assert scatters.tobytes() == reference.tobytes()

    def test_recording_without_trials_rejected(self):
        rec = Recording("none", 250.0, ChannelLayout.generic(4), np.zeros((4, 2000)))
        with pytest.raises(ValueError, match="empty"):
            evaluate_recording(rec, RunConfig(), SMALL_TIMING)

    def test_first_failing_marker_named_whoever_fails_first(self, monkeypatch, tmp_path):
        rec = small_subject(0.9, seed=45)
        for i, ch, offset in ((2, 3, 100), (5, 7, 10)):
            rec.data[ch, rec.markers[i].sample_index + offset] = np.nan
        expected = (f"channel {rec.layout.names[3]} at sample "
                    f"{rec.markers[2].sample_index + 100}$")
        onset, window, workers = rec.markers[2].sample_index, Recording.window, 3
        log = tmp_path / "log"

        def slow_for_marker_2(self, start, stop):
            if start <= onset < stop:  # so marker 5 fails first, in another worker
                time.sleep(0.02)
            return window(self, start, stop)

        def note(line):  # one append per line, whichever process writes it
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, line.encode() + b"\n")
            finally:
                os.close(fd)

        def logged_extract_trials(*args, **kwargs):  # one call per marker handed out
            note("handed out")
            try:
                return extract_trials(*args, **kwargs)
            except ValueError:
                note("failed")
                raise

        monkeypatch.setattr(Recording, "window", slow_for_marker_2)
        monkeypatch.setattr(evaluate, "extract_trials", logged_extract_trials)
        alive = threading.active_count()
        for _ in range(20):
            log.unlink(missing_ok=True)
            with pytest.raises(ValueError, match=expected):
                evaluate_recording(rec, RunConfig(seed=1, n_pairs=2), SMALL_TIMING,
                                   workers=workers)
            assert threading.active_count() == alive
            assert multiprocessing.active_children() == []
            # Once a window fails, only the markers the other workers already hold are read.
            lines = log.read_text().splitlines()
            assert lines[lines.index("failed"):].count("handed out") <= workers - 1

    @pytest.mark.parametrize("from_file", [False, True], ids=["recording", "file"])
    def test_unusable_labels_refused_before_any_window_is_read(self, from_file, tmp_path,
                                                               monkeypatch):
        subject = small_subject(0.9, seed=46)
        dropped = [i for i, m in enumerate(subject.markers) if m.event_code == 4][3:]
        markers = [m for i, m in enumerate(subject.markers) if i not in dropped]
        rec = Recording("few", 250.0, subject.layout, subject.data, markers)
        if from_file:
            save_recording(rec, tmp_path / "few.nsr")
            rec = open_recording(tmp_path / "few.nsr")
        reads, window = [], type(rec).window
        monkeypatch.setattr(type(rec), "window",
                            lambda self, *a: reads.append(a) or window(self, *a))
        with pytest.raises(ValueError, match="class 4 has 3 trials, fewer than k=5"):
            evaluate_recording(rec, RunConfig(k_folds=5), SMALL_TIMING, workers=1)  # reads here
        assert reads == []

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            evaluate_recording(small_subject(0.9, seed=47), RunConfig(), SMALL_TIMING, workers=0)

    def test_ctrl_c_joins_every_worker(self, monkeypatch):
        here, extract = os.getpid(), evaluate.extract_trials

        def interrupting(rec, timing, condition, margin, indices):
            if indices[0] == 0:  # one SIGINT, while this process waits for the workers
                os.kill(here, signal.SIGINT)
            return extract(rec, timing, condition, margin, indices)

        monkeypatch.setattr(evaluate, "extract_trials", interrupting)
        with pytest.raises(KeyboardInterrupt):
            evaluate_recording(small_subject(0.9, seed=49), RunConfig(seed=1, n_pairs=2),
                               SMALL_TIMING, workers=3)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        here, extract = os.getpid(), evaluate.extract_trials

        def dying_in_a_worker(*args, **kwargs):  # its marker's row is never written
            if os.getpid() != here:
                os._exit(3)
            return extract(*args, **kwargs)

        monkeypatch.setattr(evaluate, "extract_trials", dying_in_a_worker)
        with pytest.raises(RuntimeError, match="a window worker process exited before it answered"):
            evaluate_recording(small_subject(0.9, seed=50), RunConfig(seed=1, n_pairs=2),
                               SMALL_TIMING, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing, named", [((0, 1), 0), ((1,), 1), ((1, 2), 1)])
    def test_lowest_failing_fold_named(self, monkeypatch, failing, named):
        rec = small_subject(0.9, seed=48)
        config = RunConfig(seed=1, n_pairs=2)
        folds = stratified_kfold([m.event_code for m in rec.markers], config.k_folds, config.seed)
        fit = evaluate.fit_decoder

        def failing_fit(scatters, labels, n_samples, config, train):
            if folds[np.argmin(train)] in failing:  # the fold held out
                raise ValueError("planted failure")
            return fit(scatters, labels, n_samples, config, train=train)

        monkeypatch.setattr(evaluate, "fit_decoder", failing_fit)
        with pytest.raises(ValueError, match=f"^fold {named}: planted failure$"):
            evaluate_recording(rec, config, SMALL_TIMING, workers=2)
        assert multiprocessing.active_children() == []


#: Run in a fresh interpreter in its own session: ``fork_map`` over 40 calls of 0.2 s
#: each, by two children, each call noting its index in ``started``; the first call
#: SIGKILLs the forking process.
_ORPHANED_CHILDREN = textwrap.dedent("""
    import os, signal, time
    from swarmbci.evaluate import fork_map
    here = os.getpid()

    def slow(i):
        fd = os.open("started", os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b"%d\\n" % i)
        os.close(fd)
        if i == 0:
            os.kill(here, signal.SIGKILL)
        time.sleep(0.2)

    fork_map(slow, 40, 2, "slow")
""")


def test_an_orphaned_child_takes_no_more_work(tmp_path):
    src = str(Path(swarmbci.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _ORPHANED_CHILDREN], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    try:
        assert proc.wait(timeout=60) == -signal.SIGKILL
        left = processes_left(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert not left
    # The first call, and at most one more per child: the one it held when its parent died.
    started = (tmp_path / "started").read_text().split()
    assert "0" in started and len(started) <= 3, started


#: Run in a fresh interpreter in its own session: ``fork_map`` over 40 calls of 0.2 s
#: each, by two children, each call noting its index in ``started``; a hook sends this
#: process SIGINT just after its first fork, before the second.
_CTRL_C_AT_THE_FIRST_FORK = textwrap.dedent("""
    import os, signal, time
    from swarmbci.evaluate import fork_map
    forks = []

    def interrupt():
        forks.append(None)
        if len(forks) == 1:
            os.kill(os.getpid(), signal.SIGINT)

    def slow(i):
        fd = os.open("started", os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b"%d\\n" % i)
        os.close(fd)
        time.sleep(0.2)

    os.register_at_fork(after_in_parent=interrupt)
    try:
        fork_map(slow, 40, 2, "slow")
    except KeyboardInterrupt:
        print("interrupted after", len(forks), "fork")
""")


def test_a_ctrl_c_during_a_fork_stops_the_map(tmp_path):
    src = str(Path(swarmbci.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _CTRL_C_AT_THE_FIRST_FORK], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=60)
        left = processes_left(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert out == "interrupted after 1 fork\n", err
    assert not left
    # The child already started holds at most one call when it sees its pipe closed.
    started = tmp_path / "started"
    assert not started.exists() or len(started.read_text().split()) <= 1, started.read_text()


#: Seeded 250 Hz subjects of 160 one-second trials: (channels, separability, seed). They
#: decode at 0.731, 0.25, 0.994 and 0.431, so each mispredicts trials.
TEXTBOOK_SUBJECTS = [(16, 0.3, 61), (16, 0.0, 62), (32, 0.6, 63), (64, 0.2, 64)]
TEXTBOOK_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 1.0)


class TestAgainstTheTextbookChain:
    """``evaluate_recording`` against ``reference_chain``: the same algorithm, written plainly."""

    @pytest.fixture(scope="class", params=TEXTBOOK_SUBJECTS,
                    ids=[f"{c}ch-sep{s:g}" for c, s, _ in TEXTBOOK_SUBJECTS])
    def subject(self, request):
        n_channels, separability, seed = request.param
        rec = generate_subject(SynthConfig(n_channels=n_channels, fs_hz=250.0,
                                           trials_per_class=40, timing=TEXTBOOK_TIMING,
                                           separability=separability, seed=seed))
        config = RunConfig(seed=seed)
        return rec, config, reference_chain.cross_validate(rec, TEXTBOOK_TIMING, config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_predictions_equal_the_reference(self, subject, workers):
        rec, config, (expected, margin) = subject
        res = evaluate_recording(rec, config, TEXTBOOK_TIMING, workers=workers)
        got, labels = np.array(res.predicted_labels), np.array(res.true_labels)
        differ = np.flatnonzero(got != expected)
        for i in differ:  # a near-tie in the reference may fall either way
            print(f"trial {i}: predicted {got[i]}, the reference {expected[i]} "
                  f"at a relative top-2 margin of {margin[i]:.3g}")
        assert np.all(margin[differ] < 1e-9)
        assert np.any(got != labels)


def _random_recording(n_trials, n_channels=16, fs=250.0, timing=ParadigmTiming()):
    """White noise with one marker per trial, classes in turn; no synth."""
    t_len, gap = round(timing.imagery_s * fs), 400
    rng = np.random.default_rng(n_trials)
    data = rng.standard_normal((n_channels, n_trials * (t_len + gap) + gap), dtype=np.float32)
    markers = [EventMarker(gap + i * (t_len + gap), 1 + i % 4) for i in range(n_trials)]
    return Recording("noise", fs, ChannelLayout.generic(n_channels), data, markers)


def test_memory_grows_with_the_scatters_not_the_trials():
    # Four times the trials may cost more scatter matrices (16 x 16 float64
    # each), not more trial windows (16 x 1000 float32 each).
    n, timing = 20, ParadigmTiming()
    recs = {m: _random_recording(m * n, timing=timing) for m in (1, 4)}
    peak = {}
    for m, rec in recs.items():
        tracemalloc.start()
        try:  # one worker: tracemalloc sees neither a child's allocations nor the mapped stack
            evaluate_recording(rec, RunConfig(), timing, workers=1)
            peak[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    trial_bytes = 16 * round(timing.imagery_s * 250.0) * 4
    assert peak[4] - peak[1] < 0.5 * (3 * n) * trial_bytes


def test_evaluate_holds_the_scatters_packed():
    # Full (n, C, C) scatter matrices alone would reach the bound. Packed, a trial
    # keeps C(C+1)/2 of its C * C values (0.52 at 32 channels), beside window and
    # block buffers of fixed size.
    n, n_ch, timing = 400, 32, ParadigmTiming(0.5, 0.5, 0.5, 1.0)
    rec = _random_recording(n, n_channels=n_ch, timing=timing)
    evaluate_recording(_random_recording(40, n_channels=n_ch, timing=timing), RunConfig(),
                       timing)  # imports SciPy untraced
    tracemalloc.start()
    try:  # one worker, as above
        evaluate_recording(rec, RunConfig(), timing, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n_ch * n_ch * 8


#: Run in a fresh interpreter: ``evaluate_recording`` of a decode_dense-shaped subject.
_EVALUATE_DENSE = textwrap.dedent("""
    import sys
    from swarmbci.config import RunConfig
    from swarmbci.evaluate import evaluate_recording
    from swarmbci.recording import ParadigmTiming, open_recording
    evaluate_recording(open_recording(sys.argv[1]), RunConfig(k_folds=10),
                       ParadigmTiming(0.5, 0.5, 0.5, 1.0), workers=int(sys.argv[2]))
""")


def test_forked_workers_leave_the_peak_rss_as_one_process(tmp_path):
    # decode_dense's shape: 64 channels at 250 Hz and 800 one-second trials, so a 13 MB
    # packed stack. The workers write their rows into one shared stack, which the folds
    # then read in place; the largest process peaks as one worker does.
    timing = ParadigmTiming(0.5, 0.5, 0.5, 1.0)
    path = tmp_path / "dense.nsr"
    save_recording(generate_subject(SynthConfig(n_channels=64, fs_hz=250.0,
                                                trials_per_class=200, timing=timing,
                                                separability=0.3, seed=8)), path)
    src = str(Path(swarmbci.__file__).resolve().parents[1])
    peak = {}
    for workers in (1, 2):
        proc = subprocess.Popen([sys.executable, "-c", _EVALUATE_DENSE, str(path), str(workers)],
                                env={**os.environ, "PYTHONPATH": src})
        _, status, usage = os.wait4(proc.pid, 0)  # the largest of it and its children
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        peak[workers] = usage.ru_maxrss
    assert peak[2] <= 1.05 * peak[1], peak


def test_folds_copy_no_part_of_the_scatter_stack():
    # A fold that copied its train rows, or a trace-normalised stack, would cost
    # about 0.9 of the stack each.
    rng = np.random.default_rng(12)
    x = rng.standard_normal((400, 32, 40))
    scatters = np.einsum("nct,ndt->ncd", x, x)[(slice(None), *np.triu_indices(32))]
    labels = rng.permutation(np.arange(400) % 4 + 1)
    cross_validate(scatters, labels, 40, RunConfig(k_folds=10))  # imports SciPy untraced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cross_validate(scatters, labels, 40, RunConfig(k_folds=10))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < scatters.nbytes


#: Run in a fresh interpreter: the minor page faults of one ``evaluate_recording`` call
#: that reads every window in this process.
_FAULT_COUNT = textwrap.dedent("""
    import resource, sys
    from swarmbci.config import RunConfig
    from swarmbci.evaluate import evaluate_recording
    from swarmbci.recording import ParadigmTiming, open_recording
    rec = open_recording(sys.argv[1])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_recording(rec, RunConfig(), ParadigmTiming(0.1, 0.1, 0.1, 4.0), workers=1)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_trial_windows_do_not_fault_their_pages_in_again(tmp_path):
    # A 64 ch, 1 kHz trial window with its continuous-stage margin is ~64 x 5,470
    # samples, ~690 pages as float64. Window arrays allocated afresh for each trial
    # land on new pages each time (~3,000 faults per trial); the padded filter
    # input, reused over the trials, faults its pages in once.
    timing = ParadigmTiming(0.1, 0.1, 0.1, 4.0)
    rec = generate_subject(SynthConfig(n_channels=64, fs_hz=1000.0, trials_per_class=6,
                                       timing=timing, separability=0.9, seed=6))
    path = tmp_path / "s.nsr"
    save_recording(rec, path)
    del rec
    src = str(Path(swarmbci.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FAULT_COUNT, str(path)], capture_output=True,
                          text=True, timeout=300, check=True, env={**os.environ, "PYTHONPATH": src})
    faults_per_trial = int(proc.stdout) / 24
    assert faults_per_trial < 700, f"{faults_per_trial:.0f} minor page faults per trial"


class TestSummarizeGroup:
    def _result(self, mean, fingerprint="fp"):
        return CvResult([mean] * 5, mean, 0.0, np.zeros((4, 4), dtype=int), 0, fingerprint)

    def test_single_subject(self):
        g = summarize_group({"s1": self._result(0.413)})
        assert g.grand_mean == pytest.approx(0.413)
        assert g.grand_std == 0.0

    def test_two_subjects(self):
        g = summarize_group({"a": self._result(0.2), "b": self._result(0.4)})
        assert g.grand_mean == pytest.approx(0.3)
        assert g.grand_std == pytest.approx(0.1)

    def test_seven_subjects_match_hand_mean(self):
        means = [0.21, 0.34, 0.55, 0.62, 0.48, 0.30, 0.95]
        g = summarize_group({f"s{i}": self._result(m) for i, m in enumerate(means)})
        assert g.grand_mean == pytest.approx(sum(means) / 7, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_group({})

    def test_mismatched_fingerprints_refused(self):
        with pytest.raises(ValueError, match="fingerprint"):
            summarize_group({"a": self._result(0.3, "fp1"), "b": self._result(0.4, "fp2")})
