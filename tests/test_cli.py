import contextlib
import hashlib
import json
import multiprocessing
import os
import random
import resource
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from sessions import run_in_own_session

from swarmbci import cli, evaluate
from swarmbci.cli import _write_text_atomic, main
from swarmbci.config import RunConfig
from swarmbci.recording import ParadigmTiming, open_recording, save_recording
from swarmbci.synth import SynthConfig, generate_subject

SMALL_CONFIG = {
    "run": {"seed": 5, "n_pairs": 2},
    "timing": {"fixation_s": 0.5, "cue_s": 0.5, "rest_s": 0.5, "imagery_s": 2.0},
    "synth": {"n_channels": 12, "fs_hz": 250.0, "trials_per_class": 8,
              "separability": 0.9, "seed": 100},
    "swarm": {"n_drones": 12, "r_aggregate": 3.0, "max_steps": 400},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture
def forks(monkeypatch):
    """Lists the child count of each ``forked`` call that ``fork_map`` makes in this process
    (a child's calls land in its own copy of the list); each call forks as it would."""
    counts, forked = [], evaluate.forked

    def counting_forked(target, count):
        counts.append(count)
        return forked(target, count)

    monkeypatch.setattr(evaluate, "forked", counting_forked)
    return counts


@pytest.fixture
def subject_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["synth", "--config", config_path, "--out", str(out),
                 "--subjects", "2"]) == 0
    return out


def read_json(path):
    return json.loads(Path(path).read_text())


#: sha256 of every output of ``simulate --sequence 4,3,2,1,3,2``, by ``swarm`` config
#: section. The swarm uses only IEEE elementwise operations, ``sqrt`` and
#: ``default_rng``, so the digests do not depend on the BLAS.
SIMULATE_SHA256 = {
    "default": ({
        "metrics.json": "616a73dde4d0512fc1395106c5a50ae9c051ea9ff7771a6a6ff2f46e4dde431d",
        "trajectory_000_aggregating.csv":
            "fdaf2222bd665433e0e463e1a80586e119c59a421cb8108f956cf7d14f9aa7cc",
        "trajectory_001_dispersing.csv":
            "ca6a9bdf9e27fa825e2ebcbcc3fb7e767479cee215c8e761f0e8709882c1af1a",
        "trajectory_002_splitting.csv":
            "42eadf2c1bfc605be9af2b705f6fa3d71806bb5110501391958c02cb9d35ca1c",
        "trajectory_003_hovering.csv":
            "7214cd00ee1f2b0e49bd1f4e4e44a8b47e2c3926f2954b61307814647ba03eae",
        "trajectory_004_dispersing.csv":
            "d2377ecba92df589597d1aa3f282ae9cc93831cd81cb97b11e1882153f48ca70",
        "trajectory_005_splitting.csv":
            "e5f01f44b39d8e466b37810e50f066a07b8fd1446e9f2c1fb56c9483d28559e6",
    }, {}),
    "crowded-120": ({
        "metrics.json": "3522ee8cae884e6a532722a9b4bc997c35dfcd2302691814bf90850be7d7743c",
        "trajectory_000_aggregating.csv":
            "656b26041e1afc55efda893086440fc8cfe0b8b0081f85743383acdcd2e5799f",
        "trajectory_001_dispersing.csv":
            "09f7c9600207eedd6d00043bc4c4033b28f7a87a8a57f44753f7159fd0dfb7e6",
        "trajectory_002_splitting.csv":
            "e832228d62d5b3dc32f32c97f2a86e61b23cd1e1c8cbe80b759de65a1e62687a",
        "trajectory_003_hovering.csv":
            "d23cbface28c0a3ee709eb9b8422e8dc1a985af17c2b4513201ca021387befda",
        "trajectory_004_dispersing.csv":
            "24706b38e456a8ad371e75f7337bdaae5117cd75f428c38f30f459d1aeb365eb",
        "trajectory_005_splitting.csv":
            "882b65d7b82b99dc26fd02e8364f4a8ffb8cc3d349ee40d6bde45acde5c479ed",
    }, {"n_drones": 120, "arena": [0, 60, 0, 60], "r_aggregate": 8.0, "d_split": 20.0}),
}


#: sha256 of ``evaluate``'s ``summary.json`` on both ``subject_dir`` files, and of
#: ``pipeline``'s outputs on subject01 except ``manifest.json``, which holds ``created_at``.
#: The CV outputs hold only labels, folds, counts and their ratios, so a BLAS that
#: rounds differently moves them only if it flips a prediction.
EVALUATE_SHA256 = {
    "summary.json": "b76077a3d58f20580951c314cac7357210b9ddaed85c51b182491153202aac37",
    "pipeline": {
        "cv_result.json": "1280fbb60805da3f1b5ad2d1b2d6e350e36befacdca6d8dac07d1182adf1e672",
        "predictions_fold0.json":
            "ada60eae6eea25d7ddaf23203a263ca2f5fcbeb578760cc27b428f4fd4e3f2b6",
        "simulation/metrics.json":
            "4e09f80583caae9312ef0affe04ceccc2fae2335b22643a9f1b1d9173a4516f4",
        "simulation/trajectory_000_splitting.csv":
            "5531085246130b7dfbc1b187c8e5cd9a83b6a56e39ecaae575fd0e7593f4870a",
        "simulation/trajectory_001_dispersing.csv":
            "afd3fdb42bafa24c6e0065ec8b7a23428fe16cd1495768748fc2800024a41f51",
        "simulation/trajectory_002_hovering.csv":
            "4d2abb74f1ad35e469e661f9e60442d9008ca4dc5f2ce8638d637d5125cda4c1",
        "simulation/trajectory_003_dispersing.csv":
            "18960c159c4e1302b85ed83df7470e210cf561292643d8bf0b3ef786f4c92604",
        "simulation/trajectory_004_hovering.csv":
            "6f8902e777780b3defdbe60d58fa9ae50813a7de77f416d21839e0e2a179631c",
        "simulation/trajectory_005_aggregating.csv":
            "7b5ed7c6610d8f9a8043f81bea28b53383a82f1d620b148845edf3e3f26e121e",
        "simulation/trajectory_006_aggregating.csv":
            "d494d8663674397f416c6454c6d499af58fe6af90d144f7677dd80f1f64e6681",
        "simulation/trajectory_007_splitting.csv":
            "7fe98de1f9aa2254493a21be6f3d3eecf1d287a118da7b788f18c12f264ef105",
    },
}


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestSynth:
    def test_writes_files_and_manifest(self, subject_dir):
        manifest = read_json(subject_dir / "synth_manifest.json")
        assert manifest["n_subjects"] == 2
        names = [e["file"] for e in manifest["subjects"]]
        assert names == ["subject01.nsr", "subject02.nsr"]
        for entry in manifest["subjects"]:
            data = (subject_dir / entry["file"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    def test_rerun_is_checksum_identical(self, tmp_path, config_path, subject_dir):
        again = tmp_path / "again"
        assert main(["synth", "--config", config_path, "--out", str(again),
                     "--subjects", "2"]) == 0
        a = read_json(subject_dir / "synth_manifest.json")
        b = read_json(again / "synth_manifest.json")
        assert [e["sha256"] for e in a["subjects"]] == [e["sha256"] for e in b["subjects"]]

    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "seeded"
        assert main(["synth", "--config", config_path, "--out", str(out),
                     "--subjects", "1", "--seed", "7"]) == 0
        manifest = read_json(out / "synth_manifest.json")
        assert manifest["subjects"][0]["seed"] == 7

    def test_subject_ids_embedded(self, subject_dir):
        assert open_recording(subject_dir / "subject02.nsr").subject_id == "subject02"

    def test_zero_subjects_fails(self, tmp_path, config_path, capsys):
        code = main(["synth", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--subjects", "0"])
        assert code == 1
        assert "subjects" in capsys.readouterr().err


class TestEvaluate:
    def test_single_subject(self, tmp_path, config_path, subject_dir, capsys):
        out = tmp_path / "summary.json"
        assert main(["evaluate", str(subject_dir / "subject01.nsr"),
                     "--config", config_path, "--out", str(out)]) == 0
        summary = read_json(out)
        assert list(summary["per_subject"]) == ["subject01"]
        assert summary["grand_mean"] >= 0.8
        assert "grand_mean=" in capsys.readouterr().out

    def test_two_subjects_with_jobs(self, tmp_path, config_path, subject_dir):
        out = tmp_path / "summary.json"
        assert main(["evaluate", str(subject_dir / "subject01.nsr"),
                     str(subject_dir / "subject02.nsr"),
                     "--config", config_path, "--out", str(out), "--jobs", "2"]) == 0
        summary = read_json(out)
        assert sorted(summary["per_subject"]) == ["subject01", "subject02"]
        expected = RunConfig(**SMALL_CONFIG["run"]).fingerprint
        for result in summary["per_subject"].values():
            assert result["config_fingerprint"] == expected

    def test_summary_byte_identical(self, tmp_path, config_path, subject_dir):
        out = tmp_path / "summary.json"
        assert main(["evaluate", str(subject_dir / "subject01.nsr"),
                     str(subject_dir / "subject02.nsr"), "--config", config_path,
                     "--out", str(out)]) == 0
        assert sha256_of(out) == EVALUATE_SHA256["summary.json"]

    def test_corrupted_nsr_named_in_error(self, tmp_path, config_path, subject_dir, capsys):
        bad = subject_dir / "subject01.nsr"
        raw = bytearray(bad.read_bytes())
        raw[:4] = b"XXXX"
        bad.write_bytes(raw)
        code = main(["evaluate", str(bad), "--config", config_path,
                     "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert "subject01.nsr" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, config_path, subject_dir, capsys, jobs):
        out = tmp_path / "s.json"
        code = main(["evaluate", str(subject_dir / "subject01.nsr"), "--config", config_path,
                     "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, corrupt", [
        pytest.param("1", ["subject02"], id="1"),
        pytest.param("2", ["subject02"], id="2"),
        pytest.param("2", ["subject01", "subject02"], id="2-both-corrupt"),
    ])
    def test_only_the_failed_file_named(self, tmp_path, config_path, subject_dir, capsys, jobs,
                                        corrupt):
        for name in corrupt:
            bad = subject_dir / f"{name}.nsr"
            bad.write_bytes(bad.read_bytes()[:-3])
        code = main(["evaluate", str(subject_dir / "subject01.nsr"),
                     str(subject_dir / "subject02.nsr"), "--config", config_path,
                     "--out", str(tmp_path / "s.json"), "--jobs", jobs])
        assert code == 1
        err = capsys.readouterr().err
        named = corrupt[0]  # the first failing file in input order
        other = "subject02" if named == "subject01" else "subject01"
        assert f"{named}.nsr" in err and "payload" in err
        assert f"{other}.nsr" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_duplicate_subject_id_refused(self, tmp_path, config_path, subject_dir, capsys,
                                          jobs):
        copy = tmp_path / "copy.nsr"
        copy.write_bytes((subject_dir / "subject01.nsr").read_bytes())
        out = tmp_path / "s.json"
        code = main(["evaluate", str(subject_dir / "subject01.nsr"), str(copy),
                     "--config", config_path, "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: duplicate subject_id 'subject01' across input files\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_duplicate_subject_id_refused_before_any_subject_is_evaluated(
            self, tmp_path, config_path, subject_dir, forks, monkeypatch, capsys, jobs):
        called = tmp_path / "called"
        monkeypatch.setattr(cli, "evaluate_recording",
                            lambda *args, **kwargs: called.touch())  # seen from any process
        copy = tmp_path / "copy.nsr"
        copy.write_bytes((subject_dir / "subject01.nsr").read_bytes())
        code = main(["evaluate", str(subject_dir / "subject01.nsr"),
                     str(subject_dir / "subject02.nsr"), str(copy), "--config", config_path,
                     "--out", str(tmp_path / "s.json"), "--jobs", jobs])
        assert code == 1
        assert "duplicate subject_id 'subject01'" in capsys.readouterr().err
        assert forks == [] and not called.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_file_opened_once_in_the_command_process(self, tmp_path, config_path,
                                                          subject_dir, monkeypatch, jobs):
        opened, open_recording = tmp_path / "opened", cli.open_recording

        def noted_open_recording(path):  # one line a call, from any process
            with open(opened, "a") as fh:
                fh.write(f"{os.getpid()} {Path(path).name}\n")
            return open_recording(path)

        monkeypatch.setattr(cli, "open_recording", noted_open_recording)
        names = ["subject01.nsr", "subject02.nsr"]
        assert main(["evaluate", *(str(subject_dir / name) for name in names),
                     "--config", config_path, "--out", str(tmp_path / "s.json"),
                     "--jobs", jobs]) == 0
        assert opened.read_text().splitlines() == [f"{os.getpid()} {name}" for name in names]

    @pytest.mark.parametrize("jobs, files, workers", [("8", 2, [2]), ("2", 1, [])],
                             ids=["jobs8-files2", "jobs2-files1"])
    def test_no_more_workers_than_files(self, tmp_path, config_path, subject_dir, forks,
                                        monkeypatch, jobs, files, workers):
        # One CPU, so that each subject's windows are read where it is evaluated.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        paths = [str(subject_dir / f"subject{i + 1:02d}.nsr") for i in range(files)]
        assert main(["evaluate", *paths, "--config", config_path,
                     "--out", str(tmp_path / "s.json"), "--jobs", jobs]) == 0
        assert forks == workers
        assert len(read_json(tmp_path / "s.json")["per_subject"]) == files

    @pytest.mark.parametrize("affinity, count, jobs, files, workers",
                             [(4, 8, "2", 2, 2), (4, 8, "1", 2, 4), (4, 8, "4", 2, 2),
                              (1, 8, "2", 2, 1), (None, 3, "1", 1, 3), (None, None, "1", 1, 1)],
                             ids=["cpus4-jobs2", "cpus4-jobs1", "cpus4-jobs4", "cpus1-jobs2",
                                  "no-affinity-call", "no-affinity-call-no-count"])
    def test_workers_split_the_cpus(self, tmp_path, config_path, subject_dir, monkeypatch,
                                    affinity, count, jobs, files, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        if affinity is None:  # as on macOS
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        seen, evaluate_recording = tmp_path / "seen", cli.evaluate_recording

        def noted_evaluate_recording(*args, workers):  # one line a subject, from any process
            with open(seen, "a") as fh:
                fh.write(f"{workers}\n")
            return evaluate_recording(*args, workers=workers)

        monkeypatch.setattr(cli, "evaluate_recording", noted_evaluate_recording)
        paths = [str(subject_dir / f"subject{i + 1:02d}.nsr") for i in range(files)]
        assert main(["evaluate", *paths, "--config", config_path,
                     "--out", str(tmp_path / "s.json"), "--jobs", jobs]) == 0
        assert seen.read_text().split() == [str(workers)] * files

    def test_ctrl_c_with_jobs_joins_every_worker(self, tmp_path, config_path, subject_dir,
                                                 monkeypatch):
        here, evaluate_one = os.getpid(), cli._evaluate_one

        def interrupting(rec, *args):  # one SIGINT, while the command waits for its children
            if rec.path.endswith("subject01.nsr"):
                os.kill(here, signal.SIGINT)
            return evaluate_one(rec, *args)

        monkeypatch.setattr(cli, "_evaluate_one", interrupting)
        out = tmp_path / "s.json"
        with pytest.raises(KeyboardInterrupt):
            main(["evaluate", str(subject_dir / "subject01.nsr"),
                  str(subject_dir / "subject02.nsr"), "--config", config_path,
                  "--out", str(out), "--jobs", "2"])
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_non_finite_sample_named(self, tmp_path, config_path, subject_dir, capsys):
        path = subject_dir / "subject01.nsr"
        rec = open_recording(path)
        onset = rec.markers[3].sample_index
        with open(path, "r+b") as fh:  # the payload is sample-major float32
            fh.seek(rec.offset + 4 * ((onset + 10) * rec.layout.count + 5))
            fh.write(np.float32(np.nan).tobytes())
        code = main(["evaluate", str(path), "--config", config_path,
                     "--out", str(tmp_path / "s.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "subject01.nsr" in err
        assert f"channel {rec.layout.names[5]} at sample {onset + 10}" in err

    def test_killed_run_leaves_no_process_and_no_summary(self, tmp_path):
        # decode_dense's subject: 64 channels at 250 Hz, 800 one-second trials, 10 folds.
        timing = {"rest_s": 0.5, "cue_s": 0.5, "fixation_s": 0.5, "imagery_s": 1.0}
        save_recording(generate_subject(SynthConfig(
            n_channels=64, fs_hz=250.0, trials_per_class=200, timing=ParadigmTiming(**timing),
            separability=0.3, seed=29)), tmp_path / "dense.nsr")
        (tmp_path / "config.json").write_text(json.dumps({"timing": timing,
                                                          "run": {"k_folds": 10}}))
        # Killed at 0.84, 0.30 and 0.59 of a clean run: while the workers read the windows,
        # and while the folds are fit.
        assert_killed_evaluate_leaves_nothing(tmp_path, [str(tmp_path / "dense.nsr"), "--config",
                                                         str(tmp_path / "config.json")], 54)

    def test_killed_jobs_run_leaves_no_process_and_no_summary(self, tmp_path):
        # Three subjects of decode_dense's shape, 64 channels at 250 Hz, with 200 trials each,
        # evaluated by two forked subject processes; killed at 0.29, 0.58 and 0.70 of a clean run.
        # One BLAS thread a process: with BLAS's default two, the two processes' folds
        # oversubscribe two CPUs and the clean run, which sets the kill points, took 0.8-2.8 s.
        timing = {"rest_s": 0.5, "cue_s": 0.5, "fixation_s": 0.5, "imagery_s": 1.0}
        paths = [tmp_path / f"subject{i + 1:02d}.nsr" for i in range(3)]
        for i, path in enumerate(paths):
            save_recording(generate_subject(SynthConfig(
                n_channels=64, fs_hz=250.0, trials_per_class=50, separability=0.3, seed=30 + i,
                timing=ParadigmTiming(**timing)), subject_id=path.stem), path)
        (tmp_path / "config.json").write_text(json.dumps({"timing": timing}))
        assert_killed_evaluate_leaves_nothing(tmp_path, [*map(str, paths), "--jobs", "2",
                                                         "--config", str(tmp_path / "config.json")],
                                              48, OPENBLAS_NUM_THREADS="1")

    def test_missing_file(self, tmp_path, config_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.nsr"),
                     "--config", config_path, "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert "nope.nsr" in capsys.readouterr().err

    def test_more_inputs_than_the_soft_open_file_limit(self, tmp_path):
        # Every input stays open while evaluate runs: 40 of them pass a soft limit of 32.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synth": {"n_channels": 8, "fs_hz": 100.0, "trials_per_class": 5, "seed": 7},
            "timing": SMALL_CONFIG["timing"], "run": {"n_pairs": 2}}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data"),
                     "--subjects", "40"]) == 0
        paths = sorted(map(str, (tmp_path / "data").glob("*.nsr")))
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]

        def evaluate_under(out: str, limits):
            def set_limits():
                if limits is not None:
                    resource.setrlimit(resource.RLIMIT_NOFILE, limits)
            return subprocess.run(
                [sys.executable, "-m", "swarmbci.cli", "evaluate", *paths, "--config",
                 str(config), "--out", str(tmp_path / out), "--jobs", "2"],
                preexec_fn=set_limits, capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})

        assert evaluate_under("free.json", None).returncode == 0
        raised = evaluate_under("raised.json", (32, min(hard, 4096)))
        assert raised.returncode == 0, raised.stderr
        assert "subjects=40" in raised.stdout
        assert (tmp_path / "raised.json").read_bytes() == (tmp_path / "free.json").read_bytes()
        refused = evaluate_under("refused.json", (32, 32))
        assert refused.returncode == 1
        assert refused.stderr.startswith("error: evaluate holds its 40 input files open")
        assert "the open-file limit is 32," in refused.stderr
        assert not (tmp_path / "refused.json").exists()


class TestSimulate:
    def test_single_behavior_sequence(self, tmp_path, config_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--sequence", "1"]) == 0
        timeline = read_json(out / "metrics.json")["timeline"]
        assert len(timeline) == 1
        assert timeline[0]["behavior"] == "Hovering"
        assert timeline[0]["steps"] == 0
        assert timeline[0]["converged"] is True
        # Trajectory holds only the initial snapshot: header + 12 drones.
        lines = (out / "trajectory_000_hovering.csv").read_text().splitlines()
        assert len(lines) == 1 + 12

    def test_full_sequence(self, tmp_path, config_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--sequence", "4,3,2,1"]) == 0
        timeline = read_json(out / "metrics.json")["timeline"]
        assert [e["behavior"] for e in timeline] == [
            "Aggregating", "Dispersing", "Splitting", "Hovering"]
        assert all(e["converged"] for e in timeline)
        assert timeline[0]["metrics"]["mean_centroid_dist"] <= 3.0
        assert timeline[2]["metrics"]["cluster_count"] == 2
        for e in timeline:
            assert (out / e["trajectory_file"]).exists()

    def test_predictions_file_input(self, tmp_path, config_path):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"predicted_labels": [4, 1]}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--predictions", str(pred)]) == 0
        timeline = read_json(out / "metrics.json")["timeline"]
        assert [e["code"] for e in timeline] == [4, 1]

    @pytest.mark.parametrize("text", [
        json.dumps({"predicted_labels": [2.7, True, "4"]}),
        json.dumps({"predicted_labels": [1, True]}),
        json.dumps({"predicted_labels": [4.0, 1.0]}),
        json.dumps({"predicted_labels": "4,1"}),
        json.dumps({"labels": [4, 1]}),
        json.dumps([4, 1]),
        '{"predicted_labels": [4, 1',
        b"\xff\xfe{}",
    ], ids=["mixed", "bool", "floats", "string", "missing-key", "not-an-object", "truncated",
            "not-utf8"])
    def test_bad_predictions_file_named(self, tmp_path, config_path, capsys, text):
        pred = tmp_path / "pred.json"
        pred.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--predictions", str(pred)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {pred}: ")
        assert not out.exists()

    def test_bad_predictions_file_is_an_error_not_a_traceback(self, tmp_path):
        pred = tmp_path / "p.json"
        pred.write_text(json.dumps({"predicted_labels": [2.7, True, "4"]}))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "swarmbci.cli", "simulate", "--out", "sim",
                               "--predictions", str(pred)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {pred}: 'predicted_labels' must be a list of ints")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "sim").exists()

    def test_invalid_code_fails_before_output(self, tmp_path, config_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", config_path, "--out", str(out),
                     "--sequence", "1,9"])
        assert code == 1
        assert not out.exists()

    def test_negative_max_steps_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"swarm": {"n_drones": 4, "max_steps": -3}}))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--sequence", "3,2"])
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and "max_steps" in last
        assert not out.exists()

    def test_malformed_sequence_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--sequence", "4;3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --sequence") and "'4;3'" in err
        assert not out.exists()

    def test_sequence_and_predictions_conflict(self, tmp_path, config_path, capsys):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"predicted_labels": [1]}))
        code = main(["simulate", "--config", config_path, "--out", str(tmp_path / "sim"),
                     "--sequence", "1", "--predictions", str(pred)])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_failed_behaviour_named(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"swarm": {"n_drones": 12, "arena": [0, 20, 0, 20]}}))
        out, ok = tmp_path / "sim", tmp_path / "ok"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--sequence", "1,4,2,1"]) == 1
        assert capsys.readouterr().err == (
            "error: behaviour 2 (Splitting): splitting targets fall outside the arena; "
            "enlarge arena or reduce spacing\n")
        assert main(["simulate", "--config", str(config), "--out", str(ok),
                     "--sequence", "1,4"]) == 0
        written = ["trajectory_000_hovering.csv", "trajectory_001_aggregating.csv"]
        assert sorted(p.name for p in out.iterdir()) == written
        for name in written:
            assert (out / name).read_bytes() == (ok / name).read_bytes(), name

    def test_failed_write_stops_the_run(self, tmp_path, capsys):
        out = tmp_path / "sim"
        (out / "trajectory_001_aggregating.csv").mkdir(parents=True)
        assert main(["simulate", "--out", str(out), "--sequence", "1,4,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert err.endswith(f" -> '{out / 'trajectory_001_aggregating.csv'}'\n")
        assert not (out / "metrics.json").exists()
        assert not (out / "trajectory_002_splitting.csv").exists()  # queued behind the failure
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_one_writer_process_per_run(self, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        save = cli.save_trajectory_csv

        def recording_save(trajectory, path):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            save(trajectory, path)

        monkeypatch.setattr(cli, "save_trajectory_csv", recording_save)
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--sequence", "4,3,2,1"]) == 0
        writers = pids.read_text().split()
        assert len(writers) == 4
        assert len(set(writers)) == 1
        assert str(os.getpid()) not in writers

    def test_a_failed_write_stops_the_stepping(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sim"
        (out / "trajectory_000_dispersing.csv").mkdir(parents=True)
        run, stepped = cli.run_until_converged, []

        def slow_run(state, cfg):
            stepped.append(len(stepped))
            time.sleep(0.1)
            return run(state, cfg)

        monkeypatch.setattr(cli, "run_until_converged", slow_run)
        assert main(["simulate", "--out", str(out), "--sequence", ",".join(["3,4"] * 10)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
        # The writer fails on its first CSV while the second behaviour steps.
        assert len(stepped) <= 3, stepped
        assert [p.name for p in out.iterdir()] == ["trajectory_000_dispersing.csv"]

    def test_a_stalled_writer_holds_the_stepping(self, tmp_path):
        sequence = ",".join(["3,4"] * 20)
        with stalled_simulate(tmp_path, sequence) as proc:
            time.sleep(2.0)
            # Only the pipe's buffer holds trajectories the writer has not taken:
            # 6 behaviours of 50 drones with a 208 KiB socket buffer.
            stepped = len((tmp_path / "stepped").read_text())
            assert 1 <= stepped <= 10, stepped
        assert proc.returncode == 0
        assert_written_as_by(tmp_path / "sim", tmp_path / "ok", sequence, 40)

    def test_a_ctrl_c_while_a_send_waits_ends_the_run(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"swarm": {"max_speed": 0.2}}))  # CSVs of 0.7-0.9 MB
        sequence = ",".join(["3,4"] * 5)
        with stalled_simulate(tmp_path, sequence, "--config", str(config)) as proc:
            time.sleep(1.0)
            proc.send_signal(signal.SIGINT)  # the second trajectory's send is cut short
            time.sleep(0.5)
        assert proc.returncode == -signal.SIGINT
        assert (tmp_path / "stderr").read_text().splitlines()[-1] == "KeyboardInterrupt"
        assert not (tmp_path / "sim" / "metrics.json").exists()
        assert_written_as_by(tmp_path / "sim", tmp_path / "ok", sequence, 1,
                             "--config", str(config))

    def test_no_thread_beside_the_main_one_while_stepping(self, tmp_path, monkeypatch):
        run = cli.run_until_converged
        threads = []

        def counting_run(state, cfg):
            threads.append(threading.active_count())
            return run(state, cfg)

        monkeypatch.setattr(cli, "run_until_converged", counting_run)
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--sequence", "4,3,2,1,3,2"]) == 0
        assert threads == [1] * 6

    def test_a_killed_writer_is_an_error(self, tmp_path):
        script = (
            "import os, signal, sys\n"
            "from swarmbci import cli\n"
            "save, written = cli.save_trajectory_csv, []\n"
            "def dying_save(trajectory, path):\n"
            "    written.append(path)\n"
            "    if len(written) == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    save(trajectory, path)\n"
            "cli.save_trajectory_csv = dying_save\n"
            "sys.exit(cli.main(['simulate', '--out', 'sim', '--sequence', '4,3,2,1,3,2']))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "process" in proc.stderr  # names the writer
        assert not (tmp_path / "sim" / "metrics.json").exists()
        assert len(list((tmp_path / "sim").glob("trajectory_*.csv"))) == 2

    def test_killed_run_leaves_no_process_and_no_partial_file(self, tmp_path):
        codes = [1 + i % 4 for i in range(400)]
        random.Random(28).shuffle(codes)
        argv = [sys.executable, "-m", "swarmbci.cli", "simulate",
                "--sequence", ",".join(map(str, codes)), "--out"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        start = time.monotonic()
        run_in_own_session(argv + [str(tmp_path / "clean")], cwd=tmp_path, env=env)
        duration = time.monotonic() - start
        clean = {p.name: p.read_bytes() for p in (tmp_path / "clean").iterdir()}
        rng = random.Random(6)
        # Once at start-up, then at seeded points of a run as long as the clean one.
        for k, delay in enumerate([0.05] + [duration * rng.uniform(0.2, 0.9) for _ in range(3)]):
            out = tmp_path / f"killed{k}"
            with open(tmp_path / f"stderr{k}", "w+") as err:
                left = run_in_own_session(argv + [str(out)], delay, cwd=tmp_path, env=env,
                                          stderr=err)
                assert not left, f"killed after {delay:.2f} s, left {left}"
                err.seek(0)
                assert err.read() == ""  # the writer exits quietly
            for p in out.iterdir() if out.exists() else ():
                if not p.name.startswith("."):
                    assert p.read_bytes() == clean[p.name], (delay, p.name)

    @pytest.mark.parametrize("config", sorted(SIMULATE_SHA256))
    def test_outputs_byte_identical(self, tmp_path, config):
        digests, swarm = SIMULATE_SHA256[config]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"swarm": swarm}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--sequence", "4,3,2,1,3,2"]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == digests


def assert_killed_evaluate_leaves_nothing(cwd, args, seed, **env):
    """Run ``evaluate *args`` in its own session, with ``env`` added to its environment, to
    a clean summary; then SIGKILL it once at start-up and at three points drawn with ``seed``
    from a run as long as the clean one. Each time no process of its session is left within
    10 s, and a summary is there only if it was written whole."""
    argv = [sys.executable, "-m", "swarmbci.cli", "evaluate", *args, "--out"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **env}

    def run(out, kill_after=None):
        return run_in_own_session(argv + [str(out / "summary.json")], kill_after, cwd=cwd,
                                  env=env, stdout=subprocess.DEVNULL)

    start = time.monotonic()
    run(cwd / "clean")
    duration = time.monotonic() - start
    clean = (cwd / "clean" / "summary.json").read_bytes()
    rng = random.Random(seed)
    for k, delay in enumerate([0.05] + [duration * rng.uniform(0.2, 0.9) for _ in range(3)]):
        out = cwd / f"killed{k}"
        left = run(out, kill_after=delay)
        assert not left, f"killed after {delay:.2f} s, left {left}"
        for p in out.iterdir() if out.exists() else ():  # a summary only if written whole
            assert p.name == "summary.json" and p.read_bytes() == clean, (delay, p.name)


#: ``simulate`` with a writer that waits for a file ``release`` before each CSV; a dot
#: is appended to ``stepped`` as each behaviour starts to step.
_STALLED_SIMULATE = (
    "import os, sys, time\n"
    "from swarmbci import cli\n"
    "save, run = cli.save_trajectory_csv, cli.run_until_converged\n"
    "def stalled_save(trajectory, path):\n"
    "    while not os.path.exists('release'):\n"
    "        time.sleep(0.01)\n"
    "    save(trajectory, path)\n"
    "def counting_run(state, cfg):\n"
    "    with open('stepped', 'a') as fh:\n"
    "        fh.write('.')\n"
    "    return run(state, cfg)\n"
    "cli.save_trajectory_csv, cli.run_until_converged = stalled_save, counting_run\n"
    "sys.exit(cli.main(['simulate', '--out', 'sim', '--sequence', *sys.argv[1:]]))\n")


@contextlib.contextmanager
def stalled_simulate(cwd, sequence, *flags):
    """Run ``_STALLED_SIMULATE`` in ``cwd`` in its own session; yield it once it steps.

    Its stderr goes to ``cwd / "stderr"``. On exit the writer is released and the
    run waited for (10 s at most); what is left of its session is then killed.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    with open(cwd / "stderr", "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", _STALLED_SIMULATE, sequence, *flags],
                                cwd=cwd, env={**os.environ, "PYTHONPATH": src}, stderr=err,
                                start_new_session=True)
    try:
        deadline = time.monotonic() + 60.0
        while not (cwd / "stepped").exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        yield proc
        (cwd / "release").touch()
        proc.wait(timeout=10)
    finally:
        (cwd / "release").touch()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def assert_written_as_by(out, ok, sequence, n_csvs, *flags):
    """``out`` holds ``n_csvs`` trajectory CSVs, each as a clean run into ``ok`` writes it."""
    assert main(["simulate", "--out", str(ok), "--sequence", sequence, *flags]) == 0
    written = sorted(p.name for p in out.glob("trajectory_*.csv"))
    assert len(written) == n_csvs
    for name in written:
        assert (out / name).read_bytes() == (ok / name).read_bytes(), name


#: Run in a fresh interpreter: the scipy modules loaded after the given statement.
_SCIPY_AFTER = "import sys\n{}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
#: Pins the interpreter to one CPU, so that the command reads the trial windows itself.
_ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


@pytest.mark.parametrize("statement", [
    "import swarmbci.cli",
    "from swarmbci.cli import main\nassert main(['synth', '--config', 'config.json', '--out', 'out']) == 0",
    "from swarmbci.cli import main\nassert main(['simulate', '--out', 'sim', '--sequence', '4,3,2,1']) == 0",
    _ONE_CPU + "from swarmbci.cli import main\nassert main(['evaluate', 'data/subject01.nsr', "
    "'--config', 'config.json', '--out', 's.json']) == 0",
    _ONE_CPU + "from swarmbci.cli import main\nassert main(['pipeline', 'data/subject01.nsr', "
    "'--config', 'config.json', '--out', 'pipe']) == 0",
], ids=["import-cli", "synth", "simulate", "evaluate", "pipeline"])
def test_simulate_loads_no_scipy(tmp_path, statement, request):
    if "config.json" in statement:  # the config, and the subjects if read, made here
        request.getfixturevalue("subject_dir" if "data/" in statement else "config_path")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER.format(statement)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[-1] == "[]"  # after the command's own output


#: Run in a fresh interpreter in which ``import scipy`` raises: each command on the output
#: of the one before.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from swarmbci.cli import main
assert main(["synth", "--config", "config.json", "--out", "data", "--subjects", "2"]) == 0
assert main(["evaluate", "data/subject01.nsr", "data/subject02.nsr", "--config", "config.json",
             "--out", "summary.json", "--jobs", "2"]) == 0
assert main(["pipeline", "data/subject01.nsr", "--config", "config.json", "--out", "pipe"]) == 0
assert main(["simulate", "--predictions", "pipe/predictions_fold0.json", "--config", "config.json",
             "--out", "sim"]) == 0
"""


def test_every_command_runs_without_scipy(tmp_path, config_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert sha256_of(tmp_path / "summary.json") == EVALUATE_SHA256["summary.json"]
    for name, digest in EVALUATE_SHA256["pipeline"].items():
        assert sha256_of(tmp_path / "pipe" / name) == digest, name
        if name.startswith("simulation/"):  # simulate ran the pipeline's codes
            assert sha256_of(tmp_path / "sim" / Path(name).name) == digest, name


def test_console_main_freezes_the_heap_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    assert cli.console_main() == 3
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize("sequence, code", [("4,1", 0), ("9", 1)])
def test_module_run_exits_with_mains_code(tmp_path, sequence, code):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "swarmbci.cli", "simulate", "--out", "sim",
                           "--sequence", sequence], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "sim" / "metrics.json").exists() == (code == 0)


class TestPipeline:
    @pytest.fixture
    def pipeline_out(self, tmp_path, config_path, subject_dir):
        out = tmp_path / "pipe"
        assert main(["pipeline", str(subject_dir / "subject01.nsr"),
                     "--config", config_path, "--out", str(out)]) == 0
        return out

    def test_manifest_references_every_file(self, pipeline_out):
        manifest = read_json(pipeline_out / "manifest.json")
        for rel in manifest["files"]:
            assert (pipeline_out / rel).exists(), rel
        emitted = {str(p.relative_to(pipeline_out))
                   for p in pipeline_out.rglob("*") if p.is_file()}
        assert emitted == set(manifest["files"]) | {"manifest.json"}

    def test_fingerprint_consistent_across_outputs(self, pipeline_out):
        fp = read_json(pipeline_out / "manifest.json")["config_fingerprint"]
        assert read_json(pipeline_out / "cv_result.json")["config_fingerprint"] == fp
        assert read_json(pipeline_out / "predictions_fold0.json")["config_fingerprint"] == fp

    def test_fold0_predictions_match_cv_result(self, pipeline_out):
        cv = read_json(pipeline_out / "cv_result.json")
        preds = read_json(pipeline_out / "predictions_fold0.json")
        expected = [cv["predicted_labels"][i]
                    for i, f in enumerate(cv["fold_of_trial"]) if f == 0]
        assert preds["predicted_labels"] == expected
        assert preds["fold"] == 0

    def test_outputs_byte_identical(self, pipeline_out):
        manifest = read_json(pipeline_out / "manifest.json")
        assert {rel: sha256_of(pipeline_out / rel)
                for rel in manifest["files"]} == EVALUATE_SHA256["pipeline"]

    def test_rerun_identical_modulo_timestamp(self, tmp_path, config_path,
                                              subject_dir, pipeline_out):
        again = tmp_path / "pipe2"
        assert main(["pipeline", str(subject_dir / "subject01.nsr"),
                     "--config", config_path, "--out", str(again)]) == 0
        m1 = read_json(pipeline_out / "manifest.json")
        m2 = read_json(again / "manifest.json")
        m1.pop("created_at"), m2.pop("created_at")
        assert m1 == m2
        for rel in m1["files"]:
            assert (pipeline_out / rel).read_bytes() == (again / rel).read_bytes(), rel


class TestAtomicWrites:
    def test_existing_tmp_neither_clobbered_nor_left_behind(self, tmp_path):
        target = tmp_path / "out.json"
        stale = tmp_path / "out.json.tmp"
        stale.write_text("someone else's")
        _write_text_atomic(target, "{}\n")
        assert target.read_text() == "{}\n"
        assert stale.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp"]

    def test_mode_is_that_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "atomic.txt"
        _write_text_atomic(target, "x")
        assert stat.S_IMODE(os.stat(target).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)

    def test_failed_write_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            _write_text_atomic(target, "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_commands_leave_no_temp_files(self, tmp_path, config_path, subject_dir):
        assert main(["simulate", "--config", config_path, "--out", str(tmp_path / "sim"),
                     "--sequence", "4,1"]) == 0
        for out in (subject_dir, tmp_path / "sim"):
            assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"runn": {}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--subjects", "1"])
        assert code == 1
        assert "runn" in capsys.readouterr().err

    def test_unknown_key_in_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"synth": {"n_chanels": 8}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--subjects", "1"])
        assert code == 1
        assert "n_chanels" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        (["evaluate", "missing.nsr", "--out", "s.json"], {"run": {"k_folds": "5"}}, "run.k_folds"),
        (["simulate", "--out", "sim", "--sequence", "1"], {"swarm": {"n_drones": "50"}},
         "swarm.n_drones"),
        (["synth", "--out", "data"], {"synth": {"timing": {"cue_s": True}}}, "synth.timing.cue_s"),
        (["synth", "--out", "data"], {"synth": {"fs_hz": 10 ** 400}}, "synth.fs_hz"),
        (["simulate", "--out", "sim", "--sequence", "3"],
         '{"swarm": {"arena": [0, Infinity, 0, 100]}}', "swarm.arena"),
        (["evaluate", "missing.nsr", "--out", "s.json"], '{"timing": {"rest_s": NaN}}',
         "timing.rest_s"),
        (["synth", "--out", "data"], '{"synth": {"timing": {"cue_s": -1e400}}}',
         "synth.timing.cue_s"),
        (["simulate", "--out", "sim", "--sequence", "1"], {"swarm": [4]}, "swarm"),
        (["evaluate", "missing.nsr", "--out", "s.json"], {"run": {"band": [8, 30, 40]}},
         "run.band"),
        (["simulate", "--out", "sim", "--sequence", "1"], {"swarm": {"arena": [0, 100, 0]}},
         "swarm.arena"),
    ], ids=["evaluate", "simulate", "synth", "synth-int-beyond-float", "infinite-arena",
            "nan-timing", "overflowing-float", "section-not-an-object", "band-of-3-items",
            "arena-of-3-items"])
    def test_wrong_value_type_is_an_error_not_a_traceback(self, tmp_path, command, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "swarmbci.cli", *command, "--config", str(cfg)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert f"error: {key} must be" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "sim").exists() and not (tmp_path / "data").exists()

    @pytest.mark.parametrize("text", [
        "{", b"\xff\xfe{}", "[]", json.dumps({"runn": {}}),
    ], ids=["truncated", "not-utf8", "not-an-object", "unknown-section"])
    def test_bad_config_file_named(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--sequence", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}")
        assert not (tmp_path / "sim").exists()

    def test_seed_flag_sets_every_seeded_section(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        loaded = cli.load_config(cli.build_parser().parse_args(
            ["simulate", "--config", str(cfg), "--out", "o", "--seed", "7"]))
        assert (loaded.run.seed, loaded.synth.seed, loaded.swarm.seed) == (7, 7, 7)
        assert loaded.run.n_pairs == 2 and loaded.timing.imagery_s == 2.0
        assert loaded.synth.n_channels == 12 and loaded.swarm.n_drones == 12

    @pytest.mark.parametrize("command", [["simulate", "--sequence", "1,3,2"],
                                         ["simulate", "--sequence", "3"], ["synth"]],
                             ids=["simulate-no-dispersing", "simulate-dispersing", "synth"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([*command, "--seed", "-1", "--out", str(out)]) == 1
        assert "error: --seed must be int >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_int_accepted_for_a_float_field(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"swarm": {"n_drones": 4, "max_speed": 2,
                                             "arena": [0, 50, 0, 50]}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--sequence", "1"]) == 0

    def test_no_config_uses_defaults(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--sequence", "1"]) == 0
        timeline = read_json(out / "metrics.json")["timeline"]
        assert timeline[0]["steps"] == 0
