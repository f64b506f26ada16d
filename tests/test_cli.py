import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from swarmbci.cli import _write_text_atomic, main
from swarmbci.config import RunConfig
from swarmbci.recording import load_recording, save_recording

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
def subject_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["synth", "--config", config_path, "--out", str(out),
                 "--subjects", "2"]) == 0
    return out


def read_json(path):
    return json.loads(Path(path).read_text())


class TestSynth:
    def test_writes_files_and_manifest(self, subject_dir):
        manifest = read_json(subject_dir / "synth_manifest.json")
        assert manifest["n_subjects"] == 2
        names = [e["file"] for e in manifest["subjects"]]
        assert names == ["subject01.nsr", "subject02.nsr"]
        for entry in manifest["subjects"]:
            assert (subject_dir / entry["file"]).exists()
            assert len(entry["sha256"]) == 64

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
        rec = load_recording(subject_dir / "subject02.nsr")
        assert rec.subject_id == "subject02"

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
        expected = RunConfig.from_dict(SMALL_CONFIG["run"]).fingerprint
        for result in summary["per_subject"].values():
            assert result["config_fingerprint"] == expected

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_only_the_failed_file_named(self, tmp_path, config_path, subject_dir, capsys, jobs):
        bad = subject_dir / "subject02.nsr"
        bad.write_bytes(bad.read_bytes()[:-3])
        code = main(["evaluate", str(subject_dir / "subject01.nsr"), str(bad),
                     "--config", config_path, "--out", str(tmp_path / "s.json"),
                     "--jobs", jobs])
        assert code == 1
        err = capsys.readouterr().err
        assert "subject02.nsr" in err and "payload" in err
        assert "subject01.nsr" not in err

    def test_non_finite_sample_named(self, tmp_path, config_path, subject_dir, capsys):
        path = subject_dir / "subject01.nsr"
        rec = load_recording(path)
        onset = rec.markers[3].sample_index
        rec.data[5, onset + 10] = np.nan
        save_recording(rec, path)
        code = main(["evaluate", str(path), "--config", config_path,
                     "--out", str(tmp_path / "s.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "subject01.nsr" in err
        assert f"channel {rec.layout.names[5]} at sample {onset + 10}" in err

    def test_missing_file(self, tmp_path, config_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.nsr"),
                     "--config", config_path, "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert "nope.nsr" in capsys.readouterr().err


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

    def test_invalid_code_fails_before_output(self, tmp_path, config_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", config_path, "--out", str(out),
                     "--sequence", "1,9"])
        assert code == 1
        assert not out.exists()

    def test_sequence_and_predictions_conflict(self, tmp_path, config_path, capsys):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"predicted_labels": [1]}))
        code = main(["simulate", "--config", config_path, "--out", str(tmp_path / "sim"),
                     "--sequence", "1", "--predictions", str(pred)])
        assert code == 1
        assert "not both" in capsys.readouterr().err


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

    def test_no_config_uses_defaults(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--sequence", "1"]) == 0
        timeline = read_json(out / "metrics.json")["timeline"]
        assert timeline[0]["steps"] == 0
