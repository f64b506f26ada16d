"""The benchmark's workloads: inputs made from a seed, the CLI command, output checks.

Run as ``python3 bench/workloads.py WORKLOAD SEED UNIT OUT_DIR`` to make one
set-up unit: a fresh interpreter imports ``swarmbci.cli`` (which also compiles
and caches the package, so timed runs start warm) and writes that unit's input
files. Each unit is a pure function of (workload, seed).

The checks below read the outputs with this file's own code (the NSR header,
the CSV rows, the fold accuracies), not with the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Paper scale: 64 channels at 1 kHz, 200 trials, 3+3+3+4 s trial cycle.
PAPER_SUBJECT = {"n_channels": 64, "fs_hz": 1000.0, "trials_per_class": 50,
                 "separability": 0.9}
DENSE_TIMING = {"rest_s": 0.5, "cue_s": 0.5, "fixation_s": 0.5, "imagery_s": 1.0}
DEFAULT_TIMING = {"rest_s": 3.0, "cue_s": 3.0, "fixation_s": 3.0, "imagery_s": 4.0}
#: Drones in the default swarm config, which the simulate workload uses.
N_DRONES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # swarmbci subcommand
    units: tuple[str, ...]       # set-up units; each is made by one fresh interpreter
    synth: dict = field(default_factory=dict)   # SynthConfig fields, seed excluded
    config: dict = field(default_factory=dict)  # --config sections given to the command
    jobs: int = 0                # evaluate --jobs
    behaviours: int = 0          # simulate sequence length
    min_accuracy: float = 0.0    # per-subject CV accuracy an evaluate output must reach

    @property
    def operations(self) -> int:
        """Operations per command: subjects evaluated, behaviours simulated or files written."""
        return {"evaluate": len(self.units), "simulate": self.behaviours}.get(self.command, 1)

    @property
    def timing(self) -> dict:
        return self.synth.get("timing", DEFAULT_TIMING)


WORKLOADS = {w.name: w for w in (
    Workload("fullscale_evaluate", "evaluate", ("subject01", "subject02"),
             synth=PAPER_SUBJECT, jobs=2, min_accuracy=0.90),
    Workload("decode_dense", "evaluate", ("subject01",),
             synth={"n_channels": 64, "fs_hz": 250.0, "trials_per_class": 200,
                    "separability": 0.3, "timing": DENSE_TIMING},
             config={"timing": DENSE_TIMING, "run": {"k_folds": 10}},
             jobs=1, min_accuracy=0.5),
    Workload("swarm_sequence", "simulate", ("sequence",), behaviours=200),
    Workload("synth_write", "synth", ("config",), synth=PAPER_SUBJECT),
)}


def subject_seed(seed: int, unit: str) -> int:
    return 100 * seed + int(unit[-2:]) - 1


def make_unit(w: Workload, seed: int, unit: str, out: Path) -> None:
    """Write the input files of one set-up unit into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if w.config:
        (out / "config.json").write_text(json.dumps(w.config, sort_keys=True), encoding="utf-8")
    if w.command == "evaluate":
        from swarmbci.recording import ParadigmTiming, save_recording
        from swarmbci.synth import SynthConfig, generate_subject

        cfg = SynthConfig(**{**w.synth, "timing": ParadigmTiming(**w.timing)},
                          seed=subject_seed(seed, unit))
        save_recording(generate_subject(cfg, subject_id=unit), out / f"{unit}.nsr")
    elif w.command == "simulate":
        # Equal counts of the four codes, shuffled: the seed varies the order
        # while the total step count stays within a few percent across seeds.
        codes = [1 + i % 4 for i in range(w.behaviours)]
        random.Random(seed).shuffle(codes)
        (out / "sequence.json").write_text(json.dumps({"predicted_labels": codes}),
                                           encoding="utf-8")
    else:
        doc = {"synth": {**w.synth, "seed": 100 * seed}}
        (out / "config.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def command(w: Workload, seed: int, inputs: Path, out: Path) -> list[str]:
    """Arguments of the ``swarmbci`` CLI call that the workload times."""
    config = ["--config", str(inputs / "config.json")] if w.config else []
    if w.command == "evaluate":
        return ["evaluate", *(str(inputs / f"{u}.nsr") for u in w.units), *config,
                "--out", str(out / "summary.json"), "--seed", str(seed), "--jobs", str(w.jobs)]
    if w.command == "simulate":
        return ["simulate", "--predictions", str(inputs / "sequence.json"), "--out", str(out)]
    return ["synth", "--config", str(inputs / "config.json"), "--out", str(out),
            "--subjects", "1"]


@dataclass
class Outcome:
    """Checked result of one command: operations attempted and failed, work done."""

    attempted: int
    failures: list[str]               # messages; a whole-output failure fails every operation
    failed: int = 0
    work: float = 0.0                 # trials cross-validated, steps simulated or MB written
    accuracy: float | None = None     # grand-mean CV accuracy (evaluate)


def read_nsr_header(path: Path) -> tuple[dict, int]:
    """(JSON header, payload bytes) of an NSR file, read independently of swarmbci."""
    with open(path, "rb") as fh:
        if fh.readline() != b"NSR1\n":
            raise ValueError(f"{path.name}: bad magic")
        header = json.loads(fh.readline())
        return header, path.stat().st_size - fh.tell()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_evaluate(w: Workload, inputs: Path, out: Path) -> Outcome:
    outcome = Outcome(w.operations, [])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    per_subject = summary["per_subject"]
    for unit in w.units:
        header, _ = read_nsr_header(inputs / f"{unit}.nsr")
        r = per_subject.get(unit)
        problem = None
        if r is None:
            problem = "missing from the summary"
        elif r["true_labels"] != [code for _, code in header["markers"]]:
            problem = "true labels differ from the file's markers"
        elif len(r["predicted_labels"]) != len(r["true_labels"]):
            problem = "one prediction per trial expected"
        else:
            k = len(r["per_fold_accuracy"])
            folds = [[p == t for p, t, f in zip(r["predicted_labels"], r["true_labels"],
                                               r["fold_of_trial"]) if f == fold]
                     for fold in range(k)]
            acc = [sum(hits) / len(hits) for hits in folds]
            if any(abs(a - b) > 1e-12 for a, b in zip(acc, r["per_fold_accuracy"])) \
                    or abs(sum(acc) / k - r["mean_accuracy"]) > 1e-12:
                problem = "fold accuracies do not match the predictions"
            elif r["mean_accuracy"] < w.min_accuracy:
                problem = f"accuracy {r['mean_accuracy']:.4f} < {w.min_accuracy}"
        if problem:
            outcome.failures.append(f"{unit}: {problem}")
            outcome.failed += 1
        else:
            outcome.work += len(r["predicted_labels"])
    means = [per_subject[u]["mean_accuracy"] for u in w.units if u in per_subject]
    if (len(per_subject) != len(w.units)
            or abs(sum(means) / len(means) - summary["grand_mean"]) > 1e-12):
        outcome.failures.append("grand_mean is not the mean of the subjects")
        outcome.failed = outcome.attempted
    outcome.accuracy = summary["grand_mean"]
    return outcome


def _check_simulate(w: Workload, inputs: Path, out: Path) -> Outcome:
    codes = json.loads((inputs / "sequence.json").read_text(encoding="utf-8"))["predicted_labels"]
    outcome = Outcome(len(codes), [])
    timeline = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["timeline"]
    for i, code in enumerate(codes):
        entry = timeline[i] if i < len(timeline) else None
        problem = None
        if entry is None:
            problem = "missing from metrics.json"
        elif entry["code"] != code or not entry["converged"]:
            problem = f"code {entry['code']} (expected {code}), converged={entry['converged']}"
        else:
            with open(out / entry["trajectory_file"], "rb") as fh:
                rows = fh.read().count(b"\n") - 1
            if rows != (entry["steps"] + 1) * N_DRONES:
                problem = f"{rows} CSV rows, expected ({entry['steps']}+1)x{N_DRONES}"
        if problem:
            outcome.failures.append(f"behaviour {i}: {problem}")
            outcome.failed += 1
        else:
            outcome.work += entry["steps"]
    if len(timeline) != len(codes):
        outcome.failures.append(f"{len(timeline)} behaviours simulated, {len(codes)} given")
        outcome.failed = outcome.attempted
    return outcome


def _check_synth(w: Workload, out: Path) -> Outcome:
    outcome = Outcome(w.operations, [])
    manifest = json.loads((out / "synth_manifest.json").read_text(encoding="utf-8"))
    entry = manifest["subjects"][0]
    path = out / entry["file"]
    header, payload = read_nsr_header(path)
    t = w.timing
    n_trials = 4 * w.synth["trials_per_class"]
    n_samples = n_trials * round((t["rest_s"] + t["cue_s"] + t["fixation_s"] + t["imagery_s"])
                                 * w.synth["fs_hz"])
    if sha256_file(path) != entry["sha256"]:
        outcome.failures.append(f"{path.name}: sha256 differs from the manifest")
    elif len(header["markers"]) != n_trials:
        outcome.failures.append(
            f"{path.name}: {len(header['markers'])} markers, expected {n_trials}")
    elif (len(header["channels"]) != w.synth["n_channels"] or header["n_samples"] != n_samples
          or payload != 4 * n_samples * w.synth["n_channels"]):
        outcome.failures.append(f"{path.name}: shape or payload size is wrong")
    else:
        outcome.work = path.stat().st_size / 1e6
    outcome.failed = len(outcome.failures)
    return outcome


def check(w: Workload, inputs: Path, out: Path, returncode: int) -> Outcome:
    """Check one command's outputs; never raises.

    A failed per-operation check fails that operation. A command that exits
    non-zero or leaves unreadable output fails all of its operations.
    """
    try:
        if returncode != 0:
            raise RuntimeError(f"exit code {returncode}")
        if w.command == "evaluate":
            return _check_evaluate(w, inputs, out)
        if w.command == "simulate":
            return _check_simulate(w, inputs, out)
        return _check_synth(w, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            RuntimeError) as exc:
        return Outcome(w.operations, [f"command failed or its output is unreadable: {exc!r}"],
                       failed=w.operations)


def main(argv) -> int:
    name, seed, unit, out = argv
    import swarmbci.cli  # noqa: F401  -- warm start: compiles and caches the package

    make_unit(WORKLOADS[name], int(seed), unit, Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
