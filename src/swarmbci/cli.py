"""Command-line orchestration: synth, evaluate, simulate, pipeline."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

import swarmbci
from swarmbci.config import RunConfig, dataclass_from_dict, json_type_matches
from swarmbci.evaluate import (CvResult, evaluate_recording, fork_map, forked, summarize_group,
                               usable_cpus)
from swarmbci.recording import ParadigmTiming, RecordingFile, open_recording, save_recording
from swarmbci.swarm import (
    SwarmConfig,
    behavior_name,
    converged,
    init_swarm,
    metrics,
    run_until_converged,
    save_trajectory_csv,
    set_behavior,
)
from swarmbci.synth import SynthConfig, generate_subject

#: Descriptors ``evaluate`` keeps free beside its open inputs: std streams, pipes, outputs.
_SPARE_FDS = 16


@contextlib.contextmanager
def _atomic_path(path: Path):
    """Yield a temp path beside ``path``; move it onto ``path`` if the body succeeds.

    It lies in a new, randomly named directory made with ``mkdir`` (which
    fails rather than reuse a name) and removed afterwards. The writer creates
    the file: it gets a plain ``open``'s mode, and ext4 does not flush it on
    close as it would a pre-created file the writer truncates.
    """
    tmp_dir = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    tmp_dir.mkdir()
    tmp = tmp_dir / path.name
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
        tmp_dir.rmdir()


def _write_text_atomic(path: Path, text: str) -> None:
    with _atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _dump_json(obj) -> str:
    """Canonical JSON of ``obj``; a dataclass in it is written as its fields."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=dataclasses.asdict)
    return text + "\n"


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class Config:
    """The sections of a ``--config`` file; each command reads the ones it uses."""

    run: RunConfig = dataclasses.field(default_factory=RunConfig)
    synth: SynthConfig = dataclasses.field(default_factory=SynthConfig)
    swarm: SwarmConfig = dataclasses.field(default_factory=SwarmConfig)
    timing: ParadigmTiming = dataclasses.field(default_factory=ParadigmTiming)


def load_config(args) -> Config:
    """The sections of the ``--config`` file, defaults without one; ``--seed`` sets every seed."""
    cfg = Config()
    if args.config:
        cfg = dataclass_from_dict(Config, _read_json(args.config), "", args.config)
    if args.seed is not None:
        try:
            run, synth, swarm = (dataclasses.replace(section, seed=args.seed)
                                 for section in (cfg.run, cfg.synth, cfg.swarm))
        except ValueError as exc:  # the seed's refusal, named by its flag
            raise ValueError(f"--{exc}") from exc
        cfg = Config(run, synth, swarm, cfg.timing)
    return cfg


def cmd_synth(args) -> int:
    base = load_config(args).synth
    if args.subjects < 1:
        raise ValueError("--subjects must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(args.subjects):
        cfg = dataclasses.replace(base, seed=base.seed + i)
        subject_id = f"subject{i + 1:02d}"
        path = out / f"{subject_id}.nsr"
        with _atomic_path(path) as tmp:
            digest = save_recording(generate_subject(cfg, subject_id=subject_id), tmp)
        entries.append({
            "subject_id": subject_id,
            "file": path.name,
            "seed": cfg.seed,
            "separability": cfg.separability,
            "sha256": digest,
        })
    text = _dump_json({"subjects": entries, "n_subjects": args.subjects})
    _write_text_atomic(out / "synth_manifest.json", text)
    sys.stdout.write(text)
    return 0


def _evaluate_one(rec: RecordingFile, config: RunConfig, timing: ParadigmTiming,
                  workers: int) -> CvResult:
    return evaluate_recording(rec, config, timing, workers=workers)


def _run_evaluation(paths, config: RunConfig, timing: ParadigmTiming,
                    jobs: int) -> dict[str, CvResult]:
    """Each file's result by its subject_id. Every file is opened here, once, and a
    duplicate id refused, before any subject is evaluated; the subject processes read
    through the descriptors they inherit. A failure names the first failing file. A soft
    open-file limit too low for the inputs is raised to the hard one, or the run refused."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    need, unlimited = len(paths) + _SPARE_FDS, resource.RLIM_INFINITY
    if soft != unlimited and soft < need:
        if hard != unlimited and hard < need:
            raise ValueError(f"evaluate holds its {len(paths)} input files open at once, but "
                             f"the open-file limit is {hard}, below the {need} this needs")
        resource.setrlimit(resource.RLIMIT_NOFILE, (need if hard == unlimited else hard, hard))
    per_subject = max(1, usable_cpus() // min(jobs, len(paths)))  # the subjects split the CPUs

    def on_file(i: int, call, *args):  # call(*args) for file i; its failure names the file
        try:
            return call(*args)
        except Exception as exc:
            raise RuntimeError(f"evaluation of {paths[i]} failed: {exc}") from exc

    recs: dict[str, RecordingFile] = {}
    for i, path in enumerate(paths):
        rec = on_file(i, open_recording, str(path))
        if rec.subject_id in recs:
            raise ValueError(f"duplicate subject_id {rec.subject_id!r} across input files")
        recs[rec.subject_id] = rec
    opened = list(recs.values())
    results = fork_map(lambda i: on_file(i, _evaluate_one, opened[i], config, timing, per_subject),
                       len(paths), jobs, "subject")
    return dict(zip(recs, results))


def cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    cfg = load_config(args)
    results = _run_evaluation(args.nsr, cfg.run, cfg.timing, args.jobs)
    summary = summarize_group(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text_atomic(out, _dump_json(summary))
    sys.stdout.write(
        f"grand_mean={summary.grand_mean:.4f} grand_std={summary.grand_std:.4f} "
        f"subjects={len(results)}\n"
    )
    return 0


def _write_trajectories(conn) -> None:
    """The writer process: write each ``(trajectory, path)`` received on ``conn`` as its CSV.

    Writes run in order, atomically, until None arrives; then the writer answers
    once, with None. A failed write is answered at once with its exception, and
    the writer returns without writing more. ``forked`` leaves the writer no copy of
    the parent's end, so once the parent closes it or dies, the writer writes what the
    pipe holds and returns at EOF (or when it cannot answer); the writer ignores SIGINT,
    so a Ctrl-C reaches the parent, which then waits for the writes already sent.
    """
    error = None
    for trajectory, path in iter(conn.recv, None):
        try:
            with _atomic_path(path) as tmp:
                save_trajectory_csv(trajectory, tmp)
        except Exception as exc:
            error = exc
            break
    conn.send(error)


def _simulate_sequence(codes, swarm_cfg: SwarmConfig, out: Path) -> list[str]:
    """Run behaviors in order from the previous final state; returns emitted files.

    One forked writer process writes each trajectory CSV while this process
    steps the next behavior; ``metrics.json`` is written after every CSV.
    """
    names = [behavior_name(code) for code in codes]  # validate before any output
    out.mkdir(parents=True, exist_ok=True)
    state = init_swarm(swarm_cfg)
    timeline = []
    # No other thread runs in this process, so the fork copies no lock that a thread holds.
    with forked(_write_trajectories, 1) as (conn,):
        try:
            for idx, (code, name) in enumerate(zip(codes, names)):
                try:
                    state = set_behavior(state, name, swarm_cfg, seed=swarm_cfg.seed + idx)
                    state, trajectory, steps = run_until_converged(state, swarm_cfg)
                except ValueError as exc:
                    raise ValueError(f"behaviour {idx} ({name}): {exc}") from exc
                fname = f"trajectory_{idx:03d}_{name.lower()}.csv"
                conn.send((trajectory, out / fname))  # waits while the pipe is full
                timeline.append({
                    "index": idx,
                    "code": int(code),
                    "behavior": name,
                    "steps": steps,
                    "converged": converged(state),
                    "trajectory_file": fname,
                    "metrics": metrics(state, swarm_cfg),
                })
        finally:
            # The writer answers once, after every write it made, and a failed write is
            # raised before the error of any later behavior. A Ctrl-C may cut a send short,
            # which the writer cannot read past: then it writes what it has and sees EOF.
            error = None
            try:
                if not isinstance(sys.exc_info()[1], KeyboardInterrupt):
                    with contextlib.suppress(OSError):  # the writer returned; its answer says why
                        conn.send(None)
                    error = conn.recv()
            except (EOFError, OSError) as exc:  # only the writer's exit closes its end
                raise RuntimeError("the trajectory CSV writer process exited before "
                                   "writing every CSV") from exc
            if error is not None:
                raise error
    _write_text_atomic(out / "metrics.json", _dump_json({"timeline": timeline}))
    return [entry["trajectory_file"] for entry in timeline] + ["metrics.json"]


def _sequence_from_args(args) -> list[int]:
    if args.sequence and args.predictions:
        raise ValueError("give either --sequence or --predictions, not both")
    if args.sequence:
        try:
            return [int(tok) for tok in args.sequence.replace(" ", "").split(",") if tok]
        except ValueError as exc:  # int()'s message names the token
            raise ValueError(f"--sequence: {exc}") from None
    if args.predictions:
        doc = _read_json(args.predictions)
        labels = doc.get("predicted_labels") if isinstance(doc, dict) else None
        if not json_type_matches(labels, (0,)):
            raise ValueError(
                f"{args.predictions}: 'predicted_labels' must be a list of ints, got {labels!r}")
        return list(labels)
    raise ValueError("a behavior sequence is required (--sequence or --predictions)")


def cmd_simulate(args) -> int:
    swarm_cfg = load_config(args).swarm
    codes = _sequence_from_args(args)
    if not codes:
        raise ValueError("behavior sequence must be nonempty")
    _simulate_sequence(codes, swarm_cfg, Path(args.out))
    return 0


def cmd_pipeline(args) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rec = open_recording(args.nsr)
    result = evaluate_recording(rec, cfg.run, cfg.timing)
    files = ["cv_result.json", "predictions_fold0.json"]
    _write_text_atomic(out / "cv_result.json", _dump_json(result))

    fold0 = [result.predicted_labels[i]
             for i, f in enumerate(result.fold_of_trial) if f == 0]
    predictions = {
        "subject_id": rec.subject_id,
        "fold": 0,
        "predicted_labels": fold0,
        "config_fingerprint": result.config_fingerprint,
    }
    _write_text_atomic(out / "predictions_fold0.json", _dump_json(predictions))

    sim_dir = out / "simulation"
    sim_files = _simulate_sequence(fold0, cfg.swarm, sim_dir)
    files.extend(f"simulation/{f}" for f in sim_files)

    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "version": swarmbci.__version__,
        "subject_id": rec.subject_id,
        "config_fingerprint": cfg.run.fingerprint,
        "run_config": cfg.run,
        "swarm_config": cfg.swarm,
        "files": sorted(files),
    }
    _write_text_atomic(out / "manifest.json", _dump_json(manifest))
    sys.stdout.write(f"pipeline complete: {out / 'manifest.json'}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmbci",
        description="EEG command decoding driving a 2D drone swarm simulator",
    )
    shared = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    shared.add_argument("--config", default=None, help="JSON config file")
    shared.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[shared], help="generate synthetic subjects as .nsr files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subjects", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="cross-validate decoders on .nsr recordings")
    p.add_argument("nsr", nargs="+", help="input .nsr files")
    p.add_argument("--out", required=True, help="output GroupSummary JSON path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[shared], help="run swarm behaviors to convergence")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sequence", default=None, help="comma-separated codes, e.g. 4,3,2,1")
    p.add_argument("--predictions", default=None, help="JSON file with predicted_labels")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", parents=[shared],
                       help="evaluate one subject and simulate fold-0 predictions")
    p.add_argument("nsr", help="input .nsr file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main() -> int:
    """The ``swarmbci`` command: ``main``, then an exit without the final GC pass.

    ``gc.freeze`` moves every object to the permanent generation, so interpreter
    shutdown does not walk the objects the imports leave behind: ~24k after
    ``synth``, a 6–8 ms pass.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
