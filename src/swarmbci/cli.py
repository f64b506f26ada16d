"""Command-line orchestration: synth, evaluate, simulate, pipeline."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import swarmbci
from swarmbci.config import RunConfig, dataclass_from_dict, load_config_file
from swarmbci.evaluate import CvResult, evaluate_recording, summarize_group
from swarmbci.recording import ParadigmTiming, open_recording, save_recording
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _synth_config_from_dict(d: dict) -> SynthConfig:
    d = dict(d)
    if "timing" in d:
        d["timing"] = dataclass_from_dict(ParadigmTiming, d["timing"], "timing")
    return dataclass_from_dict(SynthConfig, d, "synth")


def _swarm_config_from_dict(d: dict) -> SwarmConfig:
    d = dict(d)
    if "arena" in d:
        d["arena"] = tuple(d["arena"])
    return dataclass_from_dict(SwarmConfig, d, "swarm")


def _load_sections(config_path) -> dict:
    return load_config_file(config_path) if config_path else {}


def cmd_synth(args) -> int:
    sections = _load_sections(args.config)
    base = _synth_config_from_dict(sections.get("synth", {}))
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    if args.subjects < 1:
        raise ValueError("--subjects must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(args.subjects):
        cfg = dataclasses.replace(base, seed=base.seed + i)
        subject_id = f"subject{i + 1:02d}"
        rec = generate_subject(cfg, subject_id=subject_id)
        path = out / f"{subject_id}.nsr"
        with _atomic_path(path) as tmp:
            save_recording(rec, tmp)
        entries.append({
            "subject_id": subject_id,
            "file": path.name,
            "seed": cfg.seed,
            "separability": cfg.separability,
            "sha256": _sha256_file(path),
        })
    manifest = {"subjects": entries, "n_subjects": args.subjects}
    text = _dump_json(manifest)
    _write_text_atomic(out / "synth_manifest.json", text)
    sys.stdout.write(text)
    return 0


def _timing_from_sections(sections: dict) -> ParadigmTiming:
    return dataclass_from_dict(ParadigmTiming, sections.get("timing", {}), "timing")


def _evaluate_one(path: str, config: RunConfig, timing: ParadigmTiming) -> tuple[str, CvResult]:
    rec = open_recording(path)
    return rec.subject_id, evaluate_recording(rec, config, timing)


def _run_evaluation(paths, config: RunConfig, timing: ParadigmTiming,
                    jobs: int) -> dict[str, CvResult]:
    results: dict[str, CvResult] = {}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        calls = [pool.submit(_evaluate_one, str(p), config, timing).result if jobs > 1
                 else partial(_evaluate_one, str(p), config, timing) for p in paths]
        for path, call in zip(paths, calls):
            try:
                subject_id, result = call()
            except Exception as exc:
                raise RuntimeError(f"evaluation of {path} failed: {exc}") from exc
            if subject_id in results:
                raise ValueError(f"duplicate subject_id {subject_id!r} across input files")
            results[subject_id] = result
    return results


def cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    sections = _load_sections(args.config)
    config = RunConfig.from_dict(sections.get("run", {}))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    results = _run_evaluation(args.nsr, config, _timing_from_sections(sections), args.jobs)
    summary = summarize_group(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    text = _dump_json(summary.to_dict())
    _write_text_atomic(out, text)
    sys.stdout.write(
        f"grand_mean={summary.grand_mean:.4f} grand_std={summary.grand_std:.4f} "
        f"subjects={len(results)}\n"
    )
    return 0


def _simulate_sequence(codes, swarm_cfg: SwarmConfig, out: Path) -> list[str]:
    """Run behaviors in order from the previous final state; returns emitted files."""
    for code in codes:
        behavior_name(code)  # validate before any output
    out.mkdir(parents=True, exist_ok=True)
    state = init_swarm(swarm_cfg)
    timeline = []
    files = []
    for idx, code in enumerate(codes):
        name = behavior_name(code)
        state = set_behavior(state, name, swarm_cfg, seed=swarm_cfg.seed + idx)
        state, trajectory, steps = run_until_converged(state, swarm_cfg)
        fname = f"trajectory_{idx:03d}_{name.lower()}.csv"
        with _atomic_path(out / fname) as tmp:
            save_trajectory_csv(trajectory, tmp)
        files.append(fname)
        timeline.append({
            "index": idx,
            "code": int(code),
            "behavior": name,
            "steps": steps,
            "converged": converged(state),
            "trajectory_file": fname,
            "metrics": metrics(state, swarm_cfg).to_dict(),
        })
    _write_text_atomic(out / "metrics.json", _dump_json({"timeline": timeline}))
    files.append("metrics.json")
    return files


def _sequence_from_args(args) -> list[int]:
    if args.sequence and args.predictions:
        raise ValueError("give either --sequence or --predictions, not both")
    if args.sequence:
        return [int(tok) for tok in args.sequence.replace(" ", "").split(",") if tok]
    if args.predictions:
        with open(args.predictions, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "predicted_labels" not in doc:
            raise ValueError(f"{args.predictions}: no 'predicted_labels' key")
        return [int(v) for v in doc["predicted_labels"]]
    raise ValueError("a behavior sequence is required (--sequence or --predictions)")


def cmd_simulate(args) -> int:
    sections = _load_sections(args.config)
    swarm_cfg = _swarm_config_from_dict(sections.get("swarm", {}))
    if args.seed is not None:
        swarm_cfg = dataclasses.replace(swarm_cfg, seed=args.seed)
    codes = _sequence_from_args(args)
    if not codes:
        raise ValueError("behavior sequence must be nonempty")
    _simulate_sequence(codes, swarm_cfg, Path(args.out))
    return 0


def cmd_pipeline(args) -> int:
    sections = _load_sections(args.config)
    run_config = RunConfig.from_dict(sections.get("run", {}))
    swarm_cfg = _swarm_config_from_dict(sections.get("swarm", {}))
    if args.seed is not None:
        run_config = dataclasses.replace(run_config, seed=args.seed)
        swarm_cfg = dataclasses.replace(swarm_cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rec = open_recording(args.nsr)
    result = evaluate_recording(rec, run_config, _timing_from_sections(sections))
    files = ["cv_result.json", "predictions_fold0.json"]
    _write_text_atomic(out / "cv_result.json", _dump_json(result.to_dict()))

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
    sim_files = _simulate_sequence(fold0, swarm_cfg, sim_dir)
    files.extend(f"simulation/{f}" for f in sim_files)

    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "version": swarmbci.__version__,
        "subject_id": rec.subject_id,
        "config_fingerprint": run_config.fingerprint,
        "run_config": run_config.to_dict(),
        "swarm_config": {
            **dataclasses.asdict(swarm_cfg),
            "arena": list(swarm_cfg.arena),
        },
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic subjects as .nsr files")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="cross-validate decoders on .nsr recordings")
    p.add_argument("nsr", nargs="+", help="input .nsr files")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output GroupSummary JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="run swarm behaviors to convergence")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sequence", default=None, help="comma-separated codes, e.g. 4,3,2,1")
    p.add_argument("--predictions", default=None, help="JSON file with predicted_labels")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="evaluate one subject and simulate fold-0 predictions")
    p.add_argument("nsr", help="input .nsr file")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
