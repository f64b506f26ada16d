"""Benchmark of the swarmbci CLI: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Each run makes the workload's inputs from ``--seed`` (set-up), then launches
the workload's ``swarmbci`` command, each time in a fresh interpreter, until
``--seconds`` have passed, and checks every output. With ``--trace 1`` it then
runs the same command once more under ``bench/tracer.py`` and turns the spans
into per-layer metrics. See bench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from layers import layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, Workload, check, command, sha256_file  # noqa: E402

#: Set-up units are repeated until this many have been timed.
SETUP_TIMINGS = 3
#: One command may not run longer than this.
COMMAND_TIMEOUT_S = 100
#: BLAS and OpenMP threads of every process the benchmark starts.
BLAS_THREADS = "1"

#: The bounded end-to-end metrics, which every workload reports.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Work per second, by command. Printed, not bounded: the work of a run is
#: fixed, or nearly so, by the workload, so it moves exactly as wall_s does.
THROUGHPUT = {"evaluate": ("trials_per_s", "trials/s"),
              "simulate": ("swarm_steps_per_s", "steps/s"),
              "synth": ("write_mb_per_s", "MB/s")}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``argv`` to its exit: (exit code, wall seconds, peak RSS MB).

    The peak RSS is the largest of the process and every descendant it waited
    for (``--jobs`` workers), as ``wait4`` reports it.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def set_up(w: Workload, seed: int, inputs: Path, scratch: Path, report) -> list[float]:
    """Make the inputs; every unit made again must give identical files."""
    timings = []
    while len(timings) < max(SETUP_TIMINGS, len(w.units)):
        unit = w.units[len(timings) % len(w.units)]
        again = len(timings) >= len(w.units)
        out = scratch / unit if again else inputs
        before = set(os.listdir(out)) if out.exists() else set()
        argv = [sys.executable, str(BENCH / "workloads.py"), w.name, str(seed), unit, str(out)]
        rc, wall, _ = run_process(argv, scratch.parent / f"setup-{len(timings)}.log")
        if rc != 0:
            raise RuntimeError(f"set-up unit {unit} exited with {rc}")
        timings.append(wall)
        if again:
            for name in sorted(set(os.listdir(out)) - before):
                if not filecmp.cmp(out / name, inputs / name, shallow=False):
                    report(f"set-up unit {unit}: {name} differs when made again from the same seed")
            shutil.rmtree(out)
    return timings


def flush_to_disk(directory: Path) -> None:
    """fsync the inputs, so their writeback does not overlap the timed commands."""
    for path in sorted(directory.iterdir()):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def output_digest(directory: Path) -> dict:
    """File name -> content of an output tree: parsed JSON without ``created_at``,
    else the sha256. Two runs wrote the same outputs if their digests are equal."""
    digest = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            digest[path.name] = "not a file"
        elif path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(doc, dict):
                doc.pop("created_at", None)
            digest[path.name] = doc
        else:
            digest[path.name] = sha256_file(path)
    return digest


def read_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / "_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, scratch = work / "inputs", work / "scratch"
    scratch.mkdir(parents=True)
    failures: list[str] = []

    def report(msg: str) -> None:
        failures.append(msg)
        print(f"FAIL {w.name} seed={seed}: {msg}", flush=True)

    attempted = failed = 0
    reps = []
    untraced_digest = None
    try:
        setup_times = set_up(w, seed, inputs, scratch, report)
        flush_to_disk(inputs)
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            out, log = work / f"out{len(reps)}", work / f"rep{len(reps)}.log"
            rc, wall, rss = run_process([sys.executable, "-m", "swarmbci.cli",
                                         *command(w, seed, inputs, out)], log)
            outcome = check(w, inputs, out, rc)
            attempted, failed = attempted + outcome.attempted, failed + outcome.failed
            for msg in outcome.failures:
                report(msg)
            if trace and not reps and rc == 0 and not outcome.failures:
                untraced_digest = output_digest(out)
            reps.append({"wall_s": wall, "peak_rss_mb": rss, "work": outcome.work,
                         "accuracy": outcome.accuracy})
            # Deleting at once also drops the written pages before they are
            # flushed, so the next command does not wait on this one's writeback.
            shutil.rmtree(out, ignore_errors=True)
        result = {
            "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "setup_s_each": setup_times, "reps": reps,
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            THROUGHPUT[w.command][0]: statistics.median(r["work"] / r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "cv_accuracy": reps[0]["accuracy"],
        }
        if trace:
            span_dir = work / "spans"
            out = work / "traced"
            rc, wall, rss = run_process([sys.executable, str(BENCH / "tracer.py"), str(span_dir),
                                         "--", *command(w, seed, inputs, out)], work / "traced.log")
            outcome = check(w, inputs, out, rc)
            attempted, failed = attempted + outcome.attempted, failed + outcome.failed
            for msg in outcome.failures:
                report(f"traced run: {msg}")
            differ = []
            if rc == 0 and untraced_digest is not None:
                traced_digest = output_digest(out)
                differ = sorted(name for name in {*untraced_digest, *traced_digest}
                                if untraced_digest.get(name) != traced_digest.get(name))
            shutil.rmtree(out, ignore_errors=True)
            if differ:
                failed += outcome.attempted - outcome.failed
                report(f"traced outputs differ from untraced ones: {differ}")
            spans = read_spans(span_dir)
            meta = json.loads((span_dir / "meta.json").read_text(encoding="utf-8"))
            result["traced_wall_s"] = wall
            result["traced_peak_rss_mb"] = rss
            result["boundary_edges"] = meta["boundary_edges"]
            result["layers"] = layer_metrics(spans, meta["import_s"], result["wall_s"], wall,
                                             w.jobs if w.command == "evaluate" else 0)
            RESULTS.mkdir(exist_ok=True)
            with open(RESULTS / f"{w.name}-seed{seed}.spans.jsonl", "w", encoding="utf-8") as fh:
                for span in sorted(spans, key=lambda s: s["start"]):
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=attempted, failed=failed, failures=failures,
                  correct=failed == 0 and not failures, machine=machine_facts())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "blas_threads": int(BLAS_THREADS)}
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            facts["mem_total_kb"] = int(fh.readline().split()[1])
    except OSError:
        pass
    return facts


def print_result(w: Workload, r: dict) -> None:
    """Every end-to-end metric of the workload, by name and unit."""
    rows = [(name, r[name], unit) for name, unit in
            [*END_TO_END_UNITS.items(), THROUGHPUT[w.command]]]
    if r["cv_accuracy"] is not None:
        rows.append(("cv_accuracy", r["cv_accuracy"], "fraction"))
    rows.append(("failed_frac", r["failed"] / max(r["attempted"], 1), "fraction"))
    for name, value, unit in rows:
        print(f"{w.name:20s} {name:20s} {value:14.6g} {unit}")
    for name, value in sorted(r.get("layers", {}).items()):
        print(f"{w.name:20s} {name:28s} {value:14.6g} {unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swarmbci" / "cli.py").is_file():
        sys.stderr.write(f"error: no swarmbci sources under {ROOT / 'src'}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        try:
            results[name] = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except (OSError, RuntimeError, ValueError, KeyError) as exc:
            sys.stderr.write(f"error: workload {name}: {exc!r}\n")
            return 1
        print_result(w, results[name])

    def metrics_of(r: dict) -> dict:
        if args.trace:
            return {k: {"value": v, "unit": unit_of(k)} for k, v in r["layers"].items()}
        return {k: {"value": r[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    if len(names) == 1:
        metrics = metrics_of(results[names[0]])
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in metrics_of(r).items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
