"""Self-tests of the benchmark. Run from the repository root::

    python3 -m pytest bench/selftest.py -q

The file name keeps them out of the repository's own test run; they take
about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, check, command, make_unit  # noqa: E402

SMALL_TIMING = {"rest_s": 0.25, "cue_s": 0.25, "fixation_s": 0.25, "imagery_s": 0.5}
SMALL_SUBJECT = {"n_channels": 8, "fs_hz": 128.0, "trials_per_class": 6, "separability": 0.9}

#: Each CLI command at a size that runs in a second or two.
SMALL = {
    "evaluate": dataclasses.replace(
        WORKLOADS["fullscale_evaluate"], synth={**SMALL_SUBJECT, "timing": SMALL_TIMING},
        config={"timing": SMALL_TIMING, "run": {"k_folds": 3}}, min_accuracy=0.0),
    "simulate": dataclasses.replace(WORKLOADS["swarm_sequence"], behaviours=4),
    "synth": dataclasses.replace(WORKLOADS["synth_write"],
                                 synth={**SMALL_SUBJECT, "trials_per_class": 2}),
}


def _span(sid, parent, layer, name, start, end, pid=1, rss=(0.0, 0.0)):
    return {"id": sid, "parent": parent, "pid": pid, "layer": layer,
            "name": f"{layer}.{name}", "start": start, "end": end,
            "rss_start_mb": rss[0], "rss_end_mb": rss[1], "counts": {}}


def test_self_time_arithmetic():
    spans = [
        _span("a", None, "cli", "main", 0.0, 10.0),
        _span("b", "a", "evaluate", "evaluate_recording", 1.0, 6.0, rss=(90.0, 200.0)),
        _span("c", "b", "dsp", "filter_channels", 2.0, 4.0, rss=(100.0, 150.0)),
        # A --jobs worker: overlaps its sibling and outlasts its parent.
        _span("d", "b", "cli", "_evaluate_one", 3.0, 8.0, pid=2),
        _span("e", "d", "recording", "load_recording", 3.5, 5.0, pid=2),
        _span("f", "a", "cli", "_dump_json", 7.0, 7.5),
        # One prediction through the public entry point, which calls the inner one.
        _span("g", "a", "decode", "predict", 8.0, 9.0),
        _span("h", "g", "decode", "_predict_from_scatter", 8.2, 8.8),
    ]
    own = layers.self_times(spans)
    expected = {"a": 10.0 - 5.0 - 0.5 - 1.0, "b": 5.0 - 4.0, "c": 2.0, "d": 5.0 - 1.5,
                "e": 1.5, "f": 0.5, "g": 1.0 - 0.6, "h": 0.6}
    assert own == pytest.approx(expected)

    m = layers.layer_metrics(spans, import_s=1.25, untraced_wall_s=10.0, traced_wall_s=10.5,
                             jobs=2)
    assert m["cli.self_s"] == pytest.approx(3.5 + 3.5 + 0.5)
    assert m["cli.calls"] == 3
    assert m["evaluate.self_s"] == pytest.approx(1.0)
    assert m["dsp.self_s"] == m["dsp.filter_s"] == pytest.approx(2.0)
    assert m["dsp.source_filter_s"] == 0.0
    assert m["recording.self_s"] == m["recording.load_s"] == pytest.approx(1.5)
    assert m["decode.predictions"] == 1 and m["decode.calls"] == 2
    assert m["decode.self_s"] == m["decode.predict_s"] == pytest.approx(1.0)
    assert m["evaluate.rss_highwater_mb"] == pytest.approx(110.0)
    assert m["dsp.rss_highwater_mb"] == pytest.approx(50.0)
    assert m["cli.jobs_efficiency"] == pytest.approx(5.0 / (2 * 10.0))
    assert m["cli.import_s"] == 1.25
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert set(m) == {p["name"] for p in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("w", [WORKLOADS["decode_dense"], WORKLOADS["swarm_sequence"],
                               WORKLOADS["synth_write"], SMALL["evaluate"]],
                         ids=["decode_dense", "swarm_sequence", "synth_write", "small_evaluate"])
def test_inputs_are_a_pure_function_of_the_seed(tmp_path, w):
    made = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        for unit in w.units:
            make_unit(w, seed, unit, tmp_path / label)
        made[label] = _files(tmp_path / label)
    assert made["a"] == made["b"]
    assert made["a"].keys() == made["c"].keys()
    assert made["a"] != made["c"]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_run_writes_the_same_outputs(tmp_path, kind):
    w, seed = SMALL[kind], 7
    inputs = tmp_path / "inputs"
    for unit in w.units:
        make_unit(w, seed, unit, inputs)

    plain, traced, spans = tmp_path / "plain", tmp_path / "traced", tmp_path / "spans"
    rc, _, _ = run.run_process([sys.executable, "-m", "swarmbci.cli",
                                *command(w, seed, inputs, plain)], tmp_path / "plain.log")
    assert rc == 0
    rc, _, _ = run.run_process([sys.executable, str(BENCH / "tracer.py"), str(spans), "--",
                                *command(w, seed, inputs, traced)], tmp_path / "traced.log")
    assert rc == 0
    assert run.output_digest(plain) == run.output_digest(traced)
    for out in (plain, traced):
        outcome = check(w, inputs, out, 0)
        assert outcome.failures == [] and outcome.attempted == w.operations

    records = run.read_spans(spans)
    assert all(r["end"] >= r["start"] for r in records)
    m = layers.layer_metrics(records, 1.0, 1.0, 1.0, w.jobs if kind == "evaluate" else 0)
    if kind == "evaluate":
        subjects = [r for r in records if r["name"] == "cli._evaluate_one"]
        main_pid = json.loads((spans / "meta.json").read_text())["pid"]
        assert len(subjects) == 2 and all(r["pid"] != main_pid for r in subjects)
        ids = {r["id"] for r in records}
        assert all(r["parent"] in ids for r in subjects)
        assert m["recording.trials"] == 48 and m["decode.predictions"] == 48
        assert m["csp.features_calls"] > 0
        assert 0.0 < m["dsp.useful_sample_ratio"] < 1.0
    elif kind == "simulate":
        assert m["swarm.steps"] > 0 and m["swarm.csv_mb"] > 0
    else:
        assert m["synth.generate_s"] > 0 and m["dsp.source_filter_s"] > 0
        assert m["dsp.filter_s"] == 0.0 and m["recording.written_mb"] > 0
