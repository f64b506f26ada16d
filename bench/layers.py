"""Per-layer numbers from the spans of one traced run.

A span is a dict with ``id``, ``parent`` (id or None), ``pid``, ``name``
(``<layer>.<function>``), ``layer``, ``start``/``end`` (``time.perf_counter``, which is
system-wide on Linux, so spans of ``--jobs`` workers share the time base),
``rss_start_mb``/``rss_end_mb`` (the process's peak RSS so far) and ``counts``.

Layers are the package's modules. Only stdlib is imported here, because the
tracer imports this module before ``swarmbci`` and must not pull in NumPy
ahead of the timed import.
"""

from __future__ import annotations

import os

LAYERS = ("recording", "dsp", "csp", "decode", "evaluate", "synth", "swarm", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


#: Counts recorded at a boundary, keyed by span name: f(args, kwargs, result).
COUNTERS = {
    "recording.load_recording": lambda a, k, r: {"read_mb": _size_mb(_arg(a, k, 0, "path"))},
    "recording.save_recording": lambda a, k, r: {"written_mb": _size_mb(_arg(a, k, 1, "path"))},
    "recording.extract_trials": lambda a, k, r: {
        "trials": len(r), "trial_samples": sum(t.samples.size for t in r.trials)},
    "dsp.filter_channels": lambda a, k, r: {"filtered_samples": r.size},
    "swarm.run_until_converged": lambda a, k, r: {"steps": r[2]},
    "swarm.save_trajectory_csv": lambda a, k, r: {"csv_mb": _size_mb(_arg(a, k, 1, "path"))},
}

#: Span names whose outermost occurrences make up each timed metric.
TIMED = {
    "recording.load_s": {"recording.load_recording"},
    "recording.save_s": {"recording.save_recording"},
    "recording.epoch_s": {"recording.extract_trials"},
    "csp.scatter_s": {"csp.trial_scatter"},
    "csp.features_s": {"csp.features_from_scatter", "csp.csp_features"},
    "csp.fit_s": {"csp.fit_csp_matrices", "csp.fit_csp", "csp._mean_normalized",
                  "csp.class_mean_covariance"},
    "decode.fit_s": {"decode._fit_decoder_from_scatters", "decode.fit_decoder", "decode.fit_lda"},
    "decode.predict_s": {"decode._predict_from_scatter", "decode.predict"},
    "synth.generate_s": {"synth.generate_subject"},
    "swarm.converge_s": {"swarm.run_until_converged"},
    "swarm.assign_s": {"swarm.set_behavior"},
    "swarm.csv_s": {"swarm.save_trajectory_csv"},
    "swarm.metrics_s": {"swarm.metrics"},
}

#: Span names whose outermost occurrences are counted.
CALLED = {
    "csp.scatter_calls": {"csp.trial_scatter"},
    "csp.features_calls": {"csp.features_from_scatter"},
    "decode.predictions": {"decode._predict_from_scatter", "decode.predict"},
}

#: Sums of boundary counts (see COUNTERS), with a scale.
SUMMED = {
    "recording.read_mb": ("read_mb", 1.0),
    "recording.written_mb": ("written_mb", 1.0),
    "recording.trials": ("trials", 1.0),
    "dsp.filtered_msamples": ("filtered_samples", 1e-6),
    "swarm.steps": ("steps", 1.0),
    "swarm.csv_mb": ("csv_mb", 1.0),
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_msamples", "Msamples"),
                         ("_ratio", "fraction"), ("_efficiency", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _interval_union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the part of its interval its child spans cover.

    Children may overlap each other (``--jobs`` workers run in parallel under
    one parent) or outlast the parent, so the covered part is the union of the
    children's intervals clipped to the parent's.
    """
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        covered = _interval_union((a, b) for a, b in clipped if b > a)
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


class SpanIndex:
    """Ancestry queries over one run's spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}

    def ancestors(self, span, same_pid: bool = False):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if same_pid and parent["pid"] != span["pid"]:
                return
            yield parent
            parent = self.by_id.get(parent["parent"])

    def outermost(self, predicate, same_pid: bool = False):
        """Spans matching ``predicate`` with no matching ancestor."""
        return [s for s in self.spans if predicate(s)
                and not any(predicate(a) for a in self.ancestors(s, same_pid))]

    def nearest_other_layer(self, span):
        return next((a["layer"] for a in self.ancestors(span) if a["layer"] != span["layer"]),
                    None)


def _duration(spans) -> float:
    return float(sum(s["end"] - s["start"] for s in spans))


def layer_metrics(spans, import_s: float, untraced_wall_s: float, traced_wall_s: float,
                  jobs: int) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced run's spans.

    ``jobs`` is the command's ``--jobs`` for evaluate workloads and 0
    otherwise; ``cli.jobs_efficiency`` is 0 where no subject is evaluated.
    """
    index = SpanIndex(spans)
    spans = index.spans
    own = self_times(spans)
    m: dict[str, float] = {}

    for name, span_names in TIMED.items():
        m[name] = _duration(index.outermost(lambda s, n=span_names: s["name"] in n))
    for name, span_names in CALLED.items():
        m[name] = float(len(index.outermost(lambda s, n=span_names: s["name"] in n)))
    for name, (key, scale) in SUMMED.items():
        m[name] = scale * sum(s["counts"].get(key, 0) for s in spans)

    dsp_outer = index.outermost(lambda s: s["layer"] == "dsp")
    for_synth = [s for s in dsp_outer if index.nearest_other_layer(s) == "synth"]
    m["dsp.source_filter_s"] = _duration(for_synth)
    m["dsp.filter_s"] = _duration(dsp_outer) - m["dsp.source_filter_s"]
    filtered = sum(s["counts"].get("filtered_samples", 0) for s in spans)
    useful = sum(s["counts"].get("trial_samples", 0) for s in spans)
    m["dsp.useful_sample_ratio"] = useful / filtered if filtered else 0.0
    m["csp.clamped_variances"] = float(sum(s["counts"].get("runtime_warnings", 0)
                                           for s in spans if s["layer"] == "csp"))

    m["cli.import_s"] = import_s
    per_subject = _duration(s for s in spans if s["name"] == "cli._evaluate_one")
    m["cli.jobs_efficiency"] = per_subject / (jobs * untraced_wall_s) if jobs else 0.0

    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        m[f"{layer}.self_s"] = sum((own[s["id"]] for s in mine), 0.0)
        m[f"{layer}.calls"] = float(len(mine))
        rise_by_pid: dict[int, float] = {}
        for s in index.outermost(lambda s, L=layer: s["layer"] == L, same_pid=True):
            rise_by_pid[s["pid"]] = (rise_by_pid.get(s["pid"], 0.0)
                                     + s["rss_end_mb"] - s["rss_start_mb"])
        m[f"{layer}.rss_highwater_mb"] = max(rise_by_pid.values(), default=0.0)

    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return m
