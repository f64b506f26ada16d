"""Traced run of one ``swarmbci`` CLI command, in this process.

Usage::

    python3 bench/tracer.py SPAN_DIR -- evaluate data/subject01.nsr --out s.json

After ``swarmbci.cli`` is imported (and the import timed), every module-level
function of the package is replaced, in its own module and in every package
module that imported it, by a wrapper that records a span
``<layer>.<function>``. The layer is the module that defines the function.
Spans therefore follow the calls the program actually makes, between modules
(``swarmbci.evaluate.filter_channels``) and inside them
(``swarmbci.swarm.step``), with no list of call sites to keep up to date.

Each process writes its spans to ``SPAN_DIR/spans-<pid>.jsonl``: the main
process at exit, and each forked ``--jobs`` worker whenever its outermost span
closes. A worker's outermost spans name the span that was open in the main
process when the worker was forked as their parent. ``SPAN_DIR/meta.json``
holds the import time of ``swarmbci.cli`` and the wrapped functions.

Only stdlib is imported before ``swarmbci``, so that the timed import includes
NumPy and SciPy as the CLI pulls them in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
import warnings

from layers import COUNTERS

PACKAGE = "swarmbci"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    """Open-span stack and finished spans of the current process."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self._start_process(fork_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _start_process(self, fork_parent):
        self.pid = os.getpid()
        self.fork_parent = fork_parent
        self.stack: list[dict] = []
        self.spans: list[dict] = []
        self.next_id = 0

    def _after_fork(self):
        self._start_process(self.stack[-1]["id"] if self.stack else None)

    def open(self, name: str, layer: str) -> dict:
        self.next_id += 1
        span = {
            "id": f"{self.pid}.{self.next_id}",
            "parent": self.stack[-1]["id"] if self.stack else self.fork_parent,
            "pid": self.pid, "name": name, "layer": layer,
            "counts": {}, "rss_start_mb": _peak_rss_mb(), "start": time.perf_counter(),
        }
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_end_mb"] = _peak_rss_mb()
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.fork_parent is not None:
            self.flush()  # a worker may be ended without running exit handlers

    def count(self, key: str, n: int = 1) -> None:
        if self.stack:
            counts = self.stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + n

    def flush(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self.spans = []


def _wrap(tracer: Tracer, fn):
    layer = _layer(fn.__module__)
    name = f"{layer}.{fn.__name__}"
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                span["counts"].update(counter(args, kwargs, result))
            return result
        finally:
            tracer.close(span)

    return traced


def instrument(tracer: Tracer) -> dict:
    """Wrap every package function wherever a package module holds it.

    Returns the wrapped function names and the boundary edges: the
    (importing module, function) pairs where the importer is not the module
    that defines the function. Re-exports by the package ``__init__`` are
    wrapped but are not edges.
    """
    wrappers = {}
    edges = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")):
                continue
            if obj not in wrappers:
                wrappers[obj] = _wrap(tracer, obj)
            setattr(module, attr, wrappers[obj])
            if mod_name != PACKAGE and obj.__module__ != mod_name:
                edges.append(f"{mod_name}.{attr}")
    names = sorted(f"{_layer(f.__module__)}.{f.__name__}" for f in wrappers)
    return {"wrapped": names, "boundary_edges": edges}


def _count_runtime_warnings(tracer: Tracer) -> None:
    """Count RuntimeWarnings (e.g. clamped CSP variances) on the innermost span."""
    warnings.filterwarnings("always", category=RuntimeWarning)
    show = warnings.showwarning

    def counting_show(message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            tracer.count("runtime_warnings")
        show(message, category, *args, **kwargs)

    warnings.showwarning = counting_show


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPAN_DIR -- <swarmbci cli arguments>\n")
        return 2
    span_dir, cli_args = argv[0], argv[2:]
    os.makedirs(span_dir, exist_ok=True)
    tracer = Tracer(span_dir)
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    meta = {"import_s": import_s, "pid": tracer.pid, **instrument(tracer)}
    _count_runtime_warnings(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.flush()
        with open(os.path.join(span_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
