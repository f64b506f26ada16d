"""Seeded mutation fuzz of the JSON inputs: the config, an NSR header and a predictions file.

Each mutated document must load with the meaning it parses to, or raise
``ValueError`` (``NsrFormatError`` is one); any other exception fails the test.
No command is run on a mutated input: a huge int could make it allocate
without bound.
"""

import argparse
import copy
import json
import math
from dataclasses import asdict

import numpy as np

from swarmbci import cli
from swarmbci.recording import MAGIC, open_recording

N_MUTATIONS = 500
#: Written as the literal ``1e400``, which Python's ``json`` reads as inf.
OVERFLOW = object()

CONFIG = {
    "run": {"band": [8.0, 30.0], "n_pairs": 2, "shrinkage": 0.1, "k_folds": 4, "seed": 5,
            "filter_stage": "epoch"},
    "timing": {"rest_s": 0.5, "cue_s": 0.5, "fixation_s": 0.5, "imagery_s": 2.0},
    "synth": {"n_channels": 12, "fs_hz": 250.0, "separability": 0.7, "seed": 100,
              "timing": {"imagery_s": 2, "cue_s": 1.5}},
    "swarm": {"n_drones": 12, "arena": [0, 60, 0, 60.5], "r_aggregate": 3.0, "max_steps": 400},
}
HEADER = {"subject_id": "s01", "sampling_rate_hz": 250.0, "channels": ["C3", "Cz", "C4"],
          "notch_hz": None, "markers": [[2, 1], [5, 4]], "n_samples": 8}
PREDICTIONS = {"subject_id": "s01", "fold": 0, "predicted_labels": [4, 1, 3, 2],
               "config_fingerprint": "5308ab5eca135082"}

SWAPS = ["5", True, False, None, [], {}, [1, 2], 2.5, 7, 0, -0.0]


class Pairs(list):
    """A JSON object written from (key, value) pairs, so a key can appear twice."""


def dump(v) -> str:
    if isinstance(v, dict):
        v = Pairs(v.items())
    if isinstance(v, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(dump, v)) + "]"
    return "1e400" if v is OVERFLOW else json.dumps(v)


def paths(v, path=()):
    """The path (keys and indices) of every value inside ``v``."""
    if path:
        yield path
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for k, x in items:
        yield from paths(x, path + (k,))


def mutate(doc, rng) -> str:
    """The text of ``doc`` with one seeded mutation."""
    kind = rng.integers(6)
    if kind == 5:  # truncation
        text = dump(doc)
        return text[:rng.integers(len(text))]
    doc = copy.deepcopy(doc)
    all_paths = list(paths(doc))
    if kind == 3:  # duplicated key
        all_paths = [p for p in all_paths if isinstance(p[-1], str)]
    path = all_paths[rng.integers(len(all_paths))]
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if kind == 0:  # type swap
        parent[key] = SWAPS[rng.integers(len(SWAPS))]
    elif kind == 1:  # non-finite
        parent[key] = [math.nan, math.inf, -math.inf, OVERFLOW][rng.integers(4)]
    elif kind == 2:  # missing key or item
        del parent[key]
    elif kind == 3:
        twin = SWAPS[rng.integers(len(SWAPS))] if rng.integers(2) else parent[key]
        pairs = Pairs(parent.items())
        pairs.insert(rng.integers(len(pairs) + 1), (key, twin))
        if len(path) == 1:
            return dump(pairs)
        grand = doc
        for k in path[:-2]:
            grand = grand[k]
        grand[path[-2]] = pairs
    else:  # huge or negative int
        parent[key] = [10 ** int(rng.integers(19, 400)), -int(rng.integers(1, 10 ** 6)),
                       -(10 ** 400)][rng.integers(3)]
    return dump(doc)


def same(a, b) -> bool:
    """Equal JSON meaning: a bool is no number, an int equals the float nearest it, NaN nothing."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if all(numbers):
        return float(a) == float(b) if float in (type(a), type(b)) else a == b
    return not any(numbers) and type(a) is type(b) and a == b


def typed_like(value, default) -> bool:
    """Whether a loaded config value has its default's type, finite if a float."""
    if isinstance(default, dict):
        return all(typed_like(value[k], default[k]) for k in default)
    if isinstance(default, (list, tuple)):
        return all(typed_like(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is type(default)


def merged(default: dict, doc):
    """The config ``doc`` asks for: ``default`` with each given section key replaced."""
    if not isinstance(doc, dict):
        return doc
    out = dict(default)
    for key, value in doc.items():
        out[key] = merged(default[key], value) if isinstance(default.get(key), dict) else value
    return out


def fuzz(base, load, meaning, seed):
    """Load ``N_MUTATIONS`` mutations of ``base``; return how many loaded."""
    rng = np.random.default_rng(seed)
    loaded = 0
    for _ in range(N_MUTATIONS):
        text = mutate(base, rng)
        try:
            got = load(text)
        except ValueError:
            continue
        loaded += 1
        assert meaning(got, json.loads(text)), text
    return loaded


def test_config_mutations(tmp_path):
    path = tmp_path / "config.json"
    default = asdict(cli.Config())

    def load(text):
        path.write_text(text, encoding="utf-8")
        return cli.load_config(argparse.Namespace(config=str(path), seed=None))

    def meaning(cfg, doc):
        got = asdict(cfg)
        return same(got, merged(default, doc)) and typed_like(got, default)

    assert load(dump(CONFIG)) == load(json.dumps(CONFIG))
    assert 0 < fuzz(CONFIG, load, meaning, seed=1) < N_MUTATIONS


def test_nsr_header_mutations(tmp_path):
    path = tmp_path / "r.nsr"
    payload = np.zeros((HEADER["n_samples"], len(HEADER["channels"])), "<f4").tobytes()

    def load(text):
        path.write_bytes(MAGIC + b"\n" + text.encode("utf-8") + b"\n" + payload)
        return open_recording(path)

    def meaning(rec, doc):
        got = {"subject_id": rec.subject_id, "sampling_rate_hz": rec.sampling_rate_hz,
               "channels": list(rec.layout.names), "notch_hz": rec.notch_applied_hz,
               "markers": [[m.sample_index, m.event_code] for m in rec.markers],
               "n_samples": rec.n_samples}
        return same(got, {k: doc[k] for k in got})

    assert 0 < fuzz(HEADER, load, meaning, seed=0) < N_MUTATIONS


def test_predictions_mutations(tmp_path):
    path = tmp_path / "p.json"

    def load(text):
        path.write_text(text, encoding="utf-8")
        return cli._sequence_from_args(argparse.Namespace(sequence=None, predictions=str(path)))

    def meaning(codes, doc):
        return all(type(c) is int for c in codes) and same(codes, doc["predicted_labels"])

    assert 0 < fuzz(PREDICTIONS, load, meaning, seed=3) < N_MUTATIONS

