"""Each config field's domain, written out here and not read from the package.

Every number and string field of the four config classes has an entry in
``DOMAINS``; each value just outside an entry, and each NaN, infinity, bool or
non-integral int, must be refused with ``<field> must be <domain>, got <value>``.
"""

import argparse
import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from swarmbci import cli
from swarmbci.config import RunConfig, dataclass_from_dict
from swarmbci.recording import ParadigmTiming
from swarmbci.swarm import SwarmConfig
from swarmbci.synth import SynthConfig

#: Per class and field: its item type, then its bounds as (comparison, bound)
#: pairs, or the strings it may take.
DOMAINS = {
    RunConfig: {
        "band": (float, [(">", 0)]),
        "filter_order": (int, [(">=", 1)]),
        "n_pairs": (int, [(">=", 1)]),
        "shrinkage": (float, [(">=", 0), ("<=", 1)]),
        "k_folds": (int, [(">=", 2)]),
        "seed": (int, [(">=", 0)]),
        "filter_stage": (str, ["continuous", "epoch"]),
        "log_variance_mode": (str, ["plain", "normalized"]),
    },
    SynthConfig: {
        "n_channels": (int, [(">=", 1)]),
        "fs_hz": (float, [(">", 60)]),
        "trials_per_class": (int, [(">=", 1)]),
        "separability": (float, [(">=", 0), ("<=", 1)]),
        "noise_floor": (float, [(">", 0)]),
        "seed": (int, [(">=", 0)]),
        "n_sources": (int, [(">=", 8)]),
    },
    SwarmConfig: {
        "n_drones": (int, [(">=", 2)]),
        "arena": (float, []),
        "max_speed": (float, [(">", 0)]),
        "min_separation": (float, [(">", 0)]),
        "r_aggregate": (float, [(">", 0)]),
        "d_split": (float, [(">", 0)]),
        "max_steps": (int, [(">=", 0)]),
        "seed": (int, [(">=", 0)]),
    },
    ParadigmTiming: {name: (float, [(">", 0)])
                     for name in ("rest_s", "cue_s", "fixation_s", "imagery_s")},
}


def default_of(f):
    return f.default if f.default is not MISSING else f.default_factory()


def first_outside(comparison, bound, kind):
    """The value nearest ``bound`` that fails ``comparison``."""
    if comparison == ">":
        return bound
    step = -1 if comparison == ">=" else 1
    return bound + step if kind is int else math.nextafter(bound, bound + step)


def bad_items(kind, domain):
    """Items outside a field's domain: wrong types, non-finite numbers, first values outside."""
    if kind is str:
        return [5, None, "".join(domain), domain[0].upper()]
    bad = [math.nan, math.inf, -math.inf, True, False]
    if kind is int:
        bad += [2.5, 1.0]
    return bad + [first_outside(comparison, bound, kind) for comparison, bound in domain]


def refusals():
    for cls, table in DOMAINS.items():
        for f in fields(cls):
            if f.name not in table:
                continue
            default = default_of(f)
            for item in bad_items(*table[f.name]):
                if isinstance(default, tuple):  # each position of a tuple holds the item
                    for i in range(len(default)):
                        value = default[:i] + (item,) + default[i + 1:]
                        yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value}")
                else:
                    yield pytest.param(cls, f.name, item, id=f"{cls.__name__}.{f.name}={item!r}")


def test_every_number_and_string_field_has_a_domain_here():
    for cls, table in DOMAINS.items():
        for f in fields(cls):
            default = default_of(f)
            item = default[0] if isinstance(default, tuple) else default
            if isinstance(item, (int, float, str)):
                assert f.name in table, f"{cls.__name__}.{f.name} has no domain in this test"
                assert type(item) is table[f.name][0]


@pytest.mark.parametrize("cls, name, value", refusals())
def test_value_outside_its_domain_refused(cls, name, value):
    with pytest.raises(ValueError) as exc:
        cls(**{name: value})
    assert re.fullmatch(rf"{name} must be .+, got {re.escape(repr(value))}", str(exc.value))


@pytest.mark.parametrize("cls, name, value", [
    (RunConfig, "shrinkage", 1), (RunConfig, "shrinkage", 0.0), (RunConfig, "k_folds", 2),
    (RunConfig, "seed", 0), (RunConfig, "filter_stage", "epoch"),
    (SynthConfig, "separability", 1.0), (SynthConfig, "fs_hz", math.nextafter(60, 61)),
    (SwarmConfig, "max_steps", 0), (SwarmConfig, "arena", (-1e300, 0, 0, 1e300)),
    (ParadigmTiming, "rest_s", 5e-324),
])
def test_value_at_the_edge_of_its_domain_accepted(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


def test_message_names_the_domain():
    with pytest.raises(ValueError, match=r"^k_folds must be int >= 2, got '5'$"):
        RunConfig(k_folds="5")
    with pytest.raises(ValueError, match=r"^filter_stage must be one of 'continuous', 'epoch', "):
        RunConfig(filter_stage="Epoch")


def test_config_errors_name_the_section():
    with pytest.raises(ValueError, match=r"^run\.k_folds must be int >= 2, got '5'$"):
        dataclass_from_dict(cli.Config, {"run": {"k_folds": "5"}}, "")
    with pytest.raises(ValueError, match=r"^synth\.timing\.cue_s must be finite and > 0, got -1$"):
        dataclass_from_dict(cli.Config, {"synth": {"timing": {"cue_s": -1}}}, "")
    with pytest.raises(ValueError, match=r"^swarm\.d_split must exceed 2 \* r_aggregate"):
        dataclass_from_dict(cli.Config, {"swarm": {"d_split": 8, "r_aggregate": 5}}, "")


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example `config.json`:", 1)[1].split("```json\n", 1)[1].split("```")[0]
    doc = json.loads(block)
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    cfg = cli.load_config(argparse.Namespace(config=str(path), seed=None))
    for section, values in doc.items():
        for key, value in values.items():
            got = getattr(getattr(cfg, section), key)
            assert got == (tuple(value) if isinstance(value, list) else value), f"{section}.{key}"
