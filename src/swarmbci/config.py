"""Run configuration, strict parsing of JSON config objects, and config fingerprinting."""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

#: The comparisons that the text of a domain (see :func:`check_fields`) may hold.
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
POSITIVE = "finite and > 0"  # the domain of a duration, speed or distance


def check_fields(obj, **domains: str) -> None:
    """Refuse any field of dataclass ``obj`` outside its default's type or its domain.

    A value must have its default's JSON type (see :func:`json_type_matches`), as
    many items as a tuple default, and only finite floats. Each of its items must
    also meet ``domains[name]``, a text such as ``"finite and >= 0 and <= 1"`` or
    ``"one of 'a', 'b'"``: every comparison in it, and one of its quoted strings.
    A refusal reads ``<field> must be <domain>, got <value>``.
    """
    for f in fields(obj):
        default = f.default if f.default is not MISSING else f.default_factory()
        value, domain = getattr(obj, f.name), domains.get(f.name, type(default).__name__)
        n = len(default) if isinstance(default, tuple) else 0
        if not (json_type_matches(value, default) and (not n or len(value) == n)
                and all(_inside(v, domain) for v in (value if n else (value,)))):
            raise ValueError(f"{f.name} must be {domain}, got {value!r}")


def _inside(v, domain: str) -> bool:
    """Whether item ``v`` is finite, if a float, and meets ``domain`` (see :func:`check_fields`)."""
    if choices := re.findall(r"'([^']*)'", domain):
        return v in choices
    return (type(v) is not float or math.isfinite(v)) and all(
        _COMPARE[op](v, float(x)) for op, x in re.findall(r"(>=|>|<=) (\S+)", domain))


@dataclass(frozen=True)
class RunConfig:
    """Decoding-pipeline parameters with the published defaults."""

    band: tuple[float, float] = (8.0, 30.0)
    filter_order: int = 2
    n_pairs: int = 3
    shrinkage: float = 0.05
    k_folds: int = 5
    seed: int = 0
    filter_stage: str = "continuous"
    log_variance_mode: str = "plain"

    def __post_init__(self):
        check_fields(self, band="2 values, each finite and > 0", filter_order="int >= 1",
                     n_pairs="int >= 1", shrinkage="finite and >= 0 and <= 1", k_folds="int >= 2",
                     seed="int >= 0", filter_stage="one of 'continuous', 'epoch'",
                     log_variance_mode="one of 'plain', 'normalized'")
        if not self.band[0] < self.band[1]:
            raise ValueError(f"band must satisfy low < high, got {self.band!r}")
        object.__setattr__(self, "band", tuple(map(float, self.band)))

    @property
    def fingerprint(self) -> str:
        """Stable hash of the canonicalized config."""
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def dataclass_from_dict(cls, d, what: str, source: str = ""):
    """``cls(**d)`` from a JSON object: each list a tuple, each nested dataclass parsed alike.

    ``cls`` checks every value (see :func:`check_fields`). Errors name a key ``what.key``
    (``key`` if ``what`` is empty), and ``d`` itself, if not an object or with an unknown
    key, by ``what`` or else ``source``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what or source} must be a JSON object, got {type(d).__name__}")
    factories = {f.name: f.default_factory for f in fields(cls)}
    if unknown := sorted(set(d) - set(factories)):
        raise ValueError(f"{what or source}: unknown keys {unknown}")
    kwargs = {}
    for key, value in d.items():
        if is_dataclass(factories[key]):  # a nested dataclass's default is made by its class
            value = dataclass_from_dict(factories[key], value, f"{what}.{key}" if what else key)
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}.{exc}" if what else str(exc)) from exc


def json_type_matches(value, default) -> bool:
    """Whether JSON ``value`` has ``default``'s type; a tuple's first item types every item."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple))
                and all(json_type_matches(v, default[0]) for v in value))
    if isinstance(default, float):  # and an int only if a float can hold it
        return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    return type(value) is type(default)
