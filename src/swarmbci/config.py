"""Run configuration, strict parsing of JSON config objects, and config fingerprinting."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass


@dataclass(frozen=True)
class RunConfig:
    """Decoding-pipeline parameters with the published defaults."""

    band: tuple[float, float] = (8.0, 30.0)
    filter_order: int = 2
    n_pairs: int = 3
    shrinkage: float = 0.05
    k_folds: int = 5
    seed: int = 0
    filter_stage: str = "continuous"  # or "epoch"
    log_variance_mode: str = "plain"  # or "normalized"

    def __post_init__(self):
        low, high = self.band
        if not (0 < low < high):
            raise ValueError(f"band must satisfy 0 < low < high, got {self.band}")
        object.__setattr__(self, "band", (float(low), float(high)))
        if self.filter_order < 1:
            raise ValueError("filter_order must be >= 1")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if not (0.0 <= self.shrinkage <= 1.0):
            raise ValueError("shrinkage must be in [0, 1]")
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")
        if self.filter_stage not in ("continuous", "epoch"):
            raise ValueError("filter_stage must be 'continuous' or 'epoch'")
        if self.log_variance_mode not in ("plain", "normalized"):
            raise ValueError("log_variance_mode must be 'plain' or 'normalized'")

    @property
    def fingerprint(self) -> str:
        """Stable hash of the canonicalized config."""
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def dataclass_from_dict(cls, d, what: str, source: str = ""):
    """``cls(**d)`` from a JSON object, rejecting unknown keys and mistyped or non-finite values.

    A value must have the JSON type of its field's default: a list of as
    many items for a tuple (converted to one), an object for a nested
    dataclass (parsed by this function), an int or a float for a float, and
    the very type otherwise, so a bool never passes for a number. Every
    float must be finite. Errors name a key ``what.key`` (``key`` if
    ``what`` is empty), and ``d`` itself by ``what`` or else ``source``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what or source} must be a JSON object, got {type(d).__name__}")
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(by_name)
    if unknown:
        raise ValueError(f"{what or source}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in d.items():
        f, name = by_name[key], f"{what}.{key}" if what else key
        default = f.default if f.default is not MISSING else f.default_factory()
        if is_dataclass(default):
            value = dataclass_from_dict(type(default), value, name)
        elif isinstance(default, tuple) and isinstance(value, list):
            if len(value) != len(default):
                raise ValueError(f"{name} must be a list of {len(default)} items, got {value!r}")
            value = tuple(value)
        if not json_type_matches(value, default):
            raise ValueError(f"{name} must be {type(default).__name__}, got {value!r}")
        if any(type(v) is float and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be finite, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def json_type_matches(value, default) -> bool:
    """Whether JSON ``value`` has ``default``'s type; a tuple's first item types every item."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple))
                and all(json_type_matches(v, default[0]) for v in value))
    if isinstance(default, float):  # and an int only if a float can hold it
        return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    return type(value) is type(default)
