"""Strict run configuration and deterministic seed fan-out.

Every command accepts a JSON config document with a fixed key set; unknown
keys are rejected so typos cannot silently change a run, and values are not
coerced.  Field file headers are checked against the same kind of typed key
spec.  A single root seed is split into per-case streams with
counter-style spawn keys, so each case's stream depends only on its index.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, infinity or a huge int."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# Parameter types: (description, check).  Values are checked, never coerced.
_NUMBER = ("a finite number", _is_number)
_POSITIVE = ("a finite number > 0", lambda v: _is_number(v) and v > 0)
_INT = ("an integer", _is_int)
_COUNT = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_POSITIVE_INT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_PATH = ("a file path", lambda v: isinstance(v, str))
_PATH_OR_NULL = ("a file path or null", lambda v: v is None or isinstance(v, str))
_LATTICE = ("a lattice document or a file path", lambda v: isinstance(v, (dict, str)))
_POSITIVE_INT_OR_NULL = ("an integer >= 1 or null", lambda v: v is None or (_is_int(v) and v >= 1))
_NUMBER_PAIR_OR_NULL = (
    "null or a pair of finite numbers",
    lambda v: v is None
    or (isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_number(x) for x in v)),
)
_NUMBERS = ("a list of finite numbers", lambda v: isinstance(v, list) and all(_is_number(x) for x in v))
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(_is_int(x) for x in v))
_POSITIVE_INTS = (
    "a list of integers >= 1", lambda v: isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v)
)
_STR = ("a string", lambda v: isinstance(v, str))

# Per command: key -> (type, required).
_PARAM_KEYS = {
    "pipeline": {
        "lattice": (_LATTICE, True),
        "u_field": (_PATH, True),
        "v_field": (_PATH_OR_NULL, False),
        "energy": (_NUMBER, False),
        "theta_points": (_INT, True),
        "l_max": (_COUNT, False),
        "cutoff": (_NUMBER, False),
        "min_gap": (_NUMBER, False),
        "decay_window": (_NUMBER_PAIR_OR_NULL, False),
        "max_modes": (_POSITIVE_INT_OR_NULL, False),
        "carleman_taper": (_POSITIVE, False),
        "plots": (_BOOL, False),
    },
    "verify43": {
        "eps": (_NUMBER, True),
        "weight_lambda": (_NUMBER, False),
        "modes": (_INT, False),
        "ensemble": (_INT, False),
    },
    "verify-gap": {
        "a": (_NUMBER, True),
        "b": (_NUMBER, True),
        "alpha": (_NUMBER, False),
        "eigs": (_NUMBERS, False),
        "ensemble": (_INT, False),
        "force": (_BOOL, False),
    },
}
# The one-line JSON header of a text or .npz field file.
FIELD_HEADER_KEYS = {
    "dim": (_INT, True),
    "cells_lo": (_INTS, True),
    "cells_shape": (_POSITIVE_INTS, True),
    "points_per_cell": (_POSITIVE_INT, True),
    "t_start": (_NUMBER, True),
    "t_end": (_NUMBER, True),
    "t_points": (_POSITIVE_INT, True),
    "kind": (_STR, True),
}
_TOLERANCE_KEYS = {
    "carleman_pass_rtol": (("a finite number >= 0", lambda v: _is_number(v) and v >= 0), False),
    "resolution_gate_rtol": (("a finite number > 0", lambda v: _is_number(v) and v > 0), False),
}


def check_keys(what: str, doc: dict, spec: dict) -> None:
    """Refuse unknown or missing keys and values outside their type or range."""
    unknown = set(doc) - set(spec)
    if unknown:
        raise SchemaError(f"unknown {what} keys: {sorted(unknown)}")
    missing = {k for k, (_, required) in spec.items() if required} - set(doc)
    if missing:
        raise SchemaError(f"missing {what} keys: {sorted(missing)}")
    for key, value in sorted(doc.items()):
        kind, check = spec[key][0]
        if not check(value):
            raise SchemaError(f"{what} {key!r} must be {kind}, not {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Command name, nested parameters, root seed, output dir, tolerances.

    ``threads`` is accepted for compatibility and ignored: every run uses one
    worker, and it never enters the config hash.
    """

    command: str
    params: dict
    seed: int = 0
    out_dir: str = "out"
    threads: int | None = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.params, dict):
            raise SchemaError("params must be an object")
        if not _is_int(self.seed) or self.seed < 0 or self.seed >= 2**64:
            raise SchemaError("seed must be a 64-bit unsigned integer")
        if self.threads is not None and not _is_int(self.threads):
            raise SchemaError("threads must be an integer or null")
        if not isinstance(self.tolerances, dict):
            raise SchemaError("tolerances must be an object")
        check_keys("tolerance", self.tolerances, _TOLERANCE_KEYS)
        if self.command in _PARAM_KEYS:
            check_keys(f"{self.command} parameter", self.params, _PARAM_KEYS[self.command])

    @staticmethod
    def from_json(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise SchemaError("config must be a JSON object")
        allowed = {"command", "params", "seed", "out_dir", "threads", "tolerances"}
        unknown = set(doc) - allowed
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in doc:
            raise SchemaError("config requires 'command'")
        return RunConfig(
            command=str(doc["command"]),
            params=doc.get("params", {}),
            seed=doc.get("seed", 0),
            out_dir=str(doc.get("out_dir", "out")),
            threads=doc.get("threads"),
            tolerances=doc.get("tolerances", {}),
        )

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"config is not valid JSON: {exc}") from exc
        return RunConfig.from_json(doc)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "threads": self.threads,
            "tolerances": self.tolerances,
        }

    def canonical_bytes(self) -> bytes:
        # the ignored worker count and the output location cannot affect
        # results, so they do not participate in the config hash
        doc = self.to_json()
        doc["threads"] = None
        doc["out_dir"] = None
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def write_resolved(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "resolved_config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def case_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-case generator from the root seed and a counter key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(key)))


# Pool-free stand-ins with the old names.  Nothing in the package calls them;
# perfbench/tracing.py still lists both by name, and its self-test expects them.


def thread_count(requested: int | None = None) -> int:
    """Worker count of every run: 1, whatever was requested."""
    return 1


def parallel_map(fn, items, threads: int | None = None) -> list:
    """``[fn(x) for x in items]`` in the calling thread; ``threads`` is ignored."""
    return [fn(x) for x in items]
