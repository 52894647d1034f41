"""Strict run configuration and deterministic seed fan-out.

Every JSON input document (a config, a lattice, a field header) goes through
``check_keys`` against a typed key spec kept by the module that owns its
format: a non-object document, an unknown key (a typo cannot silently change
a run), a missing key and a value outside its type or range are refused, and
nothing is coerced.  A single root seed is split into per-case streams with
counter-style spawn keys, so each case's stream depends only on its index.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
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
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(_is_int(x) for x in v))
_POSITIVE_INTS = (
    "a list of integers >= 1", lambda v: isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v)
)
_STR = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
_SEED = ("an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64)

# The config document: the fields of RunConfig.
_CONFIG_KEYS = {
    "command": (_STR, True),
    "params": (_OBJECT, False),
    "seed": (_SEED, False),
    "out_dir": (_STR, False),
    "threads": (("an integer or null", lambda v: v is None or _is_int(v)), False),
    "tolerances": (_OBJECT, False),
}

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
}
_TOLERANCE_KEYS = {
    "carleman_pass_rtol": (("a finite number >= 0", lambda v: _is_number(v) and v >= 0), False),
    "resolution_gate_rtol": (("a finite number > 0", lambda v: _is_number(v) and v > 0), False),
}


def parse_json(text: str | bytes, what: str):
    """The JSON document in ``text`` (UTF-8 if bytes); one that does not parse is a schema error."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, over 4300 digits or nested too deep
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def check_keys(what: str, doc, spec: dict) -> None:
    """Refuse a non-object document, unknown or missing keys and values outside their type or range."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object, not {type(doc).__name__}")
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
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "out"
    threads: int | None = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        check_keys("config", vars(self), _CONFIG_KEYS)
        check_keys("tolerance", self.tolerances, _TOLERANCE_KEYS)
        if self.command in _PARAM_KEYS:
            check_keys(f"{self.command} parameter", self.params, _PARAM_KEYS[self.command])

    @staticmethod
    def from_json(doc) -> "RunConfig":
        check_keys("config", doc, _CONFIG_KEYS)
        return RunConfig(**doc)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_json(parse_json(Path(path).read_bytes(), f"config {path}"))

    def canonical_bytes(self) -> bytes:
        # the ignored worker count and the output location cannot affect
        # results, so they do not participate in the config hash
        doc = asdict(self)
        doc["threads"] = None
        doc["out_dir"] = None
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def write_resolved(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "resolved_config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def case_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-case generator from the root seed and a counter key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(key)))


# Pool-free stand-ins with the old names.  Nothing in the package calls them, but
# perfbench/tracing.py lists both and tests/test_cli.py::test_every_traced_layer_exists
# pins every name it lists: they go when the benchmark's target list drops them.


def thread_count(requested: int | None = None) -> int:
    """Worker count of every run: 1, whatever was requested."""
    return 1


def parallel_map(fn, items, threads: int | None = None) -> list:
    """``[fn(x) for x in items]`` in the calling thread; ``threads`` is ignored."""
    return [fn(x) for x in items]
