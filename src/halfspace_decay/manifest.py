"""Run manifests: reproducible verdict records with a content hash.

All floats are serialised with 17 significant digits so a manifest written by
one run compares bit-for-bit with a re-run of the same config and seed.  The
hash covers the config and the ordered verdicts; wall-clock time and tool
version are recorded alongside but excluded from the hash.  ``write_rows`` is
the one table formatter: every CSV file, CLI table and text field uses it;
``read_rows`` reads such rows back.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .runconfig import RunConfig

TOOL_VERSION = "0.1.0"


def _canonical(value):
    """Make a JSON-ready structure with floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if is_dataclass(value):  # result records
        return _canonical(asdict(value))
    if hasattr(value, "item"):  # numpy scalars
        return _canonical(value.item())
    raise TypeError(f"cannot serialise {type(value)!r} into a manifest")


@dataclass
class RunManifest:
    config_hash: str
    cases: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    tool_version: str = TOOL_VERSION

    @staticmethod
    def for_config(cfg: RunConfig) -> "RunManifest":
        return RunManifest(config_hash=hashlib.sha256(cfg.canonical_bytes()).hexdigest())

    def add_case(self, case_id: str, verdict: str, data: dict | None = None) -> None:
        self.cases.append({"id": case_id, "verdict": verdict, "data": data or {}})

    def verdict_hash(self) -> str:
        body = json.dumps(
            _canonical({"config": self.config_hash, "cases": self.cases}),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        return hashlib.sha256(body).hexdigest()

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "verdict_hash": self.verdict_hash(),
            "tool_version": self.tool_version,
            "wall_clock_s": format(self.wall_clock_s, ".3f"),
            "cases": _canonical(self.cases),
        }

    def write(self, out_dir) -> Path:
        return write_json(Path(out_dir) / "manifest.json", self.to_json())


_BLOCK_ROWS = 4096  # rows per `%` operation; bounds the text and objects held at once


def write_rows(fh, rows) -> None:
    """Write rows as comma-separated lines: floats at 17 significant digits, else str().

    ``rows`` is a 2D array or a sequence of tuples.  Each column takes its
    format from the first row, so every column must hold one type.
    """
    if len(rows) == 0:
        return
    first = np.asarray(rows[:1], dtype=object)[0]
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = np.asarray(rows[start : start + _BLOCK_ROWS], dtype=object)
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def read_rows(fh, what: str) -> np.ndarray:
    """The comma-separated number rows left in ``fh``, as a 2D float array.

    Input with no row left is refused before np.loadtxt parses it (which would
    warn and return an empty array), and so is a row that is not numbers.
    """
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            raise SchemaError(f"{what} holds no rows")
        if line.split("#")[0].strip():
            break
    fh.seek(start)
    try:
        return np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{what} rows must be comma-separated numbers: {exc}") from exc


def write_csv(path, header: list[str], rows) -> Path:
    """Tiny deterministic CSV writer: a header line, then ``write_rows``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, rows)
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_canonical(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
