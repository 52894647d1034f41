"""Run manifests: reproducible verdict records with a content hash.

All floats are serialised with 17 significant digits so a manifest written by
one run compares bit-for-bit with a re-run of the same config and seed.  The
hash covers the config and the ordered verdicts; wall-clock time, tool version
and the refused stages' diagnostics stay outside it.  ``write_rows`` is
the one table formatter: every CSV file, CLI table and text field uses it;
``read_rows`` reads a header line and such rows back, every later line by
np.loadtxt's one line rule, and ``read_npz`` reads every .npz input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SchemaError
from .runconfig import RunConfig


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
    diagnostics: dict = field(default_factory=dict)  # case id -> {stage: reason} of its refused stages

    @staticmethod
    def for_config(cfg: RunConfig) -> "RunManifest":
        return RunManifest(config_hash=hashlib.sha256(cfg.canonical_bytes()).hexdigest())

    def add_case(self, case_id: str, verdict: str, data: dict | None = None) -> None:
        self.cases.append({"id": case_id, "verdict": verdict, "data": data or {}})

    def verdict_hash(self) -> str:
        return _verdict_hash(self.config_hash, _canonical(self.cases))

    def to_json(self) -> dict:
        """The manifest document, already canonical: the cases are canonicalized once, for hash and body."""
        cases = _canonical(self.cases)
        return {
            "config_hash": self.config_hash,
            "verdict_hash": _verdict_hash(self.config_hash, cases),
            "tool_version": __version__,
            "wall_clock_s": format(self.wall_clock_s, ".3f"),
            "diagnostics": _canonical(self.diagnostics),
            "cases": cases,
        }

    def write(self, out_dir) -> dict:
        """Write ``to_json()`` as manifest.json, with no second canonical pass; returns that document."""
        doc = self.to_json()
        _dump_json(Path(out_dir) / "manifest.json", doc)
        return doc


def _verdict_hash(config_hash: str, cases: list) -> str:
    """sha256 of the config hash and the canonical ``cases``, as compact JSON with sorted keys."""
    body = json.dumps({"config": config_hash, "cases": cases}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


_BLOCK_ROWS = 4096  # rows per `%` operation; bounds the text and objects held at once


def write_rows(fh, rows) -> None:
    """Write rows as comma-separated lines: floats at 17 significant digits, else str().

    ``rows`` is a 2D array (its blocks go through ``.tolist()``, so NumPy
    values print as Python's) or a sequence of tuples (formatted as they
    are).  Each column takes its format from the first row, so every column
    must hold one type.
    """
    if len(rows) == 0:
        return
    array = isinstance(rows, np.ndarray)
    first = rows[0].tolist() if array else rows[0]
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        cells = block.ravel().tolist() if array else itertools.chain.from_iterable(block)
        fh.write(line * len(block) % tuple(cells))


def read_rows(path) -> tuple[str, np.ndarray]:
    """The first line of the text file ``path`` and the comma-separated finite number rows after it.

    np.loadtxt reads every line after the first with its chunked reader: an
    empty or ``#`` line is skipped wherever it sits, any other line (one of
    blanks or an indented comment too) must be a row of finite numbers, and a
    file with no row is refused.  Every line must be UTF-8; the first that is
    not is named.  The path is opened twice, so it must name a regular file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # np.loadtxt opens the path again (a pipe would lose what this read) and decompresses these names
            if not Path(path).is_file() or Path(path).suffix in (".gz", ".bz2", ".xz", ".lzma"):
                raise SchemaError("must be a regular, uncompressed file, named without .gz, .bz2, .xz or .lzma")
            header = fh.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # refused below
            rows = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1, encoding="utf-8")
    except UnicodeDecodeError:  # a byte that is not UTF-8 reads back as a lone surrogate, which encodes as "?"
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            line = next(n for n, text in enumerate(fh, 1) if text.encode("utf-8", "replace").decode() != text)
        raise SchemaError(f"line {line} is not UTF-8") from None
    except ValueError as exc:
        raise SchemaError(f"rows must be comma-separated numbers: {exc}") from exc
    if rows.size == 0:
        raise SchemaError("holds no rows")
    if not np.isfinite(rows).all():
        raise SchemaError("rows must be finite numbers")
    return header, rows


def read_npz(path, keys, optional=()) -> dict[str, np.ndarray]:
    """Every array of the NumPy archive ``path``: ``keys``, which it must hold, and any of ``optional``.

    An entry of another name is refused before any array is read, and every
    array must be of finite numbers.  Any other file (no archive, a missing
    key, object or text arrays, a NaN or infinity) is a SchemaError; a missing
    file stays an OSError.
    """
    try:
        with np.load(path) as data:
            if unknown := set(data.files) - set(keys) - set(optional):
                raise SchemaError(f"unknown keys: {sorted(unknown)}")
            arrays = {k: data[k] for k in data.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"not a NumPy .npz archive: {exc}") from exc
    if set(keys) - set(arrays) or any(a.dtype.kind not in "biufc" for a in arrays.values()):
        held = {k: str(a.dtype) for k, a in arrays.items()}
        raise SchemaError(f"must hold numeric arrays {sorted(keys)}; it holds {held}")
    for key, a in sorted(arrays.items()):
        # a complex array is checked through its float view: twice as fast
        if a.dtype.kind in "fc" and not np.isfinite(a.ravel("K").view(a.real.dtype)).all():
            raise SchemaError(f"{key!r} must be finite")
    return arrays


def write_csv(path, header: list[str], rows) -> Path:
    """Tiny deterministic CSV writer: a header line, then ``write_rows``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, rows)
    return path


def write_json(path, payload) -> Path:
    return _dump_json(path, _canonical(payload))


def _dump_json(path, doc) -> Path:
    """Write the JSON-ready ``doc`` as it is: indented, with sorted keys and a final newline."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
