"""Grid-sampled fields on a slab of cells times a t-interval, plus file I/O.

A field lives on a truncation box made of whole lattice cells, with an
integer number of sample points per cell per axis (commensurability is
structural, not checked after the fact).  Grid points sit at fractional
coordinates (c + j/n) of the cell basis, left-aligned, which makes the
per-cell grid exactly the periodic DFT grid of the torus.

File format: a one-line JSON header followed by "re,im" pairs, one grid value
per line, x-major then t.  NumPy .npz is accepted as a binary alternative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridError, SchemaError
from .lattice import Lattice
from .manifest import read_rows, write_rows
from .runconfig import FIELD_HEADER_KEYS, check_keys

FIELD_KINDS = ("u", "potential")


def cells_first(values: np.ndarray, cells_shape, n: int) -> np.ndarray:
    """View of samples (C_0 n, ..., C_{d-1} n, t) as (C_0, ..., C_{d-1}, n, ..., n, t)."""
    dim = len(cells_shape)
    grid = values.reshape(tuple(x for c in cells_shape for x in (c, n)) + (values.shape[-1],))
    return grid.transpose(tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2)) + (2 * dim,))


@dataclass(frozen=True, eq=False)
class SampledField:
    """Complex samples indexed (x-axes..., t) on a box of whole cells."""

    kind: str
    lattice: Lattice
    cells_lo: tuple[int, ...]
    cells_shape: tuple[int, ...]
    points_per_cell: int
    t_start: float
    t_end: float
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise SchemaError(f"field kind must be one of {FIELD_KINDS}")
        dim = self.lattice.dim
        cells_lo = tuple(int(c) for c in self.cells_lo)
        cells_shape = tuple(int(c) for c in self.cells_shape)
        if len(cells_lo) != dim or len(cells_shape) != dim:
            raise GridError("cell box dimensions disagree with the lattice")
        if any(c <= 0 for c in cells_shape):
            raise GridError("cell box must be nonempty")
        n = int(self.points_per_cell)
        if n < 1:
            raise GridError("need at least one point per cell per axis")
        values = np.asarray(self.values, dtype=complex)
        expected = tuple(c * n for c in cells_shape)
        if values.shape[:-1] != expected:
            raise GridError(
                f"value array spatial shape {values.shape[:-1]} does not match "
                f"cells*points {expected}"
            )
        if values.shape[-1] < 2:
            raise GridError("need at least two t samples")
        if not self.t_end > self.t_start:
            raise GridError("t-range must be increasing")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cells_lo", cells_lo)
        object.__setattr__(self, "cells_shape", cells_shape)
        object.__setattr__(self, "points_per_cell", n)
        if self.kind == "potential":
            self._check_periodic()

    def _check_periodic(self):
        cells = cells_first(self.values, self.cells_shape, self.points_per_cell)
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if np.max(np.abs(cells - cells[(0,) * self.dim])) > 1e-12 * scale:
            raise SchemaError("potential field is not periodic across cell copies")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def n_t(self) -> int:
        return self.values.shape[-1]

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_t)

    def cell_block(self, cell) -> np.ndarray:
        """Samples of one cell, shape (n, ..., n, n_t)."""
        cells = cells_first(self.values, self.cells_shape, self.points_per_cell)
        return cells[tuple(c - lo for c, lo in zip(cell, self.cells_lo))]

    def positions(self) -> np.ndarray:
        """Grid point coordinates, shape (*spatial, dim)."""
        n = self.points_per_cell
        axes = [
            lo + np.arange(sh * n) / n for lo, sh in zip(self.cells_lo, self.cells_shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        frac = np.stack(mesh, axis=-1)
        return frac @ self.lattice.basis.T


def constant_potential(
    lattice: Lattice,
    value: complex,
    points_per_cell: int,
    t_start: float,
    t_end: float,
    n_t: int,
) -> SampledField:
    shape = (points_per_cell,) * lattice.dim + (n_t,)
    return SampledField(
        kind="potential",
        lattice=lattice,
        cells_lo=(0,) * lattice.dim,
        cells_shape=(1,) * lattice.dim,
        points_per_cell=points_per_cell,
        t_start=t_start,
        t_end=t_end,
        values=np.full(shape, complex(value)),
    )


def save_field(field: SampledField, path) -> None:
    path = Path(path)
    header = {
        "dim": field.dim,
        "cells_lo": list(field.cells_lo),
        "cells_shape": list(field.cells_shape),
        "points_per_cell": field.points_per_cell,
        "t_start": field.t_start,
        "t_end": field.t_end,
        "t_points": field.n_t,
        "kind": field.kind,
    }
    if path.suffix == ".npz":
        np.savez(
            path,
            header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
            values=field.values,
        )
        return
    flat = field.values.reshape(-1)  # x-major then t (C order)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        write_rows(fh, flat.view(np.float64).reshape(-1, 2))  # (re, im) pairs, no copy


def load_field(path, lattice: Lattice) -> SampledField:
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            values = np.asarray(data["values"], dtype=complex)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            pairs = read_rows(fh, "field file")
        if pairs.shape[1] != 2:
            raise SchemaError("field values must be 're,im' pairs, one per line")
        values = pairs[:, 0] + 1j * pairs[:, 1]
    if not isinstance(header, dict):
        raise SchemaError("field header must be a JSON object")
    check_keys("field header", header, FIELD_HEADER_KEYS)
    if header["dim"] != lattice.dim:
        raise GridError("field dimension disagrees with the lattice")
    n = header["points_per_cell"]
    shape = tuple(c * n for c in header["cells_shape"]) + (header["t_points"],)
    need = int(np.prod(shape))
    if values.size != need:
        raise SchemaError(f"field holds {values.size} values; its header shape {shape} needs {need}")
    values = values.reshape(shape)
    return SampledField(
        kind=header["kind"],
        lattice=lattice,
        cells_lo=tuple(header["cells_lo"]),
        cells_shape=tuple(header["cells_shape"]),
        points_per_cell=n,
        t_start=float(header["t_start"]),
        t_end=float(header["t_end"]),
        values=values,
    )
