"""Grid-sampled fields on a slab of cells times a t-interval, plus file I/O.

A field lives on a truncation box made of whole lattice cells, with an
integer number of sample points per cell per axis (commensurability is
structural, not checked after the fact).  Grid points sit at fractional
coordinates (c + j/n) of the cell basis, left-aligned, which makes the
per-cell grid exactly the periodic DFT grid of the torus.

File format: a one-line JSON header followed by "re,im" pairs, one grid value
per line, x-major then t.  NumPy .npz is accepted as a binary alternative.

A field is the largest object a run holds, so each one is allocated once.
``SampledField`` adopts a value array that nothing else can write: every
array in its ``.base`` chain is read-only and the chain ends in an ndarray
that owns its data.  Any other array (a caller's writable array, or a
read-only view of one) is copied.  A writable view made before its root was
sealed is not seen, so only a freshly built array should be sealed and
handed over.  ``load_field`` and ``gelfand_inverse`` do that with theirs.
In tracemalloc peaks per field size: loading takes about 1.2 (text) and 1.1
(``.npz``); the inverse transform about 1.1-1.3 beyond its fibers; a pipeline
run about 2, the field and its fibers during the forward pass.  The text
loader views the parsed (re, im) pairs as complex, so the samples keep the
exact bits of the file, signed zeros included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridError, SchemaError
from .lattice import Lattice
from .manifest import read_npz, read_rows, write_rows
from .runconfig import _INT, _INTS, _NUMBER, _POSITIVE_INT, _POSITIVE_INTS, _STR, check_keys, parse_json

FIELD_KINDS = ("u", "potential")
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


def _adoptable(values: np.ndarray) -> bool:
    """True when no array in the ``.base`` chain is writeable and it ends in an owner."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        if values.base is None:
            return values.flags.owndata
        values = values.base
    return False


def _hand_over(values: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only down its ``.base`` chain, so a field adopts it."""
    array = values
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base
    return values


def cells_first(values: np.ndarray, cells_shape, n: int) -> np.ndarray:
    """View of samples (C_0 n, ..., C_{d-1} n, t) as (C_0, ..., C_{d-1}, n, ..., n, t)."""
    dim = len(cells_shape)
    grid = values.reshape(tuple(x for c in cells_shape for x in (c, n)) + (values.shape[-1],))
    return grid.transpose(tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2)) + (2 * dim,))


@dataclass(frozen=True, eq=False)
class SampledField:
    """Complex samples indexed (x-axes..., t) on a box of whole cells.

    ``values`` is read-only: adopted when nothing else can write it (see the
    module docstring), copied otherwise.
    """

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
        if not _adoptable(values):
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cells_lo", cells_lo)
        object.__setattr__(self, "cells_shape", cells_shape)
        object.__setattr__(self, "points_per_cell", n)
        if self.kind == "potential":
            self._check_periodic()

    def _check_periodic(self):
        # copy by copy: temporaries of one cell, and max is exact, so the
        # verdict is that of the whole-field comparison
        cells = cells_first(self.values, self.cells_shape, self.points_per_cell)
        first = cells[(0,) * self.dim]
        scale, worst = 1.0, 0.0
        for index in np.ndindex(*self.cells_shape):
            cell = cells[index]
            scale = max(scale, float(np.max(np.abs(cell))))
            worst = max(worst, float(np.max(np.abs(cell - first))))
        if worst > 1e-12 * scale:
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
        values=_hand_over(np.full(shape, complex(value))),
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
        data = read_npz(path, "field file", ("header", "values"))
        header = parse_json(bytes(data["header"]), "field header")
        # np.load returns a reshaped view of the array it read: seal both
        values = _hand_over(np.ascontiguousarray(data["values"], dtype=complex))
    else:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            header = parse_json(fh.readline(), "field header")
            pairs = read_rows(fh, "field file")
        if pairs.shape[1] != 2:
            raise SchemaError("field values must be 're,im' pairs, one per line")
        # a complex view of the (re, im) pairs: the file's bits, signed zeros included
        values = _hand_over(pairs).view(complex).reshape(-1)
    check_keys("field header", header, FIELD_HEADER_KEYS)
    if header["dim"] != lattice.dim:
        raise GridError("field dimension disagrees with the lattice")
    n = header["points_per_cell"]
    shape = tuple(c * n for c in header["cells_shape"]) + (header["t_points"],)
    need = int(np.prod(shape))
    if values.size != need:
        raise SchemaError(f"field holds {values.size} values; its header shape {shape} needs {need}")
    if not np.isfinite(values.view(np.float64)).all():  # the float view: twice as fast as complex
        raise SchemaError(f"field file {path} holds non-finite samples")
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
