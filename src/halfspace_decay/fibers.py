"""Discretised Bloch decomposition: lattice sums, inversion, fiber residuals.

For a quasimomentum with dual-basis coordinates mu, every phase in the
transform reduces to exp(-2*pi*i * mu.(c + j/n)) over cell indices c and
intra-cell indices j, because f_i . e_j = 2*pi*delta_ij.  The per-cell grid is
then exactly the n^d DFT grid of the torus, so the physical/spectral
conversion is a unitary FFT and the fiber operator acts diagonally with
eigenvalues |k + theta|^2 - E over wrapped integer mode vectors.

The cell phase factors per axis, so the lattice sum over a product set of
quasimomenta is one separable contraction: a small dense phase matrix
(quasimomenta x cells) applied to each cell axis of the field in turn, then
the intra-cell twist.  The inverse is the same contraction with the conjugate
phases divided by the grid size, and rebuilds onto the cell box whose origin
the fibers carry.  Its theta-grid is uniform (midpoint) over the dual cell in
dual-basis coordinates, which makes the reconstruction exact for data
band-limited to fewer cells than the grid resolves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, PreconditionError, SchemaError
from .fields import SampledField, cells_first, check_t_axis
from .lattice import Lattice, Quasimomentum, dual_basis, form_on_grid, unit_cell_volume
from .manifest import read_npz
from .profiles import SpectralProfile, _residual, _sum_abs2, column_norms
from .runconfig import _INTS, _NUMBER, _NUMBERS, _POSITIVE_INT, check_keys, reading

STACK_BYTES = 1 << 20
# a mode of less mass than this share of its fiber's, an amplitude below 1e-12 of the fiber's
# norm, is roundoff of the DFT of float64 samples (about 1e-16 of the norm per mode), not data
MODE_MASS_FLOOR = 1e-24


@dataclass(eq=False)
class BlochFiber:
    """One fiber of the decomposition: torus samples per t.

    ``data`` has shape (n, ..., n, n_t) and holds the cell-grid samples;
    ``coefficients`` is their orthonormal DFT over the cell axes, computed once.
    ``tail_bound`` is the L2 bound on the lattice-sum truncation error.
    ``cells_lo`` is the lowest cell of the field box the fiber came from;
    None means the box centred on the origin.
    """

    theta: Quasimomentum
    lattice: Lattice
    points_per_cell: int
    t_start: float
    t_end: float
    data: np.ndarray
    tail_bound: float = 0.0
    cells_lo: tuple[int, ...] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        cells = (self.points_per_cell,) * self.lattice.dim
        if self.data.shape[:-1] != cells:
            raise GridError(f"'data' must be of shape {cells} + (n_t,) by 'points_per_cell' and the lattice, "
                            f"not {self.data.shape}")
        check_t_axis(self.n_t, self.t_start, self.t_end)
        if self.theta.dim != self.lattice.dim:
            raise GridError("fiber quasimomentum disagrees with the lattice dimension")
        if self.cells_lo is not None and len(self.cells_lo) != self.lattice.dim:
            raise GridError(f"'cells_lo' must be of length {self.lattice.dim}, not {len(self.cells_lo)}")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def n_t(self) -> int:
        return self.data.shape[-1]

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_t)

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(self.dim))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Orthonormal DFT of ``data`` over the cell axes: mode coefficients per t."""
        return np.fft.fftn(self.data, axes=self.spatial_axes, norm="ortho")

    def mode_eigenvalues(self, energy: float) -> np.ndarray:
        """|k + theta|^2 - E per DFT mode, shape (n, ..., n).

        k + theta has dual-basis coordinates m + mu over the wrapped integer
        modes m, so its squared length is the dual Gram form at m + mu.
        """
        n = self.points_per_cell
        wrapped = (np.arange(n) + n // 2) % n - n // 2  # 0, 1, ..., -1: the DFT order
        axes = [(wrapped + mu).reshape((-1,) + (1,) * (self.dim - 1 - i))
                for i, mu in enumerate(self.theta.coeffs)]
        return form_on_grid(dual_basis(self.lattice).gram(), axes) - float(energy)

    def to_profile(self, energy: float, max_modes: int | None = None):
        """Flatten to a SpectralProfile of the DFT modes above MODE_MASS_FLOOR of the
        fiber's mass, heaviest first (at most ``max_modes`` of them).

        Returns (profile, dropped_mass_fraction).
        """
        eigs = self.mode_eigenvalues(energy).reshape(-1)
        coeffs = self.coefficients.reshape(-1, self.n_t)
        with np.errstate(over="ignore"):
            mass = _sum_abs2(coeffs, axis=1)
            total = float(np.sum(mass))
        if not np.finfo(float).tiny <= total < np.inf and (peak := np.max(np.abs(coeffs))) > 0:
            # the total over- or underflows: the same shares from the coefficients over their largest modulus
            mass = _sum_abs2(coeffs / peak, axis=1)
            total = float(np.sum(mass))
        order = np.argsort(-mass, kind="stable")
        keep = order[: np.count_nonzero(mass > MODE_MASS_FLOOR * total)][:max_modes]
        dropped = 0.0 if total == 0 else float(1.0 - np.sum(mass[keep]) / total)
        return SpectralProfile(eigs=eigs[keep], t_grid=self.t_grid, coeffs=coeffs[keep]), dropped


# The entries beside ``data`` of the fiber file of ``gelfand forward``, a NumPy archive.
_FIBER_KEYS = {
    "mu": (_NUMBERS, True), "points_per_cell": (_POSITIVE_INT, True), "t_start": (_NUMBER, True),
    "t_end": (_NUMBER, True), "tail_bound": (_NUMBER, True), "cells_lo": (_INTS, False),
}


def save_fiber(fiber: BlochFiber, path) -> None:
    """Write ``fiber`` as the archive that ``load_fiber`` reads."""
    origin = {} if fiber.cells_lo is None else {"cells_lo": fiber.cells_lo}
    np.savez(path, data=fiber.data, mu=fiber.theta.coeffs, points_per_cell=fiber.points_per_cell,
             t_start=fiber.t_start, t_end=fiber.t_end, tail_bound=fiber.tail_bound, **origin)


def load_fiber(path, lat: Lattice) -> BlochFiber:
    """The fiber in a file written by ``save_fiber``.

    An unknown, malformed or non-finite entry, or entries that disagree, is a
    SchemaError; a fiber of another dimension than ``lat`` is a refusal
    (exit 2).  Either names the file.
    """
    with reading("fiber file", path):
        arrays = read_npz(path, {"data"}, _FIBER_KEYS)
        doc = {key: a.tolist() for key, a in arrays.items() if key != "data"}
        check_keys("fiber", doc, _FIBER_KEYS)
        if len(doc["mu"]) != lat.dim:
            raise PreconditionError(f"a {len(doc['mu'])}D fiber on a {lat.dim}D lattice")
        return BlochFiber(
            theta=Quasimomentum(coeffs=doc["mu"]), lattice=lat, points_per_cell=doc["points_per_cell"],
            t_start=float(doc["t_start"]), t_end=float(doc["t_end"]), data=arrays["data"],
            tail_bound=float(doc["tail_bound"]), cells_lo=tuple(doc["cells_lo"]) if "cells_lo" in doc else None,
        )


def _intra_cell_phase(axes_mu, n: int, sign: float) -> np.ndarray:
    """exp(sign * 2*pi*i * mu.j/n) over per-axis mu values and the intra-cell grid.

    Shape (K_0, ..., K_{d-1}, n, ..., n): the quasimomentum axes come first.
    """
    dim = len(axes_mu)
    out = np.ones(tuple(len(mu) for mu in axes_mu) + (n,) * dim, dtype=complex)
    for a, mu in enumerate(axes_mu):
        shape = [1] * (2 * dim)
        shape[a], shape[dim + a] = len(mu), n
        out *= np.exp(sign * 2j * math.pi * np.outer(mu, np.arange(n)) / n).reshape(shape)
    return out


def _contract_cells(x: np.ndarray, mats) -> np.ndarray:
    """Apply ``mats[a]`` (B_a x A_a) to axis a of x, shape (A_0, ..., A_{d-1}, ...)."""
    for a, mat in enumerate(mats):
        shape = x.shape
        x = np.matmul(mat, x.reshape(math.prod(shape[:a]), shape[a], -1))
        x = x.reshape(shape[:a] + (mat.shape[0],) + shape[a + 1 :])
    return x


def gelfand_forward(u: SampledField, theta, l_max: int) -> BlochFiber | list[BlochFiber]:
    """Lattice sum sum_c exp(-i theta.(x+c)) u(x+c, t) over cells with |c|_inf <= l_max.

    ``theta`` is one Quasimomentum (one BlochFiber back) or a sequence of them
    (their fibers, in order, from one pass over the field at the cost of the
    product grid of their distinct per-axis coordinates).

    Cells of the sampled box outside the range contribute to the reported
    ``tail_bound`` (the sum of their L2 masses); sampled fields are compactly
    supported on their box, so the bound is complete for them.
    """
    single = isinstance(theta, Quasimomentum)
    thetas = [theta] if single else list(theta)
    if any(q.dim != u.dim for q in thetas):
        raise GridError("quasimomentum dimension disagrees with the field")
    n, dim = u.points_per_cell, u.dim
    axes_mu = [np.unique([q.coeffs[a] for q in thetas]) for a in range(dim)]
    cells = [lo + np.arange(sh) for lo, sh in zip(u.cells_lo, u.cells_shape)]
    inside = [np.abs(c) <= l_max for c in cells]
    mats = [np.exp(-2j * math.pi * np.outer(mu, c)) * ok
            for mu, c, ok in zip(axes_mu, cells, inside)]
    twist = _intra_cell_phase(axes_mu, n, -1.0)
    out = np.empty(twist.shape + (u.n_t,), dtype=complex)
    field = cells_first(u.values, u.cells_shape, n)
    truncated = not all(ok.all() for ok in inside)
    mass = np.zeros(u.cells_shape)
    # one slab per first intra-cell index; up to d = 2 BLAS reads it without a copy
    for j in range(n):
        at = (slice(None),) * dim + (j,)
        np.multiply(_contract_cells(field[at], mats), twist[at][..., None], out=out[at])
        if truncated:
            mass += _sum_abs2(field[at], tuple(range(dim, 2 * dim)))
    mass[np.ix_(*inside)] = 0.0
    w_dt = unit_cell_volume(u.lattice) / n**dim * (u.t_end - u.t_start) / (u.n_t - 1)
    tail = float(np.sum(np.sqrt(w_dt * mass)))
    fibers = [
        BlochFiber(
            theta=q, lattice=u.lattice, points_per_cell=n, t_start=u.t_start, t_end=u.t_end,
            data=out[tuple(np.searchsorted(mu, m) for mu, m in zip(axes_mu, q.coeffs))],
            tail_bound=tail, cells_lo=u.cells_lo,
        )
        for q in thetas
    ]
    return fibers[0] if single else fibers


def theta_grid(lat: Lattice, per_axis: int) -> list[Quasimomentum]:
    """Uniform midpoint grid over the dual cell in dual-basis coordinates.

    Points mu = (p + 1/2)/P per axis, exact rationals with denominator 2P.
    """
    if per_axis < 1:
        raise SchemaError("theta grid needs at least one point per axis")
    return [
        Quasimomentum.from_rational(2 * per_axis, tuple(2 * p + 1 for p in idx))
        for idx in itertools.product(range(per_axis), repeat=lat.dim)
    ]


def gelfand_inverse(fibers: list[BlochFiber], lat: Lattice) -> SampledField:
    """Midpoint-rule reconstruction u(x+c) = avg_theta exp(i theta.(x+c)) fiber.

    Exact for data supported on fewer cells per axis than the theta-grid has
    points per axis.  All fibers must share the cell grid, the t-grid and the
    cell origin, and come from a full uniform theta-grid.  The field is rebuilt
    on the per_axis^d cells from that origin (the centred box when None).
    """
    if not fibers:
        raise SchemaError("need at least one fiber")
    first = fibers[0]
    dim = lat.dim
    per_axis = round(len(fibers) ** (1.0 / dim))
    if per_axis**dim != len(fibers):
        raise SchemaError("fiber collection is not a full per-axis grid")
    n = first.points_per_cell
    centred = (-((per_axis - 1) // 2),) * dim
    cells_lo = centred if first.cells_lo is None else first.cells_lo
    mu = (2 * np.arange(per_axis) + 1) / (2 * per_axis)
    index = []
    grids = (n, dim, first.n_t, first.t_start, first.t_end)
    for f in fibers:
        if (f.points_per_cell, f.dim, f.n_t, f.t_start, f.t_end) != grids:
            raise GridError("fibers disagree on the cell grid or t-grid")
        if (centred if f.cells_lo is None else f.cells_lo) != cells_lo:
            raise GridError("fibers disagree on the cell origin of the field box")
        p = np.rint(f.theta.coeffs * per_axis - 0.5).astype(int)
        if f.theta.dim != dim or np.max(np.abs(f.theta.coeffs - mu[p])) > 1e-12:
            raise SchemaError("fiber quasimomenta do not form the uniform midpoint grid")
        index.append(tuple(p))
    if len(set(index)) != len(fibers):
        raise SchemaError("fiber quasimomenta do not form the uniform midpoint grid")
    mats = [np.exp(2j * math.pi * np.outer(lo + np.arange(per_axis), mu)) for lo in cells_lo]
    twist = _intra_cell_phase([mu] * dim, n, +1.0)
    out = np.empty((per_axis * n,) * dim + (first.n_t,), dtype=complex)
    field = cells_first(out, (per_axis,) * dim, n)
    # one slab of the first intra-cell index at a time, in t-blocks of at most STACK_BYTES:
    # temporaries stay small, the allocator reuses them, and each contiguous write of t per
    # cell and point is n times longer than a block of the whole stack would allow
    step = max(1, STACK_BYTES // (16 * twist.size // n))
    for j in range(n):
        at = (slice(None),) * dim + (j,)
        for t in range(0, first.n_t, step):
            s = slice(t, min(t + step, first.n_t))
            stack = np.empty(twist[at].shape + (s.stop - t,), dtype=complex)
            for p, f in zip(index, fibers):
                stack[p] = f.data[j, ..., s]
            stack *= twist[at][..., None]
            # a vectorized multiply last: it clears vector state zgemm can leave dirty (slow SSE)
            np.multiply(_contract_cells(stack, mats), 1.0 / len(fibers), out=field[at][..., s])
    out.flags.writeable = False  # the field adopts it: one field-sized array
    return SampledField(
        kind="u", lattice=lat, cells_lo=cells_lo, cells_shape=(per_axis,) * dim,
        points_per_cell=n, t_start=first.t_start, t_end=first.t_end, values=out,
    )


def check_potential_grid(potential: SampledField, grid: SampledField | BlochFiber) -> None:
    """Refuse a potential sampled on other points per cell or another t-grid than ``grid``."""
    if potential.points_per_cell != grid.points_per_cell:
        raise GridError("potential grid is incommensurate with the fiber")
    if (potential.n_t, potential.t_start, potential.t_end) != (grid.n_t, grid.t_start, grid.t_end):
        raise GridError("potential t-grid disagrees with the fiber")


def check_residual_t_grid(grid: SampledField | BlochFiber) -> None:
    """Refuse a t-grid too coarse for ``fiber_residual``."""
    if grid.n_t < 5:
        raise GridError("fiber t-grid too coarse (need at least 5 points)")


def fiber_residual(
    fiber: BlochFiber, potential: SampledField | None, energy: float
) -> np.ndarray:
    """||(d_t^2 - A_theta) phi - V_t phi||_{L2(torus)} on interior t points.

    The operator acts on the coefficients (diagonal multipliers), the potential
    on the samples; second t-derivatives are centred differences; endpoints are
    excluded.  Returns the residual per interior t sample; one that overflows is refused.
    """
    check_residual_t_grid(fiber)
    if potential is not None:
        check_potential_grid(potential, fiber)
    t = fiber.t_grid
    with np.errstate(over="ignore", invalid="ignore"):
        res_spec = _residual(fiber.coefficients, fiber.mode_eigenvalues(energy), t[1] - t[0], 1, fiber.n_t - 1)
        res = res_spec  # without V: norm="ortho" is unitary, so Parseval's norm needs no inverse transform
        if potential is not None:
            v_cell = potential.cell_block(potential.cells_lo)[..., 1:-1]
            res = np.fft.ifftn(res_spec, axes=fiber.spatial_axes, norm="ortho") - v_cell * fiber.data[..., 1:-1]
        norms = column_norms(res, unit_cell_volume(fiber.lattice) / fiber.points_per_cell**fiber.dim)
    if not np.isfinite(norms).all():
        raise PreconditionError(f"the fiber residual at energy {energy:g} overflows")
    return norms

