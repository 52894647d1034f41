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

from .errors import GridError, SchemaError
from .fields import SampledField, cells_first
from .lattice import Lattice, Quasimomentum, dual_basis, form_on_grid, unit_cell_volume
from .manifest import read_npz
from .profiles import SpectralProfile, _residual
from .quadrature import composite_simpson

STACK_BYTES = 1 << 20


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
        n = self.points_per_cell
        if self.data.shape[:-1] != (n,) * self.lattice.dim:
            raise GridError("fiber data shape disagrees with the cell grid")
        if self.theta.dim != self.lattice.dim:
            raise GridError("fiber quasimomentum disagrees with the lattice dimension")
        if self.cells_lo is not None and len(self.cells_lo) != self.lattice.dim:
            raise GridError("fiber cell origin disagrees with the lattice dimension")

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
        """Flatten to a SpectralProfile of DFT modes (optionally the heaviest).

        Returns (profile, dropped_mass_fraction).
        """
        eigs = self.mode_eigenvalues(energy).reshape(-1)
        coeffs = self.coefficients.reshape(-1, self.n_t)
        mass = np.sum(np.abs(coeffs) ** 2, axis=1)
        order = np.argsort(-mass, kind="stable")
        total = float(np.sum(mass))
        keep = order if max_modes is None else order[:max_modes]
        dropped = 0.0 if total == 0 else float(1.0 - np.sum(mass[keep]) / total)
        return SpectralProfile(eigs=eigs[keep], t_grid=self.t_grid, coeffs=coeffs[keep]), dropped


# The fiber file of ``gelfand forward``, a NumPy archive: ``data`` plus these
# entries, each (ndim, dtype kinds); ``cells_lo`` is optional, as on BlochFiber.
_FIBER_ENTRIES = {
    "mu": (1, "iuf"), "points_per_cell": (0, "iu"), "t_start": (0, "iuf"),
    "t_end": (0, "iuf"), "tail_bound": (0, "iuf"), "cells_lo": (1, "iu"),
}


def save_fiber(fiber: BlochFiber, path) -> None:
    """Write ``fiber`` as the archive that ``load_fiber`` reads."""
    origin = {} if fiber.cells_lo is None else {"cells_lo": fiber.cells_lo}
    np.savez(path, data=fiber.data, mu=fiber.theta.coeffs, points_per_cell=fiber.points_per_cell,
             t_start=fiber.t_start, t_end=fiber.t_end, tail_bound=fiber.tail_bound, **origin)


def load_fiber(path, lat: Lattice) -> BlochFiber:
    """The fiber in a file written by ``save_fiber``; a malformed entry is a SchemaError."""
    data = read_npz(path, "fiber file", {"data", *_FIBER_ENTRIES} - {"cells_lo"})
    for key, (ndim, kinds) in _FIBER_ENTRIES.items():
        a = data.get(key)
        if a is not None and (a.ndim != ndim or a.dtype.kind not in kinds or not np.isfinite(a).all()):
            what = ("an integer" if kinds == "iu" else "a finite real") + (" scalar" if ndim == 0 else " vector")
            shown = np.array2string(a, threshold=6).replace("\n", "")
            raise SchemaError(f"fiber file {path}: {key} must be {what}, not {shown} ({a.dtype})")
    return BlochFiber(
        theta=Quasimomentum(coeffs=data["mu"]), lattice=lat, points_per_cell=int(data["points_per_cell"]),
        t_start=float(data["t_start"]), t_end=float(data["t_end"]), data=data["data"],
        tail_bound=float(data["tail_bound"]), cells_lo=tuple(data["cells_lo"]) if "cells_lo" in data else None,
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
            mass += np.sum(np.abs(field[at]) ** 2, axis=tuple(range(dim, 2 * dim)))
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
    # a few t-samples per step: temporaries stay small and the allocator reuses them
    step = max(1, STACK_BYTES // (16 * twist.size))
    for t in range(0, first.n_t, step):
        s = slice(t, min(t + step, first.n_t))
        stack = np.empty(twist.shape + (s.stop - t,), dtype=complex)
        for p, f in zip(index, fibers):
            stack[p] = f.data[..., s]
        stack *= twist[..., None]
        # a vectorized multiply last: it clears vector state zgemm can leave dirty (slow SSE)
        np.multiply(_contract_cells(stack, mats), 1.0 / len(fibers), out=field[..., s])
    out.flags.writeable = False  # the field adopts it: one field-sized array
    return SampledField(
        kind="u", lattice=lat, cells_lo=cells_lo, cells_shape=(per_axis,) * dim,
        points_per_cell=n, t_start=first.t_start, t_end=first.t_end, values=out,
    )


def fiber_residual(
    fiber: BlochFiber, potential: SampledField | None, energy: float
) -> np.ndarray:
    """||(d_t^2 - A_theta) phi - V_t phi||_{L2(torus)} on interior t points.

    The operator acts on the coefficients (diagonal multipliers), the potential
    on the samples; second t-derivatives are centred differences; endpoints are
    excluded.  Returns the residual per interior t sample.
    """
    if fiber.n_t < 5:
        raise GridError("fiber t-grid too coarse (need at least 5 points)")
    t = fiber.t_grid
    res_spec = _residual(fiber.coefficients, fiber.mode_eigenvalues(energy), t[1] - t[0], 1, fiber.n_t - 1)
    axes = fiber.spatial_axes
    res_phys = np.fft.ifftn(res_spec, axes=axes, norm="ortho")
    if potential is not None:
        if potential.points_per_cell != fiber.points_per_cell:
            raise GridError("potential grid is incommensurate with the fiber")
        t_range = (fiber.n_t, fiber.t_start, fiber.t_end)
        if (potential.n_t, potential.t_start, potential.t_end) != t_range:
            raise GridError("potential t-grid disagrees with the fiber")
        v_cell = potential.cell_block(potential.cells_lo)[..., 1:-1]
        res_phys = res_phys - v_cell * fiber.data[..., 1:-1]
    w = unit_cell_volume(fiber.lattice) / fiber.points_per_cell**fiber.dim
    return np.sqrt(w * np.sum(np.abs(res_phys) ** 2, axis=axes))


def weighted_norm(
    u: SampledField, kappa: float, decay_lambda: float, weight_power: float = 1.0
) -> tuple[float, float]:
    """Quadrature of <x>^(2 kappa) exp(2 lambda t^power) |u|^2 over the box.

    ``weight_power`` 1 gives the plain exponential weight; 4/3 the stronger
    variant.  Simpson in t for an odd point count, trapezoid otherwise.
    Returns (value, tail_bound); sampled fields are compactly supported on
    their box so the truncation tail is zero by construction.
    """
    if weight_power not in (1.0, 4.0 / 3.0):
        raise SchemaError("weight_power must be 1 or 4/3")
    pos = u.positions()
    xw = (1.0 + np.sum(pos * pos, axis=-1)) ** kappa
    t = u.t_grid
    tw = np.exp(2.0 * decay_lambda * t**weight_power)
    w_x = unit_cell_volume(u.lattice) / u.points_per_cell**u.dim
    y = w_x * np.sum(np.abs(u.values) ** 2 * xw[..., None], axis=tuple(range(u.dim))) * tw
    h = t[1] - t[0]
    value = composite_simpson(y, h) if u.n_t % 2 == 1 else float(np.trapezoid(y, dx=h))
    return value, 0.0
