"""Finite-mode trajectories t -> phi(t) in a diagonalised operator frame.

A SpectralProfile stores the coefficients of phi(t) over finitely many
orthonormal eigenvectors of a self-adjoint operator, so norms are plain
Euclidean norms of the coefficient columns.  Profiles are the common currency
between the inequality verifiers and the evolution solver.

A bump profile phi(t) = s(t) v is stored factored (BumpProfile): its two
densities have closed forms in the real bump s, so the Carleman ensembles
never build the (modes, t-points) complex array.  Its coefficients, built on
demand, keep the bits of the full product; its densities differ from the
full-array mode sums by roundoff only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError
from .quadrature import grid_step


def check_t_start(t_start: float) -> None:
    """Refuse a profile that starts before t = 0, where the half-space begins."""
    if t_start < 0.0:
        raise SchemaError("t-grid must start at t >= 0")


@dataclass(eq=False)
class SpectralProfile:
    """Coefficients c_i(t) of phi(t) over modes with eigenvalues mu_i, which must be finite."""

    eigs: np.ndarray
    t_grid: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)  # _residual views it as floats
        self._check_frame(self.coeffs.shape)

    def _check_frame(self, coeffs_shape: tuple[int, ...]) -> None:
        """Normalise eigs and t_grid; refuse a frame the coefficient shape does not fit."""
        self.eigs = np.asarray(self.eigs, dtype=float).reshape(-1)
        self.t_grid = np.asarray(self.t_grid, dtype=float).reshape(-1)
        if coeffs_shape != (self.eigs.size, self.t_grid.size):
            raise SchemaError("coefficient array must have shape (modes, t-points)")
        if not np.all(np.isfinite(self.eigs)):
            raise SchemaError("eigenvalues must be finite")
        self.step = grid_step(self.t_grid)
        check_t_start(self.t_grid[0])

    @property
    def alpha(self) -> float:
        """max(0, -min mu), 0 with no modes: the least alpha >= 0 with every mu_i >= -alpha.

        It bounds the profile's own modes only; the operator's bound is its spectrum's.
        """
        return float(max(0.0, -np.min(self.eigs))) if self.eigs.size else 0.0

    @property
    def n_modes(self) -> int:
        return self.eigs.size

    def norms(self) -> np.ndarray:
        """||phi(t)|| on the grid."""
        return column_norms(self.coeffs)

    def first_difference(self) -> np.ndarray:
        """Centred first difference of the coefficients; zero at the ends."""
        out = np.zeros_like(self.coeffs)
        out[:, 1:-1] = _first_difference(self.coeffs, self.step)
        return out

    def equation_residual(self) -> np.ndarray:
        """psi(t) = (d^2/dt^2 - A) phi(t) with centred differences; c'' is 0 at the ends."""
        return _residual(self.coeffs, self.eigs, self.step)

    @cached_property
    def _support_index(self) -> tuple[int, int] | None:
        """(first, last) grid index with a nonzero coefficient, or None."""
        idx = np.flatnonzero(np.any(self.coeffs, axis=0))
        return (int(idx[0]), int(idx[-1])) if idx.size else None

    @cached_property
    def _stencil(self) -> slice | None:
        """Grid indices whose difference stencil touches the support; all else is exactly 0."""
        idx = self._support_index
        return None if idx is None else slice(max(idx[0] - 1, 0), min(idx[1] + 2, self.t_grid.size))

    def support(self) -> tuple[float, float] | None:
        """(first, last) grid time with a nonzero coefficient, or None."""
        idx = self._support_index
        return None if idx is None else (float(self.t_grid[idx[0]]), float(self.t_grid[idx[1]]))

    def peak_exponent(self) -> int:
        """k with phi's largest real or imaginary part on its stencil in [2^(k-1), 2^k); 0 with no support.

        phi 2^-k peaks near 1, so a ratio homogeneous in phi takes densities(k) at any scale of phi.
        """
        return 0 if self._stencil is None else math.frexp(self._stencil_peak())[1]

    def _stencil_peak(self) -> float:
        return float(np.abs(self.coeffs[:, self._stencil].view(np.float64)).max())

    def densities(self, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Mode sums of |c|^2 and of |equation_residual()|^2 per t of phi 2^-shift, as two fresh arrays.

        Only the columns whose stencil touches the support are computed; the
        others are exactly 0 in both sums.
        """
        n = self.t_grid.size
        norm2, psi2 = np.zeros(n), np.zeros(n)
        if self._stencil is not None:
            lo, hi = self._stencil.start, self._stencil.stop
            s, e = _sum_abs2(self.coeffs[:, lo:hi])
            norm2[lo:hi] = np.ldexp(s, e - 2 * shift)
            s, e = _sum_abs2(_residual(self.coeffs, self.eigs, self.step, lo, hi))
            psi2[lo:hi] = np.ldexp(s, e - 2 * shift)
        return norm2, psi2


def _sum_abs2(z: np.ndarray, axis=0) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with np.ldexp(s, e) the sum of |z|^2 along ``axis``, for |z| anywhere in the floats.

    |z| is scaled by 2^-k, 2^k the power of two just above its largest value along ``axis``, then
    squared (e = 2k).  That is exact in the normal range, so ldexp(s, e) keeps the bits of the plain
    sum wherever no |z|^2 term leaves the normal floats.  |z| stays np.abs (hypot): re^2 + im^2
    would change the last bits.
    """
    mag = np.abs(z)
    k = np.frexp(mag.max(axis=axis, keepdims=True, initial=0.0))[1]
    np.ldexp(mag, -k, out=mag)
    s = np.sum(np.multiply(mag, mag, out=mag), axis=axis)
    return s, 2 * np.squeeze(k, axis)


def column_norms(z: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """sqrt(weight * sum |z|^2) over every axis but the last, one value per column, as
    ldexp(sqrt(weight * s), e / 2) from _sum_abs2: a column keeps its norm where its sum leaves the floats."""
    s, e = _sum_abs2(z, tuple(range(z.ndim - 1)))
    return np.ldexp(np.sqrt(weight * s), e // 2)


def _first_difference(c: np.ndarray, h: float) -> np.ndarray:
    """Centred first difference along the last axis, interior columns only."""
    return (c[..., 2:] - c[..., :-2]) / (2 * h)


def _second_difference(c: np.ndarray, h: float) -> np.ndarray:
    """Centred second difference along the last axis, interior columns only."""
    d = np.multiply(c[..., 1:-1], -2.0, order="C")
    d += c[..., 2:]
    d += c[..., :-2]
    d.view(np.float64)[...] *= 1.0 / h**2  # the bits of d / h**2 without a complex division
    return d


def _residual(c: np.ndarray, mu: np.ndarray, h: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """psi = c'' - mu c on columns lo:hi, with c'' = 0 at the grid ends.

    The one discretisation of d_t^2 - A: time runs along the last axis of c,
    which must be contiguous, and the real eigenvalues mu of A along its
    leading axes (a real 1-D c is broadcast against every mu).  (-mu) scales
    the (re, im) pairs of a complex c in place of a complex product, and
    -mu c + c'' has the bits of c'' - mu c.
    """
    n = c.shape[-1]
    hi = n if hi is None else hi
    a, b = max(lo, 1), min(hi, n - 1)
    k = c.itemsize // 8  # floats per sample: 2 for complex c, 1 for real c
    psi = np.multiply(-mu[..., None], c[..., lo:hi].view(np.float64))
    inner = psi[..., k * (a - lo) : k * (b - lo)]
    inner += _second_difference(c[..., a - 1 : b + 1], h).view(np.float64)
    return psi.view(c.dtype)


def smooth_bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s|<1, zero outside; peak value 1/e at s=0."""
    out = np.zeros_like(s, dtype=float)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp 0->1 on [0,1]; sup|S'|=15/8, sup|S''|=10/sqrt(3)."""
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def plateau_shape(t: np.ndarray, lo: float, hi: float, taper: float) -> np.ndarray:
    """Cut-off window: 0 outside (lo,hi), 1 on [lo+taper, hi-taper].

    The tapers are quintic smoothsteps of width ``taper``; their derivative
    sups stay below 2/taper and 8/taper^2 respectively.
    """
    if hi - lo <= 2.0 * taper:
        raise SchemaError("support too short for the requested taper width")
    with np.errstate(over="ignore"):  # a subnormal taper: +-inf, which the ramp clips like any s outside [0, 1]
        up = _smoothstep((t - lo) / taper)
        down = _smoothstep((hi - t) / taper)
    shape = np.minimum(up, down)
    shape[(t <= lo) | (t >= hi)] = 0.0
    return shape


class BumpProfile(SpectralProfile):
    """phi(t) = s(t) v, stored as its factors: amplitudes v (M,) and a real bump s (n,).

    A is diagonal in the profile's frame, so ||phi||^2 = |v|^2 s^2 and
    ||phi'' - A phi||^2 = sum_i |v_i|^2 (s'' - mu_i s)^2, both in real
    arithmetic.  ``coeffs`` = v s^T is built only on first access, then cached
    read-only; the support and both densities never need it.  ``_span`` holds
    the indices lo:hi outside which s is 0; ``bump_profile`` narrows it from
    the whole grid to its support.
    """

    _span = (0, None)

    def __init__(self, eigs, t_grid, amps: np.ndarray, bump: np.ndarray):
        self.eigs, self.t_grid = eigs, t_grid
        self.amps = np.ascontiguousarray(amps, dtype=complex).reshape(-1)  # _peak_part views it as floats
        self.bump = np.ascontiguousarray(bump, dtype=float).reshape(-1)
        self._check_frame((self.amps.size, self.bump.size))

    @cached_property
    def coeffs(self) -> np.ndarray:
        c = self.amps[:, None] * self.bump[None, :]
        c.flags.writeable = False
        return c

    @cached_property
    def _peak_part(self) -> float:
        """The largest |Re v_i| or |Im v_i|."""
        return float(np.max(np.abs(self.amps.view(np.float64))))

    @cached_property
    def _support_index(self) -> tuple[int, int] | None:
        # A coefficient column v_i s_j is nonzero iff one of its parts is, and rounding is
        # monotone, so the columns of s * (largest part) that are nonzero are exactly the
        # columns of coeffs that are, also where a product underflows.
        lo, hi = self._span
        idx = np.flatnonzero(self.bump[lo:hi] * self._peak_part)
        return (lo + int(idx[0]), lo + int(idx[-1])) if idx.size else None

    def _stencil_peak(self) -> float:
        return self._peak_part * float(self.bump[self._stencil].max())  # coeffs' bit for bit: s >= 0

    def densities(self, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The closed forms |v|^2 s^2 and sum_i (|v_i| (s'' - mu_i s))^2 on the stencil, of phi 2^-shift.

        |v|^2 s^2 is taken as sum_i (|v_i|/p)^2 (p s)^2 with p the largest part
        of v, and each residual row is scaled by its own |v_i| before it is
        squared, so a square over- or underflows where the full-array mode sum's
        does, not where |v|^2 alone would.
        """
        n = self.t_grid.size
        norm2, psi2 = np.zeros(n), np.zeros(n)
        if self._stencil is not None:
            lo, hi = self._stencil.start, self._stencil.stop
            p, mod = math.ldexp(self._peak_part, -shift), np.ldexp(np.abs(self.amps), -shift)
            norm2[lo:hi] = np.sum((mod / p) ** 2) * (p * self.bump[lo:hi]) ** 2
            r = _residual(self.bump, self.eigs, self.step, lo, hi)
            r *= mod[:, None]
            psi2[lo:hi] = np.sum(np.square(r, out=r), axis=0)
        return norm2, psi2


def bump_profile(support: tuple[float, float], modes, t_grid: np.ndarray) -> BumpProfile:
    """Compactly supported smooth profile on the grid.

    ``modes`` is a list of (eigenvalue, coefficient) pairs; each coefficient
    multiplies the common smooth bump over ``support``.
    """
    t_lo, t_hi = float(support[0]), float(support[1])
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid[0] <= t_lo < t_hi <= t_grid[-1]):
        raise SchemaError("support must lie inside the t-grid")
    if not modes:
        raise SchemaError("at least one mode is required")
    # s is monotone in t and the bump is 0 where |s| >= 1: one grid point of slack on each side of
    # [t_lo, t_hi] holds every point that rounding of s moves inside, wherever the step exceeds a few ulps of t
    lo = max(int(np.searchsorted(t_grid, t_lo)) - 1, 0)
    hi = min(int(np.searchsorted(t_grid, t_hi, side="right")) + 1, t_grid.size)
    shape = np.zeros(t_grid.size)
    shape[lo:hi] = smooth_bump((2.0 * t_grid[lo:hi] - (t_lo + t_hi)) / (t_hi - t_lo))
    eigs = np.array([float(m[0]) for m in modes])
    amps = np.array([complex(m[1]) for m in modes])
    profile = BumpProfile(eigs, t_grid, amps, shape)
    profile._span = (lo, hi)
    return profile


def zero_profile(eigs, t_grid: np.ndarray) -> SpectralProfile:
    eigs = np.asarray(eigs, dtype=float).reshape(-1)
    t_grid = np.asarray(t_grid, dtype=float)
    return SpectralProfile(eigs=eigs, t_grid=t_grid, coeffs=np.zeros((eigs.size, t_grid.size), dtype=complex))

