"""Spectrum of the fiber operator on the torus and its gap statistics.

The fiber operator acts on lattice-periodic functions with eigenvalues
|k + theta|^2 - E over the dual lattice.  Everything here is elementary
lattice-point enumeration; the interesting structure is in the gap scans
and in the reduction of the values to a scaled integral quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    FormArityError,
    RationalityRequiredError,
    SchemaError,
    VerificationError,
)
from .lattice import DualLattice, Lattice, QuadraticForm, Quasimomentum, dual_basis, form_on_grid, integer_gram

MERGE_TOL = 1e-9
DEFAULT_BUDGET = 10_000_000


@dataclass(eq=False)
class SpectrumSlice:
    """Sorted distinct eigenvalues up to a cutoff, with multiplicities."""

    values: np.ndarray
    mults: np.ndarray
    cutoff: float
    energy: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mults = np.asarray(self.mults, dtype=np.int64)
        if self.values.shape != self.mults.shape:
            raise SchemaError("values and multiplicities must align")
        if self.values.size:
            if np.any(np.diff(self.values) <= 0):
                raise SchemaError("spectrum values must be strictly increasing")
            if np.any(self.mults <= 0):
                raise SchemaError("multiplicities must be positive")
            if self.values[-1] > self.cutoff + MERGE_TOL:
                raise SchemaError("spectrum value exceeds cutoff")
            if self.values[0] < -self.energy - MERGE_TOL:
                raise SchemaError("spectrum value below -E")

    def total_count(self) -> int:
        return int(self.mults.sum())


@dataclass(frozen=True)
class Gap:
    """Open interval free of spectrum between two consecutive values."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SchemaError("gap requires lo < hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _merge_close(raw: np.ndarray):
    """Deduplicate sorted values; points within MERGE_TOL of the group head merge.

    Steps above MERGE_TOL split the sorted values into chains, and a new group
    starts at every chain start.  A chain spanning at most MERGE_TOL is one
    group; only wider chains are walked head by head.
    """
    raw = np.sort(raw)
    if raw.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    edges = np.concatenate(([0], np.flatnonzero(np.diff(raw) > MERGE_TOL) + 1, [raw.size]))
    starts, stops = edges[:-1], edges[1:]
    heads = [starts]
    for c in np.flatnonzero(raw[stops - 1] - raw[starts] > MERGE_TOL):
        head = raw[starts[c]]
        for j in range(starts[c] + 1, stops[c]):
            if raw[j] - head > MERGE_TOL:
                heads.append([j])
                head = raw[j]
    heads = np.sort(np.concatenate(heads))
    return raw[heads], np.diff(np.append(heads, raw.size))


def _ellipsoid_axes(gram: np.ndarray, mu, radius2: float, budget: int, l: int = 1, residues=0):
    """Coordinates x_i = l*m_i + r_i of the integer box covering (m+mu)^T gram (m+mu) <= radius2.

    Integer residues give exact coordinates; float ones (l = 1, r = mu) give
    x = m + mu.  Axis i comes shaped to broadcast against the others, so the
    grid is never materialised.  Raises BudgetExceededError when the box holds
    more than ``budget`` points.
    """
    mu = np.asarray(mu, dtype=float)
    half = np.sqrt(max(radius2, 0.0) * np.diagonal(np.linalg.inv(gram))) * (1.0 + 1e-12) + 1e-9
    los, his = np.ceil(-mu - half), np.floor(-mu + half)
    total = math.prod(max(hi - lo + 1.0, 0.0) for lo, hi in zip(los.tolist(), his.tolist()))
    if not total <= budget:  # counted in floats, before any int64 cast could wrap
        raise BudgetExceededError(f"enumeration needs {total:.6g} candidate points, budget is {budget}")
    return [
        (l * np.arange(int(lo), int(hi) + 1, dtype=np.int64) + r).reshape((-1,) + (1,) * (mu.size - 1 - i))
        for i, (lo, hi, r) in enumerate(zip(los, his, np.broadcast_to(residues, mu.shape)))
    ]


def enumerate_spectrum(
    lat: Lattice,
    theta: Quasimomentum,
    energy: float,
    cutoff: float,
    budget: int = DEFAULT_BUDGET,
    verify: bool = False,
) -> SpectrumSlice:
    """All values |k + theta|^2 - E <= cutoff over the dual lattice.

    Enumerates integer coordinates inside the ellipsoid of squared radius
    cutoff + E, evaluates the dual Gram form, and merges coincidences within
    1e-9.  ``verify=True`` re-enumerates with a padded radius and checks that
    no value below the cutoff was missed.
    """
    dual = dual_basis(lat)
    if theta.dim != dual.dim:
        raise SchemaError("quasimomentum dimension disagrees with lattice")
    if not (math.isfinite(cutoff) and math.isfinite(energy)):
        raise SchemaError(f"cutoff and energy must be finite, not {cutoff} and {energy}")
    radius2 = float(cutoff) + float(energy)
    if radius2 < 0.0:
        return SpectrumSlice(
            values=np.empty(0), mults=np.empty(0, dtype=np.int64), cutoff=float(cutoff), energy=float(energy)
        )
    raw = _enumerate_form_values(dual.gram(), theta.coeffs, radius2, budget)
    if verify:
        padded = _enumerate_form_values(dual.gram(), theta.coeffs, radius2 * 1.05 + 1.0, budget)
        padded = padded[padded <= radius2 + MERGE_TOL]
        if padded.size != raw.size:
            raise VerificationError("enumeration completeness check failed")
    values, mults = _merge_close(raw)
    return SpectrumSlice(
        values=values - float(energy), mults=mults, cutoff=float(cutoff), energy=float(energy)
    )


def _enumerate_form_values(gram: np.ndarray, mu: np.ndarray, radius2: float, budget: int) -> np.ndarray:
    """Every (m+mu)^T gram (m+mu) <= radius2 + MERGE_TOL; the box covers that tolerance too."""
    vals = form_on_grid(gram, _ellipsoid_axes(gram, mu, radius2 + MERGE_TOL, budget, residues=mu))
    return vals[vals <= radius2 + MERGE_TOL]


def find_gaps(slc: SpectrumSlice, min_len: float = 0.0, full_axis: bool = False) -> list[Gap]:
    """Maximal gaps between consecutive spectrum values.

    By default only gaps on the positive axis with a positive left endpoint
    are returned (the ones usable as (a^2, b^2) windows); ``full_axis=True``
    reports every consecutive-value gap.
    """
    if slc.values.size == 0:
        raise SchemaError("cannot scan gaps of an empty spectrum slice")
    gaps = []
    for lo, hi in zip(slc.values[:-1], slc.values[1:]):
        if not full_axis and lo <= 0.0:
            continue
        if hi - lo >= min_len:
            gaps.append(Gap(lo=float(lo), hi=float(hi)))
    return gaps


def _value_set_diagonal(q: QuadraticForm, l: int, residues: np.ndarray, bound: int, budget: int) -> np.ndarray:
    """Bool array of attainable q(l*m+r) values up to bound for diagonal q.

    A bit-packed shift-OR sieve: per axis, the attained set is packed into
    eight bit-shifted uint8 copies, and every axis value s ORs copy s % 8 into
    the next set at byte offset s // 8.
    """
    reached = np.zeros(bound + 1, dtype=bool)
    reached[0] = True
    for axis in range(q.dim):
        coeff = int(q.G[axis, axis])
        r = int(residues[axis])
        x, = _ellipsoid_axes(np.array([[float(coeff * l * l)]]), [r / l], float(bound), budget, l, r)
        axis_vals = np.unique(coeff * x * x)
        # the set up to its last member, behind 8 zeros: slice 8-t is the set shifted by t bits
        padded = np.concatenate((np.zeros(8, dtype=bool), reached[: bound + 1 - np.argmax(reached[::-1])]))
        shifted = [np.packbits(padded[8 - t :], bitorder="little") for t in range(8)]
        nxt = np.zeros((bound + 8) // 8, dtype=np.uint8)
        for s in axis_vals[axis_vals <= bound].tolist():
            q8, t = divmod(s, 8)
            stop = min(q8 + shifted[t].size, nxt.size)
            nxt[q8:stop] |= shifted[t][: stop - q8]
        reached = np.unpackbits(nxt, count=bound + 1, bitorder="little").view(bool)
    return reached


def _value_set_general(q: QuadraticForm, l: int, residues: np.ndarray, bound: int, budget: int) -> np.ndarray:
    """Bool array of attainable values via direct ellipsoid enumeration."""
    axes = _ellipsoid_axes(q.G * float(l * l), residues / l, float(bound), budget, l, residues)
    vals = form_on_grid(q.G, axes)
    reached = np.zeros(bound + 1, dtype=bool)
    reached[vals[(vals >= 0) & (vals <= bound)].astype(np.int64, copy=False)] = True
    return reached


def spectrum_value_set(
    q: QuadraticForm, theta: Quasimomentum | None, bound: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Attainable integer values of q(l*m + r) up to ``bound`` as a bool array."""
    if theta is None:
        l, residues = 1, np.zeros(q.dim, dtype=np.int64)
    else:
        if theta.exact is None:
            raise RationalityRequiredError("quasimomentum must be exactly rational")
        l, res = theta.exact
        residues = np.array(res, dtype=np.int64)
        if residues.size != q.dim:
            raise SchemaError("quasimomentum dimension disagrees with form arity")
    if bound + 1 > budget:
        raise BudgetExceededError(f"value sieve of size {bound + 1} exceeds budget {budget}")
    if q.is_diagonal():
        return _value_set_diagonal(q, l, residues, bound, budget)
    return _value_set_general(q, l, residues, bound, budget)


def max_gap_growth(
    q: QuadraticForm,
    theta: Quasimomentum | None,
    n_list,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, float]]:
    """Per N: the maximal gap of (sigma/l^2)*{q(l*m+r)} within [0, N].

    The returned column is monotone non-decreasing in N because the scanned
    ranges are nested.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SchemaError("N_list must be strictly increasing")
    l = 1 if theta is None or theta.exact is None else theta.exact[0]
    unit = q.sigma / (l * l)
    bound = int(Fraction(n_list[-1]) / unit)
    reached = spectrum_value_set(q, theta, bound, budget)
    table = []
    for n in n_list:
        limit = int(Fraction(n) / unit)
        vals = np.flatnonzero(reached[: limit + 1])
        if vals.size < 2:
            table.append((n, 0.0))
            continue
        gap = int(np.max(np.diff(vals)))
        table.append((n, float(Fraction(gap) * unit)))
    return table


def density_scan(q: QuadraticForm, n: int, budget: int = DEFAULT_BUDGET) -> tuple[int, float]:
    """Count distinct values of a binary form up to n (0 included).

    Also returns count*sqrt(ln n)/n for trend inspection; no asymptotic
    constant is asserted, convergence is slow.
    """
    if q.dim != 2:
        raise FormArityError("density scan requires a binary quadratic form")
    if n < 10:
        raise SchemaError("density scan requires N >= 10")
    reached = spectrum_value_set(q, None, int(n), budget)
    count = int(np.count_nonzero(reached))
    ratio = count * math.sqrt(math.log(n)) / n
    return count, ratio


def progression_containment(
    dual: DualLattice,
    q: QuadraticForm,
    theta: Quasimomentum,
    sigma: Fraction,
    l: int,
    n: float,
    exact: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Max distance of any |k+theta|^2 <= n from the grid (sigma/l^2)*Z.

    In exact mode the values are recomputed in integers from the exact dual
    Gram matrix scaled by the lcm D of its denominators: w = l*m + r has value
    N/(D*l^2) with N = w^T (D*gram) w, so the distance is exactly zero whenever
    the reduction is consistent.  In float mode the geometric values are used
    and the distance is bounded by roundoff (<= 1e-9 for sane inputs).
    """
    if not math.isfinite(n):
        raise SchemaError(f"n must be finite, not {n}")
    sigma = Fraction(sigma)
    unit = sigma / (l * l)
    if exact:
        if dual.gram_exact is None or theta.exact is None:
            raise RationalityRequiredError("exact mode needs rational Gram and quasimomentum")
        l_theta, residues = theta.exact
        if l_theta != l:
            raise SchemaError("supplied l disagrees with the quasimomentum denominator")
        axes = _ellipsoid_axes(dual.gram(), theta.coeffs, float(n), budget, l, residues)
        D, nums = integer_gram(dual.gram_exact)
        period = D * sigma.numerator
        # int64 only if N*b and the period D*a both stay below 2**62
        N = form_on_grid(nums, axes, factor=sigma.denominator * period)
        # N/(D l^2) <= n  <=>  N <= floor(num(n) D l^2 / den(n)) for integer N
        n_exact = Fraction(n)
        N = N[N <= n_exact.numerator * D * l * l // n_exact.denominator]
        if N.size == 0:
            return 0.0
        # value/unit = N b / (D a) for sigma = a/b; its distance to Z, in units of 1/(D a)
        rem = N * sigma.denominator % period
        worst = int(np.max(np.minimum(rem, period - rem)))
        return float(Fraction(worst, period) * unit)
    raw = _enumerate_form_values(dual.gram(), theta.coeffs, float(n), budget)
    if raw.size == 0:
        return 0.0
    unit_f = float(unit)
    dist = np.abs(raw - np.round(raw / unit_f) * unit_f)
    return float(np.max(dist))
