"""Spectrum of the fiber operator on the torus and its gap statistics.

The fiber operator acts on lattice-periodic functions with eigenvalues
|k + theta|^2 - E over the dual lattice.  Everything here is elementary
lattice-point enumeration; the interesting structure is in the gap scans
and in the reduction of the values to a scaled integral quadratic form.
One walk, ``_box_blocks``, goes through every enumeration box VALUE_BLOCK
candidates at a time: value sets scatter each block, containment keeps a
running maximum, and the spectrum counts the integer numerators N of its
values N/(D*l^2) within the radius when theta and the dual Gram are exact,
or keeps the float values otherwise.  Value sets and containment walk half
the box when the class of the coordinates is closed under x -> -x.  The
diagonal sieve keeps its value set bit-packed, and the gap scan goes
through the set VALUE_BLOCK entries at a time.
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
from .lattice import Lattice, QuadraticForm, Quasimomentum, dual_basis, form_on_grid, integer_gram

MERGE_TOL = 1e-9
# candidate points of one enumeration box, and entries of one value sieve
ENUMERATION_POINTS = 10_000_000
VALUE_BLOCK = 2**16  # candidates per enumeration block, and set entries per gap-scan block


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


def _ellipsoid_axes(gram: np.ndarray, mu, radius2: float, l: int = 1, residues=0):
    """Coordinates x_i = l*m_i + r_i of the integer box covering (m+mu)^T gram (m+mu) <= radius2.

    Integer residues give exact coordinates; float ones (l = 1, r = mu) give
    x = m + mu.  Axis i comes shaped to broadcast against the others, so the
    grid is never materialised.  Raises BudgetExceededError when the box holds
    more than ENUMERATION_POINTS points.
    """
    mu = np.asarray(mu, dtype=float)
    half = np.sqrt(max(radius2, 0.0) * np.diagonal(np.linalg.inv(gram))) * (1.0 + 1e-12) + 1e-9
    los, his = np.ceil(-mu - half), np.floor(-mu + half)
    total = math.prod(max(hi - lo + 1.0, 0.0) for lo, hi in zip(los.tolist(), his.tolist()))
    if not total <= ENUMERATION_POINTS:  # counted in floats, before any int64 cast could wrap
        raise BudgetExceededError(f"enumeration needs {total:.6g} candidate points, budget is {ENUMERATION_POINTS}")
    return [
        (l * np.arange(int(lo), int(hi) + 1, dtype=np.int64) + r).reshape((-1,) + (1,) * (mu.size - 1 - i))
        for i, (lo, hi, r) in enumerate(zip(los, his, np.broadcast_to(residues, mu.shape)))
    ]


def _box_blocks(G, axes, factor: int = 1):
    """form_on_grid over the box of ``axes`` in grid order, in blocks of its first axis
    of at most VALUE_BLOCK candidates (one row, when a row is longer)."""
    first, *rest = axes
    rows = max(1, VALUE_BLOCK // max(math.prod(ax.size for ax in rest), 1))
    for i in range(0, first.size, rows):
        yield form_on_grid(G, [first[i : i + rows], *rest], factor)


def _sub_box_blocks(G, axes, outer):
    """Per block of the walk of the box of ``outer``, the block and the slices of it that lie in
    the box of ``axes``, a sub-box on the same coordinates (an empty axis gives empty slices)."""
    lo = [int(np.searchsorted(o.ravel(), a.ravel()[0])) if a.size else 0 for a, o in zip(axes, outer)]
    hi = [start + a.size for start, a in zip(lo, axes)]
    row = 0
    for block in _box_blocks(G, outer):
        view = (slice(max(lo[0] - row, 0), max(hi[0] - row, 0)), *map(slice, lo[1:], hi[1:]))
        row += block.shape[0]
        yield block, view


def _half_box(axes, l: int, residues):
    """The rows x_0 >= 0 of the box when its class x = r (mod l) is closed under x -> -x,
    that is when 2r = 0 (mod l) on every axis: a form takes the same values on both halves."""
    if np.any((2 * np.asarray(residues)) % l):
        return axes
    first, *rest = axes
    return [first[first.ravel() >= 0], *rest]


def _form_value_blocks(gram: np.ndarray, mu: np.ndarray, radius2: float, half: bool = False):
    """Per block, every (m+mu)^T gram (m+mu) <= radius2 + MERGE_TOL; the box covers that tolerance too.

    ``half=True`` walks half the box where ``_half_box`` allows it: the same values, not their multiplicities.
    """
    axes = _ellipsoid_axes(gram, mu, radius2 + MERGE_TOL, residues=mu)
    for vals in _box_blocks(gram, _half_box(axes, 1, mu) if half else axes):
        yield vals[vals <= radius2 + MERGE_TOL]


def enumerate_spectrum(
    lat: Lattice,
    theta: Quasimomentum,
    energy: float,
    cutoff: float,
    verify: bool = False,
) -> SpectrumSlice:
    """All values |k + theta|^2 - E <= cutoff over the dual lattice.

    Walks the box of the ellipsoid of squared radius cutoff + E + MERGE_TOL.  With an
    exactly rational theta = r/l and an exact dual Gram G, each value is N/(D*l^2) - E
    for the integer N = x^T (D*G) x, x = l*m + r, D the lcm of G's denominators.  The
    numerators N <= (cutoff + E + MERGE_TOL)*D*l^2 are counted, by np.bincount when the
    count array has no more entries than the box has points and by np.unique otherwise,
    so the multiplicities are exact and N/(D*l^2) is correctly rounded.  Any other input
    keeps the float values within the radius, sorts them once and merges coincidences
    within MERGE_TOL.  ``verify=True`` walks a box of padded radius instead, of which
    the first box is a sub-box, and checks that both hold as many values within the radius.
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
    exact = theta.exact is not None and dual.gram_exact is not None
    if exact:
        (l, residues), (D, G) = theta.exact, integer_gram(dual.gram_exact)
        scale = D * l * l
        # the float path's rule value <= cutoff + E + MERGE_TOL, in exact arithmetic
        top = math.floor((Fraction(float(cutoff)) + Fraction(float(energy)) + Fraction(MERGE_TOL)) * scale)
    else:
        l, residues, G, top = 1, theta.coeffs, dual.gram(), radius2 + MERGE_TOL
    axes = _ellipsoid_axes(dual.gram(), theta.coeffs, radius2 + MERGE_TOL, l, residues)
    outer = _ellipsoid_axes(dual.gram(), theta.coeffs, radius2 * 1.05 + 1.0, l, residues) if verify else axes
    dense = exact and top + 1 <= math.prod(ax.size for ax in axes)
    counts, kept, found, padded = np.zeros(top + 1 if dense else 0, dtype=np.int64), [], 0, 0
    for block, view in _sub_box_blocks(G, axes, outer):
        inside = block <= top
        vals = block[view][inside[view]]
        found, padded = found + vals.size, padded + int(np.count_nonzero(inside))
        if dense:
            counts += np.bincount(vals.astype(np.intp, copy=False), minlength=top + 1)
        else:
            kept.append(vals)
    if padded != found:  # only a padded box (verify=True) can hold more
        raise VerificationError("enumeration completeness check failed")
    raw = np.concatenate([np.empty(0, dtype=np.int64), *kept])
    if not exact:
        raw.sort()
        values, mults = _merge_close(raw)
    else:
        if dense:
            nums = np.flatnonzero(counts)
            mults = counts[nums]
        else:
            nums, mults = np.unique(raw, return_counts=True)
        if scale < 2**53 and top < 2**53:  # both exact in float64, so one IEEE division rounds correctly
            values = nums.astype(float) / scale
        else:  # a quotient of Python ints rounds correctly
            values = np.array([n / scale for n in nums.tolist()], dtype=float)
    values = values - float(energy)
    if np.any(np.diff(values) <= 0):  # values that -E (or the rounding of N/(D*l^2)) brings to one float
        values, where = np.unique(values, return_inverse=True)
        mults = np.bincount(where, weights=mults).astype(np.int64)
    return SpectrumSlice(values=values, mults=mults, cutoff=float(cutoff), energy=float(energy))


def find_gaps(slc: SpectrumSlice, min_len: float = 0.0, full_axis: bool = False) -> list[Gap]:
    """Maximal gaps between consecutive spectrum values.

    By default only gaps on the positive axis with a positive left endpoint
    are returned (the ones usable as (a^2, b^2) windows); ``full_axis=True``
    reports every consecutive-value gap.  An empty slice has no gaps.
    """
    return [Gap(lo=float(lo), hi=float(hi)) for lo, hi in zip(slc.values[:-1], slc.values[1:])
            if (full_axis or lo > 0.0) and hi - lo >= min_len]


def _value_set_diagonal(q: QuadraticForm, l: int, residues: np.ndarray, bound: int) -> np.ndarray:
    """Bool array of attainable q(l*m+r) values up to bound for diagonal q.

    A bit-packed shift-OR sieve, value v at bit v % 8 of byte v // 8, unpacked
    only at the return.  The first axis sets its values' bits by indexing; each
    later axis value s ORs the set, shifted by s % 8 bits, into the next set at
    byte offset s // 8.  The shifted copies are made one at a time by byte
    shifts of the packed set, each byte taking the bits its predecessor carries.
    """
    packed = None
    for axis in range(q.dim):
        coeff = int(q.G[axis, axis])
        r = int(residues[axis])
        x, = _ellipsoid_axes(np.array([[float(coeff * l * l)]]), [r / l], float(bound), l, r)
        s = np.unique(coeff * x * x)
        s = s[s <= bound]
        nxt = np.zeros((bound + 8) // 8, dtype=np.uint8)
        if packed is None:
            np.bitwise_or.at(nxt, s >> 3, (1 << (s & 7)).astype(np.uint8))
        else:
            for t in np.unique(s & 7).tolist():
                shifted = packed << t
                if t:
                    shifted[1:] |= packed[:-1] >> (8 - t)
                for q8 in (s[(s & 7) == t] >> 3).tolist():
                    nxt[q8:] |= shifted[: nxt.size - q8]
        packed = nxt
    return np.unpackbits(packed, count=bound + 1, bitorder="little").view(bool)


def _value_set_general(q: QuadraticForm, l: int, residues: np.ndarray, bound: int) -> np.ndarray:
    """Bool array of attainable values; each block of the walk of (half) the box is scattered into the set.

    q is positive definite (QuadraticForm refuses any other), so no value is negative.
    """
    axes = _ellipsoid_axes(q.G * float(l * l), residues / l, float(bound), l, residues)
    reached = np.zeros(bound + 1, dtype=bool)
    for vals in _box_blocks(q.G, _half_box(axes, l, residues)):
        reached[vals[vals <= bound].astype(np.int64, copy=False)] = True
    return reached


def spectrum_value_set(q: QuadraticForm, theta: Quasimomentum | None, bound: int) -> np.ndarray:
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
    if bound + 1 > ENUMERATION_POINTS:
        raise BudgetExceededError(f"value sieve of size {bound + 1} exceeds budget {ENUMERATION_POINTS}")
    if q.is_diagonal():
        return _value_set_diagonal(q, l, residues, bound)
    return _value_set_general(q, l, residues, bound)


def max_gap_growth(q: QuadraticForm, theta: Quasimomentum | None, n_list) -> list[tuple[int, float]]:
    """Per N: the maximal gap of (sigma/l^2)*{q(l*m+r)} within [0, N].

    One scan of the value set serves the whole table: it walks the set in
    blocks of VALUE_BLOCK entries and carries the last attained value from one
    block to the next, so the returned column is monotone non-decreasing in N.
    An empty N_list, or a negative N, is a SchemaError.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or n_list[0] < 0:
        raise SchemaError(f"N_list must be a non-empty list of N >= 0, not {n_list}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SchemaError("N_list must be strictly increasing")
    l = 1 if theta is None or theta.exact is None else theta.exact[0]
    unit = q.sigma / (l * l)
    reached = spectrum_value_set(q, theta, int(Fraction(n_list[-1]) / unit))
    table, gap, last, start = [], 0, None, 0
    for n in n_list:
        stop = int(Fraction(n) / unit) + 1
        for lo in range(start, stop, VALUE_BLOCK):
            vals = np.flatnonzero(reached[lo : min(lo + VALUE_BLOCK, stop)]) + lo
            if vals.size:
                steps = np.diff(vals) if last is None else np.diff(vals, prepend=last)
                gap, last = max(gap, int(steps.max(initial=0))), int(vals[-1])
        start = stop
        table.append((n, float(Fraction(gap) * unit)))
    return table


def density_scan(q: QuadraticForm, n: int) -> tuple[int, float]:
    """Count distinct values of a binary form up to n (0 included).

    Also returns count*sqrt(ln n)/n for trend inspection; no asymptotic
    constant is asserted, convergence is slow.
    """
    if q.dim != 2:
        raise FormArityError("density scan requires a binary quadratic form")
    if n < 10:
        raise SchemaError("density scan requires N >= 10")
    reached = spectrum_value_set(q, None, int(n))
    count = int(np.count_nonzero(reached))
    ratio = count * math.sqrt(math.log(n)) / n
    return count, ratio


def progression_containment(
    dual: Lattice,
    q: QuadraticForm,
    theta: Quasimomentum,
    sigma: Fraction,
    l: int,
    n: float,
    exact: bool = True,
) -> float:
    """Max distance of any |k+theta|^2 <= n from the grid (sigma/l^2)*Z.

    In exact mode the values are recomputed in integers from the exact dual
    Gram matrix scaled by the lcm D of its denominators: w = l*m + r has value
    N/(D*l^2) with N = w^T (D*gram) w, so the distance is exactly zero whenever
    the reduction is consistent.  In float mode the geometric values are used
    and the distance is bounded by roundoff (<= 1e-9 for sane inputs).  Both
    modes walk half the box when ``_half_box`` allows it.
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
        axes = _ellipsoid_axes(dual.gram(), theta.coeffs, float(n), l, residues)
        D, nums = integer_gram(dual.gram_exact)
        period = D * sigma.numerator
        # N/(D l^2) <= n  <=>  N <= floor(num(n) D l^2 / den(n)) for integer N
        n_exact = Fraction(n)
        top, worst = n_exact.numerator * D * l * l // n_exact.denominator, 0
        # each block is int64 only if its N*b and the period D*a both stay below 2**62
        for N in _box_blocks(nums, _half_box(axes, l, residues), factor=sigma.denominator * period):
            # value/unit = N b / (D a) for sigma = a/b; its distance to Z, in units of 1/(D a)
            rem = N[N <= top] * sigma.denominator % period
            worst = max(worst, int(np.minimum(rem, period - rem).max(initial=0)))
        return float(Fraction(worst, period) * unit)
    unit_f = float(unit)
    worst = 0.0
    for raw in _form_value_blocks(dual.gram(), theta.coeffs, float(n), half=True):
        worst = max(worst, float(np.abs(raw - np.round(raw / unit_f) * unit_f).max(initial=0.0)))
    return worst
