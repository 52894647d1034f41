import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace_decay import (
    BudgetExceededError,
    FormArityError,
    Lattice,
    QuadraticForm,
    Quasimomentum,
    SchemaError,
    density_scan,
    dual_basis,
    enumerate_spectrum,
    find_gaps,
    max_gap_growth,
    progression_containment,
)
from halfspace_decay.lattice import integer_gram, rational_structure
from halfspace_decay.spectrum import (
    MERGE_TOL,
    _ellipsoid_axes,
    _enumerate_form_values,
    _merge_close,
    spectrum_value_set,
)

TWO_PI = 2.0 * math.pi


def brute_force_values(lat, theta, energy, cutoff):
    """Independent oracle: box loop sized by the smallest dual singular value."""
    dual = dual_basis(lat)
    radius2 = cutoff + energy
    if radius2 < 0:
        return []
    s_min = np.linalg.svd(dual.basis, compute_uv=False).min()
    reach = int(math.ceil(math.sqrt(radius2) / s_min)) + 1
    dim = lat.dim
    vals = []
    for m in np.ndindex(*([2 * reach + 1] * dim)):
        mv = np.array(m) - reach
        k = dual.basis @ (mv + theta.coeffs)
        v = float(k @ k) - energy
        if v <= cutoff + 1e-9:
            vals.append(v)
    vals.sort()
    merged = []
    for v in vals:
        if merged and v - merged[-1][0] <= 1e-9:
            merged[-1][1] += 1
        else:
            merged.append([v, 1])
    return merged


def test_enumerate_line_squares():
    lat = Lattice(basis=np.array([[TWO_PI]]))  # dual = Z
    slc = enumerate_spectrum(lat, Quasimomentum.zero(1), 0.0, 10.0)
    assert slc.values.tolist() == pytest.approx([0.0, 1.0, 4.0, 9.0], abs=1e-12)
    assert slc.mults.tolist() == [1, 2, 2, 2]


def test_enumerate_two_squares():
    lat = Lattice.cubic(TWO_PI, 2)  # dual = Z^2
    slc = enumerate_spectrum(lat, Quasimomentum.zero(2), 0.0, 12.0)
    assert slc.values.tolist() == pytest.approx([0, 1, 2, 4, 5, 8, 9, 10], abs=1e-12)


def test_enumerate_shifted_with_energy():
    lat = Lattice(basis=np.array([[TWO_PI]]))
    theta = Quasimomentum.from_rational(2, (1,))
    slc = enumerate_spectrum(lat, theta, 1.0, 6.0)
    assert slc.values.tolist() == pytest.approx([-0.75, 1.25, 5.25], abs=1e-12)
    assert slc.mults.tolist() == [2, 2, 2]


def test_empty_below_minus_energy():
    lat = Lattice(basis=np.array([[TWO_PI]]))
    slc = enumerate_spectrum(lat, Quasimomentum.zero(1), -5.0, 2.0)
    assert slc.values.size == 0


def test_budget_exceeded():
    lat = Lattice.cubic(TWO_PI, 3)
    with pytest.raises(BudgetExceededError):
        enumerate_spectrum(lat, Quasimomentum.zero(3), 0.0, 10.0**6, budget=1000)


@st.composite
def random_case(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = draw(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=dim * dim, max_size=dim * dim)
    )
    m = np.array(entries, dtype=float).reshape(dim, dim)
    gram_f = m @ m.T + np.eye(dim)
    gram = [[Fraction(int(round(gram_f[i, j]))) for j in range(dim)] for i in range(dim)]
    lat = Lattice.from_dual_gram(gram)
    l = draw(st.integers(min_value=1, max_value=4))
    residues = tuple(draw(st.integers(min_value=0, max_value=l - 1)) for _ in range(dim))
    theta = Quasimomentum.from_rational(l, residues)
    energy = draw(st.floats(min_value=-5.0, max_value=5.0))
    cutoff = draw(st.floats(min_value=1.0, max_value=60.0))
    return lat, theta, energy, cutoff


@settings(max_examples=25, deadline=None)
@given(random_case())
def test_oracle_equivalence(case):
    lat, theta, energy, cutoff = case
    slc = enumerate_spectrum(lat, theta, energy, cutoff, verify=True)
    oracle = brute_force_values(lat, theta, energy, cutoff)
    assert slc.values.size == len(oracle)
    for (ov, om), v, m in zip(oracle, slc.values, slc.mults):
        assert abs(ov - v) <= 1e-9
        assert om == m


@st.composite
def float_form_case(draw):
    """A dual basis F = D + U (D diagonal, U strictly upper), mu in [0,1)^d and a cutoff."""
    dim = draw(st.integers(min_value=1, max_value=3))
    diagonal = draw(st.booleans())
    F = np.diag(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    if not diagonal:
        F[np.triu_indices(dim, 1)] = draw(
            st.lists(st.floats(-1.0, 1.0), min_size=dim * (dim - 1) // 2, max_size=dim * (dim - 1) // 2)
        )
    mu = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=dim, max_size=dim))
    cutoff = draw(st.floats(min_value=0.0, max_value=30.0))
    return F, np.array(mu), cutoff, diagonal


def einsum_grid_values(gram, mu, radius2):
    """Oracle: the form on a materialised box grid, one einsum over its rows."""
    # |x|_inf <= |x|_2 <= sqrt(radius2 / lambda_min) on the ellipsoid
    reach = int(math.sqrt(radius2 / np.linalg.eigvalsh(gram)[0])) + 2
    line = np.arange(-reach, reach + 1)
    grids = np.meshgrid(*[line] * mu.size, indexing="ij")
    x = np.stack([g.reshape(-1) for g in grids], axis=-1).astype(float) + mu
    vals = np.einsum("ni,ij,nj->n", x, gram, x)
    return np.sort(vals[vals <= radius2 + MERGE_TOL])


@settings(max_examples=60, deadline=None)
@given(float_form_case())
# the cubic 3D enumeration of the benchmark, theta = (1, 1, 2)/3, cutoff 10^3
@example((np.eye(3), np.array([1.0, 1.0, 2.0]) / 3, 1000.0, True))
# x = -1e-5 lies outside the cutoff-0 box, yet within MERGE_TOL of the cutoff
@example((np.eye(1), np.array([0.99999]), 0.0, False))
def test_float_enumeration_matches_einsum_grid(case):
    F, mu, cutoff, diagonal = case
    lat = Lattice(basis=TWO_PI * np.linalg.inv(F.T))
    gram = dual_basis(lat).gram()
    want = einsum_grid_values(gram, mu, cutoff)
    got = np.sort(_enumerate_form_values(gram, mu, cutoff, budget=10**7))
    assert got.size == want.size
    # every term G_ij x_i x_j is at most about cond(G) * cutoff
    assert np.all(np.abs(got - want) <= 1e-12 * max(cutoff, 1.0))
    slc = enumerate_spectrum(lat, Quasimomentum(coeffs=mu), 0.0, cutoff)
    values, mults = _merge_close(want)
    assert np.array_equal(slc.mults, mults)
    if diagonal:
        assert np.array_equal(got, want) and np.array_equal(slc.values, values)


@pytest.mark.parametrize(
    "F, cutoff",
    [(np.eye(3), 4200.0), (np.array([[1.0, 0.4, -0.3], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]), 3300.0)],
    ids=["cubic", "skew"],
)
def test_float_enumeration_never_materialises_the_grid(F, cutoff):
    """Peak memory stays within 3 * 8 bytes per candidate point of the box."""
    lat = Lattice(basis=TWO_PI * np.linalg.inv(F.T))
    theta = Quasimomentum(coeffs=[0.25, 0.5, 0.125])
    n = math.prod(ax.size for ax in _ellipsoid_axes(dual_basis(lat).gram(), theta.coeffs, cutoff, 10**7))
    assert 1.8e6 <= n <= 2.4e6
    tracemalloc.start()
    try:
        enumerate_spectrum(lat, theta, 0.0, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n, peak / (8 * n)


def test_shift_covariance_exact():
    lat = Lattice.from_dual_gram([["2", "1"], ["1", "3"]])
    theta = Quasimomentum.from_rational(3, (1, 2))
    energy = 2.5
    cutoff = 40.0
    shifted = enumerate_spectrum(lat, theta, energy, cutoff)
    base = enumerate_spectrum(lat, theta, 0.0, cutoff + energy)
    assert shifted.values.size == base.values.size
    assert np.array_equal(shifted.values, base.values - energy)
    assert np.array_equal(shifted.mults, base.mults)


def test_find_gaps_examples():
    lat = Lattice(basis=np.array([[TWO_PI]]))
    slc = enumerate_spectrum(lat, Quasimomentum.zero(1), 0.0, 10.0)
    gaps = find_gaps(slc, 0.0)
    assert [(g.lo, g.hi) for g in gaps] == [(1.0, 4.0), (4.0, 9.0)]
    assert find_gaps(slc, 10.0) == []
    full = find_gaps(slc, 0.0, full_axis=True)
    assert [(g.lo, g.hi) for g in full] == [(0.0, 1.0), (1.0, 4.0), (4.0, 9.0)]
    with pytest.raises(SchemaError):
        find_gaps(
            enumerate_spectrum(lat, Quasimomentum.zero(1), -5.0, 1.0), 0.0
        )


def sieve_two_squares(limit):
    reached = np.zeros(limit + 1, dtype=bool)
    top = int(math.isqrt(limit))
    for a in range(top + 1):
        for b in range(top + 1):
            v = a * a + b * b
            if v <= limit:
                reached[v] = True
    return reached


def test_two_squares_max_gap_100():
    reached = sieve_two_squares(100)
    vals = np.flatnonzero(reached)
    diffs = np.diff(vals)
    j = int(np.argmax(diffs))
    assert diffs[j] == 7 and vals[j] == 90 and vals[j + 1] == 97
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    table = max_gap_growth(q, None, [100])
    assert table == [(100, 7.0)]


def test_two_squares_gap_against_sieve_10000():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    (n, gap), = max_gap_growth(q, None, [10_000])
    reached = sieve_two_squares(10_000)
    oracle = int(np.max(np.diff(np.flatnonzero(reached))))
    assert gap == float(oracle)


def test_three_squares_gap_is_two_below_100():
    q = QuadraticForm(G=np.eye(3, dtype=np.int64))
    (_, gap), = max_gap_growth(q, None, [100])
    assert gap == 2.0
    # 7 is not a sum of three squares: the gap (6, 8) realises the bound
    reached = np.zeros(101, dtype=bool)
    for a in range(11):
        for b in range(11):
            for c in range(11):
                v = a * a + b * b + c * c
                if v <= 100:
                    reached[v] = True
    assert not reached[7] and reached[6] and reached[8]


def test_three_squares_gaps_stay_bounded():
    # the dichotomy witness: two-squares gaps grow without bound while
    # three-squares gaps are stuck at 3 (110..113 brackets the first pair of
    # consecutive non-representable integers, 111 = 8*13+7 and 112 = 16*7)
    q = QuadraticForm(G=np.eye(3, dtype=np.int64))
    table = max_gap_growth(q, None, [100, 10_000, 1_000_000])
    assert [g for _, g in table] == [2.0, 3.0, 3.0]


def test_gap_growth_monotone():
    q = QuadraticForm(G=np.array([[1, 0], [0, 2]], dtype=np.int64))
    table = max_gap_growth(q, None, [10, 100, 1000])
    gaps = [g for _, g in table]
    assert gaps == sorted(gaps)


def test_gap_growth_strict_binary():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    table = max_gap_growth(q, None, [100, 10_000])
    assert table[1][1] > table[0][1]


def test_gap_growth_d2_strict():
    # one-dimensional squares (m f + theta)^2: gaps grow like 2 f sqrt(N)
    q = QuadraticForm(G=np.array([[1]], dtype=np.int64))
    table = max_gap_growth(q, None, [100, 10_000])
    assert table[1][1] > table[0][1]


def test_gap_growth_with_congruence():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    theta = Quasimomentum.from_rational(2, (1, 0))
    table = max_gap_growth(q, theta, [100])
    n, gap = table[0]
    # oracle: values ((2m+1)^2 + (2k)^2)/4 <= 100
    vals = set()
    for m in range(-25, 26):
        for k in range(-25, 26):
            v = Fraction((2 * m + 1) ** 2 + (2 * k) ** 2, 4)
            if v <= 100:
                vals.add(v)
    ordered = sorted(vals)
    oracle = max(float(b - a) for a, b in zip(ordered, ordered[1:]))
    assert gap == pytest.approx(oracle, abs=1e-12)


def test_gap_growth_budget_and_n_list_validation():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    with pytest.raises(BudgetExceededError):
        max_gap_growth(q, None, [10_000], budget=100)
    with pytest.raises(SchemaError):
        max_gap_growth(q, None, [100, 100])


def test_density_floor():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    with pytest.raises(SchemaError):
        density_scan(q, 9)


def test_density_examples():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    count, ratio = density_scan(q, 100)
    assert count == 44
    assert ratio == pytest.approx(44 * math.sqrt(math.log(100)) / 100)
    count10, _ = density_scan(q, 10)
    assert count10 == 8
    with pytest.raises(FormArityError):
        density_scan(QuadraticForm(G=np.eye(3, dtype=np.int64)), 100)


def test_density_counts_thin_out():
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    fractions = []
    for n in (10**3, 10**4, 10**5):
        count, _ = density_scan(q, n)
        fractions.append(count / n)
    assert fractions[0] > fractions[1] > fractions[2]


def test_progression_containment_exact_and_float():
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(2, (1, 1))
    from halfspace_decay.lattice import rational_structure

    sigma, q, l, r = rational_structure(dual, theta)
    assert progression_containment(dual, q, theta, sigma, l, 60.0, exact=True) == 0.0
    assert progression_containment(dual, q, theta, sigma, l, 60.0, exact=False) <= 1e-9


def test_progression_containment_third_shift():
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(3, (1, 0))
    from halfspace_decay.lattice import rational_structure

    sigma, q, l, r = rational_structure(dual, theta)
    assert l == 3
    assert progression_containment(dual, q, theta, sigma, l, 40.0, exact=True) == 0.0
    # values lie on (1/9) Z: check a couple geometrically
    vals = [(m1 + 1 / 3) ** 2 + m2**2 for m1 in range(-3, 4) for m2 in range(-3, 4)]
    for v in vals:
        assert abs(v * 9 - round(v * 9)) < 1e-9


def test_progression_containment_theta_zero():
    lat = Lattice.from_dual_gram([["2", "1"], ["1", "2"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.zero(2)
    from halfspace_decay.lattice import rational_structure

    sigma, q, l, r = rational_structure(dual, theta)
    assert l == 1
    assert progression_containment(dual, q, theta, sigma, l, 50.0, exact=True) == 0.0


def fraction_walk_containment(dual, theta, sigma, l, n):
    """Reference: the rational-arithmetic walk over a box around the ellipsoid.

    Every value is an exact Fraction from the exact dual Gram matrix; this is
    the exact-mode algorithm progression_containment used before it moved to
    integers, kept here to pin the result float for float.
    """
    unit = Fraction(sigma) / (l * l)
    _, residues = theta.exact
    gram = dual.gram_exact
    dim = dual.dim
    s_min = np.linalg.svd(dual.basis, compute_uv=False).min()
    reach = int(math.ceil(math.sqrt(max(n, 0.0)) / s_min)) + 1
    worst = Fraction(0)
    for m in np.ndindex(*([2 * reach + 1] * dim)):
        w = [l * (int(m[i]) - reach) + residues[i] for i in range(dim)]
        val = Fraction(0)
        for i in range(dim):
            for j in range(dim):
                if gram[i][j]:
                    val += gram[i][j] * w[i] * w[j]
        val /= l * l
        if val > n:
            continue
        ratio = val / unit
        frac = ratio - ratio.__floor__()
        worst = max(worst, min(frac, 1 - frac) * unit)
    return float(worst)


# (dual Gram, l, residues, n); the primes near 1e9 make D*l^2*n exceed 2**62,
# so the integer values no longer fit int64 and the object path runs
_P, _Q = 999_999_937, 999_999_929
CONTAINMENT_CASES = {
    "cubic-3d": ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], 3, (1, 1, 2), 200),
    "rational-2d": ([["1/2", "1/3"], ["1/3", "1"]], 2, (1, 0), 60.0),
    "denominators-1e9": (
        [[f"{_P + 1}/{_P}", f"1/{_Q}"], [f"1/{_Q}", f"{2 * _Q + 1}/{_Q}"]], 3, (2, 1), 30.5
    ),
}


@pytest.mark.parametrize("name", sorted(CONTAINMENT_CASES))
@pytest.mark.parametrize("scale", [1, 2], ids=["sigma", "wrong-sigma"])
def test_exact_containment_matches_fraction_walk(name, scale):
    gram, l, residues, n = CONTAINMENT_CASES[name]
    dual = dual_basis(Lattice.from_dual_gram(gram))
    theta = Quasimomentum.from_rational(l, residues)
    sigma, q, l, _ = rational_structure(dual, theta)
    got = progression_containment(dual, q, theta, scale * sigma, l, n, exact=True)
    assert got == fraction_walk_containment(dual, theta, scale * sigma, l, n)
    if scale == 1:
        assert got == 0.0
    else:
        # a doubled sigma puts the odd multiples of sigma/l^2 off its grid
        assert got > 0.0
    if name == "denominators-1e9":
        assert integer_gram(dual.gram_exact)[0] * l * l * n >= 2**62


@st.composite
def integral_form_case(draw):
    dim = draw(st.integers(min_value=2, max_value=3))
    if draw(st.booleans()):
        G = np.diag(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    else:
        a = np.array(
            draw(st.lists(st.integers(-2, 2), min_size=dim * dim, max_size=dim * dim))
        ).reshape(dim, dim)
        G = a @ a.T + np.eye(dim, dtype=np.int64)
    l = draw(st.integers(min_value=1, max_value=4))
    residues = tuple(draw(st.integers(0, l - 1)) for _ in range(dim))
    bound = draw(st.integers(min_value=0, max_value=2000))
    return QuadraticForm(G=G.astype(np.int64)), l, residues, bound


@settings(max_examples=40, deadline=None)
@given(integral_form_case())
# odd x only, and x^2 >= 1 > bound: the first axis already leaves the set empty
@example((QuadraticForm(G=np.eye(2, dtype=np.int64)), 2, (1, 0), 0))
def test_value_set_matches_brute_force(case):
    q, l, residues, bound = case
    # every eigenvalue of G is >= 1, so |x_i| <= sqrt(bound) on the ellipsoid
    reach = math.isqrt(bound) + 1
    line = np.arange(-reach, reach + 1, dtype=np.int64)
    grids = np.meshgrid(*[line[(line - r) % l == 0] for r in residues], indexing="ij")
    x = np.stack([g.reshape(-1) for g in grids], axis=-1)
    vals = np.einsum("ni,ij,nj->n", x, q.G, x)
    expected = np.zeros(bound + 1, dtype=bool)
    expected[vals[vals <= bound]] = True
    got = spectrum_value_set(q, Quasimomentum.from_rational(l, residues), bound)
    assert got.dtype == bool and np.array_equal(got, expected)


def sequential_merge(raw):
    """Reference: walk sorted values, opening a group wherever one leaves the head's tolerance."""
    raw = np.sort(raw)
    values, mults = [], []
    i = 0
    while i < raw.size:
        j = i + 1
        while j < raw.size and raw[j] - raw[i] <= MERGE_TOL:
            j += 1
        values.append(raw[i])
        mults.append(j - i)
        i = j
    return np.array(values, dtype=float), np.array(mults, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    st.sampled_from([0.0, 1.0, 1e3]),
    st.sampled_from([1e-10, 4e-10, 7e-10]),
)
def test_merge_close_matches_sequential(ticks, offset, step):
    # steps below MERGE_TOL chain up into runs wider than MERGE_TOL
    raw = offset + step * np.array(ticks, dtype=float)
    values, mults = _merge_close(raw)
    ref_values, ref_mults = sequential_merge(raw)
    assert np.array_equal(values, ref_values) and values.dtype == ref_values.dtype
    assert np.array_equal(mults, ref_mults) and mults.dtype == ref_mults.dtype


def test_density_landau_ramanujan():
    # count of sums of two squares up to N ~ K N / sqrt(ln N); the ratio falls to K from above
    K = 0.7642236535892206
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    ratios = [density_scan(q, 10**k)[1] for k in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert all(r > K for r in ratios), ratios
    assert ratios[-1] - K < 0.05, ratios


@pytest.mark.parametrize("cutoff, energy", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                            (10.0, math.nan), (5.0, math.inf)])
def test_enumerate_spectrum_refuses_non_finite_input(cutoff, energy):
    with pytest.raises(SchemaError, match="must be finite"):
        enumerate_spectrum(Lattice.cubic(TWO_PI, 2), Quasimomentum.zero(2), energy, cutoff)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enumeration_box_is_counted_before_any_int64_cast(dim):
    """Bounds past 2**63 used to wrap in the int64 cast and pass the budget as a 1-point box."""
    with pytest.raises(BudgetExceededError, match="candidate points"):
        _ellipsoid_axes(np.eye(dim), np.zeros(dim), 1e300, 10**7)
    with pytest.raises(BudgetExceededError, match="candidate points"):
        enumerate_spectrum(Lattice.cubic(TWO_PI, dim), Quasimomentum.zero(dim), 0.0, 1e300)


@pytest.mark.parametrize("exact", [True, False])
def test_progression_containment_refuses_non_finite_and_huge_n(exact):
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(2, (1, 1))
    sigma, q, l, _ = rational_structure(dual, theta)
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(SchemaError, match="must be finite"):
            progression_containment(dual, q, theta, sigma, l, n, exact=exact)
    with pytest.raises(BudgetExceededError, match="candidate points"):
        progression_containment(dual, q, theta, sigma, l, 1e300, exact=exact)
