import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from halfspace_decay import (
    BudgetExceededError,
    FormArityError,
    Lattice,
    QuadraticForm,
    Quasimomentum,
    SchemaError,
    VerificationError,
    density_scan,
    dual_basis,
    enumerate_spectrum,
    find_gaps,
    max_gap_growth,
    progression_containment,
)
from halfspace_decay import spectrum
from halfspace_decay.lattice import integer_gram, rational_structure
from halfspace_decay.spectrum import (
    MERGE_TOL,
    VALUE_BLOCK,
    _ellipsoid_axes,
    _form_value_blocks,
    _half_box,
    _merge_close,
    _value_set_general,
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


def test_budget_exceeded(monkeypatch):
    lat = Lattice.cubic(TWO_PI, 3)
    monkeypatch.setattr(spectrum, "ENUMERATION_POINTS", 1000)
    with pytest.raises(BudgetExceededError):
        enumerate_spectrum(lat, Quasimomentum.zero(3), 0.0, 10.0**6)


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


# a block of 7 candidates, or one row, splits every box of the box-walk oracles into many blocks
BLOCKS = st.sampled_from([VALUE_BLOCK, 7])


@settings(max_examples=60, deadline=None)
@given(float_form_case(), BLOCKS)
# the cubic 3D enumeration of the benchmark, theta = (1, 1, 2)/3, cutoff 10^3, in 4 and in 64 blocks
@example((np.eye(3), np.array([1.0, 1.0, 2.0]) / 3, 1000.0, True), VALUE_BLOCK)
@example((np.eye(3), np.array([1.0, 1.0, 2.0]) / 3, 1000.0, True), 7)
# x = -1e-5 lies outside the cutoff-0 box, yet within MERGE_TOL of the cutoff
@example((np.eye(1), np.array([0.99999]), 0.0, False), VALUE_BLOCK)
def test_float_enumeration_matches_einsum_grid(case, block):
    F, mu, cutoff, diagonal = case
    lat = Lattice(basis=TWO_PI * np.linalg.inv(F.T))
    gram = dual_basis(lat).gram()
    want = einsum_grid_values(gram, mu, cutoff)
    with mock.patch.object(spectrum, "VALUE_BLOCK", block):
        got = np.sort(np.concatenate([np.empty(0), *_form_value_blocks(gram, mu, cutoff)]))
        slc = enumerate_spectrum(lat, Quasimomentum(coeffs=mu), 0.0, cutoff, verify=True)
    assert got.size == want.size
    # every term G_ij x_i x_j is at most about cond(G) * cutoff
    assert np.all(np.abs(got - want) <= 1e-12 * max(cutoff, 1.0))
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
    n = math.prod(ax.size for ax in _ellipsoid_axes(dual_basis(lat).gram(), theta.coeffs, cutoff))
    assert 1.8e6 <= n <= 2.4e6
    tracemalloc.start()
    try:
        enumerate_spectrum(lat, theta, 0.0, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n, peak / (8 * n)


def test_box_walk_holds_one_block_beyond_the_result():
    """tracemalloc peaks of second calls on the Z^3 dual; whole-box evaluation took 16.2, 25.3 MiB and 4.4x."""
    lat = Lattice.from_dual_gram([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(3, (1, 1, 2))
    sigma, q, l, _ = rational_structure(dual, theta)
    for exact, bound in ((True, 2 * 2**20), (False, 4 * 2**20)):
        for _ in range(2):
            worst, peak = traced_peak(progression_containment, dual, q, theta, sigma, l, 4000.0, exact)
        assert worst == 0.0 if exact else worst <= 1e-9
        assert peak < bound, (exact, peak / 2**20)
    for _ in range(2):
        slc, peak = traced_peak(enumerate_spectrum, lat, theta, 0.0, 1e4, True)
    assert 4.1e6 < slc.total_count() < 4.3e6
    # one block of the padded box and the 9 * 10^4 + 1 numerator counts; the float path held 67.9 MiB
    assert peak <= 4 * 2**20, peak / 2**20


def fraction_spectrum(gram, l, residues, energy, cutoff):
    """Oracle in Python integers and Fractions: the sorted values N/(D*l^2) - E, each
    correctly rounded before E is taken off, and their counts, of every
    N = x^T (D*gram) x <= (cutoff + E + MERGE_TOL)*D*l^2 over x = l*m + r, on a box by
    the inverse Gram's diagonal plus one layer."""
    if cutoff + energy < 0:
        return [], []
    D, nums = integer_gram(gram)
    scale = D * l * l
    top = math.floor((Fraction(cutoff) + Fraction(energy) + Fraction(MERGE_TOL)) * scale)
    inv = np.linalg.inv(np.array([[float(v) for v in row] for row in gram]))
    reach = [int(math.sqrt((cutoff + energy + 1.0) * inv[i, i])) + 2 for i in range(len(gram))]
    counts = {}
    for m in itertools.product(*(range(-k, k + 1) for k in reach)):
        x = [l * mi + r for mi, r in zip(m, residues)]
        N = sum(nums[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))
        if N <= top:
            counts[N] = counts.get(N, 0) + 1
    merged = {}  # distinct numerators whose values round to one float share it
    for N in sorted(counts):
        value = float(Fraction(N, scale)) - energy
        merged[value] = merged.get(value, 0) + counts[N]
    return list(merged), list(merged.values())


@st.composite
def rational_case(draw):
    """A positive-definite rational dual Gram (A A^T + I)/den of dimension 1-3, theta = r/l, E != 0."""
    dim = draw(st.integers(min_value=1, max_value=3))
    a = np.array(draw(st.lists(st.integers(-2, 2), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    den = draw(st.integers(min_value=1, max_value=3))
    gram = [[Fraction(int(v), den) for v in row] for row in a @ a.T + np.eye(dim, dtype=int)]
    l = draw(st.integers(min_value=1, max_value=7))
    residues = tuple(draw(st.integers(min_value=0, max_value=l - 1)) for _ in range(dim))
    energy = draw(st.integers(min_value=-20, max_value=20).filter(bool)) / 4
    cutoff = draw(st.integers(min_value=0, max_value=240)) / 8
    return gram, l, residues, energy, cutoff


ID2 = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
ID3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(rational_case(), st.booleans())
@example(([[Fraction(2, 3)]], 7, (3,), 1.25, 28.0), False)  # np.unique, as every sparse case
@example((ID3, 1, (0, 0, 0), -0.5, 30.0), True)  # np.bincount
@example((ID2, 2, (0, 1), 0.25, 0.125), True)  # no x_1 = m + 1/2 within the radius: an empty axis
@example((ID2, 1, (0, 0), -3.0, 2.5), True)  # cutoff + E < 0
def test_exact_enumeration_matches_the_fraction_oracle(case, verify):
    """Exact multiplicities and correctly rounded N/(D*l^2), minus E; the float path within 1e-12 * cutoff."""
    gram, l, residues, energy, cutoff = case
    lat = Lattice.from_dual_gram(gram)
    theta = Quasimomentum.from_rational(l, residues)
    slc = enumerate_spectrum(lat, theta, energy, cutoff, verify)
    values, mults = fraction_spectrum(gram, l, residues, energy, cutoff)
    assert slc.values.tolist() == values and slc.mults.tolist() == mults
    assert slc.values.dtype == np.float64 and slc.mults.dtype == np.int64
    floats = enumerate_spectrum(lat, Quasimomentum(coeffs=theta.coeffs), energy, cutoff, verify)
    assert np.array_equal(floats.mults, slc.mults)
    assert np.all(np.abs(floats.values - slc.values) <= 1e-12 * max(cutoff, 1.0))


@pytest.mark.parametrize("case, dense", [
    ((ID3, 1, (0, 0, 0), -0.5, 30.0), True),  # 30 numerators on a box of 11^3 points
    (([[Fraction(2, 3)]], 7, (3,), 1.25, 28.0), False),  # 4247 numerators on a box of 13 points
], ids=["dense", "sparse"])
def test_the_numerators_are_counted_by_bincount_only_where_the_box_holds_more_points(case, dense):
    gram, l, residues, energy, cutoff = case
    lat, theta = Lattice.from_dual_gram(gram), Quasimomentum.from_rational(l, residues)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount, \
            mock.patch.object(np, "unique", wraps=np.unique) as unique:
        slc = enumerate_spectrum(lat, theta, energy, cutoff, True)
    assert (bincount.called, unique.called) == (dense, not dense)
    assert (slc.values.tolist(), slc.mults.tolist()) == fraction_spectrum(gram, l, residues, energy, cutoff)


def test_numerators_beyond_any_count_array_go_through_unique():
    """D*l^2 of about 10^18 (denominators near 10^9, l = 3): N leaves int64, and the quotient is
    taken in Python ints."""
    gram, l, residues, _ = CONTAINMENT_CASES["denominators-1e9"]
    gram = [[Fraction(v) for v in row] for row in gram]
    slc = enumerate_spectrum(Lattice.from_dual_gram(gram), Quasimomentum.from_rational(l, residues), 0.5, 30.0, True)
    values, mults = fraction_spectrum(gram, l, residues, 0.5, 30.0)
    assert slc.values.tolist() == values and slc.mults.tolist() == mults and len(values) > 10
    # a prime l: the count array would hold 10^4 * 10007^2 entries for a box of 201 points
    theta = Quasimomentum.from_rational(10007, (1,))
    slc = enumerate_spectrum(Lattice.from_dual_gram([["1"]]), theta, 0.0, 1e4, True)
    assert slc.values.tolist() == fraction_spectrum([[Fraction(1)]], 10007, (1,), 0.0, 1e4)[0]


def test_a_value_within_merge_tol_above_the_cutoff_is_kept_on_both_paths():
    lat = Lattice.from_dual_gram(ID2)
    for theta in (Quasimomentum.zero(2), Quasimomentum(coeffs=[0.0, 0.0])):
        slc = enumerate_spectrum(lat, theta, 0.0, 4.0 - MERGE_TOL / 2)
        assert slc.values[-1] == 4.0 and slc.mults[-1] == 4


def test_values_that_minus_e_brings_to_one_float_share_it():
    """At E = -2^40 the float spacing is 2^-12, so 25, 25 + 7e-5 and 25 + 9e-5 become one value."""
    lat = Lattice.from_dual_gram([["1", "0"], ["0", "100001/100000"]])
    for theta in (Quasimomentum.zero(2), Quasimomentum(coeffs=[0.0, 0.0])):
        slc = enumerate_spectrum(lat, theta, -(2.0**40), 2.0**40 + 30.0)
        assert np.all(np.diff(slc.values) > 0)
        exact = enumerate_spectrum(lat, Quasimomentum.zero(2), 0.0, 30.0)
        assert slc.total_count() == exact.total_count()
        assert slc.values.size < exact.values.size


@pytest.mark.parametrize("theta", [Quasimomentum.zero(2), Quasimomentum(coeffs=[0.0, 0.0])], ids=["exact", "float"])
def test_verify_walks_one_box_and_refuses_a_box_one_layer_too_small(theta, monkeypatch):
    lat = Lattice.from_dual_gram(ID2)
    walks, box_blocks = [], spectrum._box_blocks
    monkeypatch.setattr(spectrum, "_box_blocks",
                        lambda G, axes, *rest: walks.append(axes) or box_blocks(G, axes, *rest))
    slc = enumerate_spectrum(lat, theta, 0.0, 4.0, verify=True)
    # (0,0); (±1,0), (0,±1); (±1,±1); (±2,0), (0,±2)
    assert slc.mults.tolist() == [1, 4, 4, 4] and len(walks) == 1
    assert [ax.size for ax in walks[0]] == [5, 5]  # the padded box, of squared radius 4 * 1.05 + 1

    ellipsoid_axes = spectrum._ellipsoid_axes

    def one_layer_short(gram, mu, radius2, *rest):
        axes = ellipsoid_axes(gram, mu, radius2, *rest)
        return [axes[0][1:-1], *axes[1:]] if radius2 == 4.0 + MERGE_TOL else axes

    monkeypatch.setattr(spectrum, "_ellipsoid_axes", one_layer_short)
    assert enumerate_spectrum(lat, theta, 0.0, 4.0).total_count() == 11  # (±2, 0) is missed
    with pytest.raises(VerificationError):
        enumerate_spectrum(lat, theta, 0.0, 4.0, verify=True)


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("residues", [(0, 1), (1, 0)], ids=["second-axis", "first-axis"])
@pytest.mark.parametrize("exact", [True, False])
def test_an_empty_axis_of_the_box_gives_an_empty_slice(exact, residues, verify):
    """x = m + 1/2 has no point with x^2 <= 0.1, while the padded box of squared radius 1.105 has two."""
    theta = Quasimomentum.from_rational(2, residues)
    if not exact:
        theta = Quasimomentum(coeffs=theta.coeffs)
    axes = _ellipsoid_axes(np.eye(2), theta.coeffs, 0.1 + MERGE_TOL, residues=theta.coeffs)
    assert sorted(ax.size for ax in axes) == [0, 1]
    slc = enumerate_spectrum(Lattice.from_dual_gram(ID2), theta, 0.0, 0.1, verify)
    assert slc.values.size == 0 and slc.mults.size == 0


def _full_box(axes, l, residues):
    return axes


@st.composite
def symmetric_class_case(draw):
    """A positive-definite integral form of dimension 2 or 3 and a class r mod l, closed under negation or not."""
    dim = draw(st.integers(min_value=2, max_value=3))
    a = np.array(draw(st.lists(st.integers(-2, 2), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    G = a @ a.T + np.eye(dim, dtype=np.int64)
    l = draw(st.sampled_from([1, 2, 3, 4, 6]))
    if draw(st.booleans()):  # 2r = 0 (mod l)
        residues = [draw(st.sampled_from([0, l // 2] if l % 2 == 0 else [0])) for _ in range(dim)]
    else:
        residues = [draw(st.integers(min_value=0, max_value=l - 1)) for _ in range(dim)]
    return G, l, np.array(residues, dtype=np.int64), draw(st.integers(min_value=20, max_value=400))


@settings(max_examples=40, deadline=None)
@given(symmetric_class_case())
def test_half_box_keeps_value_sets_and_containment_bit_identical(case):
    G, l, residues, bound = case
    q = QuadraticForm(G=G)
    dual = dual_basis(Lattice.from_dual_gram([[str(v) for v in row] for row in G.tolist()]))
    theta = Quasimomentum.from_rational(l, residues)
    sigma, qr, lr, _ = rational_structure(dual, theta)
    runs = {}
    for name, half in (("half", _half_box), ("full", _full_box)):
        with mock.patch.object(spectrum, "_half_box", half):
            runs[name] = (
                _value_set_general(q, l, residues, bound),
                progression_containment(dual, qr, theta, sigma, lr, bound / l**2, exact=True),
                progression_containment(dual, qr, theta, sigma, lr, bound / l**2, exact=False),
            )
    assert np.array_equal(runs["half"][0], runs["full"][0])
    assert runs["half"][1:] == runs["full"][1:]


def test_half_box_walks_half_only_for_a_class_closed_under_negation():
    """theta = (1/2, 0): x = 2m + (1, 0) is closed under x -> -x; (1/3, 0) is not."""
    G = np.array([[2, 1], [1, 3]])
    closed = _ellipsoid_axes(G * 4.0, np.array([0.5, 0.0]), 400.0, 2, np.array([1, 0]))
    half = _half_box(closed, 2, np.array([1, 0]))
    assert half[0].ravel().tolist() == [x for x in closed[0].ravel().tolist() if x >= 0] and half[1] is closed[1]
    assert 2 * half[0].size == closed[0].size
    assert _half_box(closed, 1, np.array([0.5, 0.0])) is not closed  # a float class m + 1/2
    open_ = _ellipsoid_axes(G * 9.0, np.array([1 / 3, 0.0]), 400.0, 3, np.array([1, 0]))
    assert _half_box(open_, 3, np.array([1, 0])) is open_
    assert _half_box(open_, 1, np.array([1 / 3, 0.0])) is open_
    walked = []
    box_blocks = spectrum._box_blocks
    with mock.patch.object(spectrum, "_box_blocks",
                           lambda G, axes, *rest: walked.append(axes) or box_blocks(G, axes, *rest)):
        _value_set_general(QuadraticForm(G=G), 3, np.array([1, 0]), 400)
        _value_set_general(QuadraticForm(G=G), 2, np.array([1, 0]), 400)
    assert walked[0][0].min() < 0 and walked[1][0].min() > 0


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
    assert [(g.lo, g.hi) for g in find_gaps(slc, 3.0)] == [(1.0, 4.0), (4.0, 9.0)]  # a gap of exactly min_len
    full = find_gaps(slc, 0.0, full_axis=True)
    assert [(g.lo, g.hi) for g in full] == [(0.0, 1.0), (1.0, 4.0), (4.0, 9.0)]
    assert find_gaps(enumerate_spectrum(lat, Quasimomentum.zero(1), -5.0, 1.0), 0.0) == []  # an empty slice


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


def test_gap_growth_budget_and_n_list_validation(monkeypatch):
    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    monkeypatch.setattr(spectrum, "ENUMERATION_POINTS", 100)
    with pytest.raises(BudgetExceededError):
        max_gap_growth(q, None, [10_000])
    with pytest.raises(SchemaError):
        max_gap_growth(q, None, [100, 100])
    q3 = QuadraticForm(G=np.eye(3, dtype=np.int64))
    for n_list in ([], [-100, -50], [-5, 10]):
        with pytest.raises(SchemaError, match="N_list must be a non-empty list of N >= 0"):
            max_gap_growth(q3, None, n_list)


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


def test_exact_containment_counts_the_value_at_n():
    """A value equal to n is one of the values up to n: on Z with the grid 100Z, 49 is the farthest up to 49."""
    dual = dual_basis(Lattice(basis=np.array([[TWO_PI]]), dual_gram_exact=[["1"]]))
    theta = Quasimomentum.zero(1)
    _, q, l, _ = rational_structure(dual, theta)
    assert progression_containment(dual, q, theta, Fraction(100), l, 49.0, exact=True) == 49.0
    assert progression_containment(dual, q, theta, Fraction(100), l, 48.0, exact=True) == 36.0


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
@pytest.mark.parametrize("scale", [1, 2, Fraction(101, 100)], ids=["sigma", "wrong-sigma", "near-sigma"])
def test_exact_containment_matches_fraction_walk(name, scale):
    gram, l, residues, n = CONTAINMENT_CASES[name]
    dual = dual_basis(Lattice.from_dual_gram(gram))
    theta = Quasimomentum.from_rational(l, residues)
    sigma, q, l, _ = rational_structure(dual, theta)
    got = progression_containment(dual, q, theta, scale * sigma, l, n, exact=True)
    assert got == fraction_walk_containment(dual, theta, scale * sigma, l, n)
    # in blocks of one row; with the near sigma, the worst candidate sits in a later block than the first
    with mock.patch.object(spectrum, "VALUE_BLOCK", 7):
        assert progression_containment(dual, q, theta, scale * sigma, l, n, exact=True) == got
        # float mode walks the same blocks, and its distances differ from the exact ones by roundoff
        assert abs(progression_containment(dual, q, theta, scale * sigma, l, n, exact=False) - got) <= 1e-9
    if scale == 1:
        assert got == 0.0
    else:
        # a doubled sigma puts the odd multiples of sigma/l^2 off its grid, and 101/100 sigma most of them
        assert got > 0.0
    if name == "denominators-1e9":
        assert integer_gram(dual.gram_exact)[0] * l * l * n >= 2**62


@st.composite
def integral_form_case(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        G = np.diag(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    else:
        a = np.array(
            draw(st.lists(st.integers(-2, 2), min_size=dim * dim, max_size=dim * dim))
        ).reshape(dim, dim)
        G = a @ a.T + np.eye(dim, dtype=np.int64)
    l = draw(st.integers(min_value=1, max_value=6))
    residues = tuple(draw(st.integers(0, l - 1)) for _ in range(dim))
    # the packed sieve's bytes begin and end next to multiples of 8
    bound = draw(st.integers(0, 5000) | st.builds(lambda k, d: max(8 * k + d, 0), st.integers(0, 625),
                                                   st.integers(-1, 1)))
    return QuadraticForm(G=G.astype(np.int64)), l, residues, bound


@settings(max_examples=80, deadline=None)
@given(integral_form_case(), BLOCKS)
# odd x only, and x^2 >= 1 > bound: the first axis already leaves the set empty
@example((QuadraticForm(G=np.eye(2, dtype=np.int64)), 2, (1, 0), 0), VALUE_BLOCK)
@example((QuadraticForm(G=np.diag([1, 2, 3])), 1, (0, 0, 0), 4095), VALUE_BLOCK)
@example((QuadraticForm(G=np.eye(3, dtype=np.int64)), 6, (5, 1, 3), 4097), VALUE_BLOCK)
# non-diagonal forms take the box walk, here in blocks of one row (89 and about 1500 candidates)
@example((QuadraticForm(G=np.array([[2, 1], [1, 3]], dtype=np.int64)), 1, (0, 0), 5000), 7)
@example((QuadraticForm(G=np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=np.int64)), 2, (1, 0, 1), 4097), 7)
def test_value_set_matches_brute_force(case, block):
    q, l, residues, bound = case
    # every eigenvalue of G is >= 1, so |x_i| <= sqrt(bound) on the ellipsoid
    reach = math.isqrt(bound) + 1
    line = np.arange(-reach, reach + 1, dtype=np.int64)
    lines = [line[(line - r) % l == 0] for r in residues]
    rest = list(itertools.product(*lines[1:]))
    rest = np.array(rest, dtype=np.int64).reshape(len(rest), q.dim - 1)
    expected = np.zeros(bound + 1, dtype=bool)
    for x0 in lines[0].tolist():  # one slab of the box per first coordinate
        x = np.column_stack((np.full(len(rest), x0, dtype=np.int64), rest))
        vals = np.einsum("ni,ij,nj->n", x, q.G, x)
        expected[vals[vals <= bound]] = True
    with mock.patch.object(spectrum, "VALUE_BLOCK", block):
        got = spectrum_value_set(q, Quasimomentum.from_rational(l, residues), bound)
    assert got.dtype == bool and np.array_equal(got, expected)


def reference_gap_table(q, theta, n_list):
    """The index-array scan: every attained value within [0, N] at once, per N."""
    l = 1 if theta is None else theta.exact[0]
    unit = q.sigma / (l * l)
    reached = spectrum_value_set(q, theta, int(Fraction(n_list[-1]) / unit))
    table = []
    for n in n_list:
        vals = np.flatnonzero(reached[: int(Fraction(n) / unit) + 1])
        gap = int(np.max(np.diff(vals))) if vals.size >= 2 else 0
        table.append((n, float(Fraction(gap) * unit)))
    return table


_B = VALUE_BLOCK


@pytest.mark.parametrize("G, theta", [
    ([[1]], None),  # 256^2 = VALUE_BLOCK is a square: a scan block starts on a value
    ([[1, 0], [0, 2]], None),
    ([[2, 1], [1, 3]], None),
    ([[1, 0], [0, 1]], Quasimomentum.from_rational(2, (1, 0))),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], Quasimomentum.from_rational(3, (1, 1, 2))),
], ids=["squares", "diag-1-2", "binary-2-1-3", "two-squares-half-shift", "three-squares-thirds"])
def test_gap_growth_matches_the_index_array_scan_across_blocks(G, theta):
    q = QuadraticForm(G=np.array(G, dtype=np.int64))
    # with theta = None, N is the value-set index: scan blocks end at, next to and between the N
    n_list = [0, 1, 5, _B - 1, _B, _B + 1, 2 * _B + 3, 3 * _B - 2, 3 * _B + 5]
    assert max_gap_growth(q, theta, n_list) == reference_gap_table(q, theta, n_list)


def test_gap_scans_hold_the_value_set_plus_one_block():
    """tracemalloc peaks: the index arrays and int64 candidate grid of a whole scan took 13.7 and 30.0 MiB."""
    binary = QuadraticForm(G=np.array([[2, 1], [1, 3]], dtype=np.int64))
    q3 = QuadraticForm(G=np.eye(3, dtype=np.int64))
    peaks = {}
    for n in (10**6, 4 * 10**6):
        _, peaks["density", n] = traced_peak(density_scan, binary, n)
        table, peaks["growth", n] = traced_peak(max_gap_growth, q3, None, [10**2, 10**4, n])
        assert table == [(10**2, 2.0), (10**4, 3.0), (n, 3.0)]
    assert peaks["density", 10**6] < 3 * 2**20 and peaks["growth", 10**6] < 5 * 2**20
    for scan in ("density", "growth"):
        # 3 MB more set entries, and nothing else that grows with N
        assert peaks[scan, 4 * 10**6] - peaks[scan, 10**6] < 3e6 + 2**20, peaks


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
@example([0, 1, 3], 0.0, MERGE_TOL)  # a point exactly MERGE_TOL from its group head joins the group
def test_merge_close_matches_sequential(ticks, offset, step):
    # steps below MERGE_TOL chain up into runs wider than MERGE_TOL; _merge_close takes sorted input
    raw = offset + step * np.sort(np.array(ticks, dtype=float))
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
