import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_decay import (
    DegenerateLatticeError,
    Lattice,
    Quasimomentum,
    RationalityRequiredError,
    SchemaError,
    dual_basis,
    rational_structure,
    unit_cell_volume,
)
from halfspace_decay.lattice import form_on_grid

TWO_PI = 2.0 * math.pi


def test_dual_of_2pi_line_is_unit():
    lat = Lattice(basis=np.array([[TWO_PI]]))
    dual = dual_basis(lat)
    assert dual.basis[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_dual_of_identity_is_2pi_identity():
    lat = Lattice.cubic(1.0, 3)
    dual = dual_basis(lat)
    assert np.allclose(dual.basis, TWO_PI * np.eye(3), atol=1e-13)


@st.composite
def well_conditioned_2x2(draw):
    entries = draw(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4)
    )
    basis = np.array(entries).reshape(2, 2) + 2.0 * np.eye(2)
    # the closed form: LU in np.linalg.det divides by zero on a column like (0, 1e-313)
    if abs(basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]) < 0.5:
        basis = basis + 3.0 * np.eye(2)
    return basis


@settings(max_examples=40, deadline=None)
@given(well_conditioned_2x2())
def test_duality_pairing_random(basis):
    lat = Lattice(basis=basis)
    dual = dual_basis(lat)
    pairing = dual.basis.T @ lat.basis
    assert np.max(np.abs(pairing - TWO_PI * np.eye(2))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(well_conditioned_2x2())
def test_duality_round_trip(basis):
    lat = Lattice(basis=basis)
    assert dual_basis(dual_basis(lat)) is lat
    # a fresh Lattice on the dual basis dualises back to the basis up to roundoff
    dd = dual_basis(Lattice(basis=dual_basis(lat).basis))
    assert np.max(np.abs(dd.basis - lat.basis)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(well_conditioned_2x2())
def test_volume_product(basis):
    lat = Lattice(basis=basis)
    dual = dual_basis(lat)
    prod = unit_cell_volume(lat) * unit_cell_volume(dual)
    assert prod == pytest.approx(TWO_PI**2, rel=1e-10)


def test_unit_cell_volumes():
    assert unit_cell_volume(Lattice(basis=np.array([[TWO_PI]]))) == pytest.approx(TWO_PI)
    lat = Lattice.cubic(TWO_PI, 2)
    assert unit_cell_volume(lat) == pytest.approx(TWO_PI**2)
    assert unit_cell_volume(dual_basis(lat)) == pytest.approx(1.0, rel=1e-12)
    sheared = Lattice(basis=np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert unit_cell_volume(sheared) == pytest.approx(1.0)


def test_singular_basis_rejected():
    with pytest.raises(DegenerateLatticeError):
        Lattice(basis=np.array([[1.0, 2.0], [2.0, 4.0]]))
    near = Lattice(basis=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    with pytest.raises(DegenerateLatticeError):
        dual_basis(near)


def test_primal_and_dual_share_the_cell_volume_rule():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning on the way
        with pytest.raises(DegenerateLatticeError, match="cell volume inf"):
            Lattice(basis=1e160 * np.eye(2))
        big = Lattice(basis=1e152 * np.eye(2))  # cell volume 1e304; its dual's, 3.95e-303, is too small
        with pytest.raises(DegenerateLatticeError, match="cell volume 3.95e-303"):
            dual_basis(big)


def test_dual_is_a_lattice_checked_by_the_same_constructor():
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    dual = dual_basis(lat)
    assert type(dual) is Lattice and dual.gram_exact == lat.dual_gram_exact
    with pytest.raises(SchemaError, match="gram_exact entry"):  # refused when the lattice is built
        Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["2", "0"], ["0", "1"]])


def test_dual_gram_exact_is_checked_on_the_one_dual(monkeypatch):
    """The constructor checks dual_gram_exact through dual_basis: one inverse for the
    lattice and its cached dual, and a numerically singular basis is refused when built."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    assert dual_basis(lat) is dual_basis(lat) and len(calls) == 1
    with pytest.raises(DegenerateLatticeError, match="numerically singular"):
        Lattice(basis=TWO_PI * np.diag([1.0, 1e-13]), dual_gram_exact=[["1", "0"], ["0", str(10**26)]])


def test_dual_basis_is_computed_once_per_lattice(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
    lat = Lattice(basis=np.array([[2.0, 1.0], [0.0, 3.0]]))
    dual = dual_basis(lat)
    assert dual_basis(lat) is dual and dual_basis(dual) is lat and len(calls) == 1
    other = Lattice(basis=lat.basis)  # a new lattice computes its own
    assert dual_basis(other) is not dual and len(calls) == 2
    assert np.array_equal(dual_basis(other).basis, dual.basis)
    near = Lattice(basis=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    for _ in range(2):  # a refusal is not cached: every call refuses
        with pytest.raises(DegenerateLatticeError):
            dual_basis(near)
    assert len(calls) == 4


def test_gram_exact_must_match_geometry():
    with pytest.raises(SchemaError):
        Lattice(basis=np.eye(2), gram_exact=[["2", "0"], ["0", "1"]])
    lat = Lattice(basis=np.eye(2), gram_exact=[["1", "0"], ["0", "1"]])
    assert lat.gram_exact[0][0] == Fraction(1)


def test_quasimomentum_exact_and_parse():
    theta = Quasimomentum.from_rational(2, (1, 0))
    assert theta.coeffs[0] == 0.5 and theta.coeffs[1] == 0.0
    parsed = Quasimomentum.parse("1/2,0")
    assert parsed.exact == (2, (1, 0))
    floaty = Quasimomentum.parse("0.25,0.75")
    assert floaty.exact is None
    with pytest.raises(SchemaError):
        Quasimomentum(coeffs=np.array([1.5]))


def test_rational_structure_square_lattice():
    lat = Lattice.cubic(TWO_PI, 2)
    # dual of (2*pi*Z)^2 is Z^2: exact dual Gram is the identity
    lat = Lattice(basis=lat.basis, dual_gram_exact=[["1", "0"], ["0", "1"]])
    dual = dual_basis(lat)
    sigma, q, l, r = rational_structure(dual, Quasimomentum.zero(2))
    assert sigma == Fraction(1)
    assert np.array_equal(q.G, np.eye(2, dtype=np.int64))
    assert l == 1 and list(r) == [0, 0]
    assert q((3, 4)) == 25


def test_rational_structure_half_shift():
    lat = Lattice(
        basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]]
    )
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(2, (1, 0))
    sigma, q, l, r = rational_structure(dual, theta)
    assert sigma == Fraction(1) and l == 2 and list(r) == [1, 0]
    # |k+theta|^2 = (1/4)((2 m1 + 1)^2 + (2 m2)^2)
    for m in [(0, 0), (1, -2), (-3, 5)]:
        k_plus = dual.basis @ (np.array(m) + theta.coeffs)
        geometric = float(k_plus @ k_plus)
        reduced = float(sigma) / l**2 * q((l * m[0] + 1, l * m[1] + 0))
        assert geometric == pytest.approx(reduced, rel=1e-12)


def test_rational_structure_skew_gram():
    lat = Lattice.from_dual_gram([["2", "1"], ["1", "2"]])
    dual = dual_basis(lat)
    sigma, q, l, r = rational_structure(dual, Quasimomentum.zero(2))
    assert sigma == Fraction(1)
    assert q.G.tolist() == [[2, 1], [1, 2]]
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.integers(-10, 11, size=2)
        k = dual.basis @ m.astype(float)
        assert float(k @ k) == pytest.approx(q(m), rel=1e-10)


def test_rational_structure_scale_extraction():
    lat = Lattice.from_dual_gram([["1/2", "0"], ["0", "1/2"]])
    dual = dual_basis(lat)
    sigma, q, l, r = rational_structure(dual, Quasimomentum.zero(2))
    assert sigma == Fraction(1, 2)
    assert np.array_equal(q.G, np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("dim", [2, 3])
def test_rational_identity_exhaustive(dim, reach=20):
    gram = [[Fraction(2 if i == j else 1) for j in range(dim)] for i in range(dim)]
    lat = Lattice.from_dual_gram(gram)
    dual = dual_basis(lat)
    theta = Quasimomentum.from_rational(3, (1,) * dim)
    sigma, q, l, r = rational_structure(dual, theta)
    # exact identity over all |m_i| <= reach: with gram = N/D and sigma = g/D,
    # l^2 D |k+theta|^2 = w^T N w must equal g * q(w) for w = l*m + r
    denom = 1
    for row in gram:
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    N = np.array([[int(v * denom) for v in row] for row in gram], dtype=np.int64)
    g_scale = int(sigma * denom)
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    ms = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    w = l * ms + np.array(r, dtype=np.int64)
    lhs = np.einsum("ni,ij,nj->n", w, N, w)
    rhs = g_scale * np.einsum("ni,ij,nj->n", w, q.G, w)
    assert np.array_equal(lhs, rhs)
    # spot-check the full scaled identity in rational arithmetic
    rng = np.random.default_rng(1)
    for idx in rng.integers(0, ms.shape[0], size=20):
        m = ms[idx]
        value = Fraction(0)
        for i in range(dim):
            for j in range(dim):
                value += gram[i][j] * Fraction(int(m[i] * l + r[i]), l) * Fraction(
                    int(m[j] * l + r[j]), l
                )
        assert value == sigma * Fraction(q(l * m + r), l * l)


def test_rationality_required():
    lat = Lattice.cubic(TWO_PI, 2)
    dual = dual_basis(lat)
    with pytest.raises(RationalityRequiredError):
        rational_structure(dual, Quasimomentum.zero(2))
    lat2 = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    with pytest.raises(RationalityRequiredError):
        rational_structure(dual_basis(lat2), Quasimomentum(coeffs=np.array([0.3, 0.1])))


def test_lattice_json_round_trip(tmp_path):
    lat = Lattice(
        basis=TWO_PI * np.eye(2),
        dual_gram_exact=[["1", "0"], ["0", "1"]],
    )
    doc = lat.to_json()
    again = Lattice.from_json(doc)
    assert np.allclose(again.basis, lat.basis)
    assert again.dual_gram_exact == lat.dual_gram_exact
    with pytest.raises(SchemaError):
        Lattice.from_json({"basis": [[1.0]], "bogus": 1})
    path = tmp_path / "lat.json"
    import json

    path.write_text(json.dumps(doc))
    assert np.allclose(Lattice.load(path).basis, lat.basis)


# G = [[3, -1], [-1, 2]] at the corner (-p, p) reaches |value| = 7 p^2 = worst, the
# bound form_on_grid picks its dtype by: just below a limit must hold it exactly
_G2 = [[3, -1], [-1, 2]]


@pytest.mark.parametrize("limit, dtype", [(2**31, np.int32), (2**62, np.int64)])
@pytest.mark.parametrize("factor", [1, 3])
@pytest.mark.parametrize("side", ["below", "at-or-above"])
def test_form_on_grid_picks_the_narrowest_exact_integer_type(limit, dtype, factor, side):
    p = math.isqrt((limit - 1) // (7 * factor)) + (side != "below")
    worst = 7 * p * p * factor
    assert (worst < limit) == (side == "below")
    x0 = np.array([-p, -p + 1, -1, 0, 5, p], dtype=np.int64).reshape(-1, 1)
    x1 = np.array([-p, 0, 3, p - 1, p], dtype=np.int64)
    got = form_on_grid(np.array(_G2), [x0, x1], factor=factor)
    wider = {np.int32: np.int64, np.int64: object}[dtype]
    assert got.dtype == (dtype if side == "below" else wider)
    reference = [[3 * w0 * w0 - 2 * w0 * w1 + 2 * w1 * w1 for w1 in x1.tolist()] for w0 in x0.ravel().tolist()]
    assert [[int(v) for v in row] for row in got.tolist()] == reference
    assert max(abs(v) for row in reference for v in row) == 7 * p * p


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_form_on_grid_float_path_keeps_the_plain_sum_bits(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    G = a @ a.T + rng.uniform(0.0, 1.0) * np.eye(dim)
    if rng.random() < 0.3:
        G[~np.eye(dim, dtype=bool)] = 0.0
    axes = [(np.arange(rng.integers(1, 9)) - 3 + rng.normal()).reshape((-1,) + (1,) * (dim - 1 - i))
            for i in range(dim)]
    plain = sum(
        (1 + (i != j)) * G[i][j] * axes[i] * axes[j]
        for i in range(dim) for j in range(i, dim) if G[i][j]
    )
    got = form_on_grid(G, axes)
    assert got.dtype == np.float64 and np.array_equal(got, plain)
    assert np.array_equal(np.signbit(got), np.signbit(plain))
