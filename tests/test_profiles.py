"""The residual-density kernel of SpectralProfile against the plain formulas.

The references below are the full-array formulas the kernel replaces: a
zero-filled second difference divided by h^2, and mode sums over every
column.  The kernel must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_decay import carleman, ensembles, quadrature
from halfspace_decay.evolution import (
    PerturbationFamily,
    _checked_residual,
    decay_rate_estimate,
    exponential_bound,
    solve_decaying,
)
from halfspace_decay.fibers import BlochFiber, fiber_residual, weighted_norm
from halfspace_decay.fields import SampledField
from halfspace_decay.lattice import Lattice, Quasimomentum, unit_cell_volume
from halfspace_decay.profiles import BumpProfile, SpectralProfile, _second_difference, bump_profile
from halfspace_decay.quadrature import grid_step, simpson_weights, simpson_with_error

TWO_PI = 2.0 * math.pi
STEPS = (4.0 / 8192, 3.5 / 8192)


def ref_second_difference(p: SpectralProfile) -> np.ndarray:
    h = grid_step(p.t_grid)
    c = p.coeffs
    out = np.zeros_like(c)
    out[:, 1:-1] = (c[:, 2:] - 2 * c[:, 1:-1] + c[:, :-2]) / h**2
    return out


def ref_densities(p: SpectralProfile):
    psi = ref_second_difference(p) - p.eigs[:, None] * p.coeffs
    return np.sum(np.abs(p.coeffs) ** 2, axis=0), np.sum(np.abs(psi) ** 2, axis=0)


def ref_norms(p: SpectralProfile) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(p.coeffs) ** 2, axis=0))


@st.composite
def profiles(draw):
    """Random profiles of every support shape the kernel trims differently."""
    m = draw(st.integers(1, 16))
    n = draw(st.integers(3, 600))
    h = draw(st.sampled_from(STEPS))
    kind = draw(st.sampled_from(["compact", "head", "tail", "single", "zero", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-30, 30, size=(m, 1))
    coeffs = (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) * scale
    lo, hi = sorted(rng.integers(0, n, size=2))
    lo, hi = {"head": (0, hi), "tail": (lo, n - 1), "single": (lo, lo),
              "zero": (1, 0), "full": (0, n - 1)}.get(kind, (lo, hi))
    keep = np.zeros(n, dtype=bool)
    keep[lo : hi + 1] = True
    coeffs[:, ~keep] = 0.0
    coeffs[rng.random((m, n)) < 0.1] = 0.0  # zeros inside the support too
    eigs = rng.uniform(-5.0, 50.0, size=m)
    if draw(st.booleans()):
        coeffs = np.asfortranarray(coeffs)
    t = draw(st.sampled_from([0.0, 0.25])) + h * np.arange(n)
    return SpectralProfile(eigs=eigs, t_grid=t, coeffs=coeffs, alpha=5.0)


@settings(max_examples=300, deadline=None)
@given(profiles())
def test_densities_and_second_difference_match_full_formulas(p):
    assert np.array_equal(p.equation_residual(), ref_second_difference(p) - p.eigs[:, None] * p.coeffs)
    norm2, psi2 = p.densities()
    ref_norm2, ref_psi2 = ref_densities(p)
    assert np.array_equal(norm2, ref_norm2)
    assert np.array_equal(psi2, ref_psi2)


@settings(max_examples=100, deadline=None)
@given(profiles())
def test_norms_keep_the_plain_formula_where_it_is_a_normal_float(p):
    sq = np.sum(np.abs(p.coeffs) ** 2, axis=0)
    normal = (sq >= np.finfo(float).tiny) & (sq < np.inf)
    assert np.array_equal(p.norms()[normal], ref_norms(p)[normal])


@pytest.mark.parametrize("h", STEPS)
@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
def test_reciprocal_multiply_matches_complex_division(h, scale):
    """The kernel's in-place real multiply by 1/h^2 against numpy's c / h**2."""
    rng = np.random.default_rng(7)
    c = (rng.normal(size=(9, 8193)) + 1j * rng.normal(size=(9, 8193))) * scale
    ref = (c[:, 2:] - 2 * c[:, 1:-1] + c[:, :-2]) / h**2
    assert np.array_equal(_second_difference(c, h).view(np.float64), ref.view(np.float64))


def _ref_fiber_residual(fiber, potential, energy):
    h = fiber.t_grid[1] - fiber.t_grid[0]
    c = np.fft.fftn(fiber.data, axes=fiber.spatial_axes, norm="ortho")
    dtt = (c[..., 2:] - 2.0 * c[..., 1:-1] + c[..., :-2]) / h**2
    res_spec = dtt - fiber.mode_eigenvalues(energy)[..., None] * c[..., 1:-1]
    res_phys = np.fft.ifftn(res_spec, axes=fiber.spatial_axes, norm="ortho")
    if potential is not None:
        v_cell = potential.cell_block(potential.cells_lo)[..., 1:-1]
        res_phys = res_phys - v_cell * fiber.data[..., 1:-1]
    w = unit_cell_volume(fiber.lattice) / fiber.points_per_cell**fiber.dim
    return np.sqrt(w * np.sum(np.abs(res_phys) ** 2, axis=fiber.spatial_axes))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("with_potential", [False, True])
def test_fiber_residual_matches_full_formula(dim, with_potential):
    rng = np.random.default_rng(dim)
    lat = Lattice.cubic(TWO_PI, dim)
    n, nt = 6, 41
    shape = (n,) * dim + (nt,)
    fiber = BlochFiber(
        theta=Quasimomentum(coeffs=rng.uniform(0.0, 1.0, size=dim)), lattice=lat,
        points_per_cell=n, t_start=0.5, t_end=2.5,
        data=rng.normal(size=shape) + 1j * rng.normal(size=shape),
    )
    v = None
    if with_potential:
        v = SampledField(
            kind="potential", lattice=lat, cells_lo=(0,) * dim, cells_shape=(1,) * dim,
            points_per_cell=n, t_start=0.5, t_end=2.5, values=rng.normal(size=shape),
        )
    assert np.array_equal(fiber_residual(fiber, v, 0.3), _ref_fiber_residual(fiber, v, 0.3))


@pytest.mark.parametrize("kind", ["zero", "diagonal", "full"])
def test_discrete_residual_matches_full_formula(kind):
    eigs = np.array([1.0, 2.5, 4.0, 7.0])
    bound = exponential_bound(0.5)
    pert = {"zero": PerturbationFamily.zero(),
            "diagonal": PerturbationFamily.diagonal(bound, beta=0.5, decays=True, seed=4),
            "full": PerturbationFamily.full(bound, beta=0.5, decays=True, seed=4)}[kind]
    g = np.array([1.0, -0.5j, 0.25, 2.0 + 1.0j])
    p = solve_decaying(eigs, pert, 8.0, g, n_points=801).profile
    t, c = p.t_grid, p.coeffs
    psi = (ref_second_difference(p) - p.eigs[:, None] * c)[:, 1:-1]
    if kind == "diagonal":
        psi = psi - pert.diagonal_entries(t[1:-1], p.n_modes).T * c[:, 1:-1]
    elif kind == "full":
        psi = psi - pert.bound_values(t[1:-1])[None, :] * (pert.full_matrix(p.n_modes) @ c[:, 1:-1])
    ref = float(np.max(np.abs(psi)) * grid_step(t) ** 2 / float(np.max(np.abs(c))))
    assert _checked_residual(c, p.eigs, p.step, pert, t[1:-1])[1] == ref


def as_generic(p: BumpProfile) -> SpectralProfile:
    """The same profile from its materialised coefficients, without the factored densities."""
    return SpectralProfile(p.eigs, p.t_grid, p.coeffs, p.alpha)


def test_carleman_reports_match_full_formula_path(monkeypatch):
    """32 gap and 32 4/3 ensemble cases, with the kernel and with the plain sums."""
    eps = 0.5
    wl = eps ** (-4.0 / 3.0)
    gap_cases = [ensembles.bump_case_gap(3, i) for i in range(32)]
    cases = [((as_generic(p), a, b, alpha), None) for p, a, b, alpha in gap_cases]
    cases += [(None, as_generic(ensembles.bump_case_43(3, i, eps, wl)[0])) for i in range(32)]

    def run_all():
        out = []
        for gap, p43 in cases:
            if gap is not None:
                p, a, b, alpha = gap
                out.append(carleman.verify_carleman_gap(p, a, b, alpha))
            else:
                out.append(carleman.verify_carleman_43(p43, wl, eps))
        return out

    kernel = run_all()
    monkeypatch.setattr(SpectralProfile, "densities", ref_densities)
    assert kernel == run_all()


def test_norms_survive_gaussian_underflow():
    t = np.linspace(0.0, 20.0, 4001)
    p = SpectralProfile(eigs=[1.0], t_grid=t, coeffs=np.exp(-t * t)[None, :])
    assert np.min(p.norms()) > 0.0
    assert np.allclose(p.norms(), np.exp(-t * t), rtol=1e-15, atol=0.0)
    est = decay_rate_estimate(p, (2.0, 20.0))
    assert est.rate > 10.0


def test_norms_of_exponential_decay_keep_their_bits():
    t = np.linspace(0.0, 100.0, 4001)
    p = SpectralProfile(eigs=[4.0], t_grid=t, coeffs=np.exp(-2.0 * t)[None, :])
    assert np.array_equal(p.norms(), ref_norms(p))


def test_norms_rescale_overflow_and_keep_zero_columns():
    coeffs = np.zeros((2, 5), dtype=complex)
    coeffs[:, 1] = 1e200
    coeffs[0, 2] = 1e-170
    p = SpectralProfile(eigs=[1.0, 1.0], t_grid=np.linspace(0.0, 1.0, 5), coeffs=coeffs)
    norms = p.norms()
    assert norms[1] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert norms[2] == 1e-170
    assert norms[0] == norms[3] == norms[4] == 0.0


# Agreement of the factored densities with the full-array mode sums, column by
# column.  norm2 cancels nothing, so it gets rtol times its terms' sum,
# sum_i (|v_i| s)^2.  psi2 sums the squares of psi_i = v_i (s'' - mu_i s), whose
# second difference cancels about (width/h)^2: either path errs in psi_i by a few
# eps times |v_i| (S + |mu_i s|), with S = (|s_-| + 2|s| + |s_+|)/h^2 the stencil
# sum.  To first order that moves psi2 by a few eps times sqrt(psi2) R, with
# R^2 = sum_i (|v_i| (S + |mu_i s|))^2, and to second order by eps^2 R^2; so psi2
# gets rtol R (sqrt(psi2) + eps R).  R is summed by hypot, which does not
# overflow where R^2 would.  Over 12000 drawn profiles the largest errors were
# 5.6 eps (psi2) and 4.8 eps (norm2) in these units.  Below DENSITY_ATOL
# (subnormal squares) both round on an absolute grid.
NORM2_RTOL, PSI2_RTOL, DENSITY_ATOL = 1e-14, 1e-13, 1e-318


def assert_densities_close(got, ref, rtol, scale):
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= rtol * scale[finite] + DENSITY_ATOL), "values differ"


def assert_bump_densities_match(bp: BumpProfile, ref: SpectralProfile) -> None:
    """bp's densities agree with ref's within the error scales above."""
    with np.errstate(over="ignore"):
        (norm2, psi2), (ref_norm2, ref_psi2) = bp.densities(), ref.densities()
        s, mod = bp.bump, np.abs(bp.amps)[:, None]
        stencil = np.zeros_like(s)
        stencil[1:-1] = (np.abs(s[2:]) + 2.0 * np.abs(s[1:-1]) + np.abs(s[:-2])) / bp.step**2
        root = np.hypot.reduce(mod * (stencil + np.abs(bp.eigs[:, None] * s)), axis=0, initial=0.0)
        norm2_scale = np.sum((mod * s) ** 2, axis=0)
        psi2_scale = root * (np.sqrt(ref_psi2) + np.finfo(float).eps * root)
    assert_densities_close(norm2, ref_norm2, NORM2_RTOL, norm2_scale)
    assert_densities_close(psi2, ref_psi2, PSI2_RTOL, psi2_scale)


@st.composite
def bump_profiles(draw):
    """Bump profiles with amplitudes from 1e-300 to 1e160 and supports of every width.

    The top amplitude is also drawn at the edges where squares under- or overflow,
    and some modes get eigenvalues up to 5e5, so that one case mixes scales."""
    m = draw(st.one_of(st.just(1), st.just(16), st.integers(2, 15)))
    n = draw(st.integers(4, 600))
    h = draw(st.sampled_from(STEPS))
    t = draw(st.sampled_from([0.0, 0.25])) + h * np.arange(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.one_of(st.floats(-300.0, 160.0), st.sampled_from([-300.0, -162.0, 150.0, 154.5])))
    amps = (rng.normal(size=m) + 1j * rng.normal(size=m)) * 10.0 ** np.maximum(top - rng.uniform(0, 30, m), -300)
    amps[rng.random(m) < 0.2] = 0.0
    kind = draw(st.sampled_from(["inner", "one", "two", "head", "tail", "full", "zero"]))
    if kind == "zero":
        amps[:] = 0.0
    j, k = sorted(rng.choice(np.arange(1, n - 1), size=2, replace=False))
    support = {"one": (t[j] - 0.5 * h, t[j] + 0.5 * h), "two": (t[j] - 0.5 * h, t[j] + 1.5 * h),
               "head": (t[0], t[k]), "tail": (t[j], t[-1]), "full": (t[0], t[-1])}.get(kind, (t[j], t[k]))
    eigs = rng.uniform(-5.0, 50.0, size=m) * 10.0 ** rng.choice([0, 0, 4], size=m)
    return bump_profile(support, list(zip(eigs, amps)), t)


@settings(max_examples=300, deadline=None)
@given(bump_profiles())
def test_factored_bump_densities_match_the_full_array_path(bp):
    ref = as_generic(bp)
    assert bp._support_index == ref._support_index and bp.support() == ref.support()
    assert_bump_densities_match(bp, ref)
    assert np.array_equal(bp.coeffs, bp.amps[:, None] * bp.bump[None, :])
    assert not bp.coeffs.flags.writeable


@pytest.mark.parametrize("change", ["eigenvalue", "step"])
def test_density_oracle_sees_small_value_changes(change):
    """The check above refuses a reference with one eigenvalue 1e-6 off, or the step 1e-9 off."""
    bp = ensembles.bump_case_gap(3, 0)[0]
    eigs, t = bp.eigs.copy(), bp.t_grid
    if change == "eigenvalue":
        eigs[np.argmax(np.abs(bp.amps * bp.eigs))] *= 1.0 + 1e-6
    else:
        t = t * (1.0 + 1e-9)
    assert_bump_densities_match(bp, as_generic(bp))
    with pytest.raises(AssertionError, match="values differ"):
        assert_bump_densities_match(bp, SpectralProfile(eigs, t, bp.coeffs, bp.alpha))


# Entries of every kind the support scan must classify: signed zeros, a
# subnormal, NaN and infinity.  A zero real part with a nonzero imaginary part
# makes an imaginary-only entry.
_PARTS = np.array([0.0, -0.0, 1.0, -2.5, 5e-324, np.nan, -np.inf])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6), st.integers(3, 40), st.sampled_from([0.0, 0.02, 0.3]),
    st.integers(0, 2**32 - 1), st.booleans(),
)
def test_support_index_matches_nonzero_reference(m, n, density, seed, fortran):
    rng = np.random.default_rng(seed)
    coeffs = np.empty((m, n), dtype=complex)
    coeffs.real, coeffs.imag = (
        np.where(rng.random((m, n)) < density, rng.choice(_PARTS, (m, n)), rng.choice([0.0, -0.0], (m, n)))
        for _ in range(2)
    )
    if fortran:
        coeffs = np.asfortranarray(coeffs)
    ref = np.flatnonzero(np.any(coeffs != 0, axis=0))
    p = SpectralProfile(eigs=np.ones(m), t_grid=0.5 * np.arange(n), coeffs=coeffs)
    assert p.coeffs.flags.c_contiguous
    assert p._support_index == ((int(ref[0]), int(ref[-1])) if ref.size else None)


def _uncached_simpson_weights(n):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def test_simpson_weights_are_cached_read_only_and_keep_their_values(monkeypatch):
    w = simpson_weights(9)
    assert w is simpson_weights(9)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 2.0
    assert np.array_equal(w, _uncached_simpson_weights(9))

    rng = np.random.default_rng(5)
    y = rng.normal(size=4097)
    lat = Lattice.cubic(TWO_PI, 1)
    u = SampledField(
        kind="u", lattice=lat, cells_lo=(0,), cells_shape=(2,), points_per_cell=4,
        t_start=0.0, t_end=1.0, values=rng.normal(size=(8, 33)) + 1j * rng.normal(size=(8, 33)),
    )
    cached = (simpson_with_error(y, 1e-3), weighted_norm(u, 0.5, 0.3))
    monkeypatch.setattr(quadrature, "simpson_weights", _uncached_simpson_weights)
    assert (simpson_with_error(y, 1e-3), weighted_norm(u, 0.5, 0.3)) == cached
