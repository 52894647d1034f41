import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_decay import (
    PreconditionError,
    ResolutionError,
    SchemaError,
    SpectralProfile,
    bump_profile,
    conjugation_identity_check,
    ellreg_bound_check,
    first_order_system_check,
    verify_carleman_43,
    verify_carleman_gap,
    weight_sign_check,
    zero_profile,
)
from halfspace_decay.ensembles import bump_case_43, bump_case_gap, solution_like_profile
from halfspace_decay.profiles import plateau_shape
from halfspace_decay.carleman import _pass_rule
from halfspace_decay.quadrature import GATE_RTOL, Integral, check_resolution, uniform_grid


def test_bump_shape_examples():
    t = uniform_grid(4.0, 4001)
    phi = bump_profile((1.0, 3.0), [(1.0, 1.0)], t)
    c = phi.coeffs[0].real
    assert c[0] == 0.0 and c[-1] == 0.0
    center = np.argmin(np.abs(t - 2.0))
    assert np.max(np.abs(phi.coeffs)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert np.argmax(np.abs(phi.coeffs[0])) == center
    support = phi.support()
    assert support[0] >= 1.0 and support[1] <= 3.0


def test_bump_zero_coefficient_is_zero_profile():
    t = uniform_grid(4.0, 101)
    phi = bump_profile((1.0, 3.0), [(2.0, 0.0)], t)
    assert np.all(phi.coeffs == 0)
    z = zero_profile([1.0, 4.0], t)
    assert np.all(z.coeffs == 0) and z.n_modes == 2


def test_taper_derivative_sups():
    taper = 10.0
    t = uniform_grid(40.0, 8001)
    h = t[1] - t[0]
    shape = plateau_shape(t, 1.0, 39.0, taper)
    assert np.max(np.abs(np.diff(shape))) / h <= 2.0 / taper
    assert np.max(np.abs(np.diff(shape, 2))) / h**2 <= 8.0 / taper**2
    # plateau region is exactly 1
    mid = (t > 11.5) & (t < 28.5)
    assert np.max(np.abs(shape[mid] - 1.0)) == 0.0


def test_bump_support_outside_grid():
    t = uniform_grid(2.0, 101)
    from halfspace_decay import SchemaError

    with pytest.raises(SchemaError):
        bump_profile((1.0, 3.0), [(1.0, 1.0)], t)


def test_conjugation_identity_residual_small():
    t = uniform_grid(4.0, 4001)  # h = 1e-3
    psi = bump_profile((1.0, 3.0), [(1.0, 1.0)], t)
    assert conjugation_identity_check(psi, 1.0) < 1e-4


def test_conjugation_identity_zero_profile():
    t = uniform_grid(4.0, 4001)
    assert conjugation_identity_check(zero_profile([1.0], t), 1.0) == 0.0


def test_conjugation_identity_order_two():
    resid = {}
    for n in (2001, 4001):
        t = uniform_grid(4.0, n)
        psi = bump_profile((1.0, 3.0), [(1.0, 1.0), (5.0, 0.5)], t)
        resid[n] = conjugation_identity_check(psi, 1.0)
    ratio = resid[2001] / resid[4001]
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_conjugation_identity_is_finite_at_a_large_weight():
    """The weight enters only through ratios exp(W_j - W_(j+-1)), so W(4) = 1000 * 4^(4/3) is no overflow."""
    resid = {}
    for n in (1025, 2049, 4097, 8193):
        psi = bump_profile((1.0, 3.0), [(1.0, 1.0), (4.0, 0.5)], uniform_grid(4.0, n))
        resid[n] = conjugation_identity_check(psi, 1000.0)  # a RuntimeWarning is an error here
    assert all(math.isfinite(r) and r > 0 for r in resid.values())
    assert 4.0 * 0.8 < resid[4097] / resid[8193] < 4.0 * 1.2  # order 2 once h resolves the weight


def test_conjugation_identity_support_at_the_last_grid_point():
    """Only the interior points of the stencil are evaluated: a support up to the grid's end is checked."""
    t = uniform_grid(4.0, 2049)
    c = np.zeros((2, t.size), dtype=complex)
    c[:, 1024:] = np.sin(t[1024:])[None, :] * np.array([[1.0], [0.5]])
    resid = conjugation_identity_check(SpectralProfile(eigs=np.array([1.0, 4.0]), t_grid=t, coeffs=c), 1.0)
    assert math.isfinite(resid) and resid > 0


def test_conjugation_identity_refuses_support_at_zero():
    t = uniform_grid(4.0, 2001)
    psi = bump_profile((0.0, 1.0), [(1.0, 1.0)], t)
    with pytest.raises(PreconditionError):
        conjugation_identity_check(psi, 1.0)


def test_weight_sign_values():
    rows = weight_sign_check(1.0, [1.0])
    t, value, flag = rows[0]
    assert value == pytest.approx(8.0 / 81.0, rel=1e-12)
    assert flag is True
    # root of the second factor
    lam = (5.0 / 6.0) * 2.0 ** (-4.0 / 3.0)
    rows = weight_sign_check(lam, [2.0])
    assert rows[0][1] == pytest.approx(0.0, abs=1e-15)
    assert rows[0][2] is False
    # frozen 50-digit evaluation of the closed form at t=16, lambda=1
    rows = weight_sign_check(1.0, [16.0])
    assert rows[0][1] == pytest.approx(0.014394357481115930, rel=1e-12)


def test_weight_sign_flag_implies_positive():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = float(rng.uniform(0.05, 20.0))
        lam = float(rng.uniform(0.01, 30.0))
        ((_, value, flag),) = weight_sign_check(lam, [t])
        if flag:
            assert value > 0.0


def test_verify43_zero_profile_passes():
    t = uniform_grid(4.0, 4097)
    rep = verify_carleman_43(zero_profile([1.0], t), 1.0, 1.0)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_verify43_lambda_cubed_beyond_float_range():
    """No support: the zero report, whatever lambda.  Any support: refused, never an OverflowError."""
    t = uniform_grid(4.0, 4097)
    rep = verify_carleman_43(zero_profile([1.0], t), 1e120, 1.0)
    assert rep.passed and (rep.lhs, rep.rhs, rep.margin, rep.quad_err) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(PreconditionError, match="overflows"):
        verify_carleman_43(bump_profile((1.0, 3.0), [(1.0, 1.0)], t), 1e120, 1.0)


def test_verify43_single_mode_example():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((1.0, 3.0), [(1.0, 1.0)], t)
    rep = verify_carleman_43(phi, 1.0, 1.0)
    assert rep.passed and rep.margin >= 0.0


def test_verify43_precondition_refusals():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((1.0, 3.0), [(1.0, 1.0)], t)
    with pytest.raises(PreconditionError):
        verify_carleman_43(phi, 0.5, 1.0)  # lambda below eps^(-4/3) = 1
    with pytest.raises(PreconditionError):
        verify_carleman_43(phi, 4.0, 2.0)  # support dips below eps = 2


def test_verify43_resolution_gate():
    t = uniform_grid(3.5, 257)
    phi = bump_profile((0.6, 2.0), [(1.0, 1.0)], t)
    with pytest.raises(ResolutionError):
        verify_carleman_43(phi, 10.0, 0.5)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([1.0, 2.0, 4.0]),
)
def test_verify43_property_random_admissible(seed, eps, mult):
    wl = mult * eps ** (-4.0 / 3.0)
    profile, _ = bump_case_43(seed, 0, eps, wl, max_modes=8, t_points=4097)
    rep = verify_carleman_43(profile, wl, eps)
    assert rep.passed


def test_verify43_negative_modes_allowed():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((1.2, 3.0), [(-3.0, 1.0), (2.0, 1.0)], t)
    rep = verify_carleman_43(phi, 1.0, 1.0)
    assert rep.passed


def test_verify_gap_single_mode_example():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t)
    rep = verify_carleman_gap(phi, 2.0, 3.0, 0.0)
    assert rep.passed and rep.margin >= 0.0
    assert rep.params["m"] == 1.0 and rep.params["w"] == 2.5
    # constant a^2 m^2 / 4 = 1: lhs equals the weighted norm integral
    assert rep.lhs > 0.0


def test_verify_gap_zero_profile():
    t = uniform_grid(4.0, 4097)
    rep = verify_carleman_gap(zero_profile([1.0, 9.0], t), 2.0, 3.0, 0.0)
    assert rep.passed


def test_verify_gap_refusals_are_not_failures():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t)
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, 0.5, 1.5, 0.0)  # 1 lies inside (0.25, 2.25)
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, 2.0, 3.0, 13.0)  # 3 a^2 = 12 <= alpha
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, -1.0, 3.0, 0.0)


def test_verify_gap_force_mode_has_no_verdict():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t)
    rep = verify_carleman_gap(phi, 0.5, 1.5, 0.0, force=True)
    assert rep.passed is None
    assert rep.params["forced"] is True
    assert rep.rhs > 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_verify_gap_property_random_admissible(seed):
    profile, a, b, alpha = bump_case_gap(seed, 1, t_points=4097)
    rep = verify_carleman_gap(profile, a, b, alpha)
    assert rep.passed


def test_factored_bump_cases_keep_the_full_array_verdicts():
    """Benchmark seed 4242, gap and 4/3 cases 0-63: the factored densities against the
    same profiles rebuilt from their coefficients.  lhs and rhs carry the
    densities' tolerances (1e-14 on ||phi||^2, 1e-11 on ||psi||^2); the verifiers
    never materialise a bump profile's coefficients."""
    eps = 0.5
    wl = eps ** (-4.0 / 3.0)
    for i in range(64):
        profile, a, b, alpha = bump_case_gap(4242, i)
        profile_43, _ = bump_case_43(4242, i, eps, wl)
        pairs = [(profile, lambda p: verify_carleman_gap(p, a, b, alpha)),
                 (profile_43, lambda p: verify_carleman_43(p, wl, eps))]
        for p, verify in pairs:
            rep = verify(p)
            assert "coeffs" not in vars(p)
            ref = verify(SpectralProfile(p.eigs, p.t_grid, p.coeffs))
            assert rep.passed is ref.passed is True
            assert rep.lhs == pytest.approx(ref.lhs, rel=1e-14)
            assert rep.rhs == pytest.approx(ref.rhs, rel=1e-11)
            assert rep.margin == pytest.approx(ref.margin, abs=1e-11 * ref.rhs)


def test_system_check_mode_above_gap():
    t = uniform_grid(4.0, 2001)
    phi = bump_profile((0.5, 3.0), [(9.0, 1.0)], t)
    rep = first_order_system_check(phi, 2.0, 3.0)
    # B1* + B1 on its range is 2*sqrt(9) + 2*2.5 = 11 >= m = 1
    assert rep.min_eig_b1 == pytest.approx(11.0 - 1.0, abs=1e-10)
    assert rep.certificates_ok


def test_system_check_mode_below_gap():
    t = uniform_grid(4.0, 2001)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t)
    rep = first_order_system_check(phi, 2.0, 3.0)
    # diagonal entries (mu/a + a + 2w, -mu/a - a + 2w) = (7.5, 2.5)
    assert rep.min_eig_b0 == pytest.approx(2.5 - 1.0, abs=1e-10)
    assert rep.certificates_ok


def test_system_check_zero_profile():
    t = uniform_grid(4.0, 2001)
    rep = first_order_system_check(zero_profile([1.0, 9.0], t), 2.0, 3.0)
    assert rep.identity_residual == 0.0
    assert rep.certificates_ok


def test_weight_overflow_past_the_support_keeps_the_verdict():
    """The weight overflows on the grid, but only after the support has ended."""
    t = uniform_grid(4.0, 16385)
    with np.errstate(over="ignore"):
        assert np.exp(2.0 * 120.0 * t[-1]) == np.inf and np.exp(249.5 * t[-1]) == np.inf
        assert np.exp(2.0 * 150.0 * t[-1] ** (4.0 / 3.0)) == np.inf
    gap = verify_carleman_gap(bump_profile((0.5, 1.0), [(1.0, 1.0), (3e4, 0.5)], t), 100.0, 140.0, 0.0)
    assert gap.passed and math.isfinite(gap.margin)
    rep43 = verify_carleman_43(bump_profile((0.6, 1.0), [(1.0, 1.0), (4.0, 0.5)], t), 150.0, 0.5)
    assert rep43.passed and math.isfinite(rep43.margin)
    system = first_order_system_check(bump_profile((0.5, 1.0), [(1.0, 1.0), (9e4, 0.5)], t), 200.0, 299.0)
    assert system.certificates_ok and math.isfinite(system.identity_residual)


def test_weight_overflow_on_the_support_is_refused():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0), (9e4, 0.5)], t)
    with pytest.raises(PreconditionError, match=r"weight exp\(2\*249.5\*t\^1\)"):
        verify_carleman_gap(phi, 200.0, 299.0, 0.0)
    with pytest.raises(PreconditionError, match=r"weight exp\(249.5\*t\)"):
        first_order_system_check(phi, 200.0, 299.0)
    with pytest.raises(PreconditionError, match=r"weight exp\(2\*400\*t\^1.333\)"):
        verify_carleman_43(bump_profile((0.6, 3.0), [(1.0, 1.0)], t), 400.0, 0.5)


def test_finite_weight_whose_integral_overflows_is_refused():
    """Weight and densities are finite on the support, but their product is not."""
    phi = bump_profile((0.5, 3.0), [(1.0, 1e150)], uniform_grid(4.0, 4097))
    assert all(np.isfinite(d).all() for d in phi.densities())
    with pytest.raises(PreconditionError, match=r"weight exp\(2\*2.45\*t\^1\) or its integral overflows"):
        verify_carleman_gap(phi, 2.0, 2.9, 0.0)


def test_system_check_non_finite_defect_names_the_defect():
    """A finite weight with coefficients too large to square is not blamed on the weight."""
    phi = bump_profile((0.5, 3.0), [(1.0, 1e300), (9.0, 0.5)], uniform_grid(4.0, 4097))
    with pytest.raises(PreconditionError, match="weighted defect is not finite"):
        first_order_system_check(phi, 2.0, 2.9)


def test_ellreg_non_finite_window_start_refused():
    profile, _ = solution_like_profile(0, 0)
    for s in (math.nan, math.inf):
        with pytest.raises(SchemaError):
            ellreg_bound_check(profile, 0.5, [2.0, s])


def test_system_check_identity_order_two():
    resid = {}
    for n in (2001, 4001):
        t = uniform_grid(4.0, n)
        phi = bump_profile((0.5, 3.0), [(1.0, 1.0), (9.0, 0.5j)], t)
        resid[n] = first_order_system_check(phi, 2.0, 3.0).identity_residual
    ratio = resid[2001] / resid[4001]
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


def test_system_check_certificates_random_spectra():
    rng = np.random.default_rng(4)
    t = uniform_grid(4.0, 513)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        a, b = float(k), float(k + 1)
        count = int(rng.integers(1, 10))
        eigs = rng.choice(np.arange(0, 12) ** 2, size=count).astype(float)
        amps = rng.normal(size=count)
        phi = bump_profile((0.5, 3.0), list(zip(eigs, amps)), t)
        rep = first_order_system_check(phi, a, b)
        assert rep.certificates_ok
        assert rep.min_eig_b0 >= -1e-10 and rep.min_eig_b1 >= -1e-10
        assert rep.max_eig_b2 <= 1e-10


# Test-local reference: the dense 2M x 2M construction that the per-mode
# 2x2 blocks replaced, kept to pin their results.


def _dense_first_order_blocks(eigs, a, b):
    """(B0, B1, B2, Q0, Q1, Q2, K) as explicit 2M x 2M matrices and K as a vector."""
    M = eigs.size
    w = 0.5 * (a + b)
    minus = eigs <= a * a
    plus = eigs >= b * b
    assert np.all(minus | plus)
    sqrt_plus = np.where(plus, np.sqrt(np.maximum(eigs, 0.0)), 0.0)
    K = a * minus.astype(float) + sqrt_plus

    def diag2(tl, tr, bl, br):
        out = np.zeros((2 * M, 2 * M))
        out[:M, :M] = np.diag(tl)
        out[:M, M:] = np.diag(tr)
        out[M:, :M] = np.diag(bl)
        out[M:, M:] = np.diag(br)
        return out

    mm, pp = minus.astype(float), plus.astype(float)
    Q0 = diag2(mm, 0 * mm, 0 * mm, mm)
    Q1 = diag2(pp, 0 * pp, 0 * pp, 0 * pp)
    Q2 = diag2(0 * pp, 0 * pp, 0 * pp, pp)
    B0 = diag2(
        mm * ((eigs + a * a) / (2 * a) + w),
        mm * ((-eigs + a * a) / (2 * a)),
        mm * ((eigs - a * a) / (2 * a)),
        mm * ((-eigs - a * a) / (2 * a) + w),
    )
    B1 = diag2(pp * (sqrt_plus + w), 0 * pp, 0 * pp, 0 * pp)
    B2 = diag2(0 * pp, 0 * pp, 0 * pp, pp * (-sqrt_plus + w))
    return B0, B1, B2, Q0, Q1, Q2, K


def _dense_system_check(phi, a, b):
    """(identity_residual, min_eig_b0, min_eig_b1, max_eig_b2, certificates_ok) the dense way."""
    eigs, M, w, m = phi.eigs, phi.eigs.size, 0.5 * (a + b), b - a
    B0, B1, B2, Q0, Q1, Q2, K = _dense_first_order_blocks(eigs, a, b)
    t, h = phi.t_grid, phi.step
    ew = np.exp(w * t)[None, :]
    dphi, psi = phi.first_difference(), phi.equation_residual()
    Phi = np.concatenate([ew * (dphi + K[:, None] * phi.coeffs), ew * (dphi - K[:, None] * phi.coeffs)], axis=0)
    Psi = np.concatenate([ew * psi, ew * psi], axis=0)
    inner = slice(2, t.size - 2)
    dPhi = (Phi[:, 3:-1] - Phi[:, 1:-3]) / (2 * h)
    residual = 0.0
    for Bj, Qj in ((B0, Q0), (B1, Q1), (B2, Q2)):
        proj = np.diagonal(Qj)[:, None]
        defect = np.sqrt(np.sum(np.abs(proj * dPhi - (Bj @ (proj * Phi[:, inner]) + proj * Psi[:, inner])) ** 2, axis=0))
        if defect.size:
            residual = max(residual, float(np.max(defect)))
    minus_idx, plus_idx = np.flatnonzero(eigs <= a * a), np.flatnonzero(eigs >= b * b)
    idx0, idx1, idx2 = np.concatenate([minus_idx, M + minus_idx]), plus_idx, M + plus_idx
    min0 = min1 = math.inf
    max2 = -math.inf
    if idx0.size:
        min0 = float(np.min(np.linalg.eigvalsh((B0 + B0.T)[np.ix_(idx0, idx0)] - m * np.eye(idx0.size))))
    if idx1.size:
        min1 = float(np.min(np.linalg.eigvalsh((B1 + B1.T)[np.ix_(idx1, idx1)] - m * np.eye(idx1.size))))
    if idx2.size:
        max2 = float(np.max(np.linalg.eigvalsh((B2 + B2.T)[np.ix_(idx2, idx2)] + m * np.eye(idx2.size))))
    ok = (
        (not idx0.size or min0 >= -1e-10) and (not idx1.size or min1 >= -1e-10) and (not idx2.size or max2 <= 1e-10)
    )
    return residual, min0, min1, max2, ok


def _system_check_cases():
    """(profile, a, b): ensemble draws, random spectra with complex amplitudes
    and modes exactly at a^2 or b^2, spectra only below or only above the gap,
    and the zero profile."""
    for seed in range(40):
        profile, a, b, _ = bump_case_gap(seed, seed % 3, t_points=1025)
        yield profile, a, b
    rng = np.random.default_rng(11)
    for i in range(60):
        k = int(rng.integers(1, 7))
        a, b = float(k), float(k + 1) + float(rng.uniform(0.0, 0.5))
        count = int(rng.integers(1, 12))
        below = rng.uniform(-0.5, a * a, size=count)
        above = rng.uniform(b * b, b * b + 40.0, size=count)
        eigs = [np.where(rng.random(count) < 0.5, below, above), below, above][i % 3]
        eigs[0] = (a * a, b * b, eigs[0], eigs[0])[i % 4]
        amps = rng.normal(size=count) + 1j * rng.normal(size=count)
        t = uniform_grid(4.0, int(rng.choice([513, 1025])))
        yield bump_profile((0.5, 3.0), list(zip(eigs.tolist(), amps.tolist())), t), a, b
    t = uniform_grid(4.0, 513)
    yield zero_profile([1.0, 4.0, 9.0], t), 2.0, 3.0
    yield bump_profile((0.5, 3.0), [(4.0, 1.0), (9.0, 2j)], t), 2.0, 3.0


def test_system_check_matches_dense_reference():
    cases = 0
    for phi, a, b in _system_check_cases():
        rep = first_order_system_check(phi, a, b)
        residual, min0, min1, max2, ok = _dense_system_check(phi, a, b)
        assert (rep.min_eig_b0, rep.min_eig_b1, rep.max_eig_b2, rep.certificates_ok) == (min0, min1, max2, ok)
        assert rep.identity_residual == pytest.approx(residual, rel=1e-12, abs=0.0)
        cases += 1
    assert cases >= 100


def test_system_check_boundary_modes_and_one_sided_spectra():
    t = uniform_grid(4.0, 513)
    rep = first_order_system_check(bump_profile((0.5, 3.0), [(4.0, 1.0), (9.0, 1j)], t), 2.0, 3.0)
    # both certificates are exactly tight at the gap's ends: with m = b - a and 2w = a + b,
    # mu = a^2 gives B0* + B0 - m = diag(2a + 2w, 2w - 2a) - m, whose smaller entry is 0,
    # and mu = b^2 gives B2* + B2 + m = 2w - 2b + m = 0
    assert rep.min_eig_b0 == 0.0 and rep.max_eig_b2 == 0.0 and rep.min_eig_b1 == 2 * 3.0 + 2 * 2.5 - 1.0
    assert rep.certificates_ok
    below = first_order_system_check(bump_profile((0.5, 3.0), [(1.0, 1.0), (0.0, 2.0)], t), 2.0, 3.0)
    assert below.min_eig_b1 == math.inf and below.max_eig_b2 == -math.inf and below.certificates_ok
    above = first_order_system_check(bump_profile((0.5, 3.0), [(16.0, 1.0)], t), 2.0, 3.0)
    assert above.min_eig_b0 == math.inf and above.certificates_ok


def test_system_check_peak_memory():
    # the dense construction peaked at about 158 MiB here (seven 2M x 2M matrices)
    rng = np.random.default_rng(3)
    M = 400
    eigs = np.where(rng.random(M) < 0.5, rng.uniform(0.0, 4.0, M), rng.uniform(9.0, 50.0, M))
    amps = rng.normal(size=M) + 1j * rng.normal(size=M)
    phi = bump_profile((0.5, 3.0), list(zip(eigs, amps)), uniform_grid(4.0, 1025))
    tracemalloc.start()
    try:
        rep = first_order_system_check(phi, 2.0, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.certificates_ok
    assert peak <= 100 * 2**20


def test_ellreg_exponential_closed_form():
    import scipy.integrate as si

    t = uniform_grid(10.0, 4001)
    prof = SpectralProfile(
        eigs=np.array([4.0]), t_grid=t, coeffs=np.exp(-2.0 * t)[None, :].astype(complex)
    )
    eps = 0.25
    rep = ellreg_bound_check(prof, eps, [1.0, 2.0, 3.0])
    num = si.quad(lambda s: 4.0 * math.exp(-4.0 * s), 1.0, 2.0)[0]
    den = si.quad(lambda s: math.exp(-4.0 * s), 1.0 - eps, 2.0 + eps)[0]
    expected = num / den
    for _, ratio in rep.ratios:
        assert ratio == pytest.approx(expected, rel=1e-4)
    assert rep.beta < 1e-4


def test_ellreg_constant_profile_zero_numerator():
    t = uniform_grid(10.0, 2001)
    prof = SpectralProfile(
        eigs=np.array([0.0]), t_grid=t, coeffs=np.ones((1, t.size), dtype=complex)
    )
    rep = ellreg_bound_check(prof, 0.25, [2.0])
    assert rep.ratios[0][1] == pytest.approx(0.0, abs=1e-20)


def test_ellreg_zero_denominator_refused():
    t = uniform_grid(10.0, 2001)
    coeffs = np.zeros((1, t.size), dtype=complex)
    coeffs[0, t > 8.0] = 1.0
    prof = SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=coeffs)
    with pytest.raises(PreconditionError):
        ellreg_bound_check(prof, 0.1, [2.0])


def test_ellreg_empty_window_list_refused():
    t = uniform_grid(10.0, 2001)
    prof = SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=np.ones((1, t.size), dtype=complex))
    with pytest.raises(SchemaError, match="at least one window"):
        ellreg_bound_check(prof, 0.25, [])


def _gaussian_profile() -> SpectralProfile:
    """phi = e^(-(t-5)^2) on [0, 10] with mu = 0: ||psi|| / ||phi|| = |4(t-5)^2 - 2| peaks at the ends."""
    t = uniform_grid(10.0, 4001)
    return SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=np.exp(-((t - 5.0) ** 2))[None, :].astype(complex))


def test_ellreg_sup_ratio_is_the_largest_window_not_the_last():
    rep = ellreg_bound_check(_gaussian_profile(), 0.25, [2.0, 4.5])
    (_, first), (_, last) = rep.ratios
    assert first > 10.0 * last and rep.sup_ratio == first


def test_ellreg_refuses_eps_zero():
    with pytest.raises(PreconditionError, match="eps must be positive"):
        ellreg_bound_check(_gaussian_profile(), 0.0, [2.0])


def test_ellreg_beta_counts_points_where_phi_is_small():
    """beta peaks next to t = 0 and t = 10, where ||phi|| ~ e^(-25) is far below 1 % of its maximum 1."""
    prof = _gaussian_profile()
    t = prof.t_grid[1:-1]
    beta = float(np.max(np.abs(4.0 * (t - 5.0) ** 2 - 2.0)))
    assert ellreg_bound_check(prof, 0.25, [2.0]).beta == pytest.approx(beta, rel=1e-3)


def test_ellreg_refinement_stability():
    sups = {}
    for n, idx in ((1001, 0), (2001, 0)):
        prof, beta = solution_like_profile(7, idx, t_points=n)
        rep = ellreg_bound_check(prof, 0.5, [2.0, 4.0, 6.0])
        sups[n] = rep.sup_ratio
    assert sups[1001] == pytest.approx(sups[2001], rel=0.05)


@pytest.mark.parametrize("shortfall, passed", [(0.9, True), (1.1, False)])
def test_pass_rule_allows_the_quadrature_error_and_no_more(shortfall, passed):
    """With pass_rtol 0, rhs may fall below lhs by quad_err, not by 1.1 quad_err."""
    lhs, quad_err = 10.0, 1e-3
    assert _pass_rule(lhs, lhs - shortfall * quad_err, quad_err, 0.0) == passed


@pytest.mark.parametrize("ratio, accepted", [(0.99, True), (1.01, False)])
def test_resolution_gate_bounds_the_predicted_change_by_gate_rtol(ratio, accepted):
    """The predicted change |I_h - I_2h| / 4 is refused just above gate_rtol |I_h|, not just below."""
    value = 2.0
    integral = Integral(value=value, err_estimate=0.0, coarse_value=value - 4.0 * ratio * GATE_RTOL * value)
    if accepted:
        check_resolution(integral)
    else:
        with pytest.raises(ResolutionError, match="resolution gate failed"):
            check_resolution(integral)


@pytest.mark.parametrize("factored", [True, False])
def test_weighted_report_leaves_the_profile_as_it_was(factored):
    """The report weights the densities in place: they are fresh arrays, so a second report reads the same."""
    phi, a, b, alpha = bump_case_gap(5, 2)
    if not factored:
        phi = SpectralProfile(phi.eigs, phi.t_grid, phi.coeffs)
    before = phi.densities()
    reports = [verify_carleman_gap(phi, a, b, alpha), verify_carleman_43(phi, 3.0, 0.5)]
    assert all(np.array_equal(x, y) for x, y in zip(before, phi.densities()))
    assert reports == [verify_carleman_gap(phi, a, b, alpha), verify_carleman_43(phi, 3.0, 0.5)]
