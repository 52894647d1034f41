import math

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
from halfspace_decay.quadrature import uniform_grid


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
    phi = bump_profile((1.0, 39.0), [(1.0, 1.0)], t, taper=taper)
    d1, d2 = phi.taper_sups
    assert d1 <= 2.0 / taper
    assert d2 <= 8.0 / taper**2
    # plateau region is exactly 1
    mid = (t > 11.5) & (t < 28.5)
    assert np.max(np.abs(phi.coeffs[0, mid] - 1.0)) == 0.0


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
    phi = bump_profile((1.2, 3.0), [(-3.0, 1.0), (2.0, 1.0)], t, alpha=3.0)
    rep = verify_carleman_43(phi, 1.0, 1.0)
    assert rep.passed


def test_verify_gap_single_mode_example():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t, alpha=0.0)
    rep = verify_carleman_gap(phi, 2.0, 3.0, 0.0)
    assert rep.passed and rep.margin >= 0.0
    assert rep.params["m"] == 1.0 and rep.params["w"] == 2.5
    # constant a^2 m^2 / 4 = 1: lhs equals the weighted norm integral
    assert rep.lhs > 0.0


def test_verify_gap_zero_profile():
    t = uniform_grid(4.0, 4097)
    rep = verify_carleman_gap(zero_profile([1.0, 9.0], t, alpha=0.0), 2.0, 3.0, 0.0)
    assert rep.passed


def test_verify_gap_refusals_are_not_failures():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t, alpha=0.0)
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, 0.5, 1.5, 0.0)  # 1 lies inside (0.25, 2.25)
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, 2.0, 3.0, 13.0)  # 3 a^2 = 12 <= alpha
    with pytest.raises(PreconditionError):
        verify_carleman_gap(phi, -1.0, 3.0, 0.0)


def test_verify_gap_force_mode_has_no_verdict():
    t = uniform_grid(4.0, 4097)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t, alpha=0.0)
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


def test_system_check_mode_above_gap():
    t = uniform_grid(4.0, 2001)
    phi = bump_profile((0.5, 3.0), [(9.0, 1.0)], t, alpha=0.0)
    rep = first_order_system_check(phi, 2.0, 3.0)
    # B1* + B1 on its range is 2*sqrt(9) + 2*2.5 = 11 >= m = 1
    assert rep.min_eig_b1 == pytest.approx(11.0 - 1.0, abs=1e-10)
    assert rep.certificates_ok


def test_system_check_mode_below_gap():
    t = uniform_grid(4.0, 2001)
    phi = bump_profile((0.5, 3.0), [(1.0, 1.0)], t, alpha=0.0)
    rep = first_order_system_check(phi, 2.0, 3.0)
    # diagonal entries (mu/a + a + 2w, -mu/a - a + 2w) = (7.5, 2.5)
    assert rep.min_eig_b0 == pytest.approx(2.5 - 1.0, abs=1e-10)
    assert rep.certificates_ok


def test_system_check_zero_profile():
    t = uniform_grid(4.0, 2001)
    rep = first_order_system_check(zero_profile([1.0, 9.0], t, alpha=0.0), 2.0, 3.0)
    assert rep.identity_residual == 0.0
    assert rep.certificates_ok


def test_system_check_identity_order_two():
    resid = {}
    for n in (2001, 4001):
        t = uniform_grid(4.0, n)
        phi = bump_profile((0.5, 3.0), [(1.0, 1.0), (9.0, 0.5j)], t, alpha=0.0)
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
        phi = bump_profile((0.5, 3.0), list(zip(eigs, amps)), t, alpha=0.0)
        rep = first_order_system_check(phi, a, b)
        assert rep.certificates_ok
        assert rep.min_eig_b0 >= -1e-10 and rep.min_eig_b1 >= -1e-10
        assert rep.max_eig_b2 <= 1e-10


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


def test_ellreg_refinement_stability():
    sups = {}
    for n, idx in ((1001, 0), (2001, 0)):
        prof, beta = solution_like_profile(7, idx, t_points=n)
        rep = ellreg_bound_check(prof, 0.5, [2.0, 4.0, 6.0])
        sups[n] = rep.sup_ratio
    assert sups[1001] == pytest.approx(sups[2001], rel=0.05)
