"""Weighted a-priori inequality verifiers on finite spectral truncations.

Two inequalities are checked by direct quadrature of both sides:

* the 4/3-weight estimate: for profiles vanishing below eps and weight
  strength weight_lambda >= eps^(-4/3),

      weight_lambda^3 * I[ e^(2*wl*t^(4/3)) ||phi||^2 ]
          <= I[ e^(2*wl*t^(4/3)) ||phi'' - A phi||^2 ];

* the gap estimate: when (a^2, b^2) misses the spectrum, 3a^2 > alpha,
  with w = (a+b)/2 and m = b - a,

      (a^2 m^2 / 4) * I[ e^(2wt) ||phi||^2 ] <= I[ e^(2wt) ||phi'' - A phi||^2 ].

Both are theorems in the continuum, so a discrete failure beyond the
quadrature budget is a defect, not a data point.  Precondition violations are
refusals and never counted as inequality failures.

The supporting identities (the conjugated-operator expansion, the sign of the
weight-derivative combination, and the first-order system with its projector
blocks) are checked here as well, since they are what makes the inequalities
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SchemaError, VerificationError
from .profiles import SpectralProfile, _first_difference, _second_difference
from .quadrature import GATE_RTOL, check_resolution, simpson_with_error, window_integral

# The 4/3 weight has singular derivatives at t=0; profiles must stay clear.
MIN_SUPPORT_T = 1e-3

PASS_RTOL = 1e-9
EIG_TOL = 1e-10


@dataclass(frozen=True)
class CarlemanReport:
    """Both sides of a weighted inequality with an explicit error budget."""

    lhs: float
    rhs: float
    margin: float
    quad_err: float
    passed: bool | None
    params: dict


def _pass_rule(lhs: float, rhs: float, quad_err: float, pass_rtol: float) -> bool:
    return (rhs - lhs) >= -(quad_err + pass_rtol * abs(rhs))


def _omega_derivatives(t: np.ndarray, wl: float):
    """omega = d/dt (wl * t^(4/3)) and its first three derivatives."""
    om = (4.0 * wl / 3.0) * t ** (1.0 / 3.0)
    om1 = (4.0 * wl / 9.0) * t ** (-2.0 / 3.0)
    om2 = -(8.0 * wl / 27.0) * t ** (-5.0 / 3.0)
    om3 = (40.0 * wl / 81.0) * t ** (-8.0 / 3.0)
    return om, om1, om2, om3


def weight_sign_value(t: float, weight_lambda: float) -> float:
    """Closed form of -((omega')^2 + 2*omega*omega'' + omega''')."""
    return (8.0 / 81.0) * weight_lambda * t ** (-4.0 / 3.0) * (
        6.0 * weight_lambda - 5.0 * t ** (-4.0 / 3.0)
    )


def weight_sign_check(weight_lambda: float, t_points) -> list[tuple[float, float, bool]]:
    """Evaluate the weight-derivative combination and its positivity guard.

    Returns rows (t, value, guaranteed_positive) where the value is computed
    term by term from the omega derivatives and cross-checked against the
    factored closed form to 1e-10 relative.  The flag records the sufficient
    condition weight_lambda >= t^(-4/3); the combination is then positive.
    """
    rows = []
    for t in np.atleast_1d(np.asarray(t_points, dtype=float)):
        if t <= 0:
            raise PreconditionError("weight derivatives are singular at t <= 0")
        _, om1, om2, om3 = _omega_derivatives(np.array([t]), weight_lambda)
        om = (4.0 * weight_lambda / 3.0) * t ** (1.0 / 3.0)
        termwise = -(om1[0] ** 2 + 2.0 * om * om2[0] + om3[0])
        closed = weight_sign_value(float(t), weight_lambda)
        # scale by the individual terms: at the root the sum cancels exactly
        scale = max(om1[0] ** 2, abs(2.0 * om * om2[0]), abs(om3[0]), 1e-300)
        if abs(termwise - closed) > 1e-10 * scale:
            raise VerificationError(
                f"weight-derivative identity broke at t={t}: {termwise} vs {closed}"
            )
        rows.append((float(t), float(termwise), bool(weight_lambda >= t ** (-4.0 / 3.0))))
    return rows


def _support_clear_of_zero(phi: SpectralProfile) -> tuple[int, int] | None:
    """The support's (first, last) grid index, refused when the point before it is below MIN_SUPPORT_T."""
    idx = phi._support_index
    if idx is not None and phi.t_grid[max(idx[0] - 1, 0)] < MIN_SUPPORT_T:
        raise PreconditionError(
            f"support touches t=0 (below t={MIN_SUPPORT_T:g}); the 4/3 weight and its derivatives are singular there"
        )
    return idx


def conjugation_identity_check(psi: SpectralProfile, weight_lambda: float) -> float:
    """Max residual of exp(W)(d_t^2 - A)(exp(-W) psi) = (d_t^2 - A + omega^2 - L) psi.

    W(t) = weight_lambda * t^(4/3), omega = W', L = 2*omega*d_t + omega'.
    Both sides are evaluated with centred differences, so the residual is
    O(h^2) for smooth profiles.  Profiles supported near t=0 are refused
    (omega' is singular there).
    """
    support = _support_clear_of_zero(psi)
    if support is None:
        return 0.0
    t = psi.t_grid
    h = psi.step
    i0 = max(1, support[0] - 1)
    i1 = min(t.size - 2, support[1] + 1)
    if i1 <= i0:
        return 0.0
    sl = slice(i0 - 1, i1 + 2)  # one extra point each side for differences
    ts = t[sl]
    c = psi.coeffs[:, sl]
    mu = psi.eigs[:, None]
    big_w = weight_lambda * ts ** (4.0 / 3.0)
    ts_int = ts[1:-1]
    om, om1, _, _ = _omega_derivatives(ts_int, weight_lambda)
    f = np.exp(-big_w)[None, :] * c
    lhs = np.exp(big_w[1:-1])[None, :] * _second_difference(f, h) - mu * c[:, 1:-1]
    rhs = (
        _second_difference(c, h)
        - (mu - om[None, :] ** 2) * c[:, 1:-1]
        - 2.0 * om[None, :] * _first_difference(c, h)
        - om1[None, :] * c[:, 1:-1]
    )
    residual = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2, axis=0))
    return float(np.max(residual))


def _weighted_report(
    phi: SpectralProfile, rate: float, power: float, densities, const: float, params: dict,
    what: str, gate_rtol: float, pass_rtol: float | None,
) -> CarlemanReport:
    """const * I[e^(2 rate t^power) ||phi||^2] against I[e^(2 rate t^power) ||psi||^2].

    The weight is evaluated on the stencil only: elsewhere both integrands are exactly 0,
    however far it overflows.  A non-finite result is refused; no verdict if pass_rtol is None.
    """
    t = phi.t_grid[phi._stencil]
    ys = np.zeros((2, phi.t_grid.size))
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(2.0 * rate * t**power)
        for y, density in zip(ys, densities):
            np.multiply(weight, density[phi._stencil], out=y[phi._stencil])
        lhs_int, rhs_int = (simpson_with_error(y, phi.step) for y in ys)
        lhs, rhs = const * lhs_int.value, rhs_int.value
        quad_err = const * lhs_int.err_estimate + rhs_int.err_estimate
    if not all(map(math.isfinite, (lhs, rhs, quad_err))):
        raise PreconditionError(
            f"{what}: the weight exp(2*{rate:g}*t^{power:.4g}) or its integral overflows"
        )
    check_resolution(lhs_int, rhs_int, what=what, gate_rtol=gate_rtol)
    passed = None if pass_rtol is None else _pass_rule(lhs, rhs, quad_err, pass_rtol)
    return CarlemanReport(
        lhs=lhs, rhs=rhs, margin=rhs - lhs, params=params, quad_err=quad_err, passed=passed
    )


def min_weight_lambda(eps: float) -> float:
    """eps^(-4/3), the least admissible weight strength; refused for eps <= 0 and on overflow."""
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    try:
        return eps ** (-4.0 / 3.0)
    except OverflowError as exc:
        raise PreconditionError(f"the weight exp(2 lambda t^(4/3)) overflows: eps^(-4/3) at eps={eps:g}") from exc


def verify_carleman_43(
    phi: SpectralProfile,
    weight_lambda: float,
    eps: float,
    pass_rtol: float = PASS_RTOL,
    gate_rtol: float = GATE_RTOL,
) -> CarlemanReport:
    """Check the 4/3-weight inequality for a profile vanishing below eps.

    Refuses (rather than fails) when weight_lambda < eps^(-4/3), when the
    support reaches below eps, or when the quadrature resolution gate trips.
    """
    lam_min = min_weight_lambda(eps)
    if weight_lambda < lam_min:
        raise PreconditionError(
            f"weight_lambda={weight_lambda:g} below admissible minimum eps^(-4/3)={lam_min:g}"
        )
    support = phi.support()
    if support is not None and support[0] <= eps:
        raise PreconditionError(f"profile is nonzero at some t <= eps={eps:g}")
    params = {
        "weight": "t^(4/3)",
        "weight_lambda": weight_lambda,
        "eps": eps,
        "modes": int(phi.n_modes),
    }
    if _support_clear_of_zero(phi) is None:
        return CarlemanReport(lhs=0.0, rhs=0.0, margin=0.0, params=params, quad_err=0.0, passed=True)
    return _weighted_report(
        phi, weight_lambda, 4.0 / 3.0, phi.densities(), weight_lambda**3, params, "carleman-4/3",
        gate_rtol, pass_rtol,
    )


def _gap_preconditions(phi: SpectralProfile, a: float, b: float, alpha: float) -> None:
    if not (0.0 < a < b):
        raise PreconditionError("need 0 < a < b")
    if not (3.0 * a * a > alpha):
        raise PreconditionError(f"need 3a^2 > alpha, got 3a^2={3 * a * a:g}, alpha={alpha:g}")
    if phi.eigs.size and np.min(phi.eigs) < -alpha - 1e-12:
        raise PreconditionError("an eigenvalue lies below -alpha")
    inside = (phi.eigs > a * a) & (phi.eigs < b * b)
    if np.any(inside):
        bad = phi.eigs[inside]
        raise PreconditionError(
            f"spectrum intersects the gap window ({a * a:g}, {b * b:g}): {bad.tolist()}"
        )


def verify_carleman_gap(
    phi: SpectralProfile,
    a: float,
    b: float,
    alpha: float,
    force: bool = False,
    pass_rtol: float = PASS_RTOL,
    gate_rtol: float = GATE_RTOL,
) -> CarlemanReport:
    """Check the spectral-gap inequality with constant a^2 (b-a)^2 / 4.

    Preconditions: no eigenvalue in the open window (a^2, b^2), 3a^2 > alpha,
    and eigenvalues bounded below by -alpha.  Violations raise a refusal.
    ``force=True`` skips the refusal and computes both sides anyway; the
    resulting report carries no pass/fail verdict (passed is None).
    """
    if not force:
        _gap_preconditions(phi, a, b, alpha)
    w = 0.5 * (a + b)
    m = b - a
    params = {
        "weight": "t",
        "a": a,
        "b": b,
        "w": w,
        "m": m,
        "alpha": alpha,
        "modes": int(phi.n_modes),
        "forced": bool(force),
    }
    densities = phi.densities()
    if not densities[0].any():
        return CarlemanReport(
            lhs=0.0, rhs=0.0, margin=0.0, params=params, quad_err=0.0,
            passed=None if force else True,
        )
    const = a * a * m * m / 4.0
    pass_rtol = None if force else pass_rtol
    return _weighted_report(
        phi, w, 1.0, densities, const, params, "carleman-gap", gate_rtol, pass_rtol
    )


@dataclass(frozen=True)
class SystemCheckReport:
    """First-order reduction: identity residual and operator-inequality margins."""

    identity_residual: float
    min_eig_b0: float
    min_eig_b1: float
    max_eig_b2: float
    certificates_ok: bool
    params: dict


def first_order_system_check(phi: SpectralProfile, a: float, b: float) -> SystemCheckReport:
    """Check d_t Phi_j = B_j Phi_j + Psi_j and the three operator inequalities.

    Phi = e^(wt) (phi' + K phi, phi' - K phi) with K = a on the modes below the
    gap (mu <= a^2, projector Q0) and sqrt(mu) on those above it (mu >= b^2; Q1
    takes their top rows, Q2 their bottom rows).  B0 + B1 + B2 acts on each
    mode's (top, bottom) pair as one real 2x2 block, so the operator is one
    (M, 2, 2) array.  The identity residual is the worst finite-difference
    defect over the three projector groups and interior times (O(h^2) for
    smooth profiles).  The inequalities are eigenvalue statements about the
    symmetric parts on the ranges of the projectors, assertable to 1e-10:

        B0* + B0 >= m Q0,   B1* + B1 >= m Q1,   B2* + B2 <= -m Q2.
    """
    _gap_preconditions(phi, a, b, float(phi.alpha))
    eigs = phi.eigs
    w = 0.5 * (a + b)
    m = b - a
    below = eigs <= a * a  # the preconditions put every other mode at mu >= b^2
    k = np.where(below, a, np.sqrt(np.maximum(eigs, 0.0)))
    blk = np.where(
        below[:, None],
        np.stack([(eigs + a * a) / (2 * a) + w, (-eigs + a * a) / (2 * a),
                  (eigs - a * a) / (2 * a), (-eigs - a * a) / (2 * a) + w], axis=1),
        np.stack([k + w, 0.0 * k, 0.0 * k, -k + w], axis=1),
    ).reshape(-1, 2, 2)

    ew = np.zeros(phi.t_grid.size)  # Phi and psi are exactly 0 off the stencil
    with np.errstate(over="ignore", invalid="ignore"):
        if phi._stencil is not None:
            ew[phi._stencil] = np.exp(w * phi.t_grid[phi._stencil])
        if not np.all(np.isfinite(ew)):
            raise PreconditionError(f"system check: the weight exp({w:g}*t) overflows")
        dphi, kc = phi.first_difference(), k[:, None] * phi.coeffs
        Phi = np.stack([ew * (dphi + kc), ew * (dphi - kc)], axis=1)  # (M, 2, n)
        del dphi, kc
        psi = (ew * phi.equation_residual())[:, None, 2:-2]  # Phi itself uses centred differences
        dPhi = _first_difference(Phi[..., 1:-1], phi.step)
        defect2 = np.abs(dPhi - (np.einsum("mij,mjt->mit", blk, Phi[..., 2:-2]) + psi)) ** 2
        groups = (defect2[below].sum(axis=(0, 1)), defect2[~below, 0].sum(axis=0),
                  defect2[~below, 1].sum(axis=0))
        residual = float(np.sqrt(np.max(np.concatenate(groups), initial=0.0)))
    if not np.isfinite(residual):
        raise PreconditionError("system check: the weighted defect is not finite")

    sym = blk + blk.transpose(0, 2, 1)
    min_eig_b0 = float(np.min(np.linalg.eigvalsh(sym[below] - m * np.eye(2)), initial=np.inf))
    min_eig_b1 = float(np.min(sym[~below, 0, 0] - m, initial=np.inf))
    max_eig_b2 = float(np.max(sym[~below, 1, 1] + m, initial=-np.inf))
    return SystemCheckReport(
        identity_residual=residual,
        min_eig_b0=min_eig_b0,
        min_eig_b1=min_eig_b1,
        max_eig_b2=max_eig_b2,
        certificates_ok=min_eig_b0 >= -EIG_TOL and min_eig_b1 >= -EIG_TOL and max_eig_b2 <= EIG_TOL,
        params={"a": a, "b": b, "w": w, "m": m, "alpha": float(phi.alpha), "modes": int(eigs.size)},
    )


@dataclass(frozen=True)
class EllRegReport:
    """Windowed derivative/norm ratios realising the energy bound."""

    beta: float
    sup_ratio: float
    ratios: tuple


def ellreg_bound_check(phi: SpectralProfile, eps: float, s_list) -> EllRegReport:
    """sup over s of  int_s^{s+1} ||phi'||^2  /  int_{s-eps}^{s+1+eps} ||phi||^2.

    Also measures beta = sup_t ||phi'' - A phi|| / ||phi|| over the interior
    grid (reported so callers can relate the ratio to the operator data).
    Windows with vanishing denominator are refused, and so is an empty or non-finite s_list.
    """
    s_values = np.atleast_1d(np.asarray(s_list, dtype=float))
    if s_values.size == 0 or not np.all(np.isfinite(s_values)):
        raise SchemaError("s_list needs at least one window start, and finite ones")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    t = phi.t_grid
    norm2, psi2 = phi.densities()
    dnorm2 = np.sum(np.abs(phi.first_difference()) ** 2, axis=0)
    psi_norm = np.sqrt(psi2)
    norm = np.sqrt(norm2)
    interior = slice(1, t.size - 1)
    alive = norm[interior] > 1e-14 * max(1.0, float(np.max(norm)))
    beta = 0.0
    if np.any(alive):
        beta = float(np.max(psi_norm[interior][alive] / norm[interior][alive]))
    ratios = []
    sup_ratio = 0.0
    for s in s_values:
        num = window_integral(t, dnorm2, s, s + 1.0)
        den = window_integral(t, norm2, s - eps, s + 1.0 + eps)
        if den <= 0.0:
            raise PreconditionError(f"denominator window around s={s:g} carries no mass")
        r = num / den
        ratios.append((float(s), float(r)))
        sup_ratio = max(sup_ratio, r)
    return EllRegReport(beta=beta, ratios=tuple(ratios), sup_ratio=float(sup_ratio))
