"""Seeded random case generators for the verification ensembles.

Cases are derived from a root seed and a case index through counter-style
spawn keys, so an ensemble can be mapped over in any order (or in parallel)
without changing a single sample.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .evolution import PerturbationFamily, exponential_bound, solve_decaying
from .profiles import SpectralProfile, bump_profile
from .quadrature import uniform_grid
from .runconfig import case_rng

DEFAULT_T_POINTS = 8193
# Budget of a 4/3-weight case's largest array, the (modes, t-points) float
# residual plane of BumpProfile.densities: --modes 1023 on the default grid.
MODES_BYTES = 64 * 2**20


def random_modes(rng: np.random.Generator, max_modes: int, mu_low: float, mu_high: float):
    count = int(rng.integers(1, max_modes + 1))
    eigs = rng.uniform(mu_low, mu_high, size=count)
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    return list(zip(eigs.tolist(), amps.tolist()))


def bump_case_43(
    seed: int,
    index: int,
    eps: float,
    weight_lambda: float,
    max_modes: int = 16,
    t_points: int = DEFAULT_T_POINTS,
):
    """Random admissible profile for the 4/3-weight inequality.

    Refused when floats near eps + 3 are too far apart for a bump of the least
    width 0.8 or when max_modes residual rows exceed MODES_BYTES (both before
    any draw), and when the drawn bump is 0 on every grid point.
    """
    t_end = eps + 3.0
    if not np.spacing(t_end) < 0.8:
        raise PreconditionError(f"eps={eps:g} leaves no room for a bump: floats near eps+3 are "
                                f"{np.spacing(t_end):g} apart")
    if 8 * max_modes * t_points > MODES_BYTES:
        raise BudgetExceededError(f"{max_modes} modes on {t_points} points need {8 * max_modes * t_points} "
                                  f"bytes of residuals, budget is {MODES_BYTES}")
    rng = case_rng(seed, 43, index)
    t = uniform_grid(t_end, t_points)
    lo = eps + rng.uniform(0.05, 0.6)
    width = rng.uniform(0.8, t_end - lo - 0.15)
    modes = random_modes(rng, max_modes, 0.0, 50.0)
    profile = bump_profile((lo, lo + width), modes, t)
    if profile.support() is None:
        raise PreconditionError(f"the bump on ({lo:g}, {lo + width:g}) is 0 on every point of the grid "
                                f"of step {profile.step:g}")
    return profile, {"eps": eps, "weight_lambda": weight_lambda, "support": (lo, lo + width)}


def bump_case_gap(seed: int, index: int, t_points: int = DEFAULT_T_POINTS):
    """Random admissible profile around a gap of the squares spectrum.

    The spectrum {j^2 : j >= 0} never meets the open window (k^2, (k+1)^2),
    so every draw is admissible with alpha = 0.
    """
    rng = case_rng(seed, 32, index)
    k = int(rng.integers(1, 8))
    a, b = float(k), float(k + 1.0)
    t_end = 4.0
    t = uniform_grid(t_end, t_points)
    count = int(rng.integers(1, 17))
    squares = np.arange(0, 15) ** 2
    eigs = rng.choice(squares, size=count, replace=True).astype(float)
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    lo = rng.uniform(0.1, 1.2)
    width = rng.uniform(0.8, t_end - lo - 0.2)
    profile = bump_profile((lo, lo + width), list(zip(eigs, amps)), t)
    return profile, a, b, 0.0


def solution_like_profile(seed: int, index: int, t_points: int = 2001):
    """Profile with ||phi'' - A phi|| <= beta ||phi||, beta <= 1, alpha <= 4.

    Three flavours: exact decaying modes (beta = 0), damped oscillations on a
    repeated negative eigenvalue (closed-form beta), and boundary-value solves
    under a certified diagonal perturbation.
    """
    rng = case_rng(seed, 33, index)
    flavour = index % 3
    if flavour == 0:
        mu = float(rng.uniform(0.5, 9.0))
        T = 12.0
        t = uniform_grid(T, t_points)
        root = math.sqrt(mu)
        coeffs = np.exp(-root * t)[None, :].astype(complex)
        return SpectralProfile(eigs=np.array([mu]), t_grid=t, coeffs=coeffs), 0.0
    if flavour == 1:
        kappa = float(rng.uniform(0.5, 2.0))
        delta = float(rng.uniform(0.02, 0.1))
        T = 12.0
        t = uniform_grid(T, t_points)
        envelope = np.exp(-delta * t)
        coeffs = np.stack([np.cos(kappa * t) * envelope, np.sin(kappa * t) * envelope]).astype(complex)
        mu = -kappa * kappa
        beta = delta * math.sqrt(delta * delta + 4.0 * kappa * kappa)
        return SpectralProfile(eigs=np.array([mu, mu]), t_grid=t, coeffs=coeffs), beta
    count = int(rng.integers(1, 4))
    eigs = rng.uniform(1.0, 9.0, size=count)
    beta = float(rng.uniform(0.05, 0.8))
    pert = PerturbationFamily.diagonal(
        exponential_bound(beta, 0.5), beta=beta, decays=True, seed=int(rng.integers(0, 2**31))
    )
    g = rng.normal(size=count) + 1j * rng.normal(size=count)
    T = 12.0
    result = solve_decaying(eigs, pert, T, g, n_points=t_points)
    return result.profile, beta
