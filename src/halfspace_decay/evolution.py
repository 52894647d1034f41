"""Discrete elliptic evolution (d_t^2 - A) phi = B(t) phi and decay diagnostics.

The decaying branch is selected by solving the two-point boundary problem
phi(0) = g, phi(T) = 0 with centred second differences and one direct banded
solve; backward shooting would be unstable for stiff mode mixes, the direct
solve is not.  Decay rates are least-squares slopes of log ||phi|| on a
tail window, with a sliding-window scan that flags superexponential behaviour.

Also provides the explicit harmonic function on the half-plane whose weighted
norms converge for every exponential weight strength below 1 and diverge from
1 on, plus a five-point-stencil harmonicity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    PreconditionError,
    SchemaError,
    SolverError,
    VerificationError,
)
from .profiles import SpectralProfile, _residual
from .quadrature import composite_simpson
from .runconfig import case_rng

# Decaying-branch solutions never grow; a huge solution relative to the
# boundary datum means the discrete system is near-singular (resonance).
GROWTH_LIMIT = 1e6
# Memory budget of one solve of any kind, checked against _solve_bytes.
SOLVE_BYTES = 256 * 2**20


@dataclass(frozen=True, eq=False)
class PerturbationFamily:
    """Bounded operator family B(t) with an explicit norm certificate.

    ``bound`` evaluates b(t) >= ||B(t)||; ``beta`` is sup b; ``decays`` records
    whether b(t) -> 0 as t grows.  Diagonal families draw fixed per-mode
    factors in [-1,1]; full families use one fixed matrix scaled to unit
    operator norm.  Either way ||B(t)|| <= b(t) holds by construction.
    """

    kind: str
    bound: Callable[[np.ndarray], np.ndarray] | None
    beta: float
    decays: bool
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "diagonal", "full"):
            raise SchemaError(f"unknown perturbation kind {self.kind!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):  # b(t) is clipped to [0, beta]
            raise SchemaError(f"perturbation bound beta must be a finite number >= 0, not {self.beta:g}")

    @staticmethod
    def zero() -> "PerturbationFamily":
        return PerturbationFamily(kind="zero", bound=None, beta=0.0, decays=True)

    @staticmethod
    def diagonal(bound, beta: float, decays: bool, seed: int = 0) -> "PerturbationFamily":
        return PerturbationFamily(kind="diagonal", bound=bound, beta=beta, decays=decays, seed=seed)

    @staticmethod
    def full(bound, beta: float, decays: bool, seed: int = 0) -> "PerturbationFamily":
        return PerturbationFamily(kind="full", bound=bound, beta=beta, decays=decays, seed=seed)

    def bound_values(self, t_grid: np.ndarray) -> np.ndarray:
        if self.bound is None:
            return np.zeros_like(t_grid)
        vals = np.asarray(self.bound(t_grid), dtype=float)
        return np.clip(vals, 0.0, self.beta)

    def matrix(self, n_modes: int) -> np.ndarray:
        """W in B(t) = b(t) W: the full (M, M) matrix, or the (M,) per-mode factors (zero for zero B)."""
        if self.kind != "diagonal":
            return self.full_matrix(n_modes) if self.kind == "full" else np.zeros(n_modes)
        return case_rng(self.seed, 1).uniform(-1.0, 1.0, size=n_modes)

    def diagonal_entries(self, t_grid: np.ndarray, n_modes: int) -> np.ndarray:
        """Shape (n_t, M); |entry| <= b(t) everywhere."""
        return self.bound_values(t_grid)[:, None] * self.matrix(n_modes)[None, :]

    def full_matrix(self, n_modes: int) -> np.ndarray:
        """Fixed direction matrix with unit operator norm."""
        w = case_rng(self.seed, 2).normal(size=(n_modes, n_modes))
        return w / np.linalg.norm(w, 2)


def constant_bound(beta: float):
    return lambda t: np.full_like(np.asarray(t, dtype=float), beta)


def exponential_bound(beta: float, rate: float = 1.0):
    return lambda t: beta * np.exp(-rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SolveResult:
    profile: SpectralProfile
    residual: float
    growth: float


def default_horizon(eigs) -> float:
    """T = 30 / sqrt(smallest positive eigenvalue): 30 decay lengths of the slowest mode; 30 without one."""
    eigs = np.asarray(eigs, dtype=float)
    pos = eigs[eigs > 0]
    return 30.0 / math.sqrt(float(np.min(pos))) if pos.size else 30.0


def _default_points(T: float) -> int:
    # capped far beyond any budget, so that T / 0.005 = inf still gives a count to refuse
    return max(2001, int(round(min(T / 0.005, 2.0**62))) + 1)


def _solve_bytes(kind: str, n_modes: int, n_points: int) -> int:
    """Peak bytes of one solve, from its measured (tracemalloc) working set.

    Per unknown, (n - 2) * M of them: 35 for zero or diagonal B (a 3-row band,
    its one right-hand-side column, which the solution overwrites, and the
    solve's 3-byte finite-check mask of the band), and (8M + 6) * 8 for full B
    (its (2M+1)-row band, its (3M+1)-row LU held once in C order and once more
    in the Fortran order LAPACK takes, and the right-hand side).  Per grid
    point, 40 for full B and 16 for zero or diagonal B (t and b(t)).  Full B
    adds its M x M matrix W and 64 KiB of small arrays; zero or diagonal B add
    1 MiB, the scratch of the residual pass's 256 KiB blocks, where a one-mode
    solve of fewer than about 75 000 points peaks.  Every kind adds 128 bytes
    per mode.  The tests hold every kind's tracemalloc peak between 0.75 and 1
    times this count.
    """
    M = n_modes
    per_unknown, per_point, fixed = ((8 * M + 6) * 8, 40, 8 * M * M + 2**16) if kind == "full" else (35, 16, 2**20)
    return (n_points - 2) * M * per_unknown + fixed + 128 * M + per_point * n_points


def solve_decaying(
    eigs,
    perturbation: PerturbationFamily,
    T: float,
    boundary,
    n_points: int | None = None,
) -> SolveResult:
    """Solve the two-point problem phi(0)=g, phi(T)=0 on a uniform grid.

    Reports the relative residual of the discrete equation (machine level for
    a successful solve) and the solution growth factor.  Non-finite
    eigenvalues, boundary values or T raise SchemaError.  A near-singular
    discrete system (resonant T for indefinite modes), or one whose entries
    overflow, raises SolverError.  A solve whose working set (``_solve_bytes``)
    exceeds ``SOLVE_BYTES``, or a full-B solve above 200 000 unknowns, raises
    BudgetExceededError before anything is allocated.
    """
    eigs = np.asarray(eigs, dtype=float).reshape(-1)
    g = np.asarray(boundary, dtype=complex).reshape(-1)
    if eigs.size == 0:
        raise SchemaError("at least one mode is needed")
    if g.size != eigs.size:
        raise SchemaError("boundary vector must have one entry per mode")
    if not (np.all(np.isfinite(eigs)) and np.all(np.isfinite(g))):
        raise SchemaError("eigenvalues and boundary values must be finite")
    if not 0.0 < T < math.inf:
        raise SchemaError("T must be positive and finite")
    n = n_points or _default_points(T)
    M = eigs.size
    need = _solve_bytes(perturbation.kind, M, n)
    if need > SOLVE_BYTES or (perturbation.kind == "full" and (n - 2) * M > 200_000):
        raise BudgetExceededError(
            f"{perturbation.kind}-perturbation solve too large: {(n - 2) * M} unknowns need "
            f"{need / 2**20:.4g} MiB against the {SOLVE_BYTES / 2**20:.4g} MiB limit"
            + (" (and 200000 unknowns for full B)" if perturbation.kind == "full" else "")
            + "; reduce modes, T or points"
        )
    t = np.linspace(0.0, T, n)
    h = t[1] - t[0]
    interior, L = t[1:-1], n - 2
    bvals = perturbation.bound_values(interior)
    # Full B: one time-major system of block rows -diag(mu + 2/h^2) - b(t_k) W of
    # size m = M.  Otherwise W is diagonal: M scalar systems (m = 1) end to end.
    # ab[m + r - c, k*m + c] is entry (r, c) of block row k, filled per offset d = r - c.
    w = perturbation.matrix(M)
    m, S = (M, 1) if perturbation.kind == "full" else (1, M)
    ab = np.zeros((2 * m + 1, M * L))
    with np.errstate(all="ignore"):  # an overflowed band is refused by the solve's finite check
        centre = -(eigs + 2.0 / h**2)
        for d in range(1 - m, m):
            band = ab[m + d].reshape(S, L, m)[:, :, max(0, -d) : m - max(0, d)]
            np.multiply((np.diagonal(w, -d) if m > 1 else w).reshape(S, 1, -1), bvals[:, None], out=band)
            np.subtract(centre.reshape(S, 1, m) if d == 0 else -0.0, band, out=band)  # -0.0 - x is -x
        ab[0].reshape(S, L * m)[:, m:] = 1.0 / h**2
        ab[2 * m].reshape(S, L * m)[:, :-m] = 1.0 / h**2
        first = -g / h**2  # enters each system's first block row
    if m > 1:  # full B: the block vector -g/h^2, its real and imaginary parts as two columns
        rhs = np.zeros((2, L, M))
        rhs[:, 0] = first.real, first.imag
        rhs = rhs.reshape(2, -1).T
    else:  # mode i's system is real with right-hand side (-g_i/h^2) e_1: one real column of e_1
        rhs = np.zeros((M, L))
        rhs[:, 0] = 1.0
        rhs = rhs.reshape(-1)
    from scipy.linalg import solve_banded  # deferred: only solves need SciPy
    try:
        sol = solve_banded((m, m), ab, rhs, overwrite_ab=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError("banded solve failed: singular discrete system") from exc
    except ValueError as exc:  # its finite check: the band overflowed, or b(t) is not finite
        raise SolverError(f"discrete system is not finite (h = {h:.3g}): {exc}") from exc
    del ab, band, rhs, w
    coeffs = np.zeros((M, n), dtype=complex)
    coeffs[:, 0] = g
    if m > 1:
        coeffs.real[:, 1:-1], coeffs.imag[:, 1:-1] = (x.reshape(L, M).T for x in sol.T)
    else:  # phi_i = (-g_i/h^2) y_i, one real product per part
        for part, scale in zip((coeffs.real, coeffs.imag), (first.real, first.imag)):
            np.multiply(scale[:, None], sol.reshape(M, L), out=part[:, 1:-1])
    del sol

    peak, resid = _checked_residual(coeffs, eigs, h, perturbation, interior)
    gmax = float(np.max(np.abs(g)))
    growth = peak / gmax if gmax > 0 else 0.0
    if not math.isfinite(peak) or (gmax > 0 and growth > GROWTH_LIMIT):
        raise SolverError(
            f"discrete system near-singular (growth factor {growth:.3g}); "
            "T may be resonant for an indefinite mode",
            condition_estimate=growth,
        )
    profile = SpectralProfile(eigs=eigs, t_grid=t, coeffs=coeffs)
    return SolveResult(profile=profile, residual=resid, growth=growth)


def _checked_residual(c, eigs, h, perturbation, t_inner) -> tuple[float, float]:
    """max|c| and the relative defect max|psi| h^2 / max|c|, psi = c'' - mu c - B(t) c.

    One pass over blocks that stay in cache: whole rows of modes, or runs of
    one mode's row once it has more than 16384 points; a non-finite block ends
    it with max|c| inf or NaN.  Full B couples the modes: its B c is one real
    W @ c product before the pass.
    """
    M, n = c.shape
    rows, cols = max(1, 2**14 // n), min(n, 2**14)  # 256 KiB of coefficients per block
    bvals, w = perturbation.bound_values(t_inner), perturbation.matrix(M)
    if perturbation.kind == "full":
        wc = (w @ c[:, 1:-1].view(np.float64)).view(complex)
    peak = psi_peak = 0.0
    for lo in range(0, M, rows):
        blk, cb = slice(lo, lo + rows), c[lo : lo + rows]
        for a in range(0, n, cols):
            top = float(np.max(np.abs(cb[:, a : a + cols])))
            if not math.isfinite(top):
                return top, math.nan
            peak = max(peak, top)
            i, j = max(a, 1), min(a + cols, n - 1)  # the block's interior columns: none in a last block of one
            inner = slice(i - 1, j - 1)  # the same columns of t_inner
            psi = _residual(cb, eigs[blk], h, i, j)
            psi -= (bvals[inner] * wc[blk, inner] if perturbation.kind == "full"
                    else (w[blk, None] * bvals[inner]) * cb[:, i:j])
            psi_peak = max(psi_peak, float(np.max(np.abs(psi), initial=0.0)))
    return peak, float(psi_peak * h**2 / (peak or 1.0))


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted decay rate of log||phi|| on a window, with a superexponential flag.

    The flag is set only when the windowed rates contain a run of at least
    three consecutive windows, each more than 10 percent above the previous.
    """

    rate: float
    window: tuple[float, float]
    residual: float
    superexp: bool
    windowed_rates: tuple[float, ...]


def default_tail_window(T: float) -> tuple[float, float]:
    """Last third of [0, T] excluding the final 10% (boundary layer)."""
    return (2.0 * T / 3.0, 0.9 * T)


def _fit_rate(t: np.ndarray, lognorm: np.ndarray) -> tuple[float, float]:
    """Minus the least-squares slope of lognorm against t, and the fit's rms residual.

    The closed form of the line on centred data: slope = sum(dt * dy) / sum(dt^2).
    """
    dt, dy = t - t.mean(), lognorm - lognorm.mean()
    slope = float(dt @ dy / (dt @ dt))
    return -slope, float(np.sqrt(np.mean((dy - slope * dt) ** 2)))


def decay_rate_estimate(
    phi: SpectralProfile, window: tuple[float, float] | None = None, n_windows: int = 6
) -> DecayEstimate:
    """Least-squares decay rate on the window (by default the profile's tail window) plus a sliding-window scan."""
    t = phi.t_grid
    if window is None:
        window = tuple(t[0] + s for s in default_tail_window(t[-1] - t[0]))
    t_a, t_b = float(window[0]), float(window[1])
    if not (t[0] <= t_a < t_b <= t[-1]):
        raise SchemaError("window must lie inside the profile grid")
    norms = phi.norms()
    mask = (t >= t_a) & (t <= t_b)
    if np.count_nonzero(mask) < 3:
        raise PreconditionError("window contains fewer than 3 grid points")
    if np.any(norms[mask] <= 0.0):
        raise PreconditionError("||phi|| vanishes inside the fit window")
    lognorm = np.log(norms[mask])
    rate, rms = _fit_rate(t[mask], lognorm)

    width = (t_b - t_a) / 3.0
    starts = np.linspace(t_a, t_b - width, n_windows)
    rates = []
    for s in starts:
        m = (t >= s) & (t <= s + width)
        if np.count_nonzero(m) < 3 or np.any(norms[m] <= 0.0):
            continue
        r, _ = _fit_rate(t[m], np.log(norms[m]))
        rates.append(r)
    superexp = _increasing_run(rates)
    return DecayEstimate(
        rate=rate,
        window=(t_a, t_b),
        residual=rms,
        superexp=superexp,
        windowed_rates=tuple(float(r) for r in rates),
    )


def _increasing_run(rates, min_run: int = 3, step: float = 0.10) -> bool:
    """True when >= min_run consecutive windowed rates each grow by > step."""
    run = 1
    for prev, cur in zip(rates, rates[1:]):
        if prev > 0 and cur > prev * (1.0 + step):
            run += 1
            if run >= min_run:
                return True
        else:
            run = 1
    return False


@dataclass(frozen=True)
class RateScanRow:
    boundary_id: int
    rate: float
    nearest_sqrt_eig: float
    distance: float


def rate_spectrum_scan(
    eigs,
    perturbation: PerturbationFamily,
    boundaries,
    T: float | None = None,
) -> list[RateScanRow]:
    """Fitted tail rates for an ensemble of boundary vectors.

    With no perturbation each fitted rate sits at sqrt(min excited positive
    eigenvalue); for perturbed runs the distance to the nearest sqrt(mu) is
    reported without assertion.  Perturbations whose sup bound reaches half
    the smallest separation of the excited sqrt(mu) are refused.
    """
    eigs = np.asarray(eigs, dtype=float).reshape(-1)
    pos = np.sqrt(eigs[eigs > 0])
    if T is None:
        T = default_horizon(eigs)
    if perturbation.kind != "zero" and pos.size >= 2:
        seps = np.abs(np.subtract.outer(pos, pos))
        min_sep = float(np.min(seps[seps > 0])) if np.any(seps > 0) else math.inf
        if perturbation.beta >= 0.5 * min_sep:
            raise PreconditionError(
                f"perturbation bound {perturbation.beta:g} reaches half the smallest "
                f"rate separation {min_sep:g}"
            )
    rows = []
    for idx, g in enumerate(boundaries):
        result = solve_decaying(eigs, perturbation, T, g)
        est = decay_rate_estimate(result.profile)
        g_arr = np.asarray(g, dtype=complex).reshape(-1)
        excited = eigs[(np.abs(g_arr) > 1e-12) & (eigs > 0)]
        if excited.size:
            roots = np.sqrt(excited)
            j = int(np.argmin(np.abs(roots - est.rate)))
            nearest, dist = float(roots[j]), float(abs(roots[j] - est.rate))
        else:
            nearest, dist = 0.0, abs(est.rate)
        rows.append(RateScanRow(boundary_id=idx, rate=est.rate, nearest_sqrt_eig=nearest, distance=dist))
    return rows


# ---------------------------------------------------------------------------
# Harmonic function on the half-plane with exponential but not faster decay.


def counterexample_u(x1, x2):
    """u = exp(i(x1 + i x2)) / ((x1 + i x2) + i); harmonic away from (0,-1)."""
    z = np.asarray(x1, dtype=float) + 1j * np.asarray(x2, dtype=float)
    return np.exp(1j * z) / (z + 1j)


@dataclass(frozen=True)
class CounterexampleRow:
    weight_rate: float
    t_used: float
    partial_integral: float
    tail_bound: float | None
    growth_ratio: float
    indicator: str


def inner_integral_check(x2_values, X: float) -> float:
    """Simpson inner integral over |x1| <= h plus analytic tail vs pi/(1+x2).

    h = min(X, 64c), c = 1 + x2: 2^14 intervals resolve the peak of width c
    at any X.  Returns the max absolute deviation; raises if it exceeds 1e-6.
    """
    worst = 0.0
    for x2 in np.atleast_1d(np.asarray(x2_values, dtype=float)):
        c = 1.0 + x2
        h = min(X, 64.0 * c)
        x = np.linspace(-h, h, 2**14 + 1)
        numeric = composite_simpson(1.0 / (x * x + c * c), 2.0 * h / 2**14)
        tail = (2.0 / c) * math.atan2(c, h)
        dev = abs(numeric + tail - math.pi / c)
        worst = max(worst, dev)
    if worst > 1e-6:
        raise VerificationError(f"inner-integral analytic check failed (dev={worst:.3e})")
    return worst


def _partial_weighted_integral(weight_rate: float, t_end: float) -> float:
    """pi * int_0^T exp(a s)/(1+s) ds = pi e^(-a) [Ei(a(1+T)) - Ei(a)], a = 2(rate-1).

    pi ln(1+T) at a = 0.  For a > 0 (where a T <= 700) both terms are written
    with e^(-x) Ei(x), which stays finite where Ei(x) overflows.
    """
    from scipy.special import expi  # deferred: only the counterexample needs it

    a = 2.0 * (weight_rate - 1.0)
    if a == 0.0:
        return math.pi * math.log1p(t_end)
    if a < 0.0:
        return math.pi * math.exp(-a) * float(expi(a * (1.0 + t_end)) - expi(a))
    return math.pi * (math.exp(a * t_end) * _scaled_ei(a * (1.0 + t_end)) - _scaled_ei(a))


def _scaled_ei(x: float) -> float:
    """e^(-x) Ei(x) for x > 0; past 700, where Ei overflows, by its asymptotic series sum_k k!/x^(k+1)."""
    if x > 700.0:  # 20 terms: the last is 19!/x^19 < 1e-36 of the first
        return sum(math.factorial(k) * (1.0 / x) ** (k + 1) for k in range(20))
    from scipy.special import expi

    return math.exp(-x) * float(expi(x))


def harmonic_counterexample(weight_rates, T: float) -> list[CounterexampleRow]:
    """Weighted mass of |u|^2 under exp(2*rate*x2) weights, per rate.

    The inner x1-integral has the closed form pi/(1+x2), checked before any
    row against quadrature on |x1| <= 200 plus the closed-form tail.  A
    negative rate, or one whose 2(rate - 1) overflows, is refused first.  For
    each rate the partial integral up to T is computed together with an
    analytic tail bound when rate < 1, and partial integrals at T/4, T/2, T
    classify the growth: increments shrinking (converging), steady
    (logarithmic), or accelerating (exponential).
    """
    rates = np.atleast_1d(np.asarray(weight_rates, dtype=float))
    if not (rates.size and np.all(np.isfinite(rates)) and 0 < T < math.inf):
        raise SchemaError("weight rates must be one or more finite numbers, and T finite and positive")
    if np.any(rates < 0):
        raise PreconditionError("weight rate must be nonnegative")
    if not all(math.isfinite(2.0 * (r - 1.0)) for r in rates.tolist()):
        raise PreconditionError("a weight rate whose exponent 2(rate - 1) overflows a float is refused")
    inner_integral_check([0.0, 1.0, 5.0], 200.0)
    rows = []
    for rate in rates:
        t_used = float(T)
        if rate > 1.0:
            t_used = min(t_used, 700.0 / (2.0 * (rate - 1.0)))
        quarters = [_partial_weighted_integral(rate, t_used * f) for f in (0.25, 0.5, 1.0)]
        d1 = quarters[1] - quarters[0]
        d2 = quarters[2] - quarters[1]
        growth_ratio = d2 / d1 if d1 > 0 else (math.inf if d2 > 0 else 0.0)  # 0/0: no growth
        tail_bound = None
        if rate < 1.0:
            tail_bound = math.pi * math.exp(2.0 * (rate - 1.0) * t_used) / (
                (1.0 + t_used) * 2.0 * (1.0 - rate)
            )
        total = quarters[2]
        if tail_bound is not None and tail_bound <= 1e-3 * (total + tail_bound):
            indicator = "converged"
        elif growth_ratio < 0.9:
            indicator = "converging"
        elif growth_ratio <= 1.25:
            indicator = "log-divergent"
        else:
            indicator = "exp-divergent"
        rows.append(
            CounterexampleRow(
                weight_rate=float(rate),
                t_used=t_used,
                partial_integral=total,
                tail_bound=tail_bound,
                growth_ratio=float(growth_ratio),
                indicator=indicator,
            )
        )
    return rows


def harmonicity_check(region, h: float, fn=None) -> float:
    """Max five-point-stencil Laplacian over a rectangular region.

    ``region`` is (x1_lo, x1_hi, x2_lo, x2_hi) and must stay inside the upper
    half-plane, clear of the singular point (0, -1).  The stencil residual is
    O(h^2) for harmonic functions (exact for quadratics).
    """
    x1_lo, x1_hi, x2_lo, x2_hi = (float(v) for v in region)
    if x2_lo - h <= 0.0:
        raise PreconditionError("region (with stencil margin) must stay in the upper half-plane")
    if x1_hi <= x1_lo or x2_hi <= x2_lo:
        raise SchemaError("region must have positive extent")
    fn = fn or counterexample_u
    n1 = int(round((x1_hi - x1_lo) / h)) + 1
    n2 = int(round((x2_hi - x2_lo) / h)) + 1
    if (n1 + 2) * (n2 + 2) > 30_000_000:
        raise BudgetExceededError("stencil grid too large")
    x1 = x1_lo + h * np.arange(-1, n1 + 1)
    x2 = x2_lo + h * np.arange(-1, n2 + 1)
    grid1, grid2 = np.meshgrid(x1, x2, indexing="ij")
    u = np.asarray(fn(grid1, grid2), dtype=complex)
    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]) / h**2
    return float(np.max(np.abs(lap)))
