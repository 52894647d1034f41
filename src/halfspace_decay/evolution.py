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
        if self.kind == "full":
            return self.full_matrix(n_modes)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(1,)))
        return rng.uniform(-1.0, 1.0, size=n_modes) if self.kind == "diagonal" else np.zeros(n_modes)

    def diagonal_entries(self, t_grid: np.ndarray, n_modes: int) -> np.ndarray:
        """Shape (n_t, M); |entry| <= b(t) everywhere."""
        return self.bound_values(t_grid)[:, None] * self.matrix(n_modes)[None, :]

    def full_matrix(self, n_modes: int) -> np.ndarray:
        """Fixed direction matrix with unit operator norm."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(2,)))
        w = rng.normal(size=(n_modes, n_modes))
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

    Per unknown, (n - 2) * M of them: 44 for zero or diagonal B (a 3-row band,
    two right-hand-side columns, the solution and the coefficient planes), and
    (8M + 6) * 8 for full B (its (2M+1)-row band, its (3M+1)-row LU held once
    in C order and once more in the Fortran order LAPACK takes, and the
    right-hand side).  Full B adds its M x M matrix W.  Every kind adds 128
    bytes per mode, 40 per grid point (t, b(t) and the residual pass) and
    64 KiB of small arrays.  The tests hold every kind's tracemalloc peak
    between 0.75 and 1 times this count.
    """
    M = n_modes
    per_unknown, w_bytes = ((8 * M + 6) * 8, 8 * M * M) if kind == "full" else (44, 0)
    return (n_points - 2) * M * per_unknown + w_bytes + 128 * M + 40 * n_points + 2**16


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
        first = (-g / h**2).reshape(S, m)  # enters each system's first block row
    rhs = np.zeros((2, S, L, m))  # real and imaginary parts as two columns
    rhs[:, :, 0] = first.real, first.imag
    from scipy.linalg import solve_banded  # deferred: only solves need SciPy
    try:
        sol = solve_banded((m, m), ab, rhs.reshape(2, -1).T, overwrite_ab=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError("banded solve failed: singular discrete system") from exc
    except ValueError as exc:  # its finite check: the band overflowed, or b(t) is not finite
        raise SolverError(f"discrete system is not finite (h = {h:.3g}): {exc}") from exc
    del ab, band, rhs, w
    coeffs = np.zeros((M, n), dtype=complex)
    coeffs[:, 0] = g
    coeffs.real[:, 1:-1], coeffs.imag[:, 1:-1] = (x.reshape(L, M).T if m > 1 else x.reshape(M, L) for x in sol.T)
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

    One pass over blocks of modes that stay in cache; a non-finite block ends
    it with max|c| inf or NaN.  Full B couples the modes: its B c is one real
    W @ c product before the pass.
    """
    M = c.shape[0]
    rows = max(1, 2**18 // (16 * c.shape[1]))  # 256 KiB of coefficients per block
    bvals, w = perturbation.bound_values(t_inner), perturbation.matrix(M)
    if perturbation.kind == "full":
        wc = (w @ c[:, 1:-1].view(np.float64)).view(complex)
    peak = psi_peak = 0.0
    for lo in range(0, M, rows):
        cb, blk = c[lo : lo + rows], slice(lo, lo + rows)
        top = float(np.max(np.abs(cb)))
        if not math.isfinite(top):
            return top, math.nan
        peak = max(peak, top)
        psi = _residual(cb, eigs[blk], h, 1, c.shape[1] - 1)
        psi -= bvals * wc[blk] if perturbation.kind == "full" else (w[blk, None] * bvals) * cb[:, 1:-1]
        psi_peak = max(psi_peak, float(np.max(np.abs(psi))))
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
    slope, intercept = np.polyfit(t, lognorm, 1)
    fit = slope * t + intercept
    rms = float(np.sqrt(np.mean((lognorm - fit) ** 2)))
    return -float(slope), rms


def decay_rate_estimate(
    phi: SpectralProfile, window: tuple[float, float], n_windows: int = 6
) -> DecayEstimate:
    """Least-squares decay rate on the window plus a sliding-window scan."""
    t_a, t_b = float(window[0]), float(window[1])
    if not (phi.t_grid[0] <= t_a < t_b <= phi.t_grid[-1]):
        raise SchemaError("window must lie inside the profile grid")
    t = phi.t_grid
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
    n_points: int | None = None,
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
    window = default_tail_window(T)
    rows = []
    for idx, g in enumerate(boundaries):
        result = solve_decaying(eigs, perturbation, T, g, n_points=n_points)
        est = decay_rate_estimate(result.profile, window)
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
    """Numeric inner integral over |x1|<=X plus analytic tail vs pi/(1+x2).

    Returns the max absolute deviation; raises if it exceeds 1e-6.
    """
    from scipy.integrate import quad  # deferred: a large share of the package import time

    worst = 0.0
    for x2 in np.atleast_1d(np.asarray(x2_values, dtype=float)):
        c = 1.0 + x2
        numeric, _ = quad(lambda x: 1.0 / (x * x + c * c), -X, X, limit=200)
        tail = (2.0 / c) * math.atan2(c, X)
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
    from scipy.special import expi  # deferred like scipy.integrate: only the counterexample needs it

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


def harmonic_counterexample(weight_rates, T: float, X: float = 200.0) -> list[CounterexampleRow]:
    """Weighted mass of |u|^2 under exp(2*rate*x2) weights, per rate.

    The inner x1-integral has the closed form pi/(1+x2) (checked against
    quadrature before anything else).  For each rate the partial integral up
    to T is computed together with an analytic tail bound when rate < 1, and
    partial integrals at T/4, T/2, T classify the growth: increments shrinking
    (converging), steady (logarithmic), or accelerating (exponential).
    """
    rates = np.atleast_1d(np.asarray(weight_rates, dtype=float))
    if not (np.all(np.isfinite(rates)) and 0 < T < math.inf and 0 < X < math.inf):
        raise SchemaError("weight rates must be finite, and T and X finite and positive")
    inner_integral_check([0.0, 1.0, 5.0], X)
    rows = []
    for rate in rates:
        if rate < 0:
            raise PreconditionError("weight rate must be nonnegative")
        t_used = float(T)
        if rate > 1.0:
            t_used = min(t_used, 700.0 / (2.0 * (rate - 1.0)))
        quarters = [_partial_weighted_integral(rate, t_used * f) for f in (0.25, 0.5, 1.0)]
        d1 = quarters[1] - quarters[0]
        d2 = quarters[2] - quarters[1]
        growth_ratio = d2 / d1 if d1 > 0 else math.inf
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
