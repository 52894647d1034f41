import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from halfspace_decay import evolution
from halfspace_decay import (
    BudgetExceededError,
    PerturbationFamily,
    PreconditionError,
    SchemaError,
    SolverError,
    SpectralProfile,
    decay_rate_estimate,
    harmonic_counterexample,
    harmonicity_check,
    rate_spectrum_scan,
    solve_decaying,
)
from halfspace_decay.profiles import _second_difference
from halfspace_decay.evolution import (
    constant_bound,
    default_tail_window,
    exponential_bound,
    inner_integral_check,
)


def test_bvp_matches_sinh_closed_form():
    result = solve_decaying([4.0], PerturbationFamily.zero(), 30.0, [1.0])
    prof = result.profile
    t = prof.t_grid
    mask = t <= 20.0
    exact = np.sinh(2.0 * (30.0 - t[mask])) / np.sinh(60.0)
    rel = np.max(np.abs(prof.coeffs[0, mask].real - exact) / np.abs(exact))
    assert rel < 1e-3
    assert result.residual < 1e-10


def test_bvp_order_two_convergence():
    errs = {}
    for n in (1501, 3001):
        r = solve_decaying([4.0], PerturbationFamily.zero(), 30.0, [1.0], n_points=n)
        t = r.profile.t_grid
        mask = t <= 20.0
        exact = np.sinh(2.0 * (30.0 - t[mask])) / np.sinh(60.0)
        errs[n] = np.max(np.abs(r.profile.coeffs[0, mask].real - exact) / np.abs(exact))
    assert errs[1501] / errs[3001] == pytest.approx(4.0, rel=0.2)


def test_bvp_zero_boundary_gives_zero():
    r = solve_decaying([4.0, 1.0], PerturbationFamily.zero(), 10.0, [0.0, 0.0])
    assert np.max(np.abs(r.profile.coeffs)) == 0.0


def test_bvp_diagonal_perturbation_rate():
    pert = PerturbationFamily.diagonal(exponential_bound(0.1), beta=0.1, decays=True, seed=5)
    r = solve_decaying([4.0], pert, 15.0, [1.0])
    est = decay_rate_estimate(r.profile, default_tail_window(15.0))
    assert abs(est.rate - 2.0) < 0.05


def test_bvp_full_perturbation_certificate():
    pert = PerturbationFamily.full(constant_bound(0.2), beta=0.2, decays=False, seed=9)
    w = pert.full_matrix(3)
    assert np.linalg.norm(w, 2) == pytest.approx(1.0, rel=1e-12)
    r = solve_decaying([1.0, 4.0, 9.0], pert, 10.0, [1.0, 0.5, 0.25], n_points=801)
    assert r.residual < 1e-9


def test_bvp_resonant_system_raises():
    # mu = -(pi/T)^2 makes the continuum problem singular; the discrete one
    # is near-singular, detected through the growth guard
    T = 10.0
    mu = -((math.pi / T) ** 2)
    with pytest.raises(SolverError) as err:
        solve_decaying([mu], PerturbationFamily.zero(), T, [1.0])
    assert err.value.condition_estimate is not None


def test_bvp_input_validation():
    with pytest.raises(SchemaError):
        solve_decaying([1.0], PerturbationFamily.zero(), 10.0, [1.0, 2.0])
    with pytest.raises(SchemaError):
        solve_decaying([1.0], PerturbationFamily.zero(), -1.0, [1.0])


@pytest.mark.parametrize(
    "eigs, T, g",
    [([], 10.0, []), ([math.nan], 10.0, [1.0]), ([1.0, math.inf], 10.0, [1.0, 1.0]),
     ([1.0], 10.0, [complex(1.0, math.nan)]), ([1.0], math.nan, [1.0]), ([1.0], math.inf, [1.0]),
     ([1.0], 0.0, [1.0])],
    ids=["no-modes", "eig-nan", "eig-inf", "boundary-nan", "T-nan", "T-inf", "T-zero"],
)
def test_bvp_non_finite_input_is_schema_error(eigs, T, g):
    for pert in (PerturbationFamily.zero(), PerturbationFamily.full(constant_bound(0.1), beta=0.1, decays=False)):
        with pytest.raises(SchemaError):
            solve_decaying(eigs, pert, T, g, n_points=101)


@pytest.mark.parametrize("kind", ["zero", "diagonal", "full"])
def test_band_that_is_not_finite_is_solver_error(kind):
    # finite inputs whose 2/h^2 overflows, and a bound that evaluates to NaN
    bound = constant_bound(0.1)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=0.1, decays=False),
        "full": PerturbationFamily.full(bound, beta=0.1, decays=False),
    }[kind]
    with pytest.raises(SolverError, match="not finite"):
        solve_decaying([1.0, 4.0], pert, 1e-200, [1.0, 1.0], n_points=101)
    if kind != "zero":
        nan_pert = PerturbationFamily(kind=kind, bound=lambda t: np.full_like(t, math.nan), beta=0.1, decays=False)
        with pytest.raises(SolverError, match="not finite"):
            solve_decaying([1.0, 4.0], nan_pert, 10.0, [1.0, 1.0], n_points=101)


# Test-local references: the two solve paths that the single stacked banded
# solve replaced, kept to pin its results.


def _grid(T, n):
    t = np.linspace(0.0, T, n)
    return t, t[1] - t[0]


def _reference_per_mode(eigs, pert, T, g, n):
    """Zero/diagonal B: one tridiagonal solve per mode."""
    eigs = np.asarray(eigs, dtype=float)
    g = np.asarray(g, dtype=complex)
    t, h = _grid(T, n)
    M = eigs.size
    coeffs = np.zeros((M, n), dtype=complex)
    coeffs[:, 0] = g
    if pert.kind == "diagonal":
        diag_pert = pert.diagonal_entries(t[1:-1], M)
    else:
        diag_pert = np.zeros((n - 2, M))
    for i in range(M):
        ab = np.zeros((3, n - 2), dtype=complex)
        ab[0, 1:] = 1.0 / h**2
        ab[1, :] = -2.0 / h**2 - eigs[i] - diag_pert[:, i]
        ab[2, :-1] = 1.0 / h**2
        rhs = np.zeros(n - 2, dtype=complex)
        rhs[0] = -g[i] / h**2
        coeffs[i, 1:-1] = solve_banded((1, 1), ab, rhs)
    return coeffs


def _reference_sparse(eigs, pert, T, g, n):
    """Full B: entry-by-entry COO assembly and a sparse direct solve."""
    eigs = np.asarray(eigs, dtype=float)
    g = np.asarray(g, dtype=complex)
    t, h = _grid(T, n)
    M = eigs.size
    w = pert.full_matrix(M)
    bvals = pert.bound_values(t[1:-1])
    rows, cols, data = [], [], []
    for j in range(n - 2):
        base = j * M
        block = -np.diag(eigs + 2.0 / h**2) - bvals[j] * w
        for r in range(M):
            for c in range(M):
                if block[r, c] != 0.0:
                    rows.append(base + r)
                    cols.append(base + c)
                    data.append(block[r, c])
        if j + 1 < n - 2:
            for r in range(M):
                rows.extend([base + r, base + M + r])
                cols.extend([base + M + r, base + r])
                data.extend([1.0 / h**2, 1.0 / h**2])
    size = (n - 2) * M
    system = csr_matrix((data, (rows, cols)), shape=(size, size))
    rhs = np.zeros(size, dtype=complex)
    rhs[:M] = -g / h**2
    coeffs = np.zeros((M, n), dtype=complex)
    coeffs[:, 0] = g
    coeffs[:, 1:-1] = spsolve(system, rhs).reshape(n - 2, M).T
    return coeffs


def _modes(M, seed):
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.uniform(1.0, 9.0, M))
    return eigs, rng.normal(size=M) + 1j * rng.normal(size=M)


@pytest.mark.parametrize("M", [1, 3, 10])
def test_full_solve_matches_sparse_reference(M):
    # positive modes: with indefinite ones the system is worse conditioned and
    # the two direct solvers part at about 1e-11, both with residuals ~1e-15
    eigs, g = _modes(M, 20 + M)
    pert = PerturbationFamily.full(exponential_bound(0.5), beta=0.5, decays=True, seed=M)
    got = solve_decaying(eigs, pert, 10.0, g, n_points=1501).profile.coeffs
    ref = _reference_sparse(eigs, pert, 10.0, g, 1501)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _scatter_band(blocks, h):
    """Banded storage of S block-tridiagonal systems by one fancy-index scatter.

    ``blocks`` (S, L, m, m) holds the diagonal blocks; every off-diagonal block
    is I/h^2 within a system.
    """
    S, L, m, _ = blocks.shape
    ab = np.zeros((2 * m + 1, S * L * m))
    r = np.arange(m)
    cols = np.arange(S * L * m).reshape(S * L, 1, m)
    ab[m + r[:, None] - r[None, :], cols] = blocks.reshape(S * L, m, m)
    ab[0].reshape(S, L * m)[:, m:] = 1.0 / h**2
    ab[2 * m].reshape(S, L * m)[:, :-m] = 1.0 / h**2
    return ab


def _reference_scatter(eigs, pert, T, g, n):
    """Dense blocks scattered into the band, a separate complex solution and a
    whole-array residual.  Returns the band, coeffs, residual and growth."""
    eigs, g = np.asarray(eigs, dtype=float), np.asarray(g, dtype=complex)
    t, h = _grid(T, n)
    M, interior = eigs.size, t[1:-1]
    if pert.kind == "full":
        w, b = pert.full_matrix(M), pert.bound_values(interior)
        blocks = (-np.diag(eigs + 2.0 / h**2) - b[:, None, None] * w)[None]
        first = -g[None] / h**2
    else:
        d = pert.diagonal_entries(interior, M).T if pert.kind == "diagonal" else np.zeros((M, n - 2))
        blocks = (-2.0 / h**2 - eigs[:, None] - d)[:, :, None, None]
        first = -g[:, None] / h**2
    ab = _scatter_band(blocks, h)
    S, L, m, _ = blocks.shape
    rhs = np.zeros((2, S, L, m))
    rhs[:, :, 0] = first.real, first.imag
    sol = solve_banded((m, m), ab.copy(), rhs.reshape(2, -1).T)
    out = np.empty(S * L * m, dtype=complex)
    out.real, out.imag = sol[:, 0], sol[:, 1]
    coeffs = np.zeros((M, n), dtype=complex)
    coeffs[:, 0] = g
    coeffs[:, 1:-1] = out.reshape(S, L, m)[0].T if pert.kind == "full" else out.reshape(M, L)
    psi = _second_difference(coeffs, h) - eigs[:, None] * coeffs[:, 1:-1]
    if pert.kind == "diagonal":
        psi = psi - pert.diagonal_entries(interior, M).T * coeffs[:, 1:-1]
    elif pert.kind == "full":
        psi = psi - b[None, :] * (w @ coeffs[:, 1:-1].view(np.float64)).view(complex)
    peak = float(np.max(np.abs(coeffs)))
    residual = float(np.max(np.abs(psi)) * h**2 / peak)
    return ab, coeffs, residual, peak / float(np.max(np.abs(g)))


@pytest.mark.parametrize("kind, beta", [("zero", 0.0), ("diagonal", 0.4), ("full", 0.4), ("full", 0.0)])
def test_band_and_solve_match_block_scatter_reference(kind, beta, monkeypatch):
    # indefinite modes included: -5 and -0.5 are not resonant at T = 10; with
    # b = 0 every off-diagonal entry of a full block is a signed zero
    eigs, g = _modes(7, 11)
    eigs[:2] = (-5.0, -0.5)
    bound = exponential_bound(beta)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=beta, decays=True, seed=6),
        "full": PerturbationFamily.full(bound, beta=beta, decays=True, seed=6),
    }[kind]
    bands = []

    def capturing(l_and_u, ab, b, **kwargs):
        bands.append(ab.copy())
        return solve_banded(l_and_u, ab, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", capturing)
    got = solve_decaying(eigs, pert, 10.0, g, n_points=1201)
    ab, coeffs, residual, growth = _reference_scatter(eigs, pert, 10.0, g, 1201)
    assert np.array_equal(bands[0], ab)
    assert np.array_equal(bands[0].view(np.int64), ab.view(np.int64))  # signed zeros too
    assert np.array_equal(got.profile.coeffs, coeffs)
    assert got.residual == residual
    assert got.growth == growth


@pytest.mark.parametrize("kind", ["zero", "diagonal", "full"])
def test_non_finite_solution_is_solver_error(kind, monkeypatch):
    # a NaN in the last mode must not be lost by the blockwise max|c|
    def poisoned(*args, **kwargs):
        sol = solve_banded(*args, **kwargs)
        sol[-1, 1] = math.nan
        return sol

    monkeypatch.setattr(scipy.linalg, "solve_banded", poisoned)
    bound = constant_bound(0.2)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=0.2, decays=False, seed=1),
        "full": PerturbationFamily.full(bound, beta=0.2, decays=False, seed=1),
    }[kind]
    with pytest.raises(SolverError, match="growth factor nan"):
        solve_decaying(np.linspace(1.0, 9.0, 12), pert, 10.0, np.ones(12), n_points=2001)  # two blocks


def test_diagonal_solve_peak_memory():
    # band (3 rows) and right-hand side (2 columns) of float64 per unknown, then
    # the solution and coeffs; the residual pass works on blocks of modes
    eigs, g = _modes(200, 5)
    pert = PerturbationFamily.diagonal(exponential_bound(0.5), beta=0.5, decays=True, seed=5)
    tracemalloc.start()
    try:
        result = solve_decaying(eigs, pert, 10.0, g, n_points=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * result.profile.coeffs.nbytes


@pytest.mark.parametrize("kind", ["zero", "diagonal"])
def test_uncoupled_solve_is_bit_identical_to_per_mode_reference(kind):
    # negative eigenvalues make the tridiagonal elimination pivot
    eigs, g = _modes(12, 7)
    eigs[:2] = (-5.0, -0.5)
    if kind == "zero":
        pert = PerturbationFamily.zero()
    else:
        pert = PerturbationFamily.diagonal(constant_bound(0.3), beta=0.3, decays=False, seed=4)
    got = solve_decaying(eigs, pert, 10.0, g, n_points=3001).profile.coeffs
    assert np.array_equal(got, _reference_per_mode(eigs, pert, 10.0, g, 3001))


@pytest.mark.parametrize("kind", ["zero", "diagonal", "full"])
def test_one_banded_solve_per_call(kind, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        l_and_u, ab, b = args
        calls.append((l_and_u, ab.dtype, b.dtype, b.shape))
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counting)
    bound = constant_bound(0.2)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=0.2, decays=False, seed=1),
        "full": PerturbationFamily.full(bound, beta=0.2, decays=False, seed=1),
    }[kind]
    solve_decaying([1.0, 4.0, 9.0], pert, 10.0, [1.0, 0.5, 0.25], n_points=801)
    # a real band, with the real and imaginary parts of the right-hand side as two columns
    f8 = np.dtype(np.float64)
    assert calls == [((3, 3) if kind == "full" else (1, 1), f8, f8, (3 * 799, 2))]


def test_full_solve_budget_boundary():
    pert = PerturbationFamily.full(constant_bound(0.2), beta=0.2, decays=False, seed=2)
    with pytest.raises(BudgetExceededError):
        solve_decaying([1.0], pert, 10.0, [1.0], n_points=200_003)  # (n-2)*M = 200_001
    r = solve_decaying([1.0], pert, 10.0, [1.0], n_points=200_002)  # exactly 200_000
    assert r.profile.coeffs.shape == (1, 200_002)
    assert r.residual < 1e-9


def test_full_solve_memory_budget_refuses_before_allocating():
    # (n-2)*M = 200_000 passes the unknowns budget; its band and LU need about 803 MB
    pert = PerturbationFamily.full(constant_bound(0.2), beta=0.2, decays=False, seed=2)
    eigs = np.linspace(1.0, 9.0, 100)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="MiB"):
            solve_decaying(eigs, pert, 10.0, np.ones(100), n_points=2002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_full_solve_memory_budget_boundary(monkeypatch):
    pert = PerturbationFamily.full(constant_bound(0.2), beta=0.2, decays=False, seed=2)
    # (n-2) * M unknowns of (8M+6) * 8 bytes, W, and the per-mode, per-point and fixed terms
    need = 799 * 3 * (8 * 3 + 6) * 8 + 8 * 3 * 3 + 128 * 3 + 40 * 801 + 2**16
    monkeypatch.setattr(evolution, "SOLVE_BYTES", need - 1)
    with pytest.raises(BudgetExceededError):
        solve_decaying([1.0, 4.0, 9.0], pert, 10.0, [1.0, 0.5, 0.25], n_points=801)
    monkeypatch.setattr(evolution, "SOLVE_BYTES", need)
    r = solve_decaying([1.0, 4.0, 9.0], pert, 10.0, [1.0, 0.5, 0.25], n_points=801)
    assert r.residual < 1e-9


@pytest.mark.parametrize("kind", ["zero", "diagonal"])
def test_uncoupled_solve_memory_budget_refuses_before_allocating(kind):
    # 10^8 points of one mode need about 4.4 GB; nothing of that size is allocated
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(constant_bound(0.2), beta=0.2, decays=False),
    }[kind]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="MiB against the 256 MiB limit"):
            solve_decaying([1.0], pert, 10.0, [1.0], n_points=10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "kind, M, n",
    [("zero", 1, 100_000), ("zero", 120, 4001), ("diagonal", 1, 100_000), ("diagonal", 120, 4001),
     ("full", 2, 20_000), ("full", 12, 4001)],
)
def test_solve_peak_memory_stays_within_its_budget(kind, M, n):
    bound = constant_bound(0.2)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=0.2, decays=False, seed=7),
        "full": PerturbationFamily.full(bound, beta=0.2, decays=False, seed=7),
    }[kind]
    eigs, g = _modes(M, 7)
    budget = evolution._solve_bytes(kind, M, n)
    tracemalloc.start()
    try:
        solve_decaying(eigs, pert, 10.0, g, n_points=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget
    assert peak >= 0.75 * budget  # the count is the working set, not a loose cap


@pytest.mark.parametrize("kind", ["zero", "diagonal", "full"])
def test_singular_system_raises_solver_error(kind):
    # n = 4, T = 3: h = 1, and mu = -1 leaves two interior rows [[-1, 1], [1, -1]]
    bound = constant_bound(0.0)
    pert = {
        "zero": PerturbationFamily.zero(),
        "diagonal": PerturbationFamily.diagonal(bound, beta=0.0, decays=False),
        "full": PerturbationFamily.full(bound, beta=0.0, decays=False),
    }[kind]
    with pytest.raises(SolverError):
        solve_decaying([-1.0, -1.0], pert, 3.0, [1.0, 1.0], n_points=4)


def test_decay_estimate_exact_exponential():
    t = np.linspace(0.0, 30.0, 3001)
    p = SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=np.exp(-2 * t)[None, :].astype(complex))
    est = decay_rate_estimate(p, (5.0, 25.0))
    assert est.rate == pytest.approx(2.0, abs=1e-6)
    assert est.residual < 1e-12
    assert not est.superexp


def test_decay_estimate_superexponential_flag():
    t = np.linspace(0.0, 30.0, 3001)
    p = SpectralProfile(
        eigs=np.array([0.0]), t_grid=t, coeffs=np.exp(-(t ** (4.0 / 3.0)))[None, :].astype(complex)
    )
    est = decay_rate_estimate(p, (1.0, 25.0))
    assert est.superexp
    rates = est.windowed_rates
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_decay_estimate_oscillatory():
    t = np.linspace(0.0, 30.0, 3001)
    vals = np.exp(-2 * t) * (2.0 + np.sin(t))
    p = SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=vals[None, :].astype(complex))
    est = decay_rate_estimate(p, (5.0, 25.0))
    assert est.rate == pytest.approx(2.0, rel=0.05)
    assert est.residual > 0.0
    assert not est.superexp


def test_decay_estimate_zero_norm_refused():
    t = np.linspace(0.0, 10.0, 101)
    p = SpectralProfile(eigs=np.array([0.0]), t_grid=t, coeffs=np.zeros((1, 101), dtype=complex))
    with pytest.raises(PreconditionError):
        decay_rate_estimate(p, (1.0, 9.0))


def test_rate_scan_two_modes():
    rows = rate_spectrum_scan([1.0, 9.0], PerturbationFamily.zero(), [[1.0, 1.0]])
    assert rows[0].rate == pytest.approx(1.0, rel=0.01)
    assert rows[0].nearest_sqrt_eig == 1.0


def test_rate_scan_single_high_mode():
    rows = rate_spectrum_scan([9.0], PerturbationFamily.zero(), [[1.0]])
    assert rows[0].rate == pytest.approx(3.0, rel=0.01)


def test_rate_scan_zero_mode_no_exponential_decay():
    rows = rate_spectrum_scan([0.0], PerturbationFamily.zero(), [[1.0]], T=300.0)
    # solution is linear: fitted slope of log is ~ 1/(T-t), small on the window
    assert abs(rows[0].rate) < 0.02
    window = default_tail_window(300.0)
    expected = math.log((300.0 - window[0]) / (300.0 - window[1])) / (window[1] - window[0])
    assert rows[0].rate == pytest.approx(expected, rel=0.05)


def test_rate_scan_superexp_false_for_unperturbed():
    for eigs, g in (([1.0, 9.0], [1.0, 1.0]), ([4.0], [1.0]), ([9.0], [1.0])):
        result = solve_decaying(eigs, PerturbationFamily.zero(), None or 30.0 / math.sqrt(min(e for e in eigs if e > 0)), g)
        est = decay_rate_estimate(result.profile, default_tail_window(result.profile.t_grid[-1]))
        assert not est.superexp


def test_rate_scan_perturbation_bound_refused():
    pert = PerturbationFamily.diagonal(constant_bound(2.0), beta=2.0, decays=False, seed=1)
    with pytest.raises(PreconditionError):
        rate_spectrum_scan([1.0, 9.0], pert, [[1.0, 1.0]])


def test_counterexample_inner_integral():
    assert inner_integral_check([0.0], 200.0) < 1e-6


def test_counterexample_log_divergence_at_one():
    for T in (100.0, 1000.0):
        (row,) = harmonic_counterexample([1.0], T=T)
        assert row.partial_integral == pytest.approx(math.pi * math.log(1.0 + T), rel=0.005)
        assert row.indicator == "log-divergent"


def test_counterexample_converged_below_one():
    (row,) = harmonic_counterexample([0.9], T=200.0)
    assert row.indicator == "converged"
    assert row.tail_bound < 1e-3 * row.partial_integral


def _quad_mass(rate, t_end):
    from scipy.integrate import quad

    a = 2.0 * (rate - 1.0)
    return math.pi * quad(lambda s: math.exp(a * s) / (1.0 + s), 0.0, t_end, limit=400)[0]


@pytest.mark.parametrize("T", [1e3, 1e5, 1e300])
def test_counterexample_mass_closed_form_at_every_horizon(T):
    """Below rate 1 the mass converges (the tail past T = 1000 is below e^-200): it keeps
    the quadrature value at T = 1000 however far T goes; 1 grows as pi ln(1+T)."""
    rows = {r.weight_rate: r for r in harmonic_counterexample([0.5, 0.9, 1.0, 1.1], T=T)}
    for rate in (0.5, 0.9):
        assert rows[rate].partial_integral == pytest.approx(_quad_mass(rate, 1000.0), rel=1e-12)
        assert rows[rate].indicator == "converged"
    assert rows[1.0].partial_integral == pytest.approx(math.pi * math.log1p(T), rel=1e-14)
    assert rows[1.0].indicator == "log-divergent"
    assert rows[1.1].t_used == pytest.approx(min(T, 3500.0))
    assert rows[1.1].partial_integral == pytest.approx(_quad_mass(1.1, rows[1.1].t_used), rel=1e-12)
    assert rows[1.1].indicator == "exp-divergent"


def test_counterexample_mass_where_ei_overflows():
    """Rates far above 1: e^(-a) Ei(a(1+T)) is finite though Ei(a(1+T)) is not."""
    for rate in (10.0, 400.0, 1e6):
        (row,) = harmonic_counterexample([rate], T=1000.0)
        assert row.partial_integral == pytest.approx(_quad_mass(rate, row.t_used), rel=1e-12)
        assert row.indicator == "exp-divergent"


def test_counterexample_threshold_scan():
    rows = harmonic_counterexample([0.5, 0.8, 0.9, 0.95, 1.0, 1.1], T=1000.0)
    by_rate = {r.weight_rate: r for r in rows}
    for rate in (0.5, 0.8, 0.9, 0.95):
        assert by_rate[rate].indicator == "converged"
        assert by_rate[rate].tail_bound is not None
    assert by_rate[1.0].indicator == "log-divergent"
    assert by_rate[1.1].indicator == "exp-divergent"
    # partial integrals grow with the weight rate
    values = [by_rate[r].partial_integral for r in (0.5, 0.8, 0.9)]
    assert values == sorted(values)


_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import halfspace_decay, halfspace_decay.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = halfspace_decay.cli.main(argv)
    return code, out.getvalue(), "scipy.linalg" in sys.modules

report = {{"import": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}
report["spectrum"] = run(["spectrum", "--lattice", {lat!r}, "--theta", "1/2", "--cutoff", "10"])
report["pipeline"] = run(["pipeline", "--config", {config!r}])
report["evolve"] = run(["evolve", "--eigs", "1,4"])
print(json.dumps(report))
"""


def test_scipy_loads_only_on_the_first_solve(tmp_path):
    # only the banded solve needs SciPy: the import and every command that never
    # solves load none of it, and an evolve loads it without changing its output
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from halfspace_decay import Lattice, SampledField, save_field

    src = str(Path(evolution.__file__).resolve().parents[1])
    lat = Lattice.cubic(2.0 * math.pi, 1)
    lat_path, u_path, config = tmp_path / "lat.json", tmp_path / "u.csv", tmp_path / "run.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    t = np.linspace(0.0, 2.0, 9)
    save_field(SampledField("u", lat, (0,), (2,), 4, 0.0, 2.0, np.tile(np.exp(-t), (8, 1)) + 0j), u_path)
    params = {"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 2}
    config.write_text(json.dumps({"command": "pipeline", "params": params, "out_dir": str(tmp_path / "out")}))
    probe = _SCIPY_PROBE.format(src=src, lat=str(lat_path), config=str(config))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["import"] == []
    code, stdout, scipy_loaded = report["spectrum"]
    assert code == 0 and stdout.startswith("value,multiplicity") and not scipy_loaded
    code, stdout, scipy_loaded = report["pipeline"]  # a run to its manifest; its Carleman case refuses
    assert json.loads(stdout)["exit_code"] == code and not scipy_loaded
    code, stdout, scipy_loaded = report["evolve"]
    assert code == 0 and scipy_loaded
    alone = subprocess.run(
        [sys.executable, "-m", "halfspace_decay.cli", "evolve", "--eigs", "1,4"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert stdout == alone.stdout
    assert inner_integral_check([0.0], 200.0) < 1e-6  # the deferred quadrature import still resolves


def test_harmonicity_counterexample_function():
    assert harmonicity_check((-2.0, 2.0, 0.5, 2.0), 1e-2) < 1e-2
    coarse = harmonicity_check((-2.0, 2.0, 0.5, 2.0), 2e-2)
    fine = harmonicity_check((-2.0, 2.0, 0.5, 2.0), 1e-2)
    assert coarse / fine == pytest.approx(4.0, rel=0.2)


def test_harmonicity_controls():
    # exact for quadratics; h coarse enough that roundoff stays below 1e-12
    assert harmonicity_check((-1.0, 1.0, 0.5, 1.5), 0.05, fn=lambda a, b: a * b) < 1e-12
    assert harmonicity_check((-1.0, 1.0, 0.5, 1.5), 0.05, fn=lambda a, b: a * a) == pytest.approx(
        2.0, abs=1e-9
    )


def test_harmonicity_region_validation():
    with pytest.raises(PreconditionError):
        harmonicity_check((-1.0, 1.0, 0.005, 1.0), 1e-2)  # stencil pokes below t=0
    with pytest.raises(SchemaError):
        harmonicity_check((1.0, -1.0, 0.5, 1.0), 1e-2)


def test_perturbation_norm_certificates():
    t = np.linspace(0.0, 10.0, 101)
    pert = PerturbationFamily.diagonal(exponential_bound(0.5, 1.0), beta=0.5, decays=True, seed=3)
    entries = pert.diagonal_entries(t, 8)
    bound = pert.bound_values(t)
    assert np.all(np.abs(entries) <= bound[:, None] + 1e-15)
    with pytest.raises(SchemaError):
        PerturbationFamily(kind="banded", bound=None, beta=0.0, decays=True)
