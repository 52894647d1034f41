"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
inline (they are also written through to the real stdout under capture).
"""

import math
import time
from fractions import Fraction
from functools import wraps

import numpy as np
import pytest

from halfspace_decay import (
    Lattice,
    PerturbationFamily,
    QuadraticForm,
    Quasimomentum,
    RunConfig,
    SampledField,
    SpectralProfile,
    decay_rate_estimate,
    dual_basis,
    enumerate_spectrum,
    max_gap_growth,
    progression_containment,
    rate_spectrum_scan,
    run_pipeline,
    solve_decaying,
)
from halfspace_decay.carleman import (
    conjugation_identity_check,
    ellreg_bound_check,
    first_order_system_check,
    verify_carleman_43,
    verify_carleman_gap,
    weight_sign_check,
)
from halfspace_decay.cli import main as cli_main
from halfspace_decay.ensembles import bump_case_43, bump_case_gap, solution_like_profile
from halfspace_decay.errors import EXIT_PRECONDITION
from halfspace_decay.evolution import default_tail_window, harmonic_counterexample, inner_integral_check
from halfspace_decay.fibers import gelfand_forward, gelfand_inverse, theta_grid
from halfspace_decay.lattice import rational_structure
from halfspace_decay.profiles import bump_profile
from halfspace_decay.quadrature import uniform_grid
from halfspace_decay.spectrum import spectrum_value_set

from conftest import manufactured_line_input, record_verdict

TWO_PI = 2.0 * math.pi


def criterion(num, name):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                summary = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                line = f"[criterion {num:02d}] {name}: FAIL ({summary})"
                record_verdict(line)
                print(line)
                raise
            line = f"[criterion {num:02d}] {name}: PASS"
            record_verdict(line)
            print(line)
        return wrapper
    return deco


# -- criterion 1 -------------------------------------------------------------

def _oracle_multiset(lat, theta, energy, cutoff):
    """Brute force over the box |m_i| <= ceil(sqrt(cutoff+E)/s_min)+1."""
    dual = dual_basis(lat)
    radius2 = cutoff + energy
    if radius2 < 0:
        return np.empty(0), np.empty(0, dtype=int)
    s_min = np.linalg.svd(dual.basis, compute_uv=False).min()
    reach = int(math.ceil(math.sqrt(radius2) / s_min)) + 1
    axes = [np.arange(-reach, reach + 1)] * lat.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    m = np.stack([a.reshape(-1) for a in mesh], axis=-1).astype(float)
    k = (m + theta.coeffs) @ dual.basis.T
    vals = np.sort(np.sum(k * k, axis=-1))
    vals = vals[vals <= radius2 + 1e-9]
    out_v, out_m = [], []
    for v in vals:
        if out_v and v - out_v[-1][0] <= 1e-9:
            out_m[-1] += 1
        else:
            out_v.append([v])
            out_m.append(1)
    return np.array([v[0] for v in out_v]) - energy, np.array(out_m)


@criterion(1, "spectrum oracle on 50 random rational lattices")
def test_c01_spectrum_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(20260808)
    for case in range(50):
        dim = 1 + case % 3
        m = rng.integers(-2, 3, size=(dim, dim))
        gram_int = (m @ m.T + np.eye(dim, dtype=np.int64) * (1 + case % 2)).astype(int)
        gram = [[Fraction(int(gram_int[i, j])) for j in range(dim)] for i in range(dim)]
        lat = Lattice.from_dual_gram(gram)
        l = int(rng.integers(1, 7))
        theta = Quasimomentum.from_rational(l, tuple(int(r) for r in rng.integers(0, l, size=dim)))
        energy = float(rng.uniform(-5.0, 5.0))
        cutoff = float(rng.uniform(20.0, 200.0))
        slc = enumerate_spectrum(lat, theta, energy, cutoff)
        ov, om = _oracle_multiset(lat, theta, energy, cutoff)
        assert slc.values.size == ov.size, f"case {case}: {slc.values.size} vs {ov.size}"
        assert np.all(np.abs(slc.values - ov) <= 1e-9)
        assert np.array_equal(slc.mults, om)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


# -- criterion 2 -------------------------------------------------------------

def _independent_three_square_sieve(limit):
    r = int(math.isqrt(limit))
    sq = np.arange(r + 1) ** 2
    two = np.zeros(limit + 1, dtype=bool)
    pair = np.add.outer(sq, sq).reshape(-1)
    two[pair[pair <= limit]] = True
    three = np.zeros(limit + 1, dtype=bool)
    tv = np.flatnonzero(two)
    for s in sq:
        keep = tv[tv <= limit - s]
        three[keep + s] = True
    return three


def _legendre_three_square_mask(limit):
    """Legendre: n >= 0 is a sum of three squares iff n != 4^a (8b + 7).

    Factors of 4 are stripped without a loop over n: the lowest set bit of n
    is 4^a exactly when it sits at an even bit position, and n over that bit
    is the odd part.
    """
    n = np.arange(limit + 1, dtype=np.int64)
    low = n & -n
    odd = n // np.maximum(low, 1)
    even_power = (low & 0x5555555555555555) != 0
    return ~(even_power & (odd % 8 == 7))


@criterion(2, "gap dichotomy at desk scale")
def test_c02_gap_dichotomy():
    started = time.monotonic()
    q2 = QuadraticForm(G=np.eye(2, dtype=np.int64))
    table2 = max_gap_growth(q2, None, [100, 10_000, 1_000_000])
    gaps2 = [g for _, g in table2]
    assert gaps2[0] == 7.0
    assert gaps2[0] < gaps2[1] < gaps2[2]

    q3 = QuadraticForm(G=np.eye(3, dtype=np.int64))
    table3 = max_gap_growth(q3, None, [100, 10_000, 1_000_000])

    lat = Lattice(basis=TWO_PI * np.eye(3), dual_gram_exact=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    dual = dual_basis(lat)
    theta = Quasimomentum.zero(3)
    sigma, qr, l, r = rational_structure(dual, theta)
    assert progression_containment(dual, qr, theta, sigma, l, 200.0, exact=True) == 0.0

    # independent sieve cross-check of the module's three-squares value set
    sieve = _independent_three_square_sieve(10_000)
    vals = np.flatnonzero(sieve)
    assert int(np.max(np.diff(vals))) == int(table3[1][1])

    # The three-squares max gap is at most 3, and 3 is attained.  By Legendre,
    # odd non-sums are 7 mod 8 and even non-sums are 0 mod 4.  Three
    # consecutive integers hold two odds or two evens 2 apart, so they are
    # never all non-sums: no gap exceeds 3.  111 = 8*13+7 and 112 = 16*7 are
    # consecutive non-sums, so (110, 113) is a gap of 3.
    legendre = _legendre_three_square_mask(1_000_000)
    module = spectrum_value_set(q3, None, 1_000_000)
    disagree = np.flatnonzero(module != legendre)
    assert disagree.size == 0, (
        f"module and Legendre disagree on {disagree.size} values up to 1e6, "
        f"first at n={int(disagree[0]) if disagree.size else None}"
    )
    assert module[[110, 113]].all() and not module[[111, 112]].any(), (
        "module value set breaks the witness gap (110, 113)"
    )
    expected3 = [float(np.max(np.diff(np.flatnonzero(legendre[: n + 1])))) for n, _ in table3]
    assert expected3 == [2.0, 3.0, 3.0]
    gaps3 = [g for _, g in table3]
    assert all(g <= 3.0 for g in gaps3), (
        f"three-squares max gaps {gaps3} at N=(1e2,1e4,1e6) exceed the proven bound 3"
    )
    assert gaps3 == expected3, (
        f"three-squares max gaps {gaps3} at N=(1e2,1e4,1e6), Legendre gives {expected3}"
    )

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"


# -- criterion 3 -------------------------------------------------------------

@criterion(3, "Gelfand unitarity and inversion")
def test_c03_gelfand_unitarity_inversion():
    lat = Lattice.cubic(TWO_PI, 2)
    rng = np.random.default_rng(3)
    n, nt = 4, 3
    values = rng.normal(size=(3 * n, 3 * n, nt)) + 1j * rng.normal(size=(3 * n, 3 * n, nt))
    u = SampledField(
        kind="u", lattice=lat, cells_lo=(-1, -1), cells_shape=(3, 3),
        points_per_cell=n, t_start=0.0, t_end=1.0, values=values,
    )
    w = abs(np.linalg.det(lat.basis)) / n**2
    mass_u = w * float(np.sum(np.abs(u.values) ** 2))
    total = 0.0
    thetas6 = theta_grid(lat, 6)
    for theta in thetas6:
        fiber = gelfand_forward(u, theta, 5)
        total += w * float(np.sum(np.abs(fiber.data) ** 2))
    total /= len(thetas6)
    assert abs(total - mass_u) <= 1e-6 * mass_u

    fibers = [gelfand_forward(u, theta, 5) for theta in theta_grid(lat, 3)]
    back = gelfand_inverse(fibers, lat)
    assert np.max(np.abs(back.values - u.values)) < 1e-8

    bump = np.zeros_like(values)
    block = rng.normal(size=(n, n, nt))
    bump[2 * n : 3 * n, 1 * n : 2 * n, :] = block  # cell (1, 0)
    ub = SampledField(
        kind="u", lattice=lat, cells_lo=(-1, -1), cells_shape=(3, 3),
        points_per_cell=n, t_start=0.0, t_end=1.0, values=bump,
    )
    fibers = [gelfand_forward(ub, theta, 5) for theta in theta_grid(lat, 3)]
    rec = gelfand_inverse(fibers, lat)
    inside = rec.values[2 * n : 3 * n, 1 * n : 2 * n, :]
    leak = rec.values.copy()
    leak[2 * n : 3 * n, 1 * n : 2 * n, :] = 0.0
    assert np.max(np.abs(inside - block)) < 1e-8
    assert np.max(np.abs(leak)) < 1e-8


# -- criterion 4 -------------------------------------------------------------

@criterion(4, "conjugation and weight-derivative identities")
def test_c04_conjugation_and_weight():
    resid = {}
    for n in (2001, 4001):
        t = uniform_grid(4.0, n)
        psi = bump_profile((1.0, 3.0), [(1.0, 1.0)], t)
        resid[n] = conjugation_identity_check(psi, 1.0)
    assert resid[4001] < 1e-4, f"residual {resid[4001]:.3e} at h=1e-3"
    order_ratio = resid[2001] / resid[4001]
    assert 4.0 * 0.75 < order_ratio < 4.0 * 1.25, f"order-2 ratio {order_ratio:.2f}"

    rng = np.random.default_rng(44)
    points = [(float(rng.uniform(0.05, 30.0)), float(rng.uniform(0.01, 20.0))) for _ in range(100)]
    for t, lam in points:
        # raises VerificationError beyond 1e-10 relative disagreement
        weight_sign_check(lam, [t])
    ((_, val, flag),) = weight_sign_check(1.0, [1.0])
    assert val == pytest.approx(8.0 / 81.0, rel=1e-12) and flag


# -- criterion 5 -------------------------------------------------------------

@criterion(5, "4/3-weight inequality suite (300 cases + refusal exit code)")
def test_c05_carleman_43_suite():
    started = time.monotonic()
    count = 0
    for i in range(34):
        for eps in (0.5, 1.0, 2.0):
            for mult in (1.0, 2.0, 4.0):
                wl = mult * eps ** (-4.0 / 3.0)
                profile, _ = bump_case_43(505, count, eps, wl)
                rep = verify_carleman_43(profile, wl, eps)
                assert rep.passed, f"case {count} failed: margin {rep.margin}"
                count += 1
    assert count >= 300
    code = cli_main(["carleman", "verify43", "--eps", "1.0", "--weight-lambda", "0.9"])
    assert code == EXIT_PRECONDITION
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"


# -- criterion 6 -------------------------------------------------------------

@criterion(6, "gap inequality suite with first-order system certificates")
def test_c06_carleman_gap_suite():
    started = time.monotonic()
    for i in range(300):
        profile, a, b, alpha = bump_case_gap(606, i)
        rep = verify_carleman_gap(profile, a, b, alpha)
        assert rep.passed, f"case {i} failed: margin {rep.margin}"
        assert rep.params["m"] == b - a and rep.params["w"] == (a + b) / 2.0

    rng = np.random.default_rng(66)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        count = int(rng.integers(1, 10))
        eigs = rng.choice(np.arange(0, 12) ** 2, size=count).astype(float)
        amps = rng.normal(size=count)
        t = uniform_grid(4.0, 1025)
        phi = bump_profile((0.5, 3.0), list(zip(eigs, amps)), t)
        rep = first_order_system_check(phi, float(k), float(k + 1))
        assert rep.min_eig_b0 >= -1e-10
        assert rep.min_eig_b1 >= -1e-10
        assert rep.max_eig_b2 <= 1e-10

    resid = {}
    for n in (1001, 2001):
        t = uniform_grid(4.0, n)
        phi = bump_profile((0.5, 3.0), [(1.0, 1.0), (9.0, 1.0)], t)
        resid[n] = first_order_system_check(phi, 2.0, 3.0).identity_residual
    ratio = resid[1001] / resid[2001]
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3, f"identity order ratio {ratio:.2f}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0


# -- criterion 7 -------------------------------------------------------------

@criterion(7, "decay-rate quantization by the spectrum")
def test_c07_rate_quantization():
    expected = {(1.0, 9.0): 1.0, (4.0,): 2.0, (9.0,): 3.0}
    for eigs, rate in expected.items():
        rows = rate_spectrum_scan(list(eigs), PerturbationFamily.zero(), [[1.0] * len(eigs)])
        assert rows[0].rate == pytest.approx(rate, rel=0.01), f"{eigs}: {rows[0].rate}"
        T = 30.0 / math.sqrt(min(e for e in eigs if e > 0))
        result = solve_decaying(list(eigs), PerturbationFamily.zero(), T, [1.0] * len(eigs))
        est = decay_rate_estimate(result.profile, default_tail_window(T))
        assert not est.superexp

    t = np.linspace(0.0, 30.0, 3001)
    p = SpectralProfile(
        eigs=np.array([0.0]), t_grid=t,
        coeffs=np.exp(-(t ** (4.0 / 3.0)))[None, :].astype(complex),
    )
    est = decay_rate_estimate(p, (1.0, 25.0))
    assert est.superexp


# -- criterion 8 -------------------------------------------------------------

@criterion(8, "harmonic counterexample threshold")
def test_c08_counterexample_threshold():
    assert inner_integral_check([0.0, 1.0, 5.0], 200.0) < 1e-6
    (row,) = harmonic_counterexample([0.9], T=200.0)
    assert row.tail_bound < 1e-3 * row.partial_integral
    assert row.indicator == "converged"
    for T in (100.0, 1000.0):
        (row,) = harmonic_counterexample([1.0], T=T)
        assert abs(row.partial_integral - math.pi * math.log(1.0 + T)) <= 0.005 * math.pi * math.log(1.0 + T)
        assert row.indicator == "log-divergent"
    rows = harmonic_counterexample([0.5, 0.8, 0.9, 0.95, 1.0, 1.1], T=1000.0)
    for r in rows:
        if r.weight_rate < 1.0:
            assert r.indicator == "converged"
        else:
            assert r.indicator in ("log-divergent", "exp-divergent")


# -- criterion 9 -------------------------------------------------------------

@criterion(9, "windowed derivative/norm ratios: finite, stable, uniformly bounded")
def test_c09_elliptic_regularity_family():
    eps = 0.5
    s_list = [2.0, 4.0, 6.0]
    sup_taper_d1 = 1.875 / eps  # quintic cut-off of width eps
    for idx in range(50):
        prof, beta = solution_like_profile(909, idx, t_points=1001)
        assert beta <= 1.0
        alpha = float(prof.alpha)
        assert alpha <= 4.0 + 1e-12
        rep = ellreg_bound_check(prof, eps, s_list)
        assert math.isfinite(rep.sup_ratio)
        # energy bound with an explicit cut-off: 2(alpha+beta) + 4 sup|h'|^2
        bound = 2.0 * (alpha + beta) + 4.0 * sup_taper_d1**2
        assert rep.sup_ratio <= bound * 1.05, f"profile {idx}: {rep.sup_ratio} > {bound}"
        fine = ellreg_bound_check(solution_like_profile(909, idx, t_points=2001)[0], eps, s_list)
        assert fine.sup_ratio == pytest.approx(rep.sup_ratio, rel=0.05)


# -- criterion 10 ------------------------------------------------------------

@criterion(10, "pipeline manifest determinism under parallelism")
def test_c10_pipeline_determinism(tmp_path):
    lat_path, u_path, _ = manufactured_line_input(tmp_path)
    hashes = []
    for threads, name in ((1, "serial"), (8, "parallel")):
        cfg = RunConfig(
            command="pipeline",
            params={
                "lattice": str(lat_path),
                "u_field": str(u_path),
                "energy": 0.0,
                "theta_points": 3,
                "cutoff": 30.0,
            },
            seed=1234,
            out_dir=str(tmp_path / name),
            threads=threads,
        )
        manifest, code = run_pipeline(cfg)
        assert code == 0
        hashes.append(manifest.verdict_hash())
    assert hashes[0] == hashes[1]
