"""Independent checks of every benchmark result.

Nothing here calls the package's algorithms: expected values come from
number theory (Legendre's three-square theorem), brute-force integer
enumeration, closed-form decay rates of manufactured fields, or direct
re-evaluation of the discrete equations.  Each check returns a list of
error strings; an empty list means the result is correct.  Tolerances are
fixed pass/fail thresholds far above round-off, so a refactor that only moves
the last digits cannot flip a verdict.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

RATE_RTOL = 0.01
ROUNDTRIP_TOL = 1e-10
SOLVER_RESIDUAL_TOL = 1e-10
# ellreg energy bound 2(alpha + beta) + 4 sup|h'|^2 for a quintic cut-off of
# width eps (sup|h'| = 1.875/eps), with 5 % discretisation slack.
ELLREG_SLACK = 1.05
COUNTEREXAMPLE_CLASSES = {0.5: "converged", 0.9: "converged", 1.0: "log-divergent",
                          1.1: "exp-divergent"}


# -- value sets and gap tables ----------------------------------------------

def three_squares_set(limit: int) -> np.ndarray:
    """Legendre: n is a sum of three squares iff n is not 4^a (8b + 7)."""
    n = np.arange(limit + 1, dtype=np.int64)
    m = n.copy()
    while True:
        divisible = (m > 0) & (m % 4 == 0)
        if not divisible.any():
            break
        m[divisible] //= 4
    return m % 8 != 7


def form_value_set(gram, limit: int) -> np.ndarray:
    """Values of q(x, y) = a x^2 + 2 b x y + c y^2 up to limit, by brute force."""
    (a, b), (_, c) = gram
    det = a * c - b * b
    # a q = (a x + b y)^2 + det y^2 bounds |y|; symmetrically c q bounds |x|
    y_max = math.isqrt(a * limit // det)
    x_max = math.isqrt(c * limit // det)
    x = np.arange(-x_max, x_max + 1, dtype=np.int64)
    reached = np.zeros(limit + 1, dtype=bool)
    for y in range(-y_max, y_max + 1):
        vals = a * x * x + 2 * b * x * y + c * y * y
        reached[vals[vals <= limit]] = True
    return reached


def gap_table(reached: np.ndarray, n_list) -> list[tuple[int, float]]:
    """Largest distance between consecutive attained values within [0, N]."""
    table = []
    for n in n_list:
        vals = np.flatnonzero(reached[: n + 1])
        table.append((n, float(np.max(np.diff(vals))) if vals.size >= 2 else 0.0))
    return table


def check_gap_table(got, expected, what: str) -> list[str]:
    got = [(int(n), float(g)) for n, g in got]
    return [] if got == expected else [f"{what}: gap table {got} != {expected}"]


def shifted_cube_counts(l: int, residues, cutoff: int) -> tuple[int, int]:
    """Points m of Z^3 with |m + r/l|^2 <= cutoff, and their distinct values.

    Exact integer arithmetic on |l m + r|^2 <= cutoff l^2 (identity Gram).
    """
    bound = cutoff * l * l
    top = math.isqrt(bound) // l + 1
    m = np.arange(-top - 1, top + 2, dtype=np.int64)
    sq = [(l * m + r) ** 2 for r in residues]
    total = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
    inside = total[total <= bound]
    return int(inside.size), int(np.unique(inside).size)


def check_spectrum_counts(slc, expected_points: int, expected_values: int) -> list[str]:
    errors = []
    if slc.total_count() != expected_points:
        errors.append(f"enumerate_spectrum: {slc.total_count()} points, expected {expected_points}")
    if slc.values.size != expected_values:
        errors.append(f"enumerate_spectrum: {slc.values.size} values, expected {expected_values}")
    return errors


# -- pipeline outputs --------------------------------------------------------

def manufactured_rate(mode, theta) -> float:
    """Decay rate |m + theta| of a single torus mode (identity dual Gram)."""
    return math.sqrt(sum((m + th) ** 2 for m, th in zip(mode, theta)))


def midpoint_theta(index: int, per_axis: int, dim: int) -> tuple[float, ...]:
    """Quasimomentum of a flat index into the C-ordered midpoint grid."""
    digits = []
    for _ in range(dim):
        index, p = divmod(index, per_axis)
        digits.append(p)
    return tuple((2 * p + 1) / (2 * per_axis) for p in reversed(digits))


def check_pipeline_output(out_dir, mode, per_axis: int, residual_tol: float) -> list[str]:
    """Every case passes, rates match |m+theta|, residuals stay small."""
    out = Path(out_dir)
    dim = len(mode)
    cases = json.loads((out / "manifest.json").read_text())["cases"]
    errors = []
    if len(cases) != per_axis**dim:
        errors.append(f"{len(cases)} cases, expected {per_axis**dim}")
    for case in cases:
        if case["verdict"] != "pass":
            errors.append(f"{case['id']}: verdict {case['verdict']!r}")
        residual = float(case["data"]["max_residual"])
        if not residual < residual_tol:
            errors.append(f"{case['id']}: max_residual {residual:.3e} >= {residual_tol:g}")
    with open(out / "decay.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != per_axis**dim:
        errors.append(f"{len(rows)} decay rows, expected {per_axis**dim}")
    for row in rows:
        idx = int(row["theta_index"])
        expected = manufactured_rate(mode, midpoint_theta(idx, per_axis, dim))
        rate = float(row["rate"])
        if not abs(rate - expected) <= RATE_RTOL * expected:
            errors.append(f"theta {idx}: rate {rate:.6g}, expected {expected:.6g}")
    return errors


def check_roundtrip(original, rebuilt) -> list[str]:
    if (tuple(rebuilt.cells_lo), tuple(rebuilt.cells_shape)) != (
        tuple(original.cells_lo), tuple(original.cells_shape)
    ):
        return [f"round trip moved the cell box to {rebuilt.cells_lo}+{rebuilt.cells_shape}"]
    err = float(np.max(np.abs(rebuilt.values - original.values)))
    return [] if err <= ROUNDTRIP_TOL else [f"round-trip error {err:.3e} > {ROUNDTRIP_TOL:g}"]


def output_digest(out_dir) -> str:
    """sha256 over every CSV, SVG and JSON output, without the manifest's wall time."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix not in (".csv", ".svg", ".json"):
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_clock_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


# -- solver ensembles --------------------------------------------------------

def check_carleman(report, what: str) -> list[str]:
    return [] if report.passed is True else [f"{what}: passed={report.passed}, margin {report.margin}"]


def check_ellreg(report, alpha: float, beta: float, eps: float, what: str) -> list[str]:
    bound = 2.0 * (alpha + beta) + 4.0 * (1.875 / eps) ** 2
    if math.isfinite(report.sup_ratio) and report.sup_ratio <= ELLREG_SLACK * bound:
        return []
    return [f"{what}: sup ratio {report.sup_ratio} above energy bound {bound}"]


def check_solution(profile, boundary, apply_b, what: str) -> list[str]:
    """Re-evaluate (d_t^2 - A - B(t)) phi = 0 and phi(0) = g, phi(T) = 0.

    ``apply_b(t, c)`` returns B(t) c column by column for interior times.
    """
    c = profile.coeffs
    t = profile.t_grid
    h = t[1] - t[0]
    psi = (c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]) / h**2 - profile.eigs[:, None] * c[:, 1:-1]
    psi = psi - apply_b(t[1:-1], c[:, 1:-1])
    scale = float(np.max(np.abs(c))) or 1.0
    residual = float(np.max(np.abs(psi))) * h**2 / scale
    errors = []
    if not residual <= SOLVER_RESIDUAL_TOL:
        errors.append(f"{what}: discrete residual {residual:.3e} > {SOLVER_RESIDUAL_TOL:g}")
    if np.max(np.abs(c[:, 0] - np.asarray(boundary))) > 0.0 or np.any(c[:, -1] != 0):
        errors.append(f"{what}: boundary values not held")
    return errors


def check_rates(rows, eigs, boundaries) -> list[str]:
    errors = []
    for row, g in zip(rows, boundaries):
        excited = [mu for mu, gi in zip(eigs, g) if abs(gi) > 1e-12 and mu > 0]
        expected = math.sqrt(min(excited))
        if not abs(row.rate - expected) <= RATE_RTOL * expected:
            errors.append(f"rate {row.rate:.6g}, expected sqrt(mu_min) = {expected:.6g}")
    if len(rows) != len(boundaries):
        errors.append(f"{len(rows)} rate rows for {len(boundaries)} boundaries")
    return errors


def check_counterexample(rows) -> list[str]:
    got = {round(r.weight_rate, 6): r.indicator for r in rows}
    return [] if got == COUNTEREXAMPLE_CLASSES else [f"counterexample classes {got}"]
