"""End-to-end run: fields -> fibers -> residuals, gaps, inequality checks, decay.

Per quasimomentum on the midpoint grid the pipeline computes the fiber, its
equation residual curve, the spectrum slice with gap table, a gap-inequality
verification on the windowed fiber profile (where an admissible window
exists), and a tail decay estimate.  Results are written as CSV/JSON next to
a resolved copy of the configuration, and summarised in a manifest whose
verdict hash is reproducible bit-for-bit for a fixed config and seed.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from .carleman import verify_carleman_gap
from .errors import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VIOLATION,
    PreconditionError,
    SchemaError,
    strictest_exit_code,
)
from .evolution import decay_rate_estimate
from .fibers import fiber_residual, gelfand_forward, theta_grid
from .fields import load_field
from .lattice import Lattice
from .manifest import RunManifest, write_csv, write_json
from .profiles import SpectralProfile, plateau_shape
from .runconfig import RunConfig
from .spectrum import enumerate_spectrum, find_gaps
from .svgplot import PlotTable, emit_plots


def _load_lattice(spec) -> Lattice:
    return Lattice.from_json(spec) if isinstance(spec, dict) else Lattice.load(spec)


def _usable_point_count(n: int) -> int:
    """Largest n' <= n with (n'-1) divisible by 4 (Simpson + error estimate)."""
    return n - ((n - 1) % 4)


def _window_profile(profile: SpectralProfile, taper_frac: float) -> SpectralProfile:
    """Compactly supported copy: coefficients times a plateau cut-off."""
    t = profile.t_grid
    n_use = _usable_point_count(t.size)
    t = t[:n_use]
    coeffs = profile.coeffs[:, :n_use]
    span = t[-1] - t[0]
    margin = 0.02 * span
    taper = taper_frac * span
    shape = plateau_shape(t, t[0] + margin, t[-1] - margin, taper)
    return SpectralProfile(eigs=profile.eigs, t_grid=t, coeffs=coeffs * shape[None, :])


def _admissible_window(gaps, alpha: float):
    """First gap usable as (a^2, b^2) with 3 a^2 > alpha, slightly shrunk."""
    for gap in gaps:
        lo = gap.lo * (1.0 + 1e-9)
        hi = gap.hi * (1.0 - 1e-9)
        if lo > 0.0 and hi > lo and 3.0 * lo > alpha:
            return math.sqrt(lo), math.sqrt(hi)
    return None


def _theta_case(idx, fiber, lat, v, params, tolerances):
    energy = params.get("energy", 0.0)
    cutoff = params.get("cutoff", 50.0)
    min_gap = params.get("min_gap", 0.0)
    max_modes = params.get("max_modes", 16)
    taper_frac = params.get("carleman_taper", 0.2)

    spec = fiber.to_spectral()
    residuals = fiber_residual(spec, v, energy)
    slc = enumerate_spectrum(lat, fiber.theta, energy, cutoff)
    gaps = find_gaps(slc, min_gap) if slc.values.size else []  # nothing below the cutoff
    profile, dropped = spec.to_profile(energy, max_modes=max_modes)
    alpha = float(max(0.0, -np.min(profile.eigs))) if profile.n_modes else 0.0

    case = {
        "theta_index": idx,
        "theta": [float(m) for m in fiber.theta.coeffs],
        "tail_bound": fiber.tail_bound,
        "max_residual": float(np.max(residuals)) if residuals.size else 0.0,
        "spectrum_count": int(slc.values.size),
        "gap_count": len(gaps),
        "dropped_mode_mass": dropped,
    }
    codes = [EXIT_OK]

    window = _admissible_window(gaps, alpha)
    report = None
    if window is None:
        case["carleman"] = "no-admissible-gap"
    else:
        a, b = window
        names = {"carleman_pass_rtol": "pass_rtol", "resolution_gate_rtol": "gate_rtol"}
        verify_kwargs = {names[key]: value for key, value in tolerances.items()}
        try:
            report = verify_carleman_gap(
                _window_profile(profile, taper_frac), a, b, alpha, **verify_kwargs
            )
            case["carleman"] = "pass" if report.passed else "fail"
            case["carleman_margin"] = report.margin
            if not report.passed:
                codes.append(EXIT_VIOLATION)
        except PreconditionError as exc:
            case["carleman"] = f"refused: {exc}"
            codes.append(EXIT_PRECONDITION)

    t = fiber.t_grid
    span = t[-1] - t[0]
    window_t = params.get("decay_window")
    if window_t is None:
        window_t = (t[0] + 2.0 * span / 3.0, t[0] + 0.9 * span)
    try:
        est = decay_rate_estimate(profile, window_t)
        case["decay_rate"] = est.rate
        case["decay_residual"] = est.residual
        case["superexp"] = est.superexp
    except PreconditionError:
        case["decay_rate"] = None

    tables = {
        "spectrum": list(zip(slc.values.tolist(), slc.mults.tolist())),
        "gaps": [(g.lo, g.hi, g.length) for g in gaps],
        "residual": np.column_stack((t[1:-1], residuals)),
        "lognorm": (t, np.log(np.maximum(profile.norms(), 1e-300))),
    }
    return case, codes, tables, report


def run_pipeline(cfg: RunConfig) -> tuple[RunManifest, int]:
    if cfg.command != "pipeline":
        raise SchemaError("run_pipeline requires a 'pipeline' config")
    started = time.monotonic()
    params = cfg.params
    lat = _load_lattice(params["lattice"])
    u = load_field(params["u_field"], lat)
    if u.kind != "u":
        raise SchemaError("u_field must have kind 'u'")
    v = None
    if params.get("v_field"):
        v = load_field(params["v_field"], lat)
        if v.kind != "potential":
            raise SchemaError("v_field must have kind 'potential'")
    thetas = theta_grid(lat, params["theta_points"])

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.write_resolved(out_dir)

    fibers = gelfand_forward(u, thetas, params.get("l_max", 10**6))
    results = [
        _theta_case(i, fiber, lat, v, params, cfg.tolerances) for i, fiber in enumerate(fibers)
    ]

    manifest = RunManifest.for_config(cfg)
    codes = [EXIT_OK]
    reports = []
    decay_rows = []
    plot_tables = []
    for (case, case_codes, tables, report) in results:
        idx = case["theta_index"]
        manifest.add_case(f"theta-{idx}", case.get("carleman", "none"), case)
        codes.extend(case_codes)
        write_csv(
            out_dir / f"spectrum_theta{idx}.csv", ["value", "multiplicity"], tables["spectrum"]
        )
        write_csv(out_dir / f"gaps_theta{idx}.csv", ["lo", "hi", "length"], tables["gaps"])
        write_csv(out_dir / f"residual_theta{idx}.csv", ["t", "residual"], tables["residual"])
        if report is not None:
            reports.append(report)
        if case.get("decay_rate") is not None:
            decay_rows.append((idx, case["decay_rate"], case["decay_residual"], case["superexp"]))
        if params.get("plots"):
            xs, ys = tables["lognorm"]
            plot_tables.append(
                PlotTable(
                    name=f"lognorm_theta{idx}", xs=xs, ys=ys,
                    kind="line", x_label="t", y_label="log ||phi||",
                )
            )
    write_csv(out_dir / "decay.csv", ["theta_index", "rate", "fit_residual", "superexp"], decay_rows)
    write_json(out_dir / "carleman_reports.json", reports)
    if plot_tables:
        emit_plots(plot_tables, out_dir)
    manifest.wall_clock_s = time.monotonic() - started
    manifest.write(out_dir)
    write_json(
        out_dir / "summary.json",
        {
            "config_hash": manifest.config_hash,
            "verdict_hash": manifest.verdict_hash(),
            "cases": len(results),
            "exit_code": strictest_exit_code(codes),
        },
    )
    return manifest, strictest_exit_code(codes)
