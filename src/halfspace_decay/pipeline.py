"""End-to-end run: fields -> fibers -> residuals, gaps, inequality checks, decay.

Per quasimomentum on the midpoint grid one stage table computes the fiber's
equation residual, spectrum slice with gap table and profile, a gap-inequality
verification on the windowed profile (where an admissible window exists) and a
tail decay estimate; a refused stage is one refusal of its case.  What every
case would repeat is done once per run: theta and -theta share one exact
spectrum slice and gap table, and the residual tables one formatted t column.
Results are written as CSV/JSON next to a resolved copy of the configuration,
and summarised in a manifest whose verdict hash is reproducible bit-for-bit for
a fixed config and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .carleman import PASS_RTOL, gap_window_refusal, verify_carleman_gap
from .errors import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VIOLATION,
    BudgetExceededError,
    PreconditionError,
    SchemaError,
    strictest_exit_code,
)
from .evolution import decay_rate_estimate
from .fibers import check_potential_grid, check_residual_t_grid, fiber_residual, gelfand_forward, theta_grid
from .fields import load_field
from .lattice import Lattice
from .manifest import RunManifest, _dump_json, write_csv, write_json
from .profiles import SpectralProfile, check_t_start, plateau_shape
from .quadrature import GATE_RTOL
from .runconfig import _COUNT, _NUMBER, _POSITIVE_INT, RunConfig, _is_int, _is_number, check_keys
from .spectrum import enumerate_spectrum, find_gaps
from .svgplot import PlotTable, emit_plots

# bytes of fiber samples a theta grid may ask of gelfand_forward: P^d fibers of n^d x n_t complex
THETA_GRID_BYTES = 2**30
# share of the profile's t-span cut off at each end of the Carleman window;
# the taper of each side must leave the plateau between them non-empty
WINDOW_MARGIN = 0.02
MAX_TAPER = 0.5 - WINDOW_MARGIN
REQUIRED = object()  # the default of a key that must be given
# Every key of a config's params and of its tolerances, by document: key -> (type, default).  A type
# is (description, check) and holds its key's range, so all of them are checked before any file is read.
PARAMETERS = {
    "pipeline parameter": {
        "lattice": (("a lattice document or a file path", lambda v: isinstance(v, (dict, str))), REQUIRED),
        "u_field": (("a file path", lambda v: isinstance(v, str)), REQUIRED),
        "theta_points": (_POSITIVE_INT, REQUIRED),
        "v_field": (("a file path or null", lambda v: v is None or isinstance(v, str)), None),
        "energy": (_NUMBER, 0.0),
        "l_max": (_COUNT, 10**6),
        "cutoff": (_NUMBER, 50.0),
        "min_gap": (_NUMBER, 0.0),
        "max_modes": (("an integer >= 1 or null", lambda v: v is None or (_is_int(v) and v >= 1)), 16),
        "carleman_taper": ((f"a finite number in (0, {MAX_TAPER})", lambda v: _is_number(v) and 0 < v < MAX_TAPER),
                           0.2),
        "decay_window": (("null or a pair of finite numbers a < b",
                          lambda v: v is None or (isinstance(v, (list, tuple)) and len(v) == 2
                                                  and all(_is_number(x) for x in v) and v[0] < v[1])), None),
        "plots": (("true or false", lambda v: isinstance(v, bool)), False),
    },
    "tolerance": {
        "carleman_pass_rtol": (("a finite number >= 0", lambda v: _is_number(v) and v >= 0), PASS_RTOL),
        "resolution_gate_rtol": (("a finite number > 0", lambda v: _is_number(v) and v > 0), GATE_RTOL),
    },
}


def _load_lattice(spec) -> Lattice:
    return Lattice.from_json(spec) if isinstance(spec, dict) else Lattice.load(spec)


def _window_profile(profile: SpectralProfile, taper_frac: float) -> SpectralProfile:
    """Compactly supported copy: coefficients times a plateau cut-off."""
    t = profile.t_grid
    n_use = t.size - (t.size - 1) % 4  # largest n' <= n with 4 | n'-1 (Simpson + error estimate)
    t = t[:n_use]
    coeffs = profile.coeffs[:, :n_use]
    span = t[-1] - t[0]
    margin = WINDOW_MARGIN * span
    taper = taper_frac * span
    shape = plateau_shape(t, t[0] + margin, t[-1] - margin, taper)
    return SpectralProfile(eigs=profile.eigs, t_grid=t, coeffs=coeffs * shape[None, :])


def _admissible_window(gaps, alpha: float):
    """First gap, slightly shrunk, that carleman's rule takes as (a^2, b^2)."""
    for gap in gaps:
        a, b = math.sqrt(gap.lo * (1.0 + 1e-9)), math.sqrt(gap.hi * (1.0 - 1e-9))
        if gap_window_refusal(a, b, alpha) is None:
            return a, b
    return None


def _pm_class(theta, lat: Lattice):
    """One key per class {theta, -theta} whose spectrum slice is exact; None for a float slice.

    The values |k + theta|^2 - E over the dual lattice are even in theta (k -> -k),
    and the exact path counts them from integers, so theta = r/l and -theta =
    ((l - r) mod l)/l give bit-identical slices.
    """
    if theta.exact is None or lat.dual_gram_exact is None:
        return None
    l, r = theta.exact
    return l, min(r, tuple((l - x) % l for x in r))


def _residual_stage(c) -> dict:
    residuals = fiber_residual(c.fiber, c.v, c.params["energy"])
    # every fiber carries the field's t-grid: its interior column is formatted once per run
    write_csv(c.out_dir / f"residual_theta{c.idx}.csv", ["t", "residual"],
              list(zip(c.shared.t_text, residuals.tolist())))
    return {"max_residual": float(np.max(residuals)) if residuals.size else 0.0}


def _spectrum_stage(c) -> dict:
    key = _pm_class(c.fiber.theta, c.lat)
    if key is None or key not in c.shared.slices:  # a float slice (key None) is computed per case
        slc = enumerate_spectrum(c.lat, c.fiber.theta, c.params["energy"], c.params["cutoff"])
        c.shared.slices[key] = slc, find_gaps(slc, c.params["min_gap"])
    slc, c.gaps = c.shared.slices[key]
    c.alpha = max(0.0, -float(slc.values[0])) if slc.values.size else 0.0  # the operator's, not the profile modes'
    write_csv(c.out_dir / f"spectrum_theta{c.idx}.csv", ["value", "multiplicity"],
              list(zip(slc.values.tolist(), slc.mults.tolist())))
    write_csv(c.out_dir / f"gaps_theta{c.idx}.csv", ["lo", "hi", "length"],
              [(g.lo, g.hi, g.length) for g in c.gaps])
    return {"spectrum_count": int(slc.values.size), "gap_count": len(c.gaps)}


def _profile_stage(c) -> dict:
    c.profile, dropped = c.fiber.to_profile(c.params["energy"], max_modes=c.params["max_modes"])
    if c.params["plots"]:
        ys = np.log(np.maximum(c.profile.norms(), 1e-300))
        emit_plots([PlotTable(name=f"lognorm_theta{c.idx}", xs=c.profile.t_grid, ys=ys,
                              x_label="t", y_label="log ||phi||")], c.out_dir)
    return {"dropped_mode_mass": dropped}


def _carleman_stage(c) -> dict:
    window = _admissible_window(c.gaps, c.alpha)
    if window is None:
        return {"carleman": "no-admissible-gap"}
    windowed = _window_profile(c.profile, c.params["carleman_taper"])
    c.report = verify_carleman_gap(windowed, *window, c.alpha, pass_rtol=c.params["carleman_pass_rtol"],
                                   gate_rtol=c.params["resolution_gate_rtol"])
    return {"carleman": "pass" if c.report.passed else "fail", "carleman_margin": c.report.margin}


def _decay_stage(c) -> dict:
    est = decay_rate_estimate(c.profile, c.params["decay_window"])
    return {"decay_rate": est.rate, "decay_residual": est.residual, "superexp": est.superexp}


# (name, stage, the stages it reads, exit code of its refusal, the case fields its refusal
# leaves: None for "<name>": "refused: <reason>"); a refused decay fit leaves a null rate
_STAGES = (
    ("residual", _residual_stage, (), EXIT_PRECONDITION, None),
    ("spectrum", _spectrum_stage, (), EXIT_PRECONDITION, None),
    ("profile", _profile_stage, (), EXIT_PRECONDITION, None),
    ("carleman", _carleman_stage, ("spectrum", "profile"), EXIT_PRECONDITION, None),
    ("decay", _decay_stage, ("profile",), EXIT_OK, {"decay_rate": None}),
)


def _theta_case(idx, fiber, lat, v, params, out_dir, shared):
    """One quasimomentum's case record, exit code, Carleman report (or None) and refusals.

    Runs the stages of ``_STAGES`` in order.  A stage refused by a
    PreconditionError, or reading a refused stage ("needs <stage>"), is one
    refusal of this case, its reason kept in ``{stage: reason}``; the run goes on.
    ``shared`` holds the run's formatted t column and its spectrum slices by ``_pm_class``.
    """
    c = SimpleNamespace(idx=idx, fiber=fiber, lat=lat, v=v, params=params, out_dir=out_dir, shared=shared,
                        report=None)
    case = {"theta_index": idx, "theta": [float(m) for m in fiber.theta.coeffs], "tail_bound": fiber.tail_bound}
    code, refusals = EXIT_OK, {}
    for name, stage, reads, refusal_code, refused_fields in _STAGES:
        try:
            if needed := next((read for read in reads if read in refusals), None):
                raise PreconditionError(f"needs {needed}")
            case.update(stage(c))
        except PreconditionError as exc:
            refusals[name] = str(exc)
            case.update(refused_fields or {name: f"refused: {exc}"})
            code = max(code, refusal_code)
    if c.report is not None and not c.report.passed:
        code = EXIT_VIOLATION
    return case, code, c.report, refusals


def checked_params(cfg: RunConfig) -> dict:
    """The config's params and tolerances over the defaults of ``PARAMETERS``; a key not of its type is refused."""
    params = {}
    for what, doc in (("pipeline parameter", cfg.params), ("tolerance", cfg.tolerances)):
        keys = PARAMETERS[what]
        check_keys(what, doc, {key: (kind, default is REQUIRED) for key, (kind, default) in keys.items()})
        params |= {key: default for key, (_, default) in keys.items() if default is not REQUIRED} | doc
    return params


def run_pipeline(cfg: RunConfig) -> tuple[RunManifest, int]:
    params = checked_params(cfg)
    started = time.monotonic()
    lat = _load_lattice(params["lattice"])
    u = load_field(params["u_field"], lat, "u")
    check_residual_t_grid(u)
    check_t_start(u.t_start)  # the profile stage's rule, before any output
    v = None
    if params["v_field"]:
        v = load_field(params["v_field"], lat, "potential")
        check_potential_grid(v, u)
    window_t = params["decay_window"]
    if window_t is not None and not (u.t_start <= window_t[0] and window_t[1] <= u.t_end):
        raise SchemaError(f"decay_window {window_t} must satisfy t_start <= a < b <= t_end of the field")
    fiber_bytes = params["theta_points"] ** lat.dim * u.points_per_cell**u.dim * u.n_t * 16
    if fiber_bytes > THETA_GRID_BYTES:
        raise BudgetExceededError(f"a theta grid of {params['theta_points']}^{lat.dim} fibers needs "
                                  f"{fiber_bytes} bytes, budget is {THETA_GRID_BYTES}")
    thetas = theta_grid(lat, params["theta_points"])

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "resolved_config.json", asdict(cfg))  # the config as given, not canonicalized

    manifest = RunManifest.for_config(cfg)
    codes = [EXIT_OK]
    reports = []
    decay_rows = []
    fibers = gelfand_forward(u, thetas, params["l_max"])
    del u  # the fibers are all the cases read: one field size less while they run
    shared = SimpleNamespace(t_text=["%.17g" % t for t in fibers[0].t_grid[1:-1].tolist()], slices={})
    for idx in range(len(fibers)):
        # take the fiber out of the list: its cached coefficients go with it after its case
        fiber, fibers[idx] = fibers[idx], None
        case, code, report, refusals = _theta_case(idx, fiber, lat, v, params, out_dir, shared)
        if report is not None:
            reports.append(report)
        manifest.add_case(f"theta-{idx}", case["carleman"], case)
        if refusals:
            manifest.diagnostics[f"theta-{idx}"] = refusals
        codes.append(code)
        if case["decay_rate"] is not None:
            decay_rows.append((idx, case["decay_rate"], case["decay_residual"], case["superexp"]))
    write_csv(out_dir / "decay.csv", ["theta_index", "rate", "fit_residual", "superexp"], decay_rows)
    write_json(out_dir / "carleman_reports.json", reports)
    manifest.wall_clock_s = time.monotonic() - started
    doc = manifest.write(out_dir)
    exit_code = strictest_exit_code(codes)
    summary = {"config_hash": manifest.config_hash, "verdict_hash": doc["verdict_hash"],
               "cases": len(manifest.cases), "exit_code": exit_code}
    write_json(out_dir / "summary.json", summary)
    return manifest, exit_code
