"""Command-line interface: lattice arithmetic through the full pipeline.

Exit codes follow the package contract: 0 success, 2 precondition refusal,
3 inequality violation beyond tolerance, 4 I/O or schema error; within one
invocation the strictest code wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import carleman as carl
from . import evolution as evo
from .ensembles import bump_case_43, bump_case_gap, solution_like_profile
from .errors import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    HalfspaceDecayError,
    SchemaError,
)
from .fibers import fiber_residual, gelfand_forward, gelfand_inverse, load_fiber, save_fiber, theta_grid
from .fields import load_field, save_field
from .lattice import (
    Lattice,
    Quasimomentum,
    dual_basis,
    format_rational,
    rational_structure,
    unit_cell_volume,
)
from .manifest import read_rows, write_csv, write_json, write_rows
from .pipeline import run_pipeline
from .profiles import SpectralProfile, bump_profile
from .quadrature import uniform_grid
from .runconfig import _SEED, RunConfig
from .spectrum import density_scan, enumerate_spectrum, find_gaps, max_gap_growth
from .lattice import QuadraticForm


def _parse_gram(text: str) -> np.ndarray:
    rows = [_parse_list(r, int) for r in text.split(";") if r.strip()]
    if any(len(row) != len(rows) for row in rows):
        raise SchemaError(f"gram {text!r} is not a square matrix")
    return np.array(rows, dtype=np.int64)


def _json_lines(docs) -> list[str]:
    """One strict JSON line per record; a non-finite number is refused, not written as NaN."""
    try:
        return [json.dumps(doc, allow_nan=False) for doc in docs]
    except ValueError as exc:
        raise SchemaError(f"result is not finite, so it has no JSON form: {exc}") from exc


def _print_json(*docs) -> None:
    """Print the records as JSON lines, or none of them if one is not finite."""
    for line in _json_lines(docs):
        print(line)


def _finite(text: str) -> float:
    """argparse type of every float flag: NaN or inf is a usage error (exit 4)."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _count(text: str) -> int:
    """argparse type of --modes and --ensemble: an integer >= 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def _seed(text: str) -> int:
    """argparse type of every --seed: the config's rule, an integer in [0, 2**64)."""
    kind, check = _SEED
    if not check(value := int(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
    return value


def _parse_list(text: str, kind=_finite) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise SchemaError(f"cannot parse {text!r} as a comma-separated list: {exc}") from exc


def _emit_rows(header, rows, out: str | None) -> None:
    if out:
        write_csv(out, header, rows)
    else:
        print(",".join(header))
        write_rows(sys.stdout, rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="halfspace-decay")
    sub = p.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="dual bases, volumes, rational reduction")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    for name in ("dual", "volume", "rational"):
        sp = lat_sub.add_parser(name)
        sp.add_argument("--lattice", required=True, help="lattice JSON file")
        if name == "rational":
            sp.add_argument("--theta", required=True, help="rational coords, e.g. '1/2,0'")

    sp = sub.add_parser("spectrum", help="fiber-operator spectrum up to a cutoff")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--theta", default=None)
    sp.add_argument("--energy", type=_finite, default=0.0)
    sp.add_argument("--cutoff", type=_finite, required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("gaps", help="spectral gaps (and optional gap-growth table)")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--theta", default=None)
    sp.add_argument("--energy", type=_finite, default=0.0)
    sp.add_argument("--cutoff", type=_finite, default=None, help="required unless --growth")
    sp.add_argument("--min-gap", type=_finite, default=0.0)
    sp.add_argument("--full-axis", action="store_true")
    sp.add_argument("--growth", default=None, help="N list for max-gap growth, e.g. '100,10000'")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("density", help="distinct binary-form values up to N")
    sp.add_argument("--gram", required=True, help="integer matrix 'a,b;b,c'")
    sp.add_argument("--N", type=int, required=True)

    gel = sub.add_parser("gelfand", help="transform, inversion, residual checks")
    gel_sub = gel.add_subparsers(dest="subcommand", required=True)
    for name in ("forward", "inverse", "roundtrip", "residual"):
        sp = gel_sub.add_parser(name)
        sp.add_argument("--lattice", required=True)
        if name == "forward":
            sp.add_argument("--u", required=True)
            sp.add_argument("--theta", required=True)
            sp.add_argument("--lmax", type=int, default=10**6)
            sp.add_argument("--out", required=True, help="fiber .npz output")
        elif name == "inverse":
            sp.add_argument("--fibers", nargs="+", required=True)
            sp.add_argument("--out", required=True)
        elif name == "roundtrip":
            sp.add_argument("--u", required=True)
            sp.add_argument("--theta-points", type=int, required=True)
        else:
            sp.add_argument("--u", required=True)
            sp.add_argument("--theta", required=True)
            sp.add_argument("--v", default=None)
            sp.add_argument("--energy", type=_finite, default=0.0)
            sp.add_argument("--lmax", type=int, default=10**6)
            sp.add_argument("--out", default=None)

    car = sub.add_parser("carleman", help="weighted inequality verification")
    car_sub = car.add_subparsers(dest="subcommand", required=True)
    sp = car_sub.add_parser("verify43")
    sp.add_argument("--eps", type=_finite, required=True)
    sp.add_argument("--weight-lambda", type=_finite, default=None)
    sp.add_argument("--modes", type=_count, default=4)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--ensemble", type=_count, default=1)
    sp.add_argument("--out-dir", default=None)
    sp = car_sub.add_parser("verify-gap")
    sp.add_argument("--a", type=_finite, default=None, help="window start; with --eigs only")
    sp.add_argument("--b", type=_finite, default=None, help="window end; with --eigs only")
    sp.add_argument("--alpha", type=_finite, default=None, help="default 0; with --eigs only")
    sp.add_argument("--eigs", default=None, help="explicit eigenvalues '1,9'; without it, an ensemble")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--ensemble", type=_count, default=1)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--out-dir", default=None)
    sp = car_sub.add_parser("system-check")
    sp.add_argument("--eigs", required=True)
    sp.add_argument("--a", type=_finite, required=True)
    sp.add_argument("--b", type=_finite, required=True)
    sp.add_argument("--seed", type=_seed, default=0)
    sp = car_sub.add_parser("ellreg")
    sp.add_argument("--eps", type=_finite, required=True)
    sp.add_argument("--s-list", required=True, help="window starts '1,2,3'")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--ensemble", type=_count, default=1)

    sp = sub.add_parser("evolve", help="decaying two-point solve plus rate fit")
    sp.add_argument("--eigs", required=True)
    sp.add_argument("--perturbation", choices=("zero", "diagonal", "full"), default="zero")
    sp.add_argument("--beta", type=_finite, default=0.0)
    sp.add_argument("--bound", choices=("const", "exp"), default="exp")
    sp.add_argument("--T", type=_finite, default=None)
    sp.add_argument("--boundary", default=None, help="per-mode values '1,0.5'")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None, help="profile CSV (t, norm)")
    sp.add_argument("--svg", default=None, help="log-norm decay plot output")

    sp = sub.add_parser("decay", help="rate fit of a stored profile")
    sp.add_argument("--input", required=True, help="CSV with columns t,norm")
    sp.add_argument("--window", required=True, help="'a,b'")

    sp = sub.add_parser("counterexample", help="weighted-mass threshold scan")
    sp.add_argument("--lambdas", required=True)
    sp.add_argument("--T", type=_finite, default=1000.0)
    sp.add_argument("--X", type=_finite, default=200.0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("pipeline", help="full field-to-verdict run from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--threads", type=int, default=None, help="accepted and ignored (one worker)")

    return p


def _cmd_lattice(args) -> int:
    lat = Lattice.load(args.lattice)
    theta = Quasimomentum.parse(args.theta) if args.subcommand == "rational" else None
    dual = dual_basis(lat)
    if args.subcommand == "dual":
        doc = {"dual_basis_rows": dual.basis.T.tolist()}
    elif args.subcommand == "volume":
        doc = {"cell_volume": unit_cell_volume(lat), "dual_cell_volume": unit_cell_volume(dual)}
    else:
        sigma, q, l, r = rational_structure(dual, theta)
        doc = {"sigma": format_rational(sigma), "G": q.G.tolist(), "l": l, "r": [int(v) for v in r]}
    _print_json(doc)
    return EXIT_OK


def _theta_or_zero(text, dim: int) -> Quasimomentum:
    return Quasimomentum.parse(text) if text else Quasimomentum.zero(dim)


def _cmd_spectrum(args) -> int:
    lat = Lattice.load(args.lattice)
    theta = _theta_or_zero(args.theta, lat.dim)
    slc = enumerate_spectrum(lat, theta, args.energy, args.cutoff)
    _emit_rows(
        ["value", "multiplicity"],
        [(float(v), int(m)) for v, m in zip(slc.values, slc.mults)],
        args.out,
    )
    return EXIT_OK


def _cmd_gaps(args) -> int:
    lat = Lattice.load(args.lattice)
    theta = _theta_or_zero(args.theta, lat.dim)
    if args.growth:
        dual = dual_basis(lat)
        sigma, q, l, r = rational_structure(dual, theta)
        _emit_rows(["N", "max_gap"], max_gap_growth(q, theta, _parse_list(args.growth, int)), args.out)
        return EXIT_OK
    if args.cutoff is None:
        raise SchemaError("gaps requires --cutoff (or --growth for the growth table)")
    slc = enumerate_spectrum(lat, theta, args.energy, args.cutoff)
    gaps = find_gaps(slc, args.min_gap, full_axis=args.full_axis)
    _emit_rows(["lo", "hi", "length"], [(g.lo, g.hi, g.length) for g in gaps], args.out)
    return EXIT_OK


def _cmd_density(args) -> int:
    q = QuadraticForm(G=_parse_gram(args.gram))
    count, ratio = density_scan(q, args.N)
    _print_json({"count": count, "ratio": ratio})
    return EXIT_OK


def _cmd_gelfand(args) -> int:
    lat = Lattice.load(args.lattice)
    if args.subcommand == "forward":
        u = load_field(args.u, lat)
        theta = Quasimomentum.parse(args.theta)
        fiber = gelfand_forward(u, theta, args.lmax)
        save_fiber(fiber, args.out)
        _print_json({"tail_bound": fiber.tail_bound})
        return EXIT_OK
    if args.subcommand == "inverse":
        u = gelfand_inverse([load_fiber(path, lat) for path in args.fibers], lat)
        save_field(u, args.out)
        return EXIT_OK
    if args.subcommand == "roundtrip":
        u = load_field(args.u, lat)
        fibers = gelfand_forward(u, theta_grid(lat, args.theta_points), 10**6)
        back = gelfand_inverse(fibers, lat)
        if back.cells_shape != u.cells_shape:
            raise SchemaError("round trip box mismatch: theta grid does not resolve the field box")
        err = float(np.max(np.abs(back.values - u.values)))
        _print_json({"max_error": err})
        return EXIT_OK
    u = load_field(args.u, lat)
    theta = Quasimomentum.parse(args.theta)
    fiber = gelfand_forward(u, theta, args.lmax)
    v = load_field(args.v, lat) if args.v else None
    res = fiber_residual(fiber, v, args.energy)
    _emit_rows(["t", "residual"], np.column_stack((fiber.t_grid[1:-1], res)), args.out)
    return EXIT_OK


def _report_dir(out_dir, reports, prefix: str) -> None:
    if not out_dir:
        return
    from .svgplot import PlotTable, emit_plots

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"{prefix}_reports.json", reports)
    rows = [
        (i, r.lhs, r.rhs, r.margin, r.quad_err, str(r.passed))
        for i, r in enumerate(reports)
    ]
    write_csv(out / f"{prefix}_summary.csv", ["case", "lhs", "rhs", "margin", "quad_err", "passed"], rows)
    if len(reports) >= 2:
        xs = tuple(float(i) for i in range(len(reports)))
        ys = tuple(r.margin for r in reports)
        emit_plots([PlotTable(f"{prefix}_margins", xs, ys, x_label="case", y_label="margin")], out)


def _emit_reports(reports, out_dir, prefix: str) -> int:
    """Write the optional report directory and print each report as JSON.

    EXIT_VIOLATION iff some report failed; a forced report has no verdict.
    """
    lines = _json_lines(dataclasses.asdict(r) for r in reports)  # refuse before writing anything
    _report_dir(out_dir, reports, prefix)
    for line in lines:
        print(line)
    return EXIT_VIOLATION if any(r.passed is False for r in reports) else EXIT_OK


def _fixed_profile(eigs_text: str, alpha: float | None = None) -> SpectralProfile:
    """Unit amplitudes on one smooth bump over (0.5, 3), on 4097 points of [0, 4]."""
    modes = [(mu, 1.0) for mu in _parse_list(eigs_text)]
    return bump_profile((0.5, 3.0), modes, uniform_grid(4.0, 4097), alpha=alpha)


def _cmd_carleman(args) -> int:
    if args.subcommand == "verify43":
        lam_min = carl.min_weight_lambda(args.eps)  # a bad --eps is refused before a case builds its grid
        wl = lam_min if args.weight_lambda is None else args.weight_lambda

        def run_case_43(i):
            profile, _ = bump_case_43(args.seed, i, args.eps, wl, max_modes=args.modes)
            return carl.verify_carleman_43(profile, wl, args.eps)

        return _emit_reports([run_case_43(i) for i in range(args.ensemble)], args.out_dir, "verify43")
    if args.subcommand == "verify-gap":
        fixed = None
        if args.eigs is not None:
            if args.a is None or args.b is None:
                raise SchemaError("verify-gap --eigs needs --a and --b")
            alpha = 0.0 if args.alpha is None else args.alpha
            fixed = (_fixed_profile(args.eigs, alpha), args.a, args.b, alpha)
        elif (args.a, args.b, args.alpha) != (None, None, None):
            raise SchemaError("--a, --b and --alpha need --eigs: each ensemble case draws its own window")

        def run_case_gap(i):
            profile, a, b, alpha = fixed or bump_case_gap(args.seed, i)
            return carl.verify_carleman_gap(profile, a, b, alpha, force=args.force)

        return _emit_reports([run_case_gap(i) for i in range(args.ensemble)], args.out_dir, "verify_gap")
    if args.subcommand == "system-check":
        report = carl.first_order_system_check(_fixed_profile(args.eigs), args.a, args.b)
        doc = dataclasses.asdict(report)
        for key in ("min_eig_b0", "min_eig_b1", "max_eig_b2"):
            if np.isinf(doc[key]):  # the +-inf of a bound over an empty projector range
                doc[key] = None
        _print_json(doc)
        return EXIT_OK if report.certificates_ok else EXIT_VIOLATION
    s_list = _parse_list(args.s_list)
    reports = [carl.ellreg_bound_check(solution_like_profile(args.seed, i)[0], args.eps, s_list)
               for i in range(args.ensemble)]
    _print_json(*(dataclasses.asdict(r) for r in reports))
    return EXIT_OK


def _cmd_evolve(args) -> int:
    eigs = _parse_list(args.eigs)
    pert = evo.PerturbationFamily.zero()
    if args.perturbation != "zero":
        bound = (evo.constant_bound if args.bound == "const" else evo.exponential_bound)(args.beta)
        pert = evo.PerturbationFamily(args.perturbation, bound, args.beta, args.bound == "exp", args.seed)
    T = evo.default_horizon(eigs) if args.T is None else args.T
    g = _parse_list(args.boundary) if args.boundary else [1.0] * len(eigs)
    result = evo.solve_decaying(eigs, pert, T, g)
    window = evo.default_tail_window(T)
    est = evo.decay_rate_estimate(result.profile, window)
    t, norms = result.profile.t_grid, result.profile.norms()
    if args.out:
        write_csv(args.out, ["t", "norm"], np.column_stack((t, norms)))
    if args.svg:
        from .svgplot import PlotTable, render_svg

        table = PlotTable(
            name=Path(args.svg).stem, xs=t, ys=np.log(np.maximum(norms, 1e-300)),
            x_label="t", y_label="log ||phi||",
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(table))
    _print_json({"solver_residual": result.residual, "growth": result.growth, "decay": dataclasses.asdict(est)})
    return EXIT_OK


def _load_profile_csv(path) -> np.ndarray:
    """The finite (t, norm, ...) rows of a CSV with one header line."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        rows = read_rows(fh, "profile")
    if rows.shape[1] < 2 or not np.all(np.isfinite(rows)):
        raise SchemaError("profile needs finite rows with at least the columns t,norm")
    return rows


def _cmd_decay(args) -> int:
    window = tuple(_parse_list(args.window))
    if len(window) != 2:
        raise SchemaError(f"--window takes exactly two numbers 'a,b', not {args.window!r}")
    rows = _load_profile_csv(args.input)
    t, norms = rows[:, 0], rows[:, 1]
    profile = SpectralProfile(
        eigs=np.array([0.0]), t_grid=t, coeffs=norms[None, :].astype(complex)
    )
    est = evo.decay_rate_estimate(profile, window)
    _print_json(dataclasses.asdict(est))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    rows = evo.harmonic_counterexample(_parse_list(args.lambdas), args.T, args.X)
    header = [f.name for f in dataclasses.fields(evo.CounterexampleRow)]  # no tail bound prints as nan
    _emit_rows(header, [tuple(math.nan if v is None else v for v in dataclasses.astuple(r)) for r in rows], args.out)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = RunConfig.load(args.config)
    cfg = dataclasses.replace(
        cfg,
        out_dir=args.out_dir or cfg.out_dir,
        threads=cfg.threads if args.threads is None else args.threads,
    )
    manifest, code = run_pipeline(cfg)
    _print_json({"verdict_hash": manifest.verdict_hash(), "exit_code": code})
    return code


_HANDLERS = {
    "lattice": _cmd_lattice,
    "spectrum": _cmd_spectrum,
    "gaps": _cmd_gaps,
    "density": _cmd_density,
    "gelfand": _cmd_gelfand,
    "carleman": _cmd_carleman,
    "evolve": _cmd_evolve,
    "decay": _cmd_decay,
    "counterexample": _cmd_counterexample,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage; a usage error is a schema error
        return EXIT_IO if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except HalfspaceDecayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
