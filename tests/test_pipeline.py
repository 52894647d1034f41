import contextlib
import dataclasses
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_potential, manufactured_line_input, traced_peak
from halfspace_decay import BudgetExceededError, GridError, RunConfig, SchemaError, cli, fields, manifest, pipeline, run_pipeline, svgplot
from halfspace_decay.carleman import CarlemanReport
from halfspace_decay.fibers import fiber_residual, gelfand_forward, theta_grid
from halfspace_decay.fields import load_field, save_field
from halfspace_decay.lattice import Lattice, Quasimomentum
from halfspace_decay.manifest import RunManifest, write_csv, write_rows
from halfspace_decay.spectrum import Gap, enumerate_spectrum
from halfspace_decay.svgplot import PlotTable, emit_plots, render_svg


def pipeline_config(lat_path, u_path, out_dir, seed=11, threads=None, **extra):
    params = {
        "lattice": str(lat_path),
        "u_field": str(u_path),
        "energy": 0.0,
        "theta_points": 3,
        "cutoff": 30.0,
    }
    params.update(extra)
    return RunConfig(
        command="pipeline", params=params, seed=seed, out_dir=str(out_dir), threads=threads
    )


def test_pipeline_manufactured_mode(line_pipeline_input, tmp_path):
    lat_path, u_path, lat = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run")
    manifest, code = run_pipeline(cfg)
    assert code == 0
    assert len(manifest.cases) == 3
    for case in manifest.cases:
        data = case["data"]
        mu = (1.0 + data["theta"][0]) ** 2
        assert data["max_residual"] < 1e-4
        assert data["decay_rate"] == pytest.approx(math.sqrt(mu), rel=0.01)
        assert data["carleman"] == "pass"
        assert data["superexp"] is False
    out = tmp_path / "run"
    for name in ("manifest.json", "summary.json", "decay.csv", "resolved_config.json"):
        assert (out / name).exists()


def test_pipeline_residual_matches_module_path(line_pipeline_input, tmp_path):
    lat_path, u_path, lat = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run")
    manifest, _ = run_pipeline(cfg)
    u = load_field(u_path, lat)
    for idx, theta in enumerate(theta_grid(lat, 3)):
        fiber = gelfand_forward(u, theta, 10**6)
        res = fiber_residual(fiber, None, 0.0)
        expected = float(np.max(res))
        got = manifest.cases[idx]["data"]["max_residual"]
        assert got == pytest.approx(expected, abs=1e-10)


def _plane_input(tmp_path, mode=(1, 0), n=4, grid=2):
    """2D field whose fibers at the grid x grid midpoint grid are single decaying torus modes, n points per cell."""
    from halfspace_decay.fibers import BlochFiber, gelfand_inverse

    two_pi = 2.0 * math.pi
    lat = Lattice(
        basis=two_pi * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]]
    )
    nt, t_end = 1025, 5.0
    t = np.linspace(0.0, t_end, nt)
    mode = np.array(mode)
    x_modes = np.exp(2j * math.pi * (np.arange(n)[:, None] * mode[0] + np.arange(n)[None, :] * mode[1]) / n)
    fibers = []
    for theta in theta_grid(lat, grid):
        kappa = float(np.linalg.norm(mode + theta.coeffs))
        data = x_modes[..., None] * np.exp(-kappa * t)[None, None, :]
        fibers.append(
            BlochFiber(theta=theta, lattice=lat, points_per_cell=n, t_start=0.0, t_end=t_end, data=data)
        )
    u = gelfand_inverse(fibers, lat)
    tmp_path.mkdir(parents=True, exist_ok=True)
    lat_path = tmp_path / "lat2.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    u_path = tmp_path / "u2.npz"
    save_field(u, u_path)
    return lat_path, u_path


def test_pipeline_shares_one_exact_slice_per_plus_minus_theta_class(tmp_path, monkeypatch):
    """On a skewed dual lattice, where reflecting one theta coordinate moves the spectrum, each case's
    spectrum and gaps CSV is its own theta's, from one enumeration per class {theta, -theta}."""
    from halfspace_decay.fibers import BlochFiber, gelfand_inverse
    from halfspace_decay.spectrum import find_gaps

    lat = Lattice.from_dual_gram([["2", "1"], ["1", "3"]])
    n, per_axis, nt = 4, 4, 65
    rng = np.random.default_rng(3)
    thetas = theta_grid(lat, per_axis)
    u = gelfand_inverse([BlochFiber(theta=q, lattice=lat, points_per_cell=n, t_start=0.0, t_end=2.0,
                                    data=rng.normal(size=(n, n, nt)) + 1j * rng.normal(size=(n, n, nt)))
                         for q in thetas], lat)
    lat_path, u_path = tmp_path / "lat.json", tmp_path / "u.npz"
    lat_path.write_text(json.dumps(lat.to_json()))
    save_field(u, u_path)
    real, enumerated = pipeline.enumerate_spectrum, []

    def counted(lat_, theta, *args):
        enumerated.append(theta.exact)
        return real(lat_, theta, *args)

    monkeypatch.setattr(pipeline, "enumerate_spectrum", counted)
    run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=per_axis, cutoff=20.0))
    # 16 midpoint thetas r/8 with r odd: none is its own negative, so 8 classes, each enumerated once
    l = 2 * per_axis
    assert len(enumerated) == len(thetas) // 2
    assert {min(r, tuple(l - x for x in r)) for _, r in enumerated} == {
        min(q.exact[1], tuple(l - x for x in q.exact[1])) for q in thetas}
    for idx, q in enumerate(thetas):
        slc = real(lat, q, 0.0, 20.0)
        spectrum = np.loadtxt(tmp_path / "run" / f"spectrum_theta{idx}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(spectrum[:, 0], slc.values) and np.array_equal(spectrum[:, 1], slc.mults)
        gaps = np.loadtxt(tmp_path / "run" / f"gaps_theta{idx}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(gaps, np.array([(g.lo, g.hi, g.length) for g in find_gaps(slc)]).reshape(-1, 3))
    # a per-axis reflection is not a symmetry here: theta = (1, 3)/8 and (1, 5)/8 differ
    one_axis = [real(lat, Quasimomentum.from_rational(l, r), 0.0, 20.0).values for r in ((1, 3), (1, 5))]
    assert not np.array_equal(*one_axis)


def test_pipeline_two_dimensional_lattice(tmp_path):
    mode = np.array([1, 0])
    lat_path, u_path = _plane_input(tmp_path, mode)
    cfg = RunConfig(
        command="pipeline",
        params={
            "lattice": str(lat_path),
            "u_field": str(u_path),
            "energy": 0.0,
            "theta_points": 2,
            "cutoff": 20.0,
        },
        seed=2,
        out_dir=str(tmp_path / "run2d"),
    )
    manifest, code = run_pipeline(cfg)
    assert code == 0
    assert len(manifest.cases) == 4
    for case in manifest.cases:
        data = case["data"]
        kappa = float(np.linalg.norm(mode + np.array(data["theta"])))
        assert data["max_residual"] < 1e-3
        assert data["decay_rate"] == pytest.approx(kappa, rel=0.01)
        assert data["carleman"] == "pass"


def test_pipeline_manufactured_potential_pair(tmp_path):
    # fibers built with kappa = sqrt(mu + v0) solve the fiber equation with a
    # constant potential v0; the pipeline must reproduce the module residual
    import json
    from halfspace_decay.fibers import BlochFiber, gelfand_inverse, theta_grid
    from halfspace_decay.fields import save_field
    from halfspace_decay.lattice import Lattice

    two_pi = 2.0 * math.pi
    lat = Lattice(basis=np.array([[two_pi]]), dual_gram_exact=[["1"]])
    v0 = 0.7
    n, nt, t_end = 8, 1025, 5.0
    t = np.linspace(0.0, t_end, nt)
    fibers = []
    for theta in theta_grid(lat, 3):
        kappa = math.sqrt((1.0 + theta.coeffs[0]) ** 2 + v0)
        data = np.exp(2j * math.pi * np.arange(n) / n)[:, None] * np.exp(-kappa * t)[None, :]
        fibers.append(
            BlochFiber(theta=theta, lattice=lat, points_per_cell=n, t_start=0.0, t_end=t_end, data=data)
        )
    u = gelfand_inverse(fibers, lat)
    v = constant_potential(lat, v0, n, 0.0, t_end, nt)
    lat_path = tmp_path / "lat.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    u_path, v_path = tmp_path / "u.csv", tmp_path / "v.csv"
    save_field(u, u_path)
    save_field(v, v_path)
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", v_field=str(v_path))
    manifest, code = run_pipeline(cfg)
    assert code == 0
    for idx, theta in enumerate(theta_grid(lat, 3)):
        fiber = gelfand_forward(load_field(u_path, lat), theta, 10**6)
        res = fiber_residual(fiber, load_field(v_path, lat), 0.0)
        got = manifest.cases[idx]["data"]["max_residual"]
        assert got == pytest.approx(float(np.max(res)), abs=1e-10)
        assert got < 1e-3  # manufactured solution: O(h^2) residual
        kappa = math.sqrt((1.0 + theta.coeffs[0]) ** 2 + v0)
        assert manifest.cases[idx]["data"]["decay_rate"] == pytest.approx(kappa, rel=0.01)


def test_pipeline_one_fft_per_theta(tmp_path, monkeypatch):
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=5)
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    manifest, code = run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=5))
    assert code == 0 and len(manifest.cases) == 5
    assert len(calls) == 5


def _second_residual_raises(monkeypatch, exc):
    calls = []

    def failing_residual(*args):
        calls.append(1)
        if len(calls) == 2:
            raise exc
        return fiber_residual(*args)

    monkeypatch.setattr(pipeline, "fiber_residual", failing_residual)


def test_pipeline_refused_stage_is_one_refused_case(tmp_path, monkeypatch):
    """A refusal in any stage refuses that stage of its case; the run goes on and is written."""
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=3)
    _second_residual_raises(monkeypatch, GridError("second case fails"))
    assert _cli_exit_code(pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=3), tmp_path) == 2
    out = tmp_path / "run"
    doc = json.loads((out / "manifest.json").read_text())
    assert [c["id"] for c in doc["cases"]] == ["theta-0", "theta-1", "theta-2"]
    refused = doc["cases"][1]
    assert refused["data"]["residual"] == "refused: second case fails" and "max_residual" not in refused["data"]
    # neither the Carleman check nor the decay fit reads the residual
    assert refused["verdict"] == "pass" and refused["data"]["decay_rate"] is not None
    assert doc["diagnostics"] == {"theta-1": {"residual": "second case fails"}}
    assert json.loads((out / "summary.json").read_text())["exit_code"] == 2
    assert not (out / "residual_theta1.csv").exists() and (out / "residual_theta2.csv").exists()


def test_pipeline_aborted_run_keeps_earlier_cases_without_manifest(tmp_path, monkeypatch):
    """Each case writes its files as it runs: an I/O or schema error in a later case
    ends the run (exit 4), leaves the earlier cases' CSVs, and no manifest or summary
    marks the run as complete."""
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=3)
    for exc in (SchemaError("second case is malformed"), OSError("second case cannot be read")):
        _second_residual_raises(monkeypatch, exc)
        out = tmp_path / type(exc).__name__
        assert _cli_exit_code(pipeline_config(lat_path, u_path, out, theta_points=3), tmp_path) == 4
        assert (out / "residual_theta0.csv").exists() and not (out / "residual_theta1.csv").exists()
        assert not (out / "manifest.json").exists() and not (out / "summary.json").exists()


def test_pipeline_spectrum_over_budget_is_refused_per_case(tmp_path):
    """An enumeration over budget refuses the spectrum of every case, and the
    Carleman check that reads it; the residual and decay fit still run."""
    lat_path, u_path = _plane_input(tmp_path)
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=2, cutoff=1e9)
    assert _cli_exit_code(cfg, tmp_path) == 2
    out = tmp_path / "run"
    doc = json.loads((out / "manifest.json").read_text())
    assert json.loads((out / "summary.json").read_text())["exit_code"] == 2
    assert len(doc["cases"]) == 4
    for case in doc["cases"]:
        data = case["data"]
        assert data["spectrum"].startswith("refused: enumeration needs ") and "spectrum_count" not in data
        assert case["verdict"] == "refused: needs spectrum"
        assert math.isfinite(float(data["decay_rate"])) and float(data["max_residual"]) < 1e-3
        assert doc["diagnostics"][case["id"]] == {
            "spectrum": data["spectrum"].removeprefix("refused: "), "carleman": "needs spectrum"}
    assert not list(out.glob("spectrum_theta*.csv")) and not list(out.glob("gaps_theta*.csv"))


def test_pipeline_failing_carleman_case_is_a_violation(line_pipeline_input, tmp_path, monkeypatch):
    """A case whose gap inequality fails is labelled `fail`, keeps its report and exits 3."""
    failed = CarlemanReport(lhs=2.0, rhs=1.0, margin=-1.0, quad_err=0.0, passed=False, params={})
    monkeypatch.setattr(pipeline, "verify_carleman_gap", lambda *args, **kwargs: failed)
    lat_path, u_path, _ = line_pipeline_input
    assert _cli_exit_code(pipeline_config(lat_path, u_path, tmp_path / "run"), tmp_path) == 3
    out = tmp_path / "run"
    doc = json.loads((out / "manifest.json").read_text())
    assert len(doc["cases"]) == 3 and doc["diagnostics"] == {}
    for case in doc["cases"]:
        assert case["verdict"] == "fail" and case["data"]["carleman"] == "fail"
        assert float(case["data"]["carleman_margin"]) < 0.0
    assert json.loads((out / "summary.json").read_text())["exit_code"] == 3
    reports = json.loads((out / "carleman_reports.json").read_text())
    assert len(reports) == 3 and all(r["passed"] is False and r["margin"] == "-1" for r in reports)


@pytest.mark.parametrize("alpha, used", [(2.9, True), (3.0 + 2e-9, True), (3.0 + 4e-9, False)])
def test_admissible_window_needs_three_a_squared_above_alpha(alpha, used):
    """A gap at a^2 = 1, shrunk by 1e-9 to 3 a^2 = 3 + 3e-9, is used below that alpha only."""
    window = pipeline._admissible_window([Gap(lo=1.0, hi=4.0)], alpha)
    assert (window is not None) == used
    if used:
        assert window == pytest.approx((1.0, 2.0), rel=1e-9)


def test_admissible_window_keeps_a_narrow_gap():
    """The 1e-9 shrink leaves a gap with hi/lo - 1 = 1e-6 usable, and one of 1e-9 not."""
    a, b = pipeline._admissible_window([Gap(lo=1.0, hi=1.0 + 1e-6)], 0.5)
    assert 1.0 < a < b < math.sqrt(1.0 + 1e-6)
    assert pipeline._admissible_window([Gap(lo=1.0, hi=1.0 + 1e-9)], 0.5) is None


def test_pipeline_window_takes_alpha_from_the_spectrum_slice(tmp_path):
    """3a^2 > alpha for the operator: alpha is the slice's -min, not that of the profile's retained modes.

    At energy 0.5 the 16 heaviest modes of some fibers miss the slice's lowest
    value, so their own alpha is 0 while the operator's is up to 0.43.
    """
    lat_path, u_path = _plane_input(tmp_path, n=8)
    cfg = RunConfig(command="pipeline", params={"lattice": str(lat_path), "u_field": str(u_path), "energy": 0.5,
                                                "theta_points": 6, "cutoff": 20.0, "max_modes": 16},
                    seed=2, out_dir=str(tmp_path / "run"))
    manifest, _ = run_pipeline(cfg)
    reports = iter(json.loads((tmp_path / "run" / "carleman_reports.json").read_text()))
    lat = Lattice.load(lat_path)
    checked = 0
    for case, theta in zip(manifest.cases, theta_grid(lat, 6), strict=True):
        assert case["data"]["carleman"] in ("pass", "fail", "no-admissible-gap")  # no window the verifier refuses
        if case["data"]["carleman"] == "no-admissible-gap":
            continue
        params = next(reports)["params"]
        a, alpha = float(params["a"]), float(params["alpha"])
        assert alpha == max(0.0, -float(enumerate_spectrum(lat, theta, 0.5, 20.0).values[0]))
        assert 3.0 * a * a > alpha
        checked += 1
    assert checked and next(reports, None) is None


def test_profile_keeps_the_massive_modes_and_no_roundoff(tmp_path):
    """At most max_modes modes, and none of the DFT's roundoff (mass about 1e-30 here).

    The 8-point field of the mode (1, 0) built on the 2 x 2 fiber grid has, at theta = (1, 9)/12,
    8 modes of mass above 40 and 56 of 1e-29 or less; built on the 6 x 6 grid it has one mode per
    case.  Every mode holds more than 1e-5 of its fiber's mass, or less than 1e-28.
    The fibers scaled by 3, whose roundoff differs, keep the same eigenvalues in every case, and
    so do those scaled by 1e-170 and 1e160, whose squared moduli under- and overflow.  A zero
    fiber has no modes.
    """
    for grid in (2, 6):
        lat_path, u_path = _plane_input(tmp_path / f"grid{grid}", n=8, grid=grid)
        lat = Lattice.load(lat_path)
        for fiber in gelfand_forward(load_field(u_path, lat), theta_grid(lat, 6), 10**6):
            mass = np.sum(np.abs(fiber.coefficients.reshape(-1, fiber.n_t)) ** 2, axis=1)
            share = mass / mass.sum()
            assert np.all((share > 1e-5) | (share < 1e-28))  # the data, and the roundoff
            massive = np.argsort(-mass, kind="stable")[: np.count_nonzero(share > 1e-5)]
            profile, _ = fiber.to_profile(0.5, max_modes=16)
            eigs = fiber.mode_eigenvalues(0.5).reshape(-1)
            assert np.array_equal(profile.eigs, eigs[massive[:16]])
            for scale in (3.0, 1e-170, 1e160):
                scaled = dataclasses.replace(fiber, data=scale * fiber.data)
                assert np.array_equal(scaled.to_profile(0.5, max_modes=16)[0].eigs, profile.eigs)
            if grid == 6:
                mode = np.array([1, 0]) + fiber.theta.coeffs
                assert profile.eigs.tolist() == pytest.approx([float(mode @ mode) - 0.5])
            elif fiber.theta.exact == (12, (1, 9)):
                assert profile.n_modes == 8 and mass[massive].min() > 40.0
        assert fiber.to_profile(0.5, max_modes=None)[0].n_modes == massive.size
        zero, dropped = dataclasses.replace(fiber, data=np.zeros_like(fiber.data)).to_profile(0.5)
        assert zero.n_modes == 0 and dropped == 0.0


def test_pipeline_holds_one_fiber_coefficients_at_a_time(tmp_path, monkeypatch):
    """Traced memory at the start of each case stays flat over 32 quasimomenta."""
    K, n, nt = 32, 16, 1025
    fiber_bytes = n * nt * 16
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=K, n=n, nt=nt)
    at_entry = []
    theta_case = pipeline._theta_case

    def traced_case(*args):
        if not at_entry:
            tracemalloc.reset_peak()  # the peak of the cases, not of loading the field
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return theta_case(*args)

    monkeypatch.setattr(pipeline, "_theta_case", traced_case)
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=K)
    tracemalloc.start()
    try:
        _, code = run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(at_entry) == K
    # kept coefficients would add one fiber per case: (K - 2) fibers between these two
    assert at_entry[-1] - at_entry[1] < fiber_bytes
    # the K fibers' samples, the field and one case's temporaries; all K fibers' coefficients would not fit
    assert peak - at_entry[0] < (K // 2) * fiber_bytes


def test_pipeline_text_field_peak_memory(tmp_path):
    """Load, forward pass and cases of a 1D text field: at most 2.2 field sizes.

    The field is adopted from the parsed text and dropped after the forward
    pass, so only the forward pass holds two field-sized arrays (it was 3).
    """
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=16, n=16, nt=1025)
    field_bytes = 16 * 16 * 1025 * 16
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=16)
    import numpy.fft, numpy.ma  # noqa: E401, F401  loaded on first use: a one-off cost, not the pipeline's
    (_, code), peak = traced_peak(run_pipeline, cfg)
    assert code == 0
    assert peak <= 2.2 * field_bytes


def test_pipeline_empty_theta_grid_is_schema_error(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=0)
    with pytest.raises(SchemaError):
        run_pipeline(cfg)


def _cli_exit_code(cfg: RunConfig, tmp_path) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return cli.main(["pipeline", "--config", str(path)])


@pytest.mark.parametrize(
    "extra, potential, code",
    [
        ({"decay_window": [5.0, 1.0]}, None, 4),
        ({"decay_window": [0.0, 100.0]}, None, 4),
        ({"carleman_taper": 0.6}, None, 4),
        ({"carleman_taper": pipeline.MAX_TAPER}, None, 4),
        ({"carleman_taper": 0.6, "cutoff": -1.0}, None, 4),  # no case builds a window: still refused
        ({}, (4, 5.0), 2),
        ({}, (8, 4.0), 2),
        ({"u_t_points": 4}, None, 2),  # fiber_residual needs 5
    ],
    ids=["window-reversed", "window-past-t-end", "taper-0.6", "taper-at-bound", "taper-without-gap",
         "potential-points-per-cell", "potential-t-range", "u-field-of-4-t-points"],
)
def test_pipeline_config_errors_are_refused_before_anything_is_written(
    line_pipeline_input, tmp_path, extra, potential, code
):
    lat_path, u_path, lat = line_pipeline_input
    if "u_t_points" in extra:  # written over the fixture's u_field, at the same path
        extra = dict(extra)
        manufactured_line_input(tmp_path, nt=extra.pop("u_t_points"))
    if potential is not None:
        points_per_cell, t_end = potential  # the field has 8 points per cell on t in [0, 5]
        v_path = tmp_path / "v.csv"
        save_field(constant_potential(lat, 0.5, points_per_cell, 0.0, t_end, 1025), v_path)
        extra = {**extra, "v_field": str(v_path)}
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", **extra)
    assert _cli_exit_code(cfg, tmp_path) == code
    assert not (tmp_path / "run").exists()


def test_pipeline_u_field_before_t_zero_is_refused_before_anything_is_written(line_pipeline_input, tmp_path):
    """The profile stage's t >= 0 rule is asked before the run writes its config or theta-0's files."""
    lat_path, u_path, lat = line_pipeline_input
    u = load_field(u_path, lat)
    save_field(dataclasses.replace(u, t_start=-1.0, t_end=4.0), u_path)
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run")
    assert _cli_exit_code(cfg, tmp_path) == 4
    assert not (tmp_path / "run").exists()


def test_pipeline_taper_below_the_bound_runs(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=1, carleman_taper=0.47)
    manifest, code = run_pipeline(cfg)
    assert code == 0 and manifest.cases[0]["verdict"] == "pass"


@pytest.mark.parametrize("extra", [
    {"carleman_taper": pipeline.MAX_TAPER},
    {"decay_window": [5.0, 1.0]},
    {"decay_window": [2.0, 2.0]},
    {"theta_points": 0},
    {"theta_points": -2},
], ids=["taper-at-bound", "window-reversed", "window-empty", "theta-points-0", "theta-points-minus-2"])
def test_pipeline_ranges_are_refused_before_any_file_is_read(line_pipeline_input, tmp_path, monkeypatch, extra):
    """A range held by a key's type is checked with the config, before the field is loaded."""
    lat_path, u_path, _ = line_pipeline_input
    loaded = []
    monkeypatch.setattr(pipeline, "load_field", lambda *args: loaded.append(args))
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", **extra)
    with pytest.raises(SchemaError, match=f"pipeline parameter '{next(iter(extra))}' must be "):
        run_pipeline(cfg)
    assert _cli_exit_code(cfg, tmp_path) == 4
    assert loaded == [] and not (tmp_path / "run").exists()


def test_pipeline_at_a_huge_energy_records_a_finite_residual(line_pipeline_input, tmp_path):
    """|res|^2 overflows at energy 1e200; max_residual is the residual, not inf."""
    lat_path, u_path, _ = line_pipeline_input
    runs = {}
    for energy in (1e150, 1e200):
        cfg = pipeline_config(lat_path, u_path, tmp_path / str(energy), theta_points=2, energy=energy)
        assert run_pipeline(cfg)[1] == 2  # the spectrum slice is over its budget: one refusal per case
        runs[energy] = json.loads((tmp_path / str(energy) / "manifest.json").read_text())["cases"]
    for low, high in zip(runs[1e150], runs[1e200]):
        assert float(high["data"]["max_residual"]) == pytest.approx(1e50 * float(low["data"]["max_residual"]),
                                                                     rel=1e-13)


def test_pipeline_residual_that_overflows_is_one_refusal_per_case(line_pipeline_input, tmp_path):
    """At energy 1e308 the residual itself leaves the floats: each case refuses its residual stage, naming the energy."""
    lat_path, u_path, _ = line_pipeline_input
    assert run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", energy=1e308))[1] == 2
    doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert len(doc["cases"]) == 3
    for case in doc["cases"]:
        assert "max_residual" not in case["data"]
        assert case["data"]["residual"] == "refused: the fiber residual at energy 1e+308 overflows"


def _scaled_run(lat_path, u_path, lat, scale, out):
    """The pipeline's manifest cases and exit code on the field ``u_path`` times ``scale``."""
    u = load_field(u_path, lat)
    save_field(dataclasses.replace(u, values=u.values * scale), out.with_suffix(".csv"))
    manifest, code = run_pipeline(pipeline_config(lat_path, out.with_suffix(".csv"), out, cutoff=20.0))
    return manifest.cases, code


@pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e160, 1e200])
def test_pipeline_fiber_whose_mass_leaves_the_floats_keeps_its_modes(line_pipeline_input, tmp_path, scale):
    """A fiber whose squared moduli under- or overflow keeps the modes and rates of unit scale, with no warning.

    The small fields read as at unit scale; on the large ones each case's weighted integrals
    overflow, one refusal per case (exit 2).
    """
    lat_path, u_path, lat = line_pipeline_input
    unit, code = _scaled_run(lat_path, u_path, lat, 1.0, tmp_path / "unit")
    assert code == 0 and [c["verdict"] for c in unit] == ["pass"] * 3
    cases, code = _scaled_run(lat_path, u_path, lat, scale, tmp_path / "scaled")
    assert code == (0 if scale < 1 else 2)
    for case, ref in zip(cases, unit):
        data = case["data"]
        assert data["dropped_mode_mass"] == ref["data"]["dropped_mode_mass"] == 0.0
        assert data["decay_rate"] == pytest.approx(ref["data"]["decay_rate"], rel=1e-12)
        if scale < 1:
            assert case["verdict"] == "pass"
        else:
            assert re.fullmatch(r"refused: carleman-gap: the profile's weighted integrals overflow "
                                r"\(its peak is near 2\^\d+\)", case["verdict"])


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-200])
def test_pipeline_carleman_verdict_does_not_depend_on_the_scale_of_the_field(line_pipeline_input, tmp_path, scale):
    """With carleman_taper 1e-3 every case is a resolution-gate refusal (exit 2), at any scale of the field.

    The weighted densities are of phi 2^-k, k the exponent of phi's peak: at 1e-170 they would
    underflow, and 0 <= 0 would read as a pass.
    """
    lat_path, u_path, lat = line_pipeline_input
    u = load_field(u_path, lat)
    field = tmp_path / "u.csv"
    save_field(dataclasses.replace(u, values=u.values * scale), field)
    config = pipeline_config(lat_path, field, tmp_path / "out", cutoff=20.0, carleman_taper=1e-3)
    manifest, code = run_pipeline(config)
    assert code == 2 and len(manifest.cases) == 3
    assert all(c["verdict"].startswith("refused: carleman-gap: resolution gate failed") for c in manifest.cases)


def test_pipeline_subnormal_taper_is_one_resolution_gate_refusal_per_case(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    for taper in (5e-324, 1e-323):
        out = tmp_path / str(taper)
        assert run_pipeline(pipeline_config(lat_path, u_path, out, carleman_taper=taper))[1] == 2
        cases = json.loads((out / "manifest.json").read_text())["cases"]
        assert len(cases) == 3
        assert all(c["verdict"].startswith("refused: carleman-gap: resolution gate ") for c in cases)


def test_readme_lists_every_optional_key_with_its_default():
    """README's `| key | default |` table is pipeline.PARAMETERS' optional keys and defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        key, default = row.strip("|").split("|")
        value = default.strip().split(":")[0].split(" (")[0].strip("`").replace("10⁶", "1e6")
        listed[re.findall(r"`(\w+)`", key)[-1]] = json.loads(value)
    expected = {key: default for keys in pipeline.PARAMETERS.values() for key, (_, default) in keys.items()
                if default is not pipeline.REQUIRED}
    assert listed == expected


def test_pipeline_resolution_gate_refuses_every_case(line_pipeline_input, tmp_path):
    """A Carleman precondition failure is one refused case each; the run is still written."""
    lat_path, u_path, _ = line_pipeline_input
    cfg = dataclasses.replace(pipeline_config(lat_path, u_path, tmp_path / "run"),
                              tolerances={"resolution_gate_rtol": 1e-300})
    assert _cli_exit_code(cfg, tmp_path) == 2
    out = tmp_path / "run"
    cases = json.loads((out / "manifest.json").read_text())["cases"]
    assert len(cases) == 3
    assert all(c["verdict"].startswith("refused: carleman-gap: resolution gate ") for c in cases)
    assert json.loads((out / "summary.json").read_text())["exit_code"] == 2
    assert json.loads((out / "carleman_reports.json").read_text()) == []


def test_pipeline_decay_window_of_one_grid_point_leaves_no_rate(line_pipeline_input, tmp_path):
    """A decay fit refused on its window leaves a null rate and no decay.csv row."""
    lat_path, u_path, _ = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", decay_window=[0.0, 0.001])  # t = 0 only
    assert _cli_exit_code(cfg, tmp_path) == 0
    out = tmp_path / "run"
    cases = json.loads((out / "manifest.json").read_text())["cases"]
    assert len(cases) == 3 and all(c["data"]["decay_rate"] is None for c in cases)
    assert (out / "decay.csv").read_text() == "theta_index,rate,fit_residual,superexp\n"


def test_pipeline_refused_decay_fit_keeps_its_reason(line_pipeline_input, tmp_path):
    """The one refusal that leaves its case's exit code: the reason is in the diagnostics."""
    lat_path, u_path, _ = line_pipeline_input
    manifest, code = run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", decay_window=[0.0, 0.001]))
    assert code == 0 and [c["verdict"] for c in manifest.cases] == ["pass"] * 3
    assert all("decay" not in c["data"] for c in manifest.cases)
    assert sorted(manifest.diagnostics) == ["theta-0", "theta-1", "theta-2"]
    assert all(list(d) == ["decay"] and d["decay"] for d in manifest.diagnostics.values())


@pytest.mark.parametrize("spare", [0, -1])
def test_theta_grid_budget_counts_every_fiber_sample(tmp_path, monkeypatch, spare):
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=3, n=4)
    needed = 3 * 4 * 1025 * 16  # P^d fibers of n^d x n_t complex samples
    monkeypatch.setattr(pipeline, "THETA_GRID_BYTES", needed + spare)
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=3)
    if spare == 0:
        assert run_pipeline(cfg)[1] == 0
    else:
        with pytest.raises(BudgetExceededError, match=f"needs {needed} bytes, budget is {needed - 1}$"):
            run_pipeline(cfg)
        assert not (tmp_path / "run").exists()


def test_pipeline_slice_of_a_box_with_an_empty_axis_is_one_case(line_pipeline_input, tmp_path):
    """At theta = 1/2 and cutoff 0.1 the box of x = m + 1/2 has no point: an empty slice, exit 0."""
    lat_path, u_path, _ = line_pipeline_input
    manifest, code = run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=1, cutoff=0.1))
    (case,) = manifest.cases
    assert code == 0 and case["verdict"] == "no-admissible-gap" and case["data"]["spectrum_count"] == 0


def test_pipeline_empty_spectrum_slice_is_one_case(line_pipeline_input, tmp_path):
    """A cutoff below every fiber value leaves a case without gaps, not a lost run."""
    lat_path, u_path, _ = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=1, cutoff=-1.0)
    manifest, code = run_pipeline(cfg)
    assert code == 0
    (case,) = manifest.cases
    assert case["verdict"] == "no-admissible-gap"
    assert case["data"]["spectrum_count"] == 0 and case["data"]["gap_count"] == 0
    assert case["data"]["decay_rate"] == pytest.approx(1.5, rel=0.01)  # |1 + theta|, theta = 1/2
    out = tmp_path / "run"
    for name in ("manifest.json", "summary.json", "decay.csv", "carleman_reports.json",
                 "resolved_config.json", "residual_theta0.csv"):
        assert (out / name).exists()
    assert (out / "spectrum_theta0.csv").read_text() == "value,multiplicity\n"
    assert (out / "gaps_theta0.csv").read_text() == "lo,hi,length\n"


def test_pipeline_determinism_across_threads(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    hashes = []
    for threads, name in ((1, "a"), (8, "b")):
        cfg = pipeline_config(lat_path, u_path, tmp_path / name, threads=threads)
        manifest, _ = run_pipeline(cfg)
        hashes.append(manifest.verdict_hash())
    assert hashes[0] == hashes[1]
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    a.pop("wall_clock_s")
    b.pop("wall_clock_s")
    assert a == b


def test_pipeline_rejects_unknown_keys(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    with pytest.raises(SchemaError):
        run_pipeline(RunConfig(
            command="pipeline",
            params={"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 2, "bogus": 1},
            out_dir=str(tmp_path / "run"),
        ))
    with pytest.raises(SchemaError):
        RunConfig.from_json({"command": "pipeline", "params": {}, "mystery": True})
    with pytest.raises(SchemaError):  # missing required keys
        run_pipeline(RunConfig(command="pipeline", params={"lattice": "x"}, out_dir=str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()


def test_pipeline_tolerance_overrides(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    cfg = RunConfig(
        command="pipeline",
        params={
            "lattice": str(lat_path),
            "u_field": str(u_path),
            "energy": 0.0,
            "theta_points": 3,
            "cutoff": 30.0,
        },
        seed=11,
        out_dir=str(tmp_path / "run"),
        tolerances={"resolution_gate_rtol": 1e-4, "carleman_pass_rtol": 1e-9},
    )
    manifest, code = run_pipeline(cfg)
    assert code == 0
    assert all(c["data"]["carleman"] == "pass" for c in manifest.cases)
    with pytest.raises(SchemaError):
        run_pipeline(dataclasses.replace(cfg, out_dir=str(tmp_path / "refused"), tolerances={"mystery_tol": 1.0}))


def test_config_hash_ignores_threads_and_out_dir():
    base = dict(command="pipeline", params={"lattice": "l", "u_field": "u", "theta_points": 2})
    a = RunConfig(**base, seed=3, out_dir="x", threads=1)
    b = RunConfig(**base, seed=3, out_dir="y", threads=7)
    c = RunConfig(**base, seed=4, out_dir="x", threads=1)
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.canonical_bytes() != c.canonical_bytes()
    assert RunManifest.for_config(a).config_hash == RunManifest.for_config(b).config_hash


def test_manifest_verdict_hash_stability():
    cfg = RunConfig(command="pipeline", params={"eps": 1.0}, seed=5)
    m1 = RunManifest.for_config(cfg)
    m1.add_case("c0", "pass", {"margin": 1.2345678901234567e-3})
    m1.wall_clock_s = 1.0
    m2 = RunManifest.for_config(cfg)
    m2.add_case("c0", "pass", {"margin": 1.2345678901234567e-3})
    m2.wall_clock_s = 99.0
    assert m1.verdict_hash() == m2.verdict_hash()
    m2.cases[0]["data"]["margin"] *= 1.0 + 1e-15
    assert m1.verdict_hash() != m2.verdict_hash()


def test_emit_plots_two_points(tmp_path):
    table = PlotTable(name="pair", xs=(0.0, 1.0), ys=(2.0, 3.0))
    (path,) = emit_plots([table], tmp_path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "pair" in text


def test_emit_plots_deterministic(tmp_path):
    table = PlotTable(name="d", xs=(0.0, 0.5, 1.0), ys=(1.0, -1.0, 2.0))
    first = render_svg(table)
    second = render_svg(table)
    assert first == second
    (path,) = emit_plots([table], tmp_path)
    assert path.read_bytes() == first.encode()


def test_emit_plots_empty_refused(tmp_path):
    with pytest.raises(SchemaError):
        emit_plots([], tmp_path)
    with pytest.raises(SchemaError):
        PlotTable(name="x", xs=(), ys=())


# -- one row formatter: byte-equal to the per-cell loops it replaced ----------

BLOCK = manifest._BLOCK_ROWS
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]


def reference_csv_text(header, rows) -> str:
    """The per-cell loop of the old write_csv and CLI table printer."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format(v, ".17g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_field_text(field) -> str:
    """The per-value f-string loop of the old text save_field."""
    header = {
        "dim": field.dim, "cells_lo": list(field.cells_lo), "cells_shape": list(field.cells_shape),
        "points_per_cell": field.points_per_cell, "t_start": field.t_start, "t_end": field.t_end,
        "t_points": field.n_t, "kind": field.kind,
    }
    out = [json.dumps(header, sort_keys=True) + "\n"]
    for v in field.values.reshape(-1):
        out.append(f"{v.real:.17g},{v.imag:.17g}\n")
    return "".join(out)


def reference_svg(table) -> str:
    """The old scalar render_svg: a closure per axis and a loop per point."""
    fmt = svgplot._fmt
    W, H, M = svgplot.CANVAS_W, svgplot.CANVAS_H, svgplot.MARGIN

    def scale(values, lo_pix, hi_pix):
        vmin = min(values)
        vmax = max(values)
        span = vmax - vmin
        if span == 0.0:
            span = 1.0
            vmin -= 0.5

        def to_pix(v):
            return lo_pix + (v - vmin) * (hi_pix - lo_pix) / span

        return to_pix, vmin, vmax

    to_x, xmin, xmax = scale(table.xs, M, W - M)
    to_y, ymin, ymax = scale(table.ys, H - M, M)
    pts = [f"{fmt(to_x(x))},{fmt(to_y(y))}" for x, y in zip(table.xs, table.ys)]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(W)}" '
        f'height="{int(H)}" viewBox="0 0 {int(W)} {int(H)}">',
        f'<rect x="0" y="0" width="{int(W)}" height="{int(H)}" fill="white"/>',
        f'<line x1="{fmt(M)}" y1="{fmt(H - M)}" x2="{fmt(W - M)}" y2="{fmt(H - M)}" stroke="black"/>',
        f'<line x1="{fmt(M)}" y1="{fmt(H - M)}" x2="{fmt(M)}" y2="{fmt(M)}" stroke="black"/>',
        f'<text x="{fmt(W / 2)}" y="{fmt(H - 20.0)}" text-anchor="middle" font-size="14">'
        f'{table.x_label} [{fmt(xmin)}, {fmt(xmax)}]</text>',
        f'<text x="20" y="{fmt(H / 2)}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {fmt(H / 2)})">{table.y_label} [{fmt(ymin)}, {fmt(ymax)}]</text>',
        f'<text x="{fmt(W / 2)}" y="30" text-anchor="middle" font-size="16">{table.name}</text>',
        f'<polyline fill="none" stroke="navy" stroke-width="1.5" points="{" ".join(pts)}"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))
CELL_KINDS = {
    "float": any_float,
    "np.float64": any_float.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "None": st.none(),
    "str": st.text(alphabet="abcxyz_ -.", max_size=8),
}
ROW_COUNTS = st.one_of(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(2, 40))


@st.composite
def typed_tables(draw):
    """Rows whose columns each hold one kind of cell, as every caller's do."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=5))
    row = st.tuples(*(CELL_KINDS[k] for k in kinds))
    seeds = draw(st.lists(row, min_size=1, max_size=12))
    count = draw(ROW_COUNTS)
    return [seeds[i % len(seeds)] for i in range(count)]


@settings(max_examples=150, deadline=None)
@given(typed_tables())
def test_write_csv_matches_per_cell_loop(tmp_path_factory, rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", header, rows)
    expected = reference_csv_text(header, rows)
    assert path.read_bytes() == expected.encode()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_rows(header, rows, None)
    assert buf.getvalue() == expected


def object_array_rows(fh, rows) -> None:
    """The table formatter before it read ``.tolist()`` and the row tuples: object arrays per block."""
    if len(rows) == 0:
        return
    first = np.asarray(rows[:1], dtype=object)[0]
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    for start in range(0, len(rows), BLOCK):
        block = np.asarray(rows[start : start + BLOCK], dtype=object)
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


NUMPY_CELL_KINDS = {
    **CELL_KINDS,
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int32": st.integers(-(2**31), 2**31 - 1).map(np.int32),
    "np.bool_": st.booleans().map(np.bool_),
    "np.str_": st.text(alphabet="abc,_ ", max_size=4).map(np.str_),
}
MANY_ROW_COUNTS = st.one_of(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 9000]),
                            st.integers(2, 40))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(NUMPY_CELL_KINDS)), min_size=1, max_size=5).flatmap(
    lambda kinds: st.lists(st.tuples(*(NUMPY_CELL_KINDS[k] for k in kinds)), min_size=1, max_size=8)),
    MANY_ROW_COUNTS)
def test_write_rows_matches_the_object_array_formatter_on_tuples(seeds, count):
    rows = [seeds[i % len(seeds)] for i in range(count)]
    buf, ref = io.StringIO(), io.StringIO()
    write_rows(buf, rows)
    object_array_rows(ref, rows)
    assert buf.getvalue() == ref.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=30), MANY_ROW_COUNTS, st.integers(1, 3),
       st.sampled_from([np.float64, np.float32, np.int64, np.int32, bool, complex]))
def test_write_rows_matches_the_object_array_formatter_on_arrays(values, count, cols, dtype):
    flat = np.resize(np.array(values), count * cols)
    if dtype not in (np.float64, np.float32, complex):
        flat = np.nan_to_num(flat, nan=0.0, posinf=1.0, neginf=-1.0).clip(-1e9, 1e9)
    with np.errstate(over="ignore"):
        table = flat.astype(dtype).reshape(count, cols)
    buf, ref = io.StringIO(), io.StringIO()
    write_rows(buf, table)
    object_array_rows(ref, table)
    assert buf.getvalue() == ref.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(any_float, min_size=1, max_size=30),
    ROW_COUNTS,
    st.integers(1, 3),
    st.sampled_from([np.float64, np.int64, bool]),
)
def test_write_rows_matches_per_cell_loop_on_arrays(values, count, cols, dtype):
    flat = np.resize(np.array(values), count * cols)
    if dtype is not np.float64:
        flat = np.nan_to_num(flat, nan=0.0, posinf=1.0, neginf=-1.0).clip(-1e18, 1e18)
    table = flat.astype(dtype).reshape(count, cols)
    buf = io.StringIO()
    write_rows(buf, table)
    assert buf.getvalue() == reference_csv_text(["h"], table).split("\n", 1)[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(any_float, any_float), min_size=1, max_size=12),
       st.sampled_from([2, 3, BLOCK - 1, BLOCK, BLOCK + 1]))
def test_save_field_matches_per_value_loop(tmp_path_factory, seeds, n_t):
    lat = Lattice(basis=np.array([[2.0 * math.pi]]), dual_gram_exact=[["1"]])
    values = np.array([complex(*seeds[i % len(seeds)]) for i in range(n_t)]).reshape(1, n_t)
    field = fields.SampledField("u", lat, (0,), (1,), 1, 0.0, 1.0, values)
    path = tmp_path_factory.mktemp("field") / "u.csv"
    fields.save_field(field, path)
    assert path.read_bytes() == reference_field_text(field).encode()


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]),
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(
    st.lists(finite, min_size=1, max_size=40),
    st.one_of(st.lists(finite, min_size=40, max_size=40),
              st.lists(st.integers(-(10**6), 10**6), min_size=40, max_size=40)),
)
def test_render_svg_matches_scalar_loop(xs, ys):
    xs, ys = tuple(xs), tuple(ys[: len(xs)])
    table = PlotTable(name="t", xs=xs, ys=ys)
    expected = reference_svg(table)
    assert render_svg(table) == expected
    assert render_svg(PlotTable(name="t", xs=np.array(xs), ys=np.array(ys))) == expected


def _one_kind_per_column(rows):
    cols = np.asarray(rows, dtype=object).reshape(len(rows), -1).T
    for col in cols:
        kinds = {float if isinstance(v, float) else type(v) for v in col}
        assert len(kinds) == 1, kinds


def test_every_table_writer_caller_has_one_kind_per_column(line_pipeline_input, tmp_path, monkeypatch):
    # the first row fixes each column's format, so a mixed column would print wrong
    seen = []
    real = manifest.write_rows

    def checked(fh, rows):
        if len(rows):
            _one_kind_per_column(rows)
        seen.append(len(rows))
        real(fh, rows)

    for module in (manifest, cli, fields):
        monkeypatch.setattr(module, "write_rows", checked)
    lat_path, u_path, lat = line_pipeline_input
    _, code = run_pipeline(pipeline_config(lat_path, u_path, tmp_path / "run", plots=True))
    assert code == 0
    two_d = str(tmp_path / "lat2.json")
    (tmp_path / "lat2.json").write_text(json.dumps(
        {"dim": 2, "basis": [[2 * math.pi, 0.0], [0.0, 2 * math.pi]],
         "dual_gram_exact": [["1", "0"], ["0", "1"]]}
    ))
    commands = [
        ["spectrum", "--lattice", two_d, "--cutoff", "20"],
        ["gaps", "--lattice", two_d, "--cutoff", "20", "--full-axis"],
        ["gaps", "--lattice", two_d, "--growth", "100,1000"],
        ["counterexample", "--lambdas", "0.5,1.0,1.2", "--T", "40"],
        ["gelfand", "residual", "--lattice", str(lat_path), "--u", str(u_path), "--theta", "1/6"],
        ["evolve", "--eigs", "1,4", "--out", str(tmp_path / "ev.csv")],
        ["carleman", "verify43", "--eps", "1.0", "--ensemble", "2", "--out-dir", str(tmp_path / "c")],
        ["gelfand", "inverse", "--lattice", str(lat_path), "--fibers", str(tmp_path / "f.npz"),
         "--out", str(tmp_path / "back.csv")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gelfand", "forward", "--lattice", str(lat_path), "--u", str(u_path),
                         "--theta", "1/2", "--out", str(tmp_path / "f.npz")]) == 0
        for argv in commands:
            assert cli.main(argv) == 0, argv
    assert sum(1 for n in seen if n) >= 3 * 3 + len(commands)
