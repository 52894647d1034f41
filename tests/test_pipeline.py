import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_decay import RunConfig, SchemaError, cli, fields, manifest, run_pipeline, svgplot
from halfspace_decay.fibers import fiber_residual, gelfand_forward, theta_grid
from halfspace_decay.fields import load_field
from halfspace_decay.lattice import Lattice
from halfspace_decay.manifest import RunManifest, write_csv, write_rows
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


def test_pipeline_two_dimensional_lattice(tmp_path):
    import json
    from halfspace_decay.fibers import BlochFiber, gelfand_inverse, theta_grid
    from halfspace_decay.fields import save_field
    from halfspace_decay.lattice import Lattice

    two_pi = 2.0 * math.pi
    lat = Lattice(
        basis=two_pi * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]]
    )
    n, nt, t_end = 4, 1025, 5.0
    t = np.linspace(0.0, t_end, nt)
    mode = np.array([1, 0])
    x_modes = np.exp(2j * math.pi * (np.arange(n)[:, None] * mode[0] + np.arange(n)[None, :] * mode[1]) / n)
    fibers = []
    for theta in theta_grid(lat, 2):
        kappa = float(np.linalg.norm(mode + theta.coeffs))
        data = x_modes[..., None] * np.exp(-kappa * t)[None, None, :]
        fibers.append(
            BlochFiber(theta=theta, lattice=lat, points_per_cell=n, t_start=0.0, t_end=t_end, data=data)
        )
    u = gelfand_inverse(fibers, lat)
    lat_path = tmp_path / "lat2.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    u_path = tmp_path / "u2.npz"
    save_field(u, u_path)
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
    from halfspace_decay.fields import constant_potential, save_field
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


def test_pipeline_empty_theta_grid_is_schema_error(line_pipeline_input, tmp_path):
    lat_path, u_path, _ = line_pipeline_input
    cfg = pipeline_config(lat_path, u_path, tmp_path / "run", theta_points=0)
    with pytest.raises(SchemaError):
        run_pipeline(cfg)


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
        RunConfig(
            command="pipeline",
            params={"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 2, "bogus": 1},
        )
    with pytest.raises(SchemaError):
        RunConfig.from_json({"command": "pipeline", "params": {}, "mystery": True})
    with pytest.raises(SchemaError):
        RunConfig(command="pipeline", params={"lattice": "x"})  # missing required keys


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
        RunConfig(command="pipeline", params=cfg.params, tolerances={"mystery_tol": 1.0})


def test_config_hash_ignores_threads_and_out_dir():
    base = dict(command="pipeline", params={"lattice": "l", "u_field": "u", "theta_points": 2})
    a = RunConfig(**base, seed=3, out_dir="x", threads=1)
    b = RunConfig(**base, seed=3, out_dir="y", threads=7)
    c = RunConfig(**base, seed=4, out_dir="x", threads=1)
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.canonical_bytes() != c.canonical_bytes()
    assert RunManifest.for_config(a).config_hash == RunManifest.for_config(b).config_hash


def test_manifest_verdict_hash_stability():
    cfg = RunConfig(command="verify43", params={"eps": 1.0}, seed=5)
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
    table = PlotTable(name="d", xs=(0.0, 0.5, 1.0), ys=(1.0, -1.0, 2.0), kind="line")
    first = render_svg(table)
    second = render_svg(table)
    assert first == second
    (path,) = emit_plots([table], tmp_path)
    assert path.read_bytes() == first.encode()


def test_emit_plots_staircase_max_ordinate(tmp_path):
    from halfspace_decay import QuadraticForm, max_gap_growth

    q = QuadraticForm(G=np.eye(2, dtype=np.int64))
    table_rows = max_gap_growth(q, None, [100, 1000, 10000])
    xs = tuple(float(n) for n, _ in table_rows)
    ys = tuple(g for _, g in table_rows)
    table = PlotTable(name="gap_growth", xs=xs, ys=ys, kind="staircase")
    svg = render_svg(table)
    assert f"[0, {max(ys):g}]" in svg or f"{max(ys):g}" in svg
    (path,) = emit_plots([table], tmp_path)
    assert path.exists()


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
    pts = []
    if table.kind == "line":
        for x, y in zip(table.xs, table.ys):
            pts.append(f"{fmt(to_x(x))},{fmt(to_y(y))}")
    else:
        prev_y = None
        for x, y in zip(table.xs, table.ys):
            if prev_y is not None:
                pts.append(f"{fmt(to_x(x))},{fmt(to_y(prev_y))}")
            pts.append(f"{fmt(to_x(x))},{fmt(to_y(y))}")
            prev_y = y
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
    st.sampled_from(["line", "staircase"]),
)
def test_render_svg_matches_scalar_loop(xs, ys, kind):
    xs, ys = tuple(xs), tuple(ys[: len(xs)])
    table = PlotTable(name="t", xs=xs, ys=ys, kind=kind)
    expected = reference_svg(table)
    assert render_svg(table) == expected
    assert render_svg(PlotTable(name="t", xs=np.array(xs), ys=np.array(ys), kind=kind)) == expected


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
        ["counterexample", "--lambdas", "0.5,1.0,1.2", "--T", "40", "--X", "40"],
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
