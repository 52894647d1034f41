import dataclasses
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import manufactured_line_input, strict_json, traced_peak
from halfspace_decay.cli import main
from halfspace_decay.errors import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VIOLATION,
    SchemaError,
    strictest_exit_code,
)
from halfspace_decay.fibers import load_fiber
from halfspace_decay.fields import load_field
from halfspace_decay.lattice import Lattice
from halfspace_decay.manifest import read_rows

TWO_PI = 2.0 * math.pi


@pytest.fixture
def lat_json(tmp_path):
    doc = {
        "dim": 2,
        "basis": [[TWO_PI, 0.0], [0.0, TWO_PI]],
        "dual_gram_exact": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_lattice_commands(lat_json, capsys):
    assert main(["lattice", "dual", "--lattice", lat_json]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["dual_basis_rows"], np.eye(2))

    assert main(["lattice", "volume", "--lattice", lat_json]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["cell_volume"] == pytest.approx(TWO_PI**2)
    assert out["dual_cell_volume"] == pytest.approx(1.0)

    assert main(["lattice", "rational", "--lattice", lat_json, "--theta", "1/2,0"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"sigma": "1", "G": [[1, 0], [0, 1]], "l": 2, "r": [1, 0]}


def test_lattice_of_overflowing_cell_volume_is_refused(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"basis": [[1e160, 0], [0, 1e160]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a NumPy overflow warning
        for sub in ("dual", "volume"):
            assert main(["lattice", sub, "--lattice", str(path)]) == EXIT_PRECONDITION
            assert "cell volume inf is not a finite float" in capsys.readouterr().err


def test_spectrum_and_gaps_csv(lat_json, tmp_path, capsys):
    out_csv = tmp_path / "spec.csv"
    assert main([
        "spectrum", "--lattice", lat_json, "--cutoff", "12", "--out", str(out_csv)
    ]) == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "value,multiplicity"
    values = [float(l.split(",")[0]) for l in lines[1:]]
    assert values == [0, 1, 2, 4, 5, 8, 9, 10]

    assert main(["gaps", "--lattice", lat_json, "--cutoff", "12"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "lo,hi,length"
    assert rows[1].startswith("1,2")

    assert main(["gaps", "--lattice", lat_json, "--growth", "100,10000"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1] == "100,7"


def test_gaps_of_an_empty_slice_print_the_header(lat_json, capsys):
    """A cutoff below the spectrum leaves an empty slice, which has no gaps: exit 0, as for spectrum."""
    for command, header in (("spectrum", "value,multiplicity"), ("gaps", "lo,hi,length")):
        assert main([command, "--lattice", lat_json, "--cutoff", "-5"]) == EXIT_OK
        assert capsys.readouterr().out == header + "\n"


def test_exact_gram_takes_string_integer_and_pair_entries(tmp_path, capsys):
    """A rational Gram entry is a "p/q" string, an integer or a [p, q] integer pair, with one meaning."""
    outputs = []
    for gram in ([["1", "0"], ["0", "1/4"]], [[1, 0], [0, [1, 4]]], [[[2, 2], 0], ["0", [-1, -4]]]):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"basis": [[TWO_PI, 0.0], [0.0, 2.0 * TWO_PI]], "dual_gram_exact": gram}))
        assert main(["lattice", "rational", "--lattice", str(path), "--theta", "1/2,1/3"]) == EXIT_OK
        outputs.append(strict_json(capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["G"] == [[4, 0], [0, 1]]


def test_density_command(capsys):
    assert main(["density", "--gram", "1,0;0,1", "--N", "100"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 44


_PIPELINE_PARAMS = {"lattice": "lat.json", "u_field": "u.csv", "theta_points": 2}


def _config(**keys) -> str:
    return json.dumps({"command": "pipeline", "params": _PIPELINE_PARAMS, **keys})


# header shape (2, 2, 5) needs 20 value rows; the file holds 7
_SHORT_FIELD = json.dumps({
    "dim": 2, "cells_lo": [0, 0], "cells_shape": [1, 1], "points_per_cell": 2,
    "t_start": 0.0, "t_end": 1.0, "t_points": 5, "kind": "u",
}) + "\n" + "0.5,0.0\n" * 7


def _field(**header) -> str:
    """A 2D text field with all 20 value rows and the given header overrides."""
    doc = {
        "dim": 2, "cells_lo": [0, 0], "cells_shape": [1, 1], "points_per_cell": 2,
        "t_start": 0.0, "t_end": 1.0, "t_points": 5, "kind": "u", **header,
    }
    return json.dumps(doc) + "\n" + "0.5,0.0\n" * 20


def _npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


_FIELD_HEADER = np.frombuffer(_field().split("\n")[0].encode(), np.uint8)


def _fiber(**entries) -> bytes:
    """A fiber file for the 2D test lattice that inverts, with the given entries replaced (None drops one)."""
    good = {
        "data": np.zeros((4, 4, 5), complex), "mu": np.array([0.5, 0.5]), "points_per_cell": 4,
        "t_start": 0.0, "t_end": 1.0, "tail_bound": 0.0, "cells_lo": np.array([0, 0]),
    }
    return _npz_bytes(**{k: v for k, v in {**good, **entries}.items() if v is not None})


# one malformed value per fiber entry other than the data
_BAD_FIBER_ENTRIES = {
    "points-per-cell-array": {"points_per_cell": np.array([4, 4])},
    "points-per-cell-fraction": {"points_per_cell": 4.5},
    "points-per-cell-zero": {"points_per_cell": 0},
    "t-start-array": {"t_start": np.array([0.0, 1.0])},
    "t-end-nan": {"t_end": math.nan},
    "tail-bound-array": {"tail_bound": np.array([0.0, 1.0])},
    "cells-lo-scalar": {"cells_lo": np.array(0)},
    "mu-matrix": {"mu": np.full((1, 2), 0.5)},
    "mu-long-matrix": {"mu": np.full((10**5, 2), 0.5)},
    # entries that are each well formed but disagree
    "data-not-points-per-cell": {"data": np.zeros((2, 2, 5), complex)},
    "data-not-mu-dimension": {"data": np.zeros((4, 5), complex)},
    "t-start-above-t-end": {"t_start": 1.0, "t_end": 0.0},
    "cells-lo-of-another-length": {"cells_lo": np.array([0, 0, 0])},
}

# a decaying profile in the `evolve --out` format
_PROFILE = "t,norm\n" + "".join(f"{0.1 * i!r},{math.exp(-0.1 * i)!r}\n" for i in range(101))
_DECAY = ["decay", "--input", "{bad}", "--window"]
_INVERSE = ["gelfand", "inverse", "--lattice", "{lat}", "--fibers", "{bad}", "--out", "{bad}.csv"]

_ROUNDTRIP = ["gelfand", "roundtrip", "--lattice", "{lat}", "--u", "{bad}", "--theta-points", "1"]


def test_valid_field_round_trips(lat_json, tmp_path, capsys):
    """The well-formed baseline of the field-header cases below."""
    good = tmp_path / "good.csv"
    good.write_text(_field())
    argv = [a.format(lat=lat_json, bad=good) for a in _ROUNDTRIP]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["max_error"] < 1e-12


@pytest.mark.parametrize(
    "argv, content",
    [
        (["gaps", "--lattice", "{lat}", "--growth", "100,1e4"], None),
        (["density", "--gram", "x,0;0,1", "--N", "100"], None),
        (["density", "--gram", "1,0;0", "--N", "100"], None),
        (["density", "--gram", f"{10**30},0;0,1", "--N", "100"], None),
        (["lattice", "dual", "--lattice", "{bad}"], '{"dim": 2, "basis": '),
        (["lattice", "dual", "--lattice", "{bad}"], "5"),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [["x", "0"], ["0", "1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [["1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [[[1.9, 1], "0"], ["0", "1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [[[true, 1], "0"], ["0", "1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [["1", "0"], ["0", "1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[true, false], [false, true]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"dim": 2.0, "basis": [[1, 0], [0, 1]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"dim": true, "basis": [[1]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1e400, 0], [0, 1]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [["1e400", "0"], ["0", "1"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": null}'),
        (["lattice", "dual", "--lattice", "{bad}"], b'{"basis": [[1\xff]]}'),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[' + "1" * 5000 + "]]}"),
        (["pipeline", "--config", "{bad}"], b'{"command": "pipeline\xff"}'),
        (["pipeline", "--config", "{bad}"], _config().replace('"command"', '"seed": ' + "1" * 5000 + ', "command"')),
        (_ROUNDTRIP, _field().replace('"dim": 2', '"dim": ' + "1" * 5000)),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": ' + "[" * 100000),
        (["pipeline", "--config", "{bad}"], _config().replace('"command"', '"seed": ' + "[" * 100000 + ', "command"')),
        (_ROUNDTRIP, _field().replace('"dim": 2', '"dim": ' + "[" * 100000)),
        (["gelfand", "roundtrip", "--lattice", "{lat}", "--u", "{bad}", "--theta-points", "2"], _SHORT_FIELD),
        (["pipeline", "--config", "{bad}"], _config(seed="x")),
        (["pipeline", "--config", "{bad}"], _config(seed=1.9)),
        (["pipeline", "--config", "{bad}"], _config(seed=True)),
        (["pipeline", "--config", "{bad}"], _config(threads="abc")),
        (["pipeline", "--config", "{bad}"], _config(threads=2.0)),
        (["pipeline", "--config", "{bad}"], _config(tolerances=5)),
        (["pipeline", "--config", "{bad}"], "5"),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "theta_points": 2.7})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "energy": True})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "theta_points": "x"})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "cutoff": "x"})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "max_modes": 2.5})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "decay_window": "ab"})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "plots": "no"})),
        (["pipeline", "--config", "{bad}"], _config(tolerances={"resolution_gate_rtol": "x"})),
        (["pipeline", "--config", "{bad}"], _config(tolerances={"carleman_pass_rtol": True})),
        (["pipeline", "--config", "{bad}"], _config(tolerances={"carleman_pass_rtol": -1.0})),
        (["pipeline", "--config", "{bad}"], _config(tolerances={"resolution_gate_rtol": 0.0})),
        (["pipeline", "--config", "{bad}"], _config(tolerances={"carleman_pass_rtol": math.nan})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "max_modes": -1})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "l_max": -1})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "carleman_taper": 0})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "cutoff": math.inf})),
        (["pipeline", "--config", "{bad}"], _config(params={**_PIPELINE_PARAMS, "energy": math.nan})),
        (_ROUNDTRIP, _field(points_per_cell="2")),
        (_ROUNDTRIP, _field(points_per_cell=2.0)),
        (_ROUNDTRIP, _field(t_points="5")),
        (_ROUNDTRIP, _field(cells_shape=[1.0, 1.0])),
        (_ROUNDTRIP, _field(t_start=True)),
        (_ROUNDTRIP, _field(dim="2")),
        (_ROUNDTRIP, _field(t_end=10**400)),
        (_ROUNDTRIP, "5\n" + "0.5,0.0\n" * 20),
        (_ROUNDTRIP, _field().split("\n")[0] + "\n" + "0.5\n" * 20),
        (_ROUNDTRIP, _field().split("\n")[0] + "\n"),
        (["pipeline", "--config", "{bad}"], _config(command=["pipeline"])),
        (["pipeline", "--config", "{bad}"], _config(out_dir=None)),
        (["pipeline", "--config", "{bad}"], _config(out_dir=5)),
        (_DECAY + ["2,8"], "t,norm\n0.0,1.0\n0.1,abc\n"),
        (_DECAY + ["2,8"], "t,norm\n"),
        (_DECAY + ["2,8"], "t\n0.0\n0.1\n0.2\n"),
        (_DECAY + ["2,8"], _PROFILE.replace("1.0\n", "nan\n", 1)),
        (_DECAY + ["2"], _PROFILE),
        (_DECAY + ["2,5,8"], _PROFILE),
        (["spectrum", "--lattice", "{lat}", "--theta", "abc,0", "--cutoff", "10"], None),
        (["spectrum", "--lattice", "{lat}", "--theta", "nan,0", "--cutoff", "10"], None),
        (["gaps", "--lattice", "{lat}", "--theta", "1/0,0", "--cutoff", "10"], None),
        (["lattice", "rational", "--lattice", "{lat}", "--theta", "1/2,x"], None),
        (["lattice", "rational", "--lattice", "{lat}", "--theta", "3/2,0"], None),
        (["lattice", "rational", "--lattice", "{lat}", "--theta=-1/2,0"], None),
        (["lattice", "rational", "--lattice", "{lat}", "--theta", "1,0"], None),
        (["lattice", "rational", "--lattice", "{lat}", "--theta", "0,1/1"], None),
        (["spectrum", "--lattice", "{lat}", "--theta", "3/2,0", "--cutoff", "10"], None),
        (["gaps", "--lattice", "{lat}", "--theta=-1/2,0", "--cutoff", "10"], None),
        (["evolve", "--eigs", ""], None),
        (_INVERSE, "not a fiber\n"),
        (_INVERSE, _npz_bytes(data=np.zeros((2, 2, 5)))),
        (_INVERSE, b""),
        (["evolve", "--eigs", "nan"], None),
        (["evolve", "--eigs", "inf"], None),
        (["evolve", "--eigs", "1", "--T", "nan"], None),
        (["evolve", "--eigs", "1", "--T", "inf"], None),
        (["evolve", "--eigs", "1,4", "--perturbation", "diagonal", "--beta", "nan"], None),
        (["evolve", "--eigs", "1,4", "--perturbation", "full", "--beta", "inf"], None),
        (["evolve", "--eigs", "1,4", "--boundary", "1,nan"], None),
        (["carleman", "ellreg", "--eps", "0.5", "--s-list", ""], None),
        (["carleman", "verify-gap", "--eigs", ""], None),
        (["carleman", "verify-gap", "--eigs", "", "--a", "2", "--b", "3"], None),
        (["carleman", "verify-gap", "--eigs", "1,9", "--a", "2"], None),
        (["carleman", "verify-gap", "--a", "2", "--b", "3", "--ensemble", "1"], None),
        (["carleman", "verify-gap", "--alpha", "0.5"], None),
        (["carleman", "verify-gap", "--eigs", "nan", "--a", "2", "--b", "3"], None),
        (["carleman", "verify-gap", "--eigs", "1,inf", "--a", "2", "--b", "3"], None),
        (["carleman", "verify-gap", "--eigs", "1,9", "--a", "nan", "--b", "3"], None),
        (["carleman", "verify-gap", "--eigs", "1,9", "--a", "2", "--b", "inf"], None),
        (["carleman", "verify-gap", "--eigs", "1,9", "--a", "2", "--b", "3", "--alpha", "nan"], None),
        (["carleman", "verify43", "--eps", "1", "--weight-lambda", "nan"], None),
        (["carleman", "verify43", "--eps", "nan"], None),
        (["carleman", "verify43", "--eps", "inf"], None),
        (["carleman", "ellreg", "--eps", "nan", "--s-list", "2"], None),
        (["carleman", "system-check", "--eigs", "nan", "--a", "2", "--b", "3"], None),
        (["carleman", "system-check", "--eigs", "1,9", "--a", "nan", "--b", "3"], None),
        (["carleman", "system-check", "--eigs", "1,9", "--a", "2", "--b", "inf"], None),
        (_ROUNDTRIP, _field().split("\n")[0] + "\n" + "abc,0.0\n" * 20),
        (_ROUNDTRIP, _field().split("\n")[0] + "\n\n  \n"),
        (_DECAY + ["2,8"], "t,norm\n\n# no rows\n\n"),
        (_ROUNDTRIP, "{not json\n" + "0.5,0.0\n" * 20),
        (_ROUNDTRIP, _npz_bytes(header=np.frombuffer(b"{not json", np.uint8), values=np.zeros(20))),
        (_ROUNDTRIP, b"\xff\xfe{}\n" + b"0.5,0.0\n" * 20),
        (["carleman", "ellreg", "--eps", "0.5", "--s-list", "2,nan"], None),
        (["counterexample", "--lambdas", "nan", "--T", "10"], None),
        (["counterexample", "--lambdas", "0.5", "--T", "-1"], None),
        (["counterexample", "--lambdas", "0.5", "--T", "inf"], None),
        *((_INVERSE, _fiber(**entries)) for entries in _BAD_FIBER_ENTRIES.values()),
        (_INVERSE, _fiber(cells_lo=None, cell_lo=np.array([0, 0]))),
        (_ROUNDTRIP, _field().replace("0.5,0.0\n", "nan,0\n", 1)),
        (_ROUNDTRIP, _npz_bytes(header=_FIELD_HEADER, values=np.r_[math.inf, np.zeros(19)])),
        (["gelfand", "forward", "--lattice", "{lat}", "--u", "{bad}", "--theta", "0,0", "--lmax", "-1",
          "--out", "{bad}.npz"], _field()),
        (["gelfand", "residual", "--lattice", "{lat}", "--u", "{bad}", "--theta", "0,0", "--lmax", "-1"], _field()),
        (["counterexample", "--lambdas", "", "--T", "10"], None),
        (["counterexample", "--lambdas", ",", "--T", "10"], None),
        (["evolve", "--eigs", "1,4", "--perturbation", "diagonal", "--beta", "-3", "--bound", "const"], None),
        (_INVERSE[:6] + ["{bad}"] + _INVERSE[6:], _fiber()),
        (_INVERSE[:6] + ["{bad}"] * 3 + _INVERSE[6:], _fiber(mu=np.array([0.25, 0.25]))),
        (["lattice", "dual", "--lattice", "{bad}"], '{"basis": [[1, 0], [0, 1]], "gram_exact": [["1", "0"], ["0"]]}'),
        (["lattice", "dual", "--lattice", "{bad}"],
         '{"basis": [[1, 0], [0, 1]], "gram_exact": [["1", "1"], ["0", "1"]]}'),
        (["density", "--gram", "1,2;3,4", "--N", "100"], None),
        (_DECAY + ["2,8"], "t,norm\n" + "".join(reversed(_PROFILE.splitlines(True)[1:]))),
        (_DECAY + ["2,20"], _PROFILE),
        (["pipeline", "--config", "{bad}"], _config(command="spectrum")),
        (_ROUNDTRIP, _field().encode().replace(b"0.5,0.0\n", b"0.5\xff,0.0\n", 1)),
        (_DECAY + ["2,8"], _PROFILE.encode().replace(b"\n0.5,", b"\n0.5\xff,", 1)),
    ],
    ids=[
        "growth-not-int", "gram-not-int", "gram-ragged", "gram-beyond-int64", "lattice-bad-json",
        "lattice-not-object", "lattice-ragged-basis", "lattice-gram-not-rational",
        "lattice-gram-wrong-size", "lattice-gram-float-pair", "lattice-gram-bool-pair",
        "lattice-basis-str", "lattice-basis-bool", "lattice-dim-float", "lattice-dim-bool",
        "lattice-basis-inf", "lattice-gram-beyond-float", "lattice-gram-null", "lattice-not-utf8", "lattice-int-over-4300-digits",
        "config-not-utf8", "config-int-over-4300-digits", "field-header-int-over-4300-digits",
        "lattice-nested-too-deep", "config-nested-too-deep", "field-header-nested-too-deep", "field-short",
        "seed-str", "seed-float", "seed-bool", "threads-str", "threads-float",
        "tolerances-not-object", "config-not-object", "theta-points-float", "energy-bool",
        "theta-points-str", "cutoff-str", "max-modes-float", "decay-window-str", "plots-str",
        "gate-rtol-str", "pass-rtol-bool", "pass-rtol-negative", "gate-rtol-zero", "pass-rtol-nan",
        "max-modes-negative", "l-max-negative", "carleman-taper-zero", "cutoff-inf", "energy-nan",
        "field-points-per-cell-str", "field-points-per-cell-float", "field-t-points-str",
        "field-cells-shape-float", "field-t-start-bool", "field-dim-str", "field-t-end-huge-int", "field-header-not-object",
        "field-values-not-pairs", "field-no-values",
        "config-command-list", "config-out-dir-null", "config-out-dir-int",
        "decay-input-not-numeric", "decay-input-header-only", "decay-input-one-column",
        "decay-input-nan", "decay-window-one-number", "decay-window-three-numbers",
        "spectrum-theta-not-number", "spectrum-theta-nan", "gaps-theta-zero-denominator", "lattice-rational-theta-not-number",
        "lattice-rational-theta-three-halves", "lattice-rational-theta-minus-half", "lattice-rational-theta-one",
        "lattice-rational-theta-one-over-one", "spectrum-theta-three-halves", "gaps-theta-minus-half",
        "evolve-eigs-empty", "fibers-not-npz", "fibers-npz-without-mu", "fibers-empty-file",
        "evolve-eigs-nan", "evolve-eigs-inf", "evolve-T-nan", "evolve-T-inf", "evolve-beta-nan",
        "evolve-beta-inf", "evolve-boundary-nan", "ellreg-s-list-empty", "verify-gap-eigs-empty",
        "verify-gap-eigs-empty-with-window", "verify-gap-eigs-without-b", "verify-gap-ensemble-with-window",
        "verify-gap-ensemble-with-alpha", "verify-gap-eigs-nan", "verify-gap-eigs-inf", "verify-gap-a-nan",
        "verify-gap-b-inf", "verify-gap-alpha-nan", "verify43-weight-lambda-nan", "verify43-eps-nan",
        "verify43-eps-inf", "ellreg-eps-nan", "system-check-eigs-nan", "system-check-a-nan", "system-check-b-inf",
        "field-values-not-numeric", "field-blank-lines-only", "decay-input-comment-and-empty-lines",
        "field-header-not-json", "field-npz-header-not-json", "field-header-not-utf8", "ellreg-s-list-nan",
        "counterexample-lambda-nan", "counterexample-T-negative", "counterexample-T-inf",
        *(f"fibers-{name}" for name in _BAD_FIBER_ENTRIES), "fibers-cells-lo-misspelled",
        "field-sample-nan", "field-npz-sample-inf", "forward-lmax-negative", "residual-lmax-negative",
        "counterexample-lambdas-empty", "counterexample-lambdas-comma", "evolve-beta-negative",
        "inverse-two-fibers-of-a-2d-grid", "inverse-repeated-theta", "lattice-gram-not-square",
        "lattice-gram-not-symmetric", "density-gram-not-symmetric", "decay-input-t-decreasing",
        "decay-window-outside-profile", "config-command-not-pipeline", "field-rows-not-utf8",
        "profile-rows-not-utf8",
    ],
)
def test_malformed_input_is_schema_error(argv, content, lat_json, tmp_path, capsys):
    is_zip = isinstance(content, bytes) and content.startswith(b"PK")  # an .npz archive
    bad = tmp_path / ("bad.npz" if is_zip else "bad.json")
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content or "")
    argv = [a.format(lat=lat_json, bad=bad) for a in argv]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    if isinstance(content, bytes) and not is_zip and b"\xff" in content:  # a text file that is not UTF-8 is named
        assert str(bad) in err
    if err.startswith("usage: "):  # a non-finite float or a negative count is a usage error naming the flag
        usage = r"'(-?(nan|inf)' is not a finite number|-1' is not an integer >= 0)$"
        assert re.search(r"error: argument --[\w-]+: " + usage, err)
    else:
        assert err.startswith("error: ")


# Any JSON value, NaN and infinity included, with small numbers, number pairs and
# 2x2 matrices drawn often, so that a fair share of the documents is well formed.
# Strings hold no path separator: a path-valued key names nothing outside the
# working directory.
_PAIRS = st.lists(st.floats(-1.0, 10.0), min_size=2, max_size=2)
_JSON_VALUES = st.one_of(
    st.integers(-2, 40), st.floats(-100.0, 100.0), _PAIRS, st.lists(_PAIRS, min_size=2, max_size=2),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(st.characters(blacklist_characters="/\\"), max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=16,
    ),
)
_LATTICE_DOC = {"dim": 2, "basis": [[TWO_PI, 0.0], [0.0, TWO_PI]]}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["dim", "basis", "gram_exact", "dual_gram_exact", "mystery"]), _JSON_VALUES)
def test_any_lattice_value_exits_by_the_contract(tmp_path_factory, key, value):
    path = tmp_path_factory.getbasetemp() / "any_lattice.json"
    path.write_text(json.dumps({**_LATTICE_DOC, key: value}))
    for argv in (["volume"], ["rational", "--theta", "1/2,0"]):
        assert main(["lattice", *argv, "--lattice", str(path)]) in (EXIT_OK, EXIT_PRECONDITION, EXIT_IO)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([*json.loads(_field().split("\n")[0]), "mystery"]), _JSON_VALUES)
def test_any_field_header_value_exits_by_the_contract(tmp_path_factory, key, value):
    base = tmp_path_factory.getbasetemp()
    (base / "any_header_lattice.json").write_text(json.dumps(_LATTICE_DOC))
    (base / "any_header.csv").write_text(_field(**{key: value}))
    argv = [a.format(lat=base / "any_header_lattice.json", bad=base / "any_header.csv") for a in _ROUNDTRIP]
    assert main(argv) in (EXIT_OK, EXIT_PRECONDITION, EXIT_IO)


@pytest.fixture(scope="module")
def tiny_pipeline_config(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny_pipeline")
    lat_path, u_path, _ = manufactured_line_input(base, theta_points=2, n=4)
    params = {"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 2, "cutoff": 30.0}
    return base, {"command": "pipeline", "seed": 7, "params": params}


_PARAM_NAMES = ["lattice", "u_field", "v_field", "energy", "theta_points", "l_max", "cutoff", "min_gap",
                "decay_window", "max_modes", "carleman_taper", "plots", "mystery"]
_CONFIG_PLACES = [(key,) for key in ("command", "params", "seed", "out_dir", "threads", "tolerances", "mystery")]
_CONFIG_PLACES += [("params", key) for key in _PARAM_NAMES]
_CONFIG_PLACES += [("tolerances", key) for key in ("carleman_pass_rtol", "resolution_gate_rtol")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CONFIG_PLACES), _JSON_VALUES)
def test_any_config_value_exits_by_the_contract(tiny_pipeline_config, place, value):
    # a large theta_points is a large run, not a malformed document
    assume(not (place == ("params", "theta_points") and type(value) is int and value > 4))
    base, doc = tiny_pipeline_config
    doc = {**doc, "params": dict(doc["params"]), "tolerances": {}}
    *outer, key = place
    (doc[outer[0]] if outer else doc)[key] = value
    path = base / "any_config.json"
    path.write_text(json.dumps(doc))
    code = main(["pipeline", "--config", str(path), "--out-dir", str(base / "out")])
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_VIOLATION, EXIT_IO)


def test_theta_grid_over_budget_is_refused_before_any_output(tiny_pipeline_config, tmp_path, capsys):
    base, doc = tiny_pipeline_config
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps({**doc, "params": {**doc["params"], "theta_points": 10**6}}))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    # 10^6 fibers of 4 points per cell and 1025 t samples, 16 bytes each
    assert captured.err.startswith("error: a theta grid of 1000000^1 fibers needs 65600000000 bytes, "
                                   "budget is 1073741824")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("growth", [",", "-5,10", "-100,-50"])
def test_gaps_growth_refuses_an_empty_or_negative_n_list(growth, tmp_path, capsys):
    lat_path = tmp_path / "z3.json"
    lat_path.write_text(json.dumps({"basis": (TWO_PI * np.eye(3)).tolist(),
                                    "dual_gram_exact": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    assert main(["gaps", "--lattice", str(lat_path), f"--growth={growth}"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: N_list must be a non-empty list of N >= 0")


def test_evolve_full_solve_over_memory_budget_is_refused(capsys):
    # T = 10 gives 2001 points: 1999 * 100 unknowns pass, about 803 MB of band and LU do not
    eigs = ",".join(str(1.0 + 0.08 * i) for i in range(100))
    argv = ["evolve", "--eigs", eigs, "--perturbation", "full", "--beta", "0.1", "--T", "10"]
    assert main(argv) == EXIT_PRECONDITION
    assert "MiB" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve", "--eigs", "1e-300"],  # the default T = 30 / sqrt(mu) asks for about 6e153 points
    ["evolve", "--eigs", "1", "--T", "1e9"],
    ["evolve", "--eigs", "1", "--T", "1e307"],  # T / 0.005 overflows to inf
    ["evolve", "--eigs", "1,4", "--perturbation", "diagonal", "--beta", "0.1", "--T", "1e6"],
])
def test_evolve_solve_over_memory_budget_is_refused(argv, capsys):
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MiB against the 256 MiB limit" in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["evolve", "--eigs", "1e308"],  # the default T makes 2/h^2 overflow
    ["evolve", "--eigs", "1", "--T", "1e-200"],  # h^2 underflows to 0
])
def test_evolve_band_that_overflows_is_refused(argv, capsys):
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: discrete system is not finite")
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["carleman", "verify-gap", "--eigs", "1,90000", "--a", "200", "--b", "299"],
    ["carleman", "verify43", "--eps", "0.5", "--weight-lambda", "400"],
    ["carleman", "system-check", "--eigs", "1,90000", "--a", "200", "--b", "299"],
    ["carleman", "verify43", "--eps", "1", "--weight-lambda", "1e120"],  # lambda^3 overflows a float
    ["carleman", "verify43", "--eps", "1e-100"],  # so does eps^(-4/3) cubed
])
def test_carleman_weight_overflow_is_refused(argv, capsys):
    """e^(2wt) or e^(2 lambda t^(4/3)) overflows on the support: a refusal, not a NaN verdict."""
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "the weight exp(" in captured.err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["lattice", "dual", "--lattice", str(tmp_path / "nope.json")]) == EXIT_IO


@pytest.mark.parametrize(
    "content",
    [_npz_bytes(values=np.full(20, 0.5)), _npz_bytes(header=_FIELD_HEADER), _field().encode()],
    ids=["field-npz-without-header", "field-npz-without-values", "field-text-named-npz"],
)
def test_malformed_npz_field_is_schema_error_naming_the_file(content, lat_json, tmp_path, capsys):
    field = tmp_path / "field.npz"
    field.write_bytes(content)
    assert main([a.format(lat=lat_json, bad=field) for a in _ROUNDTRIP]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(field) in err


@pytest.mark.parametrize(
    "argv, content, code",
    [
        (_ROUNDTRIP, _field(t_start=1.0), EXIT_IO),
        (_ROUNDTRIP, _field(t_points=1).split("\n")[0] + "\n" + "0.5,0.0\n" * 4, EXIT_IO),
        (_ROUNDTRIP, _field(cells_lo=[0, 0, 0]), EXIT_IO),
        (_ROUNDTRIP, _field(cells_shape=[2, 1], kind="potential").split("\n")[0] + "\n"
         + "0.5,0.0\n" * 39 + "1.5,0.0\n", EXIT_IO),
        (_INVERSE, _fiber(data=np.zeros((4, 4, 1), complex)), EXIT_IO),
        (_INVERSE, _fiber(mu=np.array([1.5, 0.5])), EXIT_IO),
        (_DECAY + ["2,8"], "t,norm\n" + "".join(f"{t!r},1.0\n" for t in (0.0, 0.1, 0.25, 0.3, 0.4)), EXIT_IO),
        (_DECAY + ["2,8"], "t,norm\n" + "".join(f"{0.1 * i - 1.0!r},1.0\n" for i in range(101)), EXIT_IO),
        (_ROUNDTRIP, _field(dim=1, cells_lo=[0], cells_shape=[1]), EXIT_PRECONDITION),
        (_INVERSE, _fiber(mu=np.array([0.5]), data=np.zeros((4, 5), complex), cells_lo=np.array([0])),
         EXIT_PRECONDITION),
    ],
    ids=["field-t-start-at-t-end", "field-one-t-point", "field-cells-lo-of-another-length",
         "field-potential-not-periodic", "fiber-one-t-sample", "fiber-mu-out-of-range",
         "decay-input-t-not-uniform", "decay-input-t-negative",
         "field-of-another-dimension", "fiber-of-another-dimension"],
)
def test_a_file_its_object_refuses_is_a_schema_error_naming_the_file(argv, content, code, lat_json, tmp_path,
                                                                      capsys):
    """Whatever the object's own refusal, its loader reports it as the file's (exit 4); a file of
    another dimension than its lattice is a refusal of the pair (exit 2), named too."""
    bad = tmp_path / ("bad.npz" if isinstance(content, bytes) else "bad.csv")
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    assert main([a.format(lat=lat_json, bad=bad) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def test_fiber_entries_are_checked_by_name(lat_json, tmp_path, capsys):
    """The well-formed baseline of the fiber cases above inverts; each bad entry is named with its file."""
    fiber = tmp_path / "fiber.npz"
    fiber.write_bytes(_fiber())
    assert main([a.format(lat=lat_json, bad=fiber) for a in _INVERSE]) == EXIT_OK
    for entries in _BAD_FIBER_ENTRIES.values():
        fiber.write_bytes(_fiber(**entries))
        assert main([a.format(lat=lat_json, bad=fiber) for a in _INVERSE]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(fiber) in err and f" {next(iter(entries))!r} must be " in err
        assert len(err) < len(str(fiber)) + 200  # the value is shown in a bounded repr
    fiber.write_bytes(_fiber(cells_lo=None, cell_lo=np.array([0, 0])))  # not ignored: it would move the box
    assert main([a.format(lat=lat_json, bad=fiber) for a in _INVERSE]) == EXIT_IO
    assert capsys.readouterr().err == f"error: fiber file {fiber}: unknown keys: ['cell_lo']\n"


_BAD_HEADER = np.frombuffer(_field(points_per_cell="2").split("\n")[0].encode(), np.uint8)
_CONFIG_ARGV = ["pipeline", "--config", "{bad}"]
_LATTICE_ARGV = ["lattice", "dual", "--lattice", "{bad}"]


# (argv, what the message calls the file, suffix, content): for each reader, a file that
# does not parse, a key that is unknown or ill-typed, and a number that is not finite
@pytest.mark.parametrize("argv, what, suffix, content", [
    (_CONFIG_ARGV, "config", ".json", '{"command": '),
    (_CONFIG_ARGV, "config", ".json", _config(mystery=1)),
    (_CONFIG_ARGV, "config", ".json", _config(params={**_PIPELINE_PARAMS, "energy": math.nan})),
    (_LATTICE_ARGV, "lattice file", ".json", '{"basis": '),
    (_LATTICE_ARGV, "lattice file", ".json", '{"basis": [[1]], "mystery": 1}'),
    (_LATTICE_ARGV, "lattice file", ".json", '{"basis": [[NaN]]}'),
    (_ROUNDTRIP, "field file", ".csv", "{not json\n" + "0.5,0.0\n" * 20),
    (_ROUNDTRIP, "field file", ".csv", _field(points_per_cell="2")),
    (_ROUNDTRIP, "field file", ".csv", _field().replace("0.5,0.0\n", "nan,0\n", 1)),
    (_ROUNDTRIP, "field file", ".npz", b"not an archive"),
    (_ROUNDTRIP, "field file", ".npz", _npz_bytes(header=_BAD_HEADER, values=np.full(20, 0.5 + 0j))),
    (_ROUNDTRIP, "field file", ".npz", _npz_bytes(header=_FIELD_HEADER, values=np.r_[math.inf, np.zeros(19)])),
    (_INVERSE, "fiber file", ".npz", b"not an archive"),
    (_INVERSE, "fiber file", ".npz", _fiber(cells_lo=None, cell_lo=np.array([0, 0]))),
    (_INVERSE, "fiber file", ".npz", _fiber(data=np.full((4, 4, 5), math.nan, complex))),
    (_DECAY + ["2,8"], "profile", ".csv", "t,norm\n0.0,abc\n"),
    (_DECAY + ["2,8"], "profile", ".csv", "t\n0.0\n0.1\n0.2\n"),
    (_DECAY + ["2,8"], "profile", ".csv", _PROFILE.replace("1.0\n", "nan\n", 1)),
], ids=[f"{kind}-{case}" for kind in ("config", "lattice", "field-text", "field-npz", "fiber", "profile")
        for case in ("not-parsed", "bad-key", "not-finite")])
def test_every_input_file_refusal_names_the_file_once(argv, what, suffix, content, lat_json, tmp_path, capsys):
    """One rule for every reader: exit 4, and the message reads '<what> <path>: <reason>'."""
    bad = tmp_path / f"bad{suffix}"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    assert main([a.format(lat=lat_json, bad=bad) for a in argv]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {bad}: ") and err.count(str(bad)) == 1


def test_singular_lattice_file_is_a_refusal_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis": [[1, 0], [1, 0]]}')
    assert main(["lattice", "dual", "--lattice", str(bad)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"error: lattice file {bad}: lattice cell volume") and err.count(str(bad)) == 1


@pytest.mark.parametrize("argv, wrong", [
    (["gelfand", "forward", "--lattice", "{lat}", "--u", "{bad}", "--theta", "0,0", "--out", "{good}.npz"],
     "potential"),
    (_ROUNDTRIP, "potential"),
    (["gelfand", "residual", "--lattice", "{lat}", "--u", "{bad}", "--theta", "0,0"], "potential"),
    (["gelfand", "residual", "--lattice", "{lat}", "--u", "{good}", "--theta", "0,0", "--v", "{bad}"], "u"),
], ids=["forward-u", "roundtrip-u", "residual-u", "residual-v"])
def test_a_field_of_the_other_kind_is_refused_naming_the_file(argv, wrong, lat_json, tmp_path, capsys):
    """--u takes a field of kind u and --v one of kind potential; either file of the other kind exits 4."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(_field())
    right = "u" if wrong == "potential" else "potential"
    for kind, code in ((right, EXIT_OK), (wrong, EXIT_IO)):
        bad.write_text(_field(kind=kind))
        assert main([a.format(lat=lat_json, bad=bad, good=good) for a in argv]) == code
    assert capsys.readouterr().err == f"error: field file {bad}: field kind must be {right!r}, not {wrong!r}\n"


@pytest.mark.parametrize("key, wrong", [("u_field", "potential"), ("v_field", "u")])
def test_pipeline_field_of_the_other_kind_is_refused_naming_the_file(key, wrong, lat_json, tmp_path, capsys):
    good, bad, config = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "run.json"
    good.write_text(_field())
    bad.write_text(_field(kind=wrong))
    params = {"lattice": lat_json, "u_field": str(good), "theta_points": 1, key: str(bad)}
    config.write_text(json.dumps({"command": "pipeline", "params": params, "out_dir": str(tmp_path / "out")}))
    assert main(["pipeline", "--config", str(config)]) == EXIT_IO
    right = "u" if wrong == "potential" else "potential"
    assert capsys.readouterr().err == f"error: field file {bad}: field kind must be {right!r}, not {wrong!r}\n"
    assert not (tmp_path / "out").exists()


def test_unknown_fiber_entry_is_refused_before_it_is_read(lat_json, tmp_path):
    """An unknown 16 MiB entry is refused by name at a traced peak well under its size."""
    fiber = tmp_path / "fiber.npz"
    fiber.write_bytes(_fiber(extra=np.zeros(2**21)))
    lat = Lattice.load(lat_json)

    def refused():
        with pytest.raises(SchemaError, match=re.escape(f"fiber file {fiber}: unknown keys: ['extra']")):
            load_fiber(fiber, lat)

    assert traced_peak(refused)[1] < 2**20


@pytest.mark.parametrize("extra", [np.array(["x"]), np.zeros(2**21)], ids=["text", "16-MiB"])
def test_unknown_field_entry_is_refused_before_it_is_read(extra, lat_json, tmp_path, capsys):
    """A field archive, like a fiber's, holds only the names its reader gives: another exits 4, naming the file."""
    field = tmp_path / "field.npz"
    field.write_bytes(_npz_bytes(header=_FIELD_HEADER, values=np.full(20, 0.5 + 0j), extra=extra))
    assert main([a.format(lat=lat_json, bad=field) for a in _ROUNDTRIP]) == EXIT_IO
    assert capsys.readouterr().err == f"error: field file {field}: unknown keys: ['extra']\n"
    lat = Lattice.load(lat_json)

    def refused():
        with pytest.raises(SchemaError, match=re.escape(f"field file {field}: unknown keys: ['extra']")):
            load_field(field, lat)

    assert traced_peak(refused)[1] < 2**20


def test_non_finite_json_result_is_refused_not_printed(monkeypatch, capsys):
    from halfspace_decay import evolution

    real = evolution.decay_rate_estimate
    monkeypatch.setattr(evolution, "decay_rate_estimate", lambda *a: dataclasses.replace(real(*a), rate=math.nan))
    assert main(["evolve", "--eigs", "1,4"]) == EXIT_IO
    out = capsys.readouterr()
    assert out.out == "" and "not finite" in out.err


@pytest.mark.parametrize("eigs, empty", [("9", ["min_eig_b0"]), ("1", ["min_eig_b1", "max_eig_b2"])],
                         ids=["above-gap-only", "below-gap-only"])
def test_one_sided_spectrum_certifies_with_null_bounds(eigs, empty, capsys):
    """A bound over an empty projector range is printed as null, and the check still certifies."""
    assert main(["carleman", "system-check", "--eigs", eigs, "--a", "2", "--b", "3"]) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    bounds = ["min_eig_b0", "min_eig_b1", "max_eig_b2"]
    assert [k for k in bounds if doc[k] is None] == empty
    assert all(math.isfinite(doc[k]) for k in bounds if k not in empty) and doc["certificates_ok"] is True


_BELOW_ALPHA = "error: an eigenvalue lies below -alpha\n"


@pytest.mark.parametrize("argv, code, err", [
    (["verify-gap", "--eigs=-5,9", "--a", "1", "--b", "2"], EXIT_PRECONDITION, _BELOW_ALPHA),
    (["verify-gap", "--eigs=-5,9", "--a", "1", "--b", "2", "--alpha", "0"], EXIT_PRECONDITION, _BELOW_ALPHA),
    (["system-check", "--eigs=-5,9", "--a", "1", "--b", "2"], EXIT_PRECONDITION,
     "error: need 3a^2 > alpha, got 3a^2=3, alpha=5\n"),
    (["verify-gap", "--eigs=-5,9", "--a", "2", "--b", "3", "--alpha", "5"], EXIT_OK, ""),
], ids=["verify-gap", "verify-gap-alpha-0", "system-check", "verify-gap-alpha-5"])
def test_eigenvalue_below_minus_alpha_is_a_refusal(argv, code, err, capsys):
    """The gap inequality's hypotheses, not the profile, judge --alpha: an eigenvalue below -alpha exits 2."""
    assert main(["carleman", *argv]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv, target",
    [(["carleman", "verify-gap", "--ensemble", "3", "--out-dir", "{out}"], "verify_carleman_gap"),
     (["carleman", "ellreg", "--eps", "0.5", "--s-list", "2", "--ensemble", "3"], "ellreg_bound_check")],
    ids=["verify-gap", "ellreg"],
)
def test_non_finite_record_refuses_the_whole_ensemble(argv, target, monkeypatch, tmp_path, capsys):
    """One non-finite record among several: no record is printed and no report file is written."""
    from halfspace_decay import carleman

    real, calls = getattr(carleman, target), []

    def second_not_finite(*args, **kwargs):
        calls.append(None)
        report = real(*args, **kwargs)
        field = "margin" if target == "verify_carleman_gap" else "sup_ratio"
        return dataclasses.replace(report, **{field: math.nan}) if len(calls) == 2 else report

    monkeypatch.setattr(carleman, target, second_not_finite)
    out = tmp_path / "reports"
    assert main([a.format(out=out) for a in argv]) == EXIT_IO
    printed = capsys.readouterr()
    assert len(calls) == 3 and printed.out == "" and "not finite" in printed.err
    assert not out.exists()


def test_missing_npz_field_is_io_error(lat_json, tmp_path, capsys):
    argv = [a.format(lat=lat_json, bad=tmp_path / "nope.npz") for a in _ROUNDTRIP]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err.startswith("io error: ")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--theta", "0,0", "--cutoff", "10"], ["evolve", "--eigs", "1,4", "--n-points", "3"]],
    ids=["spectrum-without-lattice", "evolve-unknown-flag"],
)
def test_usage_error_is_schema_error(argv, capsys):
    # exit 2 is the contract's precondition refusal, not argparse's usage error
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err.startswith("usage: halfspace-decay")


LAT = "<lattice>"


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--lattice", LAT, "--cutoff", "nan"], "--cutoff"),
    (["spectrum", "--lattice", LAT, "--cutoff", "inf"], "--cutoff"),
    (["spectrum", "--lattice", LAT, "--cutoff", "10", "--energy", "nan"], "--energy"),
    (["gaps", "--lattice", LAT, "--cutoff", "5", "--energy", "inf"], "--energy"),
    (["gaps", "--lattice", LAT, "--cutoff", "10", "--min-gap", "nan"], "--min-gap"),
    (["carleman", "verify43", "--eps", "1", "--modes", "0"], "--modes"),
    (["carleman", "verify-gap", "--ensemble", "0"], "--ensemble"),
], ids=["spectrum-cutoff-nan", "spectrum-cutoff-inf", "spectrum-energy-nan", "gaps-energy-inf",
        "gaps-min-gap-nan", "verify43-modes-0", "verify-gap-ensemble-0"])
def test_bad_number_is_refused_where_argparse_reads_it(argv, flag, lat_json, capsys):
    assert main([lat_json if a == LAT else a for a in argv]) == EXIT_IO
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["carleman", "verify43", "--eps", "1"],
    ["carleman", "verify-gap"],
    ["carleman", "ellreg", "--eps", "0.5", "--s-list", "2"],
    ["evolve", "--eigs", "1,4", "--perturbation", "diagonal"],
], ids=["verify43", "verify-gap", "ellreg", "evolve-diagonal"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.9"])
def test_bad_seed_is_a_usage_error(argv, seed, capsys):
    """Every --seed takes the config's rule: an integer in [0, 2**64)."""
    assert main([*argv, "--seed", seed]) == EXIT_IO
    assert "error: argument --seed: " in capsys.readouterr().err


def test_system_check_takes_no_seed(capsys):
    """system-check draws nothing, so it has no --seed: one given is a usage error (exit 4)."""
    assert main(["carleman", "system-check", "--eigs", "1,9", "--a", "2", "--b", "3", "--seed", "7"]) == EXIT_IO
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


_GAPS_GROWTH = ["gaps", "--lattice", LAT, "--growth", "100,1000"]
_VERIFY_GAP_EIGS = ["carleman", "verify-gap", "--eigs", "1,9", "--a", "1.5", "--b", "2.5"]
_EVOLVE_ZERO = ["evolve", "--eigs", "1,4", "--T", "10"]


@pytest.mark.parametrize("argv, message", [
    (_GAPS_GROWTH + ["--cutoff", "7"], "error: gaps --growth does not read --cutoff"),
    (_GAPS_GROWTH + ["--energy", "5"], "error: gaps --growth does not read --energy"),
    (_GAPS_GROWTH + ["--min-gap", "3"], "error: gaps --growth does not read --min-gap"),
    (_GAPS_GROWTH + ["--full-axis"], "error: gaps --growth does not read --full-axis"),
    (_VERIFY_GAP_EIGS + ["--seed", "9"], "error: verify-gap --eigs does not read --seed"),
    (_VERIFY_GAP_EIGS + ["--ensemble", "3"], "error: verify-gap --eigs does not read --ensemble"),
    (_EVOLVE_ZERO + ["--beta", "5"], "error: evolve --perturbation zero does not read --beta"),
    (_EVOLVE_ZERO + ["--perturbation", "zero", "--bound", "const"],
     "error: evolve --perturbation zero does not read --bound"),
    (_EVOLVE_ZERO + ["--seed", "3"], "error: evolve --perturbation zero does not read --seed"),
    (["counterexample", "--lambdas", "0.5", "--T", "100", "--X", "200"], "unrecognized arguments: --X 200"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}", "--threads", "8"],
     "unrecognized arguments: --threads 8"),
], ids=["gaps-growth-cutoff", "gaps-growth-energy", "gaps-growth-min-gap", "gaps-growth-full-axis",
        "verify-gap-eigs-seed", "verify-gap-eigs-ensemble", "evolve-zero-beta", "evolve-zero-bound",
        "evolve-zero-seed", "counterexample-X", "pipeline-threads"])
def test_flag_that_changes_nothing_is_refused(argv, message, lat_json, line_pipeline_input, tmp_path, capsys):
    """A flag that no mode reads is gone (a usage error); one that a mode ignores is refused there (one line)."""
    lat_path, u_path, _ = line_pipeline_input
    config = tmp_path / "run.json"
    params = {"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 3, "cutoff": 30.0}
    config.write_text(json.dumps({"command": "pipeline", "params": params}))
    argv = [{LAT: lat_json, "{config}": str(config), "{out}": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    if message.startswith("error: "):
        assert captured.err == message + "\n"
    else:
        assert captured.err.startswith("usage: ") and message in captured.err


def test_every_flag_of_a_mode_that_reads_it_is_accepted(lat_json, capsys):
    """The refused flags keep their defaults where their mode reads them: given at the default, the same output."""
    for bare, given in [
        (["gaps", "--lattice", lat_json, "--cutoff", "20"],
         ["--energy", "0", "--min-gap", "0"]),
        (["carleman", "verify-gap"], ["--seed", "0", "--ensemble", "1"]),
        (["evolve", "--eigs", "1,4", "--T", "10", "--perturbation", "diagonal"],
         ["--beta", "0", "--bound", "exp", "--seed", "0"]),
    ]:
        assert main(bare) == EXIT_OK
        ref = capsys.readouterr()
        assert main(bare + given) == EXIT_OK
        assert capsys.readouterr() == ref and ref.err == ""


def test_largest_seed_is_accepted(capsys):
    assert main(["carleman", "verify43", "--eps", "1", "--seed", str(2**64 - 1)]) == EXIT_OK


def test_gelfand_residual_refuses_non_finite_energy(tmp_path, capsys):
    from halfspace_decay.fields import SampledField, save_field
    from halfspace_decay.lattice import Lattice

    lat = Lattice(basis=np.array([[TWO_PI]]), dual_gram_exact=[["1"]])
    lat_path = tmp_path / "line.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    u = SampledField(kind="u", lattice=lat, cells_lo=(0,), cells_shape=(1,), points_per_cell=4,
                     t_start=0.0, t_end=1.0, values=np.ones((4, 5)))
    save_field(u, tmp_path / "u.csv")
    argv = ["gelfand", "residual", "--lattice", str(lat_path), "--u", str(tmp_path / "u.csv"),
            "--theta", "0", "--energy", "nan"]
    assert main(argv) == EXIT_IO
    assert "argument --energy: " in capsys.readouterr().err


def test_gelfand_residual_at_a_huge_energy_is_finite(tmp_path, capsys):
    """|res|^2 overflows at energy 1e200; the rows are the residual, not inf."""
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=2, n=4, nt=65)
    rows = {}
    for energy in ("1e150", "1e200"):
        argv = ["gelfand", "residual", "--lattice", str(lat_path), "--u", str(u_path), "--theta", "1/4",
                "--energy", energy]
        assert main(argv) == EXIT_OK
        rows[energy] = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
    assert np.allclose(rows["1e200"][:, 1], 1e50 * rows["1e150"][:, 1], rtol=1e-13, atol=0.0)


def test_gelfand_residual_that_overflows_is_refused(tmp_path, capsys):
    """At energy 1e308 the residual itself leaves the floats: exit 2 naming the energy, no rows, no warning.

    At 1e300 it is about 2.3e300, and every row is printed.
    """
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=2, n=4, nt=65)
    argv = ["gelfand", "residual", "--lattice", str(lat_path), "--u", str(u_path), "--theta", "1/4", "--energy"]
    assert main([*argv, "1e300"]) == EXIT_OK
    rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
    assert rows.shape == (63, 2) and np.all(np.isfinite(rows))
    assert 2e300 < rows[0, 1] < 2.5e300
    for energy in ("1e308", "-1e308"):
        assert main([*argv, energy]) == EXIT_PRECONDITION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: the fiber residual at energy {float(energy):g} overflows\n"


_RESIDUAL_AT = ["gelfand", "residual", "--lattice", "{lat}", "--u", "{u}", "--theta", "1/4", "--energy"]


@pytest.mark.parametrize("argv, value", [
    (_RESIDUAL_AT, "-1e5"),
    (_RESIDUAL_AT, "-1.5E-3"),
    (_RESIDUAL_AT, "-.5"),
    (["carleman", "system-check", "--a", "2", "--b", "3", "--eigs"], "-1,9"),
], ids=["energy-exponent", "energy-upper-exponent", "energy-point", "eigs-list"])
def test_a_value_that_starts_with_a_minus_sign_reads_as_with_an_equals_sign(argv, value, tmp_path, capsys):
    """``--flag -1e5`` is ``--flag=-1e5``: a minus sign then a digit or a point starts a value, not an option."""
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=2, n=4, nt=65)
    argv = [a.format(lat=lat_path, u=u_path) for a in argv]
    outputs = []
    for form in ([*argv, value], [*argv[:-1], f"{argv[-1]}={value}"]):
        assert main(form) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out and not outputs[0].err


def test_an_option_after_a_flag_is_still_a_missing_value(capsys):
    assert main(["gelfand", "residual", "--lattice", "l", "--u", "u", "--theta", "0", "--energy", "-x"]) == EXIT_IO
    assert "argument --energy: expected one argument" in capsys.readouterr().err


def test_non_finite_list_entry_is_refused_where_it_is_parsed(capsys):
    assert main(["evolve", "--eigs", "1,4", "--boundary", "1,nan"]) == EXIT_IO
    assert capsys.readouterr().err == "error: cannot parse '1,nan' as a comma-separated list: 'nan' is not a finite number\n"


def test_evolve_zero_horizon_is_refused(capsys):
    assert main(["evolve", "--eigs", "1,4", "--T", "0"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: T must be positive")


def test_verify43_weight_that_overflows_is_refused(capsys):
    """eps^(-4/3) overflows a float at eps = 1e-300: a refusal, not an OverflowError."""
    assert main(["carleman", "verify43", "--eps", "1e-300"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: the weight exp(")


@pytest.mark.parametrize("extra", [[], ["--weight-lambda", "5"]], ids=["eps-alone", "with-weight-lambda"])
def test_verify43_bad_eps_is_one_refusal(extra, capsys):
    """A non-positive eps is refused before any case builds its grid on [0, eps + 3]."""
    assert main(["carleman", "verify43", "--eps", "-1", *extra]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: eps must be positive")


@pytest.mark.parametrize("argv, message", [
    (["--eps", "1e17"], "error: eps=1e+17 leaves no room for a bump: floats near eps+3 are 16 apart"),
    (["--eps", "1e15", "--ensemble", "3"], "error: the bump on (1e+15, 1e+15) is 0 on every point of the grid"),
], ids=["eps-plus-3-rounds-to-eps", "bump-between-grid-points"])
def test_verify43_case_its_grid_cannot_hold_is_refused(argv, message, capsys):
    """A case whose bump cannot be drawn, or is 0 on every grid point, is refused, never passed."""
    assert main(["carleman", "verify43", *argv]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


def test_verify43_modes_over_budget_are_refused_before_the_draw(monkeypatch, capsys):
    """--modes 1023 is the largest whose residual plane on 8193 points fits MODES_BYTES."""
    from halfspace_decay import ensembles

    largest = ensembles.MODES_BYTES // (8 * ensembles.DEFAULT_T_POINTS)
    assert largest == 1023
    assert main(["carleman", "verify43", "--eps", "1", "--modes", str(largest)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(ensembles, "random_modes", lambda *args: pytest.fail("modes drawn over budget"))
    for modes in (largest + 1, 10**8):
        assert main(["carleman", "verify43", "--eps", "1", "--modes", str(modes)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {modes} modes on 8193 points need ")


def test_gaps_without_cutoff_or_growth_is_refused(lat_json, capsys):
    assert main(["gaps", "--lattice", lat_json]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: gaps requires --cutoff")


@pytest.mark.parametrize("points", ["2", "4", "100000"])
def test_gelfand_roundtrip_onto_another_box_is_refused(points, tmp_path, capsys, monkeypatch):
    """P theta points rebuild P cells per axis: a 3-cell field round-trips on 3 only,
    and another P is refused before any transform (the inverse's phases grow as P^2)."""
    from halfspace_decay import cli

    def no_transform(*args):
        raise AssertionError("gelfand_forward called on a box the inverse cannot rebuild")

    monkeypatch.setattr(cli, "gelfand_forward", no_transform)
    lat_path, u_path, _ = manufactured_line_input(tmp_path, theta_points=3, nt=5)
    argv = ["gelfand", "roundtrip", "--lattice", str(lat_path), "--u", str(u_path), "--theta-points", points]
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: round trip box mismatch")


def test_evolve_writes_its_plot_and_profile(tmp_path, capsys):
    """--svg and --out each write their file, and the plot's bytes repeat from run to run."""
    plots = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        svg, profile = tmp_path / run / "decay.svg", tmp_path / run / "profile.csv"
        assert main(["evolve", "--eigs", "4", "--T", "15", "--svg", str(svg), "--out", str(profile)]) == EXIT_OK
        assert profile.read_text().startswith("t,norm\n")
        plots.append(svg.read_bytes())
    assert plots[0] == plots[1] and b"<polyline" in plots[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_enumeration_box_over_budget_is_refused(dim, tmp_path, capsys):
    lat_path = tmp_path / "lat.json"
    lat_path.write_text(json.dumps({"basis": (TWO_PI * np.eye(dim)).tolist()}))
    assert main(["spectrum", "--lattice", str(lat_path), "--cutoff", "1e300"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: enumeration needs")


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: halfspace-decay")


def test_carleman_cli_pass_and_refuse(tmp_path, capsys):
    assert main([
        "carleman", "verify43", "--eps", "1.0", "--ensemble", "2", "--seed", "3",
        "--out-dir", str(tmp_path / "rep"),
    ]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and all(json.loads(l)["passed"] for l in out)
    assert (tmp_path / "rep" / "verify43_reports.json").exists()
    assert (tmp_path / "rep" / "verify43_summary.csv").exists()
    assert (tmp_path / "rep" / "verify43_margins.svg").exists()

    assert main(["carleman", "verify43", "--eps", "1.0", "--weight-lambda", "0.5"]) == EXIT_PRECONDITION

    assert main([
        "carleman", "verify-gap", "--a", "0.5", "--b", "1.5", "--eigs", "1",
    ]) == EXIT_PRECONDITION
    capsys.readouterr()

    assert main([
        "carleman", "verify-gap", "--a", "0.5", "--b", "1.5", "--eigs", "1", "--force",
    ]) == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["passed"] is None

    assert main(["carleman", "verify-gap", "--ensemble", "3"]) == EXIT_OK
    capsys.readouterr()

    assert main(["carleman", "system-check", "--eigs", "1,9", "--a", "2", "--b", "3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["certificates_ok"] is True

    assert main(["carleman", "ellreg", "--eps", "0.5", "--s-list", "2,4"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert math.isfinite(out["sup_ratio"])


def test_gelfand_cli_round_trip(tmp_path, capsys):
    import math as _math

    from halfspace_decay.fields import SampledField, save_field, load_field
    from halfspace_decay.lattice import Lattice

    lat = Lattice(basis=np.array([[TWO_PI]]), dual_gram_exact=[["1"]])
    lat_path = tmp_path / "line.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    rng = np.random.default_rng(8)
    u = SampledField(
        kind="u", lattice=lat, cells_lo=(4,), cells_shape=(3,), points_per_cell=6,
        t_start=0.0, t_end=1.0,
        values=rng.normal(size=(18, 5)) + 1j * rng.normal(size=(18, 5)),
    )
    u_path = tmp_path / "u.csv"
    save_field(u, u_path)

    assert main([
        "gelfand", "roundtrip", "--lattice", str(lat_path), "--u", str(u_path),
        "--theta-points", "3",
    ]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["max_error"] < 1e-8

    fiber_paths = []
    for i, theta in enumerate(("1/6", "1/2", "5/6")):
        fp = tmp_path / f"fiber{i}.npz"
        assert main([
            "gelfand", "forward", "--lattice", str(lat_path), "--u", str(u_path),
            "--theta", theta, "--out", str(fp),
        ]) == EXIT_OK
        capsys.readouterr()
        fiber_paths.append(str(fp))
    back_path = tmp_path / "back.csv"
    assert main([
        "gelfand", "inverse", "--lattice", str(lat_path), "--fibers", *fiber_paths,
        "--out", str(back_path),
    ]) == EXIT_OK
    back = load_field(back_path, lat)
    assert back.cells_lo == u.cells_lo  # the box origin travels in the fiber files
    assert np.max(np.abs(back.values - u.values)) < 1e-8

    res_path = tmp_path / "res.csv"
    assert main([
        "gelfand", "residual", "--lattice", str(lat_path), "--u", str(u_path),
        "--theta", "1/2", "--out", str(res_path),
    ]) == EXIT_OK
    lines = res_path.read_text().strip().splitlines()
    assert lines[0] == "t,residual" and len(lines) == 4  # interior t points


def test_evolve_and_decay_round_trip(tmp_path, capsys):
    prof = tmp_path / "profile.csv"
    assert main(["evolve", "--eigs", "4", "--T", "15", "--out", str(prof)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["decay"]["rate"] == pytest.approx(2.0, rel=0.01)

    assert main(["decay", "--input", str(prof), "--window", "8,13"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["rate"] == pytest.approx(2.0, rel=0.01)
    assert out["superexp"] is False


def _file_object_rows(path) -> np.ndarray:
    """The rows as the reader took them before it gave np.loadtxt the path: from an open file, past the header."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        while True:
            start = fh.tell()
            if fh.readline().split("#")[0].strip():
                break
        fh.seek(start)
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def test_load_field_and_decay_input_give_np_loadtxt_a_path(lat_json, tmp_path, monkeypatch, capsys):
    """np.loadtxt reads a path with its chunked C reader, a file object one line at a time."""
    taken = []
    loadtxt = np.loadtxt

    def recording(fname, *args, **kwargs):
        taken.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    field, profile = tmp_path / "u.csv", tmp_path / "profile.csv"
    field.write_text(_field())
    profile.write_text(_PROFILE)
    assert main([a.format(lat=lat_json, bad=field) for a in _ROUNDTRIP]) == EXIT_OK
    assert main(["decay", "--input", str(profile), "--window", "2,8"]) == EXIT_OK
    assert [str(f) for f in taken] == [str(field), str(profile)]
    assert all(isinstance(f, (str, os.PathLike)) for f in taken)


# Lines np.loadtxt skips wherever they sit (a line of blanks or an indented
# comment it refuses, see below), rows of any finite float, and line endings of every kind
_SKIPPED = st.sampled_from(["", "# comment", "#"])


@settings(max_examples=100, deadline=None)
@given(
    skipped=st.lists(_SKIPPED, max_size=4),
    rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                            st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=8),
    inner=st.lists(st.sampled_from(["", "# between rows"]), max_size=2),
    trailing=st.lists(st.sampled_from(["", "# trailing"]), max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_read_rows_is_bit_identical_to_the_file_object_reader(tmp_path_factory, skipped, rows, inner, trailing,
                                                             newline):
    body = [f"{a!r},{b!r}" for a, b in rows]
    lines = ["header", *skipped, body[0] + " # x", *inner, *body[1:]]
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    path.write_bytes(newline.join([*lines, *trailing, ""]).encode())
    header, got = read_rows(path)
    want = _file_object_rows(path)
    assert header == "header\n"
    assert got.shape == want.shape == (len(rows), 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros too


def test_text_field_with_comments_and_crlf_loads_bit_identical(tmp_path):
    lat = Lattice(basis=TWO_PI * np.eye(2), dual_gram_exact=[["1", "0"], ["0", "1"]])
    values = np.random.default_rng(3).normal(size=(20, 2))
    values[0] = -0.0, 1e-310
    header = _field().split("\n")[0]
    body = [f"{a!r},{b!r}" for a, b in values.tolist()]
    lines = [header, "# written by hand", "", *body[:7], "", *body[7:], "# end", ""]
    path = tmp_path / "u.csv"
    path.write_bytes("\r\n".join(lines).encode())
    field = load_field(path, lat)
    assert np.array_equal(field.values.view(np.float64).reshape(-1, 2).view(np.int64),
                          _file_object_rows(path).view(np.int64))


@pytest.mark.parametrize("argv, content", [
    (_ROUNDTRIP, _field().split("\n")[0] + "\n"),
    (_ROUNDTRIP, _field().split("\n")[0] + "\n# only a comment\n\n"),
    (_DECAY + ["2,8"], "t,norm\n"),
    (_DECAY + ["2,8"], "t,norm"),
    (_DECAY + ["2,8"], ""),
], ids=["field-header", "field-header-and-comment", "profile-header", "profile-header-no-newline", "profile-empty"])
def test_file_with_only_a_header_holds_no_rows(argv, content, lat_json, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main([a.format(lat=lat_json, bad=bad) for a in argv]) == EXIT_IO
    assert capsys.readouterr().err.endswith(f"{bad}: holds no rows\n")


@pytest.mark.parametrize("where", ["before", "between", "after"])
@pytest.mark.parametrize("line", ["   ", "\t", "  # indented comment"], ids=["blanks", "tab", "indented-comment"])
@pytest.mark.parametrize("argv, content", [(_ROUNDTRIP, _field()), (_DECAY + ["2,8"], _PROFILE)],
                         ids=["field", "profile"])
def test_a_line_of_blanks_or_an_indented_comment_is_refused_wherever_it_sits(argv, content, line, where, lat_json,
                                                                              tmp_path, capsys):
    """np.loadtxt's one line rule: only an empty or a '#' line is skipped, before the first row too."""
    header, *rows = content.splitlines()
    at = {"before": 0, "between": 3, "after": len(rows)}[where]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, *rows[:at], line, *rows[at:], ""]))
    assert main([a.format(lat=lat_json, bad=bad) for a in argv]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {'field file' if argv is _ROUNDTRIP else 'profile'} {bad}: ")


# a profile of 20 000 rows, 0.4 MB: its row 15 001 lies past np.loadtxt's first read chunk
_LONG_PROFILE = [b"t,norm", *(b"%r,%r" % (0.001 * i, math.exp(-0.001 * i)) for i in range(20_000))]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("lines, number", [
    ([b"t,n\xffrm", *_LONG_PROFILE[1:]], 1),
    ([*_LONG_PROFILE[:11], b"# caf\xe9", *_LONG_PROFILE[11:]], 12),
    ([*_LONG_PROFILE[:15_001], b"\xff" + _LONG_PROFILE[15_001], *_LONG_PROFILE[15_002:]], 15_002),
], ids=["header", "comment", "row-past-the-first-read-chunk"])
def test_a_line_that_is_not_utf8_is_named(lines, number, newline, tmp_path, capsys):
    """The first line holding a byte that is not UTF-8 is named, wherever it sits and however lines end."""
    bad = tmp_path / "profile.csv"
    bad.write_bytes(newline.join([*lines, b""]))
    assert main(["decay", "--input", str(bad), "--window", "2,8"]) == EXIT_IO
    assert capsys.readouterr().err == f"error: profile {bad}: line {number} is not UTF-8\n"


@pytest.mark.parametrize("name", ["profile.csv.gz", "profile.bz2", "profile.xz", "profile.lzma", os.devnull])
def test_reader_refuses_a_file_np_loadtxt_would_not_read_as_it(name, tmp_path, capsys):
    """np.loadtxt decompresses by name and opens the path again: a compressed name or a device is refused."""
    path = Path(name) if name == os.devnull else tmp_path / name
    if name != os.devnull:
        path.write_text(_PROFILE)
    assert main(["decay", "--input", str(path), "--window", "2,8"]) == EXIT_IO
    assert capsys.readouterr().err == f"error: profile {path}: must be a regular, uncompressed file, " \
                                      "named without .gz, .bz2, .xz or .lzma\n"


def _key_tree(doc: dict) -> list:
    return [(k, _key_tree(v)) if isinstance(v, dict) else k for k, v in doc.items()]


_CARLEMAN_KEYS = ["lhs", "rhs", "margin", "quad_err", "passed"]
_DECAY_KEYS = ["rate", "window", "residual", "superexp", "windowed_rates"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["carleman", "verify43", "--eps", "1.0"],
         [*_CARLEMAN_KEYS, ("params", ["weight", "weight_lambda", "eps", "modes"])]),
        (["carleman", "verify-gap"],
         [*_CARLEMAN_KEYS, ("params", ["weight", "a", "b", "w", "m", "alpha", "modes", "forced"])]),
        (["carleman", "system-check", "--eigs", "1,9", "--a", "2", "--b", "3"],
         ["identity_residual", "min_eig_b0", "min_eig_b1", "max_eig_b2", "certificates_ok",
          ("params", ["a", "b", "w", "m", "alpha", "modes"])]),
        (["carleman", "ellreg", "--eps", "0.5", "--s-list", "2,4"], ["beta", "sup_ratio", "ratios"]),
        (["evolve", "--eigs", "4", "--T", "15"], ["solver_residual", "growth", ("decay", _DECAY_KEYS)]),
        (["decay", "--input", "{profile}", "--window", "2,8"], _DECAY_KEYS),
    ],
    ids=["verify43", "verify-gap", "system-check", "ellreg", "evolve", "decay"],
)
def test_cli_json_key_order(argv, keys, tmp_path, capsys):
    """The printed records keep their key order: the field order of each record."""
    profile = tmp_path / "profile.csv"
    profile.write_text(_PROFILE)
    assert main([a.format(profile=profile) for a in argv]) == EXIT_OK
    assert _key_tree(json.loads(capsys.readouterr().out)) == keys


def test_every_traced_layer_exists():
    """Each (module, attr) the benchmark tracer wraps is still in the package."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing_targets", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"halfspace_decay.{module_name}")
        for part in attr.split("."):
            owner = vars(owner).get(part)
            assert owner is not None, f"{module_name}.{attr} is gone"
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_counterexample_cli(capsys):
    assert main(["counterexample", "--lambdas", "0.9,1.0", "--T", "100"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("weight_rate")
    assert "converged" in rows[1]
    assert "log-divergent" in rows[2]


def test_counterexample_rate_whose_exponent_overflows_is_refused(capsys):
    """2(rate - 1) = inf read as 'converging': refused before any row, with no warning."""
    assert main(["counterexample", "--lambdas", "0.5,1e308", "--T", "10"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "overflows a float" in captured.err


def test_cli_determinism(lat_json, capsys):
    outs = []
    for _ in range(2):
        assert main([
            "carleman", "verify43", "--eps", "1.0", "--ensemble", "2", "--seed", "42",
        ]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_pipeline_cli(line_pipeline_input, tmp_path, capsys):
    lat_path, u_path, _ = line_pipeline_input
    cfg = {
        "command": "pipeline",
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
        "params": {
            "lattice": str(lat_path),
            "u_field": str(u_path),
            "energy": 0.0,
            "theta_points": 3,
            "cutoff": 30.0,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert "verdict_hash" in out
    assert (tmp_path / "out" / "manifest.json").exists()

    bad = dict(cfg)
    bad["params"] = dict(cfg["params"], junk=True)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["pipeline", "--config", str(bad_path)]) == EXIT_IO


def test_pipeline_threads_are_ignored(line_pipeline_input, tmp_path, capsys, monkeypatch):
    lat_path, u_path, _ = line_pipeline_input
    params = {"lattice": str(lat_path), "u_field": str(u_path), "theta_points": 3, "cutoff": 30.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "pipeline", "seed": 7, "threads": 4, "params": params}))
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    hashes = [json.loads(capsys.readouterr().out)["verdict_hash"]]
    resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
    assert resolved["out_dir"] == str(tmp_path / "a")
    assert resolved["threads"] == 4
    # HALFSPACE_DECAY_THREADS is not read, so a malformed value is harmless
    monkeypatch.setenv("HALFSPACE_DECAY_THREADS", "abc")
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "c")]) == EXIT_OK
    hashes.append(json.loads(capsys.readouterr().out)["verdict_hash"])
    assert len(set(hashes)) == 1


def test_exit_code_combination():
    assert strictest_exit_code([EXIT_OK, EXIT_OK]) == EXIT_OK
    assert strictest_exit_code([EXIT_OK, EXIT_PRECONDITION]) == EXIT_PRECONDITION
    assert strictest_exit_code([EXIT_PRECONDITION, EXIT_VIOLATION]) == EXIT_VIOLATION
    assert strictest_exit_code([EXIT_VIOLATION, EXIT_IO, EXIT_OK]) == EXIT_IO
