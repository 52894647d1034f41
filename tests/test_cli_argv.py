"""Command lines against the exit-code contract: the README's CLI block, and mutated argv."""

import contextlib
import io
import json
import math
import os
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manufactured_line_input, strict_json
from halfspace_decay.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
TWO_PI = 2.0 * math.pi


def _readme_cli_lines() -> list[str]:
    """The ``halfspace-decay ...`` lines of the first shell block under the README's CLI heading."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("halfspace-decay ")]


def test_readme_cli_block_parses():
    lines = _readme_cli_lines()
    assert len(lines) >= 20
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # argparse exits on a line that drifted


@pytest.fixture(scope="module")
def command_lines(tmp_path_factory):
    """One valid command line per (sub)command, on small inputs, and its output directory."""
    base = tmp_path_factory.mktemp("argv")
    lat2 = base / "lat2.json"
    lat2.write_text(json.dumps({"dim": 2, "basis": [[TWO_PI, 0.0], [0.0, TWO_PI]],
                                "dual_gram_exact": [["1", "0"], ["0", "1"]]}))
    lat1, u, _ = manufactured_line_input(base, theta_points=3, n=4, nt=33)
    fibers = [str(base / f"f{i}.npz") for i in range(3)]
    for path, theta in zip(fibers, ("1/6", "1/2", "5/6")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gelfand", "forward", "--lattice", str(lat1), "--u", str(u), "--theta", theta,
                         "--out", path]) == 0
    profile = base / "profile.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evolve", "--eigs", "1,9", "--T", "10", "--out", str(profile)]) == 0
    (base / "pipe").mkdir()
    p_lat, p_u, _ = manufactured_line_input(base / "pipe", theta_points=2, n=4)
    config = base / "run.json"
    params = {"lattice": str(p_lat), "u_field": str(p_u), "theta_points": 2, "cutoff": 30.0}
    config.write_text(json.dumps({"command": "pipeline", "seed": 7, "params": params, "out_dir": str(base / "out")}))
    out = base / "written"
    out.mkdir()
    L2, L1 = str(lat2), str(lat1)
    lines = [
        ["lattice", "dual", "--lattice", L2],
        ["lattice", "volume", "--lattice", L2],
        ["lattice", "rational", "--lattice", L2, "--theta", "1/2,0"],
        ["spectrum", "--lattice", L2, "--theta", "1/3,0", "--energy", "0", "--cutoff", "20"],
        ["gaps", "--lattice", L2, "--cutoff", "20", "--min-gap", "0.5", "--full-axis"],
        ["gaps", "--lattice", L2, "--growth", "100,1000"],
        ["density", "--gram", "1,0;0,1", "--N", "1000"],
        ["gelfand", "forward", "--lattice", L1, "--u", str(u), "--theta", "1/2", "--lmax", "5",
         "--out", str(out / "f.npz")],
        ["gelfand", "inverse", "--lattice", L1, "--fibers", *fibers, "--out", str(out / "back.csv")],
        ["gelfand", "roundtrip", "--lattice", L1, "--u", str(u), "--theta-points", "3"],
        ["gelfand", "residual", "--lattice", L1, "--u", str(u), "--theta", "1/2", "--energy", "0", "--lmax", "5"],
        ["carleman", "verify43", "--eps", "1", "--weight-lambda", "1.5", "--modes", "4", "--seed", "7",
         "--ensemble", "1"],
        ["carleman", "verify-gap", "--ensemble", "1", "--seed", "7"],
        ["carleman", "verify-gap", "--eigs", "1,9", "--a", "2", "--b", "3", "--alpha", "0"],
        ["carleman", "system-check", "--eigs", "1,9", "--a", "2", "--b", "3"],
        ["carleman", "ellreg", "--eps", "0.5", "--s-list", "2,4", "--seed", "7", "--ensemble", "1"],
        ["evolve", "--eigs", "1,9", "--perturbation", "diagonal", "--beta", "0.1", "--bound", "exp",
         "--T", "10", "--boundary", "1,0.5", "--seed", "7"],
        ["decay", "--input", str(profile), "--window", "2,8"],
        ["counterexample", "--lambdas", "0.5,1", "--T", "100"],
        ["pipeline", "--config", str(config), "--out-dir", str(out / "pipe")],
    ]
    return lines, out


# Commands whose stdout is JSON lines; the others print CSV or nothing.
_JSON_COMMANDS = {"lattice", "density", "carleman", "evolve", "decay", "pipeline", "gelfand forward",
                  "gelfand roundtrip"}
_PATH_FLAGS = {"--lattice", "--u", "--fibers", "--out", "--out-dir", "--input", "--config"}
# A run-size flag draws no huge value: the budget tests cover those.
_RUN_SIZE_FLAGS = {"--ensemble", "--T", "--N", "--cutoff", "--theta-points"}
_VALUES = ["nan", "inf", "-1", "0", "", ",", "1/0"]
_HUGE = str(10**30)


@st.composite
def _mutated(draw, lines):
    """A valid command line with one token dropped, one flag repeated or one value replaced."""
    argv = list(draw(st.sampled_from(lines)))
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    values = [i + 1 for i in flags if argv[i] not in _PATH_FLAGS
              and i + 1 < len(argv) and not argv[i + 1].startswith("--")]
    kind = draw(st.sampled_from(["drop", "repeat"] + (["replace"] if values else [])))
    if kind == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif kind == "repeat":
        i = draw(st.sampled_from(flags))
        value = argv[i + 1 : i + 2] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else []
        argv += [argv[i], *value]
    else:
        i = draw(st.sampled_from(values))
        argv[i] = draw(st.sampled_from(_VALUES + ([] if argv[i - 1] in _RUN_SIZE_FLAGS else [_HUGE])))
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_command_line_exits_by_the_contract(command_lines, data):
    lines, out = command_lines
    argv = data.draw(_mutated(lines))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)  # a path drawn as a value (say "0") is written here, not in the working tree
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if argv[0] in _JSON_COMMANDS or " ".join(argv[:2]) in _JSON_COMMANDS:
        for line in stdout.getvalue().splitlines():
            strict_json(line)
