import json
import math
import tracemalloc

import numpy as np
import pytest

from halfspace_decay.fibers import BlochFiber, gelfand_inverse, theta_grid
from halfspace_decay.fields import SampledField, save_field
from halfspace_decay.lattice import Lattice

TWO_PI = 2.0 * math.pi

ACCEPTANCE_VERDICTS = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory it allocated, in bytes, by tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strict_json(text: str):
    """``json.loads`` that refuses NaN and the infinities, which strict JSON lacks."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def constant_potential(lattice, value, points_per_cell, t_start, t_end, n_t) -> SampledField:
    """The potential of one cell at ``value`` everywhere."""
    shape = (points_per_cell,) * lattice.dim + (n_t,)
    return SampledField(
        kind="potential", lattice=lattice, cells_lo=(0,) * lattice.dim, cells_shape=(1,) * lattice.dim,
        points_per_cell=points_per_cell, t_start=t_start, t_end=t_end, values=np.full(shape, complex(value)),
    )


def manufactured_line_input(tmp_path, theta_points=3, n=8, nt=1025, t_end=5.0, energy=0.0, mode=1):
    """Band-limited field whose fibers are single decaying torus modes.

    Built by inverse transform of manufactured fibers, so the forward
    transform recovers exactly one mode per quasimomentum with decay rate
    sqrt(|k+theta|^2 - E).  Returns (lattice_path, field_path, lattice).
    """
    lat = Lattice(basis=np.array([[TWO_PI]]), dual_gram_exact=[["1"]])
    t = np.linspace(0.0, t_end, nt)
    fibers = []
    for theta in theta_grid(lat, theta_points):
        mu = (mode + theta.coeffs[0]) ** 2 - energy
        kappa = math.sqrt(mu)
        x_mode = np.exp(2j * math.pi * mode * np.arange(n) / n)
        data = x_mode[:, None] * np.exp(-kappa * t)[None, :]
        fibers.append(
            BlochFiber(
                theta=theta, lattice=lat, points_per_cell=n,
                t_start=0.0, t_end=t_end, data=data,
            )
        )
    u = gelfand_inverse(fibers, lat)
    lat_path = tmp_path / "lattice.json"
    lat_path.write_text(json.dumps(lat.to_json()))
    u_path = tmp_path / "u.csv"
    save_field(u, u_path)
    return lat_path, u_path, lat


@pytest.fixture
def line_pipeline_input(tmp_path):
    return manufactured_line_input(tmp_path)
