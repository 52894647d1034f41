import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import constant_potential, manufactured_line_input, traced_peak
from halfspace_decay import (
    BlochFiber,
    GridError,
    Lattice,
    Quasimomentum,
    SampledField,
    SchemaError,
    fiber_residual,
    gelfand_forward,
    gelfand_inverse,
    load_field,
    save_field,
    theta_grid,
)
from halfspace_decay import fibers as fibers_module

TWO_PI = 2.0 * math.pi


def line_lattice():
    return Lattice(basis=np.array([[TWO_PI]]))


def square_lattice():
    return Lattice.cubic(TWO_PI, 2)


def make_u(lat, cells_lo, cells_shape, n, nt, rng=None, values=None, t_end=1.0):
    shape = tuple(c * n for c in cells_shape) + (nt,)
    if values is None:
        rng = rng or np.random.default_rng(0)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SampledField(
        kind="u", lattice=lat, cells_lo=cells_lo, cells_shape=cells_shape,
        points_per_cell=n, t_start=0.0, t_end=t_end, values=values,
    )


def cells_of(u):
    return itertools.product(*(range(lo, lo + sh) for lo, sh in zip(u.cells_lo, u.cells_shape)))


def cell_mass(u, cell):
    """Space-time L2 mass of one cell block with the cell measure."""
    w = abs(np.linalg.det(u.lattice.basis)) / u.points_per_cell**u.dim
    dt = (u.t_end - u.t_start) / (u.n_t - 1)
    return w * dt * float(np.sum(np.abs(u.cell_block(cell)) ** 2))


def loop_forward(u, theta, l_max):
    """Reference lattice sum: one phase per cell, accumulated cell by cell."""
    mu = theta.coeffs
    n = u.points_per_cell
    acc = np.zeros((n,) * u.dim + (u.n_t,), dtype=complex)
    tail = 0.0
    for cell in cells_of(u):
        if max(abs(c) for c in cell) > l_max:
            tail += math.sqrt(cell_mass(u, cell))
            continue
        acc += np.exp(-2j * math.pi * float(np.dot(mu, cell))) * u.cell_block(cell)
    for a in range(u.dim):
        shape = [1] * (u.dim + 1)
        shape[a] = n
        acc *= np.exp(-2j * math.pi * mu[a] * np.arange(n) / n).reshape(shape)
    return acc, tail


def loop_inverse(fibers, cells_lo):
    """Reference midpoint reconstruction: every fiber phased into every cell."""
    dim = len(cells_lo)
    per_axis = round(len(fibers) ** (1.0 / dim))
    n = fibers[0].points_per_cell
    out = np.zeros((per_axis * n,) * dim + (fibers[0].n_t,), dtype=complex)
    for fiber in fibers:
        mu = fiber.theta.coeffs
        block = fiber.data.copy()
        for a in range(dim):
            shape = [1] * (dim + 1)
            shape[a] = n
            block *= np.exp(2j * math.pi * mu[a] * np.arange(n) / n).reshape(shape)
        for offset in np.ndindex(*(per_axis,) * dim):
            cell = np.add(cells_lo, offset)
            slices = tuple(slice(k * n, (k + 1) * n) for k in offset)
            out[slices] += np.exp(2j * math.pi * float(np.dot(mu, cell))) * block / len(fibers)
    return out


def field_mass(u):
    w = abs(np.linalg.det(u.lattice.basis)) / u.points_per_cell**u.dim
    return w * float(np.sum(np.abs(u.values) ** 2))


def fiber_mass(fiber):
    w = abs(np.linalg.det(fiber.lattice.basis)) / fiber.points_per_cell**fiber.dim
    return w * float(np.sum(np.abs(fiber.data) ** 2))


def test_forward_single_cell_is_pure_phase():
    lat = line_lattice()
    u = make_u(lat, (0,), (1,), 8, 4)
    theta = Quasimomentum(coeffs=np.array([0.3]))
    fiber = gelfand_forward(u, theta, l_max=5)
    x = TWO_PI * np.arange(8) / 8
    theta_vec = 0.3 * 1.0  # dual basis is 1 for the 2*pi line lattice
    expected = np.exp(-1j * theta_vec * x)[..., None] * u.values
    assert np.max(np.abs(fiber.data - expected)) < 1e-12
    assert fiber.tail_bound == 0.0


def test_forward_dual_mode_modulation():
    lat = line_lattice()
    u = make_u(lat, (-1,), (3,), 8, 3)
    theta = Quasimomentum(coeffs=np.array([0.25]))
    base = gelfand_forward(u, theta, l_max=5)
    # multiply u by exp(i k0 . x) with k0 = 2 f (a dual lattice vector)
    m0 = 2
    n = u.points_per_cell
    frac = np.concatenate([c + np.arange(n) / n for c in range(-1, 2)])
    modulated = make_u(lat, (-1,), (3,), n, 3, values=np.exp(2j * math.pi * m0 * frac)[:, None] * u.values)
    shifted = gelfand_forward(modulated, theta, l_max=5)
    intra = np.exp(2j * math.pi * m0 * np.arange(n) / n)
    assert np.max(np.abs(shifted.data - intra[:, None] * base.data)) < 1e-10


def test_parseval_quadrature():
    lat = square_lattice()
    u = make_u(lat, (-1, -1), (3, 3), 4, 3)
    thetas = theta_grid(lat, 6)
    total = 0.0
    for theta in thetas:
        fiber = gelfand_forward(u, theta, l_max=5)
        total += fiber_mass(fiber)
    total /= len(thetas)
    assert total == pytest.approx(field_mass(u), rel=1e-6)


def test_round_trip_band_limited():
    lat = square_lattice()
    u = make_u(lat, (-1, -1), (3, 3), 4, 3)
    thetas = theta_grid(lat, 3)
    fibers = [gelfand_forward(u, theta, l_max=5) for theta in thetas]
    back = gelfand_inverse(fibers, lat)
    assert back.cells_lo == (-1, -1)
    assert np.max(np.abs(back.values - u.values)) < 1e-8


def test_inverse_zero_fibers():
    lat = line_lattice()
    u = make_u(lat, (-1,), (3,), 4, 3)
    thetas = theta_grid(lat, 3)
    fibers = [gelfand_forward(u, theta, l_max=5) for theta in thetas]
    zero_fibers = [
        BlochFiber(
            theta=f.theta, lattice=lat, points_per_cell=f.points_per_cell,
            t_start=f.t_start, t_end=f.t_end, data=np.zeros_like(f.data),
        )
        for f in fibers
    ]
    back = gelfand_inverse(zero_fibers, lat)
    assert np.max(np.abs(back.values)) == 0.0


def test_reconstruction_places_bump_in_right_cell():
    lat = square_lattice()
    n, nt = 4, 3
    values = np.zeros((3 * n, 3 * n, nt), dtype=complex)
    rng = np.random.default_rng(5)
    block = rng.normal(size=(n, n, nt))
    # cell (1, 0) has index offset (2, 1) from cells_lo (-1, -1)
    values[2 * n : 3 * n, 1 * n : 2 * n, :] = block
    u = make_u(lat, (-1, -1), (3, 3), n, nt, values=values)
    fibers = [gelfand_forward(u, theta, l_max=5) for theta in theta_grid(lat, 3)]
    back = gelfand_inverse(fibers, lat)
    inside = back.values[2 * n : 3 * n, 1 * n : 2 * n, :]
    outside = back.values.copy()
    outside[2 * n : 3 * n, 1 * n : 2 * n, :] = 0.0
    assert np.max(np.abs(inside - block)) < 1e-8
    assert np.max(np.abs(outside)) < 1e-8


def single_mode_fiber(lat, theta, m0, decay, nt, t_end=2.0, n=8):
    t = np.linspace(0.0, t_end, nt)
    x_modes = np.exp(2j * math.pi * m0 * np.arange(n) / n)
    data = x_modes[:, None] * np.exp(-decay * t)[None, :]
    return BlochFiber(
        theta=theta, lattice=lat, points_per_cell=n,
        t_start=0.0, t_end=t_end, data=data,
    )


def test_fiber_residual_single_mode_order2():
    lat = line_lattice()
    theta = Quasimomentum(coeffs=np.array([0.5]))
    mu = (1 + 0.5) ** 2  # |k + theta|^2 with k = f, f = 1
    kappa = math.sqrt(mu)
    res = {}
    for nt in (201, 401):
        fiber = single_mode_fiber(lat, theta, 1, kappa, nt)
        r = fiber_residual(fiber, None, 0.0)
        res[nt] = float(np.max(r))
    ratio = res[201] / res[401]
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_fiber_residual_manufactured_potential():
    lat = line_lattice()
    theta = Quasimomentum(coeffs=np.array([0.5]))
    mu = (1 + 0.5) ** 2
    res = {}
    for nt in (201, 401):
        fiber = single_mode_fiber(lat, theta, 1, 1.0, nt)  # phi = e^{-t} mode
        v = constant_potential(lat, 1.0 - mu, 8, 0.0, 2.0, nt)
        r = fiber_residual(fiber, v, 0.0)
        res[nt] = float(np.max(r))
    assert res[201] / res[401] > 3.0


def test_fiber_residual_generic_nonzero():
    lat = line_lattice()
    rng = np.random.default_rng(3)
    data = rng.normal(size=(8, 9)) + 1j * rng.normal(size=(8, 9))
    fiber = BlochFiber(
        theta=Quasimomentum(coeffs=np.array([0.2])), lattice=lat,
        points_per_cell=8, t_start=0.0, t_end=1.0, data=data,
    )
    v = constant_potential(lat, 0.7, 8, 0.0, 1.0, 9)
    r = fiber_residual(fiber, v, 0.0)
    assert np.all(r > 0.0)


def test_fiber_residual_grid_errors():
    lat = line_lattice()
    fiber = single_mode_fiber(lat, Quasimomentum.zero(1), 1, 1.0, 4)
    with pytest.raises(GridError):
        fiber_residual(fiber, None, 0.0)
    fiber = single_mode_fiber(lat, Quasimomentum.zero(1), 1, 1.0, 31)
    bad_v = constant_potential(lat, 1.0, 4, 0.0, 2.0, 31)  # wrong points per cell
    with pytest.raises(GridError):
        fiber_residual(fiber, bad_v, 0.0)
    moved_v = constant_potential(lat, 1.0, 8, 100.0, 500.0, 31)  # same n_t, other t-range
    with pytest.raises(GridError):
        fiber_residual(fiber, moved_v, 0.0)


def test_parseval_fiber_representations():
    lat = square_lattice()
    rng = np.random.default_rng(11)
    data = rng.normal(size=(6, 6, 4)) + 1j * rng.normal(size=(6, 6, 4))
    fiber = BlochFiber(
        theta=Quasimomentum(coeffs=np.array([0.1, 0.6])), lattice=lat,
        points_per_cell=6, t_start=0.0, t_end=1.0, data=data,
    )
    back = np.fft.ifftn(fiber.coefficients, axes=fiber.spatial_axes, norm="ortho")
    assert np.max(np.abs(back - fiber.data)) < 1e-10
    assert np.sum(np.abs(fiber.coefficients) ** 2) == pytest.approx(
        np.sum(np.abs(fiber.data) ** 2), rel=1e-10
    )
    assert fiber.coefficients is fiber.coefficients  # computed once


def test_theta_continuity_lipschitz():
    lat = line_lattice()
    u = make_u(lat, (-1,), (3,), 8, 3)
    base_mu = 0.35
    base = gelfand_forward(u, Quasimomentum(coeffs=np.array([base_mu])), l_max=5)
    # Lipschitz constant: |dtheta| * max|x| * sum of cell L2 norms
    n = u.points_per_cell
    coords = (u.cells_lo[0] + np.arange(u.cells_shape[0] * n) / n) * lat.basis[0, 0]  # the box's grid points
    radius = float(np.max(np.abs(coords))) + TWO_PI  # include cell shifts within box
    w = abs(np.linalg.det(lat.basis)) / u.points_per_cell
    cell_norms = sum(
        math.sqrt(w * float(np.sum(np.abs(u.cell_block(c)) ** 2))) for c in cells_of(u)
    )
    prev_err = None
    for k in range(1, 5):
        delta = 0.1 / 2**k
        other = gelfand_forward(u, Quasimomentum(coeffs=np.array([base_mu + delta])), l_max=5)
        err = math.sqrt(w * float(np.sum(np.abs(other.data - base.data) ** 2)))
        dtheta = delta * 1.0  # dual basis is 1 in this geometry
        assert err <= dtheta * radius * cell_norms * 1.0001
        if prev_err is not None:
            assert err < prev_err
        prev_err = err


def test_forward_tail_bound_reported():
    lat = line_lattice()
    u = make_u(lat, (-2,), (5,), 4, 3)
    fiber = gelfand_forward(u, Quasimomentum.zero(1), l_max=1)
    excluded = [c for c in cells_of(u) if abs(c[0]) > 1]
    expected = sum(math.sqrt(cell_mass(u, c)) for c in excluded)
    assert fiber.tail_bound == pytest.approx(expected, rel=1e-12)
    assert fiber.tail_bound > 0.0


def test_potential_periodicity_enforced():
    lat = line_lattice()
    values = np.ones((16, 3), dtype=complex)
    values[9, 1] += 1e-6  # break periodicity between the two cells
    with pytest.raises(SchemaError):
        SampledField(
            kind="potential", lattice=lat, cells_lo=(0,), cells_shape=(2,),
            points_per_cell=8, t_start=0.0, t_end=1.0, values=values,
        )


def test_field_file_round_trip(tmp_path):
    lat = square_lattice()
    u = make_u(lat, (-1, -1), (2, 2), 3, 4)
    for name in ("field.csv", "field.npz"):
        path = tmp_path / name
        save_field(u, path)
        again = load_field(path, lat)
        assert again.cells_lo == u.cells_lo
        assert again.cells_shape == u.cells_shape
        assert again.points_per_cell == u.points_per_cell
        assert np.array_equal(again.values.view(np.float64), u.values.view(np.float64))
    with pytest.raises(SchemaError):
        bad = tmp_path / "bad.csv"
        text = (tmp_path / "field.csv").read_text().splitlines()
        header = text[0].replace("\"dim\"", "\"odd\"")
        bad.write_text("\n".join([header] + text[1:]))
        load_field(bad, lat)


@pytest.mark.parametrize("name", ["field.csv", "field.npz"])
def test_field_file_keeps_signed_zeros(tmp_path, name):
    """The text loader views the (re, im) pairs as complex: '1,-0' stays 1-0j, not 1+0j."""
    lat = line_lattice()
    values = np.array([complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -0.0), 0j] * 4)
    u = make_u(lat, (0,), (2,), 4, 2, values=values.reshape(8, 2))
    save_field(u, tmp_path / name)
    again = load_field(tmp_path / name, lat)
    assert np.array_equal(np.signbit(again.values.view(np.float64)), np.signbit(u.values.view(np.float64)))
    assert np.array_equal(again.values.view(np.float64), u.values.view(np.float64))


def test_sampled_field_copies_unless_nothing_else_can_write():
    lat = line_lattice()
    writable = np.ones((4, 3), dtype=complex)
    field = make_u(lat, (0,), (1,), 4, 3, values=writable)
    assert not np.shares_memory(field.values, writable) and not field.values.flags.writeable
    view = writable[:]
    view.flags.writeable = False  # read-only, but its base is not
    assert not np.shares_memory(make_u(lat, (0,), (1,), 4, 3, values=view).values, writable)
    sealed = np.ones(12, dtype=complex)
    sealed.flags.writeable = False
    adopted = make_u(lat, (0,), (1,), 4, 3, values=sealed.reshape(4, 3))
    assert np.shares_memory(adopted.values, sealed) and not adopted.values.flags.writeable
    buffer = bytearray(12 * 16)  # read-only array over memory that stays writable
    foreign = np.frombuffer(memoryview(buffer).toreadonly(), dtype=complex).reshape(4, 3)
    assert not foreign.flags.writeable
    assert not np.shares_memory(make_u(lat, (0,), (1,), 4, 3, values=foreign).values, foreign)


@pytest.fixture(scope="module")
def line_field_8mb(tmp_path_factory):
    """The benchmark's 1D text field shape: 16 cells x 16 points x 2049 t, 8.4 MB complex."""
    lat_path, u_path, lat = manufactured_line_input(
        tmp_path_factory.mktemp("field"), theta_points=16, n=16, nt=2049)
    return u_path, lat


@pytest.mark.parametrize("suffix", [".csv", ".npz"])
def test_load_field_holds_the_field_once(line_field_8mb, tmp_path, suffix):
    """Loading peaks at one field size plus the parser's buffers (it was 3 for text, 2 for .npz)."""
    u_path, lat = line_field_8mb
    if suffix == ".npz":
        save_field(load_field(u_path, lat), tmp_path / "u.npz")
        u_path = tmp_path / "u.npz"
    field, peak = traced_peak(load_field, u_path, lat)
    assert not field.values.flags.writeable
    assert peak <= 1.25 * field.values.nbytes


def test_gelfand_inverse_allocates_the_field_once():
    """Beyond its fibers the inverse holds the field and t-chunk temporaries (it was 2 fields)."""
    lat = line_lattice()
    n, nt = 16, 4097
    rng = np.random.default_rng(5)
    fibers = [
        BlochFiber(theta=q, lattice=lat, points_per_cell=n, t_start=0.0, t_end=1.0,
                   data=rng.normal(size=(n, nt)) + 1j * rng.normal(size=(n, nt)))
        for q in theta_grid(lat, 16)
    ]
    field, peak = traced_peak(gelfand_inverse, fibers, lat)
    assert not field.values.flags.writeable
    assert peak <= 1.3 * field.values.nbytes


@pytest.mark.parametrize("writable", [True, False])
def test_potential_check_has_no_field_sized_temporaries(writable):
    """A 6x6-cell 2D potential: the periodicity check works copy by copy (it peaked at 2.5 fields)."""
    lat = square_lattice()
    rng = np.random.default_rng(2)
    cell = rng.normal(size=(4, 4, 257)) + 1j * rng.normal(size=(4, 4, 257))
    values = np.tile(cell, (6, 6, 1)).copy()  # an owner: np.tile returns a view
    values.flags.writeable = writable

    def build():
        return SampledField(kind="potential", lattice=lat, cells_lo=(0, 0), cells_shape=(6, 6),
                            points_per_cell=4, t_start=0.0, t_end=1.0, values=values)

    _, peak = traced_peak(build)
    # a writable array is copied once; a sealed one is adopted
    assert peak <= (1.3 if writable else 0.3) * values.nbytes


@pytest.mark.parametrize("rel", [0.5e-12, 2e-12])
@pytest.mark.parametrize("scale", [0.5, 1e6])
def test_potential_check_keeps_the_whole_field_verdict(rel, scale):
    """Copy-by-copy maxima equal the whole-field ones: the 1e-12 relative gate is unchanged."""
    lat = square_lattice()
    rng = np.random.default_rng(4)
    values = np.tile(scale * (rng.uniform(size=(3, 3, 5)) + 0j), (2, 3, 1))
    big = max(1.0, float(np.max(np.abs(values))))
    values[4, 7, 2] += rel * big  # a copy away from the first, off by rel of the scale

    def build():
        return SampledField(kind="potential", lattice=lat, cells_lo=(0, 0), cells_shape=(2, 3),
                            points_per_cell=3, t_start=0.0, t_end=1.0, values=values)

    cells = values.reshape(2, 3, 3, 3, 5).transpose(0, 2, 1, 3, 4)
    whole = np.max(np.abs(cells - cells[0, 0])) > 1e-12 * max(1.0, float(np.max(np.abs(values))))
    assert whole == (rel > 1e-12)
    if whole:
        with pytest.raises(SchemaError, match="not periodic across cell copies"):
            build()
    else:
        build()


def test_inverse_grid_mismatch():
    lat = line_lattice()
    u = make_u(lat, (-1,), (3,), 4, 3)
    fibers = [gelfand_forward(u, theta, l_max=5) for theta in theta_grid(lat, 3)]
    other = single_mode_fiber(lat, fibers[0].theta, 1, 1.0, 7, t_end=1.0, n=4)
    with pytest.raises(GridError):
        gelfand_inverse([other] + fibers[1:], lat)
    shifted = dataclasses.replace(fibers[0], cells_lo=(0,))
    with pytest.raises(GridError):
        gelfand_inverse([shifted] + fibers[1:], lat)


@pytest.mark.parametrize(
    "lat, cells_lo, cells_shape, n, nt, l_max",
    [
        (line_lattice(), (-2,), (5,), 4, 9, 1),
        (square_lattice(), (1, -3), (3, 4), 3, 7, 2),
        (Lattice.cubic(TWO_PI, 3), (0, -1, 1), (2, 3, 2), 2, 5, 1),
    ],
    ids=["1d", "2d", "3d"],
)
def test_sequence_forward_matches_per_theta_and_loop(lat, cells_lo, cells_shape, n, nt, l_max):
    u = make_u(lat, cells_lo, cells_shape, n, nt, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    off_grid = [Quasimomentum(coeffs=rng.uniform(size=lat.dim)) for _ in range(3)]
    thetas = theta_grid(lat, 3) + off_grid
    fibers = gelfand_forward(u, thetas, l_max)
    assert [f.theta for f in fibers] == thetas
    for theta, fiber in zip(thetas, fibers):
        alone = gelfand_forward(u, theta, l_max)
        ref, ref_tail = loop_forward(u, theta, l_max)
        assert np.max(np.abs(fiber.data - alone.data)) < 1e-12
        assert np.max(np.abs(fiber.data - ref)) < 1e-12
        assert fiber.tail_bound == alone.tail_bound > 0.0
        assert fiber.tail_bound == pytest.approx(ref_tail, rel=1e-12)
        assert fiber.cells_lo == cells_lo


def test_inverse_matches_loop_reference(monkeypatch):
    monkeypatch.setattr(fibers_module, "STACK_BYTES", 16 * 9 * 4 * 32)  # slabs of 9 fibers x 4 points: t 32, 32, 6
    lat = square_lattice()
    rng = np.random.default_rng(23)
    thetas = theta_grid(lat, 3)
    fibers = [
        BlochFiber(
            theta=q, lattice=lat, points_per_cell=4, t_start=0.0, t_end=1.0,
            data=rng.normal(size=(4, 4, 70)) + 1j * rng.normal(size=(4, 4, 70)),
            cells_lo=(2, -4),
        )
        for q in thetas
    ]
    ref = loop_inverse(fibers, (2, -4))
    back = gelfand_inverse(fibers[::-1], lat)
    assert back.cells_lo == (2, -4) and back.cells_shape == (3, 3)
    assert np.max(np.abs(back.values - ref)) < 1e-12


def tblock_inverse(fibers, lat):
    """The inverse as one t-block walk over the whole (theta, point) stack, before its slab walk."""
    first, dim = fibers[0], lat.dim
    per_axis, n = round(len(fibers) ** (1.0 / dim)), first.points_per_cell
    cells_lo = (-((per_axis - 1) // 2),) * dim if first.cells_lo is None else first.cells_lo
    mu = (2 * np.arange(per_axis) + 1) / (2 * per_axis)
    index = [tuple(np.rint(f.theta.coeffs * per_axis - 0.5).astype(int)) for f in fibers]
    mats = [np.exp(2j * math.pi * np.outer(lo + np.arange(per_axis), mu)) for lo in cells_lo]
    twist = fibers_module._intra_cell_phase([mu] * dim, n, +1.0)
    out = np.empty((per_axis * n,) * dim + (first.n_t,), dtype=complex)
    field = fibers_module.cells_first(out, (per_axis,) * dim, n)
    step = max(1, fibers_module.STACK_BYTES // (16 * twist.size))
    for t in range(0, first.n_t, step):
        s = slice(t, min(t + step, first.n_t))
        stack = np.empty(twist.shape + (s.stop - t,), dtype=complex)
        for p, f in zip(index, fibers):
            stack[p] = f.data[..., s]
        stack *= twist[..., None]
        np.multiply(fibers_module._contract_cells(stack, mats), 1.0 / len(fibers), out=field[..., s])
    return out


@pytest.mark.parametrize("dim, per_axis, n, nt, cells_lo", [
    (1, 16, 16, 2049, None), (1, 5, 7, 301, (3,)), (1, 4, 3, 4097, (-9,)),
    (2, 6, 8, 1025, None), (2, 3, 5, 77, (2, -4)), (2, 4, 4, 333, (-1, 0)),
    (3, 4, 4, 129, None), (3, 3, 5, 33, (1, -2, 0)), (3, 2, 3, 1001, (0, 0, 7)),
])
def test_slab_walk_inverse_matches_the_t_block_walk(dim, per_axis, n, nt, cells_lo):
    lat = Lattice.cubic(TWO_PI, dim)
    rng = np.random.default_rng(dim * 100 + nt)
    fibers = [
        BlochFiber(theta=q, lattice=lat, points_per_cell=n, t_start=0.0, t_end=1.0,
                   data=rng.normal(size=(n,) * dim + (nt,)) + 1j * rng.normal(size=(n,) * dim + (nt,)),
                   cells_lo=cells_lo)
        for q in theta_grid(lat, per_axis)
    ]
    ref = tblock_inverse(fibers, lat)
    back = gelfand_inverse(fibers[::-1], lat)
    assert back.values.shape == ref.shape
    assert np.max(np.abs(back.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_round_trip_keeps_non_centred_box():
    lat = line_lattice()
    u = make_u(lat, (5,), (2,), 4, 9)
    back = gelfand_inverse(gelfand_forward(u, theta_grid(lat, 3), l_max=10), lat)
    assert back.cells_lo == (5,)
    assert np.max(np.abs(back.values[:8] - u.values)) < 1e-12
    assert np.max(np.abs(back.values[8:])) < 1e-12


def _euclidean_mode_eigenvalues(fiber, energy):
    """|F^T (m + mu)|^2 - E with k + theta built as a Euclidean vector per mode."""
    n = fiber.points_per_cell
    wrapped = np.rint(np.fft.fftfreq(n) * n)
    m = np.stack(np.meshgrid(*([wrapped] * fiber.dim), indexing="ij"), axis=-1)
    k = (m + fiber.theta.coeffs) @ fibers_module.dual_basis(fiber.lattice).basis.T
    return np.sum(k * k, axis=-1) - energy


SKEWED = {
    2: Lattice(basis=np.array([[2.0, 0.7], [0.3, 1.6]])),
    3: Lattice(basis=np.array([[1.9, 0.4, -0.2], [0.1, 2.3, 0.5], [0.6, -0.3, 1.4]])),
}


@pytest.mark.parametrize("n", [4, 7, 14])
@pytest.mark.parametrize("lat", [Lattice.cubic(TWO_PI, d) for d in (1, 2, 3)] + list(SKEWED.values()),
                         ids=["cubic1", "cubic2", "cubic3", "skewed2", "skewed3"])
def test_mode_eigenvalues_match_euclidean_reference(lat, n):
    rng = np.random.default_rng(n)
    theta = Quasimomentum(coeffs=rng.uniform(0.0, 1.0, size=lat.dim))
    fiber = BlochFiber(theta=theta, lattice=lat, points_per_cell=n, t_start=0.0, t_end=1.0,
                       data=np.zeros((n,) * lat.dim + (3,)))
    got, ref = fiber.mode_eigenvalues(0.7), _euclidean_mode_eigenvalues(fiber, 0.7)
    if lat in SKEWED.values():
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    else:  # the dual Gram of 2*pi*I is exactly I: same bits as the Euclidean sum
        assert np.array_equal(got, ref)


def test_fiber_refuses_a_quasimomentum_of_another_dimension():
    with pytest.raises(GridError, match="quasimomentum"):
        BlochFiber(theta=Quasimomentum(coeffs=[0.5]), lattice=square_lattice(), points_per_cell=4,
                   t_start=0.0, t_end=1.0, data=np.zeros((4, 4, 3)))
