"""The four benchmark workloads.

Each workload is closed-loop and single-client: one operation after another
in this process.  ``setup`` makes the inputs from the seed through the
package (timed as set-up), ``expect`` prepares the oracles (untimed),
``run_round`` performs a fixed set of operations (timed), and ``check``
returns one error list per operation of the round (untimed).

Package functions are always looked up on their module at call time
(``fibers.gelfand_forward``, not a local alias), so the tracer's wrappers see
the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracles
from halfspace_decay import carleman, cli, ensembles, evolution, fibers, fields, lattice, pipeline
from halfspace_decay import runconfig, spectrum

TWO_PI = 2.0 * math.pi


def _judge(result, check) -> list[str]:
    """Errors of one (value, error) operation result under its oracle."""
    value, error = result
    return [error] if error else check(value)


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str, work_dir: Path, tracer=None):
        self.seed = seed
        self.cfg = self.sizes[size]
        self.work = work_dir
        self.tracer = tracer
        self.digests = set()

    def op(self, fn, *args, **kwargs):
        """Call one operation; an exception becomes its failure record."""
        if self.tracer is not None:
            self.tracer.op_id += 1
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # a raising op is a failed op, not a lost run
            return None, f"{type(exc).__name__}: {exc}"

    def setup(self) -> None:
        raise NotImplementedError

    def expect(self) -> list[list[str]]:
        """Prepare oracles; returns error lists of any set-up checks."""
        return []

    def prepare_round(self) -> None:
        """Untimed housekeeping before a round."""

    def run_round(self) -> list:
        raise NotImplementedError

    def check(self, results) -> list[list[str]]:
        raise NotImplementedError


class _ManufacturedField(Workload):
    """A single-mode field per quasimomentum, reassembled by the inverse transform.

    Each fiber is amp_theta * exp(2 pi i m.j/n) exp(-|m + theta| t) with a
    seeded complex amplitude of modulus in [0.5, 1], so the decay rate of
    every fiber is known in closed form whatever the seed.
    """

    dim: int
    mode: tuple
    suffix: str
    residual_tol: float

    def _lattice(self):
        gram = [["1" if i == j else "0" for j in range(self.dim)] for i in range(self.dim)]
        return lattice.Lattice(basis=TWO_PI * np.eye(self.dim), dual_gram_exact=gram)

    def setup(self) -> None:
        c = self.cfg
        rng = np.random.default_rng(self.seed)
        lat = self._lattice()
        thetas = fibers.theta_grid(lat, c["theta_points"])
        amps = rng.uniform(0.5, 1.0, len(thetas)) * np.exp(2j * math.pi * rng.uniform(size=len(thetas)))
        n = c["points"]
        t = np.linspace(0.0, c["t_end"], c["t_points"])
        grid = np.meshgrid(*([np.arange(n)] * self.dim), indexing="ij")
        x_mode = np.exp(2j * math.pi * sum(m * g for m, g in zip(self.mode, grid)) / n)
        fibs = []
        for theta, amp in zip(thetas, amps):
            kappa = oracles.manufactured_rate(self.mode, theta.coeffs)
            data = amp * x_mode[..., None] * np.exp(-kappa * t)
            fibs.append(fibers.BlochFiber(theta=theta, lattice=lat, points_per_cell=n,
                                          t_start=0.0, t_end=c["t_end"], data=data))
        self.lattice = lat
        self.field = fibers.gelfand_inverse(fibs, lat)
        self.work.mkdir(parents=True, exist_ok=True)
        self.field_path = self.work / f"u{self.suffix}"
        fields.save_field(self.field, self.field_path)
        self.lattice_path = self.work / "lattice.json"
        self.lattice_path.write_text(json.dumps(lat.to_json()))
        self.out_dir = self.work / "out"
        self.params = {
            "lattice": str(self.lattice_path),
            "u_field": str(self.field_path),
            "theta_points": c["theta_points"],
            "cutoff": c["cutoff"],
            "plots": c["plots"],
        }

    def prepare_round(self) -> None:
        # a fresh output directory at a fixed path, so resolved_config.json
        # and therefore the digest are identical across operations
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _roundtrip(self, u):
        fibs = [fibers.gelfand_forward(u, theta, 10**6)
                for theta in fibers.theta_grid(self.lattice, self.cfg["theta_points"])]
        return fibers.gelfand_inverse(fibs, self.lattice)

    def _check_pipeline(self, code) -> list[str]:
        if code != 0:
            return [f"pipeline exit code {code}"]
        errors = oracles.check_pipeline_output(
            self.out_dir, self.mode, self.cfg["theta_points"], self.residual_tol
        )
        digest = oracles.output_digest(self.out_dir)
        self.digests.add(digest)
        if len(self.digests) > 1:
            errors.append(f"output digest {digest[:12]} differs from an earlier operation")
        return errors


class PipelineIO(_ManufacturedField):
    """The user path: text field in, CSV/JSON/SVG out, through ``cli.main``."""

    name = "pipeline_io"
    dim = 1
    mode = (1,)
    suffix = ".csv"
    residual_tol = 1e-4
    sizes = {
        "full": {"theta_points": 16, "points": 16, "t_points": 2049, "t_end": 5.0,
                 "cutoff": 50.0, "plots": True},
        "tiny": {"theta_points": 4, "points": 8, "t_points": 1025, "t_end": 5.0,
                 "cutoff": 20.0, "plots": True},
    }

    def setup(self) -> None:
        super().setup()
        self.config_path = self.work / "config.json"
        doc = {"command": "pipeline", "params": self.params, "seed": self.seed,
               "out_dir": str(self.out_dir)}
        self.config_path.write_text(json.dumps(doc))

    def expect(self) -> list[list[str]]:
        # the text file must carry the field through load and both transforms
        rebuilt = self.op(lambda: self._roundtrip(fields.load_field(self.field_path, self.lattice)))
        return [_judge(rebuilt, lambda field: oracles.check_roundtrip(self.field, field))]

    def run_round(self) -> list:
        with contextlib.redirect_stdout(io.StringIO()):
            return [self.op(cli.main, ["pipeline", "--config", str(self.config_path)])]

    def check(self, results) -> list[list[str]]:
        return [_judge(results[0], self._check_pipeline)]


class BlochPlane(_ManufacturedField):
    """2D fibers from a binary field: pipeline without plots plus a full round trip."""

    name = "bloch_plane"
    dim = 2
    mode = (1, 0)
    suffix = ".npz"
    residual_tol = 1e-3
    sizes = {
        "full": {"theta_points": 6, "points": 8, "t_points": 1025, "t_end": 5.0,
                 "cutoff": 20.0, "plots": False},
        "tiny": {"theta_points": 2, "points": 4, "t_points": 1025, "t_end": 5.0,
                 "cutoff": 20.0, "plots": False},
    }

    def setup(self) -> None:
        super().setup()
        self.run_config = runconfig.RunConfig(
            command="pipeline", params=self.params, seed=self.seed, out_dir=str(self.out_dir)
        )

    def run_round(self) -> list:
        manifest_code = self.op(pipeline.run_pipeline, self.run_config)
        return [manifest_code, self.op(self._roundtrip, self.field)]

    def check(self, results) -> list[list[str]]:
        pipeline_run, roundtrip = results
        return [
            _judge(pipeline_run, lambda manifest_code: self._check_pipeline(manifest_code[1])),
            _judge(roundtrip, lambda rebuilt: oracles.check_roundtrip(self.field, rebuilt)),
        ]


class SpectrumSieves(Workload):
    """The three lattice-point enumerators, with no I/O."""

    name = "spectrum_sieves"
    sizes = {
        "full": {"growth": [10**2, 10**4, 10**6], "density": 10**6, "containment": 200,
                 "cutoff": 1000},
        "tiny": {"growth": [10**2, 10**3], "density": 10**3, "containment": 20, "cutoff": 50},
    }
    # GL2(Z)-equivalent forms: same value set, same count, same work
    BINARY_FORMS = ([[2, 1], [1, 3]], [[3, 1], [1, 2]], [[2, -1], [-1, 3]], [[3, -1], [-1, 2]])
    RESIDUES = ((1, 1, 2), (1, 2, 1), (2, 1, 1))

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.gram2 = self.BINARY_FORMS[int(rng.integers(len(self.BINARY_FORMS)))]
        self.residues = self.RESIDUES[int(rng.integers(len(self.RESIDUES)))]
        self.q3 = lattice.QuadraticForm(G=np.eye(3, dtype=np.int64))
        self.q2 = lattice.QuadraticForm(G=np.eye(2, dtype=np.int64))
        self.binary = lattice.QuadraticForm(G=np.array(self.gram2, dtype=np.int64))
        self.lat = lattice.Lattice(
            basis=TWO_PI * np.eye(3),
            dual_gram_exact=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        )
        self.theta = lattice.Quasimomentum.from_rational(3, self.residues)

    def expect(self) -> list[list[str]]:
        c = self.cfg
        limit = c["growth"][-1]
        self.expected_three = oracles.gap_table(oracles.three_squares_set(limit), c["growth"])
        self.expected_two = oracles.gap_table(oracles.form_value_set([[1, 0], [0, 1]], limit),
                                              c["growth"])
        self.expected_count = int(np.count_nonzero(oracles.form_value_set(self.gram2, c["density"])))
        self.expected_points = oracles.shifted_cube_counts(3, self.residues, c["cutoff"])
        return []

    def _containment(self):
        dual = lattice.dual_basis(self.lat)
        sigma, q, l, _ = lattice.rational_structure(dual, self.theta)
        return spectrum.progression_containment(
            dual, q, self.theta, sigma, l, self.cfg["containment"], exact=True
        )

    def run_round(self) -> list:
        c = self.cfg
        return [
            self.op(spectrum.max_gap_growth, self.q3, None, c["growth"]),
            self.op(spectrum.max_gap_growth, self.q2, None, c["growth"]),
            self.op(spectrum.density_scan, self.binary, c["density"]),
            self.op(self._containment),
            self.op(spectrum.enumerate_spectrum, self.lat, self.theta, 0.0,
                    float(c["cutoff"]), verify=True),
        ]

    def check(self, results) -> list[list[str]]:
        three, two, density, containment, spectrum_slice = results
        return [
            _judge(three, lambda t: oracles.check_gap_table(t, self.expected_three, "three squares")),
            _judge(two, lambda t: oracles.check_gap_table(t, self.expected_two, "two squares")),
            _judge(density, lambda d: [] if d[0] == self.expected_count else
                   [f"density count {d[0]}, expected {self.expected_count}"]),
            _judge(containment, lambda worst: [] if worst == 0.0 else
                   [f"exact containment distance {worst}"]),
            _judge(spectrum_slice, lambda slc: oracles.check_spectrum_counts(slc, *self.expected_points)),
        ]


class SolverEnsembles(Workload):
    """Carleman ensembles, the first-order system, ellreg and the two-point solver."""

    name = "solver_ensembles"
    sizes = {
        "full": {"gap_cases": 256, "cases_43": 256, "ellreg_cases": 30,
                 "full_modes": 10, "full_points": 10_000,
                 "diag_modes": 200, "diag_points": 10_000},
        "tiny": {"gap_cases": 4, "cases_43": 4, "ellreg_cases": 3,
                 "full_modes": 3, "full_points": 2001,
                 "diag_modes": 10, "diag_points": 2001},
    }
    EPS_43 = 0.5
    ELLREG_EPS = 0.5
    ELLREG_S = (2.0, 4.0, 6.0)
    T = 10.0
    COUNTEREXAMPLE_RATES = (0.5, 0.9, 1.0, 1.1)
    COUNTEREXAMPLE_T = 1000.0

    def setup(self) -> None:
        c = self.cfg
        rng = np.random.default_rng(self.seed)
        bound = evolution.exponential_bound(0.5)
        self.full = evolution.PerturbationFamily.full(bound, beta=0.5, decays=True, seed=self.seed)
        self.diag = evolution.PerturbationFamily.diagonal(bound, beta=0.5, decays=True,
                                                          seed=self.seed)
        self.full_eigs = np.sort(rng.uniform(1.0, 9.0, c["full_modes"]))
        self.full_g = rng.normal(size=c["full_modes"]) + 1j * rng.normal(size=c["full_modes"])
        self.diag_eigs = np.sort(rng.uniform(1.0, 9.0, c["diag_modes"]))
        self.diag_g = rng.normal(size=c["diag_modes"]) + 1j * rng.normal(size=c["diag_modes"])
        # distinct square eigenvalues with 1 the smallest: rate sqrt(mu_min)
        # is well separated from the next mode and T = 30 for every seed
        self.scan_eigs = [1.0] + sorted(float(k * k) for k in rng.choice([2, 3, 4], 2, replace=False))
        scan_g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        scan_g[1, 0] = 0.0
        self.scan_g = [list(g) for g in scan_g]
        self.wl_43 = self.EPS_43 ** (-4.0 / 3.0)

    def _apply_full(self, t, c):
        w = self.full.full_matrix(c.shape[0])
        return self.full.bound_values(t)[None, :] * (w @ c)

    def _apply_diag(self, t, c):
        return self.diag.diagonal_entries(t, c.shape[0]).T * c

    def _gap_case(self, i):
        profile, a, b, alpha = ensembles.bump_case_gap(self.seed, i)
        return carleman.verify_carleman_gap(profile, a, b, alpha)

    def _case_43(self, i):
        profile, _ = ensembles.bump_case_43(self.seed, i, self.EPS_43, self.wl_43)
        return carleman.verify_carleman_43(profile, self.wl_43, self.EPS_43)

    def _system_case(self):
        profile, a, b, _ = ensembles.bump_case_gap(self.seed, 0)
        return carleman.first_order_system_check(profile, a, b)

    def _ellreg_case(self, i):
        profile, beta = ensembles.solution_like_profile(self.seed, i)
        report = carleman.ellreg_bound_check(profile, self.ELLREG_EPS, self.ELLREG_S)
        return report, float(profile.alpha), beta

    def _solve(self, eigs, pert, g, n_points):
        result = evolution.solve_decaying(eigs, pert, self.T, g, n_points=n_points)
        return result.profile

    def run_round(self) -> list:
        c = self.cfg
        results = [self.op(self._gap_case, i) for i in range(c["gap_cases"])]
        results += [self.op(self._case_43, i) for i in range(c["cases_43"])]
        results.append(self.op(self._system_case))
        results += [self.op(self._ellreg_case, i) for i in range(c["ellreg_cases"])]
        results.append(self.op(self._solve, self.full_eigs, self.full, self.full_g,
                               c["full_points"]))
        results.append(self.op(self._solve, self.diag_eigs, self.diag, self.diag_g,
                               c["diag_points"]))
        results.append(self.op(evolution.rate_spectrum_scan, self.scan_eigs,
                               evolution.PerturbationFamily.zero(), self.scan_g))
        results.append(self.op(evolution.harmonic_counterexample, self.COUNTEREXAMPLE_RATES,
                               self.COUNTEREXAMPLE_T))
        return results

    def check(self, results) -> list[list[str]]:
        c = self.cfg
        checks = [lambda r, i=i: oracles.check_carleman(r, f"gap case {i}")
                  for i in range(c["gap_cases"])]
        checks += [lambda r, i=i: oracles.check_carleman(r, f"4/3 case {i}")
                   for i in range(c["cases_43"])]
        checks.append(lambda r: [] if r.certificates_ok else ["first-order certificates fail"])
        checks += [lambda v, i=i: oracles.check_ellreg(*v, self.ELLREG_EPS, f"ellreg case {i}")
                   for i in range(c["ellreg_cases"])]
        checks += [
            lambda p: oracles.check_solution(p, self.full_g, self._apply_full, "full solve"),
            lambda p: oracles.check_solution(p, self.diag_g, self._apply_diag, "diagonal solve"),
            lambda rows: oracles.check_rates(rows, self.scan_eigs, self.scan_g),
            oracles.check_counterexample,
        ]
        return [_judge(result, check) for result, check in zip(results, checks, strict=True)]


WORKLOADS = {w.name: w for w in (PipelineIO, BlochPlane, SpectrumSieves, SolverEnsembles)}
