"""Span tracing around the package's public functions, installed from outside.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
each listed function by a timing wrapper in every ``halfspace_decay`` module
that holds a reference to it (``from .x import f`` copies as well as the
defining module), and on the class for methods.  ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one process.

A span is (name, start, end, parent, op id).  Spans stay in memory; the runner
writes them out once, after the last round.  A listed name that the package
no longer has is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "halfspace_decay"


# -- counters: hook(counts, args, kwargs, result, exc) after every call ------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _read(counts, args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    if exc is None:
        counts["fields.read_mb"] += os.path.getsize(path) / 1e6


def _written(counts, args, kwargs, result, exc):
    if exc is None:
        counts["manifest.out_mb"] += os.path.getsize(result) / 1e6


def _csv(counts, args, kwargs, result, exc):
    rows = _arg(args, kwargs, 2, "rows")
    if exc is None and hasattr(rows, "__len__"):
        counts["manifest.rows"] += len(rows)
    _written(counts, args, kwargs, result, exc)


def _points(counts, args, kwargs, result, exc):
    tables = _arg(args, kwargs, 0, "tables")
    counts["svgplot.points"] += sum(len(t.xs) for t in tables)


def _block_mb(points_per_cell, dim, n_t):
    return points_per_cell**dim * n_t * 16 / 1e6  # complex128 samples


def _forward(counts, args, kwargs, result, exc):
    u = _arg(args, kwargs, 0, "u")
    l_max = _arg(args, kwargs, 2, "l_max")
    cells = 1
    for lo, shape in zip(u.cells_lo, u.cells_shape):
        cells *= sum(1 for c in range(lo, lo + shape) if abs(c) <= l_max)
    counts["fibers.cell_blocks"] += cells
    counts["fibers.computed_mb"] += cells * _block_mb(u.points_per_cell, u.dim, u.n_t)


def _inverse(counts, args, kwargs, result, exc):
    fibers = _arg(args, kwargs, 0, "fibers")
    if exc is None:
        # every fiber is phased into every cell of the per-axis^dim box
        cells = len(fibers) * len(fibers)
        first = fibers[0]
        counts["fibers.cell_blocks"] += cells
        counts["fibers.computed_mb"] += cells * _block_mb(
            first.points_per_cell, first.dim, first.n_t
        )


def _values(counts, args, kwargs, result, exc):
    if exc is None:
        counts["spectrum.values"] += result.values.size


def _sieve(counts, args, kwargs, result, exc):
    if exc is None:
        counts["spectrum.sieve_len"] += result.size


def _verdict(counts, args, kwargs, result, exc):
    errors = sys.modules[PACKAGE + ".errors"]
    if isinstance(exc, errors.PreconditionError):
        counts["carleman.refused"] += 1
    elif exc is None and result.passed is not None:
        counts["carleman.verdicts"] += 1
        counts["carleman.passed"] += bool(result.passed)


def _unknowns(counts, args, kwargs, result, exc):
    if exc is None:
        modes, points = result.profile.coeffs.shape
        counts["evolution.unknowns"] += (points - 2) * modes


def _workers(counts, args, kwargs, result, exc):
    runconfig = sys.modules[PACKAGE + ".runconfig"]
    threads = _arg(args, kwargs, 2, "threads")
    counts["runconfig.workers"] = max(counts["runconfig.workers"], runconfig.thread_count(threads))


# (module, attribute, span name or None for a counter-only hook, hook).
# Grouped by layer; README.md says which end-to-end metric each should move.
TARGETS = [
    ("fields", "load_field", "fields.load_field", _read),
    ("manifest", "write_csv", "manifest.write_csv", _csv),
    ("manifest", "write_json", "manifest.write_json", _written),
    ("svgplot", "emit_plots", "svgplot.emit_plots", _points),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    # per-quasimomentum worker, so that parallel_map's self time is its own
    ("pipeline", "_theta_case", "pipeline.theta_case", None),
    ("cli", "main", "cli.main", None),
    ("fibers", "gelfand_forward", "fibers.gelfand_forward", _forward),
    ("fibers", "gelfand_inverse", "fibers.gelfand_inverse", _inverse),
    ("fibers", "fiber_residual", "fibers.fiber_residual", None),
    ("spectrum", "enumerate_spectrum", "spectrum.enumerate_spectrum", _values),
    ("spectrum", "find_gaps", "spectrum.find_gaps", None),
    ("spectrum", "max_gap_growth", "spectrum.max_gap_growth", None),
    ("spectrum", "density_scan", "spectrum.density_scan", None),
    ("spectrum", "progression_containment", "spectrum.progression_containment", None),
    ("spectrum", "spectrum_value_set", None, _sieve),
    ("lattice", "dual_basis", "lattice.dual_basis", None),
    ("lattice", "rational_structure", "lattice.rational_structure", None),
    ("carleman", "verify_carleman_gap", "carleman.verify_carleman_gap", _verdict),
    ("carleman", "verify_carleman_43", "carleman.verify_carleman_43", _verdict),
    ("carleman", "first_order_system_check", "carleman.first_order_system_check", None),
    ("carleman", "ellreg_bound_check", "carleman.ellreg_bound_check", None),
    ("quadrature", "simpson_with_error", "quadrature.simpson_with_error", None),
    ("profiles", "SpectralProfile.equation_residual", "profiles.equation_residual", None),
    ("ensembles", "bump_case_gap", "ensembles.case_gen", None),
    ("ensembles", "bump_case_43", "ensembles.case_gen", None),
    ("ensembles", "solution_like_profile", "ensembles.case_gen", None),
    ("evolution", "solve_decaying", "evolution.solve_decaying", _unknowns),
    ("evolution", "decay_rate_estimate", "evolution.decay_rate_estimate", None),
    ("evolution", "harmonic_counterexample", "evolution.harmonic_counterexample", None),
    ("runconfig", "parallel_map", "runconfig.parallel_map", _workers),
]


class Tracer:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op_id = 0
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if name is not None:
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, 0.0, 0.0, parent, tracer.op_id]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[1] = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if span is not None:
                    span[2] = time.perf_counter()
                    tracer._stack.pop()
                    tracer.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        self.absent = []
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                self.absent.append(name or f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name, hook)
            holders = [owner] if classes else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def reset(self) -> None:
        """Start a new round: drop counters; spans are kept for the trace file."""
        self.counts = Counter()

    def round_metrics(self, first_span: int) -> dict:
        """Self time per span name and the counters, for spans from first_span on."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        metrics = dict(self.counts)
        for (name, start, end, _, _), inner in zip(spans, child_time):
            key = name + ".s"
            metrics[key] = metrics.get(key, 0.0) + (end - start) - inner
        verdicts = self.counts["carleman.verdicts"]
        metrics["carleman.pass_ratio"] = self.counts["carleman.passed"] / verdicts if verdicts else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
