"""One-token mutants of the rules that set a verdict, a refusal or an exit code.

Each mutant replaces one string in one module of ``src/halfspace_decay`` by
another.  The runner copies the repository (without ``.git`` and caches) into
a fresh temporary directory, applies the change there, runs ``pytest -x -q``
on the test files that cover it, and prints ``killed`` (a test failed),
``survived`` (all passed) or ``error``.  Before any mutant it runs each set of
test files once on an unmutated copy; a mutant whose tests fail there is an
``error``, not a kill.  The working tree is never changed.  Standard library
only, and not part of the test suite: a mutant takes one pytest run of its
test files.

    python tools/mutants.py

The exit code is 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "halfspace_decay"
TIMEOUT_S = 900
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out")

# (module, old, new, test files that cover it); each old string occurs once in its module
MUTANTS = [
    # the Carleman pass rule allows the quadrature error, once
    ("carleman.py", "-(quad_err + pass_rtol * abs(rhs))", "-(pass_rtol * abs(rhs))", ["test_carleman.py"]),
    ("carleman.py", "-(quad_err + pass_rtol * abs(rhs))", "-(2 * quad_err + pass_rtol * abs(rhs))",
     ["test_carleman.py"]),
    # the resolution gate's predicted change under grid doubling
    ("quadrature.py", "abs(integ.value - integ.coarse_value) / 4.0", "abs(integ.value - integ.coarse_value) / 15.0",
     ["test_carleman.py"]),
    # the gap inequality's window rule, the pipeline's shrink of a gap into it, and its Carleman label
    ("carleman.py", "3.0 * a * a > alpha", "a * a > alpha", ["test_pipeline.py"]),
    ("pipeline.py", "gap.lo * (1.0 + 1e-9)", "gap.lo * (1.0 + 1e-3)", ["test_pipeline.py"]),
    # the window's and the verifier's alpha is the spectrum slice's, not the profile's retained modes'
    ("pipeline.py", "_admissible_window(c.gaps, c.alpha)", "_admissible_window(c.gaps, c.profile.alpha)",
     ["test_pipeline.py"]),
    ("pipeline.py", "*window, c.alpha,", "*window, c.profile.alpha,", ["test_pipeline.py"]),
    ("pipeline.py", '"pass" if c.report.passed else "fail"', '"pass" if True else "fail"', ["test_pipeline.py"]),
    # the decay fit's superexponential flag and tail window
    ("evolution.py", "min_run: int = 3", "min_run: int = 2", ["test_evolution.py"]),
    ("evolution.py", "return (2.0 * T / 3.0, 0.9 * T)", "return (0.6 * T, 0.9 * T)", ["test_evolution.py"]),
    # the one reading rule: a grid error of the object a file builds is the file's (exit 4) ...
    ("runconfig.py", "isinstance(exc, (SchemaError, GridError))", "isinstance(exc, SchemaError)", ["test_cli.py"]),
    # ... both readers refuse a number that is not finite, and a field of another kind than asked ...
    ("manifest.py", "if not np.isfinite(rows).all():", "if False:", ["test_cli.py"]),
    ("manifest.py", 'if a.dtype.kind in "fc" and not', "if False and not", ["test_cli.py"]),
    ("fields.py", 'if kind is not None and header["kind"] != kind:', "if False:", ["test_cli.py"]),
    # ... and a file of another dimension than its lattice is a refusal (exit 2)
    ("fields.py", 'if header["dim"] != lattice.dim:', "if False:", ["test_cli.py"]),
    ("fibers.py", 'if len(doc["mu"]) != lat.dim:', "if False:", ["test_cli.py"]),
    # the one text reader: a file whose rows np.loadtxt finds empty is refused, not warned about ...
    ("manifest.py", 'raise SchemaError("holds no rows")', "pass", ["test_cli.py"]),
    ("manifest.py", 'warnings.filterwarnings("ignore", "loadtxt: input contained no data")', "pass",
     ["test_cli.py"]),
    # ... a byte that is not UTF-8 is refused with the number of its line ...
    ("manifest.py", "enumerate(fh, 1)", "enumerate(fh, 0)", ["test_cli.py"]),
    # ... and so are a pipe, a device and a name np.loadtxt would decompress
    ("manifest.py", "if not Path(path).is_file() or ", "if ", ["test_cli.py"]),
    ("manifest.py", ' or Path(path).suffix in (".gz", ".bz2", ".xz", ".lzma")', "", ["test_cli.py"]),
    # the one t-axis rule of fields and fibers, and the profile's t >= 0 asked before any output
    ("fields.py", "if n_t < 2:", "if n_t < 1:", ["test_cli.py", "test_fibers.py"]),
    ("fields.py", "if not t_start < t_end:", "if not t_start <= t_end:", ["test_cli.py", "test_fibers.py"]),
    ("pipeline.py", "check_t_start(u.t_start)", "float(u.t_start)", ["test_pipeline.py"]),
    # a gap of exactly min_len, a value exactly MERGE_TOL from its group head, a value exactly at n
    ("spectrum.py", "hi - lo >= min_len", "hi - lo > min_len", ["test_spectrum.py"]),
    ("spectrum.py", "np.diff(raw) > MERGE_TOL", "np.diff(raw) >= MERGE_TOL", ["test_spectrum.py"]),
    ("spectrum.py", "N[N <= top]", "N[N < top]", ["test_spectrum.py"]),
    # the counted spectrum: a numerator at the top is kept, the top takes MERGE_TOL, np.bincount only for a
    # count array no longer than the box, the exact box's offset in the padded one, and the verify count
    ("spectrum.py", "inside = block <= top", "inside = block < top", ["test_spectrum.py"]),
    ("spectrum.py", "Fraction(float(energy)) + Fraction(MERGE_TOL)) * scale", "Fraction(float(energy))) * scale",
     ["test_spectrum.py"]),
    ("spectrum.py", "top + 1 <= math.prod(ax.size for ax in axes)", "top + 1 > math.prod(ax.size for ax in axes)",
     ["test_spectrum.py"]),
    ("spectrum.py", "np.searchsorted(o.ravel(), a.ravel()[0])",
     'np.searchsorted(o.ravel(), a.ravel()[0], side="right")', ["test_spectrum.py"]),
    ("spectrum.py", "if padded != found:", "if padded < found:", ["test_spectrum.py"]),
    # half the box only for a class closed under x -> -x (2r = 0 mod l), and for every such class
    ("spectrum.py", "np.any((2 * np.asarray(residues)) % l)", "np.any((2 * np.asarray(residues)) % 1)",
     ["test_spectrum.py"]),
    ("spectrum.py", "np.any((2 * np.asarray(residues)) % l)", "np.any(np.asarray(residues) % l)", ["test_spectrum.py"]),
    # theta and -theta share a slice (the spectrum is even in theta), but a per-axis reflection does not
    ("pipeline.py", "min(r, tuple((l - x) % l for x in r))", "tuple(min(x, (l - x) % l) for x in r)",
     ["test_pipeline.py"]),
    ("pipeline.py", "min(r, tuple((l - x) % l for x in r))", "min(r, tuple(x % l for x in r))", ["test_pipeline.py"]),
    # the ranges held by the pipeline parameters' types: a taper below MAX_TAPER, a theta grid of at
    # least one point per axis (the config rule of every count >= 1), a decay window with a < b
    ("pipeline.py", "0 < v < MAX_TAPER", "0 < v <= MAX_TAPER", ["test_pipeline.py"]),
    ("runconfig.py", "_is_int(v) and v >= 1)", "_is_int(v) and v >= 0)", ["test_pipeline.py"]),
    ("pipeline.py", "and v[0] < v[1]", "and v[0] <= v[1]", ["test_pipeline.py"]),
    # a residual or norm whose sum of squares overflows is summed again by hypot
    ("profiles.py", " | (wsq == np.inf)", "", ["test_profiles.py"]),
    # the inverse reads and writes slab j of the first intra-cell index
    ("fibers.py", "stack[p] = f.data[j, ..., s]", "stack[p] = f.data[0, ..., s]", ["test_fibers.py"]),
    ("fibers.py", "out=field[at][..., s]", "out=field[(slice(None),) * dim + (n - 1 - j,)][..., s]",
     ["test_fibers.py"]),
    # a profile keeps at most max_modes modes, and none below the DFT's roundoff
    ("fibers.py", "MODE_MASS_FLOOR = 1e-24", "MODE_MASS_FLOOR = 0.0", ["test_pipeline.py"]),
    ("fibers.py", "[:max_modes]", "[:None]", ["test_pipeline.py"]),
    # ... also when the fiber's squared moduli under- or overflow: they are summed again over the peak modulus
    ("fibers.py", "if not np.finfo(float).tiny <= total < np.inf and", "if False and", ["test_pipeline.py"]),
    # a fiber residual that overflows is refused
    ("fibers.py", "if not np.isfinite(norms).all():", "if False:", ["test_cli.py", "test_pipeline.py"]),
    # every archive refuses an entry its reader does not name
    ("manifest.py", "if unknown := set(data.files) - set(keys) - set(optional):", "if False:", ["test_cli.py"]),
    # a minus sign then a digit or a point starts a value (argparse's own pattern has no exponent or list)
    ("cli.py", 're.compile(r"^-[\\d.]")', 're.compile(r"^-\\d+$|^-\\d*\\.\\d+$")', ["test_cli.py"]),
    # a Carleman weight or integral that overflows is refused
    ("carleman.py", "if not np.isfinite(weight).all():", "if False:", ["test_carleman.py", "test_cli.py"]),
    ("carleman.py", "if not all(map(math.isfinite, (lhs, rhs, quad_err))):", "if False:", ["test_carleman.py"]),
    # the strictest exit code wins
    ("errors.py", "max(worst, int(c))", "int(c)", ["test_cli.py"]),
    # ellreg: the largest window ratio, eps > 0, a window with no mass, beta over every point where phi lives
    ("carleman.py", "sup_ratio = max(sup_ratio, r)", "sup_ratio = r", ["test_carleman.py"]),
    ("carleman.py", "if eps <= 0:\n        raise PreconditionError(\"eps must be positive\")\n    t = phi.t_grid",
     "t = phi.t_grid", ["test_carleman.py"]),
    ("carleman.py", "if den <= 0.0:", "if den < 0.0:", ["test_carleman.py"]),
    ("carleman.py", "norm[interior] > 1e-14 *", "norm[interior] > 1e-2 *", ["test_carleman.py"]),
    # a flag that one mode of a command never reads is refused there, not ignored
    ("cli.py", "for name in names if getattr(args, name) is not None]", "for name in names if False]", ["test_cli.py"]),
    ("cli.py", '_unread(args, "gaps --growth", "cutoff", "energy", "min_gap", "full_axis")', "None", ["test_cli.py"]),
    ("cli.py", '_unread(args, "verify-gap --eigs", "seed", "ensemble")', "None", ["test_cli.py"]),
    ("cli.py", '_unread(args, "verify-gap without --eigs", "a", "b", "alpha")', "None", ["test_cli.py"]),
    ("cli.py", '_unread(args, "evolve --perturbation zero", "beta", "bound", "seed")', "None", ["test_cli.py"]),
    # the counterexample's growth thresholds
    ("evolution.py", "growth_ratio < 0.9", "growth_ratio < 0.8", ["test_evolution.py"]),
    ("evolution.py", "growth_ratio <= 1.25", "growth_ratio <= 1.5", ["test_evolution.py"]),
    # a grid with a point that is not finite is refused
    ("quadrature.py", "if not (math.isfinite(lo) and math.isfinite(hi)):", "if False:", ["test_profiles.py"]),
    # an uncoupled solve scales its one column y_i = A_i^(-1) e_1 by -g_i/h^2, not by g_i or its conjugate
    ("evolution.py", "(first.real, first.imag)", "(g.real, g.imag)", ["test_evolution.py"]),
    ("evolution.py", "(first.real, first.imag)", "(first.real, -first.imag)", ["test_evolution.py"]),
]


def run_tests(tests: list[str], mutant: tuple[str, str, str] | None = None) -> int | str:
    """pytest's exit code on ``tests`` in a copy of the tree, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=IGNORE)
        if mutant is not None:
            module, old, new = mutant
            target = work / PACKAGE / module
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{module}: {old!r} occurs {text.count(old)} times, not once")
            target.write_text(text.replace(old, new), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(f"tests/{name}" for name in tests)]
        try:
            return subprocess.run(argv, cwd=work, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "timeout"


def main() -> int:
    unmutated = {}
    for tests in dict.fromkeys(tuple(m[3]) for m in MUTANTS):
        unmutated[tests] = run_tests(list(tests))
        print(f"unmutated {' '.join(tests)}: exit {unmutated[tests]}", flush=True)
    killed = 0
    for i, (module, old, new, tests) in enumerate(MUTANTS):
        if unmutated[tuple(tests)] != 0:
            verdict = "error (fails unmutated)"
        else:
            code = run_tests(tests, (module, old, new))
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")
        killed += verdict == "killed"
        print(f"{i:2d} {verdict:9s} {module}: {old!r} -> {new!r}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
