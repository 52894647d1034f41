"""Benchmark runner for halfspace_decay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  After one untimed warm-up round the runner repeats the
workload's fixed round of operations until ``--seconds`` have passed (at
least MIN_ROUNDS times), checks every operation against an independent
oracle, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json:
set-up time (median of the import time in fresh interpreters plus the median
of SETUP_REPEATS input generations), the median wall and CPU time of a round
divided by the median time of the reference kernel timed around the rounds
(``wall_ref``, ``cpu_ref``), and the process's peak resident set.  With ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer ones: median per-round
self time and counters of every traced span, plus the tracing overhead.
Raw round seconds are in the detail record.

The line before the result is a JSON detail record (environment, per-round
times, output digests, failures).  Exit code 0 when every operation passed
its oracle, 1 when one did not, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# single-threaded baseline: BLAS/OpenMP pools at one thread (<= nproc), and
# the package's own worker pool left at its default of one worker
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PACKAGE_THREADS_ENV = "HALFSPACE_DECAY_THREADS"
REFERENCE_LOOPS = 500_000


def reference_kernel() -> int:
    """Fixed pure-Python work, never the package's, timed next to every round.

    The host's speed drifts by tens of percent over tens of seconds.  The
    median round time divided by the median time of this kernel, run right
    before and after every round, cancels most of that drift, while any
    change in the package still moves the ratio in full.
    """
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return total


def timed(fn) -> tuple[float, float]:
    """(wall, cpu) seconds of one call; cpu is user + system of all threads."""
    c0, t0 = time.process_time(), time.perf_counter()
    fn()
    return time.perf_counter() - t0, time.process_time() - c0


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import halfspace_decay; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the benchmark's own smoke tests")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median package import time, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": PINNED_THREADS,
        "commit": _git_commit(),
        "src_lines": src_lines(),
    }


def run(args, spec) -> dict:
    import tracing
    import workloads

    import_s = import_seconds()
    tracer = tracing.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, args.size, work, tracer)
    attempted = failed = 0
    failures = []

    def tally(error_lists):
        nonlocal attempted, failed
        attempted += len(error_lists)
        for errors in error_lists:
            if errors:
                failed += 1
                failures.extend(errors)

    try:
        setup_times = [timed(w.setup)[0] for _ in range(SETUP_REPEATS)]
        tally(w.expect())

        w.prepare_round()  # warm-up round: checked, not timed
        tally(w.check(w.run_round()))

        plain, traced, kernels = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            for is_traced in (False, True) if tracer else (False,):
                w.prepare_round()
                gc.collect()  # no collector debt carried from one round into the next
                if is_traced:
                    tracer.reset()
                    first_span = len(tracer.spans)
                    tracer.install()
                before = timed(reference_kernel)
                results = []
                try:
                    wall, cpu = timed(lambda: results.append(w.run_round()))
                finally:
                    if is_traced:
                        tracer.uninstall()
                after = timed(reference_kernel)
                if is_traced:
                    traced.append((wall, tracer.round_metrics(first_span)))
                else:
                    plain.append((wall, cpu))
                    kernels += [before, after]
                tally(w.check(results.pop()))
            enough = len(plain) >= (MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "environment": env,
        "import_s": import_s, "setup_repeats_s": setup_times,
        "round_wall_s": [p[0] for p in plain], "round_cpu_s": [p[1] for p in plain],
        "kernel_wall_s": [k[0] for k in kernels], "kernel_cpu_s": [k[1] for k in kernels],
        "traced_round_wall_s": [t[0] for t in traced],
        "output_digests": sorted(w.digests),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
    }
    if tracer:
        detail["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    plain_wall = statistics.median(p[0] for p in plain)
    plain_cpu = statistics.median(p[1] for p in plain)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": plain_wall,
        "cpu_s": plain_cpu,
        "wall_ref": plain_wall / statistics.median(k[0] for k in kernels),
        "cpu_ref": plain_cpu / statistics.median(k[1] for k in kernels),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail["end_to_end"] = values
    listed = spec["end_to_end"]
    if tracer:
        listed = spec["per_layer"]
        values = {"trace.overhead_s": statistics.median(t[0] for t in traced) - plain_wall,
                  "src.lines": env["src_lines"]}
        for entry in listed:
            if entry["name"] not in values:
                values[entry["name"]] = statistics.median(
                    t[1].get(entry["name"], 0) for t in traced
                )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for line in failures[:50]:
        print(line, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "halfspace_decay" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # must precede the first numpy import, which happens in run()
    os.environ.pop(PACKAGE_THREADS_ENV, None)
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    result = run(args, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
