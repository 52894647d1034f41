"""Self-tests of the benchmark: tiny smoke runs, oracle rejection, tracing.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import oracles
import tracing
import workloads
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _workload(cls, tmp_path):
    w = cls(seed=7, size="tiny", work_dir=tmp_path / "work")
    w.setup()
    assert w.expect() in ([], [[]])
    w.prepare_round()
    results = w.run_round()
    assert all(errors == [] for errors in w.check(results))
    return w, results


def _failed_ops(w, results):
    return [i for i, errors in enumerate(w.check(results)) if errors]


def test_sieve_oracles_reject_corrupted_results(tmp_path):
    w, results = _workload(workloads.SpectrumSieves, tmp_path)
    (three, _), (two, _), (density, _), (worst, _), (slc, _) = results
    bad_slice = dataclasses.replace(slc)
    bad_slice.mults = slc.mults.copy()
    bad_slice.mults[0] += 1
    corrupt = [
        [(n, g + 1.0) for n, g in three],
        two[:-1] + [(two[-1][0], two[-1][1] - 1.0)],
        (density[0] + 1, density[1]),
        1e-12,
        bad_slice,
    ]
    for i, value in enumerate(corrupt):
        broken = list(results)
        broken[i] = (value, None)
        assert _failed_ops(w, broken) == [i]


def test_three_squares_oracle_matches_legendre_gaps():
    reached = oracles.three_squares_set(10**4)
    assert not reached[7] and not reached[28] and not reached[112] and reached[113]
    assert oracles.gap_table(reached, [100, 10**4]) == [(100, 2.0), (10**4, 3.0)]


def test_solver_oracles_reject_corrupted_results(tmp_path):
    w, results = _workload(workloads.SolverEnsembles, tmp_path)
    c = w.cfg
    gap = 0
    c43 = c["gap_cases"]
    system = c43 + c["cases_43"]
    ellreg = system + 1
    full = ellreg + c["ellreg_cases"]
    rates, counter = full + 2, full + 3

    def corrupted(index, value):
        broken = list(results)
        broken[index] = (value, None)
        return _failed_ops(w, broken)

    report = results[gap][0]
    assert corrupted(gap, dataclasses.replace(report, passed=False)) == [gap]
    assert corrupted(c43, dataclasses.replace(results[c43][0], passed=None)) == [c43]
    assert corrupted(system, dataclasses.replace(results[system][0], certificates_ok=False)) == [system]
    ell, alpha, beta = results[ellreg][0]
    assert corrupted(ellreg, (dataclasses.replace(ell, sup_ratio=1e9), alpha, beta)) == [ellreg]
    profile = results[full][0]
    wrong = dataclasses.replace(profile, coeffs=profile.coeffs * (1.0 + 1e-6 * np.arange(profile.coeffs.shape[1])))
    assert corrupted(full, wrong) == [full]
    rows = results[rates][0]
    assert corrupted(rates, [dataclasses.replace(rows[0], rate=rows[0].rate * 1.02)] + rows[1:]) == [rates]
    crows = results[counter][0]
    assert corrupted(counter, [dataclasses.replace(crows[0], indicator="log-divergent")] + crows[1:]) == [counter]
    broken = list(results)
    broken[gap] = (None, "SolverError: raised")
    assert _failed_ops(w, broken) == [gap]


@pytest.mark.parametrize("cls", [workloads.PipelineIO, workloads.BlochPlane])
def test_pipeline_oracles_reject_corrupted_outputs(cls, tmp_path):
    w, results = _workload(cls, tmp_path)
    out = w.out_dir

    def errors():
        return oracles.check_pipeline_output(out, w.mode, w.cfg["theta_points"], w.residual_tol)

    def edit(name, change):
        path = out / name
        text = path.read_text()
        path.write_text(change(text))
        return lambda: path.write_text(text)

    def wrong_rate(text):
        lines = text.splitlines()
        idx, rate, *rest = lines[1].split(",")
        lines[1] = ",".join([idx, repr(float(rate) * 1.02), *rest])
        return "\n".join(lines) + "\n"

    def wrong_case(key, value):
        def change(text):
            doc = json.loads(text)
            doc["cases"][0][key] = value
            return json.dumps(doc)
        return change

    restore = edit("decay.csv", wrong_rate)
    assert any("rate" in e for e in errors())
    restore()
    restore = edit("manifest.json", wrong_case("verdict", "refused: resolution gate"))
    assert any("verdict" in e for e in errors())
    restore()
    restore = edit("manifest.json", wrong_case("data", {"max_residual": "0.5"}))
    assert any("max_residual" in e for e in errors())
    restore()
    assert errors() == []

    # a later operation whose output bytes differ fails on the digest alone
    edit("gaps_theta0.csv", lambda text: text + "0,1,1\n")
    assert _failed_ops(w, results) == [0]
    broken = list(results)
    broken[0] = ((None, 2) if cls is workloads.BlochPlane else 2, None)
    assert _failed_ops(w, broken) == [0]

    rebuilt = w._roundtrip(w.field)
    shifted = dataclasses.replace(rebuilt, values=rebuilt.values + 1e-9)
    assert oracles.check_roundtrip(w.field, shifted)
    moved = dataclasses.replace(rebuilt, cells_lo=tuple(c + 1 for c in rebuilt.cells_lo))
    assert oracles.check_roundtrip(w.field, moved)


def test_digest_ignores_wall_clock_only(tmp_path):
    w, _ = _workload(workloads.PipelineIO, tmp_path)
    before = oracles.output_digest(w.out_dir)
    path = w.out_dir / "manifest.json"
    doc = json.loads(path.read_text())
    doc["wall_clock_s"] = "999.000"
    path.write_text(json.dumps(doc))
    assert oracles.output_digest(w.out_dir) == before
    (w.out_dir / "gaps_theta0.csv").write_text("lo,hi,length\n")
    assert oracles.output_digest(w.out_dir) != before


def test_tracer_restores_originals_and_reports_absent(monkeypatch):
    from halfspace_decay import fibers, pipeline, profiles

    original = fibers.gelfand_forward
    method = profiles.SpectralProfile.equation_residual
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("fibers", "no_such_function", "fibers.no_such_function", None)
    ])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fibers.gelfand_forward is not original
        assert pipeline.gelfand_forward is fibers.gelfand_forward
        assert profiles.SpectralProfile.equation_residual is not method
    finally:
        tracer.uninstall()
    assert fibers.gelfand_forward is original and pipeline.gelfand_forward is original
    assert profiles.SpectralProfile.equation_residual is method
    assert tracer.absent == ["fibers.no_such_function"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 1], ["inner", 2.0, 5.0, 0, 1], ["inner", 6.0, 7.0, 0, 1]]
    metrics = tracer.round_metrics(0)
    assert metrics["outer.s"] == pytest.approx(6.0)
    assert metrics["inner.s"] == pytest.approx(4.0)
