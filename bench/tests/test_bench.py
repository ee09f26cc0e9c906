"""Tests of the benchmark itself: smoke runs, a non-vacuous oracle, digests.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind):
    """{metric name: unit} as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}

SMALL = 6  # inputs per smoke run


def small_pool(workload, seed=11):
    return workloads.generate(workload, seed)[:SMALL]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    assert workload in {w["name"] for w in CONTRACT["workloads"]}
    result, context = run.run_workload(workload, 11, 0, trace=0, min_ops=0,
                                       cases=small_pool(workload))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMALL
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["failed_ratio"] == 0


def test_times_are_scaled_to_reference_speed():
    ref = calibrate.REFERENCE_S
    assert run.scale(ref, ref) == 1
    assert run.scale(ref, 3 * ref) == 0.5                # a processor at half speed halves the time
    result, context = run.run_workload("systems", 11, 0, trace=0, min_ops=0,
                                       cases=small_pool("systems"))
    low, high = context["speed_scale"]["min"], context["speed_scale"]["max"]
    for name in ("latency_ms.p50", "latency_ms.p90"):
        ratio = result["metrics"][name]["value"] / context["wall"][name]
        assert low * (1 - 1e-9) <= ratio <= high * (1 + 1e-9)


def test_pool_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_oracle_counts_a_corrupted_verdict():
    cli = run.load_cli()
    case = workloads.generate("systems", 11)[0]          # a tower: etale, every flag true
    (path,) = run.write_inputs("oracle-test", [case])
    code, stdout, error, seconds = run.run_op(cli, case.argv(path))
    assert code == 0 and "etale: true" in stdout
    want = {0: oracle.expected(case)}
    assert oracle.mismatches(case.command, stdout, want[0]) == []

    corrupted = stdout.replace("\netale: true", "\netale: false")
    assert corrupted != stdout
    assert oracle.mismatches(case.command, corrupted, want[0]) == [
        "etale: printed False, expected True"]

    recorder = run.Recorder()
    recorder.add(0, False, code, corrupted, "", seconds)
    recorder.add(0, False, code, corrupted, "", seconds)
    assert len(run.count_failures([case], recorder, want)) == 2


def test_oracle_reads_json_and_factor_degrees():
    case = workloads.generate("quotients", 11)[0]
    want = oracle.expected(case)
    cli = run.load_cli()
    (path,) = run.write_inputs("oracle-test", [case])
    _, stdout, _, _ = run.run_op(cli, case.argv(path))
    assert oracle.mismatches(case.command, stdout, want) == []
    data = json.loads(stdout)
    data["decomposition"] = data["decomposition"][1:]      # drop a factor: degrees no longer add up
    assert oracle.mismatches(case.command, json.dumps(data), want)


def test_traced_digest_matches_untraced():
    cases = small_pool("certified")
    untraced, plain = run.run_workload("certified", 11, 0, trace=0, min_ops=0, cases=cases)
    traced, with_trace = run.run_workload("certified", 11, 0, trace=1, cases=cases)
    assert untraced["correct"] and traced["correct"]
    assert plain["digest"] == with_trace["digest"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == declared("per_layer")
    assert with_trace["absent"] == []
    assert traced["metrics"]["groebner.buchberger.tracked_calls"]["value"] > 0


def test_absent_target_is_reported(monkeypatch):
    run.load_cli()
    import etalg.kaehler

    monkeypatch.delattr(etalg.kaehler, "minors")
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == ["kaehler.minors"]
    assert tracer.summary(1)["kaehler.minors.count"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "systems", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
