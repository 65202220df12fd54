"""Self-test of the benchmark: tiny runs of every workload, metric names, verdict checking.

    python3 -m pytest perfbench/tests -q

Takes about a minute: the tiny integral pass still runs the suite's fixed
64- and 128-point refinement lattices.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_code_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    out = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                       "--trace", trace, "--size", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = out["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        if metric.get("absent"):
            assert metric["value"] is None
        else:
            assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(metric["value"] > 0 for metric in out["metrics"].values())


def test_flipped_reference_verdict_counts_as_failed_check():
    ref = reference.load()
    table = ref["sweep"]["tiny"]
    produced = json.loads(json.dumps(table))
    expected = json.loads(json.dumps(table))
    source = next(iter(expected))
    expected[source][0][2] = "precondition-skipped"
    comparison = reference.Comparison()
    comparison.add(produced, expected)
    assert comparison.failed == 1
    assert comparison.attempted == sum(len(v) for v in produced.values())

    missing = reference.Comparison()
    missing.add({source: produced[source][1:]}, {source: table[source]})
    assert missing.failed == 1


def test_residual_drift_is_reported_per_family():
    records = [["quarter-sweep-n2", "loc", "pass", 1e-14, 1e-12]]
    comparison = reference.Comparison()
    comparison.add({"s": [["quarter-sweep-n2", "loc", "pass", 3e-14, 1e-12]]}, {"s": records})
    assert comparison.failed == 0
    assert comparison.drift["quarter-sweep"] == pytest.approx([0.02, 2e-14])


def test_refuses_to_run_with_tol_scale_set():
    env = dict(os.environ, CODAZZI_DEFAULT_TOL_SCALE="2")
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "0.1", "--size", "tiny",
                env=env, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_fails_without_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_wrappers_patch_every_importer_and_restore():
    from codazzi import charts, spheres, suites

    original = charts.nabla_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert charts.nabla_at is spheres.nabla_at
        assert charts.nabla_at is not original
        assert suites._SUITES["integral"] is suites.integral_suite
    finally:
        tracer.uninstall()
    assert charts.nabla_at is original and spheres.nabla_at is original


def test_missing_layer_is_absent_not_zero(monkeypatch):
    from codazzi import charts, spheres

    monkeypatch.delattr(charts.ChartStructure, "_memo")
    monkeypatch.delattr(spheres, "ros_residual")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        values = tracer.layer_values()
    finally:
        tracer.uninstall()
    assert values["charts.memo_lookups"] is None
    assert values["charts.memo_hit_ratio"] is None
    assert "spheres.ros_s" not in values
    assert values["spheres.lattice_points"] == 0  # the bundle functional still counts
    assert values["charts.nabla_calls"] == 0


def test_handler_pauses_are_left_out_of_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer.group_id("a"), tracer.group_id("b")
    tracer.spans.extend([[outer, 0.0, 10.0, -1, True], [inner, 2.0, 5.0, 0, True]])
    stats = tracer.group_stats(pauses=[(3.0, 4.0), (6.0, 6.5)])
    assert stats["b_s"] == pytest.approx(2.0)
    assert stats["a_s"] == pytest.approx(8.5)
    assert stats["a_self_s"] == pytest.approx(6.5)
