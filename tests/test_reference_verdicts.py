"""One full pass of each benchmark workload reproduces the recorded verdicts.

The workloads and the reference verdicts live in ``perfbench/``; they are
loaded here by path and only read.  A check whose verdict differs from
``perfbench/reference.jsonl``, is missing, or fails counts as failed.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_pass_matches_reference_verdicts(name, tmp_path):
    workload = workloads.Workload(name, "full", 3, BENCH.parent, tmp_path / name)
    workload.setup()
    comparison = reference.Comparison()
    comparison.add(workload.run_pass(), reference.expected_sources(
        reference.load(), name, "full", workload.sources()))
    assert comparison.attempted > 0
    assert comparison.failed == 0, comparison.mismatches
