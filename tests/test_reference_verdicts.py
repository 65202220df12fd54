"""One full pass of each benchmark workload reproduces the recorded verdicts,
and every layer the benchmark traces still exists under its name.

The workloads, the reference verdicts and the tracer live in ``perfbench/``;
they are loaded here by path and only read.  A check whose verdict differs
from ``perfbench/reference.jsonl``, is missing, or fails counts as failed.
"""

import ast
import importlib
import importlib.util
import inspect
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
tracing = _load("tracing")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_pass_matches_reference_verdicts(name, tmp_path):
    workload = workloads.Workload(name, "full", 3, BENCH.parent, tmp_path / name)
    workload.setup()
    comparison = reference.Comparison()
    comparison.add(workload.run_pass(), reference.expected_sources(
        reference.load(), name, "full", workload.sources()))
    assert comparison.attempted > 0
    assert comparison.failed == 0, comparison.mismatches


def _wrapped_methods():
    """(module, class, method) of every ``_wrap_method`` call in the tracer's source."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    return [(module.slice.value, cls.value, method.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_wrap_method"
            for module, cls, method in [node.args[:3]]]


def test_every_traced_name_exists():
    # a renamed layer would be reported as absent by traced runs, not as an error
    missing = [f"{module}.{name}" for module, name, _ in tracing.SPANNED
               if not callable(getattr(importlib.import_module(f"codazzi.{module}"), name, None))]
    methods = _wrapped_methods()
    assert methods
    for module, cls, method in methods:
        owner = getattr(importlib.import_module(f"codazzi.{module}"), cls, None)
        if not inspect.isfunction(vars(owner).get(method) if isinstance(owner, type) else None):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []
