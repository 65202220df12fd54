"""Each shared pointwise kernel of ``tensors`` is read by the checks that rely on it.

Scaling a kernel's output by 1 + 1e-3, in every module that imports it, must fail
the listed checks of each suite.  The algebraic suite reads the kernels through
``StatPoint``, the differential suite mostly through the chart calculus.  Some
checks compare a quantity read through ``StatPoint`` with one read through the
chart, and a consistent scaling of K or tau cancels in them: those must still
pass, and a route that computed the kernel by a copy of its own would fail them.
"""

import sys

import pytest

from codazzi import tensors
from codazzi.suites import run_suite

# kernel -> suite -> (ids that must fail, ids that must pass) with the kernel scaled
CONTROLS = {
    "raise_last": {"algebraic": ({"commutator-scalar-two-routes"}, set()),
                   "differential": ({"curvature-two-routes"}, {"curvature-sum"})},
    "trace_k": {"algebraic": ({"commutator-scalar-two-routes"}, set()),
                "differential": ({"koszul-trace"}, {"koszul-form"})},
    "ricci_trace": {"algebraic": ({"commutator-ricci-two-routes"}, set()),
                    "differential": ({"ricci-decomposition", "sphere-scalar-curvature"}, set())},
    "trace_pair": {"algebraic": ({"commutator-scalar-two-routes"}, set()),
                   "differential": ({"sphere-scalar-curvature"}, set())},
}


def _scale_everywhere(monkeypatch, name: str, factor: float) -> int:
    original = getattr(tensors, name)

    def scaled(*args):
        return original(*args) * factor

    modules = [m for key, m in sorted(sys.modules.items())
               if (key == "codazzi" or key.startswith("codazzi."))
               and getattr(m, name, None) is original]
    for module in modules:
        monkeypatch.setattr(module, name, scaled)
    return len(modules)


@pytest.mark.parametrize("kernel", sorted(CONTROLS))
def test_scaled_kernel_fails_the_checks_that_read_it(monkeypatch, kernel):
    assert _scale_everywhere(monkeypatch, kernel, 1.0 + 1e-3) >= 2
    for suite, (must_fail, must_pass) in CONTROLS[kernel].items():
        verdicts = {}
        for check in run_suite(suite).checks:
            verdicts.setdefault(check.id, set()).add(check.verdict)
        failed = {cid for cid, seen in verdicts.items() if "fail" in seen}
        assert must_fail <= failed, (suite, sorted(failed))
        assert {cid for cid in must_pass if verdicts[cid] == {"pass"}} == must_pass, suite


def test_unscaled_wrappers_change_no_verdict(monkeypatch):
    for kernel in CONTROLS:
        _scale_everywhere(monkeypatch, kernel, 1.0)
    for suite in ("algebraic", "differential"):
        assert [c.id for c in run_suite(suite).checks if c.verdict == "fail"] == []
