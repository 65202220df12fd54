"""Each shared pointwise kernel of ``tensors`` is read by the checks that rely on it.

Scaling a kernel's output by 1 + 1e-3, in every module that imports it, must fail
the listed checks of each suite.  The algebraic suite reads the kernels through
``StatPoint``, the differential suite mostly through the chart calculus.  Some
checks compare a quantity read through ``StatPoint`` with one read through the
chart, and a consistent scaling of K or tau cancels in them: those must still
pass, and a route that computed the kernel by a copy of its own would fail them.

``metric_factors`` returns three outputs, and each is scaled on its own.
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

FACTOR_OUTPUTS = ("ginv", "frame", "vol")

# output of metric_factors -> suite -> (ids that must fail, ids that must pass) with it scaled
FACTOR_CONTROLS = {
    "ginv": {"algebraic": ({"commutator-scalar-two-routes"}, set()),
             "differential": ({"curvature-two-routes", "metricity", "sphere-scalar-curvature"},
                              set())},
    "frame": {"algebraic": ({"equality-point-eighth"}, set()),
              "simons": ({"sym2-simons-n2", "sym2-simons-n3"}, set()),
              "integral": ({"bundle-functional"}, set())},
}

# outputs of metric_factors that no check can see scaled by a constant, and why
FACTOR_BLIND = {
    "vol": "sqrt(det g) weights every bundle integrand alike, and each integral check compares "
           "an integral, or a sum of two, with 0 or with an integral of the same weight",
}


def _replace_everywhere(monkeypatch, name: str, make) -> int:
    original = getattr(tensors, name)
    replacement = make(original)
    modules = [m for key, m in sorted(sys.modules.items())
               if (key == "codazzi" or key.startswith("codazzi."))
               and getattr(m, name, None) is original]
    for module in modules:
        monkeypatch.setattr(module, name, replacement)
    return len(modules)


def _scale_everywhere(monkeypatch, name: str, factor: float) -> int:
    return _replace_everywhere(monkeypatch, name, lambda f: lambda *args: f(*args) * factor)


def _scale_factor_output(monkeypatch, output: str, factor: float) -> int:
    position = FACTOR_OUTPUTS.index(output)

    def make(factors):
        def scaled(*args, **kwargs):
            out = list(factors(*args, **kwargs))
            out[position] = out[position] * factor
            return tuple(out)

        return scaled

    return _replace_everywhere(monkeypatch, "metric_factors", make)


def _assert_verdicts(table):
    for suite, (must_fail, must_pass) in table.items():
        verdicts = {}
        for check in run_suite(suite).checks:
            verdicts.setdefault(check.id, set()).add(check.verdict)
        failed = {cid for cid, seen in verdicts.items() if "fail" in seen}
        assert must_fail <= failed, (suite, sorted(failed))
        assert {cid for cid in must_pass if verdicts[cid] == {"pass"}} == must_pass, suite


@pytest.mark.parametrize("kernel", sorted(CONTROLS))
def test_scaled_kernel_fails_the_checks_that_read_it(monkeypatch, kernel):
    assert _scale_everywhere(monkeypatch, kernel, 1.0 + 1e-3) >= 2
    _assert_verdicts(CONTROLS[kernel])


@pytest.mark.parametrize("output", sorted(FACTOR_CONTROLS))
def test_scaled_metric_factor_fails_the_checks_that_read_it(monkeypatch, output):
    # tensors (MetricPoint) and charts (ChartStructure, and through it spheres) import the kernel
    assert _scale_factor_output(monkeypatch, output, 1.0 + 1e-3) >= 2
    _assert_verdicts(FACTOR_CONTROLS[output])


def test_every_metric_factor_has_a_control_or_a_reason():
    assert sorted(FACTOR_CONTROLS) + sorted(FACTOR_BLIND) == sorted(FACTOR_OUTPUTS)
    assert not set(FACTOR_CONTROLS) & set(FACTOR_BLIND)


def test_scaled_volume_density_changes_no_integral_verdict(monkeypatch):
    _scale_factor_output(monkeypatch, "vol", 1.0 + 1e-3)
    assert [c.id for c in run_suite("integral").checks if c.verdict == "fail"] == []


def test_unscaled_wrappers_change_no_verdict(monkeypatch):
    for kernel in CONTROLS:
        _scale_everywhere(monkeypatch, kernel, 1.0)
    for output in FACTOR_OUTPUTS:
        _scale_factor_output(monkeypatch, output, 1.0)
    for suite in ("algebraic", "differential", "simons", "integral"):
        assert [c.id for c in run_suite(suite).checks if c.verdict == "fail"] == []
