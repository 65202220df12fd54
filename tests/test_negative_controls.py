"""Each shared pointwise kernel of ``tensors`` is read by the checks that rely on it.

Scaling a kernel's output by 1 + 1e-3, in every module that imports it, must fail
the listed checks of each suite.  The algebraic suite reads the kernels through
the (g, a) functions of ``points``, the differential suite mostly through the chart
calculus.  Some checks compare a quantity read through ``points`` with one read
through the chart, and a consistent scaling of K or tau cancels in them: those must
still pass, and a route that computed the kernel by a copy of its own would fail them.

``metric_factors`` returns three outputs, and each is scaled on its own.  The two kernels of
the lattice path that no other control reaches, ``frame_components`` and ``spheres.poly_eval``,
are scaled in the same way and must fail the integral checks that read them.  The batched
kernels of ``points`` that the random sweeps and the equality point read get a defect of
their own: an output scaled by 1 + 1e-3, or a paper constant weakened.

A row may also list checks that must not pass: a defect can turn a check into a labelled
skip, and a skip is not a pass.
"""

import sys

import numpy as np
import pytest

from codazzi import points, spheres, tensors
from codazzi.suites import run_suite

# kernel -> suite -> (ids that must fail, ids that must not pass, ids that must pass) with the
# kernel scaled; a check that fails or is skipped does not pass
CONTROLS = {
    "raise_last": {"algebraic": ({"commutator-scalar-two-routes"}, set(), set()),
                   "differential": ({"curvature-two-routes"}, set(), {"curvature-sum"})},
    "trace_k": {"algebraic": ({"commutator-scalar-two-routes"}, set(), set()),
                "differential": ({"koszul-trace"}, set(), {"koszul-form"})},
    "ricci_trace": {"algebraic": ({"commutator-ricci-two-routes"}, set(), set()),
                    "differential": ({"ricci-decomposition", "sphere-scalar-curvature"}, set(),
                                     set())},
    "trace_pair": {"algebraic": ({"commutator-scalar-two-routes"}, set(), set()),
                   "differential": ({"sphere-scalar-curvature"}, set(), set())},
    # [K,K] enters one side of the two routes, of the curvature sum and of the sectional sum
    "commutator_curvature": {
        "algebraic": ({"commutator-ricci-two-routes"}, set(), set()),
        "differential": ({"curvature-two-routes", "curvature-sum", "sectional-sum"}, set(), set())},
    "gram_k": {"algebraic": ({"commutator-ricci-two-routes"}, set(), set()),
               "differential": ({"ricci-decomposition", "ricci-conjugate-sum"}, set(), set())},
    "tau_circ_k": {"algebraic": ({"commutator-ricci-two-routes"}, set(), set()),
                   "differential": ({"ricci-decomposition", "koszul-form"}, set(), set())},
    # every R = H R0 test reads the model tensor; a fitted H absorbs a constant scaling, so the
    # checks that fail compare the curvature with a known H or use H in a formula.  The supplied
    # H of sandwich-constant-fields no longer fits, so that check turns into a skip
    "r0_curvature": {
        "algebraic": ({"hyperbolic-constant-curvature-a1.0-b0.0",
                       "hyperbolic-constant-curvature-a0.8-b-0.5"}, set(), set()),
        "simons": ({"laplace-cubic-constant-sectional", "laplace-cubic-dualflat"}, set(), set()),
        "bounds": ({"dualflat-split-scalar", "sandwich-equality-n2"},
                   {"sandwich-constant-fields"}, set())},
}


def _scaled_lhs(quarter_terms):
    def scaled(a, u):
        lhs, *rest = quarter_terms(a, u)
        return (lhs * (1.0 + 1e-3), *rest)

    return scaled


def _weakened_norm_gap(_original):
    # (n+2)/3 ||A||^2 - ||E||^2 with its constant times 0.9; scaling the output could not show
    # at the equality point, whose gap is 0
    def weakened(a):
        tau = points.trace_form(a)
        return 0.9 * (a.shape[-1] + 2) / 3.0 * points.cubic_norm_sq(a) - np.sum(tau * tau, axis=-1)

    return weakened


# batched kernel of points -> its defect -> suite -> ids as in CONTROLS
SWEEP_CONTROLS = {
    "lp_norms": (lambda f: lambda a: tuple(v * (1.0 + 1e-3) for v in f(a)),
                 {"algebraic": ({"li-equality-n2", "cubic-bound-upper-n2"}, set(), set())}),
    "quarter_terms": (_scaled_lhs, {"algebraic": ({"equality-point-eighth"}, set(), set())}),
    "norm_gap": (_weakened_norm_gap,
                 {"algebraic": ({"normgap-sweep-n2", "equality-point-normgap"}, set(), set())}),
}

# kernel of the lattice path -> (its module, suite -> ids as in CONTROLS): the bundle functional
# is the integral check that sees a scaled fiber integrand, since its two terms cancel
LATTICE_CONTROLS = {
    "frame_components": (tensors, {"integral": ({"bundle-functional"}, set(), set()),
                                   "algebraic": ({"equality-point-eighth"}, set(), set())}),
    "poly_eval": (spheres, {"integral": ({"bundle-functional"}, set(), set())}),
}

FACTOR_OUTPUTS = ("ginv", "frame", "vol")

# output of metric_factors -> suite -> ids as in CONTROLS, with that output scaled
FACTOR_CONTROLS = {
    "ginv": {"algebraic": ({"commutator-scalar-two-routes"}, set(), set()),
             "differential": ({"curvature-two-routes", "metricity", "sphere-scalar-curvature"},
                              set(), set())},
    "frame": {"algebraic": ({"equality-point-eighth"}, set(), set()),
              "simons": ({"sym2-simons-n2", "sym2-simons-n3"}, set(), set()),
              "integral": ({"bundle-functional"}, set(), set())},
}

# outputs of metric_factors that no check can see scaled by a constant, and why
FACTOR_BLIND = {
    "vol": "sqrt(det g) weights every bundle integrand alike, and each integral check compares "
           "an integral, or a sum of two, with 0 or with an integral of the same weight",
}


def _replace_everywhere(monkeypatch, name: str, make, home=tensors) -> int:
    original = getattr(home, name)
    replacement = make(original)
    modules = [m for key, m in sorted(sys.modules.items())
               if (key == "codazzi" or key.startswith("codazzi."))
               and getattr(m, name, None) is original]
    for module in modules:
        monkeypatch.setattr(module, name, replacement)
    return len(modules)


def _scale_everywhere(monkeypatch, name: str, factor: float, home=tensors) -> int:
    return _replace_everywhere(monkeypatch, name, lambda f: lambda *args: f(*args) * factor, home)


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
    for suite, (must_fail, must_not_pass, must_pass) in table.items():
        verdicts = {}
        for check in run_suite(suite).checks:
            verdicts.setdefault(check.id, set()).add(check.verdict)
        failed = {cid for cid, seen in verdicts.items() if "fail" in seen}
        assert must_fail <= failed, (suite, sorted(failed))
        assert must_not_pass <= set(verdicts), suite
        passed = {cid for cid, seen in verdicts.items() if seen == {"pass"}}
        assert not must_not_pass & passed, (suite, sorted(must_not_pass & passed))
        assert must_pass <= passed, suite


@pytest.mark.parametrize("kernel", sorted(CONTROLS))
def test_scaled_kernel_fails_the_checks_that_read_it(monkeypatch, kernel):
    assert _scale_everywhere(monkeypatch, kernel, 1.0 + 1e-3) >= 2
    _assert_verdicts(CONTROLS[kernel])


@pytest.mark.parametrize("kernel", sorted(SWEEP_CONTROLS))
def test_defective_sweep_kernel_fails_the_checks_that_read_it(monkeypatch, kernel):
    make, table = SWEEP_CONTROLS[kernel]
    assert _replace_everywhere(monkeypatch, kernel, make, home=points) >= 1
    _assert_verdicts(table)


@pytest.mark.parametrize("kernel", sorted(LATTICE_CONTROLS))
def test_scaled_lattice_kernel_fails_the_integral_checks_that_read_it(monkeypatch, kernel):
    home, table = LATTICE_CONTROLS[kernel]
    assert _scale_everywhere(monkeypatch, kernel, 1.0 + 1e-3, home) >= 1
    _assert_verdicts(table)


@pytest.mark.parametrize("output", sorted(FACTOR_CONTROLS))
def test_scaled_metric_factor_fails_the_checks_that_read_it(monkeypatch, output):
    # points (the (g, a) functions) and charts (and through it spheres) import the kernel
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
    for kernel, (home, _) in LATTICE_CONTROLS.items():
        _scale_everywhere(monkeypatch, kernel, 1.0, home)
    for output in FACTOR_OUTPUTS:
        _scale_factor_output(monkeypatch, output, 1.0)
    for suite in ("algebraic", "differential", "simons", "integral"):
        assert [c.id for c in run_suite(suite).checks if c.verdict == "fail"] == []
