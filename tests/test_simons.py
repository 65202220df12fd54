"""Laplacian-type identity residuals: unconditional formulas, preconditions,
specializations, and second-order convergence."""

import numpy as np
import pytest

from codazzi import PreconditionError
from codazzi import charts as charts_mod
from codazzi.charts import (
    ChartStructure,
    constant_field,
    cubic_simons_residuals,
    hessian_from_potential,
    ricci_identity_residual,
    simons_residual,
    sym2_simons_residual,
    weitzenbock_residual,
)
from codazzi.generators import GeneratorSpec, generate
from codazzi.suites import laplacian_series, run_suite

X2 = np.array([0.15, -0.22])


def curved_hessian(h=1e-3, n=2):
    if n == 2:
        potential = "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)"
    else:
        potential = (
            "0.4*x1**2*x2**2 + 0.3*x2**2*x3**2 + 0.35*x1**2*x3**2 "
            "+ 0.5*(x1**2 + x2**2 + x3**2)"
        )
    return hessian_from_potential(potential, [[-0.6, 0.6]] * n, h=h, n=n)


def sphere_chart(h=1e-3, n=2):
    return ChartStructure(
        n, [[-0.4, 0.4]] * n,
        lambda x: 4.0 * np.eye(n) / (1 + np.sum(x * x, axis=-1))[..., None, None] ** 2,
        constant_field(np.zeros((n, n, n))), h=h,
    )


def codazzi_beta(n):
    """Closed-form Codazzi 2-form on the stereographic sphere: Hess(x1) + x1 g."""
    eye = np.eye(n)

    def beta(y):
        r2 = np.sum(y * y, axis=-1)[..., None, None]
        e2u = 4.0 / (1 + r2) ** 2
        grad_u = -2.0 * y / (1 + r2[..., 0])
        gamma1 = (eye[:, :1] * grad_u[..., None, :] + eye[:1, :] * grad_u[..., :, None]
                  - eye * grad_u[..., :1, None])
        return -gamma1 + eye * (y[..., :1, None] * e2u)

    return beta


def flat_chart():
    return ChartStructure(2, [[-1, 1]] * 2, constant_field(np.eye(2)),
                          constant_field(np.zeros((2, 2, 2))))


def trig_tau(y):
    return np.stack([np.sin(y[..., 0] + 2 * y[..., 1]), np.cos(y[..., 0] - y[..., 1])], axis=-1)


class TestRicciIdentity:
    def test_parallel_field_on_flat_metric(self):
        cs = flat_chart()
        field = constant_field([1.0, -2.0])
        assert ricci_identity_residual(cs, field, [0.1, 0.3]) < 1e-12

    def test_unconditional_on_arbitrary_fields(self):
        cs = sphere_chart()
        field = lambda y: np.stack([
            np.stack([np.sin(y[..., 0]), y[..., 1] ** 2], axis=-1),
            np.stack([y[..., 0] * y[..., 1], np.cos(y[..., 1])], axis=-1),
        ], axis=-2)
        assert ricci_identity_residual(cs, field, X2) < 1e-5

    def test_convergence_factor(self):
        rs = [ricci_identity_residual(curved_hessian(h), curved_hessian(h).a_field, X2)
              for h in (4e-3, 2e-3, 1e-3)]
        for i in range(2):
            assert 3.2 <= rs[i] / rs[i + 1] <= 4.8


class TestSimonsFormula:
    def test_degree_zero_through_four(self):
        cs = sphere_chart()
        fields = [
            lambda y: np.sin(y[..., 0]) + y[..., 1],
            lambda y: np.stack([np.sin(y[..., 0]), np.cos(y[..., 1])], axis=-1),
            lambda y: np.array([[0.0, 0.1], [0.1, 0.0]])
            + np.eye(2) * np.stack([np.sin(y[..., 0]), np.cos(y[..., 1])], axis=-1)[..., None, :],
            None,
            None,
        ]
        for degree, field in enumerate(fields):
            if field is None:
                continue
            assert simons_residual(cs, field, X2) < 1e-4, degree

    def test_on_cubic_field(self):
        cs = curved_hessian()
        assert simons_residual(cs, cs.a_field, X2) < 1e-4

    def test_degree_four_field(self):
        cs = sphere_chart()
        field = lambda y: np.einsum(
            "...i,...j,k,l->...ijkl", y, y, np.array([1.0, 0.5]), np.array([0.2, 1.0])
        ) + np.sin(y[..., 0])[..., None, None, None, None] * np.ones((2, 2, 2, 2))
        assert simons_residual(cs, field, X2) < 1e-3

    def test_halving_reduces_by_four(self):
        rs = [simons_residual(curved_hessian(h), curved_hessian(h).a_field, X2)
              for h in (2e-3, 1e-3)]
        assert 3.2 <= rs[0] / rs[1] <= 4.8


class TestWeitzenbock:
    def test_flat_exact_differential(self):
        cs = flat_chart()
        tau = lambda y: 2 * y  # d(x^2 + y^2)
        out = weitzenbock_residual(cs, tau, [0.2, 0.1])
        assert out["weitzenbock"] < 1e-6

    def test_poincare_and_sphere(self):
        poin = ChartStructure(2, [[-0.5, 0.5], [0.5, 1.5]],
                              lambda x: np.eye(2) / x[..., 1, None, None] ** 2,
                              constant_field(np.zeros((2, 2, 2))))
        tau = trig_tau
        assert weitzenbock_residual(poin, tau, [0.0, 1.0])["weitzenbock"] < 1e-4
        assert weitzenbock_residual(sphere_chart(), tau, X2)["weitzenbock"] < 1e-4

    def test_scalar_consequence(self):
        out = weitzenbock_residual(
            sphere_chart(), trig_tau, X2
        )
        assert out["simons-1form"] < 1e-4

    def test_convergence(self):
        tau = trig_tau
        rs = [weitzenbock_residual(sphere_chart(h), tau, X2)["weitzenbock"]
              for h in (4e-3, 2e-3, 1e-3)]
        for i in range(2):
            assert 3.2 <= rs[i] / rs[i + 1] <= 4.8


class TestSym2Simons:
    def test_metric_multiple_trivial(self):
        cs = sphere_chart()
        beta = lambda y: 2.5 * 4.0 * np.eye(2) / (1 + np.sum(y * y, axis=-1))[..., None, None] ** 2
        residual, eigen_term = sym2_simons_residual(cs, beta, X2)
        assert residual < 1e-8
        assert eigen_term == pytest.approx(0.0, abs=1e-10)

    def test_flat_cubic_potential_hessian(self):
        cs = flat_chart()
        beta = lambda y: np.eye(2) * (6.0 * y)[..., None, :]
        residual, eigen_term = sym2_simons_residual(cs, beta, [0.3, 0.2])
        assert residual < 1e-8
        assert eigen_term == 0.0

    def test_codazzi_tensor_on_sphere(self):
        cs = sphere_chart()
        residual, eigen_term = sym2_simons_residual(cs, codazzi_beta(2), X2)
        assert residual < 1e-4
        assert eigen_term != 0.0

    def test_precondition_violation_distinct(self):
        cs = sphere_chart()
        beta = lambda y: np.eye(2) * np.stack(
            [np.sin(3 * y[..., 0]), np.cos(2 * y[..., 1])], axis=-1)[..., None, :]
        with pytest.raises(PreconditionError, match="not symmetric"):
            sym2_simons_residual(cs, beta, X2)

    def test_convergence(self):
        rs = [sym2_simons_residual(sphere_chart(h), codazzi_beta(2), X2)[0]
              for h in (4e-3, 2e-3, 1e-3)]
        for i in range(2):
            assert 3.2 <= rs[i] / rs[i + 1] <= 4.8


class TestCubicSimons:
    def test_all_three_forms_on_hessian(self):
        for n in (2, 3):
            cs = curved_hessian(n=n)
            x = np.array([0.15, -0.22, 0.1][:n])
            out = cubic_simons_residuals(cs, x)
            for key, value in out.items():
                assert value < 1e-4, (n, key, value)

    def test_parallel_structure_exact(self):
        cs = generate(GeneratorSpec("G1-constant-A", seed=0))
        out = cubic_simons_residuals(cs, np.array([1.0, 1.0]))
        assert out["laplace-cubic-bracket"] < 1e-8

    def test_trace_free_specialization(self):
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=1,
                                      params={"variant": "conformal", "amp": 0.35}))
        out = cubic_simons_residuals(conf, np.array([1.1, 2.3]))
        assert "laplace-cubic-tracefree" in out
        assert out["laplace-cubic-tracefree"] < 1e-4

    def test_precondition_error_reports_asymmetry(self):
        cs = generate(GeneratorSpec("G4-random-smooth", seed=0))
        with pytest.raises(PreconditionError, match="asymmetry"):
            cubic_simons_residuals(cs, np.array([1.0, 1.0]))

    def test_convergence(self):
        rs = []
        for h in (4e-3, 2e-3, 1e-3):
            cs = curved_hessian(h)
            rs.append(cubic_simons_residuals(cs, X2)["laplace-cubic-ricci"])
        for i in range(2):
            assert 3.2 <= rs[i] / rs[i + 1] <= 4.8


class TestSpecializations:
    """The constant-sectional and dual-flat keys of the one cubic producer."""

    SECTIONAL = "laplace-cubic-constant-sectional"
    DUALFLAT = "laplace-cubic-dualflat"

    def conformal(self):
        return generate(GeneratorSpec("G5-periodic-trig", seed=1,
                                      params={"variant": "conformal", "amp": 0.35}))

    def test_constant_sectional_form(self):
        out = cubic_simons_residuals(self.conformal(), np.array([1.1, 2.3]))
        assert out[self.SECTIONAL] < 1e-4

    def test_constant_fields_reduce_to_zero_terms(self):
        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        assert cubic_simons_residuals(cs, np.array([1.0, 1.0]))[self.SECTIONAL] < 1e-9

    def test_dual_flat_split_form(self):
        out = cubic_simons_residuals(self.conformal(), np.array([1.1, 2.3]))
        assert out[self.DUALFLAT] < 1e-4

    def test_dual_flat_split_constant_fields(self, monkeypatch):
        # R_hat = 0 and [K,K] = -2 R0, so the split fits c = 2
        fit, fits = charts_mod.fit_constant_curvature, []

        def spy(g, ginv, r, rel_tol, h=None):
            fits.append(fit(g, ginv, r, rel_tol, h))
            return fits[-1]

        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        monkeypatch.setattr(charts_mod, "fit_constant_curvature", spy)
        assert cubic_simons_residuals(cs, np.array([1.0, 1.0]))[self.DUALFLAT] < 1e-9
        assert fits[-1] == pytest.approx(2.0, abs=1e-9)

    def test_no_fit_no_key(self):
        # at n = 3 neither [K,K] nor R_hat - [K,K] of G1 is a multiple of R0
        cs = generate(GeneratorSpec("G1-constant-A", n=3, seed=0))
        out = cubic_simons_residuals(cs, cs.domain.mean(axis=1))
        assert "laplace-cubic-bracket" in out
        assert self.SECTIONAL not in out and self.DUALFLAT not in out

    def test_failed_fit_is_a_labelled_skip_in_the_suite(self, monkeypatch):
        def fails(*args, **kwargs):
            raise PreconditionError("planted")

        before = run_suite("simons").checks
        monkeypatch.setattr(charts_mod, "fit_constant_curvature", fails)
        after = run_suite("simons").checks
        assert [c.id for c in after] == [c.id for c in before]
        for old, new in zip(before, after):
            if old.id in (self.SECTIONAL, self.DUALFLAT):
                assert old.verdict == "pass"
                assert new.verdict == "precondition-skipped"
                assert new.location.startswith("G5-conformal [")
            else:
                assert new.to_dict() == old.to_dict()



@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_series_builds_two_charts_per_n(n, monkeypatch):
    # the Hessian chart and the sphere are built once; the three steps are with_step copies
    checked = []
    real = ChartStructure._spot_check

    def spy(cs):
        checked.append(cs.h)
        return real(cs)

    monkeypatch.setattr(ChartStructure, "_spot_check", spy)
    steps, series, _ = laplacian_series(n, 1e-3)
    assert checked == [1e-3, 1e-3]
    assert steps == (4e-3, 2e-3, 1e-3)
    assert all(len(values) == 3 for values in series.values())
