import math

import numpy as np
import pytest

from codazzi import PreconditionError
from codazzi.charts import ChartStructure, constant_field
from codazzi.generators import GeneratorSpec, generate
from codazzi.spheres import (
    fiber_identity_residual,
    integrate_sphere,
    monte_carlo,
    product_gauss,
    ros_residual,
    sphere_area,
    sphere_codiff_residual,
    unit_bundle_functional,
)
from codazzi.tensors import symmetrize


class TestQuadrature:
    def test_areas(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2)

    def test_weights_sum_to_area(self):
        for n in (2, 3):
            q = product_gauss(n)
            assert abs(q.weights.sum() - sphere_area(n)) < 1e-10 * sphere_area(n)
            assert np.allclose(np.linalg.norm(q.nodes, axis=1), 1.0)

    def test_constant_integrand(self):
        assert integrate_sphere(product_gauss(2), lambda v: 1.0) == pytest.approx(
            2 * math.pi, abs=1e-12
        )

    def test_second_moment(self):
        assert integrate_sphere(product_gauss(3), lambda v: v[:, 0] ** 2) == pytest.approx(
            4 * math.pi / 3, abs=1e-10
        )

    def test_odd_parity(self):
        assert abs(integrate_sphere(product_gauss(2), lambda v: v[:, 0])) < 1e-12
        assert abs(integrate_sphere(product_gauss(3), lambda v: v[:, 2] ** 3)) < 1e-12

    def test_high_dimension_needs_monte_carlo(self):
        with pytest.raises(PreconditionError):
            product_gauss(4)
        q = monte_carlo(4, 1000, seed=1)
        assert abs(q.weights.sum() - sphere_area(4)) < 1e-10

    def test_monte_carlo_returns_stderr(self):
        q = monte_carlo(3, 100000, seed=2)
        est, se = integrate_sphere(q, lambda v: v[:, 0] ** 2)
        assert se > 0
        assert abs(est - 4 * math.pi / 3) < 4 * se

    def test_cross_validation_gauss_vs_mc(self):
        f_scalar = lambda v: v[:, 0] ** 2 * v[:, 1] ** 2
        exact = integrate_sphere(product_gauss(3), f_scalar)
        q = monte_carlo(3, 10**6, seed=3)
        est, se = integrate_sphere(q, lambda v: v[:, 0] ** 2 * v[:, 1] ** 2)
        assert abs(est - exact) < 4 * se


class TestFiberIdentity:
    def test_metric_case_exact(self):
        for n in (2, 3):
            assert fiber_identity_residual(np.eye(n), 0) < 1e-11

    def test_odd_degree_both_sides_vanish(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            s = symmetrize(rng.uniform(-1, 1, (n, n, n)))
            assert fiber_identity_residual(s, 1) < 1e-11

    def test_random_tensors_all_slots(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            for k in (2, 3, 4):
                for _ in range(5):
                    s = rng.uniform(-1, 1, (n,) * k)
                    for i0 in range(k):
                        assert fiber_identity_residual(s, i0) < 1e-9

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, (3, 3, 3, 3))
        n, k = 3, 4
        lhs_g = (n + k - 2) * integrate_sphere(
            product_gauss(3), lambda v: np.einsum("abcd,ma,mb,mc,md->m", s, v, v, v, v)
        )
        q = monte_carlo(3, 10**6, seed=5)
        est, se = integrate_sphere(
            q,
            lambda v: (n + k - 2) * np.einsum("abcd,ma,mb,mc,md->m", s, v, v, v, v),
        )
        assert abs(lhs_g - est) < 4 * se

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            fiber_identity_residual(np.zeros((2,) * 5), 0)


class TestSphericalCodifferential:
    def test_metric_oneform(self):
        assert sphere_codiff_residual(np.eye(2), 0) < 1e-6
        assert sphere_codiff_residual(np.eye(3), 1) < 1e-6

    def test_traceless_part_matches_trace_terms(self):
        # s with vanishing diagonal evaluation: first term drops
        s = np.zeros((2, 2))
        s[0, 1] = 1.0
        s[1, 0] = -1.0  # alternating: s(V,V) = 0
        assert sphere_codiff_residual(s, 0) < 1e-6

    def test_random_cubic(self):
        rng = np.random.default_rng(3)
        s = symmetrize(rng.uniform(-1, 1, (3, 3, 3)))
        assert sphere_codiff_residual(s, 1) < 1e-5

    def test_integrated_codifferential_vanishes(self):
        # integral of the tangential divergence over the closed sphere is zero,
        # so the integrated right side reproduces the fiber identity
        rng = np.random.default_rng(4)
        s = symmetrize(rng.uniform(-1, 1, (3, 3, 3, 3)))
        assert fiber_identity_residual(s, 2) < 1e-9


class TestRos:
    def test_hessian_field_on_flat_torus(self):
        flat = ChartStructure(2, [[0, 2 * np.pi]] * 2, constant_field(np.eye(2)),
                              constant_field(np.zeros((2, 2, 2))), periodic=[True, True])
        hess = lambda y: np.eye(2) * -np.cos(y)[..., None, :]
        assert ros_residual(flat, hess, k=2, lattice=32) < 1e-8

    def test_constant_tensor_on_curved_metric(self):
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=4,
                                      params={"variant": "conformal", "amp": 0.4}))
        const_s = constant_field([[0.3, -0.1], [-0.1, 0.8]])
        assert ros_residual(conf, const_s, k=2, lattice=32) < 1e-6

    def test_generic_cubic_field(self):
        gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                     params={"variant": "generic", "freq": 3}))
        assert ros_residual(gen, gen.a_field, k=3, lattice=64) < 1e-6

    def test_refinement_shrinks_residual(self):
        gen = generate(GeneratorSpec(
            "G5-periodic-trig", seed=3,
            params={"variant": "generic", "freq": 32, "gfreq": 4, "amp": 0.8, "scale": 0.05}))
        r64 = ros_residual(gen, gen.a_field, k=3, lattice=64)
        r128 = ros_residual(gen, gen.a_field, k=3, lattice=128)
        assert r64 < 1e-6
        assert r128 <= r64 / 4.0

    def test_needs_periodicity(self):
        box = ChartStructure(2, [[-1, 1]] * 2, constant_field(np.eye(2)),
                             constant_field(np.zeros((2, 2, 2))))
        with pytest.raises(PreconditionError, match="periodic"):
            ros_residual(box, box.a_field, k=3)

    def test_three_torus(self):
        torus = ChartStructure(
            3, [[0, 2 * np.pi]] * 3,
            lambda x: np.exp(0.3 * np.sin(x[..., 0]) * np.cos(x[..., 2]))[..., None, None]
            * np.eye(3),
            constant_field(np.zeros((3, 3, 3))), periodic=[True] * 3,
        )
        s = lambda y: np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.1], [0.0, 0.1, 0.0]]) + np.eye(3) * (
            np.stack([np.sin(y[..., 0]), np.cos(y[..., 1]), np.sin(y[..., 2] + y[..., 0])], axis=-1)
        )[..., None, :]
        assert ros_residual(torus, s, k=2, lattice=12) < 1e-6


class TestBundleFunctional:
    def test_parallel_structure_both_terms_zero(self):
        g1 = generate(GeneratorSpec("G1-constant-A", seed=0))
        tg, tc, total = unit_bundle_functional(g1, lattice=16)
        assert abs(tg) < 1e-12
        assert abs(tc) < 1e-12
        assert abs(total) < 1e-12

    def test_conformal_family_cancellation(self):
        conf = generate(GeneratorSpec(
            "G5-periodic-trig", seed=4,
            params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5}))
        tg, tc, total = unit_bundle_functional(conf, lattice=64)
        assert tg > 1.0
        assert tc < -1.0
        assert abs(total) < 1e-5

    def test_gradient_term_nonnegative(self):
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=9,
                                      params={"variant": "conformal", "amp": 0.3}))
        tg, _, _ = unit_bundle_functional(conf, lattice=24)
        assert tg >= 0.0

    def test_hypothesis_violation_is_labeled(self):
        g4 = generate(GeneratorSpec("G4-random-smooth", seed=1))
        with pytest.raises(PreconditionError):
            unit_bundle_functional(g4, lattice=8)
