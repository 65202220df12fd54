import math

import numpy as np
import pytest

from codazzi import PreconditionError, spheres
from codazzi.charts import ChartStructure, codifferential_at, constant_field
from codazzi.generators import GeneratorSpec, generate
from codazzi.spheres import (
    NODE_POWER_CACHE_SIZE,
    fiber_identity_residual,
    integrate_sphere,
    monte_carlo,
    node_power_cache_info,
    node_powers,
    poly_eval,
    product_gauss,
    ros_residual,
    sphere_area,
    sphere_codiff_residual,
    unit_bundle_functional,
)
from codazzi.suites import SuiteConfig, run_suite
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monte_carlo_nodes_equal_norm_normalisation(self, n):
        v = np.random.default_rng(5).standard_normal((20000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(monte_carlo(n, 20000, seed=5).nodes, v)

    def test_cross_validation_gauss_vs_mc(self):
        f_scalar = lambda v: v[:, 0] ** 2 * v[:, 1] ** 2
        exact = integrate_sphere(product_gauss(3), f_scalar)
        q = monte_carlo(3, 10**6, seed=3)
        est, se = integrate_sphere(q, lambda v: v[:, 0] ** 2 * v[:, 1] ** 2)
        assert abs(est - exact) < 4 * se


class TestPolyEval:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_einsum_oracle(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        nodes = product_gauss(n).nodes
        s = rng.uniform(-1, 1, (5,) + (n,) * k)
        letters = "abcd"[:k]
        want = np.einsum(f"z{letters}," + ",".join(f"m{c}" for c in letters) + "->zm",
                         s, *([nodes] * k))
        batched = poly_eval(s, nodes, k)
        assert batched.shape == (5, len(nodes))
        assert np.max(np.abs(batched - want)) <= 1e-13 * np.max(np.abs(want))
        single = poly_eval(s[0], nodes)
        assert np.max(np.abs(single - want[0])) <= 1e-13 * np.max(np.abs(want[0]))


class TestNodePowers:
    @staticmethod
    def fresh(nodes, k):
        rows = np.ones((len(nodes), 1))
        for _ in range(k):
            rows = (rows[:, :, None] * nodes[:, None, :]).reshape(len(nodes), -1)
        return rows

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_cached_table_is_read_only_and_equals_a_fresh_build(self, k):
        nodes = product_gauss(3, order=5).nodes
        table = node_powers(nodes, k)
        assert node_powers(nodes.copy(), k) is table
        assert np.array_equal(table, self.fresh(nodes, k))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    def test_cache_stays_bounded(self):
        rng = np.random.default_rng(0)
        before = node_power_cache_info()
        for _ in range(NODE_POWER_CACHE_SIZE + 10):
            node_powers(rng.standard_normal((4, 2)), 2)
        info = node_power_cache_info()
        assert info.misses - before.misses == NODE_POWER_CACHE_SIZE + 10
        assert info.currsize == info.maxsize == NODE_POWER_CACHE_SIZE


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

    @staticmethod
    def _ros_world_nodes(cs, s_field, k, quad, lattice):
        """The Ros residual with the quadrature nodes mapped through the frame of each point."""
        points = cs.lattice(lattice)
        spacing = (cs.domain[0, 1] - cs.domain[0, 0]) / lattice
        work = ChartStructure(cs.n, cs.domain, cs.g_field, cs.a_field,
                              h=min(cs.h, spacing / 4.0), periodic=cs.periodic)
        traced = codifferential_at(work, s_field, points)
        frame = np.linalg.cholesky(work.metric_inverse_at(points))
        if k == 1:
            fiber = traced * sphere_area(cs.n)
        else:
            world = quad.nodes @ np.swapaxes(frame, -1, -2)
            letters = "abc"[:k - 1]
            spec = f"...{letters}," + ",".join(f"...m{c}" for c in letters) + "->...m"
            fiber = np.einsum(spec, traced, *([world] * (k - 1))) @ quad.weights
        density = np.sqrt(np.linalg.det(work.metric_at(points))) * spacing**cs.n
        return abs(float(np.sum(fiber * density)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_three_torus_matches_world_node_oracle(self, k):
        # sin(4y) is aliased on a lattice of 4, so the lattice sum stays far from zero
        # (an even k leaves an odd fiber integrand, which vanishes at every point)
        torus = ChartStructure(
            3, [[0, 2 * np.pi]] * 3,
            lambda x: np.exp(0.3 * np.sin(x[..., 0]) * np.cos(x[..., 2]))[..., None, None]
            * np.eye(3),
            constant_field(np.zeros((3, 3, 3))), periodic=[True] * 3,
        )
        c = np.random.default_rng(5).uniform(0.5, 1.5, (3,) * k)
        s = lambda y: c * np.sin(4 * y).reshape(y.shape[:-1] + (1,) * (k - 1) + (3,))
        quad = product_gauss(3)
        want = self._ros_world_nodes(torus, s, k, quad, lattice=4)
        assert want > 1.0
        assert ros_residual(torus, s, k=k, quad=quad, lattice=4) == pytest.approx(want, rel=1e-12)


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


def test_integral_suite_fiber_order_reaches_bundle_integrals(monkeypatch):
    quads = []
    monkeypatch.setattr(spheres, "ros_residual",
                        lambda cs, s_field, k, quad=None, lattice=32: quads.append(quad) or 0.0)
    monkeypatch.setattr(spheres, "unit_bundle_functional",
                        lambda cs, quad=None, lattice=32: quads.append(quad) or (0.0, 0.0, 0.0))
    run_suite("integral", SuiteConfig(fiber_order=2))
    assert len(quads) == 8
    assert all(q is not None and q.node_count == 4 for q in quads)


def test_integral_suite_evaluates_each_fiber_identity_once(monkeypatch):
    # 2 dimensions x (2 + 3 + 4 slots) x (3 symmetric tensors + 1 unsymmetrized one)
    calls = []
    original = spheres.fiber_identity_residual

    def spy(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(spheres, "fiber_identity_residual", spy)
    run_suite("integral", SuiteConfig())
    assert len(calls) == 72
