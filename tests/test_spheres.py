import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from codazzi import ConstructionError, PreconditionError, charts, spheres, suites
from codazzi.bounds import discrete_max_probe
from codazzi.charts import ChartStructure, codifferential_at, constant_field, squared_norm_field
from codazzi.generators import GeneratorSpec, generate
from codazzi.spheres import (
    NODE_POWER_CACHE_SIZE,
    fiber_identity_residuals,
    integrate_monte_carlo,
    integrate_sphere,
    node_power_cache_info,
    node_powers,
    poly_eval,
    product_gauss,
    ros_refinement,
    ros_residual,
    sphere_area,
    sphere_codiff_residual,
    unit_bundle_functional,
)
from codazzi.suites import SuiteConfig, run_suite
from codazzi.tensors import symmetrize


def one_shot_monte_carlo(n, count, f, seed):
    """integrate_monte_carlo's pair from one draw of all count nodes: the test's reference."""
    v = np.random.default_rng(seed).standard_normal((count, n))
    values = np.asarray(f(v / np.linalg.norm(v, axis=1, keepdims=True)), dtype=float)
    weights = np.broadcast_to(sphere_area(n) / count, (count,))
    stderr = sphere_area(n) * np.std(values, ddof=1) / math.sqrt(count)
    return float(weights @ values), float(stderr)


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
        est, se = integrate_monte_carlo(4, 1000, lambda v: np.ones(len(v)), seed=1)
        assert abs(est - sphere_area(4)) < 1e-10 and se == 0.0

    def test_monte_carlo_returns_stderr(self):
        est, se = integrate_monte_carlo(3, 100000, lambda v: v[:, 0] ** 2, seed=2)
        assert se > 0
        assert abs(est - 4 * math.pi / 3) < 4 * se

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monte_carlo_nodes_equal_norm_normalisation(self, n):
        v = np.random.default_rng(5).standard_normal((20000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        seen = []
        integrate_monte_carlo(n, 20000, lambda chunk: seen.append(chunk.copy()) or chunk[:, 0],
                              seed=5)
        assert np.array_equal(np.concatenate(seen), v)

    def test_cross_validation_gauss_vs_mc(self):
        f_scalar = lambda v: v[:, 0] ** 2 * v[:, 1] ** 2
        exact = integrate_sphere(product_gauss(3), f_scalar)
        est, se = integrate_monte_carlo(3, 10**6, f_scalar, seed=3)
        assert abs(est - exact) < 4 * se


class TestCachedRules:
    """Each rule is built once per process and handed out read-only."""

    def test_same_arguments_give_the_same_rule(self):
        assert product_gauss(3, 5) is product_gauss(3, 5)
        assert product_gauss(2) is product_gauss(2, order=12)

    @pytest.mark.parametrize("rule", [lambda: product_gauss(2), lambda: product_gauss(3)])
    def test_nodes_and_weights_are_read_only(self, rule):
        q = rule()
        for array in (q.nodes, q.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0

    def test_consecutive_integral_suites_are_bit_identical(self):
        runs = [run_suite("integral", SuiteConfig()) for _ in range(2)]
        # hex compares the bits, and a skip's nan equals itself
        cold, warm = ([(c.id, c.location, c.verdict, float(c.residual).hex(),
                        float(c.tolerance).hex()) for c in r.checks] for r in runs)
        assert warm == cold
        assert runs[1].timing["quadrature-rule-builds"] == 0

    def test_warm_integral_suite_takes_no_monte_carlo_estimate(self, monkeypatch):
        run_suite("integral", SuiteConfig())
        nodes = []
        integrand = suites._v1v2_squared

        def spy(v):
            nodes.append(len(v))
            return integrand(v)

        monkeypatch.setattr(suites, "_v1v2_squared", spy)
        report = run_suite("integral", SuiteConfig())
        # the product-rule side runs on every pass, the 200000-node side once per rule
        assert nodes == [len(product_gauss(3, SuiteConfig().fiber_order).nodes)]
        assert report.timing["quadrature-rule-builds"] == 0

    def test_monte_carlo_estimate_is_taken_once_per_seed(self, monkeypatch):
        calls = []
        integrate = spheres.integrate_monte_carlo
        monkeypatch.setattr(spheres, "integrate_monte_carlo", lambda n, count, f, seed:
                            calls.append(seed) or integrate(n, count, f, seed))
        suites._cross_validation_estimate.cache_clear()
        want = one_shot_monte_carlo(3, 200000, suites._v1v2_squared, 4)
        assert suites._cross_validation_estimate(4) == want
        assert suites._cross_validation_estimate(4) == want
        assert calls == [4]
        # the last seed's pair is kept: another seed takes an estimate of its own
        suites._cross_validation_estimate(5)
        assert suites._cross_validation_estimate(4) == want
        assert calls == [4, 5, 4]


class TestStreamedMonteCarlo:
    """integrate_monte_carlo draws its nodes in chunks and never holds them all."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("count", [2, spheres.MONTE_CARLO_BLOCK,
                                       spheres.MONTE_CARLO_BLOCK + 1, 200000])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_streamed_pair_equals_a_one_shot_draw(self, n, count, seed):
        f = suites._v1v2_squared
        got = integrate_monte_carlo(n, count, f, seed)
        assert [x.hex() for x in got] == [x.hex() for x in one_shot_monte_carlo(n, count, f, seed)]

    def test_chunks_hold_at_most_one_block(self):
        sizes = []
        integrate_monte_carlo(3, 2 * spheres.MONTE_CARLO_BLOCK + 3,
                              lambda v: sizes.append(len(v)) or v[:, 0], seed=0)
        assert sizes == [spheres.MONTE_CARLO_BLOCK] * 2 + [3]

    def test_streaming_holds_less_than_the_node_set(self):
        f = suites._v1v2_squared
        integrate_monte_carlo(3, 1000, f)
        tracemalloc.start()
        try:
            integrate_monte_carlo(3, 200000, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 200000 nodes of S^2 take 4.8 MB; the streamed estimate peaks near 3.3 MB, twice its values
        assert peak < 200000 * 3 * 8, peak

    def test_cross_validation_keeps_its_bits(self):
        (check,) = [c for c in run_suite("integral", SuiteConfig()).checks
                    if c.id == "quadrature-cross-validation"]
        assert float(check.residual).hex() == "0x1.ddf3468ae2700p-9"
        assert float(check.tolerance).hex() == "0x1.06359038f120bp-7"

    def test_cold_integral_suite_holds_no_monte_carlo_rule(self):
        for cache in (spheres._product_gauss, spheres._node_power_table,
                      suites._cross_validation_estimate):
            cache.cache_clear()
        tracemalloc.start()
        try:
            run_suite("integral", SuiteConfig())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 3e6, held


class TestRuleArguments:
    """A rule, and a Monte Carlo estimate, refuse a dimension, node count, order or seed
    they cannot take."""

    @pytest.mark.parametrize("n, count, seed, named", [
        (3, 1, 0, "node count must be an integer >= 2, got 1"),
        (3, 0, 0, "node count must be an integer >= 2, got 0"),
        (0, 10, 0, "dimension n must be an integer >= 1, got 0"),
        (3, 2.5, 0, "node count must be an integer >= 2, got 2.5"),
        (True, 10, 0, "dimension n must be an integer >= 1, got True"),
        (3, 1000, 2.7, "seed must be an integer >= 0, got 2.7"),
        (3, 1000, "3", "seed must be an integer >= 0, got '3'"),
        (3, 1000, True, "seed must be an integer >= 0, got True"),
        (3, 1000, -1, "seed must be an integer >= 0, got -1"),
        (3, 1000, None, "seed must be an integer >= 0, got None"),
    ], ids=["one-node", "no-nodes", "no-dimension", "fractional-count", "bool-dimension",
            "fractional-seed", "string-seed", "bool-seed", "negative-seed", "no-seed"])
    def test_monte_carlo_refuses(self, n, count, seed, named):
        with pytest.raises(PreconditionError, match=named):
            integrate_monte_carlo(n, count, lambda v: v[:, 0], seed)

    @pytest.mark.parametrize("n, order, named", [
        (3, -2, "order must be an integer >= 1, got -2"),
        (3, 0, "order must be an integer >= 1, got 0"),
        (0, 12, "dimension n must be an integer >= 1, got 0"),
        (2, True, "order must be an integer >= 1, got True"),
        (True, 12, "dimension n must be an integer >= 1, got True"),
    ], ids=["negative-order", "zero-order", "no-dimension", "bool-order", "bool-dimension"])
    def test_product_gauss_refuses(self, n, order, named):
        with pytest.raises(PreconditionError, match=named):
            product_gauss(n, order)

    def test_numpy_integers_are_integers(self):
        f = suites._v1v2_squared
        assert (integrate_monte_carlo(np.int64(3), np.int64(1000), f, np.int64(4))
                == integrate_monte_carlo(3, 1000, f, 4))
        assert product_gauss(np.int64(3), np.int64(5)) is product_gauss(3, 5)


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
            assert fiber_identity_residuals(np.eye(n))[0] < 1e-11

    def test_odd_degree_both_sides_vanish(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            s = symmetrize(rng.uniform(-1, 1, (n, n, n)))
            assert fiber_identity_residuals(s)[1] < 1e-11

    def test_random_tensors_all_slots(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            for k in (2, 3, 4):
                for _ in range(5):
                    s = rng.uniform(-1, 1, (n,) * k)
                    assert max(fiber_identity_residuals(s)) < 1e-9

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, (3, 3, 3, 3))
        n, k = 3, 4
        lhs_g = (n + k - 2) * integrate_sphere(
            product_gauss(3), lambda v: np.einsum("abcd,ma,mb,mc,md->m", s, v, v, v, v)
        )
        est, se = integrate_monte_carlo(
            3, 10**6, lambda v: (n + k - 2) * np.einsum("abcd,ma,mb,mc,md->m", s, v, v, v, v),
            seed=5,
        )
        assert abs(lhs_g - est) < 4 * se

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            fiber_identity_residuals(np.zeros((2,) * 5))

    @staticmethod
    def _per_slot_oracle(s, i0, quad):
        """One slot's defect with its own left side and its own traces, summed in slot order."""
        n, k = s.shape[0], s.ndim
        lhs = (n + k - 2) * float(quad.weights @ poly_eval(s, quad.nodes))
        out = np.zeros(len(quad.nodes))
        for j in range(k):
            if j != i0:
                out = out + poly_eval(np.trace(s, axis1=min(j, i0), axis2=max(j, i0)), quad.nodes)
        return abs(lhs - float(quad.weights @ out))

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_slots_match_per_slot_oracle_bitwise(self, n, k, symmetric):
        rng = np.random.default_rng(100 * n + 10 * k + symmetric)
        quad = product_gauss(n)
        for _ in range(3):
            s = rng.uniform(-1, 1, (n,) * k)
            s = symmetrize(s) if symmetric else s
            got = fiber_identity_residuals(s, quad)
            assert [r.hex() for r in got] == [self._per_slot_oracle(s, i0, quad).hex()
                                              for i0 in range(k)]


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
        assert fiber_identity_residuals(s)[2] < 1e-9


def _three_torus_case():
    torus = ChartStructure(
        3, [[0, 2 * np.pi]] * 3,
        lambda x: np.exp(0.3 * np.sin(x[..., 0]) * np.cos(x[..., 2]))[..., None, None] * np.eye(3),
        constant_field(np.zeros((3, 3, 3))), periodic=[True] * 3,
    )
    s = lambda y: np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.1], [0.0, 0.1, 0.0]]) + np.eye(3) * (
        np.stack([np.sin(y[..., 0]), np.cos(y[..., 1]), np.sin(y[..., 2] + y[..., 0])], axis=-1)
    )[..., None, :]
    return torus, s


def _generic_chart():
    return generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                  params={"variant": "generic", "freq": 3}))


def _generic_case():
    gen = _generic_chart()
    return gen, gen.a_field


def _conformal_chart():
    return generate(GeneratorSpec(
        "G5-periodic-trig", seed=4,
        params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5}))


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
        gen = _generic_chart()
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
        torus, s = _three_torus_case()
        assert ros_residual(torus, s, k=2, lattice=12) < 1e-6

    def test_lattice_of_the_wrong_length_is_rejected(self):
        # a fourth count on a three-torus was once dropped without a word
        torus, s = _three_torus_case()
        with pytest.raises(ConstructionError, match="lattice counts"):
            ros_residual(torus, s, k=2, lattice=[4, 4, 4, 4])

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
        torus, _ = _three_torus_case()
        c = np.random.default_rng(5).uniform(0.5, 1.5, (3,) * k)
        s = lambda y: c * np.sin(4 * y).reshape(y.shape[:-1] + (1,) * (k - 1) + (3,))
        quad = product_gauss(3)
        want = self._ros_world_nodes(torus, s, k, quad, lattice=4)
        assert want > 1.0
        assert ros_residual(torus, s, k=k, quad=quad, lattice=4) == pytest.approx(want, rel=1e-12)


def _hf_chart():
    """The integral suite's under-resolved oscillatory chart of the refinement pair."""
    return generate(GeneratorSpec(
        "G5-periodic-trig", seed=3,
        params={"variant": "generic", "freq": 32, "gfreq": 4, "amp": 0.8, "scale": 0.05}))


class TestRosRefinement:
    """ros_refinement gives the two separate ros_residual values, bit for bit."""

    @staticmethod
    def _separate(cs, s_field, k, lattice):
        fine = [2 * m for m in lattice] if isinstance(lattice, list) else 2 * lattice
        return (ros_residual(cs, s_field, k, lattice=lattice).hex(),
                ros_residual(cs, s_field, k, lattice=fine).hex())

    @pytest.mark.parametrize("lattice", [8, 32])
    def test_generic_pair_matches_separate_residuals(self, lattice):
        gen, s = _generic_case()
        got = ros_refinement(gen, s, 3, lattice=lattice)
        assert tuple(r.hex() for r in got) == self._separate(gen, s, 3, lattice)

    def test_three_torus_pair_matches_separate_residuals(self):
        torus, s = _three_torus_case()
        for lattice in (4, [3, 4, 5]):
            got = ros_refinement(torus, s, 2, lattice=lattice)
            assert tuple(r.hex() for r in got) == self._separate(torus, s, 2, lattice)

    def test_step_above_a_quarter_spacing_evaluates_the_coarse_lattice(self, monkeypatch):
        # at lattice 8 a quarter spacing is 0.196 and at 16 it is 0.098: h = 0.15 takes both
        # steps apart, so the even-index sub-lattice does not hold the coarse values
        gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                     params={"variant": "generic", "freq": 3, "h": 0.15}))
        steps = []
        original = ChartStructure.with_step
        monkeypatch.setattr(ChartStructure, "with_step",
                            lambda cs, h: steps.append(h) or original(cs, h))
        got = ros_refinement(gen, gen.a_field, 3, lattice=8)
        assert sorted(set(steps)) == [2 * np.pi / 16 / 4, 0.15]
        assert tuple(r.hex() for r in got) == self._separate(gen, gen.a_field, 3, 8)

    def test_refinement_evaluates_the_fine_lattice_only(self, monkeypatch):
        # the suite's pair at lattice 64: 16 blocks of the 128 lattice, no 64 lattice block
        points = []
        original = spheres.codifferential_at
        monkeypatch.setattr(spheres, "codifferential_at",
                            lambda cs, field, x: points.append(x) or original(cs, field, x))
        gen = _hf_chart()
        coarse, fine = ros_refinement(gen, gen.a_field, 3, quad=product_gauss(2), lattice=64)
        assert [len(block) for block in points] == [1024] * 16
        assert np.array_equal(np.concatenate(points), gen.lattice(128))
        assert fine <= coarse / 4.0
        # the 64 lattice values are 4 times the even-index 128 lattice values, exactly
        assert coarse.hex() == ros_residual(gen, gen.a_field, 3, product_gauss(2), 64).hex()


class TestBundleFunctional:
    def test_parallel_structure_both_terms_zero(self):
        g1 = generate(GeneratorSpec("G1-constant-A", seed=0))
        tg, tc, total = unit_bundle_functional(g1, lattice=16)
        assert abs(tg) < 1e-12
        assert abs(tc) < 1e-12
        assert abs(total) < 1e-12

    def test_conformal_family_cancellation(self):
        conf = _conformal_chart()
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
    # 3 Ros integrals, the refinement pair (two Ros integrals) and 3 bundle functionals
    quads = []
    monkeypatch.setattr(spheres, "ros_residual",
                        lambda cs, s_field, k, quad=None, lattice=32: quads.append(quad) or 0.0)
    monkeypatch.setattr(spheres, "ros_refinement",
                        lambda cs, s_field, k, quad=None, lattice=32:
                        quads.append(quad) or (0.0, 0.0))
    monkeypatch.setattr(spheres, "unit_bundle_functional",
                        lambda cs, quad=None, lattice=32: quads.append(quad) or (0.0, 0.0, 0.0))
    run_suite("integral", SuiteConfig(fiber_order=4))
    assert len(quads) == 7
    assert all(q is not None and q.node_count == 8 for q in quads)


def test_integral_suite_evaluates_each_fiber_identity_once(monkeypatch):
    # 2 dimensions x 3 degrees x (3 symmetric tensors + 1 unsymmetrized one), each call
    # giving every slot's residual: 2 x (2 + 3 + 4 slots) x 4 = 72 residuals
    slots = []
    original = spheres.fiber_identity_residuals

    def spy(*args):
        out = original(*args)
        slots.append(len(out))
        return out

    monkeypatch.setattr(spheres, "fiber_identity_residuals", spy)
    run_suite("integral", SuiteConfig())
    assert len(slots) == 24
    assert sum(slots) == 72


def _probe(lattice_points):
    """The maximum probe of u = ||A||^2 on a conformal torus: the argmax and the Laplacian."""
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                  params={"variant": "conformal", "amp": 0.35}))
    return discrete_max_probe(conf, squared_norm_field(conf, conf.a_field),
                              lattice_points=lattice_points)


def _spot_check(n):
    """The spot check of a generated chart of dimension n, which accepts it."""
    generate(GeneratorSpec("G1-constant-A", n=n))
    return "accepted"


# a field planted bad at one point: its metric and cubic values there
_PLANTED = {
    "non-finite": lambda n: (np.full((n, n), np.nan), np.zeros((n,) * 3)),
    "indefinite": lambda n: (np.diag([1.0] * (n - 1) + [-1.0]), np.zeros((n,) * 3)),
    # e1 (x) e1 (x) e2: not symmetric
    "asymmetric": lambda n: (np.eye(n), np.multiply.outer(np.outer(*np.eye(n)[[0, 0]]),
                                                          np.eye(n)[1])),
}


def _planted_spot_check(n, kind, row):
    """The spot check's message for fields that are bad only at row row of the 5^n lattice of
    the periodic box [0, 1)^n, or at its midpoint (row None), which that lattice leaves out."""
    domain, periodic = [[0.0, 1.0]] * n, [True] * n
    g_good, a_good = np.eye(n), np.zeros((n,) * 3)
    point = (np.full(n, 0.5) if row is None else
             ChartStructure(n, domain, constant_field(g_good), constant_field(a_good),
                            periodic=periodic).lattice(5)[row])
    g_bad, a_bad = _PLANTED[kind](n)

    def planted(good, bad):
        def field(x):
            hit = np.all(x == point, axis=-1).reshape(x.shape[:-1] + (1,) * good.ndim)
            return np.where(hit, bad, good)

        return field

    with pytest.raises(ConstructionError) as raised:
        ChartStructure(n, domain, planted(g_good, g_bad), planted(a_good, a_bad),
                       periodic=periodic)
    message = str(raised.value)
    assert f"x={point.tolist()}" in message, message
    return message


class TestLatticeBlocks:
    """Every reader of a chart's lattice walks it by ChartStructure.lattice_blocks: the Ros
    integral and its refinement pair, the bundle functional, the maximum probe and the spot
    check.  The block size changes no bit, and no point a spot check rejects."""

    CASES = {
        "ros-generic": lambda: ros_residual(*_generic_case(), k=3, lattice=32),
        "ros-three-torus": lambda: ros_residual(*_three_torus_case(), k=2, lattice=12),
        "ros-refinement-generic": lambda: ros_refinement(*_generic_case(), k=3, lattice=32),
        "bundle-conformal": lambda: unit_bundle_functional(_conformal_chart(), lattice=64),
        **{f"probe-{m}": functools.partial(_probe, m) for m in (16, 48, 64)},
        **{f"spot-check-n{n}": functools.partial(_spot_check, n) for n in (3, 5)},
        # rows 100 of 125 and 2000 of 3125 lie in a middle block at size 7, and at n = 5 in
        # the second block at 1024; the midpoint joins the last block
        **{f"spot-check-n{n}-{kind}-{where}": functools.partial(_planted_spot_check, n, kind, row)
           for n, rows in ((3, (100, None)), (5, (2000, None))) for row in rows
           for where in ["midpoint" if row is None else f"row{row}"] for kind in _PLANTED},
    }

    @staticmethod
    def _bits(value):
        """A message as itself; a number, an array or a tuple of them by its bytes."""
        if isinstance(value, str):
            return value
        if isinstance(value, tuple):
            return tuple(np.asarray(part, dtype=float).tobytes() for part in value)
        return np.float64(value).tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_size_changes_no_bit(self, monkeypatch, case):
        # 7 leaves a ragged last block; 10**6 puts each lattice in one block
        values = {}
        for block in (7, 1024, 10**6):
            monkeypatch.setattr(charts, "LATTICE_BLOCK", block)
            values[block] = self._bits(self.CASES[case]())
        assert values[7] == values[1024] == values[10**6]

    @staticmethod
    def _spy_walks(monkeypatch):
        """Each lattice walk as (chart, its memo before the walk, the size of its memo as each
        block's body starts)."""
        walks = []
        original = ChartStructure.lattice_blocks

        def spy(cs, counts):
            sizes = []
            walks.append((cs, cs._cache, sizes))
            for block in original(cs, counts):
                sizes.append(len(cs._cache))
                yield block

        monkeypatch.setattr(ChartStructure, "lattice_blocks", spy)
        return walks

    def test_each_block_starts_an_empty_memo(self, monkeypatch):
        monkeypatch.setattr(charts, "LATTICE_BLOCK", 100)
        gen, conf = _generic_chart(), _conformal_chart()
        held = gen._cache
        walks = self._spy_walks(monkeypatch)
        ros_residual(gen, gen.a_field, k=3, lattice=32)
        # one walk, on one copy of the chart at the capped step, in 11 blocks
        ((work, before, sizes),) = walks
        assert work is not gen and work.h == min(gen.h, 2 * np.pi / 32 / 4.0)
        assert sizes == [0] * 11
        assert work._cache is before and gen._cache is held
        walks.clear()
        unit_bundle_functional(conf, lattice=16)
        ((work, before, sizes),) = walks
        assert work is not conf and work.h == conf.h
        assert sizes == [0] * 3
        assert work._cache is before

    def test_a_raise_in_a_block_restores_the_walked_memo(self, monkeypatch):
        monkeypatch.setattr(charts, "LATTICE_BLOCK", 100)
        gen = _generic_chart()
        held = gen._cache
        walks = self._spy_walks(monkeypatch)

        def fails(work, field, block):
            if len(walks[0][2]) == 3:
                raise RuntimeError("planted")
            return codifferential_at(work, field, block)

        monkeypatch.setattr(spheres, "codifferential_at", fails)
        with pytest.raises(RuntimeError, match="planted"):
            ros_residual(gen, gen.a_field, k=3, lattice=32)
        ((work, before, sizes),) = walks
        assert sizes == [0] * 3
        assert work._cache is before and gen._cache is held

    def test_spheres_builds_charts_only_through_with_step(self):
        source = Path(spheres.__file__).read_text(encoding="utf-8")
        assert "ChartStructure(" not in source


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLatticeMemory:
    """Peak memory of the bundle integrals does not grow with the lattice."""

    def test_ros_peak_does_not_grow_with_the_lattice(self):
        gen = _generic_chart()
        quad = product_gauss(2)
        ros_residual(gen, gen.a_field, k=3, quad=quad, lattice=8)  # fills the node-power cache
        small = _traced_peak(lambda: ros_residual(gen, gen.a_field, k=3, quad=quad, lattice=32))
        large = _traced_peak(lambda: ros_residual(gen, gen.a_field, k=3, quad=quad, lattice=128))
        assert large <= 1.5 * small, (small, large)

    def test_bundle_peak_does_not_grow_with_the_lattice(self):
        quad = product_gauss(2)
        unit_bundle_functional(_conformal_chart(), quad, lattice=8)
        peaks = {}
        for lattice in (32, 128):
            conf = _conformal_chart()
            peaks[lattice] = _traced_peak(lambda: unit_bundle_functional(conf, quad, lattice=lattice))
        assert peaks[128] <= 1.5 * peaks[32], peaks

    def test_bundle_leaves_little_in_the_callers_chart(self):
        quad = product_gauss(2)
        conf = _conformal_chart()
        unit_bundle_functional(_conformal_chart(), quad, lattice=8)
        tracemalloc.start()
        try:
            unit_bundle_functional(conf, quad, lattice=64)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1e6

    def test_integral_suite_peak(self):
        # the traced pass is warm: it builds no quadrature rule and draws no normals
        run_suite("integral", SuiteConfig())
        reports = []
        peak = _traced_peak(lambda: reports.append(run_suite("integral", SuiteConfig())))
        assert peak < 12e6
        assert reports[0].timing["quadrature-rule-builds"] == 0
