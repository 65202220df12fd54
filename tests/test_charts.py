import numpy as np
import pytest

from codazzi import ConstructionError, PreconditionError
from codazzi.charts import (
    ChartStructure,
    christoffel,
    christoffel_array,
    conjugate_symmetry_defect,
    constant_field,
    curvature_hat,
    curvature_hat_arrays,
    duality_involution_defect,
    hessian_from_potential,
    laplacian_tensor_at,
    metricity_residual,
    nabla_at,
    codifferential_at,
    exterior_derivative_1form_at,
    ric_hat,
    ricci_decomposition_residuals,
    rho_hat,
    scalar_laplacian_at,
    sectional_hat,
    sectional_nabla,
    squared_norm_field,
    statistical_connections,
)
from codazzi.generators import GeneratorSpec, generate, sample_points
from codazzi.points import sectional_k
from codazzi.spheres import ros_residual, unit_bundle_functional


def flat_chart(h=1e-3, periodic=False):
    return ChartStructure(
        2, [[-1.0, 1.0], [-1.0, 1.0]] if not periodic else [[0, 2 * np.pi]] * 2,
        constant_field(np.eye(2)), constant_field(np.zeros((2, 2, 2))), h=h,
        periodic=[periodic] * 2,
    )


def poincare_chart(h=1e-3):
    return ChartStructure(
        2, [[-0.5, 0.5], [0.5, 1.5]], lambda x: np.eye(2) / x[..., 1, None, None] ** 2,
        constant_field(np.zeros((2, 2, 2))), h=h,
    )


def sphere_chart(h=1e-3, n=2):
    return ChartStructure(
        n, [[-0.5, 0.5]] * n,
        lambda x: 4.0 * np.eye(n) / (1 + np.sum(x * x, axis=-1))[..., None, None] ** 2,
        constant_field(np.zeros((n, n, n))), h=h,
    )


class TestChartStructure:
    def test_spot_check_rejects_indefinite_metric(self):
        def indefinite(x):
            g = np.zeros(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = x[..., 0]
            return g

        with pytest.raises(ConstructionError, match="metric field fails"):
            ChartStructure(
                2, [[-1, 1], [-1, 1]], indefinite, constant_field(np.zeros((2, 2, 2))),
            )

    def test_spot_check_rejects_asymmetric_cubic(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        with pytest.raises(ConstructionError, match="not symmetric"):
            ChartStructure(2, [[-1, 1], [-1, 1]], constant_field(np.eye(2)), constant_field(arr))

    def test_spot_check_rejects_single_point_field(self):
        with pytest.raises(ConstructionError, match="metric field maps 25 points to shape"):
            ChartStructure(2, [[-1, 1], [-1, 1]], lambda x: np.eye(2),
                           constant_field(np.zeros((2, 2, 2))))

    def test_boundary_margin(self):
        cs = flat_chart()
        with pytest.raises(PreconditionError, match="boundary"):
            christoffel(cs, [1.0, 0.0])
        with pytest.raises(PreconditionError, match="boundary"):
            christoffel(cs, [0.0, -0.9999])
        christoffel(cs, [0.0, 0.0])

    def test_periodic_axes_skip_margin(self):
        cs = flat_chart(periodic=True)
        christoffel(cs, [0.0, 0.0])


class TestChristoffel:
    def test_flat_is_zero(self):
        gamma = christoffel(flat_chart(), [0.2, 0.3]).gamma
        assert np.max(np.abs(gamma)) < 1e-14

    def test_diagonal_metric_hand_value(self):
        cs = ChartStructure(
            2, [[-2, 2], [-2, 2]],
            lambda x: np.eye(2) * (x**2 + 1.0)[..., None, :],
            constant_field(np.zeros((2, 2, 2))),
        )
        gamma = christoffel(cs, [1.0, 0.0]).gamma
        assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-8)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = False
        assert np.max(np.abs(gamma[mask])) < 1e-8

    def test_poincare_hand_values(self):
        gamma = christoffel(poincare_chart(), [0.0, 1.0]).gamma
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-5)
        assert gamma[1, 0, 0] == pytest.approx(1.0, abs=1e-5)
        assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-5)
        # second-order in h: the finer chart meets the sharper tolerance
        gamma = christoffel(poincare_chart(h=2e-4), [0.0, 1.0]).gamma
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-7)

    def test_torsion_free_and_metricity(self):
        cs = poincare_chart()
        conn = christoffel(cs, [0.1, 0.9])
        assert conn.torsion_defect() == 0.0
        assert metricity_residual(cs, [0.1, 0.9]) < 50 * cs.h**2


class TestCurvature:
    def test_flat_curvature_vanishes(self):
        cs = flat_chart()
        assert np.max(np.abs(curvature_hat(cs, [0.1, 0.2]).array)) < 1e-12

    def test_poincare_sectional(self):
        cs = poincare_chart(h=2.5e-4)
        for x in ([0.0, 1.0], [0.2, 0.8], [-0.3, 1.2]):
            assert sectional_hat(cs, x, ([1, 0], [0, 1])) == pytest.approx(-1.0, abs=1e-6)

    def test_sphere_scalar_curvature(self):
        for n in (2, 3):
            cs = sphere_chart(h=5e-4, n=n)
            assert rho_hat(cs, [0.1] * n) == pytest.approx(n * (n - 1), abs=1e-5)

    def test_curvature_invariants(self):
        cs = sphere_chart()
        r = curvature_hat(cs, [0.15, -0.1])
        scale = 1.0 + float(np.max(np.abs(r.array)))
        assert r.antisymmetry_defect() < 1e-10 * scale
        assert r.first_bianchi_defect() < 1e-8 * scale
        assert r.last_pair_antisymmetry_defect() < 1e-8 * scale

    def test_ricci_symmetric(self):
        ric = ric_hat(poincare_chart(), [0.1, 1.1])
        assert np.allclose(ric, ric.T)


class TestDerivativeEngine:
    def test_constant_field_zero_derivative(self):
        cs = flat_chart()
        field = constant_field([1.0, 2.0])
        assert np.max(np.abs(nabla_at(cs, field, [0.1, 0.1]))) < 1e-12

    def test_flat_partials(self):
        cs = flat_chart()
        field = lambda x: np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        out = nabla_at(cs, field, [0.3, 0.5])
        expected = np.array([[0.6, 0.5], [0.0, 0.3]])
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_flat_scalar_laplacian(self):
        cs = flat_chart()
        assert scalar_laplacian_at(cs, lambda x: x[..., 0] ** 2 + x[..., 1] ** 2, [0.2, -0.4]) == (
            pytest.approx(4.0, abs=1e-6)
        )

    def test_torus_oneform_codifferential_and_curl(self):
        cs = flat_chart(periodic=True)
        tau = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)
        x = np.array([1.0, 2.0])
        assert abs(codifferential_at(cs, tau, x)) < 1e-10
        d = exterior_derivative_1form_at(cs, tau, x)
        assert d[0, 1] == pytest.approx(-2.0, abs=1e-9)
        assert d[1, 0] == pytest.approx(2.0, abs=1e-9)

    def test_divergence_matches_trace_identity(self):
        # div of the lowered difference tensor equals the (0,3)-slot trace of
        # its derivative; cross-check against the hessian generator's field
        from codazzi.charts import divergence_at, nabla_cubic_at, _trace_pair

        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        x = np.array([0.15, -0.22])
        via_op = divergence_at(cs, cs.a_field, x)
        via_trace = _trace_pair(cs.metric_inverse_at(x), nabla_cubic_at(cs, x), 0, 3)
        assert np.max(np.abs(via_op - via_trace)) < 1e-12
        assert np.allclose(via_op, via_op.T, atol=1e-6)

    def test_metric_is_parallel(self):
        cs = sphere_chart()
        out = nabla_at(cs, cs.g_field, [0.1, 0.2])
        assert np.max(np.abs(out)) < 100 * cs.h**2

    def test_tensor_laplacian_matches_scalar_on_functions(self):
        cs = sphere_chart()
        x = np.array([0.12, -0.2])
        f_tensor = lambda y: np.sin(y[..., 0]) * np.cos(y[..., 1])
        direct = scalar_laplacian_at(cs, lambda y: np.sin(y[..., 0]) * np.cos(y[..., 1]), x)
        composed = laplacian_tensor_at(cs, f_tensor, x)
        assert composed == pytest.approx(direct, rel=1e-4, abs=1e-6)


class TestStatisticalConnections:
    def test_zero_cubic_collapses_to_levi_civita(self):
        cs = poincare_chart()
        conn = statistical_connections(cs, [0.1, 1.0])
        assert np.max(np.abs(conn.r_nabla - conn.r_hat)) < 1e-10
        assert np.max(np.abs(conn.r_bar - conn.r_hat)) < 1e-10

    def test_hessian_generator_flat(self):
        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        x = [0.1, -0.2]
        conn = statistical_connections(cs, x)
        assert np.max(np.abs(conn.r_nabla)) < 1e-6
        assert conjugate_symmetry_defect(cs, x) < 1e-6

    def test_hessian_hand_values(self):
        cs = hessian_from_potential(
            "(x1**4 + x2**4)/12 + 0.5*(x1**2 + x2**2)", [[-1.5, 1.5]] * 2
        )
        x = np.array([1.0, 0.0])
        assert np.allclose(cs.metric_at(x), np.diag([2.0, 1.0]))
        a = cs.cubic_at(x)
        assert a[0, 0, 0] == pytest.approx(-1.0)
        assert np.max(np.abs(a)) == pytest.approx(1.0)

    def test_nonconvex_potential_rejected(self):
        with pytest.raises(ConstructionError, match="convex"):
            hessian_from_potential("x1**3", [[-1.0, 1.0]])

    def test_constant_fields_constant_curvature(self):
        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        conn = statistical_connections(cs, [1.0, 1.0])
        from codazzi import MetricPoint, r0_curvature

        r0 = r0_curvature(MetricPoint(np.eye(2))).array
        assert np.max(np.abs(conn.r_nabla + 2.0 * r0)) < 1e-10

    def test_residual_map_on_generators(self):
        for family, params in (
            ("G2-hessian-potential", {}),
            ("G4-random-smooth", {}),
            ("G5-periodic-trig", {"variant": "conformal"}),
        ):
            cs = generate(GeneratorSpec(family, seed=1, params=params))
            x = sample_points(cs, 1, seed=2)[0]
            conn = statistical_connections(cs, x)
            scale = conn.residuals.pop("scale")
            for key, value in conn.residuals.items():
                assert value < 1e-3 * scale, (family, key, value)

    def test_duality_involution_exact(self):
        for family in ("G2-hessian-potential", "G4-random-smooth"):
            cs = generate(GeneratorSpec(family, seed=0))
            x = sample_points(cs, 1, seed=1)[0]
            assert duality_involution_defect(cs, x) < 1e-12

    def test_conjugate_symmetry_criteria_equivalence(self):
        # symmetric case: all three defects small; generic case: all large
        conf = generate(GeneratorSpec("G5-periodic-trig", params={"variant": "conformal"}))
        rnd = generate(GeneratorSpec("G4-random-smooth", seed=0))
        for cs, expect_small in ((conf, True), (rnd, False)):
            x = sample_points(cs, 1, seed=5)[0]
            conn = statistical_connections(cs, x)
            d1 = float(np.max(np.abs(conn.r_nabla - conn.r_bar)))
            d2 = conjugate_symmetry_defect(cs, x)
            d3 = float(np.max(np.abs(conn.r_nabla + np.swapaxes(conn.r_nabla, 2, 3))))
            if expect_small:
                assert max(d1, d3) < 1e-6 and d2 < 1e-6
            else:
                assert min(d1, d3) > 1e-3 and d2 > 1e-3


class TestRicciDecomposition:
    def test_trivial_structure(self):
        out = ricci_decomposition_residuals(poincare_chart(), [0.1, 1.0])
        for key, value in out.items():
            if key != "ricci-comparison-min-eig":
                assert value < 1e-6, (key, value)

    def test_hessian_recovers_ricci_display(self):
        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        out = ricci_decomposition_residuals(cs, [0.15, -0.1])
        assert out["hessian-ricci"] < 1e-5
        assert out["ricci-decomposition"] < 1e-5

    def test_random_fields_sweep(self):
        for n in (2, 3):
            for seed in range(10):
                cs = generate(GeneratorSpec("G4-random-smooth", n=n, seed=seed))
                for x in sample_points(cs, 2, seed=seed):
                    out = ricci_decomposition_residuals(cs, x)
                    for key in ("ricci-decomposition", "ricci-conjugate-sum", "scalar-gap",
                                "koszul-form", "koszul-trace"):
                        assert out[key] < 1e-5, (n, seed, key, out[key])

    def test_trace_free_comparison(self):
        cs = generate(GeneratorSpec("G5-periodic-trig", params={"variant": "conformal"}))
        out = ricci_decomposition_residuals(cs, [1.2, 0.7])
        assert out["ricci-comparison-min-eig"] > -1e-6


class TestStructuralConvergence:
    def test_residuals_shrink_by_four_under_halving(self):
        # the structural identities converge at second order; check the
        # dominant residuals on a generically curved statistical field
        series = {"duality": [], "curvature-two-routes": [], "ricci-decomposition": []}
        for h in (4e-3, 2e-3, 1e-3):
            cs = generate(GeneratorSpec("G4-random-smooth", seed=5, params={"h": h}))
            x = np.array([1.3, 2.1])
            conn = statistical_connections(cs, x)
            series["duality"].append(conn.residuals["duality"])
            series["curvature-two-routes"].append(conn.residuals["curvature-two-routes"])
            series["ricci-decomposition"].append(
                ricci_decomposition_residuals(cs, x)["ricci-decomposition"])
        for name, values in series.items():
            for i in range(2):
                ratio = values[i] / values[i + 1]
                assert 3.2 <= ratio <= 4.8, (name, values)

    def test_exact_discrete_identities(self):
        # two combinations cancel algebraically at the discrete level: the
        # curvature sum against 2 R_hat + 2 [K,K], and metric parallelism
        cs = generate(GeneratorSpec("G4-random-smooth", seed=5, params={"h": 1e-3}))
        x = np.array([1.3, 2.1])
        assert statistical_connections(cs, x).residuals["curvature-sum"] < 1e-12
        assert metricity_residual(cs, x) < 1e-14


class TestSectionalNabla:
    def test_trivial_equals_hat(self):
        cs = poincare_chart()
        x = [0.1, 1.0]
        assert sectional_nabla(cs, x, ([1, 0], [0, 1])) == pytest.approx(
            sectional_hat(cs, x, ([1, 0], [0, 1])), abs=1e-10
        )

    def test_constant_family_value(self):
        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        assert sectional_nabla(cs, [1.0, 1.0], ([1, 0], [0, 1])) == pytest.approx(-2.0, abs=1e-10)

    def test_sum_rule_on_hessian(self):
        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        for x in ([0.1, 0.2], [0.25, -0.3]):
            total = sectional_nabla(cs, x, ([1, 0], [0, 1]))
            k_hat = sectional_hat(cs, x, ([1, 0], [0, 1]))
            k_comm = sectional_k(cs.point(np.asarray(x)), [1, 0], [0, 1])
            assert total == pytest.approx(k_hat + k_comm, abs=1e-5)

    def test_degenerate_plane_rejected(self):
        with pytest.raises(PreconditionError):
            sectional_nabla(poincare_chart(), [0.0, 1.0], ([1, 0], [2, 0]))


class TestBatchedCore:
    """One call on an (N, n) batch is the same computation as N single-point calls."""

    @pytest.mark.parametrize("family, n", [
        ("G2-hessian-potential", 3),
        ("G4-random-smooth", 2),
        ("G4-random-smooth", 3),
        ("G5-periodic-trig", 2),
    ])
    def test_batch_equals_single_points(self, family, n):
        cs = generate(GeneratorSpec(family, n=n, seed=1))
        xs = sample_points(cs, 6, seed=3)
        u = squared_norm_field(cs, cs.a_field)
        kernels = {
            "christoffel": lambda x: christoffel_array(cs, x),
            "nabla": lambda x: nabla_at(cs, cs.a_field, x),
            "curvature-up": lambda x: curvature_hat_arrays(cs, x)[0],
            "curvature-low": lambda x: curvature_hat_arrays(cs, x)[1],
            "scalar-laplacian": lambda x: scalar_laplacian_at(cs, u, x),
        }
        for name, kernel in kernels.items():
            batch = kernel(xs)
            single = np.stack([kernel(x) for x in xs])
            assert batch.shape == single.shape, name
            assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single)), name

    # Values recorded with the per-point implementation (lattice sums in a
    # Python loop over points, scalar math closures).  They are far from zero,
    # so 1e-12 relative pins the rewritten lattice sums; a residual that
    # cancels to rounding level would only be pinned to its term scale.
    def _conformal_chart(self):
        a = np.zeros((2, 2, 2))
        for (i, j, k), v in {(0, 0, 0): 0.8, (0, 1, 1): -0.8, (0, 0, 1): -0.5,
                             (1, 1, 1): 0.5}.items():
            for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                a[p] = v
        return ChartStructure(
            2, [[0.0, 2 * np.pi]] * 2,
            lambda x: (1 + 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]))[..., None, None]
            * np.eye(2),
            constant_field(a), h=5e-4, periodic=[True, True],
        )

    def test_ros_lattice_sum_matches_recorded(self):
        aliased = ros_residual(self._conformal_chart(), lambda y: np.sin(8 * y), k=1, lattice=8)
        assert aliased == pytest.approx(3968.7928316109073, rel=1e-12)
        gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                     params={"variant": "generic", "freq": 8}))
        cubic = ros_residual(gen, gen.a_field, k=3, lattice=8)
        assert cubic == pytest.approx(562.9589226537645, rel=1e-12)

    def test_bundle_lattice_sum_matches_recorded(self):
        tg, tc, total = unit_bundle_functional(self._conformal_chart(), lattice=8)
        assert tg == pytest.approx(29.134033731811556, rel=1e-12)
        assert tc == pytest.approx(-29.197517477655243, rel=1e-12)
        assert total == pytest.approx(-0.06348374584368699, rel=1e-12)
