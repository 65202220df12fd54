import numpy as np
import pytest

from codazzi import ConstructionError, NotPositiveDefiniteError, PreconditionError, charts, points
from codazzi.charts import (
    ChartStructure,
    christoffel,
    christoffel_array,
    conjugate_symmetry_defect,
    constant_field,
    curvature_hat_arrays,
    curvature_hat_invariants,
    duality_involution_defect,
    hessian_from_potential,
    laplacian_tensor_at,
    metricity_residual,
    nabla_at,
    codifferential_at,
    exterior_derivative_1form_at,
    ric_hat,
    residuals_at,
    ricci_decomposition_residuals,
    rho_hat,
    scalar_laplacian_at,
    sectional_bracket,
    sectional_hat,
    sectional_nabla,
    squared_norm_field,
    statistical_connections,
)
from codazzi.expressions import field_eval_counts
from codazzi.generators import GeneratorSpec, generate, sample_points
from codazzi.points import sectional_k
from codazzi.bounds import simons_sandwich_check
from codazzi.tensors import (batch_last, commutator_curvature, contract, core_first,
                             first_bianchi_defect, last_pair_antisymmetry_defect,
                             metric_factors, r0_curvature, symmetrize, trace_pair)
from codazzi.spheres import ros_residual, unit_bundle_functional
from codazzi.suites import run_suite


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

    def test_spot_check_rejects_asymmetric_metric(self):
        # metric_factors factors 0.5 (g + g^T) while the kernels read g, so g must be symmetric
        asymmetric = constant_field([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ConstructionError,
                           match=r"metric field is not symmetric at x=\[-1\.0, -1\.0\]"):
            ChartStructure(2, [[-1, 1], [-1, 1]], asymmetric, constant_field(np.zeros((2, 2, 2))))
        # the bar is CUBIC_SYMMETRY_TOL relative to max |g|
        for defect, ok in ((2e-9, False), (5e-10, True)):
            g = constant_field([[2.0, 0.5 + 2.0 * defect], [0.5, 1.0]])
            build = lambda: ChartStructure(2, [[-1, 1], [-1, 1]], g,
                                           constant_field(np.zeros((2, 2, 2))))
            if ok:
                build()
            else:
                with pytest.raises(ConstructionError, match="metric field is not symmetric"):
                    build()

    def test_spot_check_rejects_single_point_field(self):
        # the spot check reads the 5 x 5 lattice and the midpoint
        with pytest.raises(ConstructionError, match="metric field maps 26 points to shape"):
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

    @pytest.mark.parametrize("family", ["G2-hessian-potential", "G4-random-smooth"])
    def test_point_and_chart_share_one_inverse_and_frame(self, family):
        cs = generate(GeneratorSpec(family, n=3, seed=0))
        xs = sample_points(cs, 6, seed=0)
        frames, vols = cs.metric_frame_at(xs)
        for i, x in enumerate(xs):
            # the factors of the metric at one point, as the pointwise checks take them
            ginv, frame, vol = metric_factors(cs.metric_at(x))
            assert np.array_equal(ginv, cs.metric_inverse_at(x))
            assert np.array_equal(ginv, cs.metric_inverse_at(xs)[i])
            assert np.array_equal(frame, frames[i])
            assert vol == vols[i]

    def test_inverse_at_an_indefinite_point_raises(self):
        def g(x):
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = x[..., 0]
            return out

        cs = ChartStructure(2, [[0.5, 1.5], [-1, 1]], g, constant_field(np.zeros((2, 2, 2))))
        with pytest.raises(NotPositiveDefiniteError, match=r"x=\[-0.5, 0.25\]"):
            cs.metric_inverse_at([-0.5, 0.25])
        with pytest.raises(NotPositiveDefiniteError, match=r"x=\[0.0, 0.0\]"):
            cs.metric_frame_at([[1.0, 0.0], [0.0, 0.0]])

    def test_with_step_shares_the_fields_and_starts_an_empty_memo(self):
        calls = []

        def g(x):
            calls.append(np.shape(x))
            return np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))

        cs = ChartStructure(2, [[0, 1], [0, 2]], g, constant_field(np.zeros((2, 2, 2))),
                            periodic=[True, False], aux_fields={"one": charts.AuxField(
                                1, constant_field(np.ones(2)))})
        x = np.array([[0.5, 1.0]])
        cs.metric_at(x)
        calls.clear()
        work = cs.with_step(2.5e-4)
        assert work.h == 2.5e-4 and cs.h == 1e-3
        for name in ("n", "domain", "g_field", "a_field", "periodic", "g_source", "a_source",
                     "aux_fields"):
            assert getattr(work, name) is getattr(cs, name), name
        assert calls == []
        work.metric_at(x)
        assert calls == [(1, 2)]
        cs.metric_at(x)
        assert calls == [(1, 2)]

    def test_with_step_runs_no_spot_check(self, monkeypatch):
        cs = flat_chart()
        factored = []
        monkeypatch.setattr(charts, "metric_factors", lambda *args: factored.append(args))
        cs.with_step(1e-4)
        assert factored == []

    @pytest.mark.parametrize("counts", [[4, 4], [4, 4, 4, 4], [4, 0, 4], 0])
    def test_lattice_takes_one_count_of_at_least_one_per_axis(self, counts):
        cs = sphere_chart(n=3)
        assert cs.lattice([2, 3, 4]).shape == (24, 3)
        with pytest.raises(ConstructionError, match="lattice counts"):
            cs.lattice(counts)

    @pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
    def test_with_step_rejects_a_bad_step(self, h):
        with pytest.raises(ConstructionError, match="finite and positive"):
            flat_chart().with_step(h)


class TestChristoffel:
    def test_flat_is_zero(self):
        gamma = christoffel(flat_chart(), [0.2, 0.3])
        assert np.max(np.abs(gamma)) < 1e-14

    def test_diagonal_metric_hand_value(self):
        cs = ChartStructure(
            2, [[-2, 2], [-2, 2]],
            lambda x: np.eye(2) * (x**2 + 1.0)[..., None, :],
            constant_field(np.zeros((2, 2, 2))),
        )
        gamma = christoffel(cs, [1.0, 0.0])
        assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-8)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = False
        assert np.max(np.abs(gamma[mask])) < 1e-8

    def test_poincare_hand_values(self):
        gamma = christoffel(poincare_chart(), [0.0, 1.0])
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-5)
        assert gamma[1, 0, 0] == pytest.approx(1.0, abs=1e-5)
        assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-5)
        # second-order in h: the finer chart meets the sharper tolerance
        gamma = christoffel(poincare_chart(h=2e-4), [0.0, 1.0])
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-7)

    def test_torsion_free_and_metricity(self):
        cs = poincare_chart()
        gamma = christoffel(cs, [0.1, 0.9])
        assert float(np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2)))) == 0.0
        assert metricity_residual(cs, [0.1, 0.9]) < 50 * cs.h**2

    @pytest.mark.parametrize("n", [2, 3])
    def test_metric_points_are_evaluated_once_per_stencil_row(self, n):
        # the stencil's centre row gives g at x, so g^-1 needs no field call of its own
        counted = []

        def g(x):
            counted.append(int(np.prod(np.shape(x)[:-1])))
            return (1.0 + 0.1 * np.sin(x[..., :1, None])) * np.eye(n)

        cs = ChartStructure(n, [[-1, 1]] * n, g, constant_field(np.zeros((n, n, n))))
        x = np.random.default_rng(n).uniform(-0.5, 0.5, (5, n))
        counted.clear()
        christoffel_array(cs, x)
        assert sum(counted) == (2 * n + 1) * len(x)
        assert np.array_equal(cs.metric_at(x), g(x))


class TestCurvature:
    def test_flat_curvature_vanishes(self):
        cs = flat_chart()
        _, low = curvature_hat_arrays(cs, [0.1, 0.2])
        assert np.max(np.abs(low)) < 1e-12

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
        x = [0.15, -0.1]
        r = curvature_hat_arrays(cs, x)[1]
        scale = 1.0 + float(np.max(np.abs(r)))
        assert np.max(np.abs(r + np.swapaxes(r, 0, 1))) < 1e-10 * scale
        assert first_bianchi_defect(r) < 1e-8 * scale
        assert last_pair_antisymmetry_defect(r) < 1e-8 * scale
        assert curvature_hat_invariants(cs, x) < 2e-8 * scale

    def test_ricci_symmetric(self):
        ric = ric_hat(poincare_chart(), [0.1, 1.1])
        assert np.allclose(ric, ric.T)

    def test_boundary_raises(self):
        # the Poincare box starts at y = 0.5: R_hat there would difference the metric outside it
        cs = poincare_chart()
        face = [0.0, 0.5]
        for read in (lambda: curvature_hat_arrays(cs, face), lambda: ric_hat(cs, face),
                     lambda: rho_hat(cs, face), lambda: sectional_hat(cs, face, ([1, 0], [0, 1])),
                     lambda: curvature_hat_invariants(cs, face)):
            with pytest.raises(PreconditionError, match="boundary"):
                read()


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
        from codazzi.charts import nabla_at, nabla_cubic_at

        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        x = np.array([0.15, -0.22])
        ginv = cs.metric_inverse_at(x)
        # derivative slot traced against the last argument slot
        via_op = np.einsum("ab,aijb->ij", ginv, nabla_at(cs, cs.a_field, x))
        via_trace = trace_pair(ginv, nabla_cubic_at(cs, x), 0, 3)
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

    @pytest.mark.parametrize("potential, domain, h, message", [
        ("exp(800*x1) + x1**2", [[0.0, 1.0]], 1e-3, "metric field is not finite at x=[1.0]"),
        ("x1**2", [[0.0, 1.0]], -1.0, "step h must be finite and positive"),
    ], ids=["overflowing-metric", "negative-step"])
    def test_other_construction_errors_pass_through(self, potential, domain, h, message):
        # only a metric that is not positive definite means the potential is not convex
        with pytest.raises(ConstructionError) as info:
            hessian_from_potential(potential, domain, h=h)
        assert message in str(info.value) and "convex" not in str(info.value)

    def test_constant_fields_constant_curvature(self):
        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        conn = statistical_connections(cs, [1.0, 1.0])
        r0 = r0_curvature(np.eye(2))
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
            scale = conn.scale
            for key, value in residuals_at(conn.residuals, ()).items():
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


    def test_equivalence_check_fails_when_a_defect_is_small(self, monkeypatch):
        original = charts.conjugate_symmetry_criteria
        check_id = "conjugate-symmetry-equivalence-random"
        at_default = {c.id: c for c in run_suite("differential").checks}[check_id]
        assert (at_default.verdict, at_default.tolerance) == ("pass", 0.0)
        assert at_default.residual < 0.0
        monkeypatch.setattr(charts, "conjugate_symmetry_criteria",
                            lambda cs, x: {k: 1e-3 * v for k, v in original(cs, x).items()})
        planted = {c.id: c for c in run_suite("differential").checks}
        assert planted[check_id].verdict == "fail"
        assert planted["conjugate-symmetry-equivalence-conformal"].verdict == "pass"


class TestOneProducer:
    """statistical_connections forms the dual curvatures once per point; the rest read it."""

    def test_three_curvatures_per_point(self, monkeypatch):
        formed = []
        original = charts._curvature_from_gamma

        def spy(*args):
            formed.append(args)
            return original(*args)

        monkeypatch.setattr(charts, "_curvature_from_gamma", spy)
        cs = generate(GeneratorSpec("G4-random-smooth", seed=0))
        x = sample_points(cs, 1, seed=11)[0]
        plane = ([1, 0], [0, 1])
        statistical_connections(cs, x)
        curvature_hat_invariants(cs, x)
        ricci_decomposition_residuals(cs, x)
        sectional_nabla(cs, x, plane)
        sectional_hat(cs, x, plane)
        assert len(formed) == 3  # R_hat, R_nabla and R_bar

    def test_cached_and_read_only(self):
        cs = generate(GeneratorSpec("G4-random-smooth", seed=0))
        x = sample_points(cs, 1, seed=11)[0]
        conn = statistical_connections(cs, x)
        assert statistical_connections(cs, x.tolist()) is conn
        assert "scale" not in conn.residuals
        with pytest.raises(TypeError):
            conn.residuals["duality"] = 0.0
        ginv = cs.metric_inverse_at(x)
        norm = np.sqrt(contract(ginv, conn.r_nabla, conn.r_nabla))
        assert conn.scale == pytest.approx(1.0 + norm, rel=1e-14)
        # the Ricci tensors trace the same curvatures as r_nabla and r_bar
        for ric, low in ((conn.ric, conn.r_nabla), (conn.ric_bar, conn.r_bar)):
            assert np.max(np.abs(ric - np.einsum("il,ijkl->jk", ginv, low))) < 1e-12


class TestGammaFromCurvatureStencil:
    """curvature_hat_arrays leaves Gamma at x in the memo: the centre row of its stencil."""

    @pytest.mark.parametrize("n, batch", [(2, None), (2, 6), (3, 4)])
    def test_christoffel_after_curvature_makes_no_field_call(self, n, batch):
        spec = GeneratorSpec("G4-random-smooth", n=n, seed=2)
        cs = generate(spec)
        x = sample_points(cs, batch or 1, seed=7)
        x = x[0] if batch is None else x
        curvature_hat_arrays(cs, x)
        before = field_eval_counts()
        gamma = christoffel_array(cs, x)
        assert field_eval_counts() == before
        fresh = christoffel_array(generate(spec), x)
        assert gamma.shape == fresh.shape
        assert gamma.tobytes() == fresh.tobytes()

    def test_nabla_cubic_reads_the_memoized_gamma(self):
        spec = GeneratorSpec("G4-random-smooth", seed=2)
        cs = generate(spec)
        x = sample_points(cs, 5, seed=8)
        curvature_hat_arrays(cs, x)
        calls = field_eval_counts()[0]
        got = nabla_at(cs, cs.a_field, x)
        # one call of the cubic field on x's stencil, none of the metric field
        assert field_eval_counts()[0] == calls + 1
        assert got.tobytes() == nabla_at(generate(spec), cs.a_field, x).tobytes()


class TestRicciDecomposition:
    def test_trivial_structure(self):
        out = residuals_at(ricci_decomposition_residuals(poincare_chart(), [0.1, 1.0]), ())
        for key, value in out.items():
            if key != "ricci-comparison-tracefree":
                assert value < 1e-6, (key, value)

    def test_hessian_recovers_ricci_display(self):
        cs = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2
        )
        out = residuals_at(ricci_decomposition_residuals(cs, [0.15, -0.1]), ())
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
        out = residuals_at(ricci_decomposition_residuals(cs, [1.2, 0.7]), ())
        assert out["ricci-comparison-tracefree"] > -1e-6


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
            k_comm = sectional_k(cs.metric_at(x), cs.cubic_at(x), [1, 0], [0, 1])
            assert total == pytest.approx(k_hat + k_comm, abs=1e-5)

    def test_degenerate_plane_rejected(self):
        with pytest.raises(PreconditionError):
            sectional_nabla(poincare_chart(), [0.0, 1.0], ([1, 0], [2, 0]))


class TestBatchedProducers:
    """Each structural producer on a [2, 2, n] batch equals its calls at the single points,
    bit for bit."""

    CASES = [(family, n) for family in ("G2-hessian-potential", "G4-random-smooth")
             for n in (2, 3)]

    @staticmethod
    def _batch(family, n):
        cs = generate(GeneratorSpec(family, n=n, seed=0))
        return cs, sample_points(cs, 4, seed=3).reshape(2, 2, n)

    @staticmethod
    def _scalars(n):
        plane = (np.eye(n)[0], np.eye(n)[1])
        return {
            "metricity": metricity_residual,
            "invariants": curvature_hat_invariants,
            "involution": duality_involution_defect,
            "conjugate-symmetry": conjugate_symmetry_defect,
            "sectional-nabla": lambda cs, x: sectional_nabla(cs, x, plane),
            "sectional-hat": lambda cs, x: sectional_hat(cs, x, plane),
            "sectional-bracket": lambda cs, x: sectional_bracket(cs, x, plane),
            "scale": lambda cs, x: statistical_connections(cs, x).scale,
        }

    @pytest.mark.parametrize("family, n", CASES)
    def test_scalar_producers_match_single_points(self, family, n):
        cs, xs = self._batch(family, n)
        for name, producer in self._scalars(n).items():
            batch = producer(cs, xs)
            assert np.shape(batch) == (2, 2), name
            for index in np.ndindex(2, 2):
                single = producer(cs, xs[index])
                assert np.shape(single) == (), name
                assert float(batch[index]).hex() == float(single).hex(), (name, index)

    @pytest.mark.parametrize("family, n", CASES)
    def test_residual_maps_match_single_points(self, family, n):
        cs, xs = self._batch(family, n)
        for producer in (lambda x: statistical_connections(cs, x).residuals,
                         lambda x: ricci_decomposition_residuals(cs, x)):
            batch = producer(xs)
            for index in np.ndindex(2, 2):
                single = residuals_at(producer(xs[index]), ())
                at = residuals_at(batch, index)
                # the same keys in the same order: the masks agree point by point
                assert list(at) == list(single)
                for key, value in single.items():
                    assert at[key].hex() == value.hex(), (key, index)

    @pytest.mark.parametrize("family, n", CASES)
    def test_connection_arrays_match_single_points(self, family, n):
        cs, xs = self._batch(family, n)
        conn = statistical_connections(cs, xs)
        for index in np.ndindex(2, 2):
            single = statistical_connections(cs, xs[index])
            for name in ("r_hat", "r_nabla", "r_bar", "bracket", "ric", "ric_bar"):
                want = getattr(single, name)
                got = getattr(conn, name)[index]
                assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want))), name

    def test_conjugate_coefficients_match_single_points(self):
        cs, xs = self._batch("G4-random-smooth", 3)
        g, dg = charts._central(cs.metric_at, xs, cs.h)
        ginv = cs.metric_inverse_at(xs)
        gamma = charts._dual_gamma(cs, xs, 1.0)
        batch = charts.conjugate_coefficients(g, ginv, dg, gamma)
        for index in np.ndindex(2, 2):
            single = charts.conjugate_coefficients(g[index], ginv[index], dg[index], gamma[index])
            assert np.max(np.abs(batch[index] - single)) <= 1e-14 * (1.0 + np.max(np.abs(single)))
            # conj[m,a,j] g_im = dg[a,i,j] - gamma[l,a,i] g_lj
            rhs = dg[index] - np.einsum("lai,lj->aij", gamma[index], g[index])
            assert np.allclose(np.einsum("mi,aij->maj", ginv[index], rhs), single,
                               rtol=1e-13, atol=1e-13)

    def test_a_key_is_read_only_where_it_applies(self):
        mask = np.array([[False, True], [True, False]])
        residuals = {"always": np.arange(4.0).reshape(2, 2),
                     "sometimes": charts.Applies(np.ones((2, 2)), mask)}
        assert residuals_at(residuals, (0, 0)) == {"always": 0.0}
        assert residuals_at(residuals, (0, 1)) == {"always": 1.0, "sometimes": 1.0}

    def test_degenerate_plane_in_a_batch_raises(self):
        cs, xs = self._batch("G4-random-smooth", 2)
        with pytest.raises(PreconditionError, match="linearly dependent"):
            sectional_nabla(cs, xs, ([1, 0], [2, 0]))


class TestSimonsProducersReadTheBatch:
    """The cubic Simons and sandwich producers read g, K, tau and [K,K] from the chart."""

    @staticmethod
    def conformal():
        return generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                      params={"variant": "conformal", "amp": 0.35}))

    @staticmethod
    def g3_chart():
        return generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))

    @staticmethod
    def quartic_hessian():
        # g = diag(1 + x1^2, 1) and A = 0 on x1 = 0: trace-free there only; nabla is flat
        return hessian_from_potential("0.5*x1**2 + 0.5*x2**2 + x1**4/12", [[-1.0, 1.0]] * 2)

    @pytest.mark.parametrize("shape", [(6, 2), (2, 3, 2)])
    def test_sandwich_batch_matches_single_points(self, shape):
        cs = self.conformal()
        xs = sample_points(cs, 6, seed=5).reshape(shape)
        lo, hi = simons_sandwich_check(cs, xs)
        assert np.shape(lo) == np.shape(hi) == shape[:-1]
        for index in np.ndindex(shape[:-1]):
            lo1, hi1 = simons_sandwich_check(cs, xs[index])
            assert type(lo1) is float and type(hi1) is float
            assert abs(lo[index] - lo1) <= 1e-14 and abs(hi[index] - hi1) <= 1e-14

    def test_sandwich_names_the_point_that_is_not_trace_free(self):
        cs = self.quartic_hessian()
        xs = np.array([[0.0, 0.3], [0.5, 0.3], [0.0, -0.2]])
        tau = cs.tau_at(xs[1])
        e_norm = np.sqrt(contract(cs.metric_inverse_at(xs[1]), tau, tau))
        with pytest.raises(PreconditionError,
                           match=rf"not trace-free at x \(\|E\| = {e_norm:g}\)"):
            simons_sandwich_check(cs, xs)
        lo, hi = simons_sandwich_check(cs, xs[[0, 2]])
        assert np.shape(lo) == (2,)

    def test_sandwich_tests_points_in_batch_order(self):
        # a wrong H fails the fit at every point; the trace-free test comes first at a point
        cs = self.quartic_hessian()
        trace_free, not_trace_free = [0.0, 0.3], [0.5, 0.3]
        with pytest.raises(PreconditionError, match="curvature is not H R0"):
            simons_sandwich_check(cs, np.array([trace_free, not_trace_free]), h_curv=5.0)
        with pytest.raises(PreconditionError, match="not trace-free"):
            simons_sandwich_check(cs, np.array([not_trace_free, trace_free]), h_curv=5.0)

    def test_producers_factor_no_metric_point(self, monkeypatch):
        # the producers read the chart's factors; the (g, a) functions of points factor g anew
        def refuse(*_):
            raise AssertionError("a pointwise structure was factored")

        cases = [(self.conformal(), np.array([1.1, 2.3])), (self.g3_chart(), np.array([1.0, 1.0]))]
        monkeypatch.setattr(points, "metric_factors", refuse)
        for cs, x in cases:
            assert "laplace-cubic-dualflat" in residuals_at(charts.cubic_simons_residuals(cs, x), ())
            simons_sandwich_check(cs, x)

    def test_cubic_simons_builds_the_bracket_once(self, monkeypatch):
        calls = []

        def counted(k):
            calls.append(k.shape)
            return commutator_curvature(k)

        monkeypatch.setattr(charts, "commutator_curvature", counted)
        monkeypatch.setattr(points, "commutator_curvature", counted)
        charts.cubic_simons_residuals(self.conformal(), np.array([1.1, 2.3]))
        assert calls == [(2, 2, 2)]


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


class TestBatchLastFields:
    """The chart kernels give the same bits whether the fields return C-ordered arrays,
    batch-last arrays or constant_field's broadcast view, on a 2-point batch and on a
    1024-point block."""

    @staticmethod
    def _charts(n):
        rng = np.random.default_rng(60 + n)
        w = rng.uniform(-1.5, 1.5, n)
        s = 0.1 * symmetrize(rng.uniform(-1.0, 1.0, (n, n)))
        a = symmetrize(rng.uniform(-1.0, 1.0, (n,) * 3))

        def g_c(x):
            return np.ascontiguousarray((2.0 + np.sin(x @ w))[..., None, None] * np.eye(n)
                                        + np.cos(x[..., :1, None]) * s)

        def a_c(x):
            return np.ascontiguousarray(np.broadcast_to(a, np.shape(x)[:-1] + a.shape))

        fields = [(g_c, a_c), (lambda x: batch_last(g_c(x), 2), lambda x: batch_last(a_c(x), 3)),
                  (g_c, constant_field(a))]
        return [ChartStructure(n, [[-1.0, 1.0]] * n, g, a_field) for g, a_field in fields]

    @pytest.mark.parametrize("count", [2, 1024])
    @pytest.mark.parametrize("n", [2, 3])
    def test_field_layouts_give_the_same_bits(self, n, count):
        x = np.random.default_rng(count).uniform(-0.5, 0.5, (count, n))
        charts_ = self._charts(n)
        assert not core_first(charts_[0].a_field(x), 3).flags.c_contiguous
        assert core_first(charts_[1].a_field(x), 3).flags.c_contiguous
        kernels = {
            "christoffel": lambda cs: christoffel_array(cs, x),
            "nabla-cubic": lambda cs: nabla_at(cs, cs.a_field, x),
            "nabla-metric": lambda cs: nabla_at(cs, cs.g_field, x),
            "curvature-up": lambda cs: curvature_hat_arrays(cs, x)[0],
            "curvature-low": lambda cs: curvature_hat_arrays(cs, x)[1],
        }
        for name, kernel in kernels.items():
            want = kernel(charts_[0])
            for cs in charts_[1:]:
                assert np.array_equal(kernel(cs), want), name

    def test_kernel_outputs_are_laid_out_batch_last(self):
        cs = hessian_from_potential("exp(0.3*x1) + x2**2 + 0.1*x1**2*x2**2", [[-1.0, 1.0]] * 2)
        x = np.random.default_rng(0).uniform(-0.5, 0.5, (16, 2))
        for out, slots in ((cs.metric_at(x), 2), (christoffel_array(cs, x), 3),
                           (nabla_at(cs, cs.a_field, x), 4), (curvature_hat_arrays(cs, x)[0], 4),
                           (cs.metric_inverse_at(x), 2), (cs.k_at(x), 3)):
            assert core_first(out, slots)[(0,) * slots].flags.c_contiguous


class TestSlotContractions:
    """The slot contractions equal the einsum formulas of their definitions (1e-13 relative)."""

    SLOT_LETTERS = "bcdefghjkl"

    @staticmethod
    def _chart(n):
        rng = np.random.default_rng(40 + n)
        w, v, u = rng.uniform(-1.5, 1.5, (3, n))
        s = rng.uniform(-1.0, 1.0, (n, n)) / n
        s = 0.3 * (s + s.T) / 2
        t0, t1 = (symmetrize(rng.uniform(-1.0, 1.0, (n,) * 3)) for _ in range(2))
        return ChartStructure(
            n, [[-1.0, 1.0]] * n,
            lambda x: (2.0 + np.sin(x @ w))[..., None, None] * np.eye(n)
            + np.cos(x @ v)[..., None, None] * s,
            lambda x: np.sin(x @ u)[..., None, None, None] * t0 + t1, h=1e-3,
        )

    @staticmethod
    def _field(n, degree):
        rng = np.random.default_rng(10 * n + degree)
        w = rng.uniform(-1.5, 1.5, n)
        t0, t1 = rng.uniform(-1.0, 1.0, (2,) + (n,) * degree)
        tail = (None,) * degree
        return lambda x: (np.cos(x @ w)[(...,) + tail] * t0
                          + np.sin(x[..., 0])[(...,) + tail] * t1)

    @staticmethod
    def _points(n, batch):
        rng = np.random.default_rng(7 + len(batch))
        return rng.uniform(-0.5, 0.5, batch + (n,))

    @staticmethod
    def _close(new, old):
        assert np.shape(new) == np.shape(old)
        assert np.max(np.abs(np.subtract(new, old))) <= 1e-13 * np.max(np.abs(old))

    def _nabla_einsum(self, cs, field, x):
        s0, out = charts._central(field, x, cs.h)
        gamma = christoffel_array(cs, x)
        slots = self.SLOT_LETTERS[: s0.ndim - (x.ndim - 1)]
        for letter in slots:
            spec = f"...mai,...{slots.replace(letter, 'm')}->...a{slots.replace(letter, 'i')}"
            out = out - np.einsum(spec, gamma, s0)
        return out

    @staticmethod
    def _christoffel_einsum(cs, x):
        _, dg = charts._central(cs.metric_at, x, cs.h)
        first = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
        gamma = np.einsum("...kl,...lij->...kij", cs.metric_inverse_at(x), first)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    @staticmethod
    def _curvature_einsum(cs, x):
        gamma0, dgamma = charts._central(lambda y: christoffel_array(cs, y), x, cs.h)
        up = (np.einsum("...imjk->...mijk", dgamma) - np.einsum("...jmik->...mijk", dgamma)
              + np.einsum("...mip,...pjk->...mijk", gamma0, gamma0)
              - np.einsum("...mjp,...pik->...mijk", gamma0, gamma0))
        return up, np.einsum("...lm,...mijk->...ijkl", cs.metric_at(x), up)

    @staticmethod
    def _scalar_laplacian_einsum(cs, f, x):
        n, h = cs.n, cs.h
        steps = h * np.eye(n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        corners = [sa * steps[a] + sb * steps[b] for a, b in pairs
                   for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        offsets = np.concatenate([np.zeros((1, n)), steps, -steps, np.reshape(corners, (-1, n))])
        values = np.moveaxis(f(x[..., None, :] + offsets), -1, 0)
        f0, fp, fm = values[0], values[1: n + 1], values[n + 1: 2 * n + 1]
        grad = np.moveaxis((fp - fm) / (2 * h), 0, -1)
        hess = np.empty(x.shape[:-1] + (n, n))
        for a in range(n):
            hess[..., a, a] = (fp[a] - 2.0 * f0 + fm[a]) / (h * h)
        for p, (a, b) in enumerate(pairs):
            fpp, fpm, fmp, fmm = values[2 * n + 1 + 4 * p: 2 * n + 5 + 4 * p]
            hess[..., a, b] = hess[..., b, a] = (fpp - fpm - fmp + fmm) / (4 * h * h)
        gamma = christoffel_array(cs, x)
        return np.einsum("...ab,...ab->...", cs.metric_inverse_at(x),
                         hess - np.einsum("...cab,...c->...ab", gamma, grad))

    @staticmethod
    def _trace_pair_sum(ginv, arr, a, b):
        lead = ginv.ndim - 2
        arr = np.moveaxis(arr, (lead + a, lead + b), (-2, -1))
        ginv = ginv.reshape(ginv.shape[:lead] + (1,) * (arr.ndim - lead - 2) + ginv.shape[lead:])
        return np.sum(arr * ginv, axis=(-2, -1))

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernels_match_einsum_formulas(self, n, batch):
        cs = self._chart(n)
        x = self._points(n, batch)
        ginv = cs.metric_inverse_at(x)
        self._close(christoffel_array(cs, x), self._christoffel_einsum(cs, x))
        self._close(cs.k_at(x), np.einsum("...ml,...ijl->...mij", ginv, cs.cubic_at(x)))
        self._close(cs.tau_at(x), np.einsum("...mim->...i", cs.k_at(x)))
        up, low = curvature_hat_arrays(cs, x)
        up_old, low_old = self._curvature_einsum(cs, x)
        self._close(up, up_old)
        self._close(low, low_old)
        for degree in range(4):
            field = self._field(n, degree)
            self._close(nabla_at(cs, field, x), self._nabla_einsum(cs, field, x))
        f = self._field(n, 0)
        self._close(scalar_laplacian_at(cs, f, x), self._scalar_laplacian_einsum(cs, f, x))

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_pair_matches_sum(self, n, batch):
        cs = self._chart(n)
        ginv = cs.metric_inverse_at(self._points(n, batch))
        rng = np.random.default_rng(n)
        for degree in (2, 3, 4):
            arr = rng.uniform(-1.0, 1.0, batch + (n,) * degree)
            for a in range(degree):
                for b in range(degree):
                    if a != b:
                        self._close(trace_pair(ginv, arr, a, b),
                                    self._trace_pair_sum(ginv, arr, a, b))

    def test_dual_curvatures_lower_the_first_slot(self):
        cs = self._chart(3)
        x = self._points(3, ())
        conn = statistical_connections(cs, x)
        g = cs.metric_at(x)
        for sign, low in ((1.0, conn.r_nabla), (-1.0, conn.r_bar)):
            up = charts._curvature_from_gamma(cs, lambda y: charts._dual_gamma(cs, y, sign), x)
            self._close(low, np.einsum("lm,mijk->ijkl", g, up))
