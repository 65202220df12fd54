import numpy as np
import pytest

from codazzi import PreconditionError
from codazzi.bounds import (
    calabi_sup_bound,
    conditional_inf_u_lower_bound,
    discrete_max_probe,
    inf_u_dichotomy,
    lagrangian_scalar_upper_bounds,
    parallel_cubic_band,
    simons_sandwich_check,
    sphere_scalar_lower_bounds,
    sup_u_bounds,
    surface_u_bounds,
)
from codazzi.charts import ChartStructure, constant_field, squared_norm_field
from codazzi.generators import GeneratorSpec, generate


class TestCalabiBound:
    def test_values(self):
        assert calabi_sup_bound(2, -2.0) == 4.0
        assert calabi_sup_bound(3, -1.0) == 6.0

    def test_nonnegative_h_rejected(self):
        with pytest.raises(PreconditionError, match="trivial"):
            calabi_sup_bound(2, 0.0)
        with pytest.raises(PreconditionError, match="trivial"):
            calabi_sup_bound(4, 1.0)

    def test_family_attains_it(self):
        for a, b in ((1.0, 0.0), (0.5, 0.5)):
            s = a * a + b * b
            assert calabi_sup_bound(2, -2.0 * s) == pytest.approx(4.0 * s)


class TestParallelBand:
    def test_values(self):
        band = parallel_cubic_band(3, -1.0)
        assert band.lo == pytest.approx(8.0 / 3.0)
        assert band.hi == pytest.approx(6.0)
        assert not band.trivial

    def test_n2_band_is_single_point(self):
        band = parallel_cubic_band(2, -2.0)
        assert band.lo == band.hi == 4.0

    def test_h_nonnegative_degenerates(self):
        band = parallel_cubic_band(3, 1.0)
        assert band.trivial and band.lo == band.hi == 0.0

    def test_dominated_by_calabi(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            h = -float(rng.uniform(0.01, 5.0))
            assert parallel_cubic_band(n, h).hi == calabi_sup_bound(n, h)


class TestInfUDichotomy:
    def test_zero_nabla(self):
        d = inf_u_dichotomy(2, -1.0, 0.0)
        assert d.feasible
        assert d.lo == pytest.approx(0.0)
        assert d.hi == pytest.approx(2.0)

    def test_branches_coincide_at_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            h = -float(rng.uniform(0.05, 4.0))
            boundary = h * h * (n + 1) ** 2 / 6.0
            d = inf_u_dichotomy(n, h, boundary)
            target = (n + 1) * (-h) / 3.0
            assert d.lo == pytest.approx(target, rel=1e-12)
            assert d.hi == pytest.approx(target, rel=1e-12)
            # at coincident branches the dichotomy is vacuous either way; the
            # feasibility flag at the exact boundary is a float-equality edge

    def test_branches_narrow_as_n2_grows(self):
        widths = []
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            d = inf_u_dichotomy(3, -1.5, frac * 1.5**2 * 16 / 6.0)
            widths.append(d.hi - d.lo)
        assert all(widths[i] >= widths[i + 1] for i in range(len(widths) - 1))

    def test_family_meets_upper_branch(self):
        for a in (0.5, 1.0, 1.5):
            s = a * a
            d = inf_u_dichotomy(2, -2.0 * s, 0.0)
            assert d.hi == pytest.approx(4.0 * s)
            assert d.holds_for(4.0 * s)

    def test_quadratic_root_oracle(self):
        # branches must solve -(3/2) t^2 - (n+1) H t - N2 = 0
        n, h = 3, -1.0
        n2 = 0.9 * h * h * (n + 1) ** 2 / 6.0
        d = inf_u_dichotomy(n, h, n2)
        for t in (d.lo, d.hi):
            assert -(1.5) * t * t - (n + 1) * h * t - n2 == pytest.approx(0.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            inf_u_dichotomy(2, 0.5, 0.0)
        with pytest.raises(PreconditionError):
            inf_u_dichotomy(2, -1.0, -0.1)

    def test_conditional_lower_bound(self):
        assert conditional_inf_u_lower_bound(2, -1.0, 0.0, 0.5) == pytest.approx(2.0)
        assert conditional_inf_u_lower_bound(2, -1.0, 0.0, -1.0) is None


class TestSupUBounds:
    def test_values(self):
        rep = sup_u_bounds(3, -2.0, 0.0)
        assert rep.intervals["nabla_bound"][1] == pytest.approx(24.0)
        assert rep.intervals["sup_u"] == (pytest.approx(0.0), pytest.approx(12.0))

    def test_cross_consistency_with_surface_case(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = -float(rng.uniform(0.01, 5.0))
            rep = sup_u_bounds(2, h, 0.0)
            assert rep.intervals["nabla_bound"][1] == pytest.approx(1.5 * h * h, rel=1e-14)

    def test_midpoint_property(self):
        rep = sup_u_bounds(4, -1.7, 3.0)
        lo, hi = rep.intervals["sup_u"]
        assert (lo + hi) / 2.0 == pytest.approx(4 * 3 * 1.7 / 2.0)

    def test_infeasible_nabla_flagged(self):
        rep = sup_u_bounds(2, -1.0, 10.0)
        assert rep.feasible["sup_u"] is False
        assert rep.notes

    def test_family_at_upper_endpoint(self):
        rep = sup_u_bounds(2, -2.0, 0.0)
        assert rep.intervals["sup_u"][1] == pytest.approx(4.0)


class TestSurfaceBounds:
    def test_family_case(self):
        rep = surface_u_bounds(-2.0, -2.0, 0.0, 0.0)
        lo, hi = rep.intervals["sup_u"]
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(4.0)
        b_lo, b_hi = rep.intervals["inf_u_branches"]
        assert b_lo == pytest.approx(0.0)
        assert b_hi == pytest.approx(4.0)

    def test_pinned_radical(self):
        rep = surface_u_bounds(0.0, -1.0, 1.5)
        assert rep.intervals["sup_u"] == (pytest.approx(1.0), pytest.approx(1.0))

    def test_infeasible_inf_hat_u(self):
        rep = surface_u_bounds(0.0, -1.0, 2.0)
        assert rep.feasible["sup_u"] is False

    def test_ordering_enforced(self):
        with pytest.raises(PreconditionError, match="H2 <= H1"):
            surface_u_bounds(-2.0, -1.0, 0.0)
        with pytest.raises(PreconditionError):
            surface_u_bounds(0.5, -1.0, 0.0)

    def test_dichotomy_requires_cap(self):
        rep = surface_u_bounds(-1.0, -2.0, 0.0, sup_hat_u=5.0)
        assert rep.feasible["inf_u_dichotomy"] is False


class TestSandwich:
    def test_constant_family_zero_gaps(self):
        cs = generate(GeneratorSpec("G3-2d-constant-curvature", params={"chart": True}))
        lo, hi = simons_sandwich_check(cs, np.array([1.0, 1.0]), h_curv=-2.0)
        assert abs(lo) < 1e-9
        assert abs(hi) < 1e-9

    def test_trivial_structure(self):
        # A = 0 on a flat chart has R = 0, so R = H R0 holds with H = 0 and
        # every sandwich term vanishes
        flat = ChartStructure(2, [[0, 2 * np.pi]] * 2, constant_field(np.eye(2)),
                              constant_field(np.zeros((2, 2, 2))), periodic=[True, True])
        lo, hi = simons_sandwich_check(flat, np.array([1.0, 1.0]), h_curv=0.0)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_conformal_family_equality_n2(self):
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                      params={"variant": "conformal", "amp": 0.35}))
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0, 2 * np.pi, 2)
            lo, hi = simons_sandwich_check(conf, x)
            assert abs(lo) < 4e-4
            assert abs(hi) < 4e-4

    def test_trace_precondition(self):
        cs = generate(GeneratorSpec("G4-random-smooth", seed=0))
        with pytest.raises(PreconditionError, match="trace-free"):
            simons_sandwich_check(cs, np.array([1.0, 1.0]))


class TestScalarCorollaries:
    def test_sphere_lower_bounds_on_family(self):
        # R = H R0 with H = -2, u = 4, E = 0, rho_hat = 0 for constant fields
        lo1, lo2 = sphere_scalar_lower_bounds(2, -2.0, 0.0, 4.0)
        assert 0.0 >= lo1 - 1e-12
        assert 0.0 >= lo2 - 1e-12

    def test_dual_split_upper_bounds(self):
        # c R0 = R_hat - [K,K] with c = 2, rho_hat = 0
        hi1, hi2 = lagrangian_scalar_upper_bounds(2, 2.0, 0.0, 4.0)
        assert 0.0 <= hi1 + 1e-12
        assert 0.0 <= hi2 + 1e-12


class TestMaxProbe:
    def test_constant_function(self):
        flat = ChartStructure(2, [[0, 2 * np.pi]] * 2, constant_field(np.eye(2)),
                              constant_field(np.zeros((2, 2, 2))), periodic=[True, True])
        _, lap = discrete_max_probe(flat, lambda y: np.ones(y.shape[:-1]), lattice_points=16)
        assert abs(lap) < 1e-10

    def test_closed_form_argmax(self):
        flat = ChartStructure(2, [[0, 2 * np.pi]] * 2, constant_field(np.eye(2)),
                              constant_field(np.zeros((2, 2, 2))), periodic=[True, True])
        argmax, lap = discrete_max_probe(flat, lambda y: np.sin(y[..., 0]) + np.sin(y[..., 1]),
                                         lattice_points=64)
        assert np.allclose(argmax, [np.pi / 2, np.pi / 2], atol=0.1)
        assert lap == pytest.approx(-2.0, abs=1e-2)

    def test_structure_norm_field(self):
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                      params={"variant": "conformal", "amp": 0.35}))
        _, lap = discrete_max_probe(conf, squared_norm_field(conf, conf.a_field),
                                    lattice_points=48)
        assert lap <= 1e-2

    def test_needs_periodic_chart(self):
        box = ChartStructure(2, [[-1, 1]] * 2, constant_field(np.eye(2)),
                             constant_field(np.zeros((2, 2, 2))))
        with pytest.raises(PreconditionError, match="periodic"):
            discrete_max_probe(box, lambda y: np.zeros(y.shape[:-1]))
