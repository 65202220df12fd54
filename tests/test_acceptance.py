"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, from the statement of the criterion it
implements; runtime budgets are asserted on a monotonic clock.
"""

import os
import time

import numpy as np

from codazzi import (
    check_ineq_eighth,
    check_ineq_n2over3,
    constant_curvature_residual,
    ric_k,
    ric_k_from_bracket,
    rho_k,
)
from codazzi.bounds import (
    calabi_sup_bound,
    discrete_max_probe,
    inf_u_dichotomy,
    parallel_cubic_band,
    sup_u_bounds,
    surface_u_bounds,
)
from codazzi.charts import (
    ChartStructure,
    constant_field,
    cubic_simons_residuals,
    hessian_from_potential,
    ricci_identity_residual,
    simons_residual,
    squared_norm_field,
    statistical_connections,
    sym2_simons_residual,
    weitzenbock_residual,
)
from codazzi.generators import GeneratorSpec, generate, sample_points
from codazzi.spheres import (
    fiber_identity_residuals,
    product_gauss,
    ros_residual,
    unit_bundle_functional,
)
from codazzi.structures_io import ingest
from codazzi.suites import sweep_cubic_norm_bounds, sweep_trace_inequalities

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUALITY_FILE = os.path.join(REPO, "demos", "structures", "equality_point_2d.json")


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_equality_point_reproduction(self):
        started = time.monotonic()
        sp = ingest(EQUALITY_FILE)
        lhs, rhs, cert = check_ineq_eighth(*sp, [1.0, 0.0])
        residual_gap, _ = check_ineq_n2over3(*sp)
        elapsed = time.monotonic() - started
        ok = (
            abs(lhs - 2.0) < 1e-12
            and abs(rhs - 2.0) < 1e-12
            and cert.holds
            and abs(residual_gap) < 1e-12
            and elapsed < 1.0
        )
        report(1, ok, f"shipped equality point: eighth bound lhs=rhs={lhs:g}, "
                      f"norm-gap residual {residual_gap:.1e}, {elapsed:.2f}s")

    def test_criterion_2_inequality_sweeps(self):
        started = time.monotonic()
        count = 10_000
        worst = {"quarter": -np.inf, "eighth": -np.inf, "normgap": -np.inf,
                 "lower": -np.inf, "upper": -np.inf}
        eq_n2 = 0.0
        for n in range(2, 7):
            trace = sweep_trace_inequalities(n, count, seed=n)
            cubic = sweep_cubic_norm_bounds(n, count, seed=100 + n)
            for key in ("quarter", "eighth", "normgap"):
                worst[key] = max(worst[key], trace[key])
            for key in ("lower", "upper"):
                worst[key] = max(worst[key], cubic[key])
            if n == 2:
                eq_n2 = cubic["li-equality-n2"]
        elapsed = time.monotonic() - started
        ok = all(v <= 1e-12 for v in worst.values()) and eq_n2 <= 1e-10 and elapsed < 60.0
        report(2, ok, f"10^4 points per n=2..6: worst margins "
                      f"{ {k: f'{v:.1e}' for k, v in worst.items()} }, "
                      f"n=2 equality defect {eq_n2:.1e}, {elapsed:.1f}s")

    def test_criterion_3_identity_cross_checks(self):
        started = time.monotonic()
        seeds = 50
        worst_ricci = 0.0
        worst_scalar = 0.0
        worst_sum = 0.0
        worst_dual = 0.0
        families = (
            ("G1-constant-A", {}),
            ("G2-hessian-potential", {}),
            ("G3-2d-constant-curvature", {"chart": True}),
            ("G4-random-smooth", {}),
            ("G5-periodic-trig", {"variant": "conformal"}),
        )
        h = 1e-3
        for family, params in families:
            for seed in range(seeds):
                cs = generate(GeneratorSpec(family, seed=seed, params=dict(params, h=h)))
                x = sample_points(cs, 1, seed=seed)[0]
                sp = cs.metric_at(x), cs.cubic_at(x)
                worst_ricci = max(worst_ricci, float(np.max(np.abs(
                    ric_k(*sp) - ric_k_from_bracket(*sp)))))
                via_trace, via_norms = rho_k(*sp)
                worst_scalar = max(worst_scalar, abs(via_trace - via_norms))
                conn = statistical_connections(cs, x)
                scale = conn.scale
                worst_sum = max(worst_sum, conn.residuals["curvature-sum"] / scale)
                worst_dual = max(worst_dual, conn.residuals["duality"] / scale)
        elapsed = time.monotonic() - started
        fd_budget = 400.0 * h * h
        ok = (worst_ricci < 1e-12 and worst_scalar < 1e-12
              and worst_sum < fd_budget and worst_dual < fd_budget and elapsed < 60.0)
        report(3, ok, f"cross-checks over 5 families x {seeds} seeds: "
                      f"commutator-Ricci {worst_ricci:.1e}, scalar {worst_scalar:.1e} (<=1e-12); "
                      f"curvature-sum {worst_sum:.1e}, duality {worst_dual:.1e} "
                      f"(<= c*h^2 = {fd_budget:.1e}); {elapsed:.1f}s")

    def test_criterion_4_simons_convergence(self):
        started = time.monotonic()
        steps = (4e-3, 2e-3, 1e-3)
        factors = {}

        def sphere_chart(n, step):
            return ChartStructure(
                n, [[-0.4, 0.4]] * n,
                lambda x: 4.0 * np.eye(n) / (1 + np.sum(x * x, axis=-1))[..., None, None] ** 2,
                constant_field(np.zeros((n, n, n))), h=step,
            )

        def codazzi_beta(n):
            eye = np.eye(n)

            def beta(y):
                r2 = np.sum(y * y, axis=-1)[..., None, None]
                e2u = 4.0 / (1 + r2) ** 2
                grad_u = -2.0 * y / (1 + r2[..., 0])
                gamma1 = (eye[:, :1] * grad_u[..., None, :] + eye[:1, :] * grad_u[..., :, None]
                          - eye * grad_u[..., :1, None])
                return -gamma1 + eye * (y[..., :1, None] * e2u)
            return beta

        trig_tau = lambda y: np.stack(
            [np.sin(y[..., 0] + 2 * y[..., 1]), np.cos(y[..., 0] - y[..., 1])]
            + [np.sin(y[..., i]) for i in range(2, y.shape[-1])], axis=-1)

        for n in (2, 3):
            x = np.array([0.15, -0.22, 0.1][:n])
            potential = (
                "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)" if n == 2 else
                "0.4*x1**2*x2**2 + 0.3*x2**2*x3**2 + 0.35*x1**2*x3**2 "
                "+ 0.5*(x1**2 + x2**2 + x3**2)"
            )
            series = {key: [] for key in
                      ("simons", "ricci-identity", "weitzenbock", "sym2",
                       "cubic-bracket", "cubic-curvdiff", "cubic-ricci")}
            for step in steps:
                hess = hessian_from_potential(potential, [[-0.6, 0.6]] * n, h=step, n=n)
                sph = sphere_chart(n, step)
                series["simons"].append(simons_residual(hess, hess.a_field, x))
                series["ricci-identity"].append(
                    ricci_identity_residual(hess, hess.a_field, x))
                series["weitzenbock"].append(
                    weitzenbock_residual(sph, trig_tau, x)["weitzenbock"])
                series["sym2"].append(sym2_simons_residual(sph, codazzi_beta(n), x)[0])
                cubic = cubic_simons_residuals(hess, x)
                series["cubic-bracket"].append(cubic["laplace-cubic-bracket"])
                series["cubic-curvdiff"].append(cubic["laplace-cubic-curvdiff"])
                series["cubic-ricci"].append(cubic["laplace-cubic-ricci"])
            for key, values in series.items():
                for i in range(2):
                    factors[f"{key}/n={n}/halving{i}"] = values[i] / values[i + 1]
        elapsed = time.monotonic() - started
        bad = {k: v for k, v in factors.items() if not 3.2 <= v <= 4.8}
        ok = not bad and elapsed < 180.0
        lo = min(factors.values())
        hi = max(factors.values())
        report(4, ok, f"{len(factors)} convergence factors in [{lo:.2f}, {hi:.2f}] "
                      f"(required [3.2, 4.8]), {elapsed:.1f}s"
                      + (f"; out of range: {bad}" if bad else ""))

    def test_criterion_5_constant_curvature_family(self):
        started = time.monotonic()
        ok = True
        details = []
        for (a, b) in ((1.0, 0.0), (0.7, 0.4), (0.5, -0.9)):
            s = a * a + b * b
            h_curv = -2.0 * s
            u = 4.0 * s
            cs = generate(GeneratorSpec("G3-2d-constant-curvature",
                                        params={"chart": True, "a": a, "b": b}))
            x = np.array([1.0, 1.0])
            conn = statistical_connections(cs, x)
            r = 0.5 * (conn.r_nabla - np.swapaxes(conn.r_nabla, 0, 1))
            curv_res = constant_curvature_residual(r, cs.metric_at(x), cs.metric_inverse_at(x),
                                                   h_curv)
            ok &= curv_res < 1e-10
            ok &= abs(calabi_sup_bound(2, h_curv) - u) < 1e-12
            band = parallel_cubic_band(2, h_curv)
            ok &= abs(band.lo - u) < 1e-12 and abs(band.hi - u) < 1e-12
            d = inf_u_dichotomy(2, h_curv, 0.0)
            ok &= abs(d.hi - u) < 1e-12 and d.holds_for(u)
            rep = sup_u_bounds(2, h_curv, 0.0)
            lo_i, hi_i = rep.intervals["sup_u"]
            ok &= lo_i - 1e-12 <= u <= hi_i + 1e-12 and abs(hi_i - u) < 1e-12
            rep2 = surface_u_bounds(h_curv, h_curv, 0.0, 0.0)
            lo_s, hi_s = rep2.intervals["sup_u"]
            ok &= lo_s - 1e-12 <= u <= hi_s + 1e-12
            details.append(f"(a={a},b={b}): |R-HR0|={curv_res:.1e}")
        elapsed = time.monotonic() - started
        ok &= elapsed < 5.0
        report(5, ok, "; ".join(details) + f"; all bounds met/attained, {elapsed:.1f}s")

    def test_criterion_6_bound_formula_consistency(self):
        rng = np.random.default_rng(99)
        ok = True
        worst_cross = 0.0
        for _ in range(100):
            h = -float(rng.uniform(0.01, 5.0))
            rep = sup_u_bounds(2, h, 0.0)
            worst_cross = max(worst_cross,
                              abs(rep.intervals["nabla_bound"][1] - 1.5 * (h * h)))
        ok &= worst_cross == 0.0
        worst_boundary = 0.0
        for _ in range(100):
            h = -float(rng.uniform(0.05, 4.0))
            n = int(rng.integers(2, 7))
            d = inf_u_dichotomy(n, h, h * h * (n + 1) ** 2 / 6.0)
            target = (n + 1) * (-h) / 3.0
            worst_boundary = max(worst_boundary, abs(d.hi - d.lo),
                                 abs(d.hi - target), abs(d.lo - target))
        ok &= worst_boundary < 1e-12
        report(6, ok, f"n=2 gradient cap equals (3/2)H^2 exactly over 100 draws "
                      f"(defect {worst_cross:.1e}); branches coincide at the "
                      f"feasibility boundary (defect {worst_boundary:.1e})")

    def test_criterion_7_sphere_and_bundle_suite(self):
        started = time.monotonic()
        rng = np.random.default_rng(7)
        worst_fiber = 0.0
        for n in (2, 3):
            quad = product_gauss(n)
            for k in (2, 3, 4):
                for _ in range(20):
                    s = rng.uniform(-1.0, 1.0, (n,) * k)
                    worst_fiber = max(worst_fiber, fiber_identity_residuals(s, quad)[0])
        gen = generate(GeneratorSpec(
            "G5-periodic-trig", seed=3,
            params={"variant": "generic", "freq": 32, "gfreq": 4, "amp": 0.8,
                    "scale": 0.05}))
        r64 = ros_residual(gen, gen.a_field, k=3, lattice=64)
        r128 = ros_residual(gen, gen.a_field, k=3, lattice=128)
        conf = generate(GeneratorSpec(
            "G5-periodic-trig", seed=4,
            params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5}))
        tg, tc, total = unit_bundle_functional(conf, lattice=64)
        elapsed = time.monotonic() - started
        ok = (worst_fiber < 1e-9 and r64 < 1e-6 and r128 <= r64 / 4.0
              and abs(total) < 1e-5 and elapsed < 180.0)
        report(7, ok, f"fiber identity worst {worst_fiber:.1e} (<1e-9); bundle integral "
                      f"{r64:.1e} at 64^2 shrinking x{r64 / max(r128, 1e-300):.0f} at 128^2; "
                      f"functional terms {tg:+.3f}/{tc:+.3f} sum {total:.1e} (<1e-5); "
                      f"{elapsed:.1f}s")

    def test_criterion_8_global_theorems_surrogate(self):
        # the global triviality/parallelism conclusions are out of reach at desk
        # scale; their displayed formulas are covered by criteria 4, 5, 7, and
        # the compact-case maximum principle is probed on periodic lattices
        flat = ChartStructure(2, [[0, 2 * np.pi]] * 2, constant_field(np.eye(2)),
                              constant_field(np.zeros((2, 2, 2))), periodic=[True, True])
        argmax, lap = discrete_max_probe(flat, lambda y: np.sin(y[..., 0]) + np.sin(y[..., 1]),
                                         lattice_points=64)
        ok = np.allclose(argmax, [np.pi / 2, np.pi / 2], atol=0.1) and lap <= 1e-2
        conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                      params={"variant": "conformal", "amp": 0.35}))
        _, lap_u = discrete_max_probe(conf, squared_norm_field(conf, conf.a_field),
                                      lattice_points=48)
        ok &= lap_u <= 1e-2
        report(8, ok, f"maximum-principle surrogate: Laplacian at grid argmax "
                      f"{lap:+.3f} (closed form) and {lap_u:+.2e} (structure field), "
                      f"both <= tol; formulas behind the global theorems covered by "
                      f"criteria 4, 5, 7")
