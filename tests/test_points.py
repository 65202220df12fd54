import itertools

import numpy as np
import pytest

from codazzi import points, suites
from codazzi.generators import GeneratorSpec, generate
from codazzi.structures_io import cubic_entries, cubic_from_entries
from codazzi.tensors import (check_riemannian_symmetries, contract, metric_factors, raise_last,
                             symmetrize, trace_k)
from codazzi import (
    ConstructionError,
    DimensionMismatchError,
    PreconditionError,
    bracket_kk,
    best_fit_curvature_coefficient,
    check_ineq_eighth,
    check_ineq_n2over3,
    check_ineq_quarter,
    constant_curvature_residual,
    fit_constant_curvature,
    frame_components,
    frame_cubic,
    lagrangian_gauss_residual,
    lpq,
    r0_curvature,
    random_stat_point,
    ric_k,
    ric_k_from_bracket,
    rho_k,
    scalar_gap_bounds,
    sectional_k,
    trace_free_part,
)


def zero_point(n):
    return np.eye(n), np.zeros((n, n, n))


def difference_tensor(g, a):
    """(g^-1, K, tau, E) of a structure."""
    ginv = metric_factors(g)[0]
    k = raise_last(ginv, a)
    tau = trace_k(k)
    return ginv, k, tau, ginv @ tau


def norm_a_sq(g, a):
    return contract(metric_factors(g)[0], a, a)


def commutator_bracket_oracle(g, a):
    """Brute-force [K,K] through explicit matrix commutators per basis pair."""
    n = len(g)
    k = difference_tensor(g, a)[1]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            ki = k[:, i, :]
            kj = k[:, j, :]
            comm = ki @ kj - kj @ ki
            for kk in range(n):
                out[i, j, kk, :] = g @ comm[:, kk]
    return out


def trace_oracle_ric_k(g, a):
    b = bracket_kk(g, a)
    up = np.einsum("ml,ijkl->mijk", metric_factors(g)[0], b)
    return np.einsum("iijk->jk", up)


class TestStatPoint:
    """K, tau and E of a structure (g, a), from the kernels the (g, a) functions read."""

    def test_trace_ingredients(self, eq_point):
        _, _, tau, e = difference_tensor(*eq_point)
        assert np.allclose(e, [0.0, 4.0])
        assert np.allclose(tau, [0.0, 4.0])
        assert np.sqrt(e @ eq_point[0] @ e) >= points.TRACE_FREE_TOL

    def test_tau_is_operator_trace(self, rng):
        g, a = random_stat_point(4, rng, metric="random")
        _, k, tau, _ = difference_tensor(g, a)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            k_e = np.einsum("mij,i->mj", k, e)  # the endomorphism K_e
            assert abs(tau[i] - np.trace(k_e)) < 1e-12

    def test_round_trip_a_equals_g_k(self, rng):
        g, a = random_stat_point(3, rng, metric="random")
        rebuilt = np.einsum("lm,mij->ijl", g, difference_tensor(g, a)[1])
        assert np.max(np.abs(rebuilt - a)) < 1e-13

    def test_trace_free_flag(self, g3_point):
        e = difference_tensor(*g3_point)[3]
        assert np.sqrt(e @ g3_point[0] @ e) < points.TRACE_FREE_TOL

    def test_random_structures_are_read_only_arrays(self):
        for trace_free in (False, True):
            g, a = random_stat_point(3, 5, trace_free=trace_free, metric="random")
            assert g.shape == (3, 3) and a.shape == (3, 3, 3)
            assert not g.flags.writeable and not a.flags.writeable
            for p in itertools.permutations(range(3)):
                assert np.array_equal(np.transpose(a, p), a)


class TestBatchAxes:
    """The (g, a) functions built from the batched kernels alone take leading batch axes."""

    def test_batch_matches_points(self):
        rng = np.random.default_rng(31)
        pairs = [random_stat_point(3, rng, metric="random") for _ in range(6)]
        g = np.stack([p[0] for p in pairs]).reshape(2, 3, 3, 3)
        a = np.stack([p[1] for p in pairs]).reshape(2, 3, 3, 3, 3)
        for fn in (bracket_kk, ric_k, ric_k_from_bracket, frame_cubic, trace_free_part):
            batched = fn(g, a)
            assert batched.shape[:2] == (2, 3), fn.__name__
            for index, (g_one, a_one) in zip(np.ndindex(2, 3), pairs):
                one = fn(g_one, a_one)
                assert np.max(np.abs(batched[index] - one)) <= 1e-13 * max(
                    np.max(np.abs(one)), 1.0), fn.__name__


class TestPassedFactors:
    """A caller that factors g once and passes the factors on gets the same bits."""

    def test_same_bits_with_and_without_factors(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            g, a = random_stat_point(n, rng, metric="random")
            factors = metric_factors(g)
            u = np.eye(n)[0]
            calls = {
                "ric_k": lambda **kw: ric_k(g, a, **kw),
                "ric_k_from_bracket": lambda **kw: ric_k_from_bracket(g, a, **kw),
                "rho_k": lambda **kw: rho_k(g, a, **kw),
                "frame_cubic": lambda **kw: frame_cubic(g, a, **kw),
                "scalar_gap_bounds": lambda **kw: scalar_gap_bounds(g, a, **kw),
                "quarter": lambda **kw: check_ineq_quarter(g, a, u, **kw)[:2],
                "eighth": lambda **kw: check_ineq_eighth(g, without_a111(a), u, **kw)[:2],
            }
            for name, call in calls.items():
                assert np.array_equal(call(factors=factors), call()), name
            assert all(np.array_equal(x, y) for x, y in
                       zip(points.require_finite(g, a), factors))


class TestBracketKK:
    def test_zero_cubic(self):
        assert np.all(bracket_kk(*zero_point(3)) == 0.0)

    def test_g3_sectional_entry(self, g3_point):
        b = bracket_kk(*g3_point)
        assert b[0, 1, 1, 0] == pytest.approx(-2.0, abs=1e-13)

    def test_matches_commutator_oracle(self, eq_point, rng):
        for g, a in (eq_point, random_stat_point(4, rng, metric="random")):
            assert np.max(np.abs(bracket_kk(g, a) - commutator_bracket_oracle(g, a))) < 1e-13

    def test_riemann_symmetries(self, rng):
        check_riemannian_symmetries(bracket_kk(*random_stat_point(3, rng, metric="random")),
                                    1e-10)

    def test_symmetry_defect_raises(self, monkeypatch):
        # a planted [K,K] without the symmetries of a curvature tensor fails bracket_kk's check
        g, a = random_stat_point(3, np.random.default_rng(2), metric="random")
        bracket = points.commutator_curvature(difference_tensor(g, a)[1])
        monkeypatch.setattr(points, "commutator_curvature",
                            lambda k: bracket + np.swapaxes(bracket, -2, -1))
        with pytest.raises(ConstructionError, match="curvature tensor"):
            bracket_kk(g, a)


class TestRicK:
    def test_zero(self):
        assert np.all(ric_k(*zero_point(2)) == 0.0)

    def test_g3_diagonal(self, g3_point):
        assert np.allclose(ric_k(*g3_point), np.diag([-2.0, -2.0]), atol=1e-13)

    def test_formula_equals_direct_trace(self, eq_point, rng):
        for sp in (eq_point, random_stat_point(5, rng, metric="random")):
            assert np.max(np.abs(ric_k(*sp) - trace_oracle_ric_k(*sp))) < 1e-12
            assert np.max(np.abs(ric_k_from_bracket(*sp) - ric_k(*sp))) < 1e-12

    def test_symmetric(self, rng):
        r = ric_k(*random_stat_point(4, rng, metric="random"))
        assert np.allclose(r, r.T, atol=1e-13)

    def test_negative_semidefinite_when_trace_free(self, rng):
        for seed in range(20):
            sp = random_stat_point(4, np.random.default_rng(seed), trace_free=True)
            eigs = np.linalg.eigvalsh(ric_k(*sp))
            assert np.all(eigs <= 1e-12)


class TestRhoK:
    def test_values(self, eq_point, g3_point):
        via_trace, via_norms = rho_k(*eq_point)
        assert via_trace == pytest.approx(4.0, abs=1e-12)
        assert via_norms == pytest.approx(16.0 - 12.0, abs=1e-12)
        via_trace, via_norms = rho_k(*g3_point)
        assert via_trace == pytest.approx(-4.0, abs=1e-12)
        assert via_norms == pytest.approx(-4.0, abs=1e-12)

    def test_two_routes_agree(self, rng):
        for n in (2, 3, 5):
            via_trace, via_norms = rho_k(*random_stat_point(n, rng, metric="random"))
            assert abs(via_trace - via_norms) < 1e-12 * max(1.0, abs(via_trace))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_equals_each_structure_alone(self, n):
        rng = np.random.default_rng(40 + n)
        sps = [random_stat_point(n, rng, metric="random") for _ in range(3)]
        stacked = rho_k(*(np.stack(parts) for parts in zip(*sps)))
        alone = [rho_k(*sp) for sp in sps]
        for route in (0, 1):
            assert [float(v).hex() for v in stacked[route]] == [
                float(value[route]).hex() for value in alone]


class TestSectionalK:
    def test_zero(self):
        assert sectional_k(*zero_point(2), [1, 0], [0, 1]) == 0.0

    def test_g3_plane(self, g3_point):
        assert sectional_k(*g3_point, [1, 0], [0, 1]) == pytest.approx(-2.0, abs=1e-12)

    def test_invariant_under_respanning(self, g3_point, rng):
        assert sectional_k(*g3_point, [1, 1], [1, -1]) == pytest.approx(-2.0, abs=1e-12)
        sp = random_stat_point(4, rng, metric="random")
        x, y = rng.uniform(-1, 1, (2, 4))
        base = sectional_k(*sp, x, y)
        m = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        x2 = m[0, 0] * x + m[0, 1] * y
        y2 = m[1, 0] * x + m[1, 1] * y
        assert sectional_k(*sp, x2, y2) == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_dependent_inputs(self, g3_point):
        with pytest.raises(PreconditionError):
            sectional_k(*g3_point, [1.0, 2.0], [2.0, 4.0])


class TestQuarterInequality:
    def test_equality_point_strict_at_e2(self, eq_point):
        lhs, rhs, cert = check_ineq_quarter(*eq_point, [0.0, 1.0])
        assert lhs == pytest.approx(2.0, abs=1e-13)
        assert rhs == pytest.approx(4.0, abs=1e-13)
        assert not cert.holds

    def test_trivial_structure_equality(self):
        lhs, rhs, cert = check_ineq_quarter(*zero_point(3), [1.0, 0.0, 0.0])
        assert lhs == rhs == 0.0
        assert cert.holds

    def test_zero_vector_rejected(self, eq_point):
        with pytest.raises(PreconditionError):
            check_ineq_quarter(*eq_point, [0.0, 0.0])

    def test_random_sweep_never_violated(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            sp = random_stat_point(n, rng, metric="random")
            u = rng.uniform(-1, 1, n)
            lhs, rhs, _ = check_ineq_quarter(*sp, u)
            assert lhs <= rhs + 1e-12


def without_a111(a):
    """a with its A(e1,e1,e1) entry removed, so the eighth bound applies at U = e1."""
    return cubic_from_entries(len(a), {k: v for k, v in cubic_entries(a).items()
                                       if k != (0, 0, 0)})


class TestEighthInequality:
    def test_equality_point_at_e1(self, eq_point):
        lhs, rhs, cert = check_ineq_eighth(*eq_point, [1.0, 0.0])
        assert lhs == pytest.approx(2.0, abs=1e-13)
        assert rhs == pytest.approx(2.0, abs=1e-13)
        assert cert.holds

    def test_zero_cubic(self):
        lhs, rhs, cert = check_ineq_eighth(*zero_point(2), [0.0, 1.0])
        assert lhs == rhs == 0.0
        assert cert.holds

    def test_precondition_violation_is_distinct(self, eq_point):
        with pytest.raises(PreconditionError, match="does not apply"):
            check_ineq_eighth(*eq_point, [0.0, 1.0])

    def test_random_sweep(self):
        violations = 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 6))
            g, a = random_stat_point(n, rng, trace_free=True)
            # force A(e1,e1,e1) = 0 so the hypothesis holds exactly
            u = np.zeros(n)
            u[0] = 1.0
            lhs, rhs, _ = check_ineq_eighth(g, without_a111(a), u)
            if lhs > rhs + 1e-12:
                violations += 1
        assert violations == 0


class TestNormGapInequality:
    def test_equality_point(self, eq_point):
        residual, cert = check_ineq_n2over3(*eq_point)
        assert residual == pytest.approx((4.0 / 3.0) * 12.0 - 16.0, abs=1e-12)
        assert abs(residual) < 1e-12
        assert cert.holds

    def test_zero(self):
        residual, cert = check_ineq_n2over3(*zero_point(2))
        assert residual == 0.0
        assert cert.holds

    def test_random_sweep_nonnegative(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            residual, _ = check_ineq_n2over3(*random_stat_point(n, rng, metric="random"))
            assert residual >= -1e-12


def trace_part(g, w):
    """w_i g_jk + w_j g_ik + w_k g_ij for a covector w."""
    return (np.einsum("i,jk->ijk", w, g) + np.einsum("j,ik->ijk", w, g)
            + np.einsum("k,ij->ijk", w, g))


def trace_free_norm_loop(g, a):
    """||A_0||_g by loops over coordinates, with g^-1 from np.linalg.inv.

    A_0 = A - (w_i g_jk + w_j g_ik + w_k g_ij) with w_m = g^jk A_jkm / (n+2).
    """
    n = len(g)
    ginv = np.linalg.inv(g)
    w = [sum(ginv[j, k] * a[j, k, m] for j in range(n) for k in range(n)) / (n + 2)
         for m in range(n)]
    a0 = np.empty((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        a0[i, j, k] = a[i, j, k] - (w[i] * g[j, k] + w[j] * g[i, k] + w[k] * g[i, j])
    total = 0.0
    for i, j, k, p, q, r in itertools.product(range(n), repeat=6):
        total += ginv[i, p] * ginv[j, q] * ginv[k, r] * a0[i, j, k] * a0[p, q, r]
    return float(np.sqrt(max(total, 0.0)))


def random_trace_part(n, rng):
    """(g, A) with a random metric g and A = w_i g_jk + w_j g_ik + w_k g_ij for a random w."""
    g = points.random_metric(n, rng)
    return g, trace_part(g, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-2, 2))


class TestNormGapCertificate:
    """The norm gap is (n+2)/3 ||A_0||^2, and its certificate's one witness is ||A_0||."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_gap_is_the_trace_free_norm(self, n):
        rng = np.random.default_rng(900 + n)
        count = 256
        a = symmetrize(rng.uniform(-1.0, 1.0, (count, n, n, n)), degree=3)
        a = a * (10.0 ** rng.uniform(-3, 3, count))[:, None, None, None]
        a2 = points.cubic_norm_sq(a)
        trace_free = (n + 2) / 3.0 * points.cubic_norm_sq(points.trace_free_projection(a))
        bar = 1e-13 * (1.0 + a2)
        assert np.all(np.abs(points.norm_gap(a) - trace_free) <= bar)
        # a known defect, the constant (n+2)/3 scaled by 0.9, breaks the identity at every n
        tau = points.trace_form(a)
        wrong = 0.9 * (n + 2) / 3.0 * a2 - np.einsum("bm,bm->b", tau, tau)
        assert np.any(np.abs(wrong - trace_free) > bar)

    @pytest.mark.parametrize("seed", range(48))
    def test_witness_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = 2 + seed % 5
        sp = random_stat_point(n, rng, trace_free=seed % 2 == 0,
                               metric="random" if seed % 4 < 2 else "identity")
        if seed % 3 == 0:
            # a structure near equality: its trace part plus a small trace-free part
            g, a = sp
            sp = g, trace_part(g, rng.uniform(-1.0, 1.0, n)) + 1e-3 * trace_free_part(g, a)
        gap, cert = check_ineq_n2over3(*sp)
        want = trace_free_norm_loop(*sp)
        (name, got), = cert.witnesses
        assert name == "||A_0||"
        assert abs(got - want) <= 1e-12 * (1.0 + np.sqrt(norm_a_sq(*sp)))
        assert cert.holds == (got < points.CERTIFICATE_TOL) == (want < 1e-6)
        assert gap == pytest.approx((n + 2) / 3.0 * want**2, rel=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_trace_part_certifies(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(10):
            g, a = random_trace_part(n, rng)
            gap, cert = check_ineq_n2over3(g, a)
            assert cert.holds, cert.witnesses
            assert abs(gap) <= 1e-13 * (1.0 + norm_a_sq(g, a))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_free_perturbation_does_not_certify(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(10):
            g, a = random_trace_part(n, rng)
            b = trace_free_part(g, symmetrize(rng.uniform(-1.0, 1.0, (n, n, n))))
            b = b / np.sqrt(norm_a_sq(g, b))
            gap, cert = check_ineq_n2over3(g, a + 1e-6 * b)
            (_, witness), = cert.witnesses
            assert not cert.holds
            assert witness == pytest.approx(1e-6, rel=1e-6)
            # the gap itself is a difference of large terms, known only to round-off
            assert abs(gap - (n + 2) / 3.0 * 1e-12) <= 1e-13 * (1.0 + norm_a_sq(g, a))

    def test_equality_point_witness_is_zero(self, eq_point):
        _, cert = check_ineq_n2over3(*eq_point)
        assert cert.witnesses == [("||A_0||", 0.0)]
        assert trace_free_norm_loop(*eq_point) == 0.0

    def test_tolerance_decides_at_the_witness(self):
        # A_111 = 3 A_122 is the trace part of w = (1, 0); a defect delta in A_122
        # leaves ||A_0|| proportional to delta
        for delta, holds in ((1e-10, True), (1e-8, False)):
            a = cubic_from_entries(2, {(0, 0, 0): 3.0, (0, 1, 1): 1.0 + delta})
            (_, witness), = check_ineq_n2over3(np.eye(2), a)[1].witnesses
            assert witness == pytest.approx(trace_free_norm_loop(np.eye(2), a), rel=1e-5)
            assert check_ineq_n2over3(np.eye(2), a)[1].holds == holds

    @pytest.mark.parametrize("family, n", [("G2-hessian-potential", 3), ("G4-random-smooth", 2)])
    def test_check_builds_no_certificate(self, family, n, monkeypatch):
        structure = generate(GeneratorSpec(family, n=n, seed=3))
        mid = structure.domain.mean(axis=1)
        want = check_ineq_n2over3(structure.metric_at(mid), structure.cubic_at(mid))[0]
        real_norm_gap = points.norm_gap
        gaps = []

        def spy_norm_gap(a):
            gaps.append(real_norm_gap(a))
            return gaps[-1]

        def no_certificate(*_):
            raise AssertionError("check_structure built the norm-gap certificate")

        monkeypatch.setattr(points, "norm_gap", spy_norm_gap)
        monkeypatch.setattr(points, "check_ineq_n2over3", no_certificate)
        monkeypatch.setattr(points, "trace_free_projection", no_certificate)
        checks = {c.id: c for c in suites.check_structure(structure).checks}
        assert [float(g) for g in gaps] == [want]
        assert checks["normgap-inequality"].residual == max(-want, 0.0)


SCALED_ROWS = ("normgap-inequality", "commutator-scalar-two-routes",
               "commutator-ricci-two-routes")


class TestCheckScaledBars:
    """check_structure's rows that compare terms of size ||A||^2_g carry 1e-12 (1 + ||A||^2_g)."""

    @staticmethod
    def failures(structures):
        return sum(c.verdict == "fail" for g, a in structures
                   for c in suites.check_structure((g, a)).checks)

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e4])
    def test_large_a_passes(self, scale):
        # against an absolute 1e-12 bar the commutator rows fail on most draws at x100
        rng = np.random.default_rng(5)
        structures = []
        for _ in range(60):
            g, a = random_stat_point(int(rng.integers(2, 5)), rng, metric="random")
            structures.append((g, a * scale))
        assert self.failures(structures) == 0

    def test_pure_trace_structures_pass(self):
        # exact equality points of the norm-gap inequality, with ||A|| up to ~100
        rng = np.random.default_rng(82)
        structures = []
        for _ in range(100):
            g = points.random_metric(int(rng.integers(2, 5)), rng)
            structures.append((g, trace_part(g, rng.uniform(-30.0, 30.0, len(g)))))
        assert self.failures(structures) == 0

    def test_bar_is_the_rule_times_one_plus_the_norm(self):
        rng = np.random.default_rng(9)
        g, a = random_stat_point(3, rng, metric="random")
        a = a * 50.0
        checks = {c.id: c for c in suites.check_structure((g, a)).checks}
        ginv = np.linalg.inv(g)
        norm_sq = np.einsum("ip,jq,kr,ijk,pqr->", ginv, ginv, ginv, a, a)
        for row in SCALED_ROWS:
            assert checks[row].tolerance == pytest.approx(1e-12 * (1.0 + norm_sq), rel=1e-12)
        # the algebraic suite's rows of the same stems keep their absolute bar
        algebraic = suites.run_suite("algebraic", suites.SuiteConfig(seeds=1, sweep_count=100))
        bars = [c.tolerance for c in algebraic.checks if c.id in SCALED_ROWS[1:]]
        assert bars == [1e-12, 1e-12]

    def test_planted_commutator_defect_still_fails(self, monkeypatch):
        # a relative defect of 1e-9 in Ric^K stands 1e3 times above the scaled bar
        original = points.ric_k
        monkeypatch.setattr(points, "ric_k", lambda *args: original(*args) * (1.0 + 1e-9))
        g, a = random_stat_point(3, np.random.default_rng(9), metric="random")
        checks = {c.id: c for c in suites.check_structure((g, a * 100.0)).checks}
        assert checks["commutator-ricci-two-routes"].verdict == "fail"


def eighth_witness_oracle(g, a, u):
    """The eighth certificate's witnesses by coordinate formulas: K, tau and E in coordinates,
    the g-norm of E - 4K(U,U), and A(U,V,W) over the adapted frame."""
    ginv, k, tau, e = difference_tensor(g, a)
    u_hat = u / np.sqrt(u @ g @ u)
    rest = points._adapted_frame(g, u)[:, 1:]
    block = np.einsum("ijk,i,jb,kc->bc", a, u_hat, rest, rest)
    v = e - 4.0 * np.einsum("mij,i,j->m", k, u_hat, u_hat)
    return [float(np.max(np.abs(block), initial=0.0)), float(tau @ u_hat),
            float(np.sqrt(v @ g @ v))]


class TestEighthCertificate:
    @pytest.mark.parametrize("seed", range(16))
    def test_witnesses_match_coordinate_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = 2 + seed % 4
        g, a = random_stat_point(n, rng, metric="random")
        u = rng.uniform(-1.0, 1.0, n)
        # remove A(U,U,U) along the covector g(U/|U|, .) so the bound applies at U
        xi = g @ u / np.sqrt(u @ g @ u)
        a = a - np.einsum("ijk,i,j,k->", a, *[u / np.sqrt(u @ g @ u)] * 3) * np.einsum(
            "i,j,k->ijk", xi, xi, xi)
        _, _, cert = check_ineq_eighth(g, a, u)
        got = [value for _, value in cert.witnesses]
        scale = 1.0 + np.sqrt(norm_a_sq(g, a))
        assert np.all(np.abs(np.subtract(got, eighth_witness_oracle(g, a, u))) <= 1e-12 * scale)

    def test_equality_point_witnesses(self, eq_point):
        _, _, cert = check_ineq_eighth(*eq_point, [1.0, 0.0])
        assert [value for _, value in cert.witnesses] == eighth_witness_oracle(
            *eq_point, np.array([1.0, 0.0])) == [0.0, 0.0, 0.0]


class TestScalarGapBounds:
    def test_equality_point(self, eq_point):
        gap, lower_13, lower_n2 = scalar_gap_bounds(*eq_point)
        assert gap == pytest.approx(-4.0, abs=1e-12)
        assert lower_13 == pytest.approx(-4.0, abs=1e-12)
        assert gap >= lower_13 - 1e-12
        assert gap >= lower_n2 - 1e-12

    def test_zero(self):
        assert scalar_gap_bounds(*zero_point(3)) == (0.0, 0.0, 0.0)

    def test_random_sweep_n3(self):
        for seed in range(100):
            sp = random_stat_point(3, np.random.default_rng(seed), metric="random")
            gap, lower_13, lower_n2 = scalar_gap_bounds(*sp)
            assert gap >= lower_13 - 1e-12
            assert gap >= lower_n2 - 1e-12


class TestLPQ:
    def test_g3_values(self, g3_point):
        normsq_l, normsq_p, _, pairing = lpq(*g3_point)
        assert normsq_l == pytest.approx(8.0, abs=1e-12)
        assert normsq_p == pytest.approx(16.0, abs=1e-12)
        assert -pairing == pytest.approx(24.0, abs=1e-12)
        u = norm_a_sq(*g3_point)
        assert normsq_l + normsq_p == pytest.approx(1.5 * u * u, abs=1e-10)

    def test_zero(self):
        normsq_l, normsq_p, q, pairing = lpq(*zero_point(3))
        assert normsq_l == normsq_p == pairing == 0.0
        assert isinstance(q, np.ndarray) and q.shape == (3, 3, 3) and np.all(q == 0.0)

    def test_pairing_identity_and_bounds_trace_free(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 6))
            sp = random_stat_point(n, rng, trace_free=True)
            normsq_l, normsq_p, _, pairing = lpq(*sp)
            total = normsq_l + normsq_p
            assert -pairing == pytest.approx(total, rel=1e-10, abs=1e-10)
            u = norm_a_sq(*sp)
            assert total >= (n + 1) / (n * (n - 1)) * u * u - 1e-10
            assert total <= 1.5 * u * u + 1e-10

    def test_n2_forces_li_equality(self):
        for seed in range(30):
            sp = random_stat_point(2, np.random.default_rng(seed), trace_free=True)
            normsq_l, normsq_p, _, _ = lpq(*sp)
            u = norm_a_sq(*sp)
            assert normsq_l + normsq_p == pytest.approx(1.5 * u * u, abs=1e-10 * max(1.0, u * u))


def metric_arrays(g):
    return g, metric_factors(g)[0]


class TestConstantCurvature:
    def test_r0_itself(self, rng):
        g = np.eye(3)
        assert constant_curvature_residual(
            r0_curvature(g), *metric_arrays(g), 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_g3_is_constant_curvature(self, g3_point):
        b = bracket_kk(*g3_point)
        g = g3_point[0]
        assert constant_curvature_residual(b, *metric_arrays(g), -2.0) < 1e-12
        assert best_fit_curvature_coefficient(*metric_arrays(g), b) == pytest.approx(
            -2.0, abs=1e-12)

    def test_r0_against_zero(self):
        g = np.eye(4)
        n = 4
        assert constant_curvature_residual(
            r0_curvature(g), *metric_arrays(g), 0.0) == pytest.approx(
            np.sqrt(2 * n * (n - 1)), abs=1e-12
        )

    def test_single_point_gives_floats(self, g3_point):
        g, ginv = metric_arrays(g3_point[0])
        b = bracket_kk(*g3_point)
        assert type(constant_curvature_residual(b, g, ginv, -2.0)) is float
        assert type(best_fit_curvature_coefficient(g, ginv, b)) is float

    def test_batch_matches_points(self, rng):
        sps = [random_stat_point(3, rng, metric="random") for _ in range(6)]
        g = np.stack([sp[0] for sp in sps]).reshape(2, 3, 3, 3)
        ginv = np.stack([metric_arrays(sp[0])[1] for sp in sps]).reshape(2, 3, 3, 3)
        r = np.stack([bracket_kk(*sp) for sp in sps]).reshape((2, 3) + (3,) * 4)
        h = best_fit_curvature_coefficient(g, ginv, r)
        residual = constant_curvature_residual(r, g, ginv, h)
        assert h.shape == residual.shape == (2, 3)
        for i, sp in enumerate(sps):
            h_one = best_fit_curvature_coefficient(*metric_arrays(sp[0]), bracket_kk(*sp))
            assert h.ravel()[i] == h_one
            assert residual.ravel()[i] == constant_curvature_residual(
                bracket_kk(*sp), *metric_arrays(sp[0]), h_one)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            constant_curvature_residual(np.zeros((3, 3, 3, 3)), np.eye(2), np.eye(2), 0.0)


class TestFitConstantCurvature:
    def test_exact_multiple_returns_h(self, rng):
        g = random_stat_point(3, rng, metric="random")[0]
        r = -1.7 * r0_curvature(g)
        assert fit_constant_curvature(*metric_arrays(g), r, 1e-12) == pytest.approx(
            -1.7, abs=1e-12)

    def test_supplied_h_is_returned_when_it_fits(self, g3_point):
        assert fit_constant_curvature(
            *metric_arrays(g3_point[0]), bracket_kk(*g3_point), 1e-12, -2.0) == -2.0

    def test_wrong_supplied_h_raises(self, g3_point):
        with pytest.raises(PreconditionError, match="curvature is not H R0 at x"):
            fit_constant_curvature(*metric_arrays(g3_point[0]), bracket_kk(*g3_point), 1e-4, 5.0)

    def test_non_constant_curvature_raises(self):
        # at n = 2 every curvature tensor is a multiple of R0; at n = 3 a random [K,K] is not
        sp = random_stat_point(3, np.random.default_rng(5))
        with pytest.raises(PreconditionError, match="fit residual"):
            fit_constant_curvature(*metric_arrays(sp[0]), bracket_kk(*sp), 1e-4)

    def test_batch_raises_at_first_failing_point(self, rng):
        # points 0 and 2 are exact multiples of R0; point 1 is a random [K,K] at n = 3
        g, ginv = metric_arrays(random_stat_point(3, rng, metric="random")[0])
        bad = random_stat_point(3, np.random.default_rng(5))
        r = np.stack([-1.7 * r0_curvature(g), bracket_kk(*bad), 0.5 * r0_curvature(g)])
        gs = np.stack([g, np.eye(3), g])
        ginvs = np.stack([ginv, np.eye(3), ginv])
        h = best_fit_curvature_coefficient(gs, ginvs, r)
        fit = constant_curvature_residual(r, gs, ginvs, h)
        with pytest.raises(PreconditionError, match=f"fit residual {fit[1]:g}"):
            fit_constant_curvature(gs, ginvs, r, 1e-4)
        keep = [0, 2]
        fitted = fit_constant_curvature(gs[keep], ginvs[keep], r[keep], 1e-12)
        assert np.array_equal(fitted, h[keep])


class TestLagrangianGauss:
    def test_trivial(self):
        g, a = zero_point(3)
        residual, scalar_residual = lagrangian_gauss_residual(g, a, 2.0 * r0_curvature(g), 2.0)
        assert residual < 1e-12
        assert scalar_residual < 1e-11

    def test_g3_needs_c_equal_2(self, g3_point):
        rhat = np.zeros((2, 2, 2, 2))
        residual, scalar_residual = lagrangian_gauss_residual(*g3_point, rhat, 2.0)
        assert residual < 1e-12
        assert scalar_residual < 1e-12
        bad, _ = lagrangian_gauss_residual(*g3_point, rhat, 1.0)
        assert bad > 1.0

    def test_random_smoke(self, rng):
        sp = random_stat_point(3, rng, metric="random")
        arr = rng.uniform(-1, 1, (3, 3, 3, 3))
        arr = arr - np.swapaxes(arr, 0, 1)
        residual, scalar_residual = lagrangian_gauss_residual(*sp, arr, 0.7)
        assert residual > 0.0
        assert np.isfinite(scalar_residual)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_equals_each_structure_alone(self, n):
        rng = np.random.default_rng(50 + n)
        sps = [random_stat_point(n, rng, metric="random") for _ in range(3)]
        rhat = rng.uniform(-1, 1, (3,) + (n,) * 4)
        rhat = rhat - np.swapaxes(rhat, -4, -3)
        g, a = (np.stack(parts) for parts in zip(*sps))
        stacked = lagrangian_gauss_residual(g, a, rhat, 0.7)
        alone = [lagrangian_gauss_residual(*sp, r, 0.7) for sp, r in zip(sps, rhat)]
        for part in (0, 1):
            assert [float(v).hex() for v in stacked[part]] == [
                float(value[part]).hex() for value in alone]


class TestGeneratorHelpers:
    def test_trace_free_projection(self, rng):
        g, a = random_stat_point(4, rng, metric="random")
        e = difference_tensor(g, trace_free_part(g, a))[3]
        assert np.sqrt(e @ g @ e) < points.TRACE_FREE_TOL

    def test_determinism(self):
        a = random_stat_point(3, 99, metric="random")
        b = random_stat_point(3, 99, metric="random")
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], b[0])


class TestRicciComparisonChain:
    def test_quadratic_form_version(self, rng):
        # 2 Ric_hat - Ric - Ric_bar + ||tau||^2 g / 2 reduces algebraically to
        # 2 (g(K_.,K_.) - tau o K + ||tau||^2 g / 4); positive semi-definite always.
        from codazzi.tensors import gram_k, tau_circ_k

        for seed in range(50):
            g, a = random_stat_point(4, np.random.default_rng(seed), metric="random")
            ginv, k, tau, _ = difference_tensor(g, a)
            tau_sq = float(tau @ ginv @ tau)
            form = gram_k(ginv, g, k) - tau_circ_k(tau, k) + 0.25 * tau_sq * g
            # eigenvalues w.r.t. g via the orthonormal frame
            b = metric_factors(g)[1]
            eigs = np.linalg.eigvalsh(b.T @ form @ b)
            assert np.all(eigs >= -1e-8)


def _frame_vectors(sps, us):
    return np.stack([metric_factors(g)[1].T @ g @ u for (g, _), u in zip(sps, us)])


def _quarter_scales(sps, us):
    """Size of the quarter-inequality terms at each point: ||A||^2 g(U,U)."""
    return [norm_a_sq(g, a) * float(u @ g @ u) for (g, a), u in zip(sps, us)]


def _close(value, oracle, scale):
    """Agreement within 1e-12 relative to the size of the terms that were combined."""
    assert np.all(np.abs(np.asarray(value) - np.asarray(oracle)) <= 1e-12 * np.maximum(scale, 1.0))


class TestBatchedKernels:
    """One kernel call over a batch equals per-point (g, a) calls and the coordinate formulas.

    The oracles are the coordinate-form expressions (g^{-1}, K, tau) of the
    pointwise checks, before they were routed through the frame kernels.
    """

    COUNT = 25

    @pytest.fixture(params=[2, 3, 4])
    def batch(self, request):
        n = request.param
        rng = np.random.default_rng(700 + n)
        sps = [random_stat_point(n, rng, metric="random") for _ in range(self.COUNT)]
        us = rng.uniform(-1.0, 1.0, (self.COUNT, n))
        return sps, us, np.stack([frame_cubic(*sp) for sp in sps])

    def test_quarter_terms(self, batch):
        sps, us, a_hat = batch
        lhs, tau_sq, u_sq, _ = points.quarter_terms(a_hat, _frame_vectors(sps, us))
        single = np.array([check_ineq_quarter(*sp, u)[:2] for sp, u in zip(sps, us)])
        assert np.array_equal(lhs, single[:, 0])
        assert np.array_equal(0.25 * tau_sq * u_sq, single[:, 1])
        for sp, u, value, t2, scale in zip(sps, us, lhs, tau_sq, _quarter_scales(sps, us)):
            g = sp[0]
            ginv, k, tau, _ = difference_tensor(*sp)
            ku = np.einsum("mij,i->mj", k, u)
            oracle = float(tau @ np.einsum("mij,i,j->m", k, u, u)) - float(
                np.einsum("ab,mn,ma,nb->", ginv, g, ku, ku))
            _close(value, oracle, scale)
            _close(t2, tau @ ginv @ tau, scale)

    def test_eighth_uses_the_quarter_terms(self, batch):
        sps, us, _ = batch
        n = len(sps[0][0])
        # drop A(e1,e1,e1) so the eighth bound applies at U = e1
        sps = [(g, without_a111(a)) for g, a in sps]
        e1 = np.tile(np.eye(n)[0], (len(sps), 1))
        a_hat = np.stack([frame_cubic(*sp) for sp in sps])
        lhs, tau_sq, u_sq, _ = points.quarter_terms(a_hat, _frame_vectors(sps, e1))
        single = np.array([check_ineq_eighth(*sp, e1[0])[:2] for sp in sps])
        assert np.array_equal(lhs, single[:, 0])
        assert np.array_equal(0.125 * tau_sq * u_sq, single[:, 1])
        for sp, value in zip(sps, single[:, 1]):
            ginv, _, tau, _ = difference_tensor(*sp)
            tau_sq_oracle = float(tau @ ginv @ tau)
            _close(value, 0.125 * tau_sq_oracle * sp[0][0, 0], norm_a_sq(*sp))

    def test_norm_gap(self, batch):
        sps, _, a_hat = batch
        gap = points.norm_gap(a_hat)
        assert np.array_equal(gap, [check_ineq_n2over3(*sp)[0] for sp in sps])
        for (g, a), value in zip(sps, gap):
            e = difference_tensor(g, a)[3]
            oracle = (len(g) + 2) / 3.0 * norm_a_sq(g, a) - e @ g @ e
            _close(value, oracle, norm_a_sq(g, a))

    def test_scalar_gap_terms(self, batch):
        sps, _, a_hat = batch
        terms = np.stack(points.scalar_gap_terms(a_hat), axis=-1)
        assert np.array_equal(terms, [scalar_gap_bounds(*sp) for sp in sps])
        for (g, a), row in zip(sps, terms):
            n = len(g)
            a2 = norm_a_sq(g, a)
            e = difference_tensor(g, a)[3]
            e2 = e @ g @ e
            _close(row, [a2 - e2, -(n - 1) / 3.0 * a2, -(n - 1) / (n + 2) * e2], a2)

    def test_trace_free_projection(self, batch):
        sps, _, a_hat = batch
        projected = points.trace_free_projection(a_hat)
        for (g, a), value in zip(sps, projected):
            single = trace_free_part(g, a)
            # trace_free_part maps the frame result back to coordinates, so the
            # comparison goes through one more change of frame
            _close(frame_components(metric_factors(g)[1], single), value, np.max(np.abs(value)))
            w = np.einsum("ab,abm->m", metric_factors(g)[0], a) / (len(g) + 2)
            oracle = a - (
                np.einsum("i,jk->ijk", w, g) + np.einsum("j,ik->ijk", w, g)
                + np.einsum("k,ij->ijk", w, g)
            )
            _close(single, oracle, np.max(np.abs(oracle)))
        assert np.max(np.abs(points.trace_form(projected))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_trace_free_projection_matches_the_three_terms(self, n, shape):
        # the table-driven trace part equals the sum of its three Kronecker-delta terms bitwise
        a = np.random.default_rng(n).uniform(-1.0, 1.0, shape + (n, n, n))
        w = points.trace_form(a) / (n + 2)
        eye = np.eye(n)
        oracle = a - (np.einsum("...i,jk->...ijk", w, eye) + np.einsum("...j,ik->...ijk", w, eye)
                      + np.einsum("...k,ij->...ijk", w, eye))
        assert np.array_equal(points.trace_free_projection(a), oracle)

    def test_lp_norms(self, batch):
        sps, _, a_hat = batch
        l2, p2 = points.lp_norms(a_hat)
        assert np.array_equal(np.stack([l2, p2], axis=-1), [lpq(*sp)[:2] for sp in sps])
        for (g, a), l_value, p_value in zip(sps, l2, p2):
            ginv = metric_factors(g)[0]
            lt = np.einsum("abm,mn,cdn->abcd", a, ginv, a)
            pt = lt - np.transpose(lt, (2, 1, 0, 3))
            scale = norm_a_sq(g, a) ** 2
            _close(l_value, contract(ginv, lt, lt), scale)
            _close(p_value, contract(ginv, pt, pt), scale)



def _kernel_operands(n, count, seed):
    """Operands of each batched kernel, C-ordered with one leading batch axis of count rows."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (count, n, n, n))
    vec = rng.uniform(-1.0, 1.0, (3, count, n))
    ku = rng.uniform(-1.0, 1.0, (count, n, n))
    return {
        "trace_form": (a,), "cubic_norm_sq": (a,), "norm_gap": (a,), "scalar_gap_terms": (a,),
        "trace_free_projection": (a,), "lp_norms": (a,), "_dot": (vec[0], vec[1]),
        "quarter_parts": (vec[0], vec[1], ku), "quarter_terms": (a, vec[2]),
    }


def _batch_last_copy(x):
    """x's values with its leading batch axis innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def _outputs(value):
    return value if isinstance(value, tuple) else (value,)


def _ordered_sum(terms):
    """0 + t_0 + t_1 + ..., one elementwise add at a time, in the given order."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


class TestBatchLayout:
    """Each batched kernel gives a point the same bits in a block of either memory layout,
    in a batch of one and alone."""

    COUNT = 2000

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kernel", ["trace_form", "cubic_norm_sq", "_dot", "quarter_parts",
                                        "quarter_terms", "norm_gap", "scalar_gap_terms",
                                        "trace_free_projection", "lp_norms"])
    def test_layouts_batches_and_points_share_bits(self, kernel, n):
        fn = getattr(points, kernel)
        operands = _kernel_operands(n, self.COUNT, seed=n)[kernel]
        laid = [_batch_last_copy(x) for x in operands]
        assert all(np.moveaxis(x, 0, -1).flags.c_contiguous for x in laid)
        c_ordered = _outputs(fn(*operands))
        for got, want in zip(_outputs(fn(*laid)), c_ordered):
            assert np.array_equal(got, want)
        # every row alone, as a batch of one and as a single point (rows spread over the block)
        for row in [*range(0, self.COUNT, 97), self.COUNT - 1]:
            one = _outputs(fn(*(x[row:row + 1] for x in operands)))
            single = _outputs(fn(*(x[row] for x in operands)))
            for batch, alone, want in zip(one, single, c_ordered):
                assert batch.shape == want[row:row + 1].shape and np.shape(alone) == want[row].shape
                assert np.array_equal(batch[0], want[row]) and np.array_equal(alone, want[row])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("count", [1, 2, 2000])
    def test_contractions_are_fixed_order_sums(self, n, count):
        # the sum over the short slots runs in index order, one elementwise add per term
        ops = _kernel_operands(n, count, seed=10 + n)
        a = ops["trace_form"][0]
        x, y = ops["_dot"]
        triples = list(itertools.product(range(n), repeat=3))
        assert np.array_equal(points.trace_form(a), _ordered_sum(a[:, i, i] for i in range(n)))
        assert np.array_equal(points.cubic_norm_sq(a),
                              _ordered_sum(a[:, i, j, k] ** 2 for i, j, k in triples))
        assert np.array_equal(points._dot(x, y), _ordered_sum(x[:, m] * y[:, m] for m in range(n)))
        assert np.array_equal(points._dot(x[0], y[0]),
                              _ordered_sum(x[0, m] * y[0, m] for m in range(n)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_broadcast_operands_share_bits_with_points(self, n):
        # one cubic form against a batch of vectors, as the Ricci-comparison form polarizes it
        a, u = _kernel_operands(n, 6, seed=20 + n)["quarter_terms"]
        batched = points.quarter_terms(a[0], u.reshape(2, 3, n))
        for got, out in zip(batched, zip(*(points.quarter_terms(a[0], row) for row in u))):
            assert np.array_equal(got.reshape(-1), out)
