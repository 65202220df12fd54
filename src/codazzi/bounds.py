"""Closed-form bound calculators and pointwise inequality checkers.

For trace-free structures of constant curvature H the Laplacian of
u = ||A||^2 is pinched between two quadratic expressions; combining that
sandwich with a maximum principle yields sup/inf bounds on u in terms of
sup/inf of ||nabla A||^2.  This module computes those bound formulas and
checks them against concrete structures; completeness of the metric is a
global hypothesis the checks cannot certify, so structures are labeled
hypothesis-satisfying by construction (constant fields, periodic charts)
rather than verified complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charts import (
    ChartStructure,
    nabla_cubic_at,
    scalar_laplacian_at,
    squared_norm_field,
    statistical_connections,
)
from .errors import PreconditionError
from .points import best_fit_curvature_coefficient
from .tensors import CurvTensor, contract, inner, r0_curvature


@dataclass
class BoundReport:
    """Bound formulas evaluated for one structure; serialized under the report key "bounds"."""

    n: int
    H: float
    N2: float | None = None
    N4: float | None = None
    intervals: dict = field(default_factory=dict)
    feasible: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "H": self.H,
            "intervals": {k: list(v) for k, v in self.intervals.items()},
            "feasible": dict(self.feasible),
            "notes": list(self.notes),
        }
        if self.N2 is not None:
            out["N2"] = self.N2
        if self.N4 is not None:
            out["N4"] = self.N4
        return out


def calabi_sup_bound(n: int, h_curv: float) -> float:
    """Supremum bound u <= n(n-1)(-H) for complete trace-free structures, H < 0."""
    if h_curv >= 0:
        raise PreconditionError(
            "H >= 0 forces the trivial structure (A = 0); no supremum bound applies"
        )
    return n * (n - 1) * (-h_curv)


@dataclass(frozen=True)
class Band:
    """Closed interval with a triviality flag for the degenerate H >= 0 case."""

    lo: float
    hi: float
    trivial: bool = False


def parallel_cubic_band(n: int, h_curv: float) -> Band:
    """Range of u for structures with parallel cubic form: [2(n+1)(-H)/3, n(n-1)(-H)].

    For H >= 0 the cubic form vanishes and the band degenerates to {0}.
    """
    if h_curv >= 0:
        return Band(0.0, 0.0, trivial=True)
    return Band(2.0 / 3.0 * (n + 1) * (-h_curv), n * (n - 1) * (-h_curv))


@dataclass(frozen=True)
class Dichotomy:
    """Two-branch conclusion: the quantity is <= lo or >= hi (never strictly between)."""

    feasible: bool
    lo: float | None
    hi: float | None

    def holds_for(self, value: float, tol: float = 1e-12) -> bool:
        if not self.feasible:
            return True
        return value <= self.lo + tol or value >= self.hi - tol


def inf_u_dichotomy(n: int, h_curv: float, sup_nabla_a_sq: float) -> Dichotomy:
    """Branches for inf u given N2 = sup ||nabla A||^2, when N2 < H^2(n+1)^2/6.

    The two branch values are the roots of -(3/2)t^2 - (n+1)H t - N2 (the
    epsilon -> 0 limit of the maximum-principle polynomial): inf u lies at
    or below the smaller root, or at or above the larger one.
    """
    if h_curv >= 0:
        raise PreconditionError("the dichotomy requires a negative curvature constant H")
    if sup_nabla_a_sq < 0:
        raise PreconditionError("sup ||nabla A||^2 must be nonnegative")
    threshold = h_curv**2 * (n + 1) ** 2 / 6.0
    disc = (n + 1) ** 2 * h_curv**2 - 6.0 * sup_nabla_a_sq
    if abs(disc) < 1e-12 * (n + 1) ** 2 * h_curv**2:
        disc = 0.0
    if disc < 0.0:
        return Dichotomy(feasible=False, lo=None, hi=None)
    # branches exist up to the boundary, where they coincide at (n+1)(-H)/3;
    # the dichotomy conclusion itself needs the strict inequality
    radical = math.sqrt(disc)
    lo = ((n + 1) * (-h_curv) - radical) / 3.0
    hi = ((n + 1) * (-h_curv) + radical) / 3.0
    return Dichotomy(feasible=bool(sup_nabla_a_sq < threshold), lo=lo, hi=hi)


def conditional_inf_u_lower_bound(n: int, h_curv: float, sup_nabla_a_sq: float, inf_u: float):
    """Lower-bound refinement: if inf u exceeds the lower branch, u >= upper branch everywhere.

    Separate from the dichotomy on purpose: this variant takes an inf-u
    hypothesis and H only needs to be a negative number.
    """
    d = inf_u_dichotomy(n, h_curv, sup_nabla_a_sq)
    if not d.feasible:
        raise PreconditionError("sup ||nabla A||^2 is not below H^2(n+1)^2/6")
    if inf_u <= d.lo:
        return None
    return d.hi


def sup_u_bounds(n: int, h_curv: float, inf_nabla_a_sq: float) -> BoundReport:
    """Bound on inf ||nabla A||^2 and the resulting interval for sup u.

    nabla_bound = n(n^2-1)H^2/4 must dominate inf ||nabla A||^2 for complete
    metrics; with N4 = n(n-1)/(n+1) * inf ||nabla A||^2 the value sup u lies in
    [ (n(n-1)(-H) - sqrt(n^2(n-1)^2 H^2 - 4 N4)) / 2, (... + sqrt ...) / 2 ].
    """
    if h_curv >= 0:
        raise PreconditionError("the sup-u interval requires a negative H")
    if inf_nabla_a_sq < 0:
        raise PreconditionError("inf ||nabla A||^2 must be nonnegative")
    # coefficient first, then the square: keeps n = 2 bitwise equal to 1.5 H^2
    nabla_bound = (n * (n * n - 1) / 4.0) * (h_curv * h_curv)
    n4 = n * (n - 1) / (n + 1) * inf_nabla_a_sq
    report = BoundReport(n=n, H=h_curv, N4=n4)
    report.intervals["nabla_bound"] = (0.0, nabla_bound)
    if inf_nabla_a_sq > nabla_bound:
        report.feasible["sup_u"] = False
        report.notes.append(
            "inf ||nabla A||^2 exceeds n(n^2-1)H^2/4, contradicting completeness"
        )
        return report
    disc = n**2 * (n - 1) ** 2 * h_curv**2 - 4.0 * n4
    radical = math.sqrt(max(disc, 0.0))
    mid = n * (n - 1) * (-h_curv)
    report.feasible["sup_u"] = True
    report.intervals["sup_u"] = ((mid - radical) / 2.0, (mid + radical) / 2.0)
    return report


def surface_u_bounds(
    h1: float, h2: float, inf_hat_u: float, sup_hat_u: float | None = None
) -> BoundReport:
    """Two-dimensional bounds with a pinched curvature function H2 <= H <= H1 <= 0.

    Always: inf ||nabla A||^2 <= (3/2) H2^2 and sup u lies in
    [-H2 - sqrt(H2^2 - (2/3) inf_hat_u), -H2 + sqrt(...)].  When additionally
    sup_hat_u <= (3/2) H1^2, inf u obeys the two-branch dichotomy with
    branches -H1 -+ sqrt(H1^2 - (2/3) sup_hat_u).
    """
    if not (h2 <= h1 <= 0.0):
        raise PreconditionError(f"curvature bounds must satisfy H2 <= H1 <= 0, got {h2}, {h1}")
    if inf_hat_u < 0:
        raise PreconditionError("inf ||nabla A||^2 must be nonnegative")
    report = BoundReport(n=2, H=h1)
    cap = 1.5 * h2**2
    if inf_hat_u > cap:
        report.feasible["sup_u"] = False
        report.notes.append("inf ||nabla A||^2 exceeds (3/2) H2^2, contradicting completeness")
        return report
    radical = math.sqrt(h2**2 - (2.0 / 3.0) * inf_hat_u)
    report.feasible["sup_u"] = True
    report.intervals["sup_u"] = (-h2 - radical, -h2 + radical)
    if sup_hat_u is not None:
        if sup_hat_u < 0:
            raise PreconditionError("sup ||nabla A||^2 must be nonnegative")
        if sup_hat_u <= 1.5 * h1**2:
            rad2 = math.sqrt(h1**2 - (2.0 / 3.0) * sup_hat_u)
            report.feasible["inf_u_dichotomy"] = True
            report.intervals["inf_u_branches"] = (-h1 - rad2, -h1 + rad2)
        else:
            report.feasible["inf_u_dichotomy"] = False
    return report


# ---------------------------------------------------------------------------
# pointwise sandwich and scalar-curvature corollaries


def simons_sandwich_check(
    cs: ChartStructure,
    x,
    h_curv: float | None = None,
    trace_tol: float = 1e-8,
    fit_tol: float = 1e-4,
) -> tuple[float, float]:
    """Gaps of the Laplacian sandwich for u = ||A||^2 at a point.

    Requires the structure to be trace-free at x and the statistical
    curvature to be H R0 there (H estimated by least squares when not
    supplied; a bad fit raises PreconditionError).  Returns (lower_gap,
    upper_gap), both >= -tol(h) when the hypotheses hold; at n = 2 both
    gaps vanish to FD accuracy.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    n = cs.n
    sp = cs.point(x)
    if sp.g.norm(sp.E) > trace_tol:
        raise PreconditionError(f"structure is not trace-free at x (|E| = {sp.g.norm(sp.E):g})")
    conn = statistical_connections(cs, x)
    r = CurvTensor(0.5 * (conn.r_nabla - np.swapaxes(conn.r_nabla, 0, 1)))
    if h_curv is None:
        h_curv = best_fit_curvature_coefficient(sp.g, r)
    r0 = r0_curvature(sp.g)
    fit = math.sqrt(max(inner(sp.g, r.array - h_curv * r0.array, r.array - h_curv * r0.array), 0.0))
    if fit > fit_tol * (1.0 + abs(h_curv)):
        raise PreconditionError(f"curvature is not H R0 at x (fit residual {fit:g})")

    u_field = squared_norm_field(cs, cs.a_field)
    u = float(u_field(x))
    half_lap_u = 0.5 * scalar_laplacian_at(cs, u_field, x)
    ginv = cs.metric_inverse_at(x)
    na = nabla_cubic_at(cs, x)
    nabla_sq = contract(ginv, na, na)

    lower = (n + 1) * h_curv * u + (n + 1) / (n * (n - 1)) * u * u + nabla_sq
    upper = (n + 1) * h_curv * u + 1.5 * u * u + nabla_sq
    return half_lap_u - lower, upper - half_lap_u


def sphere_scalar_lower_bounds(n: int, h_curv: float, e_sq: float, a_sq: float) -> tuple[float, float]:
    """Lower bounds on the Riemannian scalar curvature when R = H R0."""
    return (
        (n - 1) / (n + 2) * (h_curv * n * (n + 2) - e_sq),
        (n - 1) / 3.0 * (3.0 * h_curv * n - a_sq),
    )


def lagrangian_scalar_upper_bounds(n: int, c: float, e_sq: float, a_sq: float) -> tuple[float, float]:
    """Upper bounds on the Riemannian scalar curvature when c R0 = R_hat - [K,K].

    The mean-curvature norm enters as ||mu||^2 = ||E||^2 / n^2.
    """
    mu_sq = e_sq / n**2
    return (
        n * (n - 1) / (n + 2) * (c * (n + 2) + n * mu_sq),
        (n - 1) / 3.0 * (3.0 * c * n + a_sq),
    )


def discrete_max_probe(
    cs: ChartStructure, f, lattice_points: int = 48
) -> tuple[np.ndarray, float]:
    """Grid surrogate of the maximum principle on a fully periodic chart.

    Locates the lattice argmax of the scalar field (one call of f on the
    whole lattice) and returns it with the chart Laplacian there; on a
    compact surrogate the Laplacian at a maximum cannot exceed the FD
    tolerance.
    """
    if not all(cs.periodic):
        raise PreconditionError("the maximum probe needs a fully periodic chart")
    points = cs.lattice(lattice_points)
    best = points[int(np.argmax(f(points)))]
    return best, scalar_laplacian_at(cs, f, best)
