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
from .points import fit_constant_curvature
from .tensors import contract


@dataclass
class BoundReport:
    """Bound formulas evaluated for one structure; serialized under the report key "bounds"."""

    n: int
    H: float
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
# pointwise sandwich and the maximum-principle probe


# |E| is algebra on the cubic form at x (no FD step), so only round-off may remain
SANDWICH_TRACE_TOL = 1e-8
# relative g-norm of R - H R0 that counts as FD error of the curvature, not a non-constant one
SANDWICH_FIT_TOL = 1e-4


def simons_sandwich_check(cs: ChartStructure, x, h_curv: float | None = None):
    """Gaps of the Laplacian sandwich for u = ||A||^2 at each point of x[..., n].

    Requires the structure to be trace-free at x and the statistical curvature
    to be H R0 there (H fit per point when not supplied); PreconditionError names
    the first point, in batch order, that fails a test, the trace-free one first.
    Returns (lower_gap, upper_gap), floats at a single point, both >= -tol(h)
    when the hypotheses hold; at n = 2 both gaps vanish to FD accuracy.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    n = cs.n
    g, ginv, tau = cs.metric_at(x), cs.metric_inverse_at(x), cs.tau_at(x)
    # ||E||_g = ||tau|| against g^-1
    e_norm = np.sqrt(np.maximum(np.ravel(contract(ginv, tau, tau)), 0.0))
    conn = statistical_connections(cs, x)
    r = 0.5 * (conn.r_nabla - np.swapaxes(conn.r_nabla, -4, -3))
    not_trace_free = e_norm > SANDWICH_TRACE_TOL
    if np.any(not_trace_free):
        first = int(np.argmax(not_trace_free))
        # a point before it that fails the fit raises first
        fit_constant_curvature(*(a.reshape((-1,) + a.shape[x.ndim - 1:])[:first]
                                 for a in (g, ginv, r)), SANDWICH_FIT_TOL, h_curv)
        raise PreconditionError(f"structure is not trace-free at x (|E| = {e_norm[first]:g})")
    h_curv = fit_constant_curvature(g, ginv, r, SANDWICH_FIT_TOL, h_curv)

    u_field = squared_norm_field(cs, cs.a_field)
    u = u_field(x)
    half_lap_u = 0.5 * scalar_laplacian_at(cs, u_field, x)
    na = nabla_cubic_at(cs, x)
    nabla_sq = contract(ginv, na, na)

    lower = (n + 1) * h_curv * u + (n + 1) / (n * (n - 1)) * u * u + nabla_sq
    upper = (n + 1) * h_curv * u + 1.5 * u * u + nabla_sq
    return half_lap_u - lower, upper - half_lap_u


def discrete_max_probe(
    cs: ChartStructure, f, lattice_points: int = 48
) -> tuple[np.ndarray, float]:
    """Grid surrogate of the maximum principle on a fully periodic chart.

    Locates the lattice argmax of the scalar field, the first point in lattice order
    that holds the maximum, and returns it with the chart Laplacian there; on a
    compact surrogate the Laplacian at a maximum cannot exceed the FD tolerance.
    The lattice goes through cs.lattice_blocks, one call of f per block, each in an
    empty memo; only each block's first maximum is kept, so memory does not grow
    with the lattice.
    """
    cs.require_single("discrete_max_probe")
    if not all(cs.periodic):
        raise PreconditionError("the maximum probe needs a fully periodic chart")
    # each block's first maximum; the first of those that holds the largest is the lattice's
    candidates, maxima = [], []
    for block in cs.lattice_blocks(lattice_points):
        values = np.asarray(f(block))
        i = int(np.argmax(values))
        candidates.append(block[i].copy())
        maxima.append(values[i])
    best = candidates[int(np.argmax(maxima))]
    return best, scalar_laplacian_at(cs, f, best)
