"""Named verification suites producing machine-readable residual reports.

Every check carries: a stable id, the anchor string of the identity it
verifies (greppable back to the statement), the residual, the tolerance it
was compared against, a pass/fail/precondition-skipped verdict, and the
location (generator, seed, sample point) it was evaluated at; its anchor and
tolerance rule are its row of CHECKS.  Reports are deterministic for a fixed
(suite, config): byte-identical apart from the timing block.

Finite-difference tolerances are tol = C * h^2 * tol_scale with per-check
constants C frozen from calibration runs on the curved reference
generators (Hessian potential, conformal torus) at a x100 safety margin,
plus an absolute floor for identities that vanish exactly.

A process builds some things once and reuses them on every later run: each
product quadrature rule (in the cache of spheres) and the Monte Carlo
estimate of quadrature-cross-validation, taken once per seed by
spheres.integrate_monte_carlo from streamed nodes.  Everything else a check
reads is computed again on each run.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import charts as charts_mod
from . import points as points_mod
from . import spheres as spheres_mod
from .errors import ConstructionError, PreconditionError
from .expressions import compile_cache_info, field_eval_counts
from .generators import GeneratorSpec, generate, hyperbolic_point, equality_point, sample_points
from .structures_io import canonical_json
from .tensors import (batch_first, batch_last, core_first, metric_factor_counts,
                      metric_factors, symmetrize)

SUITE_NAMES = ("algebraic", "differential", "simons", "bounds", "integral", "all")

REPORT_SCHEMA = "codazzi-report/1"

# absolute floor added to every FD tolerance (identities that vanish exactly)
_FD_FLOOR = 1e-10

# per-check-family constants C in tol = C * h^2 (frozen from calibration runs)
FD_TOL_CONSTANTS = {
    "metricity": 50.0,
    "curvature-two-routes": 200.0,
    "duality": 400.0,
    "curvature-sum": 400.0,
    "conjugate-reduction": 200.0,
    "dual-pairing": 50.0,
    "ricci-decomposition": 200.0,
    "ricci-conjugate-sum": 100.0,
    "scalar-gap": 100.0,
    "koszul-form": 50.0,
    "koszul-trace": 50.0,
    "ricci-comparison": 100.0,
    "hessian-ricci": 100.0,
    "sectional-sum": 100.0,
    "curvature-invariants": 50.0,
    "ricci-identity": 100.0,
    "simons-formula": 200.0,
    "weitzenbock": 200.0,
    "simons-1form": 200.0,
    "sym2-simons": 200.0,
    "laplace-cubic": 400.0,
    "laplace-cubic-special": 400.0,
    "sandwich": 400.0,
    "curvature-closed-form": 700.0,
}


def fd_tol(family: str, h: float, tol_scale: float = 1.0) -> float:
    return FD_TOL_CONSTANTS[family] * h * h * tol_scale + _FD_FLOOR


@dataclass
class Check:
    id: str
    anchor: str
    residual: float
    tolerance: float
    verdict: str
    location: str

    def to_dict(self) -> dict:
        skipped = self.verdict == "precondition-skipped"
        return {
            "id": self.id,
            "anchor": self.anchor,
            "residual": None if skipped else float(self.residual),
            "tolerance": None if skipped else float(self.tolerance),
            "verdict": self.verdict,
            "location": self.location,
        }


# The smallest fiber_order the integral suite accepts.  The n = 2 product rule has
# max(2 order, 4) nodes and integrates trigonometric polynomials exactly only below that
# degree; the fiber integrands reach degree 6, so a rule of fewer than 8 nodes turns a
# correct identity into a failure.
MIN_FIBER_ORDER = 4


@dataclass
class SuiteConfig:
    seeds: int = 3
    h: float = 1e-3
    tol_scale: float = 1.0
    fiber_order: int = 12
    # the bundle-integral lattice only: the points per axis of the integral suite's
    # ros-integral, ros-total-derivative and ros-constant-field, and of its bundle-functional
    # at max(lattice, 64); the Ros refinement pair, the other bundle functionals and the
    # bounds suite's maximum probes read fixed lattices
    lattice: int = 32
    sweep_count: int = 2000

    def __post_init__(self):
        for name in ("seeds", "fiber_order", "lattice", "sweep_count"):
            value = getattr(self, name)
            # a count is an integer; a bool is not one, nor is a float of integer value
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConstructionError(f"{name} must be an integer, got {value!r}")
            if not value > 0:
                raise ConstructionError(f"{name} must be positive, got {value!r}")
            # a numpy integer as a Python int: the seed arithmetic and the report need one
            setattr(self, name, int(value))
        for name in ("h", "tol_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConstructionError(f"{name} must be finite and positive, got {value!r}")
        if self.fiber_order < MIN_FIBER_ORDER:
            raise ConstructionError(f"fiber_order must be at least {MIN_FIBER_ORDER}, got "
                                    f"{self.fiber_order!r}: fewer fiber nodes do not integrate "
                                    "the degree-6 fiber integrands exactly")

    def environment(self) -> dict:
        return {
            "seeds": self.seeds,
            "h": self.h,
            "tol_scale": self.tol_scale,
            "fiber_order": self.fiber_order,
            "lattice": self.lattice,
            "sweep_count": self.sweep_count,
        }


@dataclass
class ResidualReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.verdict == "fail"]

    @property
    def skipped(self) -> list[Check]:
        return [c for c in self.checks if c.verdict == "precondition-skipped"]

    def exit_status(self, strict: bool = False) -> int:
        if self.failures:
            return 1
        if strict and self.skipped:
            return 3
        return 0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "environment": dict(self.environment),
            "checks": [c.to_dict() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if c.verdict == "pass"),
                "failed": len(self.failures),
                "skipped": len(self.skipped),
            },
        }
        if self.bounds:
            out["bounds"] = self.bounds
        if include_timing:
            out["timing"] = dict(self.timing)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return canonical_json(self.to_dict(include_timing=include_timing))

    def to_csv(self) -> str:
        lines = ["id,anchor,residual,tolerance,verdict,location"]
        for c in self.checks:
            anchor = '"' + c.anchor.replace('"', '""') + '"'
            location = '"' + c.location.replace('"', '""') + '"'
            skipped = c.verdict == "precondition-skipped"
            residual = "" if skipped else repr(c.residual)
            tolerance = "" if skipped else repr(c.tolerance)
            lines.append(
                f"{c.id},{anchor},{residual},{tolerance},{c.verdict},{location}"
            )
        return "\n".join(lines) + "\n"


class FD(NamedTuple):
    """The FD tolerance rule: floor + C h^2 tol_scale + 1e-10 with C = FD_TOL_CONSTANTS[family].

    reading turns the value a producer returns into the residual.
    """

    family: str
    reading: Callable[[float], float] = float
    floor: float = 0.0


# the rule of a check whose bar comes from the run's own data: its one call site passes it
FROM_DATA = None

# lattice points per axis of the bounds suite's maximum probes; --lattice does not move it
MAX_PROBE_LATTICE = 32


class CheckRow(NamedTuple):
    anchor: str
    rule: float | FD | None  # a fixed bar, an FD rule, or FROM_DATA


# Every check, keyed by id stem: a check's id is its stem plus an optional -n{n},
# -halving{i}, -a{a}-b{b} or [field] suffix.  The stems are grouped under their anchor,
# the statement of the identity or inequality they verify (greppable back to the paper).
CHECKS = {stem: CheckRow(anchor, rule) for anchor, rows in (
    # pointwise inequalities, identities and squared-norm bounds
    ("(\\tau\\circ K)(U,U)-g(K_{U}, K_{U})\\le \\frac{1}{4}\\Vert \\tau\\Vert^2g(U,U)",
     {"quarter-sweep": 1e-12, "quarter-inequality": 1e-12}),
    ("\\frac{1}{8}\\Vert \\tau\\Vert^2g(U,U)",
     {"equality-point-eighth": 1e-12, "eighth-sweep": 1e-12, "eighth-inequality": 1e-12}),
    ("g(K(U,V),W)=0 for V,W perpendicular to U, E is perpendicular to U and E=4K(U,U)",
     {"equality-point-eighth-cert": 0.5}),
    ("\\frac{n+2}{3}\\Vert A\\Vert^2-\\Vert E\\Vert^2\\ge 0",
     {"equality-point-normgap": 1e-12, "equality-point-normgap-cert": 0.5,
      "normgap-sweep": 1e-12, "normgap-inequality": 1e-12}),
    ("\\hat\\rho-\\rho=\\Vert  A\\Vert^2-\\Vert E\\Vert^2\\ge -\\frac{n-1}{3}\\Vert A\\Vert^2",
     {"scalar-gap-lower-13": 1e-12}),
    ("\\ge -\\frac{n-1}{n+2}\\Vert E\\Vert^2", {"scalar-gap-lower-n2": 1e-12}),
    ("\\Ric^K (Y,Z)=\\tau(K(Y,Z))-g(K_Y,K_Z)", {"commutator-ricci-two-routes": 1e-12}),
    ("\\rho^K=\\Vert E\\Vert^2-\\Vert K\\Vert^2", {"commutator-scalar-two-routes": 1e-12}),
    ("a_{ij}=\\sum_{kl}A_{ikl}A_{jkl}", {"norm-pairing-identity": 1e-10}),
    ("\\ge \\frac{n+1}{n(n-1)}u^2", {"cubic-bound-lower": 1e-10}),
    ("\\le \\frac{3}{2}u^2", {"cubic-bound-upper": 1e-10}),
    ("\\Vert L\\Vert^2+\\Vert P\\Vert^2=\\frac{3}{2}u^2", {"li-equality-n2": 1e-10}),
    ("2\\widehat\\Ric\\ge \\Ric+\\overline\\Ric- \\frac{1}{2}\\Vert\\tau\\Vert^2g",
     # the chain reports the signed least eigenvalue of a form that must be >= 0; the
     # floor absorbs the round-off of the eigenvalue solver
     {"ricci-comparison-quadratic": 1e-8,
      "ricci-comparison-chain": FD("ricci-comparison", lambda v: max(0.0, -v), 1e-8)}),
    ("equal to g([K,K](e_1,e_2)e_2,e_1) for any orthonormal basis",
     {"sectional-plane-invariance": 1e-10}),
    ("R=HR_0, where R_0 is the curvature tensor defined by R_0(X,Y)Z=g(Y,Z)X-g(X,Z)Y",
     {"hyperbolic-constant-curvature": 1e-10}),
    ("trace-free if E:=\\tr_gK=0", {"tracefree-commutator-ricci-nsd": 1e-12}),
    # structural identities of the dual connections, by finite differences
    ("g(\\nabla _XY,Z)+g(Y,\\onabla _XZ)=Xg(Y,Z)",
     {"poincare-christoffel": FD("metricity"), "metricity": FD("metricity"),
      "dual-pairing-product-rule": FD("dual-pairing")}),
    ("g(R(X,Y)Z,W)=-g(\\overline  R(X,Y)W,Z)", {"duality": FD("duality")}),
    ("R(X,Y)=\\hat R(X,Y) +(\\hnabla_XK)_Y-(\\hnabla_YK)_X+[K_X,K_Y]",
     {"curvature-two-routes": FD("curvature-two-routes")}),
    ("R+\\overline R =2\\hat R +2[K,K]", {"curvature-sum": FD("curvature-sum")}),
    ("R=\\hat R +[K,K]", {"conjugate-reduction": FD("conjugate-reduction")}),
    ("\\Ric=\\widehat \\Ric+\\div K-\\hat\\nabla \\tau +\\Ric^K",
     {"ricci-decomposition": FD("ricci-decomposition")}),
    ("2\\widehat{\\Ric}+2\\tau\\circ K-2g(K_\\cdot,K_\\cdot)",
     {"ricci-conjugate-sum": FD("ricci-conjugate-sum")}),
    # the signed least eigenvalue of a form that must be >= 0
    ("2\\widehat{\\Ric}\\ge \\Ric+\\overline{\\Ric}",
     {"ricci-comparison-tracefree": FD("ricci-comparison", lambda v: -v)}),
    ("\\hat\\rho=\\rho+\\Vert K\\Vert^2-\\Vert E\\Vert^2", {"scalar-gap": FD("scalar-gap")}),
    ("\\beta= \\hat\\nabla\\tau -\\tau\\circ K", {"koszul-form": FD("koszul-form")}),
    ("\\tr _g\\beta= \\delta\\tau -\\Vert \\tau\\Vert^2", {"koszul-trace": FD("koszul-trace")}),
    ("A statistical structure is called Hessian if ∇ is flat",
     {"hessian-flatness": FD("curvature-two-routes")}),
    ("g(K_\\cdot,K_\\cdot)-\\tau\\circ K", {"hessian-ricci": FD("hessian-ricci")}),
    ("k(\\pi)=\\frac{1}{2}g((R+\\overline R)(e_1,e_2)e_2,e_1)",
     {"sectional-sum": FD("sectional-sum")}),
    ("The curvature tensors for ∇, ∇̄, ∇̂",
     {"poincare-sectional": FD("curvature-closed-form"),
      "sphere-scalar-curvature": FD("curvature-closed-form"),
      "curvature-invariants": FD("curvature-invariants")}),
    # the random structure's defects must stay above the conformal one's tolerance; the
    # guard fails when its precondition does not raise
    ("2) ∇̂K is symmetric",
     {"conjugate-symmetry-equivalence-conformal": FD("curvature-two-routes"),
      "conjugate-symmetry-equivalence-random": 0.0, "cubic-precondition-guard": 0.5}),
    ("A pair (g,∇) is a statistical structure if and only if (g,∇̄) is",
     {"duality-involution": 1e-12}),
    # Laplacian (Simons-type) formulas; a convergence check bounds |r(2h)/r(h) - 4|
    ("\\frac{1}{2}\\Delta(\\Vert s\\Vert^2)=g(\\Delta  s,s) +\\Vert\\hat\\nabla s\\Vert^2",
     {"simons-formula": FD("simons-formula"), "convergence-simons-formula": 0.8}),
    ("(\\hnabla^2s)(X,Y,...)-(\\hnabla^2s)(Y,X,...) =(\\hat R(X,Y)\\cdot s)",
     {"ricci-identity": FD("ricci-identity"), "convergence-ricci-identity": 0.8}),
    ("(d\\delta \\tau+\\delta d\\tau)(X)+\\widehat\\Ric(X,E)",
     {"weitzenbock": FD("weitzenbock"), "convergence-weitzenbock": 0.8}),
    ("g((d\\delta+\\delta d) \\tau,\\tau)+\\widehat{\\Ric}(E,E)+\\Vert\\hat\\nabla\\tau\\Vert^2",
     {"simons-1form": FD("simons-1form")}),
    ("\\sum_{i<k}\\hat k(e_i\\wedge e_k)(\\lambda_i-\\lambda_k)^2",
     {"sym2-simons": FD("sym2-simons"), "convergence-sym2-simons": 0.8}),
    ("-g([K,K],\\hat R)+g(\\widehat{\\Ric},g(K_\\cdot,K_\\cdot))",
     {"laplace-cubic-bracket": FD("laplace-cubic"), "laplace-cubic-parallel": 1e-8}),
    ("g(\\hat R-R,\\hat R)", {"laplace-cubic-curvdiff": FD("laplace-cubic")}),
    ("+\\hat R^2+\\widehat{\\Ric}^2-g(R,\\hat R)-g(\\Ric,\\widehat{\\Ric})",
     {"laplace-cubic-ricci": FD("laplace-cubic"), "convergence-laplace-cubic-ricci": 0.8}),
    ("\\Vert\\hnabla A\\Vert^2+\\hat R^2+\\widehat{\\Ric}^2-g(R,\\hat R)-g(\\Ric,\\widehat{\\Ric})",
     {"laplace-cubic-tracefree": FD("laplace-cubic")}),
    ("-2\\kappa\\hat\\rho", {"laplace-cubic-constant-sectional": FD("laplace-cubic-special")}),
    ("-\\Vert\\hat R\\Vert^2+2c\\hat\\rho",
     {"laplace-cubic-dualflat": FD("laplace-cubic-special")}),
    # bounds on u = ||A||^2
    ("(n+1)Hu +\\frac{n+1}{n(n-1)}u^2+\\Vert\\hat\\nabla A\\Vert^2\\le\\frac{1}{2}\\Delta u\\le "
     "(n+1)Hu+\\frac{3}{2}u^2+\\Vert\\hat\\nabla A\\Vert^2",
     {"sandwich-equality-n2": FD("sandwich"), "sandwich-constant-fields": FD("sandwich")}),
    ("u\\le n(n-1)(-H)", {"calabi-sup-attained": 1e-12, "calabi-dominates-band": 1e-12}),
    ("\\frac{2}{3}(n+1)(-H)\\le u\\le n(n-1)(-H)", {"parallel-band-pinched": 1e-12}),
    ("\\inf u\\ge \\frac{(n+1)(-H)+\\sqrt{(n+1)^2H^2-6N_2}}{3}",
     {"inf-dichotomy-meets-family": 1e-12}),
    ("\\sup\\, \\Vert\\hat\\nabla A\\Vert^2<\\frac{H^2(n+1)^2}{6}",
     {"dichotomy-coincides-at-boundary": 1e-9, "dichotomy-branch-monotonicity": 1e-12}),
    ("\\sup\\, u\\le \\frac{n(n-1)(-H)+\\sqrt{n^2(n-1)^2H^2-4N_4}}{2}",
     {"sup-u-interval-meets-family": 1e-12}),
    ("-H_2-\\sqrt{H_2^2-\\frac{2}{3}\\inf\\hat u}\\le \\sup \\, u\\le "
     "-H_2+\\sqrt{H_2^2-\\frac{2}{3} \\inf \\hat u}",
     {"surface-bounds-meet-family": 1e-12}),
    ("\\inf \\hat u\\le \\frac{3}{2}H_2^2", {"cross-theorem-n2": 1e-12}),
    # the closed-form probe's bar grows with the square of the probe lattice's spacing
    ("\\Delta f(x)<\\varepsilon",
     {"max-probe-closed-form": 1e-2 + 200.0 * (2 * math.pi / MAX_PROBE_LATTICE) ** 2,
      "max-probe-structure": 1e-2}),
    ("cn(n-1)+\\Vert E\\Vert^2-\\Vert A\\Vert ^2", {"dualflat-split-scalar": 1e-12}),
    # sphere quadrature and bundle integrals
    ("S^{n-1}=\\{V\\in \\R^n;\\Vert V\\Vert=1\\}", {"quadrature-area": 1e-10}),
    # the Monte Carlo cross-validation allows 4 standard errors of its estimate
    ("invented — artifact plumbing",
     {"quadrature-moment": 1e-10, "quadrature-parity": 1e-12,
      "quadrature-cross-validation": FROM_DATA}),
    ("(n+k-2)\\int_{U_xM} s(V,...,V)",
     {"fiber-identity": 1e-9, "fiber-identity-slot-covariance": 1e-9,
      "odd-parity-annihilation": 1e-11}),
    ("\\delta \\alpha =-(n+k-2) s(V,...,V) +\\tr_gs(\\cdot,V,...,V,\\cdot,V,...,V)+...",
     {"spherical-codifferential": 1e-5}),
    # the refined residual must shrink to a quarter of the coarse one
    ("\\int_{UM}\\tr_g(\\hat\\nabla s)(\\cdot,\\cdot,V,...,V)=0",
     {"ros-integral": 1e-6, "ros-refinement-64": 1e-6, "ros-refinement-shrink": FROM_DATA,
      "ros-total-derivative": 1e-8, "ros-constant-field": 1e-6}),
    ("0=\\int_{UM}\\Vert (\\hat\\nabla K)(V,V,V)\\Vert ^2+3\\int_{UM}g(\\hat R "
     "(K(V,V),V)V,K(V,V))",
     {"bundle-functional": 1e-5, "bundle-functional-grad-nonneg": 0.0,
      "bundle-functional-parallel": 1e-10, "bundle-hypothesis-guard": 0.5}),
) for stem, rule in rows.items()}


class _Collector:
    """The checks of one run in report order: the one place a residual meets its tolerance."""

    def __init__(self, cfg: SuiteConfig):
        self.h, self.tol_scale = cfg.h, cfg.tol_scale
        self.checks: list[Check] = []

    def tolerance(self, stem, scale=1.0, bar=None):
        """The tolerance of a CHECKS row at the run's step, times the residual's scale."""
        rule = CHECKS[stem].rule
        if (rule is FROM_DATA) != (bar is not None):
            raise ValueError(f"{stem!r}: a bar is passed in exactly when its rule is FROM_DATA")
        if isinstance(rule, FD):
            return rule.floor + fd_tol(rule.family, self.h, self.tol_scale) * scale
        return (rule if bar is None else bar) * scale

    def add(self, stem, residual, location, scale=1.0, suffix="", bar=None):
        row = CHECKS[stem]
        tolerance = self.tolerance(stem, scale, bar)
        if isinstance(row.rule, FD):
            residual = row.rule.reading(residual)
        verdict = "pass" if residual <= tolerance else "fail"
        self.checks.append(Check(stem + suffix, row.anchor, float(residual), float(tolerance),
                                 verdict, location))

    def skip(self, stem, exc: PreconditionError, location, suffix=""):
        reason = str(exc)[:60]
        self.checks.append(
            Check(stem + suffix, CHECKS[stem].anchor, float("nan"), float("nan"),
                  "precondition-skipped", f"{location} [{reason}]" if location else f"[{reason}]")
        )


# ---------------------------------------------------------------------------
# vectorized random sweeps (g = identity; the inequalities are frame covariant)

# rows per block of a sweep; bounds its memory at any count
_SWEEP_CHUNK = 2000


def _sweep_blocks(seed: int, count: int, *row_shapes):
    """Blocks of at most _SWEEP_CHUNK rows of uniform[-1, 1] samples, one array per row shape.

    The samples are those of drawing each whole (count, *shape) array from default_rng(seed)
    in turn: each array's generator skips the doubles before it (one 64-bit draw per double).
    """
    gens, offset = [], 0
    for shape in row_shapes:
        gens.append(np.random.Generator(np.random.PCG64(seed).advance(offset)))
        offset += count * math.prod(shape)
    for start in range(0, count, _SWEEP_CHUNK):
        m = min(_SWEEP_CHUNK, count - start)
        yield [_uniform(gen, (m, *shape)) for gen, shape in zip(gens, row_shapes)]


def _uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """gen.uniform(-1.0, 1.0, shape), bit for bit: numpy computes it as -1 + 2 x of the draw x."""
    r = gen.random(shape)
    r *= 2.0
    r -= 1.0
    return r


def sweep_trace_inequalities(n: int, count: int, seed: int) -> dict[str, float]:
    """Worst margins of the three pointwise trace inequalities over a random batch.

    Returns max(lhs - rhs) for the quarter and (precondition-arranged) eighth
    bounds and -min(residual) for the norm-gap bound; all must stay below
    tolerance for the inequalities to hold on the batch.
    """
    quarter = eighth = normgap = -np.inf
    for a, u in _sweep_blocks(seed, count, (n, n, n), (n,)):
        a = symmetrize(a, degree=3)
        # u laid out batch-last: its norm sums n contiguous rows
        rows = core_first(batch_last(u, 1), 1)
        rows /= np.maximum(np.sqrt(np.add.reduce(rows * rows, axis=0)), 1e-3)
        lhs, tau_sq, u_sq, _ = points_mod.quarter_terms(a, batch_first(rows, 1))
        quarter = max(quarter, float(np.max(lhs - 0.25 * tau_sq * u_sq)))
        normgap = max(normgap, -float(np.min(points_mod.norm_gap(a))))

        # eighth bound: kill A(e1,e1,e1) so the hypothesis holds exactly and take
        # U = e1, whose K(U,U) and K_U are the rows a[:, 0, 0] and a[:, 0]
        a[:, 0, 0, 0] = 0.0
        lhs, tau_sq, _ = points_mod.quarter_parts(points_mod.trace_form(a), a[:, 0, 0], a[:, 0])
        eighth = max(eighth, float(np.max(lhs - 0.125 * tau_sq)))
    return {"quarter": quarter, "eighth": eighth, "normgap": normgap}


def sweep_cubic_norm_bounds(n: int, count: int, seed: int) -> dict[str, float]:
    """Worst margins of the squared-norm bounds over trace-free random batches.

    Returns nonpositive-margin statistics for the lower and upper bounds on
    ||L||^2 + ||P||^2 against u^2, the pairing-identity defect, and (n = 2)
    the equality defect of the upper bound.
    """
    lower = upper = -np.inf
    eq_n2 = 0.0
    for (a,) in _sweep_blocks(seed, count, (n, n, n)):
        a = points_mod.trace_free_projection(symmetrize(a, degree=3))
        u_val = points_mod.cubic_norm_sq(a)
        l2, p2 = points_mod.lp_norms(a)
        total = l2 + p2
        lower = max(lower, float(np.max((n + 1) / (n * (n - 1)) * u_val**2 - total)))
        upper = max(upper, float(np.max(total - 1.5 * u_val**2)))
        if n == 2:
            eq_n2 = max(eq_n2, float(np.max(np.abs(total - 1.5 * u_val**2))))
    return {"lower": lower, "upper": upper, "li-equality-n2": eq_n2}


def _quarter_form(a_hat: np.ndarray) -> np.ndarray:
    """Matrix of U -> ||tau||^2 |U|^2 / 4 - lhs(U), polarized from the quarter kernel.

    Entry (i, j) comes from the margin at U = e_i + e_j; this is the form
    g(K_.,K_.) - tau o K + ||tau||^2 g / 4 of the Ricci comparison, in the frame.
    """
    n = a_hat.shape[-1]
    eye = np.eye(n)
    lhs, tau_sq, u_sq, _ = points_mod.quarter_terms(a_hat, eye[:, None, :] + eye[None, :, :])
    margin = 0.25 * tau_sq * u_sq - lhs
    diag = np.diag(margin) / 4.0
    return 0.5 * (margin - diag[:, None] - diag[None, :])


# ---------------------------------------------------------------------------
# suites


def algebraic_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector(cfg)
    g_eq, a_eq = equality_point()

    lhs, rhs, cert = points_mod.check_ineq_eighth(g_eq, a_eq, [1.0, 0.0])
    col.add("equality-point-eighth", abs(lhs - 2.0) + abs(rhs - 2.0), "equality-point/U=e1")
    col.add("equality-point-eighth-cert", 0.0 if cert.holds else 1.0, "equality-point/U=e1")
    residual, cert_gap = points_mod.check_ineq_n2over3(g_eq, a_eq)
    col.add("equality-point-normgap", abs(residual), "equality-point")
    col.add("equality-point-normgap-cert", 0.0 if cert_gap.holds else 1.0, "equality-point")

    for n in range(2, 2 + max(1, min(cfg.seeds, 5))):
        sweep = sweep_trace_inequalities(n, cfg.sweep_count, seed=n)
        for name in ("quarter", "eighth", "normgap"):
            col.add(f"{name}-sweep", sweep[name], f"random/n={n}/count={cfg.sweep_count}",
                    suffix=f"-n{n}")

    for n in (2, 3):
        sweep = sweep_cubic_norm_bounds(n, cfg.sweep_count, seed=100 + n)
        for name in ("lower", "upper"):
            col.add(f"cubic-bound-{name}", sweep[name], f"random-tracefree/n={n}",
                    suffix=f"-n{n}")
        if n == 2:
            col.add("li-equality-n2", sweep["li-equality-n2"], "random-tracefree/n=2")

    # identity cross-checks on seeded random points; the squared-norm pairing
    # identity lives in the trace-free context, like the bounds it feeds
    worst_rick = 0.0
    worst_rhok = 0.0
    worst_pairing = 0.0
    worst_gap13 = -np.inf
    worst_gapn2 = -np.inf
    worst_eig = -np.inf
    for seed in range(cfg.seeds):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4):
            g, a = points_mod.random_stat_point(n, rng, metric="random")
            tf = points_mod.random_stat_point(n, rng, trace_free=True, metric="random")
            factors = metric_factors(g)
            worst_rick = max(worst_rick, float(np.max(np.abs(
                points_mod.ric_k(g, a, factors) - points_mod.ric_k_from_bracket(g, a, factors)))))
            via_trace, via_norms = points_mod.rho_k(g, a, factors)
            worst_rhok = max(worst_rhok, abs(via_trace - via_norms))
            nl, npq, _, pairing = points_mod.lpq(*tf)
            worst_pairing = max(worst_pairing, abs(-pairing - (nl + npq)) / (1.0 + nl + npq))
            gap, lo13, lon2 = points_mod.scalar_gap_bounds(g, a, factors)
            worst_gap13 = max(worst_gap13, lo13 - gap)
            worst_gapn2 = max(worst_gapn2, lon2 - gap)
            form = _quarter_form(points_mod.frame_cubic(g, a, factors))
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(form))))
    col.add("commutator-ricci-two-routes", worst_rick, "random/n=2..4")
    col.add("commutator-scalar-two-routes", worst_rhok, "random/n=2..4")
    col.add("norm-pairing-identity", worst_pairing, "random-tracefree/n=2..4")
    col.add("scalar-gap-lower-13", worst_gap13, "random/n=2..4")
    col.add("scalar-gap-lower-n2", worst_gapn2, "random/n=2..4")
    col.add("ricci-comparison-quadratic", worst_eig, "random/n=2..4")

    # trace-free commutator Ricci is negative semi-definite
    worst_nsd = -np.inf
    for seed in range(max(cfg.seeds, 3)):
        g, a = points_mod.random_stat_point(3, np.random.default_rng(1000 + seed), trace_free=True)
        b = metric_factors(g)[1]
        worst_nsd = max(worst_nsd, float(np.max(np.linalg.eigvalsh(
            b.T @ points_mod.ric_k(g, a) @ b))))
    col.add("tracefree-commutator-ricci-nsd", worst_nsd, "random-tracefree/n=3")

    # hyperbolic family closed forms
    for (aa, bb) in ((1.0, 0.0), (0.8, -0.5)):
        g, a = hyperbolic_point(aa, bb)
        h_curv = -2.0 * (aa * aa + bb * bb)
        residual = points_mod.constant_curvature_residual(
            points_mod.bracket_kk(g, a), g, metric_factors(g)[0], h_curv)
        loc, suffix = f"hyperbolic/a={aa}/b={bb}", f"-a{aa}-b{bb}"
        col.add("hyperbolic-constant-curvature", residual, loc, suffix=suffix)
        sec = points_mod.sectional_k(g, a, [1.0, 0.0], [0.0, 1.0])
        sec2 = points_mod.sectional_k(g, a, [1.0, 1.0], [1.0, -1.0])
        col.add("sectional-plane-invariance", abs(sec - h_curv) + abs(sec2 - sec), loc,
                suffix=suffix)
    return col.checks, {}


def _stereographic_metric(n: int):
    """The round metric 4 |dx|^2 / (1 + |x|^2)^2 of the unit sphere in stereographic coordinates."""
    return lambda x: 4.0 * np.eye(n) / (1 + np.sum(x * x, axis=-1))[..., None, None] ** 2


def _point_label(x) -> str:
    """The location label x=(x1,...,xn) of a point, each coordinate to three decimals."""
    return "x=(" + ",".join(f"{c:.3f}" for c in x) + ")"


def chart_checks(col: _Collector, cs, x, locations, after_point=None):
    """Record the structural checks of the chart cs at x[..., n], a batch or a single point;
    on a stack of charts (charts.stack_charts) x is [C, P, n], P points per member.

    Each producer runs once on x, and every key it returns is recorded at each point where
    it applies (residuals_at), under that point's entry of locations, in the C order of the
    batch axes; a point alone gets the bits it gets as a row of a batch, and a member of a
    stack the bits it gets alone.  after_point(index), if given, runs once the rows of the
    point at that batch index are recorded, so a caller can record its own rows in between.
    The rows that read a curvature get bars scaled by conn.scale, 1 + ||R||; sectional-sum
    is read on the plane of the first two axes, so a chart of dimension 1 has none.  Returns
    conn.scale.
    """
    x = np.asarray(x, dtype=float)
    metricity = charts_mod.metricity_residual(cs, x)
    conn = charts_mod.statistical_connections(cs, x)
    invariants = charts_mod.curvature_hat_invariants(cs, x)
    ricci = charts_mod.ricci_decomposition_residuals(cs, x)
    # in report order: each producer's residuals, and whether its bars take conn.scale
    rows = [({"metricity": metricity}, False), (conn.residuals, True),
            ({"curvature-invariants": invariants}, True), (ricci, True)]
    if cs.n >= 2:
        plane = np.eye(cs.n)[:2]
        sectional_sum = abs(charts_mod.sectional_nabla(cs, x, plane)
                            - charts_mod.sectional_hat(cs, x, plane)
                            - charts_mod.sectional_bracket(cs, x, plane))
        rows.append(({"sectional-sum": sectional_sum}, True))
    # duality involution: conjugating twice returns the coefficients exactly
    rows.append(({"duality-involution": charts_mod.duality_involution_defect(cs, x)}, False))
    for i, loc in zip(np.ndindex(x.shape[:-1]), locations):
        scale = np.asarray(conn.scale)[i]
        for residuals, scaled in rows:
            for key, value in charts_mod.residuals_at(residuals, i).items():
                col.add(key, value, loc, scale if scaled else 1.0)
        if after_point is not None:
            after_point(i)
    return conn.scale


_DIFF_FAMILIES = (
    ("G1-constant-A", {}),
    ("G2-hessian-potential", {}),
    ("G3-2d-constant-curvature", {"chart": True}),
    ("G4-random-smooth", {}),
    ("G5-periodic-trig", {"variant": "conformal"}),
)


def differential_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector(cfg)
    h = cfg.h

    # closed-form reference charts
    zero_cubic = charts_mod.constant_field(np.zeros((2, 2, 2)))
    poincare = charts_mod.ChartStructure(
        2, [[-0.5, 0.5], [0.5, 1.5]], lambda x: np.eye(2) / x[..., 1, None, None] ** 2,
        zero_cubic, h=h,
    )
    gamma = charts_mod.christoffel(poincare, [0.0, 1.0])
    hand = abs(gamma[0, 0, 1] + 1.0) + abs(gamma[1, 0, 0] - 1.0) + abs(gamma[1, 1, 1] + 1.0)
    col.add("poincare-christoffel", hand, "poincare/(0,1)")
    col.add("poincare-sectional",
            abs(charts_mod.sectional_hat(poincare, [0.0, 1.0], ([1, 0], [0, 1])) + 1.0),
            "poincare/(0,1)")
    sphere = charts_mod.ChartStructure(
        2, [[-0.5, 0.5], [-0.5, 0.5]], _stereographic_metric(2), zero_cubic, h=h,
    )
    col.add("sphere-scalar-curvature", abs(charts_mod.rho_hat(sphere, [0.1, 0.2]) - 2.0),
            "stereographic-sphere/(0.1,0.2)")

    # every generated chart, as (family, seed, chart), in report order; each kind of check
    # below runs once, on a stack of the charts it reads
    members = [(family, seed, generate(GeneratorSpec(family, n=2, seed=seed,
                                                     params=dict(params, h=h))))
               for family, params in _DIFF_FAMILIES for seed in range(cfg.seeds)]
    xs = np.stack([sample_points(cs, 2, seed=seed) for _, seed, cs in members])
    seed0 = {family: cs for family, seed, cs in members if seed == 0}

    # hessian-flatness: max |R| of nabla at a point off the sample points of each G2 chart,
    # recorded after that chart's rows
    hessian = [(c, cs) for c, (family, _, cs) in enumerate(members)
               if family == "G2-hessian-potential"]
    r_nabla = charts_mod.statistical_connections(
        charts_mod.stack_charts([cs for _, cs in hessian]),
        np.stack([cs.domain.mean(axis=1) + 0.03 for _, cs in hessian])[:, None]).r_nabla
    flatness = dict(zip([c for c, _ in hessian],
                        np.max(np.abs(r_nabla), axis=tuple(range(1, r_nabla.ndim)))))

    def after_point(index):
        c, p = index
        if c in flatness and p == xs.shape[1] - 1:
            family, seed, _ = members[c]
            col.add("hessian-flatness", float(flatness[c]), f"{family}/seed={seed}")

    chart_checks(col, charts_mod.stack_charts([cs for _, _, cs in members]), xs,
                 [f"{family}/seed={seed}/{_point_label(x)}"
                  for (family, seed, _), points in zip(members, xs) for x in points],
                 after_point)

    # conjugate-symmetry criteria: the three defects vanish together or stay
    # large together, on the seed-0 charts of the generated ones
    criteria = (("conformal", seed0["G5-periodic-trig"], True),
                ("random", seed0["G4-random-smooth"], False))
    x = np.stack([sample_points(cs, 1, seed=7) for _, cs, _ in criteria])
    defects = charts_mod.conjugate_symmetry_criteria(
        charts_mod.stack_charts([cs for _, cs, _ in criteria]), x)
    for c, (tag, _, should_hold) in enumerate(criteria):
        at = {key: float(value[c, 0]) for key, value in defects.items()}
        if should_hold:
            col.add(f"conjugate-symmetry-equivalence-{tag}", max(at.values()),
                    f"G5-conformal/{_point_label(x[c, 0])}", 10.0)
        else:
            # the defects stay large together: threshold - min(defects) <= 0, with the
            # threshold the tolerance the vanishing defects pass under
            threshold = col.tolerance("conjugate-symmetry-equivalence-conformal", 10.0)
            col.add(f"conjugate-symmetry-equivalence-{tag}", threshold - min(at.values()),
                    f"G4-random/{_point_label(x[c, 0])}")
    return col.checks, {}


def laplacian_series(n: int, h: float):
    """Residuals of the Laplacian identities at the steps 4h, 2h and h, in dimension n = 2 or 3.

    The Ricci identity, the Simons formula and the cubic formulas are taken on a curved
    Hessian chart, the Weitzenbock and symmetric 2-form formulas on the stereographic
    sphere, all at one point.  Each chart is read once per producer, as a stack of its
    copies at h, 2h and 4h (charts.stack_charts) at x[3, 1, n]; each member gets the bits
    it gets alone.  Returns (steps, series, skips): series maps each identity to its
    residual per step, in the order of steps, and skips maps an identity whose precondition
    fails at some step to the PreconditionError of the least such step, the stack's first
    failing member; a skipped identity's series is empty.
    """
    potential = {2: "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)",
                 3: "0.4*x1**2*x2**2 + 0.3*x2**2*x3**2 + 0.35*x1**2*x3**2 "
                    "+ 0.5*(x1**2 + x2**2 + x3**2)"}[n]

    def codazzi_beta(cs):
        eye = np.eye(cs.n)

        def beta(y):
            r2 = np.sum(y * y, axis=-1)[..., None, None]
            e2u = 4.0 / (1 + r2) ** 2
            grad_u = -2.0 * y / (1 + r2[..., 0])
            # gamma1[i, j] = delta_i0 grad_u[j] + delta_j0 grad_u[i] - delta_ij grad_u[0]
            gamma1 = (eye[:, :1] * grad_u[..., None, :] + eye[:1, :] * grad_u[..., :, None]
                      - eye * grad_u[..., :1, None])
            return -gamma1 + eye * (y[..., :1, None] * e2u)

        return beta

    def trig_tau(y):
        return np.stack([np.sin(y[..., 0] + 2.0 * y[..., 1]), np.cos(y[..., 0] - y[..., 1])]
                        + [np.sin(y[..., i]) for i in range(2, y.shape[-1])], axis=-1)

    steps = (4.0 * h, 2.0 * h, h)
    cubic_keys = ("laplace-cubic-bracket", "laplace-cubic-curvdiff", "laplace-cubic-ricci")
    hess_chart = charts_mod.hessian_from_potential(potential, [[-0.6, 0.6]] * n, h=h, n=n)
    sph_chart = charts_mod.ChartStructure(n, [[-0.4, 0.4]] * n, _stereographic_metric(n),
                                          charts_mod.constant_field(np.zeros((n, n, n))), h=h)
    # members at h, 2h and 4h, so a failed precondition raises at the least failing step
    hess, sph = (charts_mod.stack_charts([chart.with_step(step) for step in reversed(steps)])
                 for chart in (hess_chart, sph_chart))
    x = np.tile(np.array([0.15, -0.22, 0.1][:n]), (len(steps), 1, 1))
    residuals = {"ricci-identity": charts_mod.ricci_identity_residual(hess, hess.a_field, x),
                 "simons-formula": charts_mod.simons_residual(hess, hess.a_field, x),
                 **charts_mod.weitzenbock_residual(sph, trig_tau, x)}
    skips = {}
    try:
        residuals["sym2-simons"] = charts_mod.sym2_simons_residual(sph, codazzi_beta(sph), x)[0]
    except PreconditionError as exc:
        skips["sym2-simons"] = exc
    try:
        residuals.update(charts_mod.cubic_simons_residuals(hess, x))
    except PreconditionError as exc:
        skips.update(dict.fromkeys(cubic_keys, exc))
    series = {name: [] if name in skips else residuals[name][::-1, 0].tolist()
              for name in ("ricci-identity", "simons-formula", "weitzenbock", "simons-1form",
                           "sym2-simons") + cubic_keys}
    return steps, series, skips


def simons_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector(cfg)
    h = cfg.h

    for n in (2, 3):
        steps, series, skips = laplacian_series(n, h)
        loc = f"n={n}/h={h}"
        for name, values in series.items():
            if name in skips:
                col.skip(name, skips[name], loc, suffix=f"-n{n}")
            else:
                col.add(name, values[-1], loc, suffix=f"-n{n}")
        for name in ("ricci-identity", "simons-formula", "weitzenbock", "sym2-simons",
                     "laplace-cubic-ricci"):
            values = series[name]
            for i in range(2):
                suffix = f"-n{n}-halving{i}"
                halving = f"n={n}/h={steps[i]}->{steps[i + 1]}"
                if name in skips:
                    col.skip(f"convergence-{name}", skips[name], halving, suffix)
                    continue
                factor = values[i] / values[i + 1] if values[i + 1] else float("inf")
                col.add(f"convergence-{name}", abs(factor - 4.0), halving, suffix=suffix)

    # trace-free, constant-sectional, and dual-flat specializations on
    # conformal and constant fields
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=1,
                                  params={"variant": "conformal", "h": h, "amp": 0.35}))
    x = np.array([1.1, 2.3])
    cubic = charts_mod.residuals_at(charts_mod.cubic_simons_residuals(conf, x), ())
    col.add("laplace-cubic-tracefree", cubic["laplace-cubic-tracefree"], "G5-conformal")
    # a specialization's key is absent where its curvature does not fit a multiple of R0
    for key, hypothesis in (("laplace-cubic-constant-sectional", "[K,K] is not kappa R0 at x"),
                            ("laplace-cubic-dualflat", "R_hat - [K,K] is not c R0 at x")):
        if key in cubic:
            col.add(key, cubic[key], "G5-conformal")
        else:
            col.skip(key, PreconditionError(hypothesis), "G5-conformal")

    g1 = generate(GeneratorSpec("G1-constant-A", seed=0, params={"h": h}))
    xg = np.array([1.0, 1.0])
    cubic_g1 = charts_mod.cubic_simons_residuals(g1, xg)
    col.add("laplace-cubic-parallel", cubic_g1["laplace-cubic-bracket"], "G1-constant")

    # non-conjugate-symmetric input is a distinct precondition outcome
    g4 = generate(GeneratorSpec("G4-random-smooth", seed=0, params={"h": h}))
    try:
        charts_mod.cubic_simons_residuals(g4, sample_points(g4, 1, seed=3)[0])
        col.add("cubic-precondition-guard", 1.0, "G4-random")
    except PreconditionError as exc:
        col.skip("cubic-precondition-guard", exc, "G4-random")
    return col.checks, {}


def bounds_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector(cfg)
    h = cfg.h
    bounds_payload = {}

    # hyperbolic family: closed forms meet every bound
    for (aa, bb) in ((1.0, 0.0), (0.7, 0.4)):
        s = aa * aa + bb * bb
        h_curv = -2.0 * s
        u = 4.0 * s
        loc = f"hyperbolic/a={aa}/b={bb}"
        col.add("calabi-sup-attained", abs(bounds_mod.calabi_sup_bound(2, h_curv) - u), loc)
        band = bounds_mod.parallel_cubic_band(2, h_curv)
        col.add("parallel-band-pinched", abs(band.lo - u) + abs(band.hi - u), loc)
        d = bounds_mod.inf_u_dichotomy(2, h_curv, 0.0)
        col.add("inf-dichotomy-meets-family", abs(d.hi - u) + (0.0 if d.holds_for(u) else 1.0),
                loc)
        rep = bounds_mod.sup_u_bounds(2, h_curv, 0.0)
        lo_i, hi_i = rep.intervals["sup_u"]
        col.add("sup-u-interval-meets-family", abs(hi_i - u) + max(0.0, lo_i - u), loc)
        rep2 = bounds_mod.surface_u_bounds(h_curv, h_curv, 0.0, 0.0)
        lo_s, hi_s = rep2.intervals["sup_u"]
        col.add("surface-bounds-meet-family", max(0.0, lo_s - u) + max(0.0, u - hi_s), loc)
        rep.notes.append("hypothesis-satisfying by construction (constant fields)")
        bounds_payload[loc] = rep.to_dict()

    # algebraic consistency of the bound formulas
    rng = np.random.default_rng(12)
    worst_cross = 0.0
    for _ in range(100):
        h_curv = -float(rng.uniform(0.1, 4.0))
        rep = bounds_mod.sup_u_bounds(2, h_curv, 0.0)
        nabla_bound = rep.intervals["nabla_bound"][1]
        worst_cross = max(worst_cross, abs(nabla_bound - 1.5 * h_curv**2))
    col.add("cross-theorem-n2", worst_cross, "random-H/100")

    worst_coincide = 0.0
    for _ in range(20):
        h_curv = -float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(2, 6))
        n2_boundary = h_curv**2 * (n + 1) ** 2 / 6.0
        d = bounds_mod.inf_u_dichotomy(n, h_curv, n2_boundary)
        both = (n + 1) * (-h_curv) / 3.0
        worst_coincide = max(worst_coincide, abs(d.hi - d.lo), abs(d.hi - both), abs(d.lo - both))
    col.add("dichotomy-coincides-at-boundary", worst_coincide, "random-H/20")

    worst_mono = 0.0
    h_curv = -1.3
    n = 3
    prev_width = np.inf
    for frac in (0.0, 0.3, 0.6, 0.9):
        d = bounds_mod.inf_u_dichotomy(n, h_curv, frac * h_curv**2 * (n + 1) ** 2 / 6.0)
        width = d.hi - d.lo
        worst_mono = max(worst_mono, width - prev_width)
        prev_width = width
    col.add("dichotomy-branch-monotonicity", worst_mono, "n=3/H=-1.3")

    worst_dom = 0.0
    for _ in range(20):
        h_curv = -float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(2, 6))
        band = bounds_mod.parallel_cubic_band(n, h_curv)
        worst_dom = max(worst_dom, abs(bounds_mod.calabi_sup_bound(n, h_curv) - band.hi))
    col.add("calabi-dominates-band", worst_dom, "random-H/20")

    # sandwich on the conformal family: n = 2 forces equality in both bounds
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                  params={"variant": "conformal", "h": h, "amp": 0.35}))
    try:
        lo_gap, hi_gap = bounds_mod.simons_sandwich_check(conf, sample_points(conf, 6, seed=5))
    except PreconditionError as exc:
        col.skip("sandwich-equality-n2", exc, "G5-conformal/6pts")
    else:
        col.add("sandwich-equality-n2", np.max(np.abs([lo_gap, hi_gap])), "G5-conformal/6pts")

    g3 = generate(GeneratorSpec("G3-2d-constant-curvature", seed=0,
                                params={"chart": True, "h": h}))
    try:
        lo_gap, hi_gap = bounds_mod.simons_sandwich_check(g3, np.array([1.0, 1.0]), h_curv=-2.0)
    except PreconditionError as exc:
        col.skip("sandwich-constant-fields", exc, "G3-chart")
    else:
        col.add("sandwich-constant-fields", abs(lo_gap) + abs(hi_gap), "G3-chart")

    # scalar-curvature relation for dual-flat curvature split at a point
    residual, scalar_residual = points_mod.lagrangian_gauss_residual(
        *hyperbolic_point(1.0, 0.0), np.zeros((2, 2, 2, 2)), 2.0)
    col.add("dualflat-split-scalar", residual + scalar_residual, "hyperbolic/a=1/b=0")

    # maximum-principle surrogate on the torus
    flat = charts_mod.ChartStructure(
        2, [[0.0, 2.0 * np.pi]] * 2, charts_mod.constant_field(np.eye(2)),
        charts_mod.constant_field(np.zeros((2, 2, 2))), h=h, periodic=[True, True],
    )
    argmax, lap = bounds_mod.discrete_max_probe(
        flat, lambda y: np.sin(y[..., 0]) + np.sin(y[..., 1]), lattice_points=MAX_PROBE_LATTICE)
    col.add("max-probe-closed-form", float(np.max(np.abs(argmax - np.pi / 2))) + abs(lap + 2.0),
            "flat-torus/sin+sin")
    u_field = charts_mod.squared_norm_field(conf, conf.a_field)
    _, lap_u = bounds_mod.discrete_max_probe(conf, u_field, lattice_points=MAX_PROBE_LATTICE)
    col.add("max-probe-structure", max(lap_u, 0.0), "G5-conformal/u-field")
    return col.checks, bounds_payload


def _v1v2_squared(v: np.ndarray) -> np.ndarray:
    """V1^2 V2^2 at each node of v[m, n]: the integrand of quadrature-cross-validation."""
    return v[:, 0] ** 2 * v[:, 1] ** 2


@functools.lru_cache(maxsize=1)
def _cross_validation_estimate(seed: int) -> tuple[float, float]:
    """The Monte Carlo estimate and standard error of V1^2 V2^2 over the seed's 200000 nodes,
    taken once per seed from streamed nodes: no rule is built or kept."""
    return spheres_mod.integrate_monte_carlo(3, 200000, _v1v2_squared, seed=seed)


def integral_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector(cfg)
    order = cfg.fiber_order

    q2 = spheres_mod.product_gauss(2, order)
    q3 = spheres_mod.product_gauss(3, order)
    col.add("quadrature-area",
            abs(q2.weights.sum() - spheres_mod.sphere_area(2))
            + abs(q3.weights.sum() - spheres_mod.sphere_area(3)),
            "product-gauss", spheres_mod.sphere_area(3))
    col.add("quadrature-moment",
            abs(spheres_mod.integrate_sphere(q3, lambda v: v[:, 0] ** 2) - 4.0 * np.pi / 3.0),
            "n=3/V1^2")
    col.add("quadrature-parity", abs(spheres_mod.integrate_sphere(q2, lambda v: v[:, 0])),
            "n=2/V1")

    # the 200000-node estimate is taken on a process's first pass only; later passes reuse it
    est, se = _cross_validation_estimate(cfg.seeds)
    exact = spheres_mod.integrate_sphere(q3, _v1v2_squared)
    col.add("quadrature-cross-validation", abs(est - exact), "monte-carlo/2e5", bar=4.0 * se)

    rng = np.random.default_rng(17)
    worst = 0.0
    worst_slot = 0.0
    for n in (2, 3):
        quad = q2 if n == 2 else q3
        for k in (2, 3, 4):
            for _ in range(max(cfg.seeds, 3)):
                s = symmetrize(rng.uniform(-1.0, 1.0, (n,) * k))
                # every slot's residual from one left side and one trace per slot pair
                residuals = spheres_mod.fiber_identity_residuals(s, quad)
                worst = max(worst, residuals[0])
                worst_slot = max(worst_slot, max(residuals) - min(residuals))
            residuals = spheres_mod.fiber_identity_residuals(rng.uniform(-1.0, 1.0, (n,) * k), quad)
            worst_slot = max(worst_slot, max(residuals) - min(residuals))
    col.add("fiber-identity", worst, "n=2,3/k=2,3,4")
    col.add("fiber-identity-slot-covariance", worst_slot, "n=2,3/k=2,3,4")

    worst_parity = 0.0
    for n in (2, 3):
        quad = q2 if n == 2 else q3
        s = symmetrize(rng.uniform(-1.0, 1.0, (n, n, n)))
        worst_parity = max(worst_parity, abs(float(
            quad.weights @ spheres_mod.poly_eval(s, quad.nodes))))
    col.add("odd-parity-annihilation", worst_parity, "n=2,3/k=3")

    worst_codiff = 0.0
    for n in (2, 3):
        for k in (2, 3):
            s = symmetrize(rng.uniform(-1.0, 1.0, (n,) * k))
            worst_codiff = max(
                worst_codiff,
                spheres_mod.sphere_codiff_residual(s, i0=0, quad=spheres_mod.product_gauss(n, 6)),
            )
    col.add("spherical-codifferential", worst_codiff, "n=2,3/k=2,3")

    # bundle integrals on periodic charts
    lattice = cfg.lattice
    gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                 params={"variant": "generic", "h": cfg.h, "freq": 3}))
    r_ros = spheres_mod.ros_residual(gen, gen.a_field, k=3, quad=q2, lattice=lattice)
    col.add("ros-integral", r_ros, f"G5-generic/lattice={lattice}")

    # refinement: an under-resolved oscillatory cubic field must improve >= 4x
    # when the lattice doubles; both residuals come from one pass over the 128 lattice,
    # whose even-index points are the 64 lattice
    gen_hf = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                    params={"variant": "generic", "h": cfg.h, "freq": 32,
                                            "gfreq": 4, "amp": 0.8, "scale": 0.05}))
    r64, r128 = spheres_mod.ros_refinement(gen_hf, gen_hf.a_field, k=3, quad=q2, lattice=64)
    col.add("ros-refinement-64", r64, "G5-generic-hf/lattice=64")
    col.add("ros-refinement-shrink", r128, "G5-generic-hf/lattice=64->128", bar=r64 / 4.0)

    flat = charts_mod.ChartStructure(
        2, [[0.0, 2.0 * np.pi]] * 2, charts_mod.constant_field(np.eye(2)),
        charts_mod.constant_field(np.zeros((2, 2, 2))), h=cfg.h, periodic=[True, True],
    )
    hess_f = lambda y: np.eye(2) * -np.cos(y)[..., None, :]
    col.add("ros-total-derivative",
            spheres_mod.ros_residual(flat, hess_f, k=2, quad=q2, lattice=lattice),
            f"flat-torus/lattice={lattice}")
    const_s = charts_mod.constant_field([[0.3, -0.1], [-0.1, 0.8]])
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=4,
                                  params={"variant": "conformal", "h": cfg.h, "amp": 0.4}))
    col.add("ros-constant-field",
            spheres_mod.ros_residual(conf, const_s, k=2, quad=q2, lattice=lattice),
            f"G5-conformal/lattice={lattice}")

    conf_fine = generate(GeneratorSpec(
        "G5-periodic-trig", seed=4,
        params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5},
    ))
    try:
        tg, tc, total = spheres_mod.unit_bundle_functional(conf_fine, q2, lattice=max(lattice, 64))
        col.add("bundle-functional", abs(total), f"G5-conformal/lattice={max(lattice, 64)}")
        col.add("bundle-functional-grad-nonneg", max(-tg, 0.0), "G5-conformal")
    except PreconditionError as exc:
        col.skip("bundle-functional", exc, "G5-conformal")

    g1 = generate(GeneratorSpec("G1-constant-A", seed=0, params={"h": cfg.h}))
    tg, tc, total = spheres_mod.unit_bundle_functional(g1, q2, lattice=16)
    col.add("bundle-functional-parallel", abs(tg) + abs(tc) + abs(total), "G1-constant")

    g4 = generate(GeneratorSpec("G4-random-smooth", seed=1, params={"h": cfg.h}))
    try:
        spheres_mod.unit_bundle_functional(g4, q2, lattice=8)
        col.add("bundle-hypothesis-guard", 1.0, "G4-random")
    except PreconditionError as exc:
        col.skip("bundle-hypothesis-guard", exc, "G4-random")
    return col.checks, {}


def check_structure(structure) -> ResidualReport:
    """Run the checks that apply to one ingested structure: a chart, or a point (g, a).

    A chart gets the structural checks of chart_checks at its midpoint, one Laplacian
    identity per auxiliary field, and the pointwise checks of the structure at the
    midpoint; a point gets the pointwise checks alone.  FD tolerances use the chart's
    own step and a tolerance scale of 1.
    """
    is_chart = isinstance(structure, charts_mod.ChartStructure)
    if is_chart:
        structure.require_single("check_structure")
    col = _Collector(SuiteConfig(h=structure.h) if is_chart else SuiteConfig())
    if is_chart:
        mid = structure.domain.mean(axis=1)
        g, a = structure.metric_at(mid), structure.cubic_at(mid)
        loc = "chart-midpoint"
    else:
        g, a = structure
        loc = "point"
    factors = points_mod.require_finite(g, a)
    if is_chart:
        # mid is a single point, so the Laplacians below share the memo of chart_checks
        scale = chart_checks(col, structure, mid, [loc])
        for name, aux in structure.aux_fields.items():
            if aux.degree == 1:
                out = charts_mod.weitzenbock_residual(structure, aux.fn, mid)
                col.add("weitzenbock", out["weitzenbock"], loc, scale, suffix=f"[{name}]")
            elif aux.degree == 2:
                try:
                    residual, _ = charts_mod.sym2_simons_residual(structure, aux.fn, mid)
                    col.add("sym2-simons", residual, loc, scale, suffix=f"[{name}]")
                except PreconditionError as exc:
                    col.skip("sym2-simons", exc, loc, suffix=f"[{name}]")
    u = np.zeros(len(g))
    u[0] = 1.0
    lhs, rhs, _ = points_mod.check_ineq_quarter(g, a, u, factors)
    col.add("quarter-inequality", max(lhs - rhs, 0.0), loc)
    try:
        lhs, rhs, _ = points_mod.check_ineq_eighth(g, a, u, factors)
        col.add("eighth-inequality", max(lhs - rhs, 0.0), loc)
    except PreconditionError as exc:
        col.skip("eighth-inequality", exc, loc)
    a_hat = points_mod.frame_cubic(g, a, factors)
    # these three rows compare terms of size ||A||^2_g, so their bars grow with it
    size = 1.0 + float(points_mod.cubic_norm_sq(a_hat))
    residual = float(points_mod.norm_gap(a_hat))
    col.add("normgap-inequality", max(-residual, 0.0), loc, size)
    via_trace, via_norms = points_mod.rho_k(g, a, factors)
    col.add("commutator-scalar-two-routes", abs(via_trace - via_norms), loc, size)
    ricci_gap = points_mod.ric_k(g, a, factors) - points_mod.ric_k_from_bracket(g, a, factors)
    col.add("commutator-ricci-two-routes", float(np.max(np.abs(ricci_gap))), loc, size)
    return ResidualReport(suite="check", checks=col.checks, environment={"source": "check"})


_SUITES = {
    "algebraic": algebraic_suite,
    "differential": differential_suite,
    "simons": simons_suite,
    "bounds": bounds_suite,
    "integral": integral_suite,
}


def run_suite(name: str, cfg: SuiteConfig | None = None) -> ResidualReport:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    cfg = cfg or SuiteConfig()
    compiled = compile_cache_info()
    factored = metric_factor_counts()
    powers = spheres_mod.node_power_cache_info()
    rules = spheres_mod.quadrature_cache_info()
    fields = field_eval_counts()
    memo = charts_mod.memo_counts()
    started = time.perf_counter()
    report = ResidualReport(suite=name, environment=cfg.environment())
    names = [name] if name != "all" else list(_SUITES)
    for part in names:
        t0 = time.perf_counter()
        checks, bounds_payload = _SUITES[part](cfg)
        report.checks.extend(checks)
        report.bounds.update(bounds_payload)
        report.timing[part] = round(time.perf_counter() - t0, 3)
    report.timing["total"] = round(time.perf_counter() - started, 3)
    # field functions compiled during the run, and builds that found theirs in the cache
    now = compile_cache_info()
    report.timing["expression-compiles"] = now.misses - compiled.misses
    report.timing["expression-compile-hits"] = now.hits - compiled.hits
    # calls of the compiled field functions, and the points they evaluated
    calls, points = field_eval_counts()
    report.timing["field-calls"] = calls - fields[0]
    report.timing["field-points"] = points - fields[1]
    # lookups in the memos of the charts, and the lookups that found their value
    lookups, hits = charts_mod.memo_counts()
    report.timing["memo-lookups"] = lookups - memo[0]
    report.timing["memo-hits"] = hits - memo[1]
    # metric factorizations (calls and matrices), node-power tables and quadrature rules
    # found or built
    batches, matrices = metric_factor_counts()
    report.timing["metric-factor-batches"] = batches - factored[0]
    report.timing["metric-factor-matrices"] = matrices - factored[1]
    now = spheres_mod.node_power_cache_info()
    report.timing["node-power-hits"] = now.hits - powers.hits
    report.timing["node-power-misses"] = now.misses - powers.misses
    builds, hits = spheres_mod.quadrature_cache_info()
    report.timing["quadrature-rule-builds"] = builds - rules[0]
    report.timing["quadrature-rule-hits"] = hits - rules[1]
    return report
