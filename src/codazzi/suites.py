"""Named verification suites producing machine-readable residual reports.

Every check carries: a stable id, the anchor string of the identity it
verifies (greppable back to the statement), the residual, the tolerance it
was compared against, a pass/fail/precondition-skipped verdict, and the
location (generator, seed, sample point) it was evaluated at.  Reports are
deterministic for a fixed (suite, config): byte-identical apart from the
timing block.

Finite-difference tolerances are tol = C * h^2 * tol_scale with per-check
constants C frozen from calibration runs on the curved reference
generators (Hessian potential, conformal torus) at a x100 safety margin,
plus an absolute floor for identities that vanish exactly.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import charts as charts_mod
from . import points as points_mod
from . import spheres as spheres_mod
from .errors import ConstructionError, PreconditionError
from .generators import GeneratorSpec, generate, hyperbolic_point, equality_point, sample_points
from .structures_io import canonical_json
from .tensors import CurvTensor, symmetrize

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


TOL_SCALE_ENV = "CODAZZI_DEFAULT_TOL_SCALE"


def _default_tol_scale() -> float:
    """The tolerance scale named by the environment, read when a SuiteConfig is made."""
    raw = os.environ.get(TOL_SCALE_ENV, "1.0")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConstructionError(f"{TOL_SCALE_ENV}={raw!r} is not a finite positive number")
    return value


@dataclass
class SuiteConfig:
    seeds: int = 3
    h: float = 1e-3
    tol_scale: float = field(default_factory=_default_tol_scale)
    fiber_order: int = 12
    lattice: int = 32
    sweep_count: int = 2000

    def __post_init__(self):
        for name in ("seeds", "fiber_order", "lattice", "sweep_count"):
            value = getattr(self, name)
            if not value > 0:
                raise ConstructionError(f"{name} must be positive, got {value!r}")
        for name in ("h", "tol_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConstructionError(f"{name} must be finite and positive, got {value!r}")

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


class _Collector:
    def __init__(self):
        self.checks: list[Check] = []

    def add(self, check_id, anchor, residual, tolerance, location=""):
        verdict = "pass" if residual <= tolerance else "fail"
        self.checks.append(
            Check(check_id, anchor, float(residual), float(tolerance), verdict, location)
        )

    def skip(self, check_id, anchor, reason, location=""):
        self.checks.append(
            Check(check_id, anchor, float("nan"), float("nan"), "precondition-skipped",
                  f"{location} [{reason}]" if location else f"[{reason}]")
        )


# anchor strings: each is the statement of the identity the check verifies
A_QUARTER = "(\\tau\\circ K)(U,U)-g(K_{U}, K_{U})\\le \\frac{1}{4}\\Vert \\tau\\Vert^2g(U,U)"
A_EIGHTH = "\\frac{1}{8}\\Vert \\tau\\Vert^2g(U,U)"
A_EIGHTH_EQ = (
    "g(K(U,V),W)=0 for V,W perpendicular to U, E is perpendicular to U and E=4K(U,U)"
)
A_NORMGAP = "\\frac{n+2}{3}\\Vert A\\Vert^2-\\Vert E\\Vert^2\\ge 0"
A_SCALAR_GAP_13 = (
    "\\hat\\rho-\\rho=\\Vert  A\\Vert^2-\\Vert E\\Vert^2\\ge -\\frac{n-1}{3}\\Vert A\\Vert^2"
)
A_SCALAR_GAP_N2 = "\\ge -\\frac{n-1}{n+2}\\Vert E\\Vert^2"
A_RICK = "\\Ric^K (Y,Z)=\\tau(K(Y,Z))-g(K_Y,K_Z)"
A_RHOK = "\\rho^K=\\Vert E\\Vert^2-\\Vert K\\Vert^2"
A_LPQ_DEF = "a_{ij}=\\sum_{kl}A_{ikl}A_{jkl}"
A_CALABI_LOWER = "\\ge \\frac{n+1}{n(n-1)}u^2"
A_LI_UPPER = "\\le \\frac{3}{2}u^2"
A_LI_EQ_N2 = "\\Vert L\\Vert^2+\\Vert P\\Vert^2=\\frac{3}{2}u^2"
A_RIC_COMPARE = "2\\widehat\\Ric\\ge \\Ric+\\overline\\Ric- \\frac{1}{2}\\Vert\\tau\\Vert^2g"
A_SECTIONAL_K = "equal to g([K,K](e_1,e_2)e_2,e_1) for any orthonormal basis"
A_CONST_CURV = "R=HR_0, where R_0 is the curvature tensor defined by R_0(X,Y)Z=g(Y,Z)X-g(X,Z)Y"
A_TRACE_FREE = "trace-free if E:=\\tr_gK=0"
A_DUAL_PAIRING = "g(\\nabla _XY,Z)+g(Y,\\onabla _XZ)=Xg(Y,Z)"
A_DUALITY = "g(R(X,Y)Z,W)=-g(\\overline  R(X,Y)W,Z)"
A_TWO_ROUTES = "R(X,Y)=\\hat R(X,Y) +(\\hnabla_XK)_Y-(\\hnabla_YK)_X+[K_X,K_Y]"
A_CURV_SUM = "R+\\overline R =2\\hat R +2[K,K]"
A_CONJ_REDUCTION = "R=\\hat R +[K,K]"
A_RIC_DECOMP = "\\Ric=\\widehat \\Ric+\\div K-\\hat\\nabla \\tau +\\Ric^K"
A_RIC_SUM = "2\\widehat{\\Ric}+2\\tau\\circ K-2g(K_\\cdot,K_\\cdot)"
A_RIC_TRACEFREE = "2\\widehat{\\Ric}\\ge \\Ric+\\overline{\\Ric}"
A_SCALAR_DECOMP = "\\hat\\rho=\\rho+\\Vert K\\Vert^2-\\Vert E\\Vert^2"
A_KOSZUL = "\\beta= \\hat\\nabla\\tau -\\tau\\circ K"
A_KOSZUL_TRACE = "\\tr _g\\beta= \\delta\\tau -\\Vert \\tau\\Vert^2"
A_HESSIAN = "A statistical structure is called Hessian if ∇ is flat"
A_HESSIAN_RIC = "g(K_\\cdot,K_\\cdot)-\\tau\\circ K"
A_SECTIONAL_SUM = "k(\\pi)=\\frac{1}{2}g((R+\\overline R)(e_1,e_2)e_2,e_1)"
A_CURV_TENSORS = "The curvature tensors for ∇, ∇̄, ∇̂"
A_CONJ_SYM = "2) ∇̂K is symmetric"
A_DUAL_INVOLUTION = "A pair (g,∇) is a statistical structure if and only if (g,∇̄) is"
A_SIMONS = "\\frac{1}{2}\\Delta(\\Vert s\\Vert^2)=g(\\Delta  s,s) +\\Vert\\hat\\nabla s\\Vert^2"
A_RICCI_ID = "(\\hnabla^2s)(X,Y,...)-(\\hnabla^2s)(Y,X,...) =(\\hat R(X,Y)\\cdot s)"
A_WEITZENBOCK = "(d\\delta \\tau+\\delta d\\tau)(X)+\\widehat\\Ric(X,E)"
A_SIMONS_1FORM = (
    "g((d\\delta+\\delta d) \\tau,\\tau)+\\widehat{\\Ric}(E,E)+\\Vert\\hat\\nabla\\tau\\Vert^2"
)
A_SYM2 = "\\sum_{i<k}\\hat k(e_i\\wedge e_k)(\\lambda_i-\\lambda_k)^2"
A_CUBIC_BRACKET = "-g([K,K],\\hat R)+g(\\widehat{\\Ric},g(K_\\cdot,K_\\cdot))"
A_CUBIC_CURVDIFF = "g(\\hat R-R,\\hat R)"
A_CUBIC_RICCI = "+\\hat R^2+\\widehat{\\Ric}^2-g(R,\\hat R)-g(\\Ric,\\widehat{\\Ric})"
A_CUBIC_TRACEFREE = (
    "\\Vert\\hnabla A\\Vert^2+\\hat R^2+\\widehat{\\Ric}^2-g(R,\\hat R)-g(\\Ric,\\widehat{\\Ric})"
)
A_CUBIC_KAPPA = "-2\\kappa\\hat\\rho"
A_CUBIC_LAGRANGE = "-\\Vert\\hat R\\Vert^2+2c\\hat\\rho"
A_SANDWICH = (
    "(n+1)Hu +\\frac{n+1}{n(n-1)}u^2+\\Vert\\hat\\nabla A\\Vert^2\\le\\frac{1}{2}\\Delta u\\le "
    "(n+1)Hu+\\frac{3}{2}u^2+\\Vert\\hat\\nabla A\\Vert^2"
)
A_CALABI_SUP = "u\\le n(n-1)(-H)"
A_PARALLEL_BAND = "\\frac{2}{3}(n+1)(-H)\\le u\\le n(n-1)(-H)"
A_DICHOTOMY = "\\inf u\\ge \\frac{(n+1)(-H)+\\sqrt{(n+1)^2H^2-6N_2}}{3}"
A_DICHOTOMY_FEAS = "\\sup\\, \\Vert\\hat\\nabla A\\Vert^2<\\frac{H^2(n+1)^2}{6}"
A_SUPU = "\\sup\\, u\\le \\frac{n(n-1)(-H)+\\sqrt{n^2(n-1)^2H^2-4N_4}}{2}"
A_NABLA_INF = "\\inf\\, \\Vert\\hat\\nabla A\\Vert^2\\le\\frac{n(n^2-1)H^2}{4}"
A_SURFACE = (
    "-H_2-\\sqrt{H_2^2-\\frac{2}{3}\\inf\\hat u}\\le \\sup \\, u\\le "
    "-H_2+\\sqrt{H_2^2-\\frac{2}{3} \\inf \\hat u}"
)
A_SURFACE_CAP = "\\inf \\hat u\\le \\frac{3}{2}H_2^2"
A_MAXPROBE = "\\Delta f(x)<\\varepsilon"
A_LAGRANGE_SCALAR = "cn(n-1)+\\Vert E\\Vert^2-\\Vert A\\Vert ^2"
A_SPHERE = "S^{n-1}=\\{V\\in \\R^n;\\Vert V\\Vert=1\\}"
A_FIBER = "(n+k-2)\\int_{U_xM} s(V,...,V)"
A_CODIFF = (
    "\\delta \\alpha =-(n+k-2) s(V,...,V) +\\tr_gs(\\cdot,V,...,V,\\cdot,V,...,V)+..."
)
A_ROS = "\\int_{UM}\\tr_g(\\hat\\nabla s)(\\cdot,\\cdot,V,...,V)=0"
A_BUNDLE = (
    "0=\\int_{UM}\\Vert (\\hat\\nabla K)(V,V,V)\\Vert ^2+3\\int_{UM}g(\\hat R "
    "(K(V,V),V)V,K(V,V))"
)
A_PLUMBING = "invented — artifact plumbing"


# ---------------------------------------------------------------------------
# vectorized random sweeps (g = identity; the inequalities are frame covariant)

# samples per batch of the cubic-norm sweep; bounds its memory at any count
_CUBIC_SWEEP_CHUNK = 2000


def sweep_trace_inequalities(n: int, count: int, seed: int) -> dict[str, float]:
    """Worst margins of the three pointwise trace inequalities over a random batch.

    Returns max(lhs - rhs) for the quarter and (precondition-arranged) eighth
    bounds and -min(residual) for the norm-gap bound; all must stay below
    tolerance for the inequalities to hold on the batch.
    """
    rng = np.random.default_rng(seed)
    a = symmetrize(rng.uniform(-1.0, 1.0, (count, n, n, n)), degree=3)
    u = rng.uniform(-1.0, 1.0, (count, n))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-3)

    lhs, tau_sq, u_sq, _ = points_mod.quarter_terms(a, u)
    quarter_margin = float(np.max(lhs - 0.25 * tau_sq * u_sq))
    normgap_margin = -float(np.min(points_mod.norm_gap(a)))

    # eighth bound: kill A(e1,e1,e1) so the hypothesis holds exactly and take
    # U = e1, whose K(U,U) and K_U are the rows a[:, 0, 0] and a[:, 0]
    a[:, 0, 0, 0] = 0.0
    lhs, tau_sq, _ = points_mod.quarter_parts(points_mod.trace_form(a), a[:, 0, 0], a[:, 0])
    eighth_margin = float(np.max(lhs - 0.125 * tau_sq))
    return {"quarter": quarter_margin, "eighth": eighth_margin, "normgap": normgap_margin}


def sweep_cubic_norm_bounds(n: int, count: int, seed: int) -> dict[str, float]:
    """Worst margins of the squared-norm bounds over trace-free random batches.

    Returns nonpositive-margin statistics for the lower and upper bounds on
    ||L||^2 + ||P||^2 against u^2, the pairing-identity defect, and (n = 2)
    the equality defect of the upper bound.
    """
    rng = np.random.default_rng(seed)
    lower = -np.inf
    upper = -np.inf
    eq_n2 = 0.0
    done = 0
    while done < count:
        m = min(_CUBIC_SWEEP_CHUNK, count - done)
        a = points_mod.trace_free_projection(
            symmetrize(rng.uniform(-1.0, 1.0, (m, n, n, n)), degree=3))
        u_val = points_mod.cubic_norm_sq(a)
        l2, p2 = points_mod.lp_norms(a)
        total = l2 + p2
        lower = max(lower, float(np.max((n + 1) / (n * (n - 1)) * u_val**2 - total)))
        upper = max(upper, float(np.max(total - 1.5 * u_val**2)))
        if n == 2:
            eq_n2 = max(eq_n2, float(np.max(np.abs(total - 1.5 * u_val**2))))
        done += m
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
    col = _Collector()
    sp_eq = equality_point()

    lhs, rhs, cert = points_mod.check_ineq_eighth(sp_eq, [1.0, 0.0])
    col.add("equality-point-eighth", A_EIGHTH, abs(lhs - 2.0) + abs(rhs - 2.0), 1e-12,
            "equality-point/U=e1")
    col.add("equality-point-eighth-cert", A_EIGHTH_EQ, 0.0 if cert.holds else 1.0, 0.5,
            "equality-point/U=e1")
    residual, cert_gap = points_mod.check_ineq_n2over3(sp_eq)
    col.add("equality-point-normgap", A_NORMGAP, abs(residual), 1e-12, "equality-point")

    for n in range(2, 2 + max(1, min(cfg.seeds, 5))):
        sweep = sweep_trace_inequalities(n, cfg.sweep_count, seed=n)
        col.add(f"quarter-sweep-n{n}", A_QUARTER, sweep["quarter"], 1e-12,
                f"random/n={n}/count={cfg.sweep_count}")
        col.add(f"eighth-sweep-n{n}", A_EIGHTH, sweep["eighth"], 1e-12,
                f"random/n={n}/count={cfg.sweep_count}")
        col.add(f"normgap-sweep-n{n}", A_NORMGAP, sweep["normgap"], 1e-12,
                f"random/n={n}/count={cfg.sweep_count}")

    for n in (2, 3):
        sweep = sweep_cubic_norm_bounds(n, cfg.sweep_count, seed=100 + n)
        col.add(f"cubic-bound-lower-n{n}", A_CALABI_LOWER, sweep["lower"], 1e-10,
                f"random-tracefree/n={n}")
        col.add(f"cubic-bound-upper-n{n}", A_LI_UPPER, sweep["upper"], 1e-10,
                f"random-tracefree/n={n}")
        if n == 2:
            col.add("li-equality-n2", A_LI_EQ_N2, sweep["li-equality-n2"], 1e-10,
                    "random-tracefree/n=2")

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
            sp = points_mod.random_stat_point(n, rng, metric="random")
            sp_tf = points_mod.random_stat_point(n, rng, trace_free=True, metric="random")
            worst_rick = max(worst_rick, float(np.max(np.abs(
                points_mod.ric_k(sp) - points_mod.ric_k_from_bracket(sp)))))
            via_trace, via_norms = points_mod.rho_k(sp)
            worst_rhok = max(worst_rhok, abs(via_trace - via_norms))
            nl, npq, _, pairing = points_mod.lpq(sp_tf)
            worst_pairing = max(worst_pairing, abs(-pairing - (nl + npq)) / (1.0 + nl + npq))
            gap, lo13, lon2 = points_mod.scalar_gap_bounds(sp)
            worst_gap13 = max(worst_gap13, lo13 - gap)
            worst_gapn2 = max(worst_gapn2, lon2 - gap)
            form = _quarter_form(sp.frame_cubic)
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(form))))
    col.add("commutator-ricci-two-routes", A_RICK, worst_rick, 1e-12, "random/n=2..4")
    col.add("commutator-scalar-two-routes", A_RHOK, worst_rhok, 1e-12, "random/n=2..4")
    col.add("norm-pairing-identity", A_LPQ_DEF, worst_pairing, 1e-10, "random-tracefree/n=2..4")
    col.add("scalar-gap-lower-13", A_SCALAR_GAP_13, worst_gap13, 1e-12, "random/n=2..4")
    col.add("scalar-gap-lower-n2", A_SCALAR_GAP_N2, worst_gapn2, 1e-12, "random/n=2..4")
    col.add("ricci-comparison-quadratic", A_RIC_COMPARE, worst_eig, 1e-8, "random/n=2..4")

    # trace-free commutator Ricci is negative semi-definite
    worst_nsd = -np.inf
    for seed in range(max(cfg.seeds, 3)):
        sp = points_mod.random_stat_point(3, np.random.default_rng(1000 + seed), trace_free=True)
        b = points_mod.orthonormal_frame(sp.g)
        worst_nsd = max(worst_nsd, float(np.max(np.linalg.eigvalsh(
            b.T @ points_mod.ric_k(sp) @ b))))
    col.add("tracefree-commutator-ricci-nsd", A_TRACE_FREE, worst_nsd, 1e-12, "random-tracefree/n=3")

    # hyperbolic family closed forms
    for (aa, bb) in ((1.0, 0.0), (0.8, -0.5)):
        sp = hyperbolic_point(aa, bb)
        h_curv = -2.0 * (aa * aa + bb * bb)
        residual = points_mod.constant_curvature_residual(points_mod.bracket_kk(sp), sp.g, h_curv)
        col.add(f"hyperbolic-constant-curvature-a{aa}-b{bb}", A_CONST_CURV, residual, 1e-10,
                f"hyperbolic/a={aa}/b={bb}")
        sec = points_mod.sectional_k(sp, [1.0, 0.0], [0.0, 1.0])
        sec2 = points_mod.sectional_k(sp, [1.0, 1.0], [1.0, -1.0])
        col.add(f"sectional-plane-invariance-a{aa}-b{bb}", A_SECTIONAL_K,
                abs(sec - h_curv) + abs(sec2 - sec), 1e-10, f"hyperbolic/a={aa}/b={bb}")
    return col.checks, {}


def _stereographic_metric(n: int):
    """The round metric 4 |dx|^2 / (1 + |x|^2)^2 of the unit sphere in stereographic coordinates."""
    return lambda x: 4.0 * np.eye(n) / (1 + np.sum(x * x, axis=-1))[..., None, None] ** 2


_DIFF_FAMILIES = (
    ("G1-constant-A", {}),
    ("G2-hessian-potential", {}),
    ("G3-2d-constant-curvature", {"chart": True}),
    ("G4-random-smooth", {}),
    ("G5-periodic-trig", {"variant": "conformal"}),
)


def differential_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector()
    h = cfg.h

    # closed-form reference charts
    zero_cubic = charts_mod.constant_field(np.zeros((2, 2, 2)))
    poincare = charts_mod.ChartStructure(
        2, [[-0.5, 0.5], [0.5, 1.5]], lambda x: np.eye(2) / x[..., 1, None, None] ** 2,
        zero_cubic, h=h,
    )
    gamma = charts_mod.christoffel(poincare, [0.0, 1.0]).gamma
    hand = abs(gamma[0, 0, 1] + 1.0) + abs(gamma[1, 0, 0] - 1.0) + abs(gamma[1, 1, 1] + 1.0)
    col.add("poincare-christoffel", A_DUAL_PAIRING, hand, fd_tol("metricity", h, cfg.tol_scale),
            "poincare/(0,1)")
    col.add("poincare-sectional", A_CURV_TENSORS,
            abs(charts_mod.sectional_hat(poincare, [0.0, 1.0], ([1, 0], [0, 1])) + 1.0),
            1e-5 * cfg.tol_scale, "poincare/(0,1)")
    sphere = charts_mod.ChartStructure(
        2, [[-0.5, 0.5], [-0.5, 0.5]], _stereographic_metric(2), zero_cubic, h=h,
    )
    col.add("sphere-scalar-curvature", A_CURV_TENSORS,
            abs(charts_mod.rho_hat(sphere, [0.1, 0.2]) - 2.0), 1e-5 * cfg.tol_scale,
            "stereographic-sphere/(0.1,0.2)")

    for family, params in _DIFF_FAMILIES:
        for seed in range(cfg.seeds):
            spec = GeneratorSpec(family, n=2, seed=seed, params=dict(params, h=h))
            cs = generate(spec)
            for x in sample_points(cs, 2, seed=seed):
                loc = f"{family}/seed={seed}/x=({x[0]:.3f},{x[1]:.3f})"
                col.add("metricity", A_DUAL_PAIRING, charts_mod.metricity_residual(cs, x),
                        fd_tol("metricity", h, cfg.tol_scale), loc)
                conn = charts_mod.statistical_connections(cs, x)
                scale = conn.residuals.pop("scale")
                for key, fam in (
                    ("curvature-two-routes", "curvature-two-routes"),
                    ("duality", "duality"),
                    ("curvature-sum", "curvature-sum"),
                    ("dual-pairing-product-rule", "dual-pairing"),
                ):
                    anchor = {
                        "curvature-two-routes": A_TWO_ROUTES,
                        "duality": A_DUALITY,
                        "curvature-sum": A_CURV_SUM,
                        "dual-pairing-product-rule": A_DUAL_PAIRING,
                    }[key]
                    col.add(key, anchor, conn.residuals[key],
                            fd_tol(fam, h, cfg.tol_scale) * scale, loc)
                if "conjugate-reduction" in conn.residuals:
                    col.add("conjugate-reduction", A_CONJ_REDUCTION,
                            conn.residuals["conjugate-reduction"],
                            fd_tol("conjugate-reduction", h, cfg.tol_scale) * scale, loc)
                # curvature tensor invariants for the Levi-Civita tensor
                rhat = charts_mod.curvature_hat(cs, x)
                col.add("curvature-invariants", A_CURV_TENSORS,
                        rhat.first_bianchi_defect() + rhat.last_pair_antisymmetry_defect(),
                        fd_tol("curvature-invariants", h, cfg.tol_scale) * scale, loc)
                rd = charts_mod.ricci_decomposition_residuals(cs, x)
                col.add("ricci-decomposition", A_RIC_DECOMP, rd["ricci-decomposition"],
                        fd_tol("ricci-decomposition", h, cfg.tol_scale) * scale, loc)
                col.add("ricci-conjugate-sum", A_RIC_SUM, rd["ricci-conjugate-sum"],
                        fd_tol("ricci-conjugate-sum", h, cfg.tol_scale) * scale, loc)
                col.add("scalar-gap", A_SCALAR_DECOMP, rd["scalar-gap"],
                        fd_tol("scalar-gap", h, cfg.tol_scale) * scale, loc)
                col.add("koszul-form", A_KOSZUL, rd["koszul-form"],
                        fd_tol("koszul-form", h, cfg.tol_scale) * scale, loc)
                col.add("koszul-trace", A_KOSZUL_TRACE, rd["koszul-trace"],
                        fd_tol("koszul-trace", h, cfg.tol_scale) * scale, loc)
                if "ricci-comparison-min-eig" in rd:
                    col.add("ricci-comparison-tracefree", A_RIC_TRACEFREE,
                            -rd["ricci-comparison-min-eig"],
                            fd_tol("ricci-comparison", h, cfg.tol_scale) * scale, loc)
                # three-Ricci comparison with the trace-form correction
                ric, ric_bar = charts_mod.ricci_nabla(cs, x)
                ric_hat_arr = charts_mod.ric_hat(cs, x)
                tau = cs.tau_at(x)
                ginv = cs.metric_inverse_at(x)
                tau_sq = float(tau @ ginv @ tau)
                form = (2.0 * ric_hat_arr - ric - ric_bar
                        + 0.5 * tau_sq * cs.metric_at(x))
                b_frame = np.linalg.cholesky(ginv)
                min_eig = float(np.min(np.linalg.eigvalsh(
                    b_frame.T @ (0.5 * (form + form.T)) @ b_frame)))
                col.add("ricci-comparison-chain", A_RIC_COMPARE, max(0.0, -min_eig),
                        1e-8 + fd_tol("ricci-comparison", h, cfg.tol_scale) * scale, loc)
                if "hessian-ricci" in rd:
                    col.add("hessian-ricci", A_HESSIAN_RIC, rd["hessian-ricci"],
                            fd_tol("hessian-ricci", h, cfg.tol_scale) * scale, loc)
                sec_total = charts_mod.sectional_nabla(cs, x, ([1, 0], [0, 1]))
                sec_hat = charts_mod.sectional_hat(cs, x, ([1, 0], [0, 1]))
                sp = cs.point(x)
                sec_k = points_mod.sectional_k(sp, [1, 0], [0, 1])
                col.add("sectional-sum", A_SECTIONAL_SUM, abs(sec_total - sec_hat - sec_k),
                        fd_tol("sectional-sum", h, cfg.tol_scale) * scale, loc)
                # duality involution: conjugating twice returns the coefficients exactly
                col.add("duality-involution", A_DUAL_INVOLUTION,
                        charts_mod.duality_involution_defect(cs, x), 1e-12, loc)

            if family == "G2-hessian-potential":
                x = cs.domain.mean(axis=1) + 0.03
                conn = charts_mod.statistical_connections(cs, x)
                col.add("hessian-flatness", A_HESSIAN, float(np.max(np.abs(conn.r_nabla))),
                        fd_tol("curvature-two-routes", h, cfg.tol_scale),
                        f"{family}/seed={seed}")

    # conjugate-symmetry criteria: the three defects vanish together or stay
    # large together
    sym_spec = GeneratorSpec("G5-periodic-trig", seed=0, params={"variant": "conformal", "h": h})
    asym_spec = GeneratorSpec("G4-random-smooth", seed=0, params={"h": h})
    cs_sym = generate(sym_spec)
    cs_asym = generate(asym_spec)
    for tag, cs, should_hold in (("conformal", cs_sym, True), ("random", cs_asym, False)):
        x = sample_points(cs, 1, seed=7)[0]
        defects = charts_mod.conjugate_symmetry_criteria(cs, x)
        threshold = fd_tol("curvature-two-routes", h, cfg.tol_scale)
        if should_hold:
            residual = max(defects["r-vs-rbar"], defects["zw-skew"],
                           defects["asym-nabla-a"])
            col.add(f"conjugate-symmetry-equivalence-{tag}", A_CONJ_SYM, residual,
                    threshold * 10.0, f"G5-conformal/x=({x[0]:.3f},{x[1]:.3f})")
        else:
            weakest = min(defects.values())
            col.add(f"conjugate-symmetry-equivalence-{tag}", A_CONJ_SYM,
                    threshold * 10.0 - weakest, threshold * 10.0,
                    f"G4-random/x=({x[0]:.3f},{x[1]:.3f})")
    return col.checks, {}


def simons_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector()
    h = cfg.h

    def curved_hessian(n, step):
        if n == 2:
            potential = "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)"
        else:
            potential = (
                "0.4*x1**2*x2**2 + 0.3*x2**2*x3**2 + 0.35*x1**2*x3**2 "
                "+ 0.5*(x1**2 + x2**2 + x3**2)"
            )
        return charts_mod.hessian_from_potential(potential, [[-0.6, 0.6]] * n, h=step, n=n)

    def sphere_chart(n, step):
        return charts_mod.ChartStructure(
            n, [[-0.4, 0.4]] * n, _stereographic_metric(n),
            charts_mod.constant_field(np.zeros((n, n, n))), h=step,
        )

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

    for n in (2, 3):
        x = np.array([0.15, -0.22, 0.1][:n])
        steps = (4.0 * h, 2.0 * h, h)
        ricci_r = []
        simons_r = []
        weitz_r = []
        sym2_r = []
        cubic_r = {"laplace-cubic-bracket": [], "laplace-cubic-curvdiff": [], "laplace-cubic-ricci": []}
        for step in steps:
            hess = curved_hessian(n, step)
            sph = sphere_chart(n, step)
            ricci_r.append(charts_mod.ricci_identity_residual(hess, hess.a_field, x))
            simons_r.append(charts_mod.simons_residual(hess, hess.a_field, x))
            weitz_r.append(charts_mod.weitzenbock_residual(sph, trig_tau, x)["weitzenbock"])
            sym2_r.append(charts_mod.sym2_simons_residual(sph, codazzi_beta(sph), x)[0])
            try:
                cubic = charts_mod.cubic_simons_residuals(hess, x)
                for key in cubic_r:
                    cubic_r[key].append(cubic[key])
            except PreconditionError:
                pass
        loc = f"n={n}/h={h}"
        col.add(f"ricci-identity-n{n}", A_RICCI_ID, ricci_r[-1],
                fd_tol("ricci-identity", h, cfg.tol_scale), loc)
        col.add(f"simons-formula-n{n}", A_SIMONS, simons_r[-1],
                fd_tol("simons-formula", h, cfg.tol_scale), loc)
        col.add(f"weitzenbock-n{n}", A_WEITZENBOCK, weitz_r[-1],
                fd_tol("weitzenbock", h, cfg.tol_scale), loc)
        col.add(f"sym2-simons-n{n}", A_SYM2, sym2_r[-1],
                fd_tol("sym2-simons", h, cfg.tol_scale), loc)
        for key, values in cubic_r.items():
            anchor = {"laplace-cubic-bracket": A_CUBIC_BRACKET,
                      "laplace-cubic-curvdiff": A_CUBIC_CURVDIFF,
                      "laplace-cubic-ricci": A_CUBIC_RICCI}[key]
            col.add(f"{key}-n{n}", anchor, values[-1],
                    fd_tol("laplace-cubic", h, cfg.tol_scale), loc)
        for name, series in (
            ("ricci-identity", ricci_r),
            ("simons-formula", simons_r),
            ("weitzenbock", weitz_r),
            ("sym2-simons", sym2_r),
            ("laplace-cubic-ricci", cubic_r["laplace-cubic-ricci"]),
        ):
            for i in range(2):
                factor = series[i] / series[i + 1] if series[i + 1] else float("inf")
                anchor = {
                    "ricci-identity": A_RICCI_ID, "simons-formula": A_SIMONS,
                    "weitzenbock": A_WEITZENBOCK, "sym2-simons": A_SYM2,
                    "laplace-cubic-ricci": A_CUBIC_RICCI,
                }[name]
                col.add(f"convergence-{name}-n{n}-halving{i}", anchor, abs(factor - 4.0), 0.8,
                        f"n={n}/h={steps[i]}->{steps[i + 1]}")

    # trace-free, constant-sectional, and dual-flat specializations on
    # conformal and constant fields
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=1,
                                  params={"variant": "conformal", "h": h, "amp": 0.35}))
    x = np.array([1.1, 2.3])
    cubic = charts_mod.cubic_simons_residuals(conf, x)
    col.add("laplace-cubic-tracefree", A_CUBIC_TRACEFREE, cubic["laplace-cubic-tracefree"],
            fd_tol("laplace-cubic", h, cfg.tol_scale), "G5-conformal")
    col.add("laplace-cubic-constant-sectional", A_CUBIC_KAPPA,
            charts_mod.cubic_laplace_constant_sectional_residual(conf, x),
            fd_tol("laplace-cubic-special", h, cfg.tol_scale), "G5-conformal")
    col.add("laplace-cubic-dualflat", A_CUBIC_LAGRANGE,
            charts_mod.cubic_laplace_lagrangian_residual(conf, x),
            fd_tol("laplace-cubic-special", h, cfg.tol_scale), "G5-conformal")

    g1 = generate(GeneratorSpec("G1-constant-A", seed=0, params={"h": h}))
    xg = np.array([1.0, 1.0])
    cubic_g1 = charts_mod.cubic_simons_residuals(g1, xg)
    col.add("laplace-cubic-parallel", A_CUBIC_BRACKET, cubic_g1["laplace-cubic-bracket"],
            1e-8, "G1-constant")

    # non-conjugate-symmetric input is a distinct precondition outcome
    g4 = generate(GeneratorSpec("G4-random-smooth", seed=0, params={"h": h}))
    try:
        charts_mod.cubic_simons_residuals(g4, sample_points(g4, 1, seed=3)[0])
        col.add("cubic-precondition-guard", A_CONJ_SYM, 1.0, 0.5, "G4-random")
    except PreconditionError as exc:
        col.skip("cubic-precondition-guard", A_CONJ_SYM, str(exc)[:60], "G4-random")
    return col.checks, {}


def bounds_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector()
    h = cfg.h
    bounds_payload = {}

    # hyperbolic family: closed forms meet every bound
    for (aa, bb) in ((1.0, 0.0), (0.7, 0.4)):
        s = aa * aa + bb * bb
        h_curv = -2.0 * s
        u = 4.0 * s
        sp = hyperbolic_point(aa, bb)
        loc = f"hyperbolic/a={aa}/b={bb}"
        col.add("calabi-sup-attained", A_CALABI_SUP,
                abs(bounds_mod.calabi_sup_bound(2, h_curv) - u), 1e-12, loc)
        band = bounds_mod.parallel_cubic_band(2, h_curv)
        col.add("parallel-band-pinched", A_PARALLEL_BAND,
                abs(band.lo - u) + abs(band.hi - u), 1e-12, loc)
        d = bounds_mod.inf_u_dichotomy(2, h_curv, 0.0)
        col.add("inf-dichotomy-meets-family", A_DICHOTOMY,
                abs(d.hi - u) + (0.0 if d.holds_for(u) else 1.0), 1e-12, loc)
        rep = bounds_mod.sup_u_bounds(2, h_curv, 0.0)
        lo_i, hi_i = rep.intervals["sup_u"]
        col.add("sup-u-interval-meets-family", A_SUPU,
                abs(hi_i - u) + max(0.0, lo_i - u), 1e-12, loc)
        rep2 = bounds_mod.surface_u_bounds(h_curv, h_curv, 0.0, 0.0)
        lo_s, hi_s = rep2.intervals["sup_u"]
        col.add("surface-bounds-meet-family", A_SURFACE,
                max(0.0, lo_s - u) + max(0.0, u - hi_s), 1e-12, loc)
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
    col.add("cross-theorem-n2", A_SURFACE_CAP, worst_cross, 1e-12, "random-H/100")

    worst_coincide = 0.0
    for _ in range(20):
        h_curv = -float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(2, 6))
        n2_boundary = h_curv**2 * (n + 1) ** 2 / 6.0
        d = bounds_mod.inf_u_dichotomy(n, h_curv, n2_boundary)
        both = (n + 1) * (-h_curv) / 3.0
        worst_coincide = max(worst_coincide, abs(d.hi - d.lo), abs(d.hi - both), abs(d.lo - both))
    col.add("dichotomy-coincides-at-boundary", A_DICHOTOMY_FEAS, worst_coincide, 1e-9,
            "random-H/20")

    worst_mono = 0.0
    h_curv = -1.3
    n = 3
    prev_width = np.inf
    for frac in (0.0, 0.3, 0.6, 0.9):
        d = bounds_mod.inf_u_dichotomy(n, h_curv, frac * h_curv**2 * (n + 1) ** 2 / 6.0)
        width = d.hi - d.lo
        worst_mono = max(worst_mono, width - prev_width)
        prev_width = width
    col.add("dichotomy-branch-monotonicity", A_DICHOTOMY_FEAS, worst_mono, 1e-12, "n=3/H=-1.3")

    worst_dom = 0.0
    for _ in range(20):
        h_curv = -float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(2, 6))
        band = bounds_mod.parallel_cubic_band(n, h_curv)
        worst_dom = max(worst_dom, abs(bounds_mod.calabi_sup_bound(n, h_curv) - band.hi))
    col.add("calabi-dominates-band", A_CALABI_SUP, worst_dom, 1e-12, "random-H/20")

    # sandwich on the conformal family: n = 2 forces equality in both bounds
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=2,
                                  params={"variant": "conformal", "h": h, "amp": 0.35}))
    worst_gap = 0.0
    for x in sample_points(conf, 6, seed=5):
        lo_gap, hi_gap = bounds_mod.simons_sandwich_check(conf, x)
        worst_gap = max(worst_gap, abs(lo_gap), abs(hi_gap))
    col.add("sandwich-equality-n2", A_SANDWICH, worst_gap,
            fd_tol("sandwich", h, cfg.tol_scale), "G5-conformal/6pts")

    g3 = generate(GeneratorSpec("G3-2d-constant-curvature", seed=0,
                                params={"chart": True, "h": h}))
    lo_gap, hi_gap = bounds_mod.simons_sandwich_check(g3, np.array([1.0, 1.0]), h_curv=-2.0)
    col.add("sandwich-constant-fields", A_SANDWICH, abs(lo_gap) + abs(hi_gap),
            fd_tol("sandwich", h, cfg.tol_scale), "G3-chart")

    # scalar-curvature relation for dual-flat curvature split at a point
    sp3 = hyperbolic_point(1.0, 0.0)
    zero_hat = CurvTensor(np.zeros((2, 2, 2, 2)))
    residual, scalar_residual = points_mod.lagrangian_gauss_residual(sp3, zero_hat, 2.0)
    col.add("dualflat-split-scalar", A_LAGRANGE_SCALAR, residual + scalar_residual, 1e-12,
            "hyperbolic/a=1/b=0")

    # maximum-principle surrogate on the torus
    flat = charts_mod.ChartStructure(
        2, [[0.0, 2.0 * np.pi]] * 2, charts_mod.constant_field(np.eye(2)),
        charts_mod.constant_field(np.zeros((2, 2, 2))), h=h, periodic=[True, True],
    )
    argmax, lap = bounds_mod.discrete_max_probe(
        flat, lambda y: np.sin(y[..., 0]) + np.sin(y[..., 1]),
        lattice_points=max(cfg.lattice, 32))
    col.add("max-probe-closed-form", A_MAXPROBE,
            float(np.max(np.abs(argmax - np.pi / 2))) + abs(lap + 2.0),
            1e-2 + 200.0 * (2 * np.pi / max(cfg.lattice, 32)) ** 2, "flat-torus/sin+sin")
    u_field = charts_mod.squared_norm_field(conf, conf.a_field)
    _, lap_u = bounds_mod.discrete_max_probe(conf, u_field, lattice_points=max(cfg.lattice, 32))
    col.add("max-probe-structure", A_MAXPROBE, max(lap_u, 0.0),
            1e-2, "G5-conformal/u-field")
    return col.checks, bounds_payload


def integral_suite(cfg: SuiteConfig) -> tuple[list[Check], dict]:
    col = _Collector()
    order = cfg.fiber_order

    q2 = spheres_mod.product_gauss(2, order)
    q3 = spheres_mod.product_gauss(3, order)
    col.add("quadrature-area", A_SPHERE,
            abs(q2.weights.sum() - spheres_mod.sphere_area(2))
            + abs(q3.weights.sum() - spheres_mod.sphere_area(3)),
            1e-10 * spheres_mod.sphere_area(3), "product-gauss")
    col.add("quadrature-moment", A_PLUMBING,
            abs(spheres_mod.integrate_sphere(q3, lambda v: v[:, 0] ** 2) - 4.0 * np.pi / 3.0),
            1e-10, "n=3/V1^2")
    col.add("quadrature-parity", A_PLUMBING,
            abs(spheres_mod.integrate_sphere(q2, lambda v: v[:, 0])), 1e-12, "n=2/V1")

    mc = spheres_mod.monte_carlo(3, 200000, seed=cfg.seeds)
    est, se = spheres_mod.integrate_sphere(mc, lambda v: v[:, 0] ** 2 * v[:, 1] ** 2)
    exact = spheres_mod.integrate_sphere(q3, lambda v: v[:, 0] ** 2 * v[:, 1] ** 2)
    col.add("quadrature-cross-validation", A_PLUMBING, abs(est - exact), 4.0 * se,
            "monte-carlo/2e5")

    rng = np.random.default_rng(17)
    worst = 0.0
    worst_slot = 0.0
    for n in (2, 3):
        quad = q2 if n == 2 else q3
        for k in (2, 3, 4):
            for _ in range(max(cfg.seeds, 3)):
                s = symmetrize(rng.uniform(-1.0, 1.0, (n,) * k))
                residuals = [
                    spheres_mod.fiber_identity_residual(s, i0, quad) for i0 in range(k)
                ]
                worst = max(worst, residuals[0])
                worst_slot = max(worst_slot, max(residuals) - min(residuals))
            s_raw = rng.uniform(-1.0, 1.0, (n,) * k)
            worst_slot = max(
                worst_slot,
                max(spheres_mod.fiber_identity_residual(s_raw, i0, quad) for i0 in range(k))
                - min(spheres_mod.fiber_identity_residual(s_raw, i0, quad) for i0 in range(k)),
            )
    col.add("fiber-identity", A_FIBER, worst, 1e-9, "n=2,3/k=2,3,4")
    col.add("fiber-identity-slot-covariance", A_FIBER, worst_slot, 1e-9, "n=2,3/k=2,3,4")

    worst_parity = 0.0
    for n in (2, 3):
        quad = q2 if n == 2 else q3
        s = symmetrize(rng.uniform(-1.0, 1.0, (n, n, n)))
        worst_parity = max(worst_parity, abs(float(
            quad.weights @ spheres_mod.poly_eval(s, quad.nodes))))
    col.add("odd-parity-annihilation", A_FIBER, worst_parity, 1e-11, "n=2,3/k=3")

    worst_codiff = 0.0
    for n in (2, 3):
        for k in (2, 3):
            s = symmetrize(rng.uniform(-1.0, 1.0, (n,) * k))
            worst_codiff = max(
                worst_codiff,
                spheres_mod.sphere_codiff_residual(s, i0=0, quad=spheres_mod.product_gauss(n, 6)),
            )
    col.add("spherical-codifferential", A_CODIFF, worst_codiff, 1e-5, "n=2,3/k=2,3")

    # bundle integrals on periodic charts
    lattice = cfg.lattice
    gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                 params={"variant": "generic", "h": cfg.h, "freq": 3}))
    r_ros = spheres_mod.ros_residual(gen, gen.a_field, k=3, lattice=lattice)
    col.add("ros-integral", A_ROS, r_ros, 1e-6, f"G5-generic/lattice={lattice}")

    # refinement: an under-resolved oscillatory cubic field must improve >= 4x
    # when the lattice doubles
    gen_hf = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                    params={"variant": "generic", "h": cfg.h, "freq": 32,
                                            "gfreq": 4, "amp": 0.8, "scale": 0.05}))
    r64 = spheres_mod.ros_residual(gen_hf, gen_hf.a_field, k=3, lattice=64)
    r128 = spheres_mod.ros_residual(gen_hf, gen_hf.a_field, k=3, lattice=128)
    col.add("ros-refinement-64", A_ROS, r64, 1e-6, "G5-generic-hf/lattice=64")
    col.add("ros-refinement-shrink", A_ROS, r128, r64 / 4.0, "G5-generic-hf/lattice=64->128")

    flat = charts_mod.ChartStructure(
        2, [[0.0, 2.0 * np.pi]] * 2, charts_mod.constant_field(np.eye(2)),
        charts_mod.constant_field(np.zeros((2, 2, 2))), h=cfg.h, periodic=[True, True],
    )
    hess_f = lambda y: np.eye(2) * -np.cos(y)[..., None, :]
    col.add("ros-total-derivative", A_ROS,
            spheres_mod.ros_residual(flat, hess_f, k=2, lattice=lattice), 1e-8,
            f"flat-torus/lattice={lattice}")
    const_s = charts_mod.constant_field([[0.3, -0.1], [-0.1, 0.8]])
    conf = generate(GeneratorSpec("G5-periodic-trig", seed=4,
                                  params={"variant": "conformal", "h": cfg.h, "amp": 0.4}))
    col.add("ros-constant-field", A_ROS,
            spheres_mod.ros_residual(conf, const_s, k=2, lattice=lattice), 1e-6,
            f"G5-conformal/lattice={lattice}")

    conf_fine = generate(GeneratorSpec(
        "G5-periodic-trig", seed=4,
        params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5},
    ))
    try:
        tg, tc, total = spheres_mod.unit_bundle_functional(conf_fine, lattice=max(lattice, 64))
        col.add("bundle-functional", A_BUNDLE, abs(total), 1e-5,
                f"G5-conformal/lattice={max(lattice, 64)}")
        col.add("bundle-functional-grad-nonneg", A_BUNDLE, max(-tg, 0.0), 0.0,
                "G5-conformal")
    except PreconditionError as exc:
        col.skip("bundle-functional", A_BUNDLE, str(exc)[:60], "G5-conformal")

    g1 = generate(GeneratorSpec("G1-constant-A", seed=0, params={"h": cfg.h}))
    tg, tc, total = spheres_mod.unit_bundle_functional(g1, lattice=16)
    col.add("bundle-functional-parallel", A_BUNDLE, abs(tg) + abs(tc) + abs(total), 1e-10,
            "G1-constant")

    g4 = generate(GeneratorSpec("G4-random-smooth", seed=1, params={"h": cfg.h}))
    try:
        spheres_mod.unit_bundle_functional(g4, lattice=8)
        col.add("bundle-hypothesis-guard", A_BUNDLE, 1.0, 0.5, "G4-random")
    except PreconditionError as exc:
        col.skip("bundle-hypothesis-guard", A_BUNDLE, str(exc)[:60], "G4-random")
    return col.checks, {}


def check_structure(structure) -> ResidualReport:
    """Run the checks that apply to one ingested structure (a point or a chart).

    A chart gets the FD structural checks at its midpoint, one Laplacian
    identity per auxiliary field, and the pointwise checks of the structure
    at the midpoint; a point gets the pointwise checks alone.
    """
    col = _Collector()
    if isinstance(structure, charts_mod.ChartStructure):
        mid = structure.domain.mean(axis=1)
        sp = structure.point(mid)
        loc = "chart-midpoint"
        conn = charts_mod.statistical_connections(structure, mid)
        scale = conn.residuals.pop("scale")
        h = structure.h
        col.add("curvature-two-routes", A_TWO_ROUTES, conn.residuals["curvature-two-routes"],
                fd_tol("curvature-two-routes", h) * scale, loc)
        rd = charts_mod.ricci_decomposition_residuals(structure, mid)
        col.add("ricci-decomposition", A_RIC_DECOMP, rd["ricci-decomposition"],
                fd_tol("ricci-decomposition", h) * scale, loc)
        for name, aux in structure.aux_fields.items():
            if aux.degree == 1:
                out = charts_mod.weitzenbock_residual(structure, aux.fn, mid)
                col.add(f"weitzenbock[{name}]", A_WEITZENBOCK, out["weitzenbock"],
                        fd_tol("weitzenbock", h) * scale, loc)
            elif aux.degree == 2:
                try:
                    residual, _ = charts_mod.sym2_simons_residual(structure, aux.fn, mid)
                    col.add(f"sym2-simons[{name}]", A_SYM2, residual,
                            fd_tol("sym2-simons", h) * scale, loc)
                except PreconditionError as exc:
                    col.skip(f"sym2-simons[{name}]", A_SYM2, str(exc)[:60], loc)
    else:
        sp = structure
        loc = "point"
    u = np.zeros(sp.n)
    u[0] = 1.0
    lhs, rhs, _ = points_mod.check_ineq_quarter(sp, u)
    col.add("quarter-inequality", A_QUARTER, max(lhs - rhs, 0.0), 1e-12, loc)
    try:
        lhs, rhs, _ = points_mod.check_ineq_eighth(sp, u)
        col.add("eighth-inequality", A_EIGHTH, max(lhs - rhs, 0.0), 1e-12, loc)
    except PreconditionError as exc:
        col.skip("eighth-inequality", A_EIGHTH, str(exc)[:60], loc)
    residual, _ = points_mod.check_ineq_n2over3(sp)
    col.add("normgap-inequality", A_NORMGAP, max(-residual, 0.0), 1e-12, loc)
    via_trace, via_norms = points_mod.rho_k(sp)
    col.add("commutator-scalar-two-routes", A_RHOK, abs(via_trace - via_norms), 1e-12, loc)
    col.add("commutator-ricci-two-routes", A_RICK,
            float(np.max(np.abs(points_mod.ric_k(sp) - points_mod.ric_k_from_bracket(sp)))),
            1e-12, loc)
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
    started = time.time()
    report = ResidualReport(suite=name, environment=cfg.environment())
    names = [name] if name != "all" else list(_SUITES)
    for part in names:
        t0 = time.time()
        checks, bounds_payload = _SUITES[part](cfg)
        report.checks.extend(checks)
        report.bounds.update(bounds_payload)
        report.timing[part] = round(time.time() - t0, 3)
    report.timing["total"] = round(time.time() - started, 3)
    return report
