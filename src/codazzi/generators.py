"""Seeded structure generators used by the verification suites.

Five families, each deterministic in (family, n, seed, params):

- G1-constant-A: constant cubic form on a flat chart (parallel everything);
- G2-hessian-potential: metric = Hessian of a convex potential, cubic form
  from its third derivatives (flat dual connection by construction);
- G3-2d-constant-curvature: the two-parameter trace-free family on R^2 whose
  commutator curvature is -2(a^2+b^2) R0;
- G4-random-smooth: random trigonometric metric/cubic fields in generic
  position (no special identities hold);
- G5-periodic-trig: periodic torus fields; the "conformal" variant scales a
  flat metric by exp(2u) while keeping constant trace-free cubic
  components, which preserves conjugate symmetry and tau = 0 for any u,
  so the constant-curvature and bundle-integral hypotheses hold with
  genuinely varying fields.  The "generic" variant supplies non-trace-free
  oscillatory fields for the bundle-integral refinement checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .charts import ChartStructure, hessian_from_potential
from .errors import ConstructionError
from .structures_io import cubic_entries, cubic_from_entries, cubic_triples
from .tensors import metric_factors, require_dimension, symmetrize

FAMILIES = (
    "G1-constant-A",
    "G2-hessian-potential",
    "G3-2d-constant-curvature",
    "G4-random-smooth",
    "G5-periodic-trig",
)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int = 2
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConstructionError(f"unknown generator family {self.family!r}; choose from {FAMILIES}")
        require_dimension(self.n)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConstructionError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.params, dict):
            raise ConstructionError(f"params must be an object of family parameters, got "
                                    f"{self.params!r}")

    def number(self, name: str, default, kind=float):
        """params[name] (default when absent) as kind: a finite float, or an int for a count.
        A bool, a string, a non-finite number or a fractional count raises ConstructionError
        naming the parameter."""
        value = self.params.get(name, default)
        if not isinstance(value, bool) and isinstance(
                value, numbers.Integral if kind is int else numbers.Real):
            try:
                if math.isfinite(value):
                    return kind(value)
            except OverflowError:  # an integer beyond the float range
                pass
        what = "an integer" if kind is int else "a finite number"
        raise ConstructionError(f"parameter {name!r} must be {what}, got {value!r}")


def _fmt(v: float) -> str:
    return repr(float(v))


def hyperbolic_cubic_entries(a: float, b: float) -> dict:
    """Trace-free 2D cubic components parameterized by (a, b)."""
    return {(0, 0, 0): a, (0, 1, 1): -a, (0, 0, 1): b, (1, 1, 1): -b}


def _flat_point(entries: dict) -> tuple[np.ndarray, np.ndarray]:
    """The read-only structure (g, a) with g the identity on R^2 and the given cubic entries."""
    g = np.eye(2)
    g.setflags(write=False)
    return g, cubic_from_entries(2, entries)


def hyperbolic_point(a: float = 1.0, b: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Trace-free 2D structure (g, a) with commutator curvature -2(a^2+b^2) R0."""
    return _flat_point(hyperbolic_cubic_entries(a, b))


def equality_point() -> tuple[np.ndarray, np.ndarray]:
    """The 2D structure (g, a) attaining equality in both sharp trace inequalities.

    g is the standard metric; the nonzero cubic entries are A(1,1,2) = 1 (all
    permutations) and A(2,2,2) = 3, i.e. K(e1,e1) = e2, K(e1,e2) = e1, K(e2,e2) = 3 e2.
    """
    return _flat_point({(0, 0, 1): 1.0, (1, 1, 1): 3.0})


def _constant_cubic_sources(dense: np.ndarray) -> dict:
    return {f"{i + 1}{j + 1}{k + 1}": _fmt(v) for (i, j, k), v in cubic_entries(dense).items()}


def _identity_metric_sources(n: int) -> list:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def g1_constant(spec: GeneratorSpec) -> ChartStructure:
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    if "entries" in spec.params:
        a = cubic_from_entries(n, spec.params["entries"])
    else:
        a = 0.5 * symmetrize(rng.uniform(-1.0, 1.0, (n, n, n)))
    a = spec.number("scale", 1.0) * a
    domain = spec.params.get("domain", [[0.0, 2.0 * np.pi]] * n)
    periodic = spec.params.get("periodic", [True] * n)
    return ChartStructure.from_expressions(
        n,
        domain,
        _identity_metric_sources(n),
        _constant_cubic_sources(a),
        h=spec.number("h", 1e-3),
        periodic=periodic,
    )


def g2_hessian(spec: GeneratorSpec) -> ChartStructure:
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    potential = spec.params.get("potential")
    if potential is None:
        # strictly convex by construction: 1/2 |x|^2 plus small positive
        # quartic couplings, on a box where the quartic terms stay tame
        terms = [f"0.5*x{i + 1}**2" for i in range(n)]
        for i in range(n):
            c = rng.uniform(0.15, 0.45)
            terms.append(f"{_fmt(c)}*x{i + 1}**4")
        for i in range(n):
            for j in range(i + 1, n):
                c = rng.uniform(0.2, 0.5)
                terms.append(f"{_fmt(c)}*x{i + 1}**2*x{j + 1}**2")
        potential = " + ".join(terms)
    domain = spec.params.get("domain", [[-0.7, 0.7]] * n)
    return hessian_from_potential(
        potential, domain, h=spec.number("h", 1e-3), n=n
    )


def g3_constant_curvature(spec: GeneratorSpec):
    a, b = spec.number("a", 1.0), spec.number("b", 0.0)
    if spec.params.get("chart", False):
        domain = spec.params.get("domain", [[0.0, 2.0 * np.pi]] * 2)
        return ChartStructure.from_expressions(
            2,
            domain,
            _identity_metric_sources(2),
            _constant_cubic_sources(cubic_from_entries(2, hyperbolic_cubic_entries(a, b))),
            h=spec.number("h", 1e-3),
            periodic=spec.params.get("periodic", [True, True]),
        )
    return hyperbolic_point(a, b)


def _trig_source(rng, n, amplitude, base=0.0, freq_lo=1, freq_hi=2) -> str:
    terms = [_fmt(base)] if base else []
    for _ in range(2):
        c = rng.uniform(-amplitude, amplitude)
        fns = []
        for i in range(n):
            f = int(rng.integers(freq_lo, freq_hi + 1))
            fns.append(f"{'sin' if rng.integers(2) else 'cos'}({f}*x{i + 1})")
        terms.append(f"{_fmt(c)}*" + "*".join(fns))
    return " + ".join(terms) if terms else "0"


def g4_random_smooth(spec: GeneratorSpec) -> ChartStructure:
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    domain = spec.params.get("domain", [[0.0, 2.0 * np.pi]] * n)
    periodic = spec.params.get("periodic", [True] * n)
    g_exprs = [["0"] * n for _ in range(n)]
    for i in range(n):
        g_exprs[i][i] = f"1 + {_trig_source(rng, n, 0.12 / n)}"
        for j in range(i + 1, n):
            g_exprs[i][j] = g_exprs[j][i] = _trig_source(rng, n, 0.08 / n)
    a_entries = {f"{i + 1}{j + 1}{k + 1}": _trig_source(rng, n, 0.3)
                 for i, j, k in cubic_triples(n)}
    return ChartStructure.from_expressions(
        n, domain, g_exprs, a_entries, h=spec.number("h", 1e-3), periodic=periodic
    )


def g5_periodic(spec: GeneratorSpec) -> ChartStructure:
    if spec.n != 2:
        raise ConstructionError("the periodic trigonometric family is two-dimensional")
    rng = np.random.default_rng(spec.seed)
    variant = spec.params.get("variant", "conformal")
    h = spec.number("h", 1e-3)
    domain = [[0.0, 2.0 * np.pi]] * 2
    if variant == "conformal":
        a = spec.number("a", rng.uniform(0.5, 1.0))
        b = spec.number("b", rng.uniform(-0.8, 0.8))
        amp = spec.number("amp", 0.4)
        fx, fy = spec.number("fx", 1, int), spec.number("fy", 1, int)
        conf = f"exp(2*({_fmt(amp)}*sin({fx}*x1)*cos({fy}*x2)))"
        g_exprs = [[conf, "0"], ["0", conf]]
        a_entries = _constant_cubic_sources(
            cubic_from_entries(2, hyperbolic_cubic_entries(a, b)))
        return ChartStructure.from_expressions(2, domain, g_exprs, a_entries, h=h, periodic=[True, True])
    if variant == "generic":
        freq, gfreq = spec.number("freq", 2, int), spec.number("gfreq", 1, int)
        scale, amp = spec.number("scale", 1.0), spec.number("amp", 0.5)
        conf = f"exp({_fmt(amp)}*sin({gfreq}*x1)*cos({gfreq}*x2))"
        g_exprs = [[conf, "0"], ["0", conf]]
        s1 = f"sin({freq}*x1)"
        c2 = f"cos({freq}*x2)"
        a_entries = {
            "111": f"{_fmt(scale)}*(0.7 + 0.3*{s1})",
            "112": f"{_fmt(scale)}*0.4*{c2}",
            "122": f"{_fmt(scale)}*(-0.2 + 0.25*{s1}*{c2})",
            "222": f"{_fmt(scale)}*(0.5 - 0.3*{c2})",
        }
        return ChartStructure.from_expressions(2, domain, g_exprs, a_entries, h=h, periodic=[True, True])
    raise ConstructionError(f"unknown periodic variant {variant!r}")


_BUILDERS = {
    "G1-constant-A": g1_constant,
    "G2-hessian-potential": g2_hessian,
    "G3-2d-constant-curvature": g3_constant_curvature,
    "G4-random-smooth": g4_random_smooth,
    "G5-periodic-trig": g5_periodic,
}


def generate(spec: GeneratorSpec):
    """Build the family's structure, a chart or the arrays (g, a) of a point, and verify its
    declared predicates."""
    out = _BUILDERS[spec.family](spec)
    _check_predicates(spec, out)
    return out


def _check_predicates(spec: GeneratorSpec, out) -> None:
    if spec.family == "G3-2d-constant-curvature" and not isinstance(out, ChartStructure):
        from .points import bracket_kk, constant_curvature_residual

        a, b = spec.number("a", 1.0), spec.number("b", 0.0)
        h_curv = -2.0 * (a * a + b * b)
        g = out[0]
        residual = constant_curvature_residual(bracket_kk(*out), g, metric_factors(g)[0], h_curv)
        if residual > 1e-10:
            raise ConstructionError(
                f"constant-curvature predicate failed: residual {residual:g} at H={h_curv:g}"
            )
    if spec.family == "G2-hessian-potential":
        from .charts import (CONJUGATE_SYMMETRY_THRESHOLD, conjugate_symmetry_defect,
                             statistical_connections)

        x = out.domain.mean(axis=1) + 0.05
        conn = statistical_connections(out, x)
        r_norm = float(np.max(np.abs(conn.r_nabla)))
        if r_norm > 100.0 * out.h**2:
            raise ConstructionError(f"Hessian flatness predicate failed: |R| = {r_norm:g}")
        if conjugate_symmetry_defect(out, x) >= CONJUGATE_SYMMETRY_THRESHOLD:
            raise ConstructionError("Hessian structure is not conjugate symmetric")
    if spec.family == "G5-periodic-trig" and spec.params.get("variant", "conformal") == "conformal":
        x = np.array([1.1, 2.3])
        tau = out.tau_at(x)
        if float(np.max(np.abs(tau))) > 1e-12:
            raise ConstructionError("conformal family must be trace-free")


def sample_points(structure: ChartStructure, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic interior sample points, honoring the 2h boundary margin."""
    structure.require_single("sample_points")
    rng = np.random.default_rng(seed)
    margin = 2.5 * structure.h
    lo = structure.domain[:, 0] + np.where(structure.periodic, 0.0, margin)
    hi = structure.domain[:, 1] - np.where(structure.periodic, 0.0, margin)
    return rng.uniform(lo, hi, size=(count, structure.n))
