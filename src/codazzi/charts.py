"""Finite-difference differential calculus on coordinate charts.

A ChartStructure carries closed-form fields x -> g(x) and x -> A(x) over an
axis-aligned box.  Every field maps a batch of points x[..., n] to values
[..., *shape]; a single point is a batch of shape (n,).  Every derivative is
a second-order central difference with a fixed step h in chart coordinates,
taken from one field call on the whole stencil of a batch; nested
differences give covariant second derivatives, Laplacians and curvature.
All residual checks of the differential identities (curvature
decompositions, Ricci identities, Laplacian formulas for 1-forms, symmetric
2-forms and cubic forms) live here, each returning a plain residual number
that the harness compares against a tol(h) = C * h^2 budget.

Index conventions (after the leading batch axes): connection coefficients
are stored as gamma[k, i, j] = Gamma^k_ij, curvature as up[m, i, j, k] with
R(e_i, e_j)e_k = up[:, i, j, k] and fully covariant curvature
R[i, j, k, l] = g(R(e_i,e_j)e_k, e_l).
A covariant derivative prepends the derivative slot: (nabla s)[a, ...] =
(nabla_a s)(...).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import ConstructionError, NotPositiveDefiniteError, PreconditionError
from .expressions import CACHE_SIZE, Const, compile_tensor, mul, parse_expression, partial
from .points import StatPoint, bracket_kk, fit_constant_curvature
from .tensors import (
    CubicForm,
    CurvTensor,
    MetricPoint,
    contract,
    metric_factors,
    raise_last,
    ricci_trace,
    sectional,
    sectional_contraction,
    symmetrize,
    trace_k,
    trace_pair,
)

Field = Callable[[np.ndarray], np.ndarray]
"""Maps points x[..., n] to values [..., *shape]."""

CONJUGATE_SYMMETRY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class AuxField:
    """Named auxiliary covariant tensor field attached to a chart."""

    degree: int
    fn: Field
    source: dict | None = None


class ChartStructure:
    """Smooth fields g(x), A(x) over a coordinate box, differentiated by finite differences.

    Fields must be globally evaluable closed forms (expression trees or
    closures over batches of points); periodic axes mark torus directions
    used by the integral checks.  Finite values, SPD of g and symmetry of A
    are spot-checked on a 5^n lattice at construction.
    """

    def __init__(
        self,
        n: int,
        domain,
        g_field: Field,
        a_field: Field,
        h: float = 1e-3,
        periodic=None,
        g_source=None,
        a_source=None,
        aux_fields: dict[str, AuxField] | None = None,
    ):
        domain = np.asarray(domain, dtype=float)
        if domain.shape != (n, 2) or not (
            np.all(np.isfinite(domain)) and np.all(domain[:, 1] > domain[:, 0])
        ):
            raise ConstructionError(f"domain must be a finite (n,2) box with lo < hi: {domain!r}")
        if not (math.isfinite(h) and h > 0):
            raise ConstructionError(f"finite-difference step h must be finite and positive: {h!r}")
        self.n = n
        self.domain = domain
        self.h = float(h)
        self.periodic = tuple(bool(p) for p in (periodic or [False] * n))
        if len(self.periodic) != n:
            raise ConstructionError("periodic flags must list one boolean per axis")
        self.g_field = g_field
        self.a_field = a_field
        self.g_source = g_source
        self.a_source = a_source
        self.aux_fields = dict(aux_fields or {})
        self._cache: dict = {}
        self._spot_check()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_expressions(
        cls,
        n: int,
        domain,
        g_exprs,
        a_entries: dict,
        h: float = 1e-3,
        periodic=None,
        aux_fields: dict | None = None,
    ) -> "ChartStructure":
        """Build from an n x n matrix of expression strings and {"ijk": expr} cubic entries.

        Cubic keys use 1-based digit strings over sorted indices ("112");
        the stored value is assigned to every permutation.
        """
        g_parsed = [[parse_expression(g_exprs[i][j], n) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                g_parsed[j][i] = g_parsed[i][j]
        g_field = compile_tensor((n, n), [(g_parsed[i][j], sorted({(i, j), (j, i)}))
                                          for i in range(n) for j in range(i, n)])

        a_parsed = {}
        for key, expr in a_entries.items():
            idx = tuple(sorted(int(c) - 1 for c in str(key)))
            if len(idx) != 3 or not all(0 <= i < n for i in idx):
                raise ConstructionError(f"cubic entry key {key!r} invalid for n={n}")
            a_parsed[idx] = parse_expression(expr, n)
        a_field = compile_tensor((n, n, n), [(e, sorted(set(itertools.permutations(idx))))
                                             for idx, e in a_parsed.items()])

        g_source = [[g_parsed[i][j].source() for j in range(n)] for i in range(n)]
        a_source = {
            "".join(str(i + 1) for i in idx): e.source() for idx, e in sorted(a_parsed.items())
        }
        parsed_aux = None
        if aux_fields:
            parsed_aux = {}
            for name, spec in aux_fields.items():
                parsed_aux[name] = _parse_aux_field(n, spec)
        return cls(
            n,
            domain,
            g_field,
            a_field,
            h=h,
            periodic=periodic,
            g_source=g_source,
            a_source=a_source,
            aux_fields=parsed_aux,
        )

    def lattice(self, counts) -> np.ndarray:
        """Grid points of the box, counts per axis (or one int), as an array [m, n] in C order.

        A periodic axis leaves out its far face, which is the near face again.
        """
        counts = [counts] * self.n if isinstance(counts, int) else counts
        axes = [np.linspace(lo, hi, m, endpoint=not periodic)
                for (lo, hi), m, periodic in zip(self.domain, counts, self.periodic)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.n)

    def _spot_check(self):
        n = self.n
        points = self.lattice(5)
        # overflow and invalid values are what this check reports, as errors
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = np.asarray(self.g_field(points), dtype=float)
            a = np.asarray(self.a_field(points), dtype=float)

        for name, values, shape in (("metric", g, (n, n)), ("cubic", a, (n, n, n))):
            if values.shape != (len(points),) + shape:
                raise ConstructionError(f"{name} field maps {len(points)} points to shape "
                                        f"{values.shape}; a field maps x[..., n] to [..., *{shape}]")

        def first(bad, message):
            if np.any(bad):
                raise ConstructionError(f"{message} at x={points[np.argmax(bad)].tolist()}")

        first(~np.all(np.isfinite(g), axis=(1, 2)), "metric field is not finite")
        try:
            metric_factors(g, points)
        except ConstructionError as exc:
            # the message names the point; keep the type (hessian_from_potential reads it)
            raise type(exc)(f"metric field fails: {exc}") from exc
        first(~np.all(np.isfinite(a), axis=(1, 2, 3)), "cubic field is not finite")
        scale = np.max(np.abs(a), axis=(1, 2, 3))
        defect = np.max(np.abs(a - symmetrize(a, degree=3)), axis=(1, 2, 3))
        first(defect > 1e-8 * np.where(scale > 0.0, scale, 1.0), "cubic field is not symmetric")

    # -- point access ----------------------------------------------------------

    def require_interior(self, x):
        """x[..., n] as floats; raises for the first point within 2h of a non-periodic face."""
        x = np.asarray(x, dtype=float)
        margin = 2.0 * self.h
        lo = self.domain[:, 0] + margin - 1e-12
        hi = self.domain[:, 1] - margin + 1e-12
        bad = ~((lo <= x) & (x <= hi)) & ~np.array(self.periodic)
        if np.any(bad):
            *where, a = np.argwhere(bad)[0]
            raise PreconditionError(
                f"point {x[tuple(where)].tolist()} too close to the boundary on axis {a} "
                f"(margin 2h = {margin:g})"
            )
        return x

    def metric_at(self, x) -> np.ndarray:
        return self._memo("g", x, lambda: np.asarray(self.g_field(np.asarray(x, float)), float))

    def metric_inverse_at(self, x) -> np.ndarray:
        return self._metric_factors(x)[0]

    def metric_frame_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(frame, sqrt(det g)) at x: the orthonormal frame of orthonormal_frame, from the
        factorization that gives metric_inverse_at, and the Riemannian volume density."""
        _, frame, vol = self._metric_factors(x)
        return frame, vol

    def _metric_factors(self, x):
        return self._memo("factors", x, lambda: metric_factors(self.metric_at(x), x))

    def cubic_at(self, x) -> np.ndarray:
        return self._memo("a", x, lambda: np.asarray(self.a_field(np.asarray(x, float)), float))

    def k_at(self, x) -> np.ndarray:
        """Difference tensor K^m_ij = g^{ml} A_ijl at x."""
        return self._memo("k", x, lambda: raise_last(self.metric_inverse_at(x), self.cubic_at(x)))

    def tau_at(self, x) -> np.ndarray:
        """Trace form tau_i = K^m_im at x."""
        return self._memo("tau", x, lambda: trace_k(self.k_at(x)))

    def point(self, x) -> StatPoint:
        """The pointwise structure at a single point x[n], built once per point (it is immutable)."""
        def compute():
            g = self.metric_at(x)
            return StatPoint(MetricPoint(0.5 * (g + g.T)), CubicForm.from_dense(self.cubic_at(x)))

        return self._memo("point", x, compute)

    def _memo(self, tag, x, compute):
        """compute() once per (tag, batch); the key holds the shape because two batch shapes
        (a stencil of one point, or of a batch of one) can share the same bytes."""
        x = np.asarray(x, dtype=float)
        key = (tag, x.shape, x.tobytes())
        out = self._cache.get(key)
        if out is None:
            if len(self._cache) > 200000:
                self._cache.clear()
            out = compute()
            self._cache[key] = out
        return out

    def __repr__(self):
        return f"ChartStructure(n={self.n}, h={self.h}, periodic={self.periodic})"


def _parse_aux_field(n: int, spec) -> AuxField:
    if isinstance(spec, AuxField):
        return spec
    degree = int(spec["degree"])
    exprs = {str(key): parse_expression(expr, n) for key, expr in spec["components"].items()}
    fn = compile_tensor((n,) * degree, [(e, [tuple(int(c) - 1 for c in key)])
                                        for key, e in exprs.items()])
    sources = {key: e.source() for key, e in exprs.items()}

    return AuxField(degree=degree, fn=fn, source={"degree": degree, "components": sources})


# ---------------------------------------------------------------------------
# derivative engine


def constant_field(value) -> Field:
    """The field with the same value at every point."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def _shifted(field: Field, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The field at x + each row of offsets, [..., m, *shape], from a single call."""
    return np.asarray(field(x[..., None, :] + offsets), dtype=float)


def _central(field: Field, x, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, ds) at x: the value [..., *shape] and the central differences [..., a, *shape].

    One field call on x and its 2n shifts x +- h e_a; the stencil axis follows the batch axes.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    steps = h * np.eye(n)
    values = _shifted(field, x, np.concatenate([np.zeros((1, n)), steps, -steps]))
    batch = (slice(None),) * (x.ndim - 1)
    plus, minus = values[batch + (slice(1, n + 1),)], values[batch + (slice(n + 1, None),)]
    return values[batch + (0,)], (plus - minus) / (2.0 * h)


def christoffel_array(cs: ChartStructure, x) -> np.ndarray:
    """Levi-Civita coefficients gamma[..., k, i, j] of g at x (exactly torsion-free)."""

    def compute():
        _, dg = _central(cs.metric_at, x, cs.h)
        lead, n = dg.ndim - 3, dg.shape[-1]
        batch_axes = tuple(range(lead))
        # first[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2
        first = 0.5 * (
            dg.transpose(batch_axes + (lead + 2, lead, lead + 1))
            + dg.transpose(batch_axes + (lead + 2, lead + 1, lead)) - dg
        )
        flat = first.reshape(first.shape[:lead] + (n, n * n))
        gamma = (cs.metric_inverse_at(x) @ flat).reshape(first.shape)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    return cs._memo("gamma", x, compute)


def christoffel(cs: ChartStructure, x) -> np.ndarray:
    """Levi-Civita coefficients at an interior point x."""
    return christoffel_array(cs, cs.require_interior(x))


def metricity_residual(cs: ChartStructure, x) -> float:
    """Max |nabla_hat g| component; O(h^2) since the coefficients come from FD."""
    ng = nabla_at(cs, cs.g_field, x)
    return float(np.max(np.abs(ng)))


def nabla_at(cs: ChartStructure, field: Field, x, gamma=None) -> np.ndarray:
    """Covariant derivative of a covariant field at x; derivative slot first (after batch axes).

    gamma gives the connection coefficients at x (default the Levi-Civita ones).
    """
    x = np.asarray(x, dtype=float)
    s0, out = _central(field, x, cs.h)
    if gamma is None:
        gamma = christoffel_array(cs, x)
    lead, n = x.ndim - 1, x.shape[-1]
    # gamma_t[..., (a, i), m] = Gamma^m_ai
    gamma_t = gamma.reshape(gamma.shape[:-3] + (n, n * n)).swapaxes(-1, -2)
    for to_front, back in _slot_orders(lead, s0.ndim - lead):
        # out[a, ..., i, ...] -= Gamma^m_ai s[..., m, ...] with i and m in this slot; out is
        # _central's own array, so subtracting in place keeps one output-sized buffer alive
        s = s0.transpose(to_front).reshape(s0.shape[:lead] + (n, -1))
        out -= (gamma_t @ s).reshape(out.shape).transpose(back)
    return out


@functools.cache
def _slot_orders(lead: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per slot j of a degree-k tensor after lead batch axes: (to_front, back) axis orders.

    to_front moves slot j ahead of the other slots; back takes an array laid out as
    [..., a, slots in that order] to [..., a, slots].
    """
    batch_axes = tuple(range(lead))
    orders = []
    for j in range(k):
        slots = [j] + [p for p in range(k) if p != j]
        to_front = batch_axes + tuple(lead + p for p in slots)
        back = batch_axes + (lead,) + tuple(lead + 1 + slots.index(p) for p in range(k))
        orders.append((to_front, back))
    return tuple(orders)


def nabla2_at(cs: ChartStructure, field: Field, x) -> np.ndarray:
    return nabla_at(cs, lambda y: nabla_at(cs, field, y), x)


def laplacian_tensor_at(cs: ChartStructure, field: Field, x) -> np.ndarray:
    """Trace Laplacian tr_g(nabla^2 s) on a covariant tensor field."""
    second = nabla2_at(cs, field, x)
    return trace_pair(cs.metric_inverse_at(x), second, 0, 1)


def scalar_laplacian_at(cs: ChartStructure, f: Field, x):
    """Laplace-Beltrami of a scalar field via the direct second-order stencil, one call of f.

    The stencil is x, x +- h e_a and x +- h e_a +- h e_b (a < b).
    """
    x = np.asarray(x, dtype=float)
    n, h = cs.n, cs.h
    steps = h * np.eye(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    corners = [sa * steps[a] + sb * steps[b] for a, b in pairs
               for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    offsets = np.concatenate([np.zeros((1, n)), steps, -steps, np.reshape(corners, (-1, n))])
    values = np.moveaxis(_shifted(f, x, offsets), -1, 0)
    f0, fp, fm = values[0], values[1 : n + 1], values[n + 1 : 2 * n + 1]
    grad = np.moveaxis((fp - fm) / (2 * h), 0, -1)
    hess = np.empty(x.shape[:-1] + (n, n))
    for a in range(n):
        hess[..., a, a] = (fp[a] - 2.0 * f0 + fm[a]) / (h * h)
    for p, (a, b) in enumerate(pairs):
        fpp, fpm, fmp, fmm = values[2 * n + 1 + 4 * p : 2 * n + 5 + 4 * p]
        hess[..., a, b] = hess[..., b, a] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    # hess_ab - Gamma^c_ab d_c f, traced against g^ab
    gamma = christoffel_array(cs, x).reshape(x.shape[:-1] + (n, n * n))
    connection = (grad[..., None, :] @ gamma).reshape(hess.shape)
    return trace_pair(cs.metric_inverse_at(x), hess - connection, 0, 1)


def codifferential_at(cs: ChartStructure, field: Field, x):
    """Codifferential with the plus convention: + tr_g(nabla s)(., ., rest)."""
    ns = nabla_at(cs, field, x)
    return trace_pair(cs.metric_inverse_at(x), ns, 0, 1)


def exterior_derivative_1form_at(cs: ChartStructure, taufield: Field, x) -> np.ndarray:
    """d tau as a 2-form; equals the antisymmetrized covariant derivative."""
    nt = nabla_at(cs, taufield, x)
    return nt - np.swapaxes(nt, -1, -2)


# ---------------------------------------------------------------------------
# curvature


def _curvature_from_gamma(cs: ChartStructure, coefficients: Field, x) -> np.ndarray:
    """up[..., m, i, j, k] from a coefficient field: dGamma terms plus quadratic terms."""
    gamma0, dgamma = _central(coefficients, x, cs.h)  # dgamma[..., a, m, i, j] = d_a Gamma^m_ij
    lead, n = gamma0.ndim - 3, gamma0.shape[-1]
    batch = gamma0.shape[:lead]
    # quad[m, i, j, k] = Gamma^m_ip Gamma^p_jk; its i <-> j swap is the other quadratic term
    quad = gamma0.reshape(batch + (n * n, n)) @ gamma0.reshape(batch + (n, n * n))
    quad = quad.reshape(dgamma.shape)
    return (
        np.swapaxes(dgamma, -4, -3)
        - dgamma.transpose(tuple(range(lead)) + (lead + 1, lead + 2, lead, lead + 3))
        + quad
        - np.swapaxes(quad, -3, -2)
    )


def _lower_first(g: np.ndarray, up: np.ndarray) -> np.ndarray:
    """low[..., i, j, k, l] = g_lm up[..., m, i, j, k]: the first slot lowered and moved last."""
    n = g.shape[-1]
    flat = up.reshape(up.shape[:-4] + (n, n ** 3)).swapaxes(-1, -2)
    return (flat @ np.swapaxes(g, -1, -2)).reshape(up.shape)


def curvature_hat_arrays(cs: ChartStructure, x) -> tuple[np.ndarray, np.ndarray]:
    """(up, low) arrays of R_hat at x; raises for a point within 2h of a non-periodic face."""
    cs.require_interior(x)

    def compute():
        up = _curvature_from_gamma(cs, lambda y: christoffel_array(cs, y), x)
        low = _lower_first(cs.metric_at(x), up)
        return up, low

    return cs._memo("rhat", x, compute)


def curvature_hat(cs: ChartStructure, x) -> CurvTensor:
    _, low = curvature_hat_arrays(cs, x)
    out = CurvTensor(0.5 * (low - np.swapaxes(low, 0, 1)))
    scale = 1.0 + float(np.max(np.abs(low)))
    out.check(tol=1e-8 * scale)
    return out


def ric_hat(cs: ChartStructure, x) -> np.ndarray:
    up, _ = curvature_hat_arrays(cs, x)
    ric = ricci_trace(up)
    return 0.5 * (ric + ric.T)


def rho_hat(cs: ChartStructure, x) -> float:
    return trace_pair(cs.metric_inverse_at(x), ric_hat(cs, x), 0, 1)


def sectional_hat(cs: ChartStructure, x, plane) -> float:
    _, low = curvature_hat_arrays(cs, x)
    return sectional(low, cs.metric_at(x), *plane)


# ---------------------------------------------------------------------------
# statistical connections and the structural identities


def nabla_cubic_at(cs: ChartStructure, x) -> np.ndarray:
    """(nabla_hat A)[a, i, j, k] at x."""
    return cs._memo("nablaA", x, lambda: nabla_at(cs, cs.a_field, x))


def conjugate_symmetry_defect(cs: ChartStructure, x) -> float:
    """Scale-free asymmetry of nabla_hat A: ||asym|| / (1 + ||nabla_hat A||)."""
    na = nabla_cubic_at(cs, x)
    ginv = cs.metric_inverse_at(x)
    return _g_norm(ginv, na - symmetrize(na, degree=4)) / (1.0 + _g_norm(ginv, na))


def conjugate_symmetry_criteria(cs: ChartStructure, x) -> dict[str, float]:
    """The three defects that vanish together exactly for conjugate symmetric structures.

    r-vs-rbar is ||R - R_bar||, asym-nabla-a the asymmetry of nabla_hat A, and
    zw-skew ||R + R with its last two slots swapped||.
    """
    conn = statistical_connections(cs, x)
    ginv = cs.metric_inverse_at(x)
    return {
        "r-vs-rbar": _g_norm(ginv, conn.r_nabla - conn.r_bar),
        "asym-nabla-a": conjugate_symmetry_defect(cs, x),
        "zw-skew": _g_norm(ginv, conn.r_nabla + np.swapaxes(conn.r_nabla, 2, 3)),
    }


def _g_norm(ginv: np.ndarray, arr: np.ndarray):
    out = np.sqrt(np.maximum(contract(ginv, arr, arr), 0.0))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class StatConnections:
    """Curvatures of the dual pair nabla = nabla_hat + K, nabla_bar = nabla_hat - K at a point.

    r_hat, r_nabla and r_bar are (0,4) tensors; ric and ric_bar are the Ricci
    tensors of nabla and nabla_bar, traced from the same curvatures; scale is
    1 + ||r_nabla||, the factor of the residual tolerances.  The chart caches
    one instance per point and every caller shares it, so residuals is a
    read-only mapping.
    """

    r_hat: np.ndarray
    r_nabla: np.ndarray
    r_bar: np.ndarray
    ric: np.ndarray
    ric_bar: np.ndarray
    scale: float
    residuals: Mapping[str, float]


def _dual_gamma(cs: ChartStructure, x, sign: float) -> np.ndarray:
    """Coefficients Gamma_hat + sign K of nabla (sign 1) or nabla_bar (sign -1) at x."""
    return christoffel_array(cs, x) + sign * cs.k_at(x)


def statistical_connections(cs: ChartStructure, x) -> StatConnections:
    """Both dual connections with their curvatures and the structural residuals, once per point.

    The statistical curvature is computed twice: from the coefficients of
    nabla directly, and through the decomposition into the Levi-Civita
    part, the antisymmetrized derivative of K, and the commutator term;
    the residual map reports the disagreement together with the duality
    defect, the curvature-sum defect, the conjugate reduction when it
    applies, and the product-rule defect of the dual pairing.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))

    def compute():
        g = cs.metric_at(x)
        ginv = cs.metric_inverse_at(x)
        _, r_hat = curvature_hat_arrays(cs, x)
        up = _curvature_from_gamma(cs, lambda y: _dual_gamma(cs, y, 1.0), x)
        up_bar = _curvature_from_gamma(cs, lambda y: _dual_gamma(cs, y, -1.0), x)
        r_nabla = _lower_first(g, up)
        r_bar = _lower_first(g, up_bar)
        bracket = bracket_kk(cs.point(x)).array
        na = nabla_cubic_at(cs, x)
        # curvature through the decomposition, Levi-Civita + dK terms + commutator
        r_sum = r_hat + na - np.swapaxes(na, 0, 1) + bracket
        g0, dg = _central(cs.metric_at, x, cs.h)
        residuals = {
            "curvature-two-routes": _g_norm(ginv, r_nabla - r_sum),
            "duality": _g_norm(ginv, r_nabla + np.swapaxes(r_bar, 2, 3)),
            "curvature-sum": _g_norm(ginv, r_nabla + r_bar - 2.0 * r_hat - 2.0 * bracket),
            "dual-pairing-product-rule": _dual_pairing_residual(
                g0, dg, _dual_gamma(cs, x, 1.0), _dual_gamma(cs, x, -1.0)
            ),
        }
        if conjugate_symmetry_defect(cs, x) < CONJUGATE_SYMMETRY_THRESHOLD:
            residuals["conjugate-reduction"] = _g_norm(ginv, r_nabla - r_hat - bracket)
        return StatConnections(
            r_hat=r_hat,
            r_nabla=r_nabla,
            r_bar=r_bar,
            ric=ricci_trace(up),
            ric_bar=ricci_trace(up_bar),
            scale=1.0 + _g_norm(ginv, r_nabla),
            residuals=MappingProxyType(residuals),
        )

    return cs._memo("conn", x, compute)


def conjugate_coefficients(g: np.ndarray, ginv: np.ndarray, dg: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """Coefficients of the metric-dual connection from the product rule.

    g(nabla_a e_i, e_j) + g(e_i, conj_a e_j) = d_a g_ij solved for conj, with
    ginv = g^{-1}; applying the map twice returns the input exactly (no FD
    error beyond the supplied dg).
    """
    # conj[m,a,j] g_im = dg[a,i,j] - gamma[l,a,i] g_lj
    rhs = dg - np.einsum("lai,lj->aij", gamma, g)
    return np.einsum("mi,aij->maj", ginv, rhs)


def duality_involution_defect(cs: ChartStructure, x) -> float:
    """Round-trip defect of conjugating the statistical connection twice."""
    x = np.asarray(x, dtype=float)
    g, dg = _central(cs.metric_at, x, cs.h)
    ginv = cs.metric_inverse_at(x)
    gamma_nabla = _dual_gamma(cs, x, 1.0)
    back = conjugate_coefficients(g, ginv, dg, conjugate_coefficients(g, ginv, dg, gamma_nabla))
    return float(np.max(np.abs(back - gamma_nabla)))


def _dual_pairing_residual(g, dg, gn, gb) -> float:
    """Defect of X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_bar_X Z) on coordinate frames."""
    resid = dg - np.einsum("jm,mai->aij", g, gn) - np.einsum("im,maj->aij", g, gb)
    return float(np.max(np.abs(resid)))


def _g_frame_min_eig(b: np.ndarray, form: np.ndarray) -> float:
    """Least eigenvalue of the symmetric part of a (0,2) form in the g-orthonormal frame b."""
    return float(np.min(np.linalg.eigvalsh(b.T @ (0.5 * (form + form.T)) @ b)))


def ricci_decomposition_residuals(cs: ChartStructure, x) -> dict[str, float]:
    """Residuals of the Ricci and scalar curvature decompositions at x.

    Keys: ricci-decomposition (Ric against Levi-Civita Ricci + div K -
    nabla tau + commutator Ricci), ricci-conjugate-sum, scalar-gap,
    koszul-form, koszul-trace, ricci-comparison-chain (least g-frame
    eigenvalue of 2 Ric_hat - Ric - Ric_bar + ||tau||^2 g / 2), plus the same
    without the tau term, ricci-comparison-tracefree, for trace-free structures
    and hessian-ricci when nabla is flat at x.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    sp = cs.point(x)

    conn = statistical_connections(cs, x)
    ric, ric_bar = conn.ric, conn.ric_bar
    ric_hat_arr = ric_hat(cs, x)
    na = nabla_cubic_at(cs, x)
    div_k = trace_pair(ginv, na, 0, 3)
    nabla_tau = nabla_at(cs, cs.tau_at, x)
    tau_circ = sp.tau_circ_k()
    gram = sp.gram_k()
    ric_k_arr = tau_circ - gram

    rho = trace_pair(ginv, ric, 0, 1)
    rho_hat_val = rho_hat(cs, x)

    # Koszul form beta = nabla tau computed from the nabla coefficients directly
    beta_direct = nabla_at(cs, cs.tau_at, x, gamma=_dual_gamma(cs, x, 1.0))
    beta_formula = nabla_tau - tau_circ
    tau_sq = float(sp.tau @ ginv @ sp.tau)
    delta_tau = trace_pair(ginv, nabla_tau, 0, 1)

    out = {
        "ricci-decomposition": _g_norm(ginv, ric - (ric_hat_arr + div_k - nabla_tau + ric_k_arr)),
        "ricci-conjugate-sum": _g_norm(
            ginv, ric + ric_bar - (2.0 * ric_hat_arr + 2.0 * tau_circ - 2.0 * gram)
        ),
        "scalar-gap": abs(rho_hat_val - (rho + sp.scalar_gap())),
        "koszul-form": _g_norm(ginv, beta_direct - beta_formula),
        "koszul-trace": abs(trace_pair(ginv, beta_formula, 0, 1) - (delta_tau - tau_sq)),
    }
    comparison = 2.0 * ric_hat_arr - ric - ric_bar
    frame, _ = cs.metric_frame_at(x)
    if sp.trace_free:
        out["ricci-comparison-tracefree"] = _g_frame_min_eig(frame, comparison)
    chain = comparison + 0.5 * tau_sq * cs.metric_at(x)
    out["ricci-comparison-chain"] = _g_frame_min_eig(frame, chain)
    if _g_norm(ginv, conn.r_nabla) < 1e-4:
        out["hessian-ricci"] = _g_norm(ginv, ric_hat_arr - (gram - tau_circ))
    return out


def sectional_nabla(cs: ChartStructure, x, plane) -> float:
    """Sectional curvature of the averaged statistical curvature (R + R_bar)/2."""
    conn = statistical_connections(cs, x)
    return sectional(0.5 * (conn.r_nabla + conn.r_bar), cs.metric_at(x), *plane)


# ---------------------------------------------------------------------------
# Laplacian-type identities for tensor fields


def _curvature_action(up: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivation action out[i,j, a...] = -(sum over slots) s(..., R(e_i,e_j) e_a, ...)."""
    k = s.ndim
    n = up.shape[0]
    out = np.zeros((n, n) + s.shape)
    for slot in range(k):
        term = np.tensordot(s, up, axes=(slot, 0))
        # axes now: s-minus-slot (k-1), then (i, j, a_slot)
        term = np.moveaxis(term, (k - 1, k, k + 1), (0, 1, 2 + slot))
        out -= term
    return out


def ricci_identity_residual(cs: ChartStructure, field: Field, x) -> float:
    """g-norm of nabla^2 s antisymmetrized in the derivative slots minus the curvature action."""
    x = cs.require_interior(np.asarray(x, dtype=float))
    second = nabla2_at(cs, field, x)
    up, _ = curvature_hat_arrays(cs, x)
    action = _curvature_action(up, np.asarray(field(x), dtype=float))
    diff = second - np.moveaxis(second, (0, 1), (1, 0)) - action
    return _g_norm(cs.metric_inverse_at(x), diff)


def squared_norm_field(cs: ChartStructure, field: Field) -> Callable[[np.ndarray], float]:
    """x -> ||s(x)||^2 with all slots contracted against g(x)^{-1}."""

    def f(x):
        s = np.asarray(field(x), dtype=float)
        return contract(cs.metric_inverse_at(x), s, s)

    return f


def simons_residual(cs: ChartStructure, field: Field, x) -> float:
    """Defect of (1/2) Lap ||s||^2 = g(Lap s, s) + ||nabla s||^2 for a covariant field."""
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, field), x)
    lap_s = laplacian_tensor_at(cs, field, x)
    middle = contract(ginv, np.asarray(field(x), dtype=float), lap_s)
    grad_norm_sq = _g_norm(ginv, nabla_at(cs, field, x)) ** 2
    return abs(lhs - middle - grad_norm_sq)


def weitzenbock_residual(cs: ChartStructure, taufield: Field, x) -> dict[str, float]:
    """Rough-vs-Hodge comparison for a 1-form, with the plus codifferential convention.

    Returns the 1-form identity residual ("weitzenbock") and the scalar
    consequence combining it with the squared-norm Laplacian identity
    ("simons-1form").
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    tau0 = np.asarray(taufield(x), dtype=float)

    rough = laplacian_tensor_at(cs, taufield, x)

    _, d_delta = _central(lambda y: codifferential_at(cs, taufield, y), x, cs.h)

    dtau_field = lambda y: exterior_derivative_1form_at(cs, taufield, y)
    delta_d = codifferential_at(cs, dtau_field, x)

    ric = ric_hat(cs, x)
    e_vec = ginv @ tau0
    ric_term = ric @ e_vec

    residual_1form = _g_norm(ginv, rough - d_delta - delta_d - ric_term)

    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, taufield), x)
    hodge_pair = float((d_delta + delta_d) @ ginv @ tau0)
    ric_ee = float(e_vec @ ric @ e_vec)
    grad_sq = _g_norm(ginv, nabla_at(cs, taufield, x)) ** 2
    residual_scalar = abs(lhs - hodge_pair - ric_ee - grad_sq)
    return {"weitzenbock": residual_1form, "simons-1form": residual_scalar}


def sym2_simons_residual(cs: ChartStructure, betafield: Field, x) -> tuple[float, float]:
    """Laplacian identity for a symmetric 2-form with symmetric covariant derivative.

    Returns (residual, eigen_term) where eigen_term is the sectional-curvature
    weighted sum over eigenvalue differences of beta relative to g.  Raises
    PreconditionError when nabla beta is not symmetric at x.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    nb = nabla_at(cs, betafield, x)
    scale = 1.0 + _g_norm(ginv, nb)
    asym = _g_norm(ginv, nb - symmetrize(nb)) / scale
    if asym >= 1e-4:
        raise PreconditionError(f"nabla beta is not symmetric at x (defect ratio {asym:g})")

    beta0 = np.asarray(betafield(x), dtype=float)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, betafield), x)
    grad_sq = _g_norm(ginv, nb) ** 2

    second = nabla2_at(cs, betafield, x)
    middle = contract(ginv, beta0, trace_pair(ginv, second, 2, 3))

    # generalized eigenstructure of beta against g via the orthonormal frame
    b, _ = cs.metric_frame_at(x)
    beta_hat = b.T @ beta0 @ b
    eigvals, eigvecs = np.linalg.eigh(0.5 * (beta_hat + beta_hat.T))
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    frame = b @ eigvecs
    _, r_low = curvature_hat_arrays(cs, x)
    # one sectional curvature per pair i < k of eigenvectors
    i, k = np.triu_indices(cs.n, 1)
    k_ik = sectional_contraction(r_low, frame[:, i].T, frame[:, k].T)
    eigen_term = float(np.sum(k_ik * (eigvals[i] - eigvals[k]) ** 2))
    residual = abs(lhs - (grad_sq + middle + eigen_term))
    return residual, eigen_term


# relative g-norm of R - H R0 up to which a cubic specialization applies: [K,K] is
# algebra on A at x (round-off only), R_hat carries the FD error of the curvature
BRACKET_FIT_TOL = 1e-6
SPLIT_FIT_TOL = 1e-4


def cubic_simons_residuals(cs: ChartStructure, x) -> dict[str, float]:
    """Laplacian formulas for the cubic form of a conjugate symmetric structure.

    Residual keys: laplace-cubic-bracket (commutator form), laplace-cubic-curvdiff
    (curvature-difference form), laplace-cubic-ricci (Ricci-pairing form),
    laplace-cubic-tracefree when the trace vector vanishes at x,
    laplace-cubic-constant-sectional when [K,K] = kappa R0 and
    laplace-cubic-dualflat when R_hat - [K,K] = c R0 at x, with kappa and c
    fit by fit_constant_curvature.  Raises PreconditionError with the
    asymmetry norm when the structure is not conjugate symmetric at x.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    defect = conjugate_symmetry_defect(cs, x)
    if defect >= CONJUGATE_SYMMETRY_THRESHOLD:
        raise PreconditionError(
            f"structure is not conjugate symmetric at x (asymmetry ratio {defect:g})"
        )
    ginv = cs.metric_inverse_at(x)
    sp = cs.point(x)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, cs.a_field), x)
    grad_sq = _g_norm(ginv, nabla_cubic_at(cs, x)) ** 2
    # nabla^2 tau (derivative, derivative, argument) paired with A on all three slots
    tau_pair = contract(ginv, cs.cubic_at(x), nabla2_at(cs, lambda y: cs.tau_at(y), x))

    bracket = bracket_kk(sp)
    conn = statistical_connections(cs, x)
    r_hat_low, r_low, ric = conn.r_hat, conn.r_nabla, conn.ric
    ric_hat_arr = ric_hat(cs, x)
    rho_hat_val = rho_hat(cs, x)
    gram = sp.gram_k()
    tau_circ = sp.tau_circ_k()

    bracket_term = contract(ginv, bracket.array, r_hat_low)
    ric_gram = contract(ginv, ric_hat_arr, gram)
    rhat_sq = contract(ginv, r_hat_low, r_hat_low)

    out = {
        "laplace-cubic-bracket": abs(lhs - (grad_sq + tau_pair - bracket_term + ric_gram)),
        "laplace-cubic-curvdiff": abs(
            lhs - (grad_sq + tau_pair + contract(ginv, r_hat_low - r_low, r_hat_low) + ric_gram)
        ),
        "laplace-cubic-ricci": abs(
            lhs
            - (
                grad_sq
                + tau_pair
                + rhat_sq
                + contract(ginv, ric_hat_arr, ric_hat_arr)
                - contract(ginv, r_low, r_hat_low)
                - contract(ginv, ric, ric_hat_arr)
                + contract(ginv, ric_hat_arr, tau_circ)
            )
        ),
    }
    if sp.trace_free:
        out["laplace-cubic-tracefree"] = abs(
            lhs
            - (
                grad_sq
                + rhat_sq
                + contract(ginv, ric_hat_arr, ric_hat_arr)
                - contract(ginv, r_low, r_hat_low)
                - contract(ginv, ric, ric_hat_arr)
            )
        )

    def fitted(rt: CurvTensor, rel_tol: float) -> float | None:
        try:
            return fit_constant_curvature(sp.g, rt, rel_tol)
        except PreconditionError:
            return None

    kappa = fitted(bracket, BRACKET_FIT_TOL)
    if kappa is not None:
        out["laplace-cubic-constant-sectional"] = abs(
            lhs - (grad_sq + tau_pair - 2.0 * kappa * rho_hat_val + ric_gram)
        )
    split = r_hat_low - bracket.array
    c = fitted(CurvTensor(0.5 * (split - np.swapaxes(split, 0, 1))), SPLIT_FIT_TOL)
    if c is not None:
        # the 1/2 on the Laplacian of ||A||^2 is inherited from the commutator form
        out["laplace-cubic-dualflat"] = abs(
            lhs - (grad_sq + tau_pair - rhat_sq + 2.0 * c * rho_hat_val + ric_gram)
        )
    return out


# ---------------------------------------------------------------------------
# construction of Hessian structures from a convex potential


@functools.lru_cache(maxsize=CACHE_SIZE)
def _potential_partials(expr, n: int):
    """The second partials and the cubic entries -(1/2) d^3 of a parsed potential, once per
    (tree, n); the parse cache makes the tree one per (potential text, n)."""
    first = [partial(expr, a) for a in range(n)]
    second = tuple(tuple(partial(first[a], b) for b in range(n)) for a in range(n))
    a_entries = MappingProxyType({
        f"{a + 1}{b + 1}{c + 1}": mul(Const(-0.5), partial(second[a][b], c))
        for a in range(n)
        for b in range(a, n)
        for c in range(b, n)
    })
    return second, a_entries


def hessian_from_potential(
    potential,
    domain,
    h: float = 1e-3,
    periodic=None,
    n: int | None = None,
) -> ChartStructure:
    """Chart whose metric is the coordinate Hessian of the potential.

    The potential is an expression over x1..xn; second and third partials
    are taken symbolically, so g = Hess(potential) and the cubic form
    -(1/2) d^3(potential) are exact closed forms, built through
    from_expressions from the partials over sorted index tuples.  Convexity
    is spot-checked on the construction lattice; a non-convex potential raises
    ConstructionError (any other construction error passes through unchanged).
    The coordinate connection is flat, verified by the differential suite as ||R|| = O(h^2).
    """
    domain = np.asarray(domain, dtype=float)
    if n is None:
        n = domain.shape[0]
    second, a_entries = _potential_partials(parse_expression(potential, n), n)
    try:
        return ChartStructure.from_expressions(n, domain, second, a_entries, h=h, periodic=periodic)
    except NotPositiveDefiniteError as exc:
        raise ConstructionError(f"potential is not convex on the domain: {exc}") from exc

