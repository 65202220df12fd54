"""Finite-difference differential calculus on coordinate charts.

A ChartStructure carries closed-form fields x -> g(x) and x -> A(x) over an
axis-aligned box.  Every field maps a batch of points x[..., n] to values
[..., *shape]; a single point is a batch of shape (n,).  Every derivative is
a second-order central difference with a fixed step h in chart coordinates,
taken from one field call on the whole stencil of a batch; nested
differences give covariant second derivatives, Laplacians and curvature.
All residual checks of the differential identities (curvature
decompositions, Ricci identities, Laplacian formulas for 1-forms, symmetric
2-forms and cubic forms) live here, and the harness compares each residual
against a tol(h) = C * h^2 budget.  Every producer, structural or Laplacian,
takes a batch x[..., n] and returns one residual per point, as arrays over the
batch axes; a key that applies at some points only carries a mask (Applies).
No producer treats a single point apart: the tensors kernels run one point as
a batch of two copies (tensors.single_point_rule), so a point alone gets the
bits of its row in any batch.

Index conventions (after the leading batch axes): connection coefficients
are stored as gamma[k, i, j] = Gamma^k_ij, curvature as up[m, i, j, k] with
R(e_i, e_j)e_k = up[:, i, j, k] and fully covariant curvature
R[i, j, k, l] = g(R(e_i,e_j)e_k, e_l).
A covariant derivative prepends the derivative slot: (nabla s)[a, ...] =
(nabla_a s)(...).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConstructionError, NotPositiveDefiniteError, PreconditionError
from .expressions import CACHE_SIZE, Const, compile_tensor, mul, parse_expression, partial
from .points import TRACE_FREE_TOL, constant_curvature_fit, require_at_every_point
from .tensors import (
    batch_first,
    commutator_curvature,
    compose,
    contract,
    covariant_derivative,
    first_bianchi_defect,
    frame_components,
    gram_k,
    last_pair_antisymmetry_defect,
    lower_first,
    max_abs,
    metric_factors,
    raise_last,
    ricci_trace,
    sectional,
    symmetrize,
    tau_circ_k,
    trace_k,
    trace_pair,
)

Field = Callable[[np.ndarray], np.ndarray]
"""Maps points x[..., n] to values [..., *shape]."""

CONJUGATE_SYMMETRY_THRESHOLD = 1e-6
# largest asymmetry of a cubic field (max |A - sym A|) or a metric field (max |g - g^T|),
# relative to the field's largest entry, that the chart accepts
CUBIC_SYMMETRY_TOL = 1e-9


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
        self.n = n
        self.domain = domain
        self.h = _valid_step(h)
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

    def with_step(self, h: float) -> "ChartStructure":
        """The same chart with finite-difference step h and an empty memo.

        The fields, box, periodic flags, sources and aux fields are shared with this
        chart.  The spot check reads only the fields and the box, so it is not run again.
        """
        out = copy.copy(self)
        out.h = _valid_step(h)
        out._cache = {}
        return out

    def lattice(self, counts) -> np.ndarray:
        """Grid points of the box, counts per axis (or one int), as an array [m, n] in C order.

        A periodic axis leaves out its far face, which is the near face again.
        """
        counts = [counts] * self.n if isinstance(counts, int) else list(counts)
        if len(counts) != self.n or min(counts) < 1:
            raise ConstructionError(f"lattice counts must be one int or one per axis (n = "
                                    f"{self.n}), each at least 1: {counts!r}")
        axes = [np.linspace(lo, hi, m, endpoint=not periodic)
                for (lo, hi), m, periodic in zip(self.domain, counts, self.periodic)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.n)

    def _spot_check(self):
        """Validate the fields on the 5-point lattice of the box and at its midpoint (which
        a periodic axis's lattice leaves out): shapes, finite values, a positive definite
        metric, and a metric and a cubic form symmetric to within CUBIC_SYMMETRY_TOL relative."""
        n = self.n
        points = np.vstack([self.lattice(5), self.domain.mean(axis=1)])
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

        def asymmetric(values, mirrored):
            # max |T - mirrored T| per point, relative to max |T| (to 1 where T vanishes)
            axes = tuple(range(1, values.ndim))
            scale = np.max(np.abs(values), axis=axes)
            defect = np.max(np.abs(values - mirrored), axis=axes)
            return defect > CUBIC_SYMMETRY_TOL * np.where(scale > 0.0, scale, 1.0)

        first(~np.all(np.isfinite(g), axis=(1, 2)), "metric field is not finite")
        first(asymmetric(g, np.swapaxes(g, -1, -2)), "metric field is not symmetric")
        try:
            metric_factors(g, points)
        except ConstructionError as exc:
            # the message names the point; keep the type (hessian_from_potential reads it)
            raise type(exc)(f"metric field fails: {exc}") from exc
        first(~np.all(np.isfinite(a), axis=(1, 2, 3)), "cubic field is not finite")
        first(asymmetric(a, symmetrize(a, degree=3)), "cubic field is not symmetric")

    # -- point access ----------------------------------------------------------

    def require_interior(self, x):
        """x[..., n] as floats; raises for the first point within 2h of a non-periodic face."""
        x = np.asarray(x, dtype=float)
        margin = 2.0 * self.h
        bounds = self._cache.get(("interior", margin))
        if bounds is None:
            # the box shrunk by the margin, and the axes that are not periodic
            bounds = self._cache[("interior", margin)] = (
                self.domain[:, 0] + margin - 1e-12, self.domain[:, 1] - margin + 1e-12,
                ~np.array(self.periodic))
        lo, hi, fixed = bounds
        bad = ~((lo <= x) & (x <= hi)) & fixed
        if bad.any():
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
        """(frame, sqrt(det g)) at x: the orthonormal frame and the Riemannian volume density,
        from the factorization that gives metric_inverse_at."""
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


def _valid_step(h) -> float:
    if not (math.isfinite(h) and h > 0):
        raise ConstructionError(f"finite-difference step h must be finite and positive: {h!r}")
    return float(h)


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


@functools.lru_cache(maxsize=CACHE_SIZE)
def _stencil(n: int, h: float, corners: bool) -> np.ndarray:
    """Offsets [m, n] of a point's stencil: 0 and +-h e_a, then with corners the points
    +-h e_a +- h e_b (a < b) of the mixed second differences."""
    steps = h * np.eye(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)] if corners else []
    mixed = [sa * steps[a] + sb * steps[b] for a, b in pairs
             for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    out = np.concatenate([np.zeros((1, n)), steps, -steps, np.reshape(mixed, (-1, n))])
    out.setflags(write=False)
    return out


def _shifted(field: Field, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The field at x + each row of offsets[m, n], [m, ..., *shape], from a single call: the
    stencil axis leads the batch axes, so a batch-last value holds each row as one block."""
    m, n = offsets.shape
    return np.asarray(field(x + offsets.reshape((m,) + (1,) * (x.ndim - 1) + (n,))), dtype=float)


def _central(field: Field, x, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, ds) at x: the value [..., *shape] and the central differences [..., a, *shape].

    One field call on x and its 2n shifts x +- h e_a.  The value is the stencil's first row,
    whose batch rows are contiguous; the differences are laid out batch-last.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    values = _shifted(field, x, _stencil(n, h, False))
    core = values.ndim - x.ndim
    # [stencil, *shape, ...]: each difference is written core-first, batch rows innermost
    rows = values.transpose((0,) + tuple(range(x.ndim, values.ndim)) + tuple(range(1, x.ndim)))
    ds = np.subtract(rows[1:n + 1], rows[n + 1:], order="C")
    ds /= 2.0 * h
    return values[0], batch_first(ds, core + 1)


def christoffel_array(cs: ChartStructure, x) -> np.ndarray:
    """Levi-Civita coefficients gamma[..., k, i, j] of g at x (exactly torsion-free)."""

    def compute():
        g, dg = _central(cs.metric_at, x, cs.h)
        # the stencil's centre row is g at x: memoized here, metric_inverse_at reads it
        # without a second field call (a view of the memoized stencil, never written)
        cs._memo("g", x, lambda: g)
        # first kind: first[i, j, l] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, then l raised
        d_l = np.swapaxes(np.swapaxes(dg, -3, -2), -2, -1)
        first = 0.5 * (dg + np.swapaxes(dg, -3, -2) - d_l)
        gamma = raise_last(cs.metric_inverse_at(x), first)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    return cs._memo("gamma", x, compute)


def christoffel(cs: ChartStructure, x) -> np.ndarray:
    """Levi-Civita coefficients at an interior point x."""
    return christoffel_array(cs, cs.require_interior(x))


def metricity_residual(cs: ChartStructure, x):
    """Max |nabla_hat g| component at x[..., n]; O(h^2) since the coefficients come from FD."""
    return max_abs(nabla_at(cs, cs.g_field, x), 3)


def nabla_at(cs: ChartStructure, field: Field, x, gamma=None) -> np.ndarray:
    """Covariant derivative of a covariant field at x; derivative slot first (after batch axes).

    gamma gives the connection coefficients at x (default the Levi-Civita ones).
    """
    x = np.asarray(x, dtype=float)
    s0, ds = _central(field, x, cs.h)
    return covariant_derivative(christoffel_array(cs, x) if gamma is None else gamma, ds, s0)


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
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    values = _shifted(f, x, _stencil(n, h, True))
    f0, fp, fm = values[0], values[1 : n + 1], values[n + 1 : 2 * n + 1]
    grad = batch_first((fp - fm) / (2 * h), 1)
    # written core-first: hess[..., a, b] laid out batch-last
    hess = np.empty((n, n) + x.shape[:-1])
    for a in range(n):
        hess[a, a] = (fp[a] - 2.0 * f0 + fm[a]) / (h * h)
    for p, (a, b) in enumerate(pairs):
        fpp, fpm, fmp, fmm = values[2 * n + 1 + 4 * p : 2 * n + 5 + 4 * p]
        hess[a, b] = hess[b, a] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    # hess_ab - Gamma^c_ab d_c f, traced against g^ab
    connection = tau_circ_k(grad, christoffel_array(cs, x))
    return trace_pair(cs.metric_inverse_at(x), batch_first(hess, 2) - connection, 0, 1)


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
    # quad[m, i, j, k] = Gamma^m_ip Gamma^p_jk; its i <-> j swap is the other quadratic term
    # (not commutator_curvature: a defect in that kernel would cancel in curvature-sum)
    quad = compose(gamma0)
    d_j = np.swapaxes(np.swapaxes(dgamma, -4, -3), -3, -2)  # d_j Gamma^m_ik at [m, i, j, k]
    return np.swapaxes(dgamma, -4, -3) - d_j + quad - np.swapaxes(quad, -3, -2)


def curvature_hat_arrays(cs: ChartStructure, x) -> tuple[np.ndarray, np.ndarray]:
    """(up, low) arrays of R_hat at x; raises for a point within 2h of a non-periodic face."""
    cs.require_interior(x)

    def coefficients(y):
        gamma = christoffel_array(cs, y)
        # the stencil's first row is x + 0, so its row is Gamma at x: memoized here,
        # nabla_at reads it without a second field call (a view, never written)
        cs._memo("gamma", x, lambda: gamma[0])
        return gamma

    def compute():
        up = _curvature_from_gamma(cs, coefficients, x)
        low = lower_first(cs.metric_at(x), up)
        return up, low

    return cs._memo("rhat", x, compute)


def curvature_hat_invariants(cs: ChartStructure, x):
    """First Bianchi defect plus (k,l) antisymmetry defect of R_hat at x[..., n], per point.

    Both are read on R_hat antisymmetrized in its first two slots.
    """
    _, low = curvature_hat_arrays(cs, x)
    r = 0.5 * (low - np.swapaxes(low, -4, -3))
    return first_bianchi_defect(r) + last_pair_antisymmetry_defect(r)


def ric_hat(cs: ChartStructure, x) -> np.ndarray:
    up, _ = curvature_hat_arrays(cs, x)
    ric = ricci_trace(up)
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def rho_hat(cs: ChartStructure, x):
    return trace_pair(cs.metric_inverse_at(x), ric_hat(cs, x), 0, 1)


def sectional_hat(cs: ChartStructure, x, plane):
    """Sectional curvature of R_hat on the plane (u, v) at x[..., n], per point."""
    _, low = curvature_hat_arrays(cs, x)
    return sectional(low, cs.metric_at(x), *plane)


# ---------------------------------------------------------------------------
# statistical connections and the structural identities


def nabla_cubic_at(cs: ChartStructure, x) -> np.ndarray:
    """(nabla_hat A)[a, i, j, k] at x."""
    return cs._memo("nablaA", x, lambda: nabla_at(cs, cs.a_field, x))


def conjugate_symmetry_defect(cs: ChartStructure, x):
    """Scale-free asymmetry of nabla_hat A at x[..., n]: ||asym|| / (1 + ||nabla_hat A||)."""
    na = nabla_cubic_at(cs, x)
    asym, size = _g_norms(cs.metric_inverse_at(x), na - symmetrize(na, degree=4), na)
    return asym / (1.0 + size)


def conjugate_symmetry_criteria(cs: ChartStructure, x) -> dict[str, np.ndarray]:
    """The three defects that vanish together exactly for conjugate symmetric structures.

    r-vs-rbar is ||R - R_bar||, asym-nabla-a the asymmetry of nabla_hat A, and
    zw-skew ||R + R with its last two slots swapped||.
    """
    conn = statistical_connections(cs, x)
    r_vs_rbar, zw_skew = _g_norms(cs.metric_inverse_at(x), conn.r_nabla - conn.r_bar,
                                  conn.r_nabla + np.swapaxes(conn.r_nabla, -2, -1))
    return {"r-vs-rbar": r_vs_rbar, "asym-nabla-a": conjugate_symmetry_defect(cs, x),
            "zw-skew": zw_skew}


def _pairings(ginv: np.ndarray, *pairs) -> list:
    """contract(ginv, t, s) for each pair (t, s), all of one shape, from one contraction."""
    left = np.stack([t for t, _ in pairs])
    right = left if all(t is s for t, s in pairs) else np.stack([s for _, s in pairs])
    return list(contract(ginv[None], left, right))


def _g_norms(ginv: np.ndarray, *arrs) -> list:
    """The g-norm of each array, all of one shape, from one contraction."""
    return [np.sqrt(np.maximum(v, 0.0)) for v in _pairings(ginv, *((a, a) for a in arrs))]


class Applies(NamedTuple):
    """A residual key that applies at some points only: its values over the batch axes,
    and mask, true at the points where it applies."""

    values: np.ndarray
    mask: np.ndarray


def residuals_at(residuals: Mapping, index) -> dict[str, float]:
    """A producer's residuals at one point of its batch, as floats: each key that applies
    there.  index () reads a single point, whose values have no batch axes."""
    out = {}
    for key, value in residuals.items():
        if isinstance(value, Applies):
            if not value.mask[index]:
                continue
            value = value.values
        out[key] = float(np.asarray(value)[index])
    return out


def _residual_map(values: dict, applies: dict) -> dict:
    """The residual map of a producer: arrays over the batch axes of its points, each key of
    applies held with its mask."""
    return {key: Applies(np.asarray(value), np.asarray(applies[key])) if key in applies
            else np.asarray(value) for key, value in values.items()}


@dataclass(frozen=True)
class StatConnections:
    """Curvatures of the dual pair nabla = nabla_hat + K, nabla_bar = nabla_hat - K at x[..., n].

    r_hat, r_nabla, r_bar and bracket ([K,K] lowered) are (0,4) tensors; ric and
    ric_bar are the Ricci tensors of nabla and nabla_bar, traced from the same
    curvatures; scale is 1 + ||r_nabla||, the factor of the residual tolerances.
    Each has the batch axes of x in front, and residuals maps each key to its
    values over them, as residuals_at reads them.  The chart caches one instance
    per batch and every caller shares it, so residuals is a read-only mapping.
    """

    r_hat: np.ndarray
    r_nabla: np.ndarray
    r_bar: np.ndarray
    bracket: np.ndarray
    ric: np.ndarray
    ric_bar: np.ndarray
    scale: np.ndarray
    residuals: Mapping[str, np.ndarray | Applies]


def _dual_gamma(cs: ChartStructure, x, sign: float) -> np.ndarray:
    """Coefficients Gamma_hat + sign K of nabla (sign 1) or nabla_bar (sign -1) at x."""
    return christoffel_array(cs, x) + sign * cs.k_at(x)


def statistical_connections(cs: ChartStructure, x) -> StatConnections:
    """Both dual connections with their curvatures and the structural residuals at x[..., n].

    The statistical curvature is computed twice: from the coefficients of
    nabla directly, and through the decomposition into the Levi-Civita
    part, the antisymmetrized derivative of K, and the commutator term;
    the residual map reports the disagreement together with the duality
    defect, the curvature-sum defect, the conjugate reduction where it
    applies, and the product-rule defect of the dual pairing.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))

    def compute():
        g = cs.metric_at(x)
        ginv = cs.metric_inverse_at(x)
        _, r_hat = curvature_hat_arrays(cs, x)
        up = _curvature_from_gamma(cs, lambda y: _dual_gamma(cs, y, 1.0), x)
        up_bar = _curvature_from_gamma(cs, lambda y: _dual_gamma(cs, y, -1.0), x)
        # the three lowered from one stack, so a single point is a batch of three
        r_nabla, r_bar, bracket = lower_first(
            g[None], np.stack([up, up_bar, commutator_curvature(cs.k_at(x))]))
        na = nabla_cubic_at(cs, x)
        # curvature through the decomposition, Levi-Civita + dK terms + commutator
        r_sum = r_hat + na - np.swapaxes(na, -4, -3) + bracket
        g0, dg = _central(cs.metric_at, x, cs.h)
        two_routes, duality, curvature_sum, reduction, size = _g_norms(
            ginv, r_nabla - r_sum, r_nabla + np.swapaxes(r_bar, -2, -1),
            r_nabla + r_bar - 2.0 * r_hat - 2.0 * bracket, r_nabla - r_hat - bracket, r_nabla)
        values = {
            "curvature-two-routes": two_routes,
            "duality": duality,
            "curvature-sum": curvature_sum,
            "dual-pairing-product-rule": _dual_pairing_residual(
                g0, dg, _dual_gamma(cs, x, 1.0), _dual_gamma(cs, x, -1.0)
            ),
            "conjugate-reduction": reduction,
        }
        symmetric = conjugate_symmetry_defect(cs, x) < CONJUGATE_SYMMETRY_THRESHOLD
        return StatConnections(
            r_hat=r_hat,
            r_nabla=r_nabla,
            r_bar=r_bar,
            bracket=bracket,
            ric=ricci_trace(up),
            ric_bar=ricci_trace(up_bar),
            scale=1.0 + size,
            residuals=MappingProxyType(
                _residual_map(values, {"conjugate-reduction": symmetric})),
        )

    return cs._memo("conn", x, compute)


def conjugate_coefficients(g: np.ndarray, ginv: np.ndarray, dg: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """Coefficients of the metric-dual connection from the product rule.

    g(nabla_a e_i, e_j) + g(e_i, conj_a e_j) = d_a g_ij solved for conj, with
    ginv = g^{-1}; applying the map twice returns the input exactly (no FD
    error beyond the supplied dg).  The batch axes of g, ginv, dg[..., a, i, j]
    and gamma[..., l, a, i] match.
    """
    # rhs[a, i, j] = dg[a, i, j] - gamma[l, a, i] g_lj
    rhs = dg - lower_first(g, gamma)
    # conj[m, a, j] = g^{mi} rhs[a, i, j]
    return raise_last(ginv, np.swapaxes(rhs, -1, -2))


def duality_involution_defect(cs: ChartStructure, x):
    """Round-trip defect of conjugating the statistical connection twice, at x[..., n]."""
    x = np.asarray(x, dtype=float)
    g, dg = _central(cs.metric_at, x, cs.h)
    ginv = cs.metric_inverse_at(x)
    gamma_nabla = _dual_gamma(cs, x, 1.0)
    back = conjugate_coefficients(g, ginv, dg, conjugate_coefficients(g, ginv, dg, gamma_nabla))
    return max_abs(back - gamma_nabla, 3)


def _dual_pairing_residual(g, dg, gn, gb):
    """Defect of X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_bar_X Z) on coordinate frames."""
    # g_jm gn[m, a, i] and g_im gb[m, a, j], each at [a, i, j], lowered from one stack
    low_n, low_b = lower_first(g[None], np.stack([gn, gb]))
    resid = dg - low_n - np.swapaxes(low_b, -1, -2)
    return max_abs(resid, 3)


def _g_frame_min_eig(b: np.ndarray, form: np.ndarray):
    """Least eigenvalue of the symmetric part of a (0,2) form in the g-orthonormal frame b."""
    sym = 0.5 * (form + np.swapaxes(form, -1, -2))
    return np.min(np.linalg.eigvalsh(frame_components(b, sym)), axis=-1)


def ricci_decomposition_residuals(cs: ChartStructure, x) -> dict:
    """Residuals of the Ricci and scalar curvature decompositions at x[..., n].

    Keys: ricci-decomposition (Ric against Levi-Civita Ricci + div K -
    nabla tau + commutator Ricci), ricci-conjugate-sum, scalar-gap,
    koszul-form, koszul-trace, ricci-comparison-chain (least g-frame
    eigenvalue of 2 Ric_hat - Ric - Ric_bar + ||tau||^2 g / 2), plus the same
    without the tau term, ricci-comparison-tracefree, where the structure is
    trace-free and hessian-ricci where nabla is flat.  The values are arrays over
    the batch axes of x, as residuals_at reads them.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    g = cs.metric_at(x)
    ginv = cs.metric_inverse_at(x)
    k, tau = cs.k_at(x), cs.tau_at(x)

    conn = statistical_connections(cs, x)
    ric, ric_bar = conn.ric, conn.ric_bar
    ric_hat_arr = ric_hat(cs, x)
    na = nabla_cubic_at(cs, x)
    div_k = trace_pair(ginv, na, 0, 3)
    nabla_tau = nabla_at(cs, cs.tau_at, x)
    tau_circ = tau_circ_k(tau, k)
    gram = gram_k(ginv, g, k)
    ric_k_arr = tau_circ - gram

    # Koszul form beta = nabla tau computed from the nabla coefficients directly
    beta_direct = nabla_at(cs, cs.tau_at, x, gamma=_dual_gamma(cs, x, 1.0))
    beta_formula = nabla_tau - tau_circ
    # the four g-traces from one stack
    rho, rho_hat_val, delta_tau, tr_beta = trace_pair(
        ginv[None], np.stack([ric, ric_hat_arr, nabla_tau, beta_formula]), 0, 1)
    # ||tau||^2 = ||E||^2, and ||A||^2 - ||E||^2 is the scalar gap
    tau_sq = contract(ginv, tau, tau)
    scalar_gap = contract(ginv, cs.cubic_at(x), cs.cubic_at(x)) - tau_sq

    comparison = 2.0 * ric_hat_arr - ric - ric_bar
    frame, _ = cs.metric_frame_at(x)
    chain = comparison + 0.5 * np.asarray(tau_sq)[..., None, None] * g
    decomposition, conjugate_sum, koszul, hessian = _g_norms(
        ginv, ric - (ric_hat_arr + div_k - nabla_tau + ric_k_arr),
        ric + ric_bar - (2.0 * ric_hat_arr + 2.0 * tau_circ - 2.0 * gram),
        beta_direct - beta_formula, ric_hat_arr - (gram - tau_circ))
    tracefree_eig, chain_eig = _g_frame_min_eig(frame[None], np.stack([comparison, chain]))
    values = {
        "ricci-decomposition": decomposition,
        "ricci-conjugate-sum": conjugate_sum,
        "scalar-gap": abs(rho_hat_val - (rho + scalar_gap)),
        "koszul-form": koszul,
        "koszul-trace": abs(tr_beta - (delta_tau - tau_sq)),
        "ricci-comparison-tracefree": tracefree_eig,
        "ricci-comparison-chain": chain_eig,
        "hessian-ricci": hessian,
    }
    applies = {
        # trace-free: ||E|| < TRACE_FREE_TOL
        "ricci-comparison-tracefree": tau_sq < TRACE_FREE_TOL ** 2,
        # scale is 1 + ||R||
        "hessian-ricci": conn.scale - 1.0 < 1e-4,
    }
    return _residual_map(values, applies)


def sectional_nabla(cs: ChartStructure, x, plane):
    """Sectional curvature of the averaged statistical curvature (R + R_bar)/2 at x[..., n]."""
    conn = statistical_connections(cs, x)
    return sectional(0.5 * (conn.r_nabla + conn.r_bar), cs.metric_at(x), *plane)


def sectional_bracket(cs: ChartStructure, x, plane):
    """Sectional curvature of the commutator curvature [K,K] at x[..., n]."""
    return sectional(statistical_connections(cs, x).bracket, cs.metric_at(x), *plane)


# ---------------------------------------------------------------------------
# Laplacian-type identities for tensor fields


def ricci_identity_residual(cs: ChartStructure, field: Field, x) -> np.ndarray:
    """g-norm of nabla^2 s antisymmetrized in the derivative slots minus the curvature action,
    per point of x[..., n]."""
    x = cs.require_interior(np.asarray(x, dtype=float))
    second = nabla2_at(cs, field, x)
    up, _ = curvature_hat_arrays(cs, x)
    s, n, lead = np.asarray(field(x), dtype=float), cs.n, x.ndim - 1
    # the action -(sum over slots) s(..., R(e_i,e_j) e_a, ...) is the connection term of a
    # covariant derivative whose coefficients up[..., m, (i, j), a] take (i, j) as its slot
    flat = second.shape[:lead] + (n * n,) + second.shape[lead + 2:]
    action = covariant_derivative(up.reshape(up.shape[:lead] + (n, n * n, n)), np.zeros(flat), s)
    diff = second - np.swapaxes(second, lead, lead + 1) - action.reshape(second.shape)
    return _g_norms(cs.metric_inverse_at(x), diff)[0]


def squared_norm_field(cs: ChartStructure, field: Field) -> Field:
    """x -> ||s(x)||^2 with all slots contracted against g(x)^{-1}."""

    def f(x):
        s = np.asarray(field(x), dtype=float)
        return contract(cs.metric_inverse_at(x), s, s)

    return f


def simons_residual(cs: ChartStructure, field: Field, x) -> np.ndarray:
    """Defect of (1/2) Lap ||s||^2 = g(Lap s, s) + ||nabla s||^2 for a covariant field, per
    point of x[..., n]."""
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, field), x)
    lap_s = laplacian_tensor_at(cs, field, x)
    middle = contract(ginv, np.asarray(field(x), dtype=float), lap_s)
    grad_norm_sq = _g_norms(ginv, nabla_at(cs, field, x))[0] ** 2
    return abs(lhs - middle - grad_norm_sq)


def weitzenbock_residual(cs: ChartStructure, taufield: Field, x) -> dict[str, np.ndarray]:
    """Rough-vs-Hodge comparison for a 1-form, with the plus codifferential convention.

    Returns, per point of x[..., n], the 1-form identity residual ("weitzenbock") and the
    scalar consequence combining it with the squared-norm Laplacian identity
    ("simons-1form").
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    tau0 = np.asarray(taufield(x), dtype=float)

    rough = laplacian_tensor_at(cs, taufield, x)

    _, d_delta = _central(lambda y: codifferential_at(cs, taufield, y), x, cs.h)

    dtau_field = lambda y: exterior_derivative_1form_at(cs, taufield, y)
    delta_d = codifferential_at(cs, dtau_field, x)

    # Ric(., E) for E = tau raised: the last slot of Ric traced against tau
    ric_term = trace_pair(ginv, ric_hat(cs, x)[..., None] * tau0[..., None, None, :], 1, 2)

    residual_1form = _g_norms(ginv, rough - d_delta - delta_d - ric_term)[0]

    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, taufield), x)
    hodge_pair, ric_ee = _pairings(ginv, (d_delta + delta_d, tau0), (ric_term, tau0))
    grad_sq = _g_norms(ginv, nabla_at(cs, taufield, x))[0] ** 2
    residual_scalar = abs(lhs - hodge_pair - ric_ee - grad_sq)
    return {"weitzenbock": residual_1form, "simons-1form": residual_scalar}


def sym2_simons_residual(cs: ChartStructure, betafield: Field,
                         x) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian identity for a symmetric 2-form with symmetric covariant derivative.

    Returns (residual, eigen_term) per point of x[..., n], where eigen_term is the
    sectional-curvature weighted sum over eigenvalue differences of beta relative to g.
    Raises PreconditionError at the first point, in batch order, where nabla beta is not
    symmetric.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    ginv = cs.metric_inverse_at(x)
    nb = nabla_at(cs, betafield, x)
    nb_norm, asym = _g_norms(ginv, nb, nb - symmetrize(nb, degree=3))
    asym = asym / (1.0 + nb_norm)
    require_at_every_point(asym >= 1e-4, asym,
                            "nabla beta is not symmetric at x (defect ratio {:g})")

    beta0 = np.asarray(betafield(x), dtype=float)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, betafield), x)
    grad_sq = nb_norm ** 2

    second = nabla2_at(cs, betafield, x)
    middle = contract(ginv, beta0, trace_pair(ginv, second, 2, 3))

    # generalized eigenstructure of beta against g via the orthonormal frame b; eigh gives
    # the eigenvalues in ascending order
    b, _ = cs.metric_frame_at(x)
    beta_hat = frame_components(b, beta0)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (beta_hat + np.swapaxes(beta_hat, -1, -2)))
    # R_hat in the eigenframe b eigvecs: one sectional curvature per pair i < k
    _, r_low = curvature_hat_arrays(cs, x)
    r_eig = frame_components(eigvecs, frame_components(b, r_low))
    i, k = np.triu_indices(cs.n, 1)
    eigen_term = np.sum(r_eig[..., i, k, k, i] * (eigvals[..., i] - eigvals[..., k]) ** 2,
                        axis=-1)
    residual = abs(lhs - (grad_sq + middle + eigen_term))
    return residual, eigen_term


# relative g-norm of R - H R0 up to which a cubic specialization applies: [K,K] is
# algebra on A at x (round-off only), R_hat carries the FD error of the curvature
BRACKET_FIT_TOL = 1e-6
SPLIT_FIT_TOL = 1e-4


def cubic_simons_residuals(cs: ChartStructure, x) -> dict:
    """Laplacian formulas for the cubic form of a conjugate symmetric structure, per point of
    x[..., n].

    Residual keys: laplace-cubic-bracket (commutator form), laplace-cubic-curvdiff
    (curvature-difference form), laplace-cubic-ricci (Ricci-pairing form), and three
    that apply at some points only (Applies): laplace-cubic-tracefree where the trace
    vector vanishes, laplace-cubic-constant-sectional where [K,K] = kappa R0 and
    laplace-cubic-dualflat where R_hat - [K,K] = c R0, with kappa and c fit by
    constant_curvature_fit.  Raises PreconditionError with the asymmetry norm of the
    first point, in batch order, where the structure is not conjugate symmetric.  [K,K]
    comes from statistical_connections, so a chart point builds it once.
    """
    x = cs.require_interior(np.asarray(x, dtype=float))
    defect = conjugate_symmetry_defect(cs, x)
    require_at_every_point(defect >= CONJUGATE_SYMMETRY_THRESHOLD, defect,
                            "structure is not conjugate symmetric at x (asymmetry ratio {:g})")
    g, ginv = cs.metric_at(x), cs.metric_inverse_at(x)
    k, tau = cs.k_at(x), cs.tau_at(x)
    lhs = 0.5 * scalar_laplacian_at(cs, squared_norm_field(cs, cs.a_field), x)
    # nabla^2 tau (derivative, derivative, argument) paired with A on all three slots
    tau_pair = contract(ginv, cs.cubic_at(x), nabla2_at(cs, lambda y: cs.tau_at(y), x))

    conn = statistical_connections(cs, x)
    r_hat_low, r_low, ric, bracket = conn.r_hat, conn.r_nabla, conn.ric, conn.bracket
    ric_hat_arr = ric_hat(cs, x)
    rho_hat_val = rho_hat(cs, x)
    gram = gram_k(ginv, g, k)
    tau_circ = tau_circ_k(tau, k)

    na = nabla_cubic_at(cs, x)
    grad_sq, bracket_term, rhat_sq, curvdiff_term, r_rhat = _pairings(
        ginv, (na, na), (bracket, r_hat_low), (r_hat_low, r_hat_low),
        (r_hat_low - r_low, r_hat_low), (r_low, r_hat_low))
    ric_gram, ric_hat_sq, ric_ric_hat, ric_tau = _pairings(
        ginv, (ric_hat_arr, gram), (ric_hat_arr, ric_hat_arr), (ric, ric_hat_arr),
        (ric_hat_arr, tau_circ))
    # the Ricci-pairing form without its tau term
    ricci_form = grad_sq + rhat_sq + ric_hat_sq - r_rhat - ric_ric_hat
    kappa, _, kappa_fits = constant_curvature_fit(g, ginv, bracket, BRACKET_FIT_TOL)
    split = r_hat_low - bracket
    c, _, c_fits = constant_curvature_fit(g, ginv, 0.5 * (split - np.swapaxes(split, -4, -3)),
                                          SPLIT_FIT_TOL)
    values = {
        "laplace-cubic-bracket": abs(lhs - (grad_sq + tau_pair - bracket_term + ric_gram)),
        "laplace-cubic-curvdiff": abs(lhs - (grad_sq + tau_pair + curvdiff_term + ric_gram)),
        "laplace-cubic-ricci": abs(lhs - (ricci_form + tau_pair + ric_tau)),
        "laplace-cubic-tracefree": abs(lhs - ricci_form),
        "laplace-cubic-constant-sectional": abs(
            lhs - (grad_sq + tau_pair - 2.0 * kappa * rho_hat_val + ric_gram)),
        # the 1/2 on the Laplacian of ||A||^2 is inherited from the commutator form
        "laplace-cubic-dualflat": abs(
            lhs - (grad_sq + tau_pair - rhat_sq + 2.0 * c * rho_hat_val + ric_gram)),
    }
    applies = {
        # trace-free: ||E|| < TRACE_FREE_TOL
        "laplace-cubic-tracefree": contract(ginv, tau, tau) < TRACE_FREE_TOL ** 2,
        "laplace-cubic-constant-sectional": kappa_fits,
        "laplace-cubic-dualflat": c_fits,
    }
    return _residual_map(values, applies)


# ---------------------------------------------------------------------------
# construction of Hessian structures from a convex potential


@functools.lru_cache(maxsize=CACHE_SIZE)
def _potential_partials(expr, n: int):
    """The second partials and the cubic entries -(1/2) d^3 of a parsed potential, once per
    (tree, n); the parse cache makes the tree one per (potential text, n)."""
    from .structures_io import cubic_triples  # structures_io imports charts, so import late

    first = [partial(expr, a) for a in range(n)]
    second = tuple(tuple(partial(first[a], b) for b in range(n)) for a in range(n))
    a_entries = MappingProxyType({
        f"{a + 1}{b + 1}{c + 1}": mul(Const(-0.5), partial(second[a][b], c))
        for a, b, c in cubic_triples(n)
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

