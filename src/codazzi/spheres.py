"""Quadrature over unit-sphere fibers and the unit sphere bundle of a periodic chart.

The fiber over a base point is the g(x)-unit sphere in the tangent space;
mapping the round sphere through an orthonormal frame turns every fiber
integral into a round-sphere integral, so quadratures are built once on
S^{n-1}.  Product rules: the circle uses the N-point trapezoid (exact for
trigonometric polynomials below degree N), S^2 uses Gauss-Legendre in the
polar cosine crossed with a uniform azimuthal grid, and higher dimensions
fall back to Monte Carlo with a reported standard error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .charts import (
    CONJUGATE_SYMMETRY_THRESHOLD,
    ChartStructure,
    codifferential_at,
    conjugate_symmetry_defect,
    curvature_hat_arrays,
    nabla_at,
    nabla_cubic_at,
)
from .errors import PreconditionError
from .tensors import frame_components


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes on S^{n-1} with weights summing to the sphere area."""

    n: int
    method: str
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.weights)


def product_gauss(n: int, order: int = 12) -> SphereQuadrature:
    """Deterministic product rule; exact for polynomial integrands up to ~order.

    Supported for n = 2 and n = 3; higher dimensions are Monte Carlo only.
    """
    if n == 2:
        m = max(2 * order, 4)
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(m, 2.0 * math.pi / m)
        return SphereQuadrature(2, "product-gauss", nodes, weights)
    if n == 3:
        nt = max(order, 4)
        mphi = max(2 * order, 8)
        t, wt = np.polynomial.legendre.leggauss(nt)
        phi = 2.0 * math.pi * np.arange(mphi) / mphi
        sin_theta = np.sqrt(1.0 - t**2)[:, None]
        nodes = np.stack(np.broadcast_arrays(
            sin_theta * np.cos(phi), sin_theta * np.sin(phi), t[:, None]), axis=-1)
        weights = np.repeat(wt * (2.0 * math.pi / mphi), mphi)
        return SphereQuadrature(3, "product-gauss", nodes.reshape(-1, 3), weights)
    raise PreconditionError(f"product-gauss fiber quadrature supports n = 2, 3 only (got {n})")


def monte_carlo(n: int, count: int, seed: int = 0) -> SphereQuadrature:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    # a sum over the short axis in column order: the same value as np.linalg.norm for n < 8
    v /= np.sqrt(sum(v[:, a] ** 2 for a in range(n)))[:, None]
    weights = np.full(count, sphere_area(n) / count)
    return SphereQuadrature(n, "monte-carlo", v, weights)


def integrate_sphere(q: SphereQuadrature, f):
    """Integrate a scalar over S^{n-1}; Monte Carlo also returns the standard error.

    f takes the (m, n) node array and returns m values; a constant broadcasts to the weights.
    """
    values = np.broadcast_to(np.asarray(f(q.nodes), dtype=float), q.weights.shape)
    estimate = float(q.weights @ values)
    if q.method == "monte-carlo":
        stderr = float(sphere_area(q.n) * np.std(values, ddof=1) / math.sqrt(q.node_count))
        return estimate, stderr
    return estimate


def node_powers(nodes: np.ndarray, k: int) -> np.ndarray:
    """The (m, n**k) rows V (x) ... (x) V (k factors) of the nodes, flattened in C order.

    The table is read-only and built once per (nodes, k): the cache holds the
    NODE_POWER_CACHE_SIZE most recently used tables.
    """
    nodes = np.ascontiguousarray(nodes, dtype=float)
    return _node_power_table(nodes.tobytes(), nodes.shape, k)


NODE_POWER_CACHE_SIZE = 64


@functools.lru_cache(maxsize=NODE_POWER_CACHE_SIZE)
def _node_power_table(data: bytes, shape: tuple[int, int], k: int) -> np.ndarray:
    nodes = np.frombuffer(data).reshape(shape)
    rows = np.ones((len(nodes), 1))
    for _ in range(k):
        rows = (rows[:, :, None] * nodes[:, None, :]).reshape(len(nodes), -1)
    rows.setflags(write=False)
    return rows


def node_power_cache_info():
    """Hits, misses and size of the per-process cache of node-power tables."""
    return _node_power_table.cache_info()


def poly_eval(s: np.ndarray, nodes: np.ndarray, k: int | None = None) -> np.ndarray:
    """s(V,...,V) for every node V of nodes[m, n]: one matmul against the node tensor powers.

    The last k axes of s are its slots (default: all of them); axes before them are
    batch axes and stay in front of the node axis, giving [..., m].
    """
    s = np.asarray(s, dtype=float)
    k = s.ndim if k is None else k
    return s.reshape(s.shape[:s.ndim - k] + (-1,)) @ node_powers(nodes, k).T


def fiber_identity_residual(s, i0: int, quad: SphereQuadrature | None = None) -> float:
    """Defect of the fiber-integral identity for a covariant tensor on the round sphere.

    (n + k - 2) * integral of s(V,...,V) equals the sum over slots j != i0 of
    the integrals of the (j, i0)-trace of s evaluated on (V,...,V).
    Components are taken in an orthonormal frame, so traces are plain.
    """
    s = np.asarray(s, dtype=float)
    k = s.ndim
    if not 2 <= k <= 4:
        raise PreconditionError(f"fiber identity supports tensors of degree 2..4, got {k}")
    n = s.shape[0]
    if quad is None:
        quad = product_gauss(n)
    lhs = (n + k - 2) * float(quad.weights @ poly_eval(s, quad.nodes))
    return abs(lhs - float(quad.weights @ _trace_terms(s, i0, quad.nodes)))


def _trace_terms(s: np.ndarray, i0: int, nodes: np.ndarray) -> np.ndarray:
    """Sum over slots j != i0 of the (j, i0)-trace of s evaluated on (V,...,V), per node."""
    out = np.zeros(len(nodes))
    for j in range(s.ndim):
        if j != i0:
            out = out + poly_eval(np.trace(s, axis1=min(j, i0), axis2=max(j, i0)), nodes)
    return out


# great-circle FD step: O(step^2) = 1e-8 truncation, eps / step ~ 1e-12 round-off
SPHERE_CODIFF_STEP = 1e-4


def sphere_codiff_residual(s, i0: int, quad: SphereQuadrature | None = None) -> float:
    """Pointwise defect of the spherical codifferential formula over the nodes.

    The 1-form alpha_V(e) = s(V,...,e,...,V) (e in slot i0) is differentiated
    tangentially along great circles; its codifferential must equal
    -(n+k-2) s(V,...,V) plus the (j, i0)-trace terms.
    """
    s = np.asarray(s, dtype=float)
    k = s.ndim
    if not 2 <= k <= 4:
        raise PreconditionError(f"spherical codifferential supports degree 2..4, got {k}")
    n = s.shape[0]
    if quad is None:
        quad = product_gauss(n, order=6)

    def alpha(p, e):
        vals = poly_eval(np.moveaxis(s, i0, 0), p.reshape(-1, n), k - 1)
        return np.sum(vals.T * e.reshape(-1, n), axis=-1).reshape(p.shape[:-1])

    v = quad.nodes
    # eigh sorts the eigenvalue 0 of the projection (along v) first: the rest span the tangent space
    _, vec = np.linalg.eigh(np.eye(n) - v[:, :, None] * v[:, None, :])
    tangent = np.swapaxes(vec[:, :, 1:], 1, 2)
    v = v[:, None, :]
    cp, sp_ = math.cos(SPHERE_CODIFF_STEP), math.sin(SPHERE_CODIFF_STEP)
    plus = alpha(cp * v + sp_ * tangent, -sp_ * v + cp * tangent)
    minus = alpha(cp * v - sp_ * tangent, sp_ * v + cp * tangent)
    delta = np.sum((plus - minus) / (2.0 * SPHERE_CODIFF_STEP), axis=1)
    rhs = -(n + k - 2) * poly_eval(s, quad.nodes) + _trace_terms(s, i0, quad.nodes)
    return float(np.max(np.abs(delta - rhs)))


# ---------------------------------------------------------------------------
# unit sphere bundle integrals over periodic charts


def _periodic_lattice(cs: ChartStructure, lattice) -> tuple[np.ndarray, float, float]:
    if not all(cs.periodic):
        raise PreconditionError("bundle integrals need a fully periodic chart")
    if isinstance(lattice, int):
        lattice = [lattice] * cs.n
    points = cs.lattice(lattice)
    cell = float(np.prod([(cs.domain[a, 1] - cs.domain[a, 0]) / lattice[a] for a in range(cs.n)]))
    spacing = max((cs.domain[a, 1] - cs.domain[a, 0]) / lattice[a] for a in range(cs.n))
    return points, cell, spacing


def ros_residual(
    cs: ChartStructure,
    s_field,
    k: int,
    quad: SphereQuadrature | None = None,
    lattice=32,
) -> float:
    """Absolute value of the bundle integral of tr_g(nabla s)(.,.,V,...,V).

    The base integral uses the trapezoid rule on the periodic lattice with
    the Riemannian volume density; the fiber integral evaluates the traced
    tensor's components in the orthonormal frame of g(x) on the quadrature
    nodes.  The FD step is capped at a quarter of the lattice spacing, so
    coarse lattices do not probe fields beyond their own resolution and the
    total error, which vanishes as O(max(h, spacing)^2) for smooth fields on
    the torus, scales down under joint refinement.
    """
    if quad is None:
        quad = product_gauss(cs.n)
    points, cell, spacing = _periodic_lattice(cs, lattice)
    work = ChartStructure(cs.n, cs.domain, cs.g_field, cs.a_field,
                          h=min(cs.h, spacing / 4.0), periodic=cs.periodic)
    traced = codifferential_at(work, s_field, points)
    frame, vol = work.metric_frame_at(points)
    fiber = poly_eval(frame_components(frame, traced), quad.nodes, k - 1) @ quad.weights
    return abs(float(np.sum(fiber * vol * cell)))


def unit_bundle_functional(
    cs: ChartStructure,
    quad: SphereQuadrature | None = None,
    lattice=32,
) -> tuple[float, float, float]:
    """Bundle integrals whose sum vanishes for conjugate symmetric structures
    with parallel trace form.

    Returns (term_grad, term_curvature, sum) where term_grad integrates
    ||(nabla K)(V,V,V)||^2 >= 0 and term_curvature integrates
    3 g(R_hat(K(V,V), V)V, K(V,V)) over the unit sphere bundle.  Violated
    hypotheses (conjugate symmetry, nabla tau = 0) raise PreconditionError
    so callers can label the check skipped rather than failed.
    """
    if quad is None:
        quad = product_gauss(cs.n)
    # unlike the Ros integral the two terms here are large and cancel, so the
    # chart's own (small) step is the accuracy driver, not the lattice
    points, cell, _ = _periodic_lattice(cs, lattice)

    # spot-check the hypotheses at a handful of lattice points, in lattice order; conjugate
    # symmetry uses CONJUGATE_SYMMETRY_THRESHOLD, the bar of every conjugate-symmetry test
    probe = points[:: max(1, len(points) // 7)]
    defect = conjugate_symmetry_defect(cs, probe)
    nabla_tau = np.max(np.abs(nabla_at(cs, cs.tau_at, probe)), axis=(1, 2))
    failed = (defect >= CONJUGATE_SYMMETRY_THRESHOLD) | (nabla_tau >= 1e-4)
    if np.any(failed):
        i = int(np.argmax(failed))
        if defect[i] >= CONJUGATE_SYMMETRY_THRESHOLD:
            raise PreconditionError(
                f"structure is not conjugate symmetric at {probe[i].tolist()} "
                f"(defect {defect[i]:g})"
            )
        raise PreconditionError(
            f"trace form is not parallel at {probe[i].tolist()} (|nabla tau| = {nabla_tau[i]:g})"
        )

    nodes = quad.nodes
    frame, vol = cs.metric_frame_at(points)
    density = vol * cell
    na_hat = frame_components(frame, nabla_cubic_at(cs, points))
    a_hat = frame_components(frame, cs.cubic_at(points))
    r_hat = frame_components(frame, curvature_hat_arrays(cs, points)[1])

    # the output slot goes ahead of the node slots: [L, n, m]
    f1 = np.sum(poly_eval(np.moveaxis(na_hat, -1, -4), nodes, 3) ** 2, axis=-2)
    kvv = poly_eval(np.moveaxis(a_hat, -1, -3), nodes, 2)
    # R_hat(K(V,V), V, V, K(V,V)) one (i, l) pair at a time keeps the temporaries [L, m]
    f2 = sum(poly_eval(r_hat[..., i, :, :, l], nodes, 2) * kvv[..., i, :] * kvv[..., l, :]
             for i in range(cs.n) for l in range(cs.n))
    term_grad = float(np.sum(f1 @ quad.weights * density))
    term_curv = float(np.sum(3.0 * (f2 @ quad.weights) * density))
    return term_grad, term_curv, term_grad + term_curv
