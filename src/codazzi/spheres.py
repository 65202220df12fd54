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

import math
from dataclasses import dataclass

import numpy as np

from .charts import ChartStructure, curvature_hat_arrays, nabla_at, nabla_cubic_at
from .errors import PreconditionError
from .tensors import frame_components

_EINSUM_LETTERS = "abcdefgh"


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
        sin_theta = np.sqrt(1.0 - t**2)
        nodes = np.empty((nt * mphi, 3))
        weights = np.empty(nt * mphi)
        idx = 0
        for a in range(nt):
            for b in range(mphi):
                nodes[idx] = (
                    sin_theta[a] * math.cos(phi[b]),
                    sin_theta[a] * math.sin(phi[b]),
                    t[a],
                )
                weights[idx] = wt[a] * (2.0 * math.pi / mphi)
                idx += 1
        return SphereQuadrature(3, "product-gauss", nodes, weights)
    raise PreconditionError(f"product-gauss fiber quadrature supports n = 2, 3 only (got {n})")


def monte_carlo(n: int, count: int, seed: int = 0) -> SphereQuadrature:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    weights = np.full(count, sphere_area(n) / count)
    return SphereQuadrature(n, "monte-carlo", v, weights)


def integrate_sphere(q: SphereQuadrature, f, vectorized: bool = False):
    """Integrate a scalar over S^{n-1}; Monte Carlo also returns the standard error."""
    if vectorized:
        values = np.asarray(f(q.nodes), dtype=float)
    else:
        values = np.array([float(f(v)) for v in q.nodes])
    estimate = float(q.weights @ values)
    if q.method == "monte-carlo":
        stderr = float(sphere_area(q.n) * np.std(values, ddof=1) / math.sqrt(q.node_count))
        return estimate, stderr
    return estimate


def poly_eval(s: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """s(V,...,V) for every node at once."""
    k = s.ndim
    letters = _EINSUM_LETTERS[:k]
    spec = letters + "," + ",".join(f"m{c}" for c in letters) + "->m"
    return np.einsum(spec, s, *([nodes] * k))


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
    rhs = 0.0
    for j in range(k):
        if j == i0:
            continue
        traced = np.trace(s, axis1=min(j, i0), axis2=max(j, i0))
        if traced.ndim == 0:
            rhs += float(traced) * sphere_area(n)
        else:
            rhs += float(quad.weights @ poly_eval(traced, quad.nodes))
    return abs(lhs - rhs)


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to v."""
    n = len(v)
    proj = np.eye(n) - np.outer(v, v)
    w, vec = np.linalg.eigh(proj)
    return vec[:, w > 0.5]


def sphere_codiff_residual(
    s, i0: int, quad: SphereQuadrature | None = None, h_sphere: float = 1e-4
) -> float:
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
        args = [p] * k
        args[i0] = e
        letters = _EINSUM_LETTERS[:k]
        spec = letters + "," + ",".join(letters) + "->"
        return float(np.einsum(spec, s, *args))

    worst = 0.0
    for v in quad.nodes:
        tangent = _tangent_basis(v)
        delta = 0.0
        for t_idx in range(tangent.shape[1]):
            t = tangent[:, t_idx]
            cp, sp_ = math.cos(h_sphere), math.sin(h_sphere)
            plus = alpha(cp * v + sp_ * t, -sp_ * v + cp * t)
            minus = alpha(cp * v - sp_ * t, sp_ * v + cp * t)
            delta += (plus - minus) / (2.0 * h_sphere)
        rhs = -(n + k - 2) * poly_eval(s, v[None, :])[0]
        for j in range(k):
            if j == i0:
                continue
            traced = np.trace(s, axis1=min(j, i0), axis2=max(j, i0))
            rhs += float(traced) if traced.ndim == 0 else poly_eval(traced, v[None, :])[0]
        worst = max(worst, abs(delta - rhs))
    return worst


# ---------------------------------------------------------------------------
# unit sphere bundle integrals over periodic charts


def _periodic_lattice(cs: ChartStructure, lattice) -> tuple[np.ndarray, float, float]:
    if not all(cs.periodic):
        raise PreconditionError("bundle integrals need a fully periodic chart")
    if isinstance(lattice, int):
        lattice = [lattice] * cs.n
    axes = [
        np.linspace(cs.domain[a, 0], cs.domain[a, 1], lattice[a], endpoint=False)
        for a in range(cs.n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod([(cs.domain[a, 1] - cs.domain[a, 0]) / lattice[a] for a in range(cs.n)]))
    spacing = max((cs.domain[a, 1] - cs.domain[a, 0]) / lattice[a] for a in range(cs.n))
    return points, cell, spacing


def _coupled_chart(cs: ChartStructure, spacing: float) -> ChartStructure:
    """Same fields with the FD step tied to the lattice spacing (h = spacing/4).

    The FD step never exceeds a quarter of the lattice spacing, so coarse
    lattices do not probe fields beyond their own resolution and the total
    error scales down under joint refinement.
    """
    h_fd = min(cs.h, spacing / 4.0)
    return ChartStructure(
        cs.n,
        cs.domain,
        cs.g_field,
        cs.a_field,
        h=h_fd,
        periodic=cs.periodic,
        g_source=cs.g_source,
        a_source=cs.a_source,
        aux_fields=cs.aux_fields,
        spot_check=False,
    )


def ros_residual(
    cs: ChartStructure,
    s_field,
    k: int,
    quad: SphereQuadrature | None = None,
    lattice=32,
) -> float:
    """Absolute value of the bundle integral of tr_g(nabla s)(.,.,V,...,V).

    The base integral uses the trapezoid rule on the periodic lattice with
    the Riemannian volume density; the fiber integral maps the quadrature
    nodes through the orthonormal frame of g(x).  Vanishes as
    O(max(h, spacing)^2) for smooth fields on the torus.
    """
    if quad is None:
        quad = product_gauss(cs.n)
    points, cell, spacing = _periodic_lattice(cs, lattice)
    work = _coupled_chart(cs, spacing)
    nodes = quad.nodes
    total = 0.0
    for x in points:
        ns = nabla_at(work, s_field, x)
        ginv = work.metric_inverse_at(x)
        traced = np.tensordot(ns, ginv, axes=((0, 1), (0, 1)))
        g = work.metric_at(x)
        frame = np.linalg.cholesky(ginv)
        world = nodes @ frame.T
        if traced.ndim == 0:
            fiber = float(traced) * sphere_area(cs.n)
        else:
            fiber = float(quad.weights @ poly_eval(traced, world))
        total += fiber * math.sqrt(np.linalg.det(g)) * cell
    return abs(total)


def unit_bundle_functional(
    cs: ChartStructure,
    quad: SphereQuadrature | None = None,
    lattice=32,
    hypothesis_tol: float = 1e-6,
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
    points, cell, spacing = _periodic_lattice(cs, lattice)
    # unlike the Ros integral the two terms here are large and cancel, so the
    # chart's own (small) step is the accuracy driver, not the lattice
    work = cs

    # spot-check the hypotheses at a handful of lattice points
    from .charts import conjugate_symmetry_defect

    probe = points[:: max(1, len(points) // 7)]
    for x in probe:
        defect = conjugate_symmetry_defect(work, x)
        if defect >= hypothesis_tol:
            raise PreconditionError(
                f"structure is not conjugate symmetric at {x.tolist()} (defect {defect:g})"
            )
        nabla_tau = nabla_at(work, lambda y: work.tau_at(y), x)
        if float(np.max(np.abs(nabla_tau))) >= 1e-4:
            raise PreconditionError(
                f"trace form is not parallel at {x.tolist()} "
                f"(|nabla tau| = {float(np.max(np.abs(nabla_tau))):g})"
            )

    nodes = quad.nodes
    term_grad = 0.0
    term_curv = 0.0
    for x in points:
        ginv = work.metric_inverse_at(x)
        frame = np.linalg.cholesky(ginv)
        density = math.sqrt(np.linalg.det(work.metric_at(x))) * cell
        na_hat = frame_components(frame, nabla_cubic_at(work, x))
        a_hat = frame_components(frame, work.cubic_at(x))
        _, r_low = curvature_hat_arrays(work, x)
        r_hat = frame_components(frame, r_low)

        grad_vec = np.einsum("abcw,ma,mb,mc->mw", na_hat, nodes, nodes, nodes)
        f1 = np.sum(grad_vec**2, axis=1)
        kvv = np.einsum("abw,ma,mb->mw", a_hat, nodes, nodes)
        f2 = np.einsum("ijkl,mi,mj,mk,ml->m", r_hat, kvv, nodes, nodes, kvv)
        term_grad += float(quad.weights @ f1) * density
        term_curv += 3.0 * float(quad.weights @ f2) * density
    return term_grad, term_curv, term_grad + term_curv
