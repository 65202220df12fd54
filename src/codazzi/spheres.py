"""Quadrature over unit-sphere fibers and the unit sphere bundle of a periodic chart.

The fiber over a base point is the g(x)-unit sphere in the tangent space;
mapping the round sphere through an orthonormal frame turns every fiber
integral into a round-sphere integral, so quadratures are built once on
S^{n-1}.  Product rules: the circle uses the N-point trapezoid (exact for
trigonometric polynomials below degree N), and S^2 uses Gauss-Legendre in the
polar cosine crossed with a uniform azimuthal grid.  A product rule is built
once per (n, order) per process and its nodes and weights are read-only.
integrate_monte_carlo works in any dimension: it estimates an integral with
its standard error from normalized normal draws, taken MONTE_CARLO_BLOCK rows
at a time and dropped once read: no Monte Carlo node set is kept.  Integrals
are not cached here; a caller that integrates the same function on every run
(the integral suite's Monte Carlo cross-validation) keeps the result.

The bundle integrals over periodic charts walk their lattice by the chart's
lattice_blocks and evaluate each lattice point once: ros_refinement reads the
Ros integral at a lattice off the values of one pass over the lattice twice as
fine, and the fiber identity takes every slot's residual from one left side.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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
from .tensors import batch_first, batch_last, core_first, frame_components


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# the most recently used node-power tables, and product rules, that a process keeps
NODE_POWER_CACHE_SIZE = 64

# rows of Monte Carlo nodes drawn and normalized at a time
MONTE_CARLO_BLOCK = 8192


@dataclass(frozen=True)
class SphereQuadrature:
    """A product rule: nodes on S^{n-1} with weights summing to the sphere area."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.weights)


def product_gauss(n: int, order: int = 12) -> SphereQuadrature:
    """Deterministic product rule; exact for polynomial integrands up to ~order.

    Supported for n = 2 and n = 3; higher dimensions take integrate_monte_carlo.
    The rule is read-only and built once per (n, order): the cache holds the
    NODE_POWER_CACHE_SIZE most recently used rules.
    """
    return _product_gauss(_integer("dimension n", n, 1), _integer("order", order, 1))


def integrate_monte_carlo(n: int, count: int, f, seed: int = 0) -> tuple[float, float]:
    """(estimate, standard error) of the integral of f over S^{n-1} at count Monte Carlo nodes.

    The nodes are count normal draws of the seed's PCG64 stream, normalized onto
    S^{n-1}, at equal weights.  They are drawn MONTE_CARLO_BLOCK rows at a time, and
    each chunk is dropped once f has read it, so only the count values of f are held
    at once; the stream gives the same draws in chunks as in one call.  f takes an
    (m, n) chunk of nodes and returns m values, each from its own row.
    """
    # two nodes at least: the standard error divides by count - 1
    n, count = _integer("dimension n", n, 1), _integer("node count", count, 2)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    values = np.empty(count)
    for start in range(0, count, MONTE_CARLO_BLOCK):
        v = rng.standard_normal((min(MONTE_CARLO_BLOCK, count - start), n))
        # a sum over the short axis in column order: the same value as np.linalg.norm for n < 8
        v /= np.sqrt(sum(v[:, a] ** 2 for a in range(n)))[:, None]
        values[start:start + len(v)] = np.asarray(f(v), dtype=float)
    area = sphere_area(n)
    # a dot product with equal weights broadcast from one value; a plain sum rounds differently
    weights = np.broadcast_to(area / count, (count,))
    return float(weights @ values), float(area * np.std(values, ddof=1) / math.sqrt(count))


def quadrature_cache_info() -> tuple[int, int]:
    """Rules built and rules found in the per-process cache of product rules."""
    info = _product_gauss.cache_info()
    return info.misses, info.hits


def _integer(name: str, value, least: int) -> int:
    """value as an int; PreconditionError naming it unless it is an integer >= least, not a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise PreconditionError(f"{name} must be an integer >= {least}, got {value!r}")


@functools.lru_cache(maxsize=NODE_POWER_CACHE_SIZE)
def _product_gauss(n: int, order: int) -> SphereQuadrature:
    if n == 2:
        m = max(2 * order, 4)
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(m, 2.0 * math.pi / m)
    elif n == 3:
        nt = max(order, 4)
        mphi = max(2 * order, 8)
        t, wt = np.polynomial.legendre.leggauss(nt)
        phi = 2.0 * math.pi * np.arange(mphi) / mphi
        sin_theta = np.sqrt(1.0 - t**2)[:, None]
        nodes = np.stack(np.broadcast_arrays(
            sin_theta * np.cos(phi), sin_theta * np.sin(phi), t[:, None]), axis=-1).reshape(-1, 3)
        weights = np.repeat(wt * (2.0 * math.pi / mphi), mphi)
    else:
        raise PreconditionError(f"product-gauss fiber quadrature supports n = 2, 3 only (got {n})")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereQuadrature(nodes, weights)


def integrate_sphere(q: SphereQuadrature, f) -> float:
    """Integrate a scalar over S^{n-1} with a product rule.

    f takes the (m, n) node array and returns m values; a constant broadcasts to the weights.
    """
    values = np.broadcast_to(np.asarray(f(q.nodes), dtype=float), q.weights.shape)
    return float(q.weights @ values)


def node_powers(nodes: np.ndarray, k: int) -> np.ndarray:
    """The (m, n**k) rows V (x) ... (x) V (k factors) of the nodes, flattened in C order.

    The table is read-only and built once per (nodes, k): the cache holds the
    NODE_POWER_CACHE_SIZE most recently used tables.
    """
    nodes = np.ascontiguousarray(nodes, dtype=float)
    return _node_power_table(nodes.tobytes(), nodes.shape, k)


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
    """s(V,...,V) for every node V of nodes[m, n]: one node-table @ block product.

    The last k axes of s are its slots (default: all of them); axes before them are
    batch axes and stay in front of the node axis, giving [..., m] laid out batch-last.
    """
    s = np.asarray(s, dtype=float)
    k = s.ndim if k is None else k
    rows = core_first(batch_last(s, k), k)
    out = node_powers(nodes, k) @ rows.reshape((nodes.shape[-1] ** k, math.prod(rows.shape[k:])))
    return batch_first(out.reshape(out.shape[:1] + rows.shape[k:]), 1)


def _fiber_sum(values: np.ndarray, q: SphereQuadrature) -> np.ndarray:
    """The quadrature sum over the last (node) axis of values[..., m], per batch entry.

    Each entry gets the same bits alone or in any batch, so a lattice sum does not
    depend on its blocks; a BLAS matrix-vector product groups the entries by their
    position in the batch, and an entry's bits follow its group.
    """
    return np.einsum("...m,m->...", values, q.weights)


def fiber_identity_residuals(s, quad: SphereQuadrature | None = None) -> list[float]:
    """Defects of the fiber-integral identity for a covariant tensor on the round sphere,
    one per slot i0.

    (n + k - 2) * integral of s(V,...,V) equals the sum over slots j != i0 of
    the integrals of the (j, i0)-trace of s evaluated on (V,...,V).
    Components are taken in an orthonormal frame, so traces are plain.  The left
    side and each slot-pair trace are evaluated once for all slots.
    """
    s = np.asarray(s, dtype=float)
    k = s.ndim
    if not 2 <= k <= 4:
        raise PreconditionError(f"fiber identity supports tensors of degree 2..4, got {k}")
    n = s.shape[0]
    if quad is None:
        quad = product_gauss(n)
    lhs = (n + k - 2) * float(quad.weights @ poly_eval(s, quad.nodes))
    traces = _pair_traces(s, quad.nodes, range(k))
    return [abs(lhs - float(quad.weights @ _trace_terms(traces, i0, k))) for i0 in range(k)]


def _pair_traces(s: np.ndarray, nodes: np.ndarray, slots) -> dict:
    """The (a, b)-trace of s (a < b) evaluated on (V,...,V) per node, for each slot pair
    that holds one of slots."""
    return {(a, b): poly_eval(np.trace(s, axis1=a, axis2=b), nodes)
            for a, b in itertools.combinations(range(s.ndim), 2) if a in slots or b in slots}


def _trace_terms(traces: dict, i0: int, k: int) -> np.ndarray:
    """Sum over slots j != i0 of the (j, i0)-trace per node, in slot order, from _pair_traces."""
    return sum(traces[min(j, i0), max(j, i0)] for j in range(k) if j != i0)


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
    traces = _pair_traces(s, quad.nodes, (i0,))
    rhs = -(n + k - 2) * poly_eval(s, quad.nodes) + _trace_terms(traces, i0, k)
    return float(np.max(np.abs(delta - rhs)))


# ---------------------------------------------------------------------------
# unit sphere bundle integrals over periodic charts


def _periodic_lattice(cs: ChartStructure, lattice) -> tuple[list[int], float, float]:
    """(points per axis, cell volume, largest spacing) of a fully periodic chart's lattice."""
    cs.require_single("a bundle integral")
    if not all(cs.periodic):
        raise PreconditionError("bundle integrals need a fully periodic chart")
    counts = cs.lattice_counts(lattice)
    cell = float(np.prod([(cs.domain[a, 1] - cs.domain[a, 0]) / counts[a] for a in range(cs.n)]))
    spacing = max((cs.domain[a, 1] - cs.domain[a, 0]) / counts[a] for a in range(cs.n))
    return counts, cell, spacing


def _lattice_values(cs: ChartStructure, h: float, counts, per_point) -> list:
    """The per-point values that per_point(chart, block) returns, each one array in lattice order.

    One copy of cs with step h walks the lattice of counts by its lattice_blocks, each
    block in an empty memo, so memory does not grow with the lattice.
    """
    work = cs.with_step(h)
    blocks = [per_point(work, block) for block in work.lattice_blocks(counts)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _ros_values(cs: ChartStructure, s_field, k: int, quad: SphereQuadrature, lattice):
    """(values, h): the Ros integrand times the volume element at each lattice point, in
    lattice order, and the FD step they are taken with: cs.h capped at a quarter spacing."""
    counts, cell, spacing = _periodic_lattice(cs, lattice)
    h = min(cs.h, spacing / 4.0)

    def per_point(work, block):
        traced = codifferential_at(work, s_field, block)
        frame, vol = work.metric_frame_at(block)
        fiber = _fiber_sum(poly_eval(frame_components(frame, traced), quad.nodes, k - 1), quad)
        return (fiber * vol * cell,)

    (values,) = _lattice_values(cs, h, counts, per_point)
    return values, h


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
    values, _ = _ros_values(cs, s_field, k, quad, lattice)
    return abs(float(np.sum(values)))


def ros_refinement(
    cs: ChartStructure,
    s_field,
    k: int,
    quad: SphereQuadrature | None = None,
    lattice=32,
) -> tuple[float, float]:
    """(coarse, fine): ros_residual at lattice and at twice lattice per axis, bit for bit,
    from one pass over the fine lattice.

    A periodic axis's lattice step halves exactly, so the coarse lattice is the fine
    one's even-index sub-lattice and its cell is 2^n fine cells.  When the fine lattice
    takes the chart's own step, so does the coarse one; then each coarse value is 2^n
    times a fine value, and a power of two scales a sum without rounding, so the coarse
    sum is read off the fine values.  When the quarter-spacing cap binds, the two steps
    differ and the coarse lattice is evaluated on its own.
    """
    if quad is None:
        quad = product_gauss(cs.n)
    counts = [lattice] * cs.n if isinstance(lattice, int) else list(lattice)
    fine_counts = [2 * m for m in counts]
    fine, h = _ros_values(cs, s_field, k, quad, fine_counts)
    if h == cs.h:
        even = np.ascontiguousarray(fine.reshape(fine_counts)[(slice(None, None, 2),) * cs.n])
        coarse = float(np.sum(even)) * 2.0**cs.n
    else:
        coarse = float(np.sum(_ros_values(cs, s_field, k, quad, counts)[0]))
    return abs(coarse), abs(float(np.sum(fine)))


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
    counts, cell, _ = _periodic_lattice(cs, lattice)

    # spot-check the hypotheses at a handful of lattice points, in lattice order; conjugate
    # symmetry uses CONJUGATE_SYMMETRY_THRESHOLD, the bar of every conjugate-symmetry test
    probe = cs.lattice(counts, slice(None, None, max(1, math.prod(counts) // 7)))
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

    def per_point(work, block):
        frame, vol = work.metric_frame_at(block)
        density = vol * cell
        # R_hat first: its stencil leaves Gamma at the block in the memo for nabla_hat A
        r_hat = frame_components(frame, curvature_hat_arrays(work, block)[1])
        na_hat = frame_components(frame, nabla_cubic_at(work, block))
        a_hat = frame_components(frame, work.cubic_at(block))

        # the output slot goes ahead of the block as a batch axis: [n, block, m]
        f1 = np.sum(poly_eval(np.moveaxis(na_hat, -1, 0), nodes, 3) ** 2, axis=0)
        kvv = poly_eval(np.moveaxis(a_hat, -1, 0), nodes, 2)
        # R_hat(K(V,V), V, V, K(V,V)) one (i, l) pair at a time keeps the temporaries [block, m]
        f2 = sum(poly_eval(r_hat[..., i, :, :, l], nodes, 2) * kvv[i] * kvv[l]
                 for i in range(cs.n) for l in range(cs.n))
        return _fiber_sum(f1, quad) * density, 3.0 * _fiber_sum(f2, quad) * density

    term_grad, term_curv = (float(np.sum(out))
                            for out in _lattice_values(cs, cs.h, counts, per_point))
    return term_grad, term_curv, term_grad + term_curv
