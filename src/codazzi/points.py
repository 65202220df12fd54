"""Pointwise (derivative-free) quantities of a statistical structure.

A statistical structure at a point is a pair of arrays: a metric g[n, n]
and a totally symmetric cubic form a[n, n, n].  K = A with the last slot
raised, E = tr_g K, and tau = g(E, .) is the trace form.  Everything here
is algebra in those components: the commutator curvature [K,K], its Ricci
tensor and scalar, the sectional invariant of [K,K], the sharp trace
inequalities with their equality certificates, and the squared-norm
quantities entering the Laplacian bounds for the cubic form.

Each function takes (g, a) and factors g through tensors.metric_factors.
The ones that check_structure and the algebraic suite run together on one
structure (ric_k, ric_k_from_bracket, rho_k, frame_cubic, scalar_gap_bounds
and the quarter and eighth inequalities) also read the factors passed as
factors=metric_factors(g), so the caller factors the structure once;
require_finite returns the factors it checked.  The functions built from
the batched kernels of tensors alone (bracket_kk, ric_k, ric_k_from_bracket,
frame_cubic, trace_free_part) accept leading batch axes on g and a.  The
inequality and norm formulas are written once, as
batched kernels over cubic components a[..., n, n, n] in an orthonormal
frame (g = identity there); the pointwise checks call them with the frame
components of one structure, the random sweeps of the suites on whole
batches.  An equality certificate reads its witnesses from the components of
A in one orthonormal frame, with no search over frames: the norm gap equals
(n+2)/3 ||A_0||^2 for the trace-free part A_0, so its witness is ||A_0||.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DimensionMismatchError, PreconditionError
from .tensors import (
    batch_first,
    batch_last,
    check_riemannian_symmetries,
    commutator_curvature,
    contract,
    core_first,
    frame_components,
    gram_k,
    lower_first,
    metric_factors,
    r0_curvature,
    raise_last,
    ricci_trace,
    sectional,
    single_point_rule,
    symmetrize,
    tau_circ_k,
    trace_k,
    trace_pair,
)

TRACE_FREE_TOL = 1e-12
CERTIFICATE_TOL = 1e-9


@dataclass
class EqualityCertificate:
    """Named residual witnesses for an equality characterization.

    holds is True exactly when every witness residual is below the tolerance.
    """

    holds: bool
    witnesses: list[tuple[str, float]]
    tolerance: float = CERTIFICATE_TOL

    @classmethod
    def from_witnesses(cls, witnesses, tolerance=CERTIFICATE_TOL):
        holds = all(abs(v) < tolerance for _, v in witnesses)
        return cls(holds=holds, witnesses=list(witnesses), tolerance=tolerance)


# ---------------------------------------------------------------------------
# commutator curvature


def _factors(g, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, frame, sqrt(det g)): the factors passed in, else metric_factors(g)."""
    return metric_factors(g) if factors is None else factors


def _difference_tensor(g, a, factors=None) -> tuple[np.ndarray, np.ndarray]:
    """(g^{-1}, K) of the structure: K[..., m, i, j] = g^{ml} A_ijl."""
    ginv = _factors(g, factors)[0]
    return ginv, raise_last(ginv, a)


def _bracket_up(g, a, factors=None) -> np.ndarray:
    """up[..., m, i, j, k] = ([K,K](e_i, e_j)e_k)^m = (K_i K_j e_k - K_j K_i e_k)^m."""
    return commutator_curvature(_difference_tensor(g, a, factors)[1])


def bracket_kk(g, a) -> np.ndarray:
    """[K,K](X,Y)Z = K_X K_Y Z - K_Y K_X Z, lowered to a (0,4) curvature array.

    [K,K] has every symmetry of a Riemannian curvature tensor; a defect above
    round-off raises ConstructionError.
    """
    low = lower_first(g, _bracket_up(g, a))
    check_riemannian_symmetries(low, 1e-10 * (1.0 + float(np.max(np.abs(low)))))
    return low


def _ric(ginv: np.ndarray, g, k: np.ndarray) -> np.ndarray:
    """tau(K(Y,Z)) - g(K_Y, K_Z) from g^{-1}, g and K."""
    return tau_circ_k(trace_k(k), k) - gram_k(ginv, g, k)


def ric_k(g, a, factors=None) -> np.ndarray:
    """Ricci tensor of [K,K] through the trace identity tau(K(Y,Z)) - g(K_Y, K_Z)."""
    ginv, k = _difference_tensor(g, a, factors)
    return _ric(ginv, g, k)


def ric_k_from_bracket(g, a, factors=None) -> np.ndarray:
    """Ricci tensor of [K,K] as the direct trace of X -> [K,K](X,Y)Z."""
    return ricci_trace(_bracket_up(g, a, factors))


def _scalar_gap(ginv: np.ndarray, k: np.ndarray, a):
    """||A||^2 - ||E||^2 per structure, the scalar curvature of g minus that of nabla."""
    tau = trace_k(k)
    return contract(ginv, a, a) - contract(ginv, tau, tau)


def rho_k(g, a, factors=None) -> tuple[float, float]:
    """Scalar curvature of [K,K], computed two independent ways.

    Returns (trace of ric_k, ||E||^2 - ||K||^2), per structure of a stack; the two
    agree for every structure and the harness reports their difference as a residual.
    """
    ginv, k = _difference_tensor(g, a, factors)
    return trace_pair(ginv, _ric(ginv, g, k), 0, 1), -_scalar_gap(ginv, k, a)


def sectional_k(g, a, x, y) -> float:
    """Sectional invariant of [K,K] on the plane spanned by x, y."""
    return sectional(bracket_kk(g, a), g, x, y)


# ---------------------------------------------------------------------------
# batched kernels over orthonormal-frame components a[..., n, n, n]
#
# The kernels read their operands laid out batch-last (see tensors.batch_last), so each
# contraction of the short (length n) slots is an einsum whose inner loop runs over
# contiguous batch rows: a fixed-order sum of elementwise products.  One point runs by
# tensors.single_point_rule, as a batch of two copies of it, so a point gets the same bits
# alone as in any batch, and from either memory layout.


def _batch_kernel(*cores: int):
    """Run a kernel on operands laid out batch-last; operand i has cores[i] trailing core axes.

    Operands are broadcast to one batch shape first, and one point runs by
    single_point_rule.  A kernel calls another through its __wrapped__ body, since its own
    operands are laid out.
    """
    def decorate(kernel):
        def laid_out(*operands):
            operands = [np.asarray(x) for x in operands]
            batches = [x.shape[:x.ndim - k] for x, k in zip(operands, cores)]
            batch = batches[0]
            if any(b != batch for b in batches):
                batch = np.broadcast_shapes(*batches)
            return kernel(*(batch_last(x if b == batch else
                                       np.broadcast_to(x, batch + x.shape[len(b):]), k)
                            for x, b, k in zip(operands, batches, cores)))

        return functools.update_wrapper(single_point_rule(*cores)(laid_out), kernel)

    return decorate


@_batch_kernel(1, 1)
def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...m,...m->...", x, y)


@_batch_kernel(3)
def trace_form(a: np.ndarray) -> np.ndarray:
    """tau_m = sum_i a_iim."""
    return np.einsum("...iim->...m", a)


@_batch_kernel(3)
def cubic_norm_sq(a: np.ndarray) -> np.ndarray:
    """||A||^2 = sum a_ijk^2."""
    return np.einsum("...ijk,...ijk->...", a, a)


@_batch_kernel(1, 1, 2)
def quarter_parts(tau: np.ndarray, kuu: np.ndarray, ku: np.ndarray):
    """(lhs, ||tau||^2, |K_U|^2) from tau, K(U,U) and K_U; lhs = (tau o K)(U,U) - g(K_U, K_U)."""
    ku_sq = np.einsum("...jm,...jm->...", ku, ku)
    return _dot.__wrapped__(tau, kuu) - ku_sq, _dot.__wrapped__(tau, tau), ku_sq


@_batch_kernel(3, 1)
def quarter_terms(a: np.ndarray, u: np.ndarray):
    """(lhs, ||tau||^2, |U|^2, |K_U|^2) of the trace inequalities; u is in the frame of a."""
    ku = np.einsum("...ijm,...i->...jm", a, u)
    kuu = np.einsum("...jm,...j->...m", ku, u)
    lhs, tau_sq, ku_sq = quarter_parts.__wrapped__(trace_form.__wrapped__(a), kuu, ku)
    return lhs, tau_sq, _dot.__wrapped__(u, u), ku_sq


@_batch_kernel(3)
def norm_gap(a: np.ndarray) -> np.ndarray:
    """(n+2)/3 ||A||^2 - ||E||^2, nonnegative for every cubic form."""
    tau = trace_form.__wrapped__(a)
    return (a.shape[-1] + 2) / 3.0 * cubic_norm_sq.__wrapped__(a) - _dot.__wrapped__(tau, tau)


@_batch_kernel(3)
def scalar_gap_terms(a: np.ndarray):
    """(||A||^2 - ||E||^2, -(n-1)/3 ||A||^2, -(n-1)/(n+2) ||E||^2)."""
    n = a.shape[-1]
    tau = trace_form.__wrapped__(a)
    a2 = cubic_norm_sq.__wrapped__(a)
    e2 = _dot.__wrapped__(tau, tau)
    return a2 - e2, -(n - 1) / 3.0 * a2, -(n - 1) / (n + 2) * e2


@functools.cache
def _trace_part_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each flat (i, j, k): the slot of w in its trace part, and the number of
    equal pairs among ij, ik, jk (0, 1 or 3)."""
    triples = list(itertools.product(range(n), repeat=3))
    return (np.array([k if i == j else j if i == k else i for i, j, k in triples], dtype=np.intp),
            np.array([(i == j) + (i == k) + (j == k) for i, j, k in triples], dtype=float))


@_batch_kernel(3)
def trace_free_projection(a: np.ndarray) -> np.ndarray:
    """a minus its trace part w_i d_jk + w_j d_ik + w_k d_ij, w = tau/(n+2).

    An entry of the trace part is 0, w_k (i = j != k and its slot moves) or 3 w_i
    (i = j = k), so it is read from w through a flat table: one gather and one
    product.  Its values equal those of the sum of the three terms bit for bit.
    """
    n = a.shape[-1]
    w = core_first(trace_form.__wrapped__(a), 1) / (n + 2)
    slot, equal_pairs = _trace_part_tables(n)
    out = w[slot]
    out *= equal_pairs.reshape((n**3,) + (1,) * (w.ndim - 1))
    np.subtract(core_first(a, 3).reshape(out.shape), out, out=out)
    return batch_first(out.reshape((n,) * 3 + w.shape[1:]), 3)


@functools.cache
def _minor_tables(n: int) -> list[np.ndarray]:
    """Flat pair indices (ij, kl, il, kj) over i < k and j < l, one array per slot."""
    quads = [(i * n + j, k * n + l, i * n + l, k * n + j)
             for i, k in itertools.combinations(range(n), 2)
             for j, l in itertools.combinations(range(n), 2)]
    return [np.array([q[s] for q in quads], dtype=np.intp) for s in range(4)]


@_batch_kernel(3)
def lp_norms(a: np.ndarray):
    """(||L||^2, ||P||^2) for L(X,Y,W,Z) = g(K(X,Y),K(W,Z)) and P(X,Y,W,Z) = L - L(W,Y,X,Z).

    With v_ij = K(e_i, e_j): ||L||^2 is the squared norm of the Gram matrix
    G_mm' = sum_ij v_ij^m v_ij^m', and P vanishes unless i != k and j != l,
    with the same square under i <-> k and j <-> l, so
    ||P||^2 = 4 sum over i < k, j < l of (<v_ij, v_kl> - <v_il, v_kj>)^2.
    """
    n = a.shape[-1]
    batch = a.shape[:-3]
    v = core_first(a, 3).reshape((n * n, n) + batch)
    gram = np.einsum("pa...,pb...->ab...", v, v).reshape((n * n,) + batch)
    ij, kl, il, kj = _minor_tables(n)
    minors = np.zeros((len(ij),) + batch)
    for m in range(n):
        vm = v[:, m]
        d = vm[ij] * vm[kl]
        d -= vm[il] * vm[kj]
        minors += d
    return _sum_squares(gram), 4.0 * _sum_squares(minors)


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """Sum of squares over the first axis of a [rows, ...] array."""
    return np.einsum("r...,r...->...", rows, rows)


def frame_cubic(g, a, factors=None) -> np.ndarray:
    """Cubic form components in the orthonormal frame of g from metric_factors."""
    return frame_components(_factors(g, factors)[1], a)


# ---------------------------------------------------------------------------
# trace inequalities with equality certificates


def _norm(g: np.ndarray, u: np.ndarray) -> float:
    return float(np.sqrt(u @ g @ u))


def _adapted_frame(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """g-orthonormal frame whose first column is u/|u| (Gram-Schmidt completion)."""
    n = len(u)
    cols = [u / _norm(g, u)]
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for c in cols:
            v = v - float(c @ g @ v) * c
        nv = _norm(g, v)
        if nv > 1e-9:
            cols.append(v / nv)
        if len(cols) == n:
            break
    return np.column_stack(cols)


def _vector(g: np.ndarray, u) -> tuple[np.ndarray, float]:
    """u as floats and its g-norm; U = 0 raises PreconditionError."""
    u = np.asarray(u, dtype=float)
    nu = _norm(g, u)
    if nu == 0.0:
        raise PreconditionError("U must be nonzero")
    return u, nu


def _quarter_terms(g, a, u: np.ndarray, factors):
    """quarter_terms of the structure at U, read in the orthonormal frame of g."""
    frame = factors[1]
    return quarter_terms(frame_components(frame, a), frame.T @ g @ u)


def check_ineq_quarter(g, a, u, factors=None) -> tuple[float, float, EqualityCertificate]:
    """(tau o K)(U,U) - g(K_U, K_U) <= ||tau||^2 g(U,U) / 4.

    Equality (for U != 0) holds exactly when tau = 0 and K_U = 0; the
    certificate reports both witness norms.
    """
    u, _ = _vector(g, u)
    lhs, tau_sq, u_sq, ku_sq = _quarter_terms(g, a, u, _factors(g, factors))
    cert = EqualityCertificate.from_witnesses(
        [("|tau|", float(np.sqrt(tau_sq))), ("|K_U|", float(np.sqrt(ku_sq)))]
    )
    return float(lhs), float(0.25 * tau_sq * u_sq), cert


def check_ineq_eighth(g, a, u, factors=None) -> tuple[float, float, EqualityCertificate]:
    """Sharper bound ||tau||^2 g(U,U) / 8, valid when A(U,U,U) = 0.

    A violated precondition raises PreconditionError rather than counting
    as an inequality failure.  The certificate (for unit U) witnesses:
    A(U,V,W) = 0 for V,W orthogonal to U; E orthogonal to U; E = 4K(U,U).
    All three are read from the components a_u of A in a g-orthonormal frame
    whose first vector is U/|U|: a_u[0, 1:, 1:], tau_0 and |tau - 4 a_u[0, 0]|.
    """
    u, nu = _vector(g, u)
    auuu = float(np.einsum("ijk,i,j,k->", a, u, u, u))
    if abs(auuu) >= 1e-10 * max(nu**3, 1.0):
        raise PreconditionError(f"A(U,U,U) = {auuu:g} is not zero; the 1/8 bound does not apply")
    lhs, tau_sq, u_sq, _ = _quarter_terms(g, a, u, _factors(g, factors))
    a_u = frame_components(_adapted_frame(g, u), a)
    tau = trace_form(a_u)
    cert = EqualityCertificate.from_witnesses(
        [
            ("max |A(U,V,W)| for V,W perp U", float(np.max(np.abs(a_u[0, 1:, 1:]), initial=0.0))),
            ("tau(U)", float(tau[0])),
            ("|E - 4K(U,U)|", float(np.linalg.norm(tau - 4.0 * a_u[0, 0]))),
        ]
    )
    return float(lhs), float(0.125 * tau_sq * u_sq), cert


def check_ineq_n2over3(g, a) -> tuple[float, EqualityCertificate]:
    """Nonnegativity of (n+2)/3 ||A||^2 - ||E||^2, with its equality certificate.

    The gap is exactly (n+2)/3 ||A_0||^2, where A_0 is the trace-free part of
    A, so equality holds exactly when A equals its trace part
    w_i g_jk + w_j g_ik + w_k g_ij.  In any orthonormal frame that is the
    paper's condition A_iii = 3 A_jji with A_ijr = 0 for distinct indices.
    The one witness is ||A_0||, read in the orthonormal frame of g.
    """
    a_hat = frame_cubic(g, a)
    a_0 = float(np.sqrt(cubic_norm_sq(trace_free_projection(a_hat))))
    return float(norm_gap(a_hat)), EqualityCertificate.from_witnesses([("||A_0||", a_0)])


def scalar_gap_bounds(g, a, factors=None) -> tuple[float, float, float]:
    """Norm gap ||A||^2 - ||E||^2 with its two algebraic lower bounds.

    Returns (gap, -(n-1)/3 ||A||^2, -(n-1)/(n+2) ||E||^2); the gap dominates
    both bounds for every structure.
    """
    return tuple(float(v) for v in scalar_gap_terms(frame_cubic(g, a, factors)))


# ---------------------------------------------------------------------------
# squared-norm tensors of the cubic form (Laplacian bound ingredients)


def lpq(g, a) -> tuple[float, float, np.ndarray, float]:
    """Squared norms of L(X,Y,W,Z) = g(K(X,Y),K(W,Z)) and its antisymmetrization P,
    together with the contraction tensor Q and the pairing g(Q, A).

    Q(Y,W,Z) = trace over X of the derivation action of [K_X, K_Y] on A;
    -g(Q,A) = ||L||^2 + ||P||^2.  Everything is computed in the deterministic
    orthonormal frame of g (the returned Q[n, n, n] holds frame components);
    the scalars are frame-invariant.
    """
    a_hat = frame_cubic(g, a)
    normsq_l, normsq_p = lp_norms(a_hat)

    comm = np.einsum("xab,ybc->xyac", a_hat, a_hat)
    comm = comm - np.transpose(comm, (1, 0, 2, 3))
    q = (
        -np.einsum("xyax,awz->ywz", comm, a_hat)
        - np.einsum("xyaw,xaz->ywz", comm, a_hat)
        - np.einsum("xyaz,xwa->ywz", comm, a_hat)
    )
    pairing = float(np.sum(q * a_hat))
    return float(normsq_l), float(normsq_p), q, pairing


@single_point_rule(4, 2, 2, 0)
def constant_curvature_residual(r: np.ndarray, g: np.ndarray, ginv: np.ndarray, h):
    """g-norm of R - H R0 per point of r[..., n, n, n, n], zero exactly on constant curvature.

    g, its inverse ginv and h carry the batch axes of r; a single point gives a float.
    """
    if r.shape[-1] != g.shape[-1]:
        raise DimensionMismatchError(f"metric has n={g.shape[-1]}, curvature has n={r.shape[-1]}")
    d = r - np.asarray(h)[..., None, None, None, None] * r0_curvature(g)
    return np.sqrt(np.maximum(contract(ginv, d, d), 0.0))


def lagrangian_gauss_residual(g, a, rhat: np.ndarray, c: float) -> tuple[float, float]:
    """Residual of c R0 = Rhat - [K,K], plus the scalar-curvature consistency check.

    Returns (||Rhat - [K,K] - c R0||, |rho_hat - (c n(n-1) - ||A||^2 + ||E||^2)|), per
    structure of a stack.
    """
    ginv, k = _difference_tensor(g, a)
    residual = constant_curvature_residual(rhat - bracket_kk(g, a), g, ginv, c)
    # the Ricci trace of a (0,4) tensor contracts its first and last slots against g^-1
    rho_hat = trace_pair(ginv, trace_pair(ginv, rhat, 0, 3), 0, 1)
    n = g.shape[-1]
    scalar_residual = abs(rho_hat - (c * n * (n - 1) - _scalar_gap(ginv, k, a)))
    return residual, scalar_residual


def best_fit_curvature_coefficient(g: np.ndarray, ginv: np.ndarray, r: np.ndarray):
    """Least-squares H minimizing ||R - H R0|| per point: <R, R0> / ||R0||^2."""
    r0 = r0_curvature(g)
    return contract(ginv, r, r0) / contract(ginv, r0, r0)


def constant_curvature_fit(g: np.ndarray, ginv: np.ndarray, r: np.ndarray, rel_tol: float,
                           h=None):
    """(H, residual, fits) per point of r[..., n, n, n, n]: H of R = H R0 (the least-squares
    fit, or the supplied h), the residual ||R - H R0||, and fits, true where the residual is
    at most rel_tol (1 + |H|)."""
    if h is None:
        h = best_fit_curvature_coefficient(g, ginv, r)
    fit = constant_curvature_residual(r, g, ginv, h)
    return h, fit, ~(fit > rel_tol * (1.0 + np.abs(h)))


def fit_constant_curvature(g: np.ndarray, ginv: np.ndarray, r: np.ndarray, rel_tol: float,
                           h=None):
    """H with R = H R0 per point of r[..., n, n, n, n]: the least-squares fit or the supplied h.

    Raises PreconditionError at the first point, in batch order, where
    constant_curvature_fit finds ||R - H R0|| > rel_tol (1 + |H|).
    """
    h, fit, fits = constant_curvature_fit(g, ginv, r, rel_tol, h)
    require_at_every_point(~fits, fit, "curvature is not H R0 at x (fit residual {:g})")
    return h


def require_at_every_point(bad, values, message: str) -> None:
    """Raise PreconditionError(message.format(v)), v the value at the first point, in batch
    order, where bad holds."""
    bad = np.ravel(bad)
    if bad.any():
        raise PreconditionError(message.format(np.ravel(values)[np.argmax(bad)]))


# ---------------------------------------------------------------------------
# random structures


def trace_free_part(g, a) -> np.ndarray:
    """Remove the g-trace part: subtract (w_i g_jk + w_j g_ik + w_k g_ij) with w = tau/(n+2).

    The projection runs in the orthonormal frame B of g and the result is
    mapped back to coordinates with the inverse frame B^T g, then symmetrized.
    """
    frame = metric_factors(g)[1]
    tf = trace_free_projection(frame_components(frame, a))
    return symmetrize(frame_components(np.swapaxes(frame, -1, -2) @ g, tf), degree=3)


def require_finite(g, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """metric_factors(g), once g^{-1}, the orthonormal frame, ||A||^2 and [K,K] of (g, a)
    are all finite and the condition number of g is at most 1/(n eps).

    Entries of g or A near the limits of float64 make one of them overflow, and a worse
    conditioned g leaves no correct digit in g^{-1}.  metric_factors raises for a metric
    whose factors leave the float range; ConstructionError names the first other quantity
    out of range.
    """
    with np.errstate(all="ignore"):
        factors = metric_factors(g)
        ginv, k = _difference_tensor(g, a, factors)
        for name, value in (("||A||^2", lambda: contract(ginv, a, a)),
                            ("[K,K]", lambda: commutator_curvature(k))):
            if not np.all(np.isfinite(value())):
                raise ConstructionError(
                    f"{name} is not finite: the entries of g or A are out of range")
    eig = np.linalg.eigvalsh(g)
    bar = 1.0 / (len(g) * np.finfo(float).eps)
    if not eig[-1] <= bar * eig[0]:
        raise ConstructionError(
            f"g has condition number {eig[-1] / eig[0]:.3g}, above 1/(n eps) = {bar:.3g}")
    return factors


def random_metric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random SPD metric: L L^T for a unit-diagonal lower factor."""
    l = np.eye(n) + 0.4 * np.tril(rng.uniform(-1.0, 1.0, (n, n)), k=-1)
    m = l @ l.T
    return 0.5 * (m + m.T)


def random_stat_point(
    n: int,
    rng_or_seed,
    trace_free: bool = False,
    metric: str = "identity",
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random structure (g, a): A_ijk i.i.d. uniform[-1,1] then symmetrized.

    Both arrays are read-only.
    """
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    g = np.eye(n) if metric == "identity" else random_metric(n, rng)
    a = symmetrize(rng.uniform(-1.0, 1.0, (n, n, n)))
    if trace_free:
        a = trace_free_part(g, a)
    g.setflags(write=False)
    a.setflags(write=False)
    return g, a
