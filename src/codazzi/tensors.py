"""Metric-aware algebra on dense component arrays.

Conventions used throughout the package:

- all component arrays are dense float64 numpy arrays of shape (n,)*degree,
  after any leading batch axes;
- a structure at a point is the pair (g[n, n], a[n, n, n]): a metric and a
  totally symmetric cubic form;
- a mixed tensor of type (p covariant, q contravariant) stores its
  contravariant axes first: K of type (1,2) has k[m, i, j] = K^m_ij;
- curvature-type (0,4) tensors store R[i, j, k, l] = g(R(e_i, e_j)e_k, e_l);
- scalar products of covariant tensors contract every slot against g^{-1}.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (ConstructionError, DimensionMismatchError, NotPositiveDefiniteError,
                     PreconditionError)

MAX_DIMENSION = 8

# matrices factored per pass of the elementwise loop: its temporaries stay in cache
FACTOR_BLOCK = 2048

# ---------------------------------------------------------------------------
# batch-last memory layout: an array keeps its shape [..., *core axes], and its core-first
# view [*core axes, ...] is C-contiguous.  The kernels below read their operands so (copying
# one that is not): each contraction of the short core slots is an einsum whose inner loop
# runs over contiguous batch rows, a fixed-order sum of products.  A kernel whose sums take
# another route without a batch axis runs one point by single_point_rule, as a batch of two
# copies of it, so a point gets the same bits alone as in any batch, and from either layout.


@functools.cache
def _core_first_axes(ndim: int, core: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders moving an ndim array's leading batch axes behind its core axes, and back."""
    lead = ndim - core
    return (tuple(range(lead, ndim)) + tuple(range(lead)),
            tuple(range(core, ndim)) + tuple(range(core)))


def core_first(x: np.ndarray, core: int) -> np.ndarray:
    """View of x[..., *core axes] with its leading batch axes moved behind the core axes."""
    return x.transpose(_core_first_axes(x.ndim, core)[0]) if x.ndim > core else x


def batch_first(t: np.ndarray, core: int) -> np.ndarray:
    """Inverse of core_first: t[*core axes, ...] viewed as [..., *core axes]."""
    return t.transpose(_core_first_axes(t.ndim, core)[1]) if t.ndim > core else t


def _rows(x, core: int) -> np.ndarray:
    """The C-contiguous core-first view of x laid out batch-last (a copy when x is not)."""
    t = core_first(np.asarray(x, dtype=float), core)
    return t if t.flags.c_contiguous else np.ascontiguousarray(t)


def batch_last(x, core: int) -> np.ndarray:
    """x[..., *core axes] laid out with its batch axes innermost in memory (a copy when not)."""
    return batch_first(_rows(x, core), core)


def single_point_rule(*cores):
    """Run a kernel on one point as a batch of two copies of it, and keep the first copy.

    Operand i, the i-th positional argument, has cores[i] trailing core axes (None: every
    axis after the batch axes of operand 0).  When the batch axes of every operand hold one
    point, each output keeps the first copy with the longest of those batch shapes, a float
    for a number with none: einsum and add.reduce sum a missing or length-one batch axis by
    another route than batch rows.
    """
    def decorate(kernel):
        @functools.wraps(kernel)
        def run(*args):
            lead, copies, batch = np.ndim(args[0]) - cores[0], [], ()
            for x, k in zip(args, cores):
                x = np.asarray(x, dtype=float)
                b = x.shape[:lead if k is None else x.ndim - k]
                if math.prod(b) != 1:
                    return kernel(*args)
                batch = max(batch, b, key=len)
                copies.append(batch_first(x.repeat(2).reshape(x.shape[len(b):] + (2,)),
                                          x.ndim - len(b)))
            out = kernel(*copies, *args[len(cores):])

            def first(y):
                return y[0].reshape(batch + y.shape[1:]) if batch or y.ndim > 1 else float(y[0])

            return tuple(map(first, out)) if isinstance(out, tuple) else first(out)

        return run

    return decorate


_factorized = {"batches": 0, "matrices": 0}


def metric_factor_counts() -> tuple[int, int]:
    """Calls of metric_factors in this process, and the matrices they factored."""
    return _factorized["batches"], _factorized["matrices"]


def metric_factors(g, points=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, frame, sqrt(det g)) of a batch of metrics g[..., n, n] from one factorization.

    g is symmetrized, 0.5 (g + g^T), and factored as g = U U^T with U upper
    triangular (a Cholesky factorization run from the last row up).  The frame
    is B = U^{-T}: lower triangular with B^T g B = I, so it is the Cholesky
    factor of g^{-1}, and g^{-1} = B B^T, sqrt(det g) = prod U_ii.  Each entry
    is formed elementwise over the batch axes in a fixed order, so a matrix gets
    the same bits alone or inside any batch.  The outputs are read-only and laid
    out batch-last.

    A pivot that is not positive raises NotPositiveDefiniteError; a non-finite
    entry of g or of a factor raises ConstructionError.  The error names the
    failing matrix by its row of points[..., n] when given, else by its batch index.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1] if g.ndim >= 2 else 0
    if g.ndim < 2 or g.shape[-2] != n:
        raise ConstructionError(f"metric components must be square, got shape {g.shape}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ConstructionError(f"dimension {n} must lie in 1..{MAX_DIMENSION}")
    batch = g.shape[:-2]
    _factorized["batches"] += 1
    _factorized["matrices"] += math.prod(batch)
    if not batch:
        # one matrix in Python floats: the same IEEE operations in the same order as for a
        # batch, without the per-call cost of numpy on single numbers
        m = g.tolist()
        vol, _, ginv, frame = _factor_entries(
            [[0.5 * (m[i][j] + m[j][i]) for j in range(n)] for i in range(n)], _float_sqrt, 0.0)
        if not (vol > 0.0 and vol < math.inf and all(map(math.isfinite, sum(ginv, [])))):
            _raise_factor_error(g, np.float64(vol), np.array(ginv), points)
        ginv, frame = np.array(ginv), np.array(frame)
        ginv.setflags(write=False)
        frame.setflags(write=False)
        return ginv, frame, np.float64(vol)
    # the outputs are written core-first, each entry a block of contiguous batch rows
    ginv, frame, vol = np.empty((n, n) + batch), np.empty((n, n) + batch), np.empty(batch)
    with np.errstate(all="ignore"):
        rows = core_first(g, 2)
        size = math.prod(batch)
        rows = (0.5 * (rows + rows.swapaxes(0, 1))).reshape(n, n, size)
        flat_ginv, flat_frame = ginv.reshape(n, n, size), frame.reshape(n, n, size)
        flat_vol = vol.reshape(-1)
        for lo in range(0, rows.shape[-1], FACTOR_BLOCK):
            part = slice(lo, lo + FACTOR_BLOCK)
            block = rows[:, :, part]
            flat_vol[part], _, block_ginv, block_frame = _factor_entries(
                block, np.sqrt, np.zeros(block.shape[-1]))
            for out, entries in ((flat_ginv, block_ginv), (flat_frame, block_frame)):
                for i, row in enumerate(entries):
                    for j, entry in enumerate(row):
                        out[i, j, part] = entry
    ginv, frame = batch_first(ginv, 2), batch_first(frame, 2)
    if not ((vol > 0.0).all() and (vol < np.inf).all() and np.isfinite(ginv).all()):
        _raise_factor_error(g, vol, ginv, points)
    for out in (ginv, frame, vol):
        out.setflags(write=False)
    return ginv, frame, vol


def _float_sqrt(d: float) -> float:
    """math.sqrt (correctly rounded, as np.sqrt), with NaN where the pivot is not positive."""
    return math.sqrt(d) if d > 0.0 else math.nan


def _factor_entries(s, sqrt, zero):
    """Factor the symmetric matrix whose entry (i, j) is s[i][j]: a float, or an array over
    a batch of matrices.

    Returns sqrt(det g), the pivots U_kk^2 in the order they are formed, and the rows of
    g^{-1} and of the frame as lists of entries (zero above the frame's diagonal).
    """
    n = len(s)
    # g = U U^T: column k of U from the columns after it, last column first
    u, pivots = [[zero] * n for _ in range(n)], []
    for k in range(n - 1, -1, -1):
        uk = u[k]
        d = s[k][k]
        for m in range(k + 1, n):
            d = d - uk[m] * uk[m]
        pivots.append(d)
        uk[k] = sqrt(d)
        for i in range(k):
            ui = u[i]
            t = s[i][k]
            for m in range(k + 1, n):
                t = t - ui[m] * uk[m]
            ui[k] = t / uk[k]
    # W = U^{-1}, upper triangular, by back substitution: w[j][i] = W_ij, so w[j] is column j
    # of W and row j of the frame W^T
    w = [[zero] * n for _ in range(n)]
    for j in range(n):
        wj = w[j]
        wj[j] = 1.0 / u[j][j]
        for i in range(j - 1, -1, -1):
            ui = u[i]
            t = ui[i + 1] * wj[i + 1]
            for m in range(i + 2, j + 1):
                t = t + ui[m] * wj[m]
            wj[i] = -t * w[i][i]
    vol = u[0][0]
    for k in range(1, n):
        vol = vol * u[k][k]
    # g^{-1} = W^T W, each entry formed once and read by both halves
    ginv = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            t = w[i][0] * w[j][0]
            for k in range(1, j + 1):
                t = t + w[i][k] * w[j][k]
            ginv[i][j] = ginv[j][i] = t
    return vol, pivots, ginv, w


def _raise_factor_error(g: np.ndarray, vol, ginv: np.ndarray, points) -> None:
    """Raise the error of the first matrix of g whose factors are not finite and positive."""
    ok = (vol > 0.0) & (vol < np.inf) & np.all(np.isfinite(ginv), axis=(-2, -1))
    index = np.unravel_index(np.argmin(ok), np.shape(ok)) if np.ndim(ok) else ()
    where = (f" at x={np.asarray(points)[index].tolist()}" if points is not None
             else f" at batch index {tuple(int(i) for i in index)}" if index else "")
    bad = g[index]
    if not np.all(np.isfinite(bad)):
        raise ConstructionError(f"metric is not finite{where}")
    with np.errstate(all="ignore"):
        pivots = _factor_entries(0.5 * (bad + bad.T), np.sqrt, 0.0)[1]
    for k, pivot in zip(range(g.shape[-1], 0, -1), pivots):
        if not pivot > 0.0:
            if np.isfinite(pivot):
                raise NotPositiveDefiniteError(
                    f"metric is not positive definite{where}: pivot {k} of g = U U^T is {pivot:g}")
            break
    raise ConstructionError(
        f"metric factors are not finite{where}: g, g^-1 or sqrt(det g) leaves the float range")


def max_abs(arr: np.ndarray, degree: int = 4):
    """max |arr| over its last degree axes, per point."""
    return np.max(np.abs(arr), axis=tuple(range(-degree, 0)))


def first_bianchi_defect(r: np.ndarray):
    """max |R(X,Y)Z + R(Y,Z)X + R(Z,X)Y| over the frame of r[..., i, j, k, l]."""
    lead = tuple(range(r.ndim - 4))
    i, j, k, l = range(r.ndim - 4, r.ndim)
    return max_abs(r + r.transpose(lead + (j, k, i, l)) + r.transpose(lead + (k, i, j, l)))


def last_pair_antisymmetry_defect(r: np.ndarray):
    """max |r_ijkl + r_ijlk| of r[..., i, j, k, l]."""
    return max_abs(r + np.swapaxes(r, -2, -1))


def check_riemannian_symmetries(r: np.ndarray, tol: float) -> None:
    """Raise ConstructionError when r[..., i, j, k, l] misses a symmetry of a Riemannian
    curvature tensor by more than tol at some point; the error names the first one missed."""
    for message, defect in (
        ("not antisymmetric in (i,j)", max_abs(r + np.swapaxes(r, -4, -3))),
        ("fails first Bianchi", first_bianchi_defect(r)),
        ("fails (k,l) antisymmetry", last_pair_antisymmetry_defect(r)),
        ("fails pair symmetry", max_abs(r - np.moveaxis(r, (-2, -1), (-4, -3)))),
    ):
        if np.max(defect) > tol:
            raise ConstructionError(f"curvature tensor {message}: defect {np.max(defect):g}")


# ---------------------------------------------------------------------------
# metric-aware algebra


@single_point_rule(2, 3)
def raise_last(ginv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Difference tensor K[..., m, i, j] = g^{ml} A_ijl, so A(X,Y,Z) = g(K(X,Y),Z).

    ginv[..., n, n] and a[..., n, n, n] share their batch axes.
    """
    return batch_first(np.einsum("ml...,ijl...->mij...", _rows(ginv, 2), _rows(a, 3)), 3)


def trace_k(k: np.ndarray) -> np.ndarray:
    """Trace form tau[..., i] = K^m_im of K[..., m, i, j]."""
    return np.trace(k, axis1=-3, axis2=-1)


def _require_slots(m: np.ndarray, shape: tuple) -> None:
    """Raise DimensionMismatchError unless m[..., n, n] can act on every slot of a tensor of
    the shape [..., n, ..., n]: the batch axes of m (all but its last two) and as many leading
    axes of the tensor must broadcast.  The caller broadcasts an unbatched tensor against a
    batched m: otherwise its first slot would be read as a batch axis."""
    lead, n = m.ndim - 2, m.shape[-1]
    k = len(shape) - lead
    if (k < 0 or shape[lead:] != (n,) * k or m.shape[:lead] != shape[:lead] and any(
            p != q and 1 not in (p, q) for p, q in zip(m.shape[:lead], shape[:lead]))):
        raise DimensionMismatchError(
            f"matrices of shape {m.shape} cannot act on the slots of a tensor of shape {shape}")


def _per_slot(m: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Core-first rows of m[..., n, n] applied to every slot of arr[..., n, ..., n], whose
    batch axes, at least one, broadcast against those of m."""
    lead, n = m.ndim - 2, m.shape[-1]
    k = arr.ndim - lead
    m, t = _rows(m, 2), _rows(arr, k)
    if k == 0:
        return t
    rest, batch = n ** (k - 1), t.shape[k:]
    if m.shape[2:] != batch:
        batch = tuple(q if p == 1 else p for p, q in zip(m.shape[2:], batch))
    for _ in range(k):
        # on the last slot, which comes first: the sums run over contiguous batch rows
        t = np.einsum("ab...,rb...->ar...", m, t.reshape((rest, n) + t.shape[-len(batch):]))
    return t.reshape((n,) * k + batch)


def contract(ginv: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Full contraction of two covariant arrays of equal shape, every slot against ginv.

    Axes of ginv before its last two are batch axes, matched by as many leading
    axes of t and s (broadcast an unbatched tensor first); a single point gives a float.
    """
    if np.shape(t) != np.shape(s):
        raise DimensionMismatchError(
            f"contract needs two arrays of equal shape, got {np.shape(t)} and {np.shape(s)}")
    _require_slots(ginv, np.shape(s))
    return _contract(ginv, t, s)


@single_point_rule(2, None, None)
def _contract(ginv: np.ndarray, t, s) -> np.ndarray:
    lead, n = ginv.ndim - 2, ginv.shape[-1]
    s = _per_slot(ginv, np.asarray(s, dtype=float))
    k = np.ndim(t) - lead
    batch = s.shape[k:]
    # summed in row order, over contiguous batch rows
    prod = (_rows(t, k) * s).reshape((n ** k, math.prod(batch)))
    return np.add.reduce(prod, axis=0).reshape(batch)


@functools.cache
def _trace_spec(k: int, a: int, b: int) -> str:
    """The einsum spec of trace_pair on core-first operands: slots a and b of k against g^-1."""
    slots = [chr(ord("c") + p) for p in range(k)]
    slots[a], slots[b] = "a", "b"
    rest = "".join(p for p in slots if p not in "ab")
    return f"ab...,{''.join(slots)}...->{rest}..."


@single_point_rule(2, None)
def trace_pair(ginv: np.ndarray, arr: np.ndarray, a: int, b: int):
    """Contract slots a and b of arr (counted after the batch axes of ginv) against ginv.

    A single point traced to a scalar gives a float.
    """
    k = arr.ndim - (ginv.ndim - 2)
    return batch_first(np.einsum(_trace_spec(k, a, b), _rows(ginv, 2), _rows(arr, k)), k - 2)


def ricci_trace(up: np.ndarray) -> np.ndarray:
    """Ric[..., j, k] = trace of X -> R(X, e_j)e_k, from up[..., m, i, j, k] = R(e_i, e_j)e_k^m."""
    return np.trace(up, axis1=-4, axis2=-3)


@single_point_rule(2, None)
def lower_first(g: np.ndarray, up: np.ndarray) -> np.ndarray:
    """low[..., i, j, k, l] = g_lm up[..., m, i, j, k]: the first slot lowered and moved last
    (up may have any number of slots after the batch axes of g)."""
    n = g.shape[-1]
    k = up.ndim - (g.ndim - 2)
    t = _rows(up, k)
    low = np.einsum("lm...,mr...->rl...", _rows(g, 2), t.reshape((n, n ** (k - 1)) + t.shape[k:]))
    return batch_first(low.reshape((n,) * k + low.shape[2:]), k)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[m, r, ...] = a[m, p, ...] b[p, r, ...] over core-first rows."""
    return np.einsum("mp...,pr...->mr...", a, b)


def compose(k: np.ndarray) -> np.ndarray:
    """(K o K)[..., m, i, j, k] = K^m_ip K^p_jk of coefficients K[..., m, i, j]."""
    n = k.shape[-1]
    t = _rows(k, 3)
    batch = t.shape[3:]
    out = _product(t.reshape((n * n, n) + batch), t.reshape((n, n * n) + batch))
    return batch_first(out.reshape((n,) * 4 + batch), 4)


def commutator_curvature(k: np.ndarray) -> np.ndarray:
    """[K,K] of K[..., m, i, j]: up[..., m, i, j, k] = (K_{e_i} K_{e_j} e_k - K_{e_j} K_{e_i} e_k)^m.

    K^m_ip K^p_jk is compose(K); its i <-> j swap is the other term.
    """
    up = compose(k)
    return up - np.swapaxes(up, -3, -2)


def covariant_derivative(gamma: np.ndarray, ds: np.ndarray, s: np.ndarray) -> np.ndarray:
    """nabla s from s, its partial derivatives ds[..., a, *slots] and gamma[..., m, a, i]:
    ds minus, for each slot, Gamma^m_ai s(..., e_m, ...) with i and m in that slot.
    """
    n = gamma.shape[-1]
    k = np.ndim(s) - (gamma.ndim - 3)
    if k == 0:
        return ds
    gamma, t = _rows(gamma, 3), _rows(s, k)
    # term j [a, p, i, q] = Gamma^m_ai s[p, m, q]: slot j of s, p and q the slots around it
    terms = (np.einsum("mai...,pmq...->apiq...", gamma,
                       t.reshape((n ** j, n, n ** (k - j - 1)) + t.shape[k:]))
             for j in range(k))
    out = _rows(ds, k + 1)
    out = out - next(terms).reshape(out.shape)
    for term in terms:
        out -= term.reshape(out.shape)
    return batch_first(out, k + 1)


@single_point_rule(2, 2, 3)
def gram_k(ginv: np.ndarray, g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """g(K_., K_.)[..., i, j] = g(K_{e_i}, K_{e_j}) = g^{ab} g_mn K^m_ia K^n_jb.

    K is lowered by g and contracted with g^{-1} on its last slot, then the two
    are paired over (m, a).
    """
    n = k.shape[-1]
    t = _rows(k, 3)
    batch = t.shape[3:]
    # low[m, i, a] = g_mn K^n_ia and right[m, j, a] = K^m_jb g^{ba}
    low = _product(_rows(g, 2), t.reshape((n, n * n) + batch))
    right = _product(t.reshape((n * n, n) + batch), _rows(ginv, 2))
    out = np.einsum("mia...,mja...->ij...", low.reshape((n,) * 3 + low.shape[2:]),
                    right.reshape((n,) * 3 + right.shape[2:]))
    return batch_first(out, 2)


def tau_circ_k(tau: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(tau o K)[..., i, j] = tau(K(e_i, e_j)) = tau_m K^m_ij."""
    n = k.shape[-1]
    t = _rows(k, 3)
    out = _product(_rows(tau, 1)[None], t.reshape((n, n * n) + t.shape[3:]))
    return batch_first(out.reshape((n, n) + out.shape[2:]), 2)


@functools.cache
def _orbit_tables(n: int, k: int):
    """The orbits of S_k on the flat indices of an (n,)*k array, grouped by size.

    Each group holds the orbits of one size as (size, columns): columns[c][r]
    is the c-th flat index of the group's r-th orbit.  Built in plain Python: a
    numpy sort here would map its working memory on the first call of a process.
    """
    orbits: dict[tuple[int, ...], list[int]] = {}
    for flat, index in enumerate(itertools.product(range(n), repeat=k)):
        orbits.setdefault(tuple(sorted(index)), []).append(flat)
    by_size: dict[int, list[list[int]]] = {}
    for members in orbits.values():
        by_size.setdefault(len(members), []).append(members)
    return [(size, [np.array(c, dtype=np.intp) for c in zip(*same_size)])
            for size, same_size in by_size.items()]


def symmetrize(arr: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Average over all permutations of the last `degree` axes (default: all axes).

    Leading axes beyond `degree` are batch axes and are left in place; the result
    is laid out batch-last.
    Each orbit of the permutations on the multi-indices is averaged once and its
    mean written to all its members, so the result is exactly symmetric.
    """
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim if degree is None else degree
    if not 0 <= k <= arr.ndim or len(set(arr.shape[arr.ndim - k:])) > 1:
        raise DimensionMismatchError(
            f"cannot symmetrize the last {k} axes of a tensor of shape {arr.shape}")
    if k < 2 or arr.size == 0:
        return arr.copy()
    n = arr.shape[-1]
    batch = arr.shape[:arr.ndim - k]
    # one row per flat index, batch axes last: the orbit sums add whole batch rows
    rows = core_first(arr.reshape(batch + (n**k,)), 1)
    out = np.empty(rows.shape)
    for size, columns in _orbit_tables(n, k):
        total = rows[columns[0]]
        for column in columns[1:]:
            total += rows[column]
        total /= size
        for column in columns:
            out[column] = total
    return batch_first(out.reshape((n,) * k + batch), k)


def sectional(r: np.ndarray, g: np.ndarray, u, v):
    """Sectional curvature r(e1, e2, e2, e1) of the (0,4) array r on the plane of u, v.

    (e1, e2) is the Gram-Schmidt pair of u, v, orthonormal for the matrix g, formed per
    batch element: r[..., n, n, n, n], g[..., n, n] and u, v [..., n] broadcast.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    def g_pair(a, b):
        return (a[..., None, :] @ g @ b[..., :, None])[..., 0, 0]

    nu = np.sqrt(g_pair(u, u))
    if np.any(nu == 0.0):
        raise PreconditionError("plane vectors must be nonzero")
    e1 = u / nu[..., None]
    v2 = v - g_pair(e1, v)[..., None] * e1
    nv = np.sqrt(g_pair(v2, v2))
    if np.any(nv <= 1e-12 * np.maximum(np.sqrt(g_pair(v, v)), 1.0)):
        raise PreconditionError("plane vectors are linearly dependent")
    return sectional_contraction(r, e1, v2 / nv[..., None])


def sectional_contraction(r: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """r(e1, e2, e2, e1) for r[..., n, n, n, n] and vectors e1, e2 [..., n]: one matmul per slot.

    The batch axes of r, e1 and e2 broadcast.
    """
    n = r.shape[-1]
    t = r.reshape(r.shape[:-4] + (n ** 3, n)) @ e1[..., :, None]
    t = t.reshape(t.shape[:-2] + (n * n, n)) @ e2[..., :, None]
    t = t.reshape(t.shape[:-2] + (n, n)) @ e2[..., :, None]
    return (t.reshape(t.shape[:-2] + (1, n)) @ e1[..., :, None])[..., 0, 0]


def frame_components(b: np.ndarray, arr) -> np.ndarray:
    """Covariant components in the frame given by the columns of b[..., n, n].

    Batch axes as in contract: broadcast an unbatched arr against a batched b first.
    """
    arr = np.asarray(arr, dtype=float)
    _require_slots(b, arr.shape)
    # a tensor with no slots is its own components
    return arr if arr.ndim == b.ndim - 2 else _frame_components(b, arr)


@single_point_rule(2, None)
def _frame_components(b: np.ndarray, arr: np.ndarray) -> np.ndarray:
    return batch_first(_per_slot(b.swapaxes(-1, -2), arr), arr.ndim - (b.ndim - 2))


def r0_curvature(g: np.ndarray) -> np.ndarray:
    """Constant-curvature model R0(X,Y)Z = g(Y,Z)X - g(X,Z)Y of g[..., n, n] as a (0,4) array.

    r0[..., i, j, k, l] = g_jk g_il - g_ik g_jl: one broadcast product minus its (i, j) swap.
    """
    g = np.asarray(g, dtype=float)
    prod = g[..., None, :, :, None] * g[..., :, None, None, :]
    return prod - np.swapaxes(prod, -4, -3)
