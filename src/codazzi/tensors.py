"""Dense tensor containers and metric-aware algebra.

Conventions used throughout the package:

- all component arrays are dense float64 numpy arrays of shape (n,)*degree;
- a mixed tensor of type (p covariant, q contravariant) stores its
  contravariant axes first: K of type (1,2) has K.array[m, i, j] = K^m_ij;
- curvature-type (0,4) tensors store R[i, j, k, l] = g(R(e_i, e_j)e_k, e_l);
- scalar products of covariant tensors contract every slot against g^{-1}.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, DimensionMismatchError, NotPositiveDefiniteError,
                     PreconditionError)

MAX_DIMENSION = 8


def _as_matrix(components) -> np.ndarray:
    m = np.asarray(components, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConstructionError(f"metric components must be square, got shape {m.shape}")
    return m


class MetricPoint:
    """Symmetric positive-definite bilinear form at a point.

    Positive definiteness is checked on construction through the leading
    principal minors; the error names the first failing minor.
    """

    __slots__ = ("n", "components", "_factors")

    def __init__(self, components):
        m = _as_matrix(components)
        n = m.shape[0]
        if n < 1:
            raise ConstructionError("dimension must be >= 1")
        if n > MAX_DIMENSION:
            raise ConstructionError(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")
        if not np.array_equal(m, m.T):
            raise ConstructionError("metric components are not symmetric")
        for k in range(1, n + 1):
            minor = float(np.linalg.det(m[:k, :k]))
            if not minor > 0.0:
                raise NotPositiveDefiniteError(
                    f"metric is not positive definite: leading principal minor {k} is {minor:g}"
                )
        m.setflags(write=False)
        self.n = n
        self.components = m
        self._factors = None

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(g^{-1}, orthonormal frame, sqrt(det g)) from metric_factors, computed once."""
        if self._factors is None:
            self._factors = metric_factors(self.components)
        return self._factors

    @property
    def inverse(self) -> np.ndarray:
        return self.factors[0]

    def norm(self, vector) -> float:
        v = np.asarray(vector, dtype=float)
        return float(np.sqrt(v @ self.components @ v))

    def pair(self, u, v) -> float:
        return float(np.asarray(u) @ self.components @ np.asarray(v))

    def __repr__(self):
        return f"MetricPoint(n={self.n})"


def orthonormal_frame(g: MetricPoint) -> np.ndarray:
    """Lower-triangular B with B^T g B = Identity (Cholesky factor of g^{-1}).

    Columns of B are the frame vectors; the convention is deterministic so
    frame-dependent intermediates are reproducible.
    """
    return g.factors[1]


# matrices factored per pass of the elementwise loop: its temporaries stay in cache
FACTOR_BLOCK = 2048

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
    the same bits alone or inside any batch.  The outputs are read-only.

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
    ginv, frame, vol = np.empty(g.shape), np.empty(g.shape), np.empty(batch)
    with np.errstate(all="ignore"):
        sym = 0.5 * (g + np.swapaxes(g, -1, -2))
        flat_sym, flat_ginv, flat_frame = (a.reshape(-1, n, n) for a in (sym, ginv, frame))
        flat_vol = vol.reshape(-1)
        for lo in range(0, len(flat_sym), FACTOR_BLOCK):
            part = slice(lo, lo + FACTOR_BLOCK)
            # matrix axes first: entry (i, j) of a block is one array over its matrices
            block = flat_sym[part].transpose(1, 2, 0)
            flat_vol[part], _, block_ginv, block_frame = _factor_entries(
                block, np.sqrt, np.zeros(block.shape[-1]))
            for out, rows in ((flat_ginv[part], block_ginv), (flat_frame[part], block_frame)):
                out = out.transpose(1, 2, 0)
                for i, row in enumerate(rows):
                    for j, entry in enumerate(row):
                        out[i, j] = entry
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


_PACK_TABLES: dict[int, list[tuple[int, int, int]]] = {}


def _packed_triples(n: int) -> list[tuple[int, int, int]]:
    if n not in _PACK_TABLES:
        _PACK_TABLES[n] = [
            (i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)
        ]
    return _PACK_TABLES[n]


class CubicForm:
    """Fully symmetric (0,3) tensor stored compressed over multi-indices i<=j<=k.

    Total symmetry is unfalsifiable by construction: only one value per
    multi-index class is kept and the dense array is expanded on access.
    """

    __slots__ = ("n", "_packed", "_dense")

    def __init__(self, n: int, packed):
        triples = _packed_triples(n)
        packed = np.asarray(packed, dtype=float)
        if packed.shape != (len(triples),):
            raise ConstructionError(
                f"packed cubic form for n={n} needs {len(triples)} entries, got {packed.shape}"
            )
        packed.setflags(write=False)
        self.n = n
        self._packed = packed
        self._dense = None

    @classmethod
    def zero(cls, n: int) -> "CubicForm":
        return cls(n, np.zeros(len(_packed_triples(n))))

    @classmethod
    def from_dense(cls, components, tol: float = 1e-9) -> "CubicForm":
        """Ingest a dense rank-3 array, asserting total symmetry within tol (relative)."""
        arr = np.asarray(components, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ConstructionError(f"cubic form needs shape (n,n,n), got {arr.shape}")
        n = arr.shape[0]
        if n > MAX_DIMENSION:
            raise ConstructionError(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")
        scale = float(np.max(np.abs(arr))) or 1.0
        sym = symmetrize(arr)
        defect = float(np.max(np.abs(arr - sym)))
        if defect > tol * scale:
            raise ConstructionError(
                f"cubic form is not totally symmetric: max asymmetry {defect:g} (scale {scale:g})"
            )
        packed = np.array([sym[t] for t in _packed_triples(n)])
        return cls(n, packed)

    @classmethod
    def from_entries(cls, n: int, entries: dict) -> "CubicForm":
        """Build from {(i,j,k): value} with arbitrary index order (0-based)."""
        triples = _packed_triples(n)
        index = {t: pos for pos, t in enumerate(triples)}
        packed = np.zeros(len(triples))
        for key, value in entries.items():
            t = tuple(sorted(key))
            if len(t) != 3 or not all(0 <= i < n for i in t):
                raise ConstructionError(f"cubic form index {key} out of range for n={n}")
            packed[index[t]] = float(value)
        return cls(n, packed)

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            n = self.n
            arr = np.zeros((n, n, n))
            for value, (i, j, k) in zip(self._packed, _packed_triples(n)):
                for p in set(itertools.permutations((i, j, k))):
                    arr[p] = value
            arr.setflags(write=False)
            self._dense = arr
        return self._dense

    def __call__(self, u, v, w) -> float:
        u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
        return float(np.einsum("ijk,i,j,k->", self.dense, u, v, w))

    def entries(self) -> dict[tuple[int, int, int], float]:
        return {
            t: float(v)
            for t, v in zip(_packed_triples(self.n), self._packed)
            if v != 0.0
        }

    def __repr__(self):
        return f"CubicForm(n={self.n})"


@dataclass(frozen=True)
class Tensor:
    """Dense tensor of type (p covariant, q contravariant); contravariant axes first."""

    n: int
    p: int
    q: int
    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=float)
        expected = (self.n,) * (self.p + self.q)
        if arr.shape != expected:
            raise ConstructionError(
                f"tensor of type ({self.p},{self.q}) over n={self.n} needs shape {expected}, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)


class CurvTensor:
    """Curvature-type (0,4) tensor R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l).

    Antisymmetry in (i,j) holds for every curvature tensor here; the first
    Bianchi identity and (k,l)-antisymmetry are asserted only for the
    constructions that guarantee them (Levi-Civita, commutator, constant
    curvature model); the statistical curvature in general has no (k,l)
    skew-symmetry.
    """

    __slots__ = ("tensor",)

    def __init__(self, array_or_tensor):
        if isinstance(array_or_tensor, Tensor):
            t = array_or_tensor
            if (t.p, t.q) != (4, 0):
                raise ConstructionError("CurvTensor requires a (0,4) tensor")
        else:
            arr = np.asarray(array_or_tensor, dtype=float)
            if arr.ndim != 4 or len(set(arr.shape)) != 1:
                raise ConstructionError(f"CurvTensor requires shape (n,n,n,n), got {arr.shape}")
            t = Tensor(arr.shape[0], 4, 0, arr)
        self.tensor = t

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def array(self) -> np.ndarray:
        return self.tensor.array

    def antisymmetry_defect(self) -> float:
        r = self.array
        return float(np.max(np.abs(r + np.swapaxes(r, 0, 1))))

    def first_bianchi_defect(self) -> float:
        r = self.array
        cyc = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
        return float(np.max(np.abs(cyc)))

    def pair_symmetry_defect(self) -> float:
        r = self.array
        return float(np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))))

    def last_pair_antisymmetry_defect(self) -> float:
        r = self.array
        return float(np.max(np.abs(r + np.swapaxes(r, 2, 3))))

    def check(self, tol: float = 1e-10, riemannian: bool = False) -> None:
        defect = self.antisymmetry_defect()
        if defect > tol:
            raise ConstructionError(f"curvature tensor not antisymmetric in (i,j): defect {defect:g}")
        if riemannian:
            for name, value in (
                ("first Bianchi", self.first_bianchi_defect()),
                ("(k,l) antisymmetry", self.last_pair_antisymmetry_defect()),
                ("pair symmetry", self.pair_symmetry_defect()),
            ):
                if value > tol:
                    raise ConstructionError(f"curvature tensor fails {name}: defect {value:g}")

    def __repr__(self):
        return f"CurvTensor(n={self.n})"


# ---------------------------------------------------------------------------
# metric-aware algebra


def raise_last(ginv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Difference tensor K[..., m, i, j] = g^{ml} A_ijl, so A(X,Y,Z) = g(K(X,Y),Z).

    ginv[..., n, n] and a[..., n, n, n] share their batch axes; one matmul on a reshape.
    """
    n = a.shape[-1]
    flat = a.reshape(a.shape[:-3] + (n * n, n)).swapaxes(-1, -2)
    return (ginv @ flat).reshape(a.shape)


def trace_k(k: np.ndarray) -> np.ndarray:
    """Trace form tau[..., i] = K^m_im of K[..., m, i, j]."""
    return np.trace(k, axis1=-3, axis2=-1)


def _per_slot(m: np.ndarray, arr) -> np.ndarray:
    """Apply m[..., n, n] to every slot of arr[..., n, ..., n], one matmul per slot.

    The batch axes of m (all but its last two) and as many leading axes of arr
    must broadcast.  The caller broadcasts an unbatched arr against a batched m:
    otherwise its first slot would be read as a batch axis.
    """
    arr = np.asarray(arr, dtype=float)
    lead, n = m.ndim - 2, m.shape[-1]
    k = arr.ndim - lead
    if (k < 0 or any(p != q and 1 not in (p, q) for p, q in zip(m.shape[:lead], arr.shape[:lead]))
            or any(s != n for s in arr.shape[lead:])):
        raise DimensionMismatchError(
            f"matrices of shape {m.shape} cannot act on the slots of a tensor of shape {arr.shape}")
    # the product puts the new slot first; moving it last walks every slot once
    for _ in range(k):
        arr = m @ arr.reshape(arr.shape[:lead] + (n, n ** (k - 1)))
        arr = arr.swapaxes(-1, -2).reshape(arr.shape[:lead] + (n,) * k)
    return arr


def contract(ginv: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Full contraction of two covariant arrays of equal shape, every slot against ginv.

    Axes of ginv before its last two are batch axes, matched by as many leading
    axes of t and s (broadcast an unbatched tensor first); a single point gives a float.
    """
    lead = ginv.ndim - 2
    out = np.sum(t * _per_slot(ginv, s), axis=tuple(range(lead, np.ndim(s))))
    return float(out) if lead == 0 else out


def trace_pair(ginv: np.ndarray, arr: np.ndarray, a: int, b: int):
    """Contract slots a and b of arr (counted after the batch axes of ginv) against ginv.

    One [..., 1, n*n] @ [..., n*n, rest] product with slots a and b moved in front;
    a single point traced to a scalar gives a float.
    """
    lead, n = ginv.ndim - 2, ginv.shape[-1]
    rest = tuple(p for p in range(lead, arr.ndim) if p not in (lead + a, lead + b))
    arr = arr.transpose(tuple(range(lead)) + (lead + a, lead + b) + rest)
    flat = arr.reshape(arr.shape[:lead] + (n * n, -1))
    out = ginv.reshape(ginv.shape[:lead] + (1, n * n)) @ flat
    out = out.reshape(arr.shape[:lead] + arr.shape[lead + 2:])
    return float(out) if out.ndim == 0 else out


def ricci_trace(up: np.ndarray) -> np.ndarray:
    """Ric[..., j, k] = trace of X -> R(X, e_j)e_k, from up[..., m, i, j, k] = R(e_i, e_j)e_k^m."""
    return np.trace(up, axis1=-4, axis2=-3)


def _covariant_array(t) -> np.ndarray:
    if isinstance(t, CurvTensor):
        return t.array
    if isinstance(t, CubicForm):
        return t.dense
    if isinstance(t, Tensor):
        if t.q != 0:
            raise DimensionMismatchError("operation requires a fully covariant tensor")
        return t.array
    return np.asarray(t, dtype=float)


def inner(g: MetricPoint, t, s) -> float:
    """Full scalar product: contraction of two (0,p) tensors with g^{-1} on every slot."""
    ta = _covariant_array(t)
    sa = _covariant_array(s)
    if ta.shape != sa.shape:
        raise DimensionMismatchError(f"degree/shape mismatch: {ta.shape} vs {sa.shape}")
    if ta.ndim == 0:
        return float(ta) * float(sa)
    if ta.shape[0] != g.n:
        raise DimensionMismatchError(f"metric has n={g.n}, tensors have n={ta.shape[0]}")
    return contract(g.inverse, ta, sa)


def norm(g: MetricPoint, t) -> float:
    return float(np.sqrt(max(inner(g, t, t), 0.0)))


@functools.cache
def _orbit_tables(n: int, k: int):
    """The orbits of S_k on the flat indices of an (n,)*k array.

    Returns (groups, orbit_of).  Each group holds the orbits of one size as
    (size, columns): columns[c][r] is the c-th flat index of the group's r-th
    orbit.  orbit_of[f] is the position of the orbit of f when the groups'
    orbits are laid end to end.  Built in plain Python: a numpy sort here
    would map its working memory on the first call of a process.
    """
    orbits: dict[tuple[int, ...], list[int]] = {}
    for flat, index in enumerate(itertools.product(range(n), repeat=k)):
        orbits.setdefault(tuple(sorted(index)), []).append(flat)
    by_size: dict[int, list[list[int]]] = {}
    for members in orbits.values():
        by_size.setdefault(len(members), []).append(members)
    groups, orbit_of, position = [], [0] * n**k, 0
    for size, same_size in by_size.items():
        groups.append((size, [np.array(c, dtype=np.intp) for c in zip(*same_size)]))
        for members in same_size:
            for flat in members:
                orbit_of[flat] = position
            position += 1
    return groups, np.array(orbit_of, dtype=np.intp)


def symmetrize(arr: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Average over all permutations of the last `degree` axes (default: all axes).

    Leading axes beyond `degree` are batch axes and are left in place.  Each
    orbit of the permutations on the multi-indices is averaged once and its
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
    groups, orbit_of = _orbit_tables(n, k)
    flat = arr.reshape(arr.shape[:-k] + (n**k,))
    means = []
    for size, columns in groups:
        total = flat[..., columns[0]]
        for column in columns[1:]:
            total += flat[..., column]
        total /= size
        means.append(total)
    return np.concatenate(means, axis=-1)[..., orbit_of].reshape(arr.shape)


def sectional(r: np.ndarray, g: np.ndarray, u, v) -> float:
    """Sectional curvature r(e1, e2, e2, e1) of the (0,4) array r on the plane of u, v.

    (e1, e2) is the Gram-Schmidt pair of u, v, orthonormal for the matrix g.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.sqrt(u @ g @ u))
    if nu == 0.0:
        raise PreconditionError("plane vectors must be nonzero")
    e1 = u / nu
    v2 = v - (e1 @ g @ v) * e1
    nv = float(np.sqrt(v2 @ g @ v2))
    if nv <= 1e-12 * max(float(np.sqrt(v @ g @ v)), 1.0):
        raise PreconditionError("plane vectors are linearly dependent")
    e2 = v2 / nv
    return float(sectional_contraction(r, e1, e2))


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
    return _per_slot(b.swapaxes(-1, -2), _covariant_array(arr))


def r0_curvature(g: MetricPoint) -> CurvTensor:
    """Constant-curvature model tensor R0(X,Y)Z = g(Y,Z)X - g(X,Z)Y as a (0,4) tensor."""
    gm = g.components
    arr = np.einsum("jk,il->ijkl", gm, gm) - np.einsum("ik,jl->ijkl", gm, gm)
    return CurvTensor(arr)
