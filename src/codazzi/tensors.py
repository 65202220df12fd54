"""Dense tensor containers and metric-aware algebra.

Conventions used throughout the package:

- all component arrays are dense float64 numpy arrays of shape (n,)*degree;
- a mixed tensor of type (p covariant, q contravariant) stores its
  contravariant axes first: K of type (1,2) has K.array[m, i, j] = K^m_ij;
- curvature-type (0,4) tensors store R[i, j, k, l] = g(R(e_i, e_j)e_k, e_l);
- scalar products of covariant tensors contract every slot against g^{-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DimensionMismatchError, PreconditionError

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

    __slots__ = ("n", "components", "_inverse", "_frame")

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
                raise ConstructionError(
                    f"metric is not positive definite: leading principal minor {k} is {minor:g}"
                )
        m.setflags(write=False)
        self.n = n
        self.components = m
        self._inverse = None
        self._frame = None

    @property
    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            inv = np.linalg.inv(self.components)
            inv = 0.5 * (inv + inv.T)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

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
    if g._frame is None:
        b = np.linalg.cholesky(g.inverse)
        b.setflags(write=False)
        g._frame = b
    return g._frame


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
    def packed(self) -> np.ndarray:
        return self._packed

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

    @classmethod
    def covariant(cls, array) -> "Tensor":
        arr = np.asarray(array, dtype=float)
        return cls(arr.shape[0] if arr.ndim else 1, arr.ndim, 0, arr)

    @property
    def degree(self) -> int:
        return self.p + self.q


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


def raise_last(g: MetricPoint, a: CubicForm) -> Tensor:
    """Sharp of the last slot: K^m_ij = g^{ml} A_ijl, so A(X,Y,Z) = g(K(X,Y),Z)."""
    if a.n != g.n:
        raise DimensionMismatchError(f"metric has n={g.n}, cubic form has n={a.n}")
    k = np.einsum("ml,ijl->mij", g.inverse, a.dense)
    return Tensor(g.n, 2, 1, k)


def lower_last(g: MetricPoint, k: Tensor) -> CubicForm:
    """Flat of the upper index of a (1,2) tensor; inverse of raise_last."""
    if (k.p, k.q) != (2, 1):
        raise DimensionMismatchError("lower_last expects a (1,2) tensor")
    if k.n != g.n:
        raise DimensionMismatchError(f"metric has n={g.n}, tensor has n={k.n}")
    a = np.einsum("lm,mij->ijl", g.components, k.array)
    return CubicForm.from_dense(a, tol=1e-12)


def _per_slot(b: np.ndarray, arr: np.ndarray, spec: str) -> np.ndarray:
    """Apply b[..., n, n] to every slot of arr[..., *slots] by the einsum spec (shared batch axes)."""
    lead = b.ndim - 2
    arr = np.asarray(arr, dtype=float)
    b = b.reshape(b.shape[:lead] + (1,) * (arr.ndim - lead - 1) + b.shape[lead:])
    for axis in range(lead, arr.ndim):
        arr = np.moveaxis(np.einsum(spec, b, np.moveaxis(arr, axis, -1)), -1, axis)
    return arr


def contract(ginv: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Full contraction of two covariant arrays of equal shape, every slot against ginv.

    Axes of ginv before its last two are batch axes; a single point gives a float.
    """
    lead = ginv.ndim - 2
    out = np.sum(t * _per_slot(ginv, s, "...ij,...j->...i"), axis=tuple(range(lead, np.ndim(s))))
    return float(out) if lead == 0 else out


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


def trace_g(g: MetricPoint, t, slots: tuple[int, int]):
    """Contract two covariant slots (0-based) against g^{-1}; degree drops by 2."""
    arr = _covariant_array(t)
    a, b = slots
    if a == b:
        raise DimensionMismatchError("trace slots must differ")
    if not (0 <= a < arr.ndim and 0 <= b < arr.ndim):
        raise DimensionMismatchError(f"trace slots {slots} out of range for degree {arr.ndim}")
    if arr.ndim < 2:
        raise DimensionMismatchError("trace requires degree >= 2")
    out = np.tensordot(arr, g.inverse, axes=((a, b), (0, 1)))
    return float(out) if out.ndim == 0 else out


def symmetrize(arr: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Average over all permutations of the last `degree` axes (default: all axes).

    Leading axes beyond `degree` are batch axes and are left in place.
    """
    arr = np.asarray(arr, dtype=float)
    batch = arr.ndim - (arr.ndim if degree is None else degree)
    lead = tuple(range(batch))
    perms = [lead + p for p in itertools.permutations(range(batch, arr.ndim))]
    out = np.transpose(arr, perms[0]).copy()
    for p in perms[1:]:
        out += np.transpose(arr, p)
    out /= len(perms)
    return out


def asymmetry_norm(g: MetricPoint, arr) -> float:
    """g-norm of the deviation from the totally symmetric part."""
    a = _covariant_array(arr)
    return norm(g, a - symmetrize(a))


def orthonormal_plane(g: np.ndarray, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt pair (e1, e2) spanning the plane of u, v, orthonormal for the matrix g."""
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
    return e1, v2 / nv


def frame_components(b: np.ndarray, arr) -> np.ndarray:
    """Covariant components in the frame given by the columns of b[..., n, n] (batch axes first)."""
    return _per_slot(b, _covariant_array(arr), "...ij,...i->...j")


def r0_curvature(g: MetricPoint) -> CurvTensor:
    """Constant-curvature model tensor R0(X,Y)Z = g(Y,Z)X - g(X,Z)Y as a (0,4) tensor."""
    gm = g.components
    arr = np.einsum("jk,il->ijkl", gm, gm) - np.einsum("ik,jl->ijkl", gm, gm)
    return CurvTensor(arr)


def ricci_from_curvature(g: MetricPoint, r: CurvTensor) -> np.ndarray:
    """Ric(Y,Z) = trace of X -> R(X,Y)Z, from (0,4) components."""
    return np.einsum("il,ijkl->jk", g.inverse, r.array)


def scalar_from_ricci(g: MetricPoint, ric: np.ndarray) -> float:
    return float(np.einsum("jk,jk->", g.inverse, ric))
