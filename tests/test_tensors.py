import itertools
import math
import warnings

import numpy as np
import pytest

from codazzi import (
    ConstructionError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    frame_components,
    r0_curvature,
    raise_last,
    symmetrize,
)
from codazzi.charts import ChartStructure, constant_field
from codazzi.generators import equality_point
from codazzi.points import frame_cubic, ric_k
from codazzi.spheres import poly_eval, product_gauss
from codazzi.structures_io import (cubic_entries, cubic_from_entries, cubic_triples,
                                   stat_point_from_dict)
from codazzi.tensors import (batch_last, check_riemannian_symmetries, contract, core_first,
                             gram_k, lower_first, metric_factor_counts, metric_factors,
                             ricci_trace, sectional, sectional_contraction, tau_circ_k, trace_k,
                             trace_pair)


def random_spd(n, rng):
    l = np.eye(n) + 0.5 * np.tril(rng.uniform(-1, 1, (n, n)), k=-1)
    d = np.diag(rng.uniform(0.5, 2.0, n))
    m = l @ d @ l.T
    return 0.5 * (m + m.T)


def point_dict(g, entries=None):
    return {"n": len(g), "g": [[float(v) for v in row] for row in g], "A": entries or {}}


class TestMetricPoint:
    """The metric of a point file: ingest checks its symmetry, and metric_factors its
    dimension and positive definiteness."""

    def test_rejects_asymmetric(self):
        with pytest.raises(ConstructionError, match="not symmetric"):
            stat_point_from_dict(point_dict([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_indefinite_naming_pivot(self):
        # the factorization runs from the last row up, so [[1, 2], [2, 1]] fails at pivot 1
        with pytest.raises(NotPositiveDefiniteError, match="pivot 1 "):
            stat_point_from_dict(point_dict([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(ConstructionError, match="dimension 9 must lie in 1..8"):
            stat_point_from_dict(point_dict(np.eye(9)))

    def test_inverse(self, rng):
        g = random_spd(4, rng)
        assert np.allclose(g @ metric_factors(g)[0], np.eye(4), atol=1e-12)

    def test_ingest_gives_read_only_arrays(self):
        g, a = stat_point_from_dict(point_dict(np.eye(2), {"112": 1.0, "222": 3.0}))
        assert np.array_equal(g, np.eye(2)) and np.array_equal(a, equality_point()[1])
        assert not g.flags.writeable and not a.flags.writeable


class TestOrthonormalFrame:
    """The frame of metric_factors: lower triangular, with B^T g B = I."""

    def test_identity(self):
        assert np.allclose(metric_factors(np.eye(3))[1], np.eye(3))

    def test_diagonal(self):
        b = metric_factors(np.diag([2.0, 1.0]))[1]
        assert np.allclose(b, np.diag([1.0 / np.sqrt(2.0), 1.0]))

    def test_random_spd_seed7(self):
        rng = np.random.default_rng(7)
        g = random_spd(4, rng)
        b = metric_factors(g)[1]
        assert np.max(np.abs(b.T @ g @ b - np.eye(4))) < 1e-12
        # lower triangular convention
        assert np.allclose(b, np.tril(b))


class TestMetricFactors:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    def test_matches_lapack_oracles(self, n, batch):
        rng = np.random.default_rng(n)
        g = np.stack([random_spd(n, rng) for _ in range(math.prod(batch))]).reshape(batch + (n, n))
        ginv, frame, vol = metric_factors(g)
        inv = np.linalg.inv(g)
        scale = np.max(np.abs(inv))
        assert ginv.shape == frame.shape == g.shape and np.shape(vol) == batch
        assert np.max(np.abs(ginv - inv)) < 1e-13 * scale
        assert np.max(np.abs(frame - np.linalg.cholesky(inv))) < 1e-13 * math.sqrt(scale)
        assert np.max(np.abs(vol / np.sqrt(np.linalg.det(g)) - 1.0)) < 1e-13
        assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))
        assert np.array_equal(frame, np.tril(frame))
        assert not ginv.flags.writeable and not frame.flags.writeable

    def test_symmetrizes_its_input(self, rng):
        g = random_spd(3, rng)
        skew = g + np.triu(np.full((3, 3), 1e-3), 1) - np.tril(np.full((3, 3), 1e-3), -1)
        assert all(np.array_equal(a, b) for a, b in zip(metric_factors(skew), metric_factors(g)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_matrix_gets_the_same_bits_alone_and_in_any_batch(self, n):
        rng = np.random.default_rng(10 + n)
        g = np.stack([random_spd(n, rng) for _ in range(4500)])
        together = metric_factors(g)
        for i in (0, 2047, 2048, 4499):
            alone = metric_factors(g[i])
            assert all(np.array_equal(a, b[i]) for a, b in zip(alone, together)), i
        nested = metric_factors(g[:12].reshape(3, 4, n, n))
        assert all(np.array_equal(a.reshape(b[:12].shape), b[:12])
                   for a, b in zip(nested, together))

    def test_metric_point_reads_the_kernel(self, rng):
        # the pointwise functions of a structure (g, a) read g^-1 and the frame of the kernel
        g = random_spd(4, rng)
        a = symmetrize(rng.uniform(-1, 1, (4, 4, 4)))
        ginv, frame, _ = metric_factors(g)
        assert np.array_equal(frame_cubic(g, a), frame_components(frame, a))
        k = raise_last(ginv, a)
        assert np.array_equal(ric_k(g, a), tau_circ_k(trace_k(k), k) - gram_k(ginv, g, k))

    def test_counts_batches_and_matrices(self, rng):
        before = metric_factor_counts()
        metric_factors(np.broadcast_to(np.eye(2), (3, 4, 2, 2)))
        metric_factors(np.eye(3))
        after = metric_factor_counts()
        assert (after[0] - before[0], after[1] - before[1]) == (2, 13)

    @pytest.mark.parametrize("g, error, match", [
        ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefiniteError, "pivot 1 .* is -3"),
        ([[-1.0, 0.0], [0.0, 1.0]], NotPositiveDefiniteError, "pivot 1"),
        ([[1.0, 0.0], [0.0, 0.0]], NotPositiveDefiniteError, "pivot 2 .* is 0"),
        ([[1.0, np.nan], [np.nan, 1.0]], ConstructionError, "metric is not finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], ConstructionError, "metric is not finite"),
        ([[1e308, 0.0], [0.0, 1.0]], ConstructionError, "factors are not finite"),
        ([[1e-320, 0.0], [0.0, 1.0]], ConstructionError, "factors are not finite"),
        ([[1e300, 1e300], [1e300, 1e-10]], ConstructionError, "factors are not finite"),
    ])
    def test_bad_metric_raises_without_warnings(self, g, error, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                metric_factors(np.array(g))

    def test_error_names_the_failing_point(self):
        g = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        g[1, 2, 1, 1] = -1.0
        points = np.arange(12.0).reshape(2, 3, 2)
        with pytest.raises(NotPositiveDefiniteError, match=r"x=\[10.0, 11.0\]"):
            metric_factors(g, points)
        with pytest.raises(NotPositiveDefiniteError, match=r"batch index \(1, 2\)"):
            metric_factors(g)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ConstructionError, match="square"):
            metric_factors(np.ones(shape))

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(ConstructionError, match="1..8"):
            metric_factors(np.eye(9))


class TestCubicForm:
    """Packed cubic entries i <= j <= k and dense arrays, and the symmetry a chart's cubic
    field must have."""

    def test_storage_forces_symmetry(self):
        dense = cubic_from_entries(3, {(2, 0, 1): 2.5})
        for p in itertools.permutations((0, 1, 2)):
            assert dense[p] == 2.5
        assert np.count_nonzero(dense) == 6 and not dense.flags.writeable

    def test_from_dense_rejects_asymmetric(self):
        # a constant cubic field off symmetry by 2e-9 relative, beyond the chart's bar of 1e-9
        arr = np.ones((2, 2, 2))
        arr[0, 0, 1] += 2e-9
        with pytest.raises(ConstructionError, match="cubic field is not symmetric"):
            ChartStructure(2, [[0.0, 1.0]] * 2, constant_field(np.eye(2)), constant_field(arr))
        arr[0, 0, 1] = 1.0 + 5e-10
        ChartStructure(2, [[0.0, 1.0]] * 2, constant_field(np.eye(2)), constant_field(arr))

    def test_round_trip(self, rng):
        arr = symmetrize(rng.uniform(-1, 1, (4, 4, 4)))
        entries = cubic_entries(arr)
        assert list(entries) == list(cubic_triples(4))
        assert np.array_equal(cubic_from_entries(4, entries), arr)

    def test_triples_are_sorted_multi_indices(self):
        for n in range(1, 5):
            triples = cubic_triples(n)
            assert len(triples) == math.comb(n + 2, 3)
            assert list(triples) == sorted(set(tuple(sorted(t)) for t in
                                               itertools.product(range(n), repeat=3)))

    def test_entries_skip_zeros_and_reject_bad_indices(self):
        assert cubic_entries(cubic_from_entries(2, {(1, 0, 0): 0.0, (1, 1, 1): -2.0})) == {
            (1, 1, 1): -2.0}
        with pytest.raises(ConstructionError, match="out of range"):
            cubic_from_entries(2, {(0, 0, 2): 1.0})


class TestRaiseLast:
    def test_equality_point_components(self):
        g, a = equality_point()
        k = raise_last(metric_factors(g)[0], a)
        # K(e1,e1) = e2, K(e1,e2) = e1, K(e2,e2) = 3 e2
        assert np.allclose(k[:, 0, 0], [0.0, 1.0])
        assert np.allclose(k[:, 0, 1], [1.0, 0.0])
        assert np.allclose(k[:, 1, 1], [0.0, 3.0])

    def test_zero(self):
        k = raise_last(metric_factors(np.eye(3))[0], np.zeros((3, 3, 3)))
        assert np.all(k == 0.0)

    def test_hand_contraction_diag_metric(self):
        ginv = metric_factors(np.diag([2.0, 1.0]))[0]
        k = raise_last(ginv, cubic_from_entries(2, {(0, 0, 0): -1.0}))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = -0.5
        assert np.allclose(k, expected)


class TestInner:
    """The full scalar product of two covariant arrays, every slot against g^-1: contract."""

    def test_metric_with_itself_is_dimension(self, rng):
        for n in (1, 2, 4):
            g = random_spd(n, rng)
            assert contract(metric_factors(g)[0], g, g) == pytest.approx(n, abs=1e-12)

    def test_equality_point_cubic_norm(self):
        g, a = equality_point()
        assert contract(metric_factors(g)[0], a, a) == pytest.approx(12.0, abs=1e-13)

    def test_hand_contraction(self):
        ginv = metric_factors(np.diag([2.0, 1.0]))[0]
        a = cubic_from_entries(2, {(0, 0, 0): -1.0})
        assert contract(ginv, a, a) == pytest.approx(0.125, abs=1e-15)

    def test_positive_definite(self, rng):
        ginv = metric_factors(random_spd(3, rng))[0]
        t = rng.uniform(-1, 1, (3, 3, 3))
        assert contract(ginv, t, t) > 0.0
        assert contract(ginv, np.zeros((3, 3, 3)), np.zeros((3, 3, 3))) == 0.0

    def test_degree_mismatch(self):
        # (2, 2) would broadcast against (2, 2, 2): the shapes must agree
        with pytest.raises(DimensionMismatchError, match=r"\(2, 2\) and \(2, 2, 2\)"):
            contract(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2, 2)))

    def test_frame_invariance(self, rng):
        ginv, b, _ = metric_factors(random_spd(4, rng))
        t = rng.uniform(-1, 1, (4, 4, 4))
        s = rng.uniform(-1, 1, (4, 4, 4))
        coord = contract(ginv, t, s)
        naive = float(np.sum(frame_components(b, t) * frame_components(b, s)))
        assert abs(coord - naive) < 1e-11 * max(abs(coord), 1.0)


def _contract_oracle(ginv, t, s):
    """Every slot of t against the matching slot of s through ginv, as one explicit einsum."""
    k = t.ndim - (ginv.ndim - 2)
    up, low = "abcd"[:k], "ijkl"[:k]
    spec = [f"...{u}{l}" for u, l in zip(up, low)] + [f"...{up}", f"...{low}"]
    return np.einsum(",".join(spec) + "->...", *[ginv] * k, t, s)


def _frame_oracle(b, t):
    """Components in the frame of the columns of b, as one explicit einsum."""
    k = t.ndim - (b.ndim - 2)
    old, new = "ijkl"[:k], "abcd"[:k]
    spec = [f"...{o}{w}" for o, w in zip(old, new)] + [f"...{old}"]
    return np.einsum(",".join(spec) + f"->...{new}", *[b] * k, t)


def _spd_stack(shape, n, rng):
    return np.reshape([random_spd(n, rng) for _ in range(int(np.prod(shape)))], shape + (n, n))


class TestSlotKernels:
    """contract, frame_components and the pointwise kernels contract slots over batch-last
    rows; one explicit einsum per formula is the oracle."""

    # (batch axes of the matrices, batch axes of the tensors)
    BATCHES = [((), ()), ((5,), (5,)), ((2, 3), (2, 3)), ((2, 1), (1, 3))]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("batches", BATCHES)
    def test_against_einsum(self, n, k, batches, rng):
        m_batch, t_batch = batches
        ginv = _spd_stack(m_batch, n, rng)
        frame = rng.uniform(-1, 1, m_batch + (n, n))
        t = rng.uniform(-1, 1, t_batch + (n,) * k)
        s = rng.uniform(-1, 1, t_batch + (n,) * k)
        got, want = contract(ginv, t, s), _contract_oracle(ginv, t, s)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)
        got, want = frame_components(frame, t), _frame_oracle(frame, t)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    def test_pointwise_kernels_against_einsum(self, n, batch, rng):
        ginv = _spd_stack(batch, n, rng)
        a = rng.uniform(-1, 1, batch + (n,) * 3)
        r = rng.uniform(-1, 1, batch + (n,) * 4)
        e1, e2 = rng.uniform(-1, 1, (2,) + batch + (n,))
        k = raise_last(ginv, a)
        for got, want in (
            (k, np.einsum("...ml,...ijl->...mij", ginv, a)),
            (trace_k(k), np.einsum("...mim->...i", k)),
            (ricci_trace(r), np.einsum("...iijk->...jk", r)),
            (sectional_contraction(r, e1, e2), np.einsum("...ijkl,...i,...j,...k,...l->...",
                                                        r, e1, e2, e2, e1)),
        ):
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_batched_frame_on_broadcast_tensor(self, n, k, rng):
        frames = rng.uniform(-1, 1, (6, n, n))
        t = rng.uniform(-1, 1, (n,) * k)
        got = frame_components(frames, np.broadcast_to(t, (6,) + t.shape))
        for frame, value in zip(frames, got):
            want = _frame_oracle(frame, t)
            assert np.max(np.abs(value - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    def test_unbatched_tensor_is_broadcast_by_the_caller(self):
        # with as many matrices as the dimension, an unbatched cubic form would
        # read as a batch of 2-tensors; broadcasting it first gives the per-point values
        a = equality_point()[1]
        ginv = np.stack([2.0 * np.eye(2), 2.0 * np.eye(2)])
        wide = np.broadcast_to(a, (2,) + a.shape)
        assert np.array_equal(contract(ginv, wide, wide), [contract(ginv[0], a, a)] * 2)
        assert contract(ginv[0], a, a) == pytest.approx(8.0 * 12.0, rel=1e-15)

    @pytest.mark.parametrize("m_shape, t_shape", [
        ((3, 2, 2), (2, 2, 2)),   # 3 matrices, the first slot read as a batch axis of 2
        ((2, 2), (3, 3)),         # slot axes are not n
        ((4, 2, 2), (4, 2, 3)),
        ((4, 2, 2), ()),          # fewer axes than batch axes
    ])
    def test_shape_mismatch_names_both_shapes(self, m_shape, t_shape):
        m, t = np.ones(m_shape), np.ones(t_shape)
        for call in (lambda: contract(m, t, t), lambda: frame_components(m, t)):
            with pytest.raises(DimensionMismatchError) as info:
                call()
            assert str(m_shape) in str(info.value) and str(t_shape) in str(info.value)


class TestBatchLastLayout:
    """Each rewritten slot kernel gives the same bits from C-ordered operands, batch-last ones
    and broadcast views of one point, on a 2-point batch and on a 1024-point block."""

    @staticmethod
    def _kernels(n):
        nodes = product_gauss(n).nodes
        # name -> (kernel, slots of each operand)
        return {
            "metric_factors": (metric_factors, (2,)),
            "raise_last": (raise_last, (2, 3)),
            "lower_first": (lower_first, (2, 4)),
            "trace_pair": (lambda ginv, t: trace_pair(ginv, t, 0, 2), (2, 4)),
            "frame_components": (frame_components, (2, 4)),
            "poly_eval": (lambda t: poly_eval(t, nodes, 3), (3,)),
        }

    @staticmethod
    def _operands(count, n, slots, rng):
        ops = [_spd_stack((count,), n, rng) if k == 2 else rng.uniform(-1, 1, (count,) + (n,) * k)
               for k in slots]
        views = [np.broadcast_to(x[0], x.shape) for x in ops]
        # each case in three layouts: C order, batch-last and the case as it is drawn
        return [[[np.ascontiguousarray(x) for x in case], [batch_last(x, k) for x, k in
                                                            zip(case, slots)], case]
                for case in (ops, views)]

    @pytest.mark.parametrize("count", [2, 1024])
    @pytest.mark.parametrize("n", [2, 3])
    def test_either_layout_gives_the_same_bits(self, n, count, rng):
        for name, (kernel, slots) in self._kernels(n).items():
            for layouts in self._operands(count, n, slots, rng):
                assert not core_first(layouts[0][-1], slots[-1]).flags.c_contiguous
                assert core_first(layouts[1][-1], slots[-1]).flags.c_contiguous
                outs = [kernel(*operands) for operands in layouts]
                for out in outs[1:]:
                    for got, want in zip(*(o if isinstance(o, tuple) else (o,)
                                           for o in (out, outs[0]))):
                        assert np.array_equal(got, want), name

    def test_outputs_are_laid_out_batch_last(self, rng):
        ginv, t = _spd_stack((8,), 3, rng), rng.uniform(-1, 1, (8, 3, 3, 3, 3))
        for out, slots in ((metric_factors(ginv)[0], 2), (raise_last(ginv, t[..., 0]), 3),
                           (trace_pair(ginv, t, 0, 1), 2), (frame_components(ginv, t), 4),
                           (poly_eval(t, product_gauss(3).nodes, 4), 1)):
            assert core_first(out, slots)[(0,) * slots].flags.c_contiguous


def _permutation_sum_oracle(arr, degree):
    """Mean of arr over every transpose of its last `degree` axes, one add per permutation."""
    lead = tuple(range(arr.ndim - degree))
    perms = [lead + p for p in itertools.permutations(range(arr.ndim - degree, arr.ndim))]
    out = np.transpose(arr, perms[0]).copy()
    for p in perms[1:]:
        out += np.transpose(arr, p)
    return out / len(perms)


def _assert_oracle_close(got, want, degree):
    # the oracle adds degree! terms in sequence, so its own rounding grows with that count:
    # at degree 5 and n = 1 it is 3e-15 off the exact mean of 120 equal copies
    tol = max(math.factorial(degree), 4) * np.finfo(float).eps
    assert np.max(np.abs(got - want), initial=0.0) <= tol * np.max(np.abs(want), initial=0.0)


class TestSymmetrize:
    """symmetrize averages each S_k orbit of multi-indices once and writes it to every member."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_against_permutation_sum(self, n, degree, batch, rng):
        arr = rng.uniform(-1, 1, batch + (n,) * degree)
        got, want = symmetrize(arr, degree=degree), _permutation_sum_oracle(arr, degree)
        assert got.shape == want.shape
        _assert_oracle_close(got, want, degree)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2), (3, 3, 3), (2, 2, 2, 2)])
    def test_default_degree_is_every_axis(self, shape, rng):
        arr = rng.uniform(-1, 1, shape)
        _assert_oracle_close(symmetrize(arr), _permutation_sum_oracle(arr, arr.ndim), arr.ndim)

    @pytest.mark.parametrize("n, degree", [(2, 2), (3, 3), (4, 3), (3, 4), (2, 5)])
    def test_exactly_symmetric(self, n, degree, rng):
        out = symmetrize(rng.uniform(-1, 1, (4,) + (n,) * degree), degree=degree)
        for a, b in itertools.combinations(range(1, degree + 1), 2):
            assert np.swapaxes(out, a, b).tobytes() == out.tobytes()

    @pytest.mark.parametrize("n, degree", [(2, 3), (3, 3), (4, 3), (3, 4)])
    def test_batch_equals_rows(self, n, degree, rng):
        arr = rng.uniform(-1, 1, (7,) + (n,) * degree)
        batched = symmetrize(arr, degree=degree)
        for row, value in zip(arr, batched):
            assert symmetrize(row).tobytes() == value.tobytes()
        assert symmetrize(arr[2:5], degree=degree).tobytes() == batched[2:5].tobytes()

    @pytest.mark.parametrize("shape, degree", [((2, 8, 4), 3), ((5, 3, 2), 2), ((3, 3), 3)])
    def test_slot_axes_must_agree(self, shape, degree):
        # 2 * 8 * 4 = 4 ** 3, so a flat reshape alone would take (2, 8, 4) for a cube
        with pytest.raises(DimensionMismatchError) as info:
            symmetrize(np.ones(shape), degree=degree)
        assert str(shape) in str(info.value)


class TestSectional:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constant_curvature_model_on_random_planes(self, n):
        # every plane of H R0 has sectional curvature H, for any metric
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            g = random_spd(n, rng)
            h_curv = rng.uniform(-3.0, 3.0)
            u, v = rng.normal(size=(2, n))
            r = h_curv * r0_curvature(g)
            assert sectional(r, g, u, v) == pytest.approx(h_curv, rel=1e-12, abs=1e-12)


class TestR0Curvature:
    def test_matches_two_einsums_bitwise(self, rng):
        for n in (2, 3, 4):
            g = random_spd(n, rng)
            oracle = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
            assert r0_curvature(g).tobytes() == oracle.tobytes()

    def test_batch_matches_points(self, rng):
        g = np.stack([random_spd(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        r0 = r0_curvature(g)
        assert r0.shape == (2, 3) + (3,) * 4
        for index in np.ndindex(2, 3):
            assert r0[index].tobytes() == r0_curvature(g[index]).tobytes()

    def test_r0_norm(self, rng):
        for n in (2, 3, 4):
            r0 = r0_curvature(np.eye(n))
            assert contract(np.eye(n), r0, r0) == pytest.approx(2 * n * (n - 1), abs=1e-12)


class TestRiemannianSymmetries:
    def test_r0_has_riemann_symmetries(self, rng):
        check_riemannian_symmetries(r0_curvature(random_spd(3, rng)), 1e-12)

    def test_batch_of_r0_passes(self, rng):
        g = np.stack([random_spd(3, rng) for _ in range(4)])
        check_riemannian_symmetries(r0_curvature(g), 1e-12)

    def test_rejects_non_antisymmetric(self):
        arr = np.zeros((2, 2, 2, 2))
        arr[0, 0, 0, 0] = 1.0
        with pytest.raises(ConstructionError, match=r"not antisymmetric in \(i,j\)"):
            check_riemannian_symmetries(arr, 1e-10)

    def test_names_first_bianchi(self, rng):
        # a random array made antisymmetric in (i,j) fails the first Bianchi identity
        t = rng.uniform(-1.0, 1.0, (3,) * 4)
        with pytest.raises(ConstructionError, match="fails first Bianchi"):
            check_riemannian_symmetries(t - np.swapaxes(t, 0, 1), 1e-10)

    def test_names_last_pair_antisymmetry(self, rng):
        # p_jk q_il - p_ik q_jl with p symmetric is antisymmetric in (i,j) and satisfies the
        # first Bianchi identity; it is antisymmetric in (k,l) only when q is a multiple of p
        p, q = np.eye(3), random_spd(3, rng)
        t = np.einsum("jk,il->ijkl", p, q) - np.einsum("ik,jl->ijkl", p, q)
        with pytest.raises(ConstructionError, match=r"fails \(k,l\) antisymmetry"):
            check_riemannian_symmetries(t, 1e-10)

    def test_batch_names_the_largest_defect(self, rng):
        r = np.stack([r0_curvature(random_spd(2, rng)) for _ in range(3)])
        r[1, 0, 0, 0, 0] = 0.25
        with pytest.raises(ConstructionError, match="defect 0.5"):
            check_riemannian_symmetries(r, 1e-10)
