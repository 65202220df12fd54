"""The random sweeps stream their samples in blocks: same numbers as one whole batch, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from codazzi import points
from codazzi.suites import sweep_cubic_norm_bounds, sweep_trace_inequalities
from codazzi.tensors import symmetrize


def whole_batch_trace(n, count, seed):
    rng = np.random.default_rng(seed)
    a = symmetrize(rng.uniform(-1.0, 1.0, (count, n, n, n)), degree=3)
    u = rng.uniform(-1.0, 1.0, (count, n))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-3)
    lhs, tau_sq, u_sq, _ = points.quarter_terms(a, u)
    quarter = float(np.max(lhs - 0.25 * tau_sq * u_sq))
    normgap = -float(np.min(points.norm_gap(a)))
    a[:, 0, 0, 0] = 0.0
    lhs, tau_sq, _ = points.quarter_parts(points.trace_form(a), a[:, 0, 0], a[:, 0])
    return {"quarter": quarter, "eighth": float(np.max(lhs - 0.125 * tau_sq)), "normgap": normgap}


def whole_batch_cubic(n, count, seed):
    rng = np.random.default_rng(seed)
    a = points.trace_free_projection(
        symmetrize(rng.uniform(-1.0, 1.0, (count, n, n, n)), degree=3))
    u_val = points.cubic_norm_sq(a)
    l2, p2 = points.lp_norms(a)
    total = l2 + p2
    return {
        "lower": float(np.max((n + 1) / (n * (n - 1)) * u_val**2 - total)),
        "upper": float(np.max(total - 1.5 * u_val**2)),
        "li-equality-n2": float(np.max(np.abs(total - 1.5 * u_val**2))) if n == 2 else 0.0,
    }


# one row, one partial block, exactly one block, one block plus a last block of one row,
# and two full blocks plus a partial one
@pytest.mark.parametrize("count", [1, 7, 2000, 2001, 4999])
@pytest.mark.parametrize("n", [2, 3, 4])
class TestStreamEquivalence:
    def test_trace_sweep(self, n, count):
        assert sweep_trace_inequalities(n, count, seed=n) == whole_batch_trace(n, count, n)

    def test_cubic_sweep(self, n, count):
        seed = 100 + n
        assert sweep_cubic_norm_bounds(n, count, seed=seed) == whole_batch_cubic(n, count, seed)


def test_advanced_generator_continues_the_stream():
    # the blocks draw u from a generator advanced past the doubles of a
    for seed, skipped in ((3, 7 * 27), (4, 4999 * 64), (0, 1)):
        rng = np.random.default_rng(seed)
        rng.uniform(-1.0, 1.0, skipped)
        expected = rng.uniform(-1.0, 1.0, (5, 4))
        advanced = np.random.Generator(np.random.PCG64(seed).advance(skipped))
        assert np.array_equal(advanced.uniform(-1.0, 1.0, (5, 4)), expected)


@pytest.mark.parametrize("sweep, n, seed", [
    (sweep_trace_inequalities, 4, 4),
    (sweep_cubic_norm_bounds, 3, 103),
])
def test_sweep_memory_does_not_grow_with_count(sweep, n, seed):
    tracemalloc.start()
    try:
        sweep(n, 50_000, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
