import numpy as np
import pytest

from codazzi.generators import equality_point, hyperbolic_point


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def eq_point():
    """(g, a) of the 2D structure attaining equality in both sharp pointwise inequalities."""
    return equality_point()


@pytest.fixture
def g3_point():
    """(g, a) of the trace-free 2D structure with commutator curvature -2 R0."""
    return hyperbolic_point()
