"""Tensor calculus of statistical structures (Codazzi pairs) with numerical verification."""

from .errors import (
    CodazziError,
    ConstructionError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    PreconditionError,
    SchemaError,
)
from .tensors import (
    contract,
    frame_components,
    metric_factors,
    r0_curvature,
    raise_last,
    ricci_trace,
    symmetrize,
    trace_k,
    trace_pair,
)
from .points import (
    EqualityCertificate,
    best_fit_curvature_coefficient,
    bracket_kk,
    check_ineq_eighth,
    check_ineq_n2over3,
    check_ineq_quarter,
    constant_curvature_residual,
    fit_constant_curvature,
    frame_cubic,
    lagrangian_gauss_residual,
    lpq,
    random_stat_point,
    require_finite,
    ric_k,
    ric_k_from_bracket,
    rho_k,
    scalar_gap_bounds,
    sectional_k,
    trace_free_part,
)
from .charts import ChartStructure, christoffel, hessian_from_potential
from .generators import FAMILIES, GeneratorSpec, generate
from .spheres import SphereQuadrature, integrate_monte_carlo, integrate_sphere, product_gauss
from .structures_io import canonical_json, emit, ingest
from .suites import ResidualReport, SuiteConfig, run_suite

__version__ = "0.1.0"
