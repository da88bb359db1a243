"""Simulation of conservative SDEs on embedded matrix manifolds.

The package is organized around :class:`~manifold_sde.geometry.ManifoldHandle`
objects bundling the closed-form geometry of one manifold family (tangent
projection, metric, Christoffel function, noise operator, Brownian drifts,
tubular retraction), integrator step rules that provably preserve weak
accuracy on the manifold, and a batched simulation harness with
counter-based random streams.
"""

from .costs import COST_IDS, make_cost
from .geometry import (
    ManifoldHandle,
    OffManifoldError,
    SdeSpec,
    TangentRetraction,
    brownian_sde,
    brownian_soo,
    check_metric_compatibility,
    check_projection,
    dual_tangent_frame,
    first_order_retraction,
    laplace_beltrami,
    laplace_drift_vector,
    second_order_retraction,
    soo_residual,
)
from .harness import (
    ComparisonTable,
    CostFunctional,
    SampleSet,
    SimulationConfig,
    WorkerProcessError,
    compare_methods,
    run_study,
    simulate,
    uniform_limit_run,
)
from .integrators import (
    INTEGRATOR_IDS,
    IntegratorParameterError,
    StepFailureError,
    make_stepper,
    mu_retraction_adjusted,
    truncation_bound,
)
from .manifolds import MANIFOLD_NAMES, make_manifold
from .oracles import (
    HeatKernelParameterError,
    heat_expectation_s2,
    heat_expectation_s3,
    heat_kernel_values,
    laplacian_frame_oracle,
    sample_uniform,
    uniform_cost_estimate,
)
from .rng import RngStream

__all__ = [
    "COST_IDS",
    "ComparisonTable",
    "CostFunctional",
    "HeatKernelParameterError",
    "INTEGRATOR_IDS",
    "IntegratorParameterError",
    "MANIFOLD_NAMES",
    "ManifoldHandle",
    "OffManifoldError",
    "RngStream",
    "SampleSet",
    "SdeSpec",
    "SimulationConfig",
    "StepFailureError",
    "TangentRetraction",
    "WorkerProcessError",
    "brownian_sde",
    "brownian_soo",
    "check_metric_compatibility",
    "check_projection",
    "compare_methods",
    "dual_tangent_frame",
    "first_order_retraction",
    "heat_expectation_s2",
    "heat_expectation_s3",
    "heat_kernel_values",
    "laplace_beltrami",
    "laplace_drift_vector",
    "laplacian_frame_oracle",
    "make_cost",
    "make_manifold",
    "make_stepper",
    "mu_retraction_adjusted",
    "run_study",
    "sample_uniform",
    "second_order_retraction",
    "simulate",
    "soo_residual",
    "truncation_bound",
    "uniform_cost_estimate",
    "uniform_limit_run",
]

__version__ = "0.1.0"
