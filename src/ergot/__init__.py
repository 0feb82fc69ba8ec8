"""Discrete optimal transport under linear restrictions, with the machinery
to decompose restricted problems along ergodic components and to verify the
two-stage and boundary-metric identities numerically."""

from .core import (
    TAU_LP,
    TAU_MASS,
    TAU_METRIC,
    TAU_RANK,
    TAU_THM,
    ConstraintSet,
    CostMatrix,
    ErgodicDecomposition,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    Measure,
    MissingProductStructureError,
    NotFeasibleError,
    NotGeometricError,
    NotInSimplexError,
    ProjectionNotFullError,
    SimplexSpec,
    StochKernel,
    TransientMassError,
    TransportPlan,
    full_simplex,
    invariant_simplex,
    inverse_perm,
    pushforward,
    stationary_simplex,
    transpose_plan,
    validate,
)
from .lp import (
    LpProblem,
    LpSolution,
    VertexCapExceededError,
    enumerate_vertices,
    solve_lp,
    transport_simplex,
)
from .ergodic import (
    KernelCheck,
    OrbitPartition,
    averaging_kernel,
    barycenter,
    check_ergodic_kernel,
    decompose_measure,
    membership_violation,
    orbit_decompose,
    simplex_components,
    stationary_components,
)
from .restriction import (
    CheckReport,
    LinearRestriction,
    check_coherency,
    check_geometric,
    check_weak_regularity,
    invariance_restriction,
    no_restriction,
    plan_violations,
    product_atoms,
    stationarity_restriction,
    subgroup_restriction,
)
from .transport import (
    BoundaryMetricMatrix,
    OtResult,
    PlanDecomposition,
    boundary_metric,
    component_weights,
    decompose_plan,
    glue_plans,
    lifted_metric,
    solve_constrained_ot,
    solve_ot,
    wasserstein,
)
from .verify import (
    DecompositionReport,
    GeneratedInstance,
    InstanceSpec,
    MetricReport,
    build_qopt,
    generate_instance,
    verify_decomposition,
    sample_member_pairs,
    verify_metric_decomposition,
)

__version__ = "0.1.0"
