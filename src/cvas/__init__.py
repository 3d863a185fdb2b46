"""Coverage-validity-aware linear surrogates and robust recourse.

Fits linear surrogates of a black-box classifier's local decision
boundary that balance coverage of the favorable class against validity
for the unfavorable one, hardens them against covariance shift via
divergence ambiguity sets, and generates low-cost recourses evaluated
against current and retrained future models.
"""

from .blackbox import (
    MlpModel,
    TrainConfig,
    generate_synthetic,
    load_model,
    predict,
    save_model,
    simulate_future_models,
    train_mlp,
)
from .errors import (
    BadLabelValue,
    CvasError,
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    IdenticalMeans,
    NoActionableRecourse,
    NonFiniteInput,
    NoOppositeClassPrototypes,
    SchemaMismatch,
    SingleClassData,
    SingularCovariance,
    SolverDidNotConverge,
    ZeroSlope,
)
from .evalharness import (
    EvalConfig,
    EvalReport,
    EvalRow,
    local_fidelity,
    sensitivity,
    sweep,
    validity_metrics,
)
from .moments import (
    ClassMoments,
    estimate_moments,
)
from .recourse import (
    ActionSpec,
    RecourseResult,
    actionable_recourse,
    default_action_grids,
    fit_surrogate,
    generate_recourse,
    l1_projection,
)
from .sampler import (
    BoundarySample,
    SamplerConfig,
    find_boundary_point,
    max_pairwise_distance,
    sample_ball,
    synthesize,
)
from .surrogate import (
    Divergence,
    Surrogate,
    coverage_validity,
    halfspace_distance,
    lambert_w_minus1,
    optimal_mean,
    solve_cvas,
    tau,
    worst_case_misclassification,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "BadLabelValue",
    "BoundarySample",
    "ClassMoments",
    "CvasError",
    "DegenerateSample",
    "DimensionMismatch",
    "Divergence",
    "DomainError",
    "EmptyInput",
    "EvalConfig",
    "EvalReport",
    "EvalRow",
    "IdenticalMeans",
    "MlpModel",
    "NoActionableRecourse",
    "NoOppositeClassPrototypes",
    "NonFiniteInput",
    "RecourseResult",
    "SamplerConfig",
    "SchemaMismatch",
    "SingleClassData",
    "SingularCovariance",
    "SolverDidNotConverge",
    "Surrogate",
    "TrainConfig",
    "ZeroSlope",
    "actionable_recourse",
    "coverage_validity",
    "default_action_grids",
    "estimate_moments",
    "find_boundary_point",
    "fit_surrogate",
    "generate_recourse",
    "generate_synthetic",
    "halfspace_distance",
    "l1_projection",
    "lambert_w_minus1",
    "load_model",
    "local_fidelity",
    "max_pairwise_distance",
    "optimal_mean",
    "predict",
    "sample_ball",
    "save_model",
    "sensitivity",
    "simulate_future_models",
    "solve_cvas",
    "sweep",
    "synthesize",
    "tau",
    "train_mlp",
    "validity_metrics",
    "worst_case_misclassification",
]
