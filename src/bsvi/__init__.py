"""Deterministic scenario-tree solver for backward stochastic variational
inequalities with time-delayed generators."""

from .lattice import (
    AdaptedProcess,
    ScenarioTree,
    TimeGrid,
    TreeSizeError,
    build_tree,
    conditional_expectation,
    history_value,
    level_moments,
    segment_accessors,
    z_projection,
)
from .convex import (
    Custom1D,
    IndicatorBox,
    OneNorm,
    Quadratic,
    YosidaTriple,
    Zero,
    eval_phi,
    moreau,
    prox,
    resolvent_step,
    subgradient_check,
    yosida_grad,
    yosida_triple,
)
from .generators import (
    CustomGenerator,
    DelayedZ,
    Dirac,
    DiscreteMixture,
    LinearInstant,
    MovingAverageZ,
    RunningIntegralZ,
    UniformPast,
    ZeroGen,
    delayed_quadrature,
    eval_generator,
    generator_bound_diagnostic,
    level_drift,
    linear_scalar,
    lipschitz_probe_audit,
)
from .solver import (
    BsviResult,
    EpsilonTableRow,
    NonFiniteIterate,
    PicardDiagnostics,
    PicardNonConvergence,
    Solution,
    SolverConfig,
    WellposednessError,
    WellposednessReport,
    backward_pass,
    check_wellposedness,
    picard_solve,
    prox_step_solve,
    solve_bsvi,
    solve_penalized,
)
from .analysis import (
    BoundAudit,
    NormReport,
    RateFit,
    ResidualReport,
    StabilityAudit,
    apriori_audit,
    epsilon_rate_fit,
    path_norms,
    solution_residuals,
    stability_audit,
    yosida_audit,
)

__version__ = "0.1.0"
