"""Deterministic scenario-tree solver for backward stochastic variational
inequalities with time-delayed generators."""

from .lattice import (
    AdaptedProcess,
    ScenarioTree,
    TimeGrid,
    TreeSizeError,
    build_tree,
    level_moments,
)
from .convex import (
    Custom1D,
    IndicatorBox,
    OneNorm,
    Quadratic,
    YosidaTriple,
    Zero,
    prox,
    resolvent,
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
    level_drift,
    linear_scalar,
    lipschitz_probe_audit,
    past_z_rows,
)
from .solver import (
    BsviResult,
    NonFiniteIterate,
    PicardDiagnostics,
    PicardNonConvergence,
    Solution,
    SolverConfig,
    WellposednessError,
    WellposednessReport,
    check_wellposedness,
    picard_solve,
    prox_step_solve,
    solve_bsvi,
)
from .analysis import (
    BoundAudit,
    EpsilonTableRow,
    RateFit,
    ResidualReport,
    ScheduleAudits,
    StabilityAudit,
    apriori_audit,
    epsilon_rate_fit,
    path_norm,
    schedule_audits,
    solution_residuals,
    stability_audit,
    yosida_audit,
)

__version__ = "0.1.0"
