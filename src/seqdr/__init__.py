"""seqdr: anytime-valid confidence sequences for means and doubly
robust treatment effects on streaming data."""

from .ate import (
    AteEngine,
    EmitRow,
    EngineConfig,
    Observation,
    UnadjustedEstimator,
    default_boundary,
    eval_influence,
    general_cs,
)
from .boundaries import (
    BoundarySpec,
    CsPoint,
    MartingaleState,
    fixed_ci_radius,
    mixture_martingale,
    mixture_radius,
    non_iid_radius,
    norm_quantile,
    tune_rho,
)
from .io import OUTPUT_HEADER, ParseError, format_row, parse_observation
from .numerics import (
    DataError,
    DomainError,
    PsdMatrix,
    RunningMoments,
    SeedSpec,
    lambert_w,
)
from .nuisance import (
    LearnerSpec,
    NuisanceFit,
    fit_ensemble,
    fit_outcome,
    fit_propensity,
)
from .simlab import (
    MonteCarloReport,
    RepSummary,
    SimScenario,
    generate_stream,
    mu_star,
    run_ate_miscoverage,
    run_ate_study,
    run_miscoverage,
    width_table,
)
from .splitting import EVAL, TRAIN, NotReady, SplitLedger

__version__ = "0.1.0"

__all__ = [
    "AteEngine",
    "BoundarySpec",
    "CsPoint",
    "DataError",
    "DomainError",
    "EmitRow",
    "EngineConfig",
    "EVAL",
    "LearnerSpec",
    "MartingaleState",
    "MonteCarloReport",
    "NotReady",
    "NuisanceFit",
    "Observation",
    "OUTPUT_HEADER",
    "ParseError",
    "PsdMatrix",
    "RepSummary",
    "RunningMoments",
    "SeedSpec",
    "SimScenario",
    "SplitLedger",
    "TRAIN",
    "UnadjustedEstimator",
    "default_boundary",
    "eval_influence",
    "fit_ensemble",
    "fit_outcome",
    "fit_propensity",
    "fixed_ci_radius",
    "format_row",
    "general_cs",
    "generate_stream",
    "lambert_w",
    "mixture_martingale",
    "mixture_radius",
    "mu_star",
    "non_iid_radius",
    "norm_quantile",
    "parse_observation",
    "run_ate_miscoverage",
    "run_ate_study",
    "run_miscoverage",
    "tune_rho",
    "width_table",
]
