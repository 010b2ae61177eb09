"""Expected best-out-of-n performance estimation for stochastic training runs.

Training the same architecture twice gives two different scores, and the
best score out of an unreported number of runs is not a comparable quantity.
This package computes the expected test performance of the best-validation
model out of n runs, normalized to a stated n: exactly for known score
distributions, empirically from pools of (validation, test) results, and
with resampling-based confidence intervals throughout.
"""

from .distributions import (
    ContinuousDistribution,
    DiscreteDistribution,
    GaussianParams,
    expected_max_continuous,
    expected_max_discrete,
    gaussian_boon_single,
    gaussian_boon_valtest,
    normal,
    standard_normal,
    std_normal_expected_max,
    uniform,
)
from .errors import (
    BestOfNError,
    DegeneratePoolError,
    InsufficientDataError,
    InvalidDataError,
    InvalidDistributionError,
    PoolFileError,
    ResamplingDegenerateError,
)
from .estimators import (
    BoonEstimate,
    BoonStatistic,
    Direction,
    EstimatorKind,
    NormalityResult,
    PoolSummary,
    ResultPool,
    RunRecord,
    anderson_darling_normality,
    best_single_model,
    boon_nonparametric,
    boon_parametric_gaussian,
    fit_gaussian_params,
    summarize,
)
from .resampling import (
    CIMethod,
    ComparisonResult,
    ConfidenceInterval,
    CurvePoint,
    ResamplingConfig,
    best_of_m_curve,
    bootstrap_ci,
    compare_architectures,
    monte_carlo_ci_gaussian,
    smoothed_bootstrap_ci,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "ContinuousDistribution",
    "DiscreteDistribution",
    "GaussianParams",
    "standard_normal",
    "normal",
    "uniform",
    "std_normal_expected_max",
    "expected_max_continuous",
    "expected_max_discrete",
    "gaussian_boon_single",
    "gaussian_boon_valtest",
    # estimators
    "Direction",
    "RunRecord",
    "ResultPool",
    "EstimatorKind",
    "BoonEstimate",
    "BoonStatistic",
    "PoolSummary",
    "NormalityResult",
    "boon_nonparametric",
    "boon_parametric_gaussian",
    "fit_gaussian_params",
    "summarize",
    "anderson_darling_normality",
    "best_single_model",
    # resampling
    "ResamplingConfig",
    "CIMethod",
    "ConfidenceInterval",
    "CurvePoint",
    "ComparisonResult",
    "bootstrap_ci",
    "smoothed_bootstrap_ci",
    "monte_carlo_ci_gaussian",
    "best_of_m_curve",
    "compare_architectures",
    # errors
    "BestOfNError",
    "InvalidDistributionError",
    "InvalidDataError",
    "InsufficientDataError",
    "DegeneratePoolError",
    "ResamplingDegenerateError",
    "PoolFileError",
]
