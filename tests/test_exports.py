"""The package's public names: each module lists its own, and ``bestofn``
republishes exactly those."""

import bestofn
from bestofn import distributions, errors, estimators, resampling

PUBLIC_NAMES = [
    "__version__",
    # distributions
    "GaussianParams",
    "std_normal_expected_max",
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
    "InvalidDataError",
    "InsufficientDataError",
    "DegeneratePoolError",
    "ResamplingDegenerateError",
    "PoolFileError",
]
MODULES = (distributions, estimators, resampling, errors)


def test_public_names_are_the_pinned_list_in_its_order():
    assert bestofn.__all__ == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES[1:]:
        (module,) = [m for m in MODULES if name in m.__all__]
        assert getattr(bestofn, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from bestofn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)  # no np, math or private name
