"""Empirical best-out-of-n estimation from pools of (validation, test) runs.

Two estimators are provided. The non-parametric one plugs the empirical
distribution into the discrete expected-maximum formula, which reduces to a
rank-weighted average of test scores: the j-th worst-validation record gets
weight (j/m)^n - ((j-1)/m)^n, and records tied on validation split their
combined weight equally. The parametric one assumes a bivariate-normal
performance distribution and evaluates mu_test + rho * sigma_test * E_n
with standard sample estimates (Bessel-corrected standard deviations,
Pearson correlation).

Descriptive statistics used in result reporting (mean, std, IQR, range,
Spearman/Pearson validation-test correlation, Anderson-Darling normality
check) live here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import GaussianParams, _log_ndtr, std_normal_expected_max
from .errors import DegeneratePoolError, InsufficientDataError, InvalidDataError, _integer_arg

__all__ = [
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
]

# 5% critical value for the Anderson-Darling statistic when mean and
# variance are estimated from the data, applied to the corrected statistic
# A2 * (1 + 4/m - 25/m^2).
_AD_CRITICAL_5PCT = 0.752

# Pools up to this size are sorted by np.lexsort, larger ones by
# _pair_order's argsorts. Measured on bootstrap resamples of untied and
# 2-decimal validations (2-vCPU Xeon VM, numpy 2.4): lexsort takes 26 against
# 51 µs at m=500, 65-78 against 77-90 µs at m=800, 91-92 against 74-76 µs at
# m=900 and 115-120 against 78-82 µs at m=1000.
_LEXSORT_MAX_SIZE = 850


class Direction(str, enum.Enum):
    """Whether a better score is a larger one (accuracy) or smaller (loss)."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class EstimatorKind(str, enum.Enum):
    NONPARAMETRIC = "nonparametric"
    GAUSSIAN_PARAMETRIC = "gaussian_parametric"


class RunRecord(NamedTuple):
    """One training run: validation score and the matching test score."""

    validation: float
    test: float


@dataclass(frozen=True, eq=False)
class ResultPool:
    """The m (validation, test) pairs collected for one architecture.

    Scores are held as two read-only float64 arrays of equal length; row
    order carries no meaning, as every estimator in this package is
    permutation-invariant. Scores must be finite. Two pools are equal when
    their scores, direction and metric name are; pools are not hashable.
    """

    validation_scores: np.ndarray
    test_scores: np.ndarray
    direction: Direction = Direction.MAXIMIZE
    metric_name: str = "score"

    def __post_init__(self):
        v = np.array(self.validation_scores, dtype=float)
        t = np.array(self.test_scores, dtype=float)
        if v.ndim != 1 or v.shape != t.shape:
            raise InvalidDataError("validation and test must be equal-length 1-d arrays")
        if v.size == 0:
            raise InvalidDataError("result pool must contain at least one record")
        if not (np.isfinite(v).all() and np.isfinite(t).all()):
            i = int(np.flatnonzero(~(np.isfinite(v) & np.isfinite(t)))[0])
            raise InvalidDataError(f"non-finite score in record {i}: ({v[i]!r}, {t[i]!r})")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "validation_scores", v)
        object.__setattr__(self, "test_scores", t)
        object.__setattr__(self, "direction", Direction(self.direction))

    def __eq__(self, other):
        if not isinstance(other, ResultPool):
            return NotImplemented
        return (
            self.direction is other.direction
            and self.metric_name == other.metric_name
            and np.array_equal(self.validation_scores, other.validation_scores)
            and np.array_equal(self.test_scores, other.test_scores)
        )

    @property
    def m(self) -> int:
        return self.validation_scores.size

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """The pool as (validation, test) records, built on each access."""
        return tuple(map(RunRecord, self.validation_scores.tolist(), self.test_scores.tolist()))

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[float, float]],
        direction: Direction | str = Direction.MAXIMIZE,
        metric_name: str = "score",
    ) -> "ResultPool":
        rows = np.array([(v, t) for v, t in pairs], dtype=float).reshape(-1, 2)
        return cls(rows[:, 0], rows[:, 1], direction, metric_name)

    @classmethod
    def from_arrays(
        cls,
        validation: np.ndarray,
        test: np.ndarray,
        direction: Direction | str = Direction.MAXIMIZE,
        metric_name: str = "score",
    ) -> "ResultPool":
        """Build a pool from two equal-length arrays (copied)."""
        return cls(validation, test, direction, metric_name)


class _CheckedPool(ResultPool):
    """A pool over arrays already meeting ``ResultPool``'s invariants, used as
    given: no copy, no check. Build it by ``from_arrays``: perfbench counts pools there."""

    def __post_init__(self):
        pass


@dataclass(frozen=True)
class BoonEstimate:
    """One best-out-of-n estimate, tagged with what produced it.

    ``extrapolative`` marks estimates where n exceeds the pool size m; the
    formula stays well defined but the estimate leans on the empirical
    tail beyond what the sample supports.
    """

    n: int
    m: int
    value: float
    estimator_kind: EstimatorKind
    extrapolative: bool = False


@dataclass(frozen=True)
class PoolSummary:
    """Descriptive statistics of a pool; entries are None below their
    minimum sample size (std/IQR need m >= 2, correlations m >= 3)."""

    m: int
    mean_test: float
    std_test: float | None
    iqr_test: float | None
    range_test: tuple[float, float]
    spearman_val_test: float | None
    pearson_val_test: float | None


class NormalityResult(NamedTuple):
    statistic: float
    reject_at_5pct: bool


def _oriented_scores(pool: ResultPool) -> tuple[np.ndarray, np.ndarray, float]:
    """Scores negated, if needed, so "best" always means maximal.

    Returns (validation, test, sign); multiply maximize-convention results
    by sign to return to the pool's own convention.
    """
    if pool.direction is Direction.MINIMIZE:
        return -pool.validation_scores, -pool.test_scores, -1.0
    return pool.validation_scores, pool.test_scores, 1.0


def _tie_groups(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) index of each run of equal values."""
    start = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))
    return start, np.concatenate((start[1:], [sorted_values.size]))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, with tied values sharing their average rank."""
    order = np.argsort(x, kind="stable")
    start, end = _tie_groups(x[order])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((start + end + 1) / 2.0, end - start)
    return ranks


def _pair_order(vals: np.ndarray, tests: np.ndarray) -> np.ndarray:
    """An order sorting the records by (validation, test): the same sorted
    pairs as ``np.lexsort((tests, vals))``, though equal pairs may come in
    another order.

    Large pools avoid lexsort's two mergesorts: argsort the validations,
    number their tie groups and, if any, sort the records by test and then
    stably by group id (a radix sort when the ids fit 16 bits).
    """
    m = vals.size
    if m <= _LEXSORT_MAX_SIZE:
        return np.lexsort((tests, vals))
    order = np.argsort(vals)
    sorted_vals = vals[order]
    new_group = sorted_vals[1:] != sorted_vals[:-1]
    if new_group.all():
        return order
    ids = np.cumsum(new_group)
    group = np.empty(m, dtype=np.uint16 if ids[-1] < 1 << 16 else np.intp)
    group[order[0]] = 0
    group[order[1:]] = ids
    by_test = np.argsort(tests)
    return by_test[np.argsort(group[by_test], kind="stable")]


def _boon_weighted_average(vals: np.ndarray, tests: np.ndarray, n: int) -> float:
    """Rank-weighted test average over validation order (maximize convention).

    Sorting is by (validation, test) so tied-validation groups are summed in
    a canonical order and the result is bit-identical under record shuffles.
    """
    m = vals.size
    order = _pair_order(vals, tests)
    sv = vals[order]
    st = tests[order]
    # Tie-group boundaries: group g spans bounds[g]:bounds[g + 1].
    bounds = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1], [True])))
    power = (bounds / m) ** n
    group_mean_test = np.add.reduceat(st, bounds[:-1]) / (bounds[1:] - bounds[:-1])
    return float(np.dot(power[1:] - power[:-1], group_mean_test))


def boon_nonparametric(pool: ResultPool, n: int) -> BoonEstimate:
    """Plug-in best-out-of-n estimate from the empirical distribution.

    The result is a convex combination of the pool's test scores: weights
    are non-negative and sum to one, so the value always lies between the
    pool's extreme test scores. n = 1 gives the plain test mean.

    A pool smaller than n is allowed but flagged ``extrapolative`` (the
    CLI's flags column and report field): estimating best-of-n from fewer
    than n runs relies on the empirical tail more than the data supports.
    """
    _integer_arg(n, "n")
    vals, tests, sign = _oriented_scores(pool)
    value = sign * _boon_weighted_average(vals, tests, n)
    return BoonEstimate(
        n=n,
        m=pool.m,
        value=value,
        estimator_kind=EstimatorKind.NONPARAMETRIC,
        extrapolative=pool.m < n,
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        raise DegeneratePoolError("zero variance makes the correlation undefined")
    return float(np.dot(xc, yc) / denom)


def _check_spread(vals: np.ndarray, tests: np.ndarray) -> None:
    # Equal scores, not a zero np.std: the mean of equal values can round
    # away from them and leave a spurious nonzero deviation.
    if np.ptp(vals) == 0.0:
        raise DegeneratePoolError("validation scores have zero variance")
    if np.ptp(tests) == 0.0:
        raise DegeneratePoolError("test scores have zero variance")


def fit_gaussian_params(pool: ResultPool) -> GaussianParams:
    """Fit bivariate-normal parameters to a pool as given (no direction
    handling): sample means, Bessel-corrected stds, Pearson correlation."""
    if pool.m < 3:
        raise InsufficientDataError(f"need at least 3 records to fit, got m={pool.m}")
    vals = pool.validation_scores
    tests = pool.test_scores
    _check_spread(vals, tests)
    return GaussianParams(
        mu_val=float(vals.mean()),
        mu_test=float(tests.mean()),
        sigma_val=float(vals.std(ddof=1)),
        sigma_test=float(tests.std(ddof=1)),
        rho=max(-1.0, min(1.0, _pearson(vals, tests))),
    )


def boon_parametric_gaussian(pool: ResultPool, n: int) -> BoonEstimate:
    """Best-out-of-n estimate assuming a bivariate-normal performance
    distribution: mu_test + rho * sigma_test * E_n(N(0,1)) with the
    parameters replaced by their standard sample estimates.

    Lower variance than the non-parametric estimator when the Gaussian
    assumption holds; biased when it does not.
    """
    _integer_arg(n, "n")
    if pool.m < 3:
        raise InsufficientDataError(
            f"parametric estimation needs m >= 3 records, got m={pool.m}"
        )
    vals, tests, sign = _oriented_scores(pool)
    _check_spread(vals, tests)
    value = sign * _parametric_value(vals, tests, n)
    return BoonEstimate(
        n=n,
        m=pool.m,
        value=value,
        estimator_kind=EstimatorKind.GAUSSIAN_PARAMETRIC,
        extrapolative=pool.m < n,
    )


def _parametric_value(vals: np.ndarray, tests: np.ndarray, n: int) -> float:
    rho = _pearson(vals, tests)
    return float(tests.mean()) + rho * float(tests.std(ddof=1)) * std_normal_expected_max(n)


@dataclass(frozen=True)
class BoonStatistic:
    """Boo(n) as a resampling statistic: ``BoonStatistic(n, kind)(pool)``
    is the value of the chosen estimator on the pool.

    The resampling routines recognise it and evaluate a whole block of
    resamples as one array instead of calling it once per resample; any
    other callable taking a pool works too, one resample at a time.
    """

    n: int
    kind: EstimatorKind = EstimatorKind.NONPARAMETRIC

    def __post_init__(self):
        _integer_arg(self.n, "n")
        object.__setattr__(self, "kind", EstimatorKind(self.kind))

    def __call__(self, pool: ResultPool) -> float:
        if self.kind is EstimatorKind.GAUSSIAN_PARAMETRIC:
            return boon_parametric_gaussian(pool, self.n).value
        return boon_nonparametric(pool, self.n).value


def summarize(pool: ResultPool) -> PoolSummary:
    """Descriptive statistics of a pool's test scores plus the
    validation-test association.

    IQR uses linear-interpolation quantiles; Spearman uses average ranks
    for ties. Statistics below their minimum sample size (or undefined for
    zero-variance data) come back as None rather than failing.
    """
    tests = pool.test_scores
    vals = pool.validation_scores
    m = pool.m
    mean_test = float(tests.mean())
    std_test = float(tests.std(ddof=1)) if m >= 2 else None
    iqr_test = float(np.quantile(tests, 0.75) - np.quantile(tests, 0.25)) if m >= 2 else None
    range_test = (float(tests.min()), float(tests.max()))

    spearman = pearson = None
    if m >= 3 and np.ptp(vals) > 0.0 and np.ptp(tests) > 0.0:
        spearman = _pearson(_average_ranks(vals), _average_ranks(tests))
        pearson = _pearson(vals, tests)
    return PoolSummary(
        m=m,
        mean_test=mean_test,
        std_test=std_test,
        iqr_test=iqr_test,
        range_test=range_test,
        spearman_val_test=spearman,
        pearson_val_test=pearson,
    )


def anderson_darling_normality(values: Sequence[float]) -> NormalityResult:
    """Anderson-Darling check that a sample is consistent with a Gaussian.

    Mean and variance are estimated from the data; the returned statistic
    is A2 * (1 + 4/m - 25/m^2) and is compared against the 5% critical
    value 0.752 for this composite case.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    m = x.size
    if m < 8:
        raise InsufficientDataError(f"need at least 8 values, got {m}")
    # Equal values, as in _check_spread: their std can round to nonzero.
    if np.ptp(x) == 0.0:
        raise InsufficientDataError("zero variance; normality check is undefined")
    sd = float(x.std(ddof=1))
    z = np.sort((x - x.mean()) / sd)
    i = np.arange(1, m + 1)
    # log-space tails keep the terms finite for extreme standardized values.
    log_cdf = _log_ndtr(z)
    log_sf = _log_ndtr(-z)
    a2 = -m - float(np.mean((2 * i - 1) * (log_cdf + log_sf[::-1])))
    corrected = a2 * (1.0 + 4.0 / m - 25.0 / (m * m))
    return NormalityResult(statistic=corrected, reject_at_5pct=corrected > _AD_CRITICAL_5PCT)


def best_single_model(pool: ResultPool) -> float:
    """Test score of the pool's best-validation record.

    This is the statistic behind conventional "best single model"
    reporting. Validation ties are broken toward the better test score so
    the statistic is a deterministic function of the pool.
    """
    vals, tests, sign = _oriented_scores(pool)
    best_val = vals.max()
    return sign * float(tests[vals == best_val].max())
