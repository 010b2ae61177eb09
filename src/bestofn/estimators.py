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
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import GaussianParams, _log_ndtr, std_normal_expected_max
from .errors import _MAX_N, DegeneratePoolError, InsufficientDataError, InvalidDataError
from .errors import _integer_arg

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

_TINY = float(np.finfo(float).tiny)  # a variance or sum of squares below it has lost digits


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

    Scores are held as two read-only float64 arrays of equal length, sorted
    here, once, worst to best in the pool's own direction ((validation, test)
    pairs ascending for maximize, descending for minimize), so no number
    computed from a pool depends on the order its records were given in.
    Scores must be finite. Pools are equal when their records, direction and
    metric name are; they are not hashable.
    """

    validation_scores: np.ndarray
    test_scores: np.ndarray
    direction: Direction = Direction.MAXIMIZE
    metric_name: str = "score"

    def __post_init__(self):
        direction = Direction(self.direction)
        v = np.asarray(self.validation_scores, dtype=float)
        t = np.asarray(self.test_scores, dtype=float)
        if v.ndim != 1 or v.shape != t.shape:
            raise InvalidDataError("validation and test must be equal-length 1-d arrays")
        if v.size == 0:
            raise InvalidDataError("result pool must contain at least one record")
        if not (np.isfinite(v).all() and np.isfinite(t).all()):
            i = int(np.flatnonzero(~(np.isfinite(v) & np.isfinite(t)))[0])
            pair = f"({float(v[i])}, {float(t[i])})"
            raise InvalidDataError(f"non-finite score in record {i}: {pair}")
        v, t = _worst_to_best(v, t, direction)
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "validation_scores", v)
        object.__setattr__(self, "test_scores", t)
        object.__setattr__(self, "direction", direction)

    def __eq__(self, other):
        if not isinstance(other, ResultPool):
            return NotImplemented
        return (
            self.direction is other.direction
            and self.metric_name == other.metric_name
            and np.array_equal(self.validation_scores, other.validation_scores)
            and np.array_equal(self.test_scores, other.test_scores)
        )

    def __reduce__(self):  # unpickled through the constructor: checked, sorted, read-only
        return type(self), (self.validation_scores, self.test_scores, self.direction,
                            self.metric_name)

    @property
    def m(self) -> int:
        return self.validation_scores.size

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """The pool as (validation, test) records, worst to best, built on each access."""
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
    """A plain ``ResultPool`` over arrays meeting its invariants (finite, read-only, worst to
    best), used as given. Build it by ``from_arrays``: perfbench counts pools there."""

    def __new__(cls, validation, test, direction, metric_name):
        pool = object.__new__(ResultPool)  # not a cls instance, so __init__ is skipped
        vars(pool).update(validation_scores=validation, test_scores=test, direction=direction,
                          metric_name=metric_name)
        return pool


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


def _take(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, order, -1)`` at flat positions, which numpy gathers two to
    three times as fast from a chunk of rows."""
    return a.reshape(-1)[order + np.arange(0, a.size, a.shape[-1]).reshape(*a.shape[:-1], 1)]


def _pair_order(vals: np.ndarray, tests: np.ndarray) -> np.ndarray:
    """``np.lexsort((tests, vals))`` along the last axis: a row of untied validations takes
    their argsort, the one order that sorts it, and a row with a validation tie is lexsorted."""
    order = np.argsort(vals)
    sorted_vals = _take(vals, order)
    tied = (sorted_vals[..., 1:] == sorted_vals[..., :-1]).any(axis=-1)
    if tied.any():
        order[tied] = np.lexsort((tests[tied], vals[tied]))
    return order


def _worst_to_best(vals: np.ndarray, tests: np.ndarray, direction: Direction) -> tuple:
    """Copies of the scores, each row's records worst to best in ``direction``: (validation,
    test) order, reversed for minimize; records equal as numbers keep their order or its reverse."""
    order = _pair_order(vals, tests)
    order = order[..., ::-1] if direction is Direction.MINIMIZE else order
    return _take(vals, order), _take(tests, order)


@lru_cache(maxsize=1)
def _rank_powers(m: int, n: int) -> np.ndarray:
    """The read-only table (j/m)**n, j = 0..m, of Boo(n)'s rank weights, for the last (m, n)."""
    power = (np.arange(m + 1) / m) ** n
    power.flags.writeable = False
    return power


def _boon_weighted_average(vals: np.ndarray, tests: np.ndarray, n: int) -> float:
    """Rank-weighted test average of records worst to best, in (validation, test) order or
    its reverse: tied-validation groups are summed in that one order, so the value is
    bit-identical for the records in any order. Either direction's worst-to-best pool takes
    the same weights, and negating both arrays would only negate the result. The weighted
    sum is a product sum, never a BLAS product, whose bits depend on its thread count."""
    m = vals.size
    # Tie-group boundaries: group g spans bounds[g]:bounds[g + 1].
    new_group = np.empty(m + 1, dtype=bool)
    new_group[0] = new_group[m] = True
    np.not_equal(vals[1:], vals[:-1], out=new_group[1:m])
    bounds = new_group.nonzero()[0]
    power = _rank_powers(m, n)[bounds]
    group_mean_test = np.add.reduceat(tests, bounds[:-1]) / (bounds[1:] - bounds[:-1])
    return float(((power[1:] - power[:-1]) * group_mean_test).sum())


def _tie_weights(vals: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Each record's Boo(n) weight in rows of records worst to best, ``power`` the rank-power
    table: a validation tie group [start, end) shares power[end] - power[start] equally."""
    rows, m = vals.shape
    j = np.arange(m)
    new = np.ones((rows, m + 1), dtype=bool)  # a group starts at j; one starts past the end
    np.not_equal(vals[:, 1:], vals[:, :-1], out=new[:, 1:m])
    start = np.maximum.accumulate(np.where(new[:, :m], j, 0), axis=1)
    end = np.minimum.accumulate(np.where(new[:, 1:], j + 1, m)[:, ::-1], axis=1)[:, ::-1]
    return (power[end] - power[start]) / (end - start)


def _sorted_boon(vals: np.ndarray, tests: np.ndarray, n: int) -> np.ndarray:
    """Non-parametric Boo(n) of each row of (vals, tests), its records worst to best: the
    row's tests weighed with the rank weights, tied validations with :func:`_tie_weights`.
    Rows are summed as products, never through BLAS, whose bits depend on the row count."""
    power = _rank_powers(vals.shape[1], n)
    out = (tests * np.diff(power)).sum(axis=1)
    ties = vals[:, 1:] == vals[:, :-1]
    if ties.any():  # most chunks hold none, and a row-wise any() costs more than this check
        tied = ties.any(axis=1)
        out[tied] = (tests[tied] * _tie_weights(vals[tied], power)).sum(axis=1)
    return out


def _boon_estimate(pool: ResultPool, n: int, value: float, kind: EstimatorKind) -> BoonEstimate:
    """A checked ``BoonEstimate`` built as ``_CheckedPool`` builds a pool, without the frozen
    dataclass ``__init__`` (an ``object.__setattr__`` per field): one per bootstrap resample."""
    if not math.isfinite(value):  # a sum or spread of scores near the float range's limits
        raise DegeneratePoolError(f"Boo({n}) overflows the float range")
    m = pool.m
    estimate = object.__new__(BoonEstimate)
    vars(estimate).update(n=n, m=m, value=value, estimator_kind=kind, extrapolative=m < n)
    return estimate


def boon_nonparametric(pool: ResultPool, n: int) -> BoonEstimate:
    """Plug-in best-out-of-n estimate from the empirical distribution.

    The result is a convex combination of the pool's test scores: weights
    are non-negative and sum to one, so the value always lies between the
    pool's extreme test scores. n = 1 gives the plain test mean.

    A pool smaller than n is allowed but flagged ``extrapolative`` (the
    CLI's flags column and report field): estimating best-of-n from fewer
    than n runs relies on the empirical tail more than the data supports.
    """
    _integer_arg(n, "n", 1, _MAX_N)
    value = _boon_weighted_average(pool.validation_scores, pool.test_scores, n)
    return _boon_estimate(pool, n, value, EstimatorKind.NONPARAMETRIC)


def _linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.quantile(values, qs)`` on finite data, bit for bit: the default
    "linear" method (Hyndman & Fan 1996, type 7) step by step, partitioning
    at numpy's own kth list, whose choice among tied -0.0 and 0.0 shows in
    the result. numpy builds that list with ``np.unique``, which imports
    ``numpy.ma``, a 10-15 ms cost on a command's first quantile."""
    a = np.array(values, dtype=float)
    last = a.size - 1
    virtual = [last * q for q in qs]
    lo = [-1 if v >= last else math.floor(v) for v in virtual]
    hi = [-1 if i == -1 else i + 1 for i in lo]
    a.partition(sorted({0, -1, *lo, *hi}))
    out = []
    for v, i, j in zip(virtual, lo, hi):
        gamma, x, y = v - i, float(a[i]), float(a[j])
        diff = y - x
        out.append(y - diff * (1 - gamma) if gamma >= 0.5 else x + diff * gamma)
    return out


def _rescaled(
    statistic: Callable[[np.ndarray], float],
    x: np.ndarray,
    lost: Callable[[float], bool] = lambda value: not math.isfinite(value),
) -> float:
    """``statistic(x)`` for a statistic that scales with its finite data, as a mean or standard
    deviation does; where that value is ``lost`` (by default, where it overflows, as a sum beyond
    the float range can), ``statistic(x / s) * s`` with s the largest magnitude in x."""
    with np.errstate(all="ignore"):
        value = float(statistic(x))
        if lost(value):
            scale = float(np.abs(x).max())
            value = float(statistic(x / scale)) * scale
    return value


def _std(x: np.ndarray) -> float:
    """Bessel-corrected standard deviation of x, rescaled where its square is below the normal
    range though x is not constant: there its squared deviations have underflowed."""
    return _rescaled(lambda y: y.std(ddof=1), x, lambda sd: sd * sd < _TINY and x.min() < x.max())


def _row_moments(vals: np.ndarray, tests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Pearson correlation, NaN where a sum of squares or their product is outside
    the normal range (one below it has lost digits), and its Bessel-corrected test variance."""
    m = vals.shape[1]
    vc = vals - vals.sum(axis=1, keepdims=True) / m  # the bits of mean(), at half its cost
    tc = tests - tests.sum(axis=1, keepdims=True) / m
    sxx, syy = (vc * vc).sum(axis=1), (tc * tc).sum(axis=1)
    product = sxx * syy
    rho = (vc * tc).sum(axis=1) / np.sqrt(product)
    rho[~((np.minimum(sxx, syy) >= _TINY) & (_TINY <= product) & (product < math.inf))] = math.nan
    return rho, syy / (m - 1)


def _rho_and_sd(vals: np.ndarray, tests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Pearson correlation, NaN for a row without validation or test spread, and its
    Bessel-corrected test SD. A row whose correlation is NaN or test variance below the normal
    range takes it from its columns divided by their largest magnitudes, which leaves the
    correlation as it is and scales the SD, as ``_std`` does."""
    rho, var = _row_moments(vals, tests)
    sd = np.sqrt(var)
    # Equal scores, not a zero sum of squares, as in _check_spread.
    degenerate = (vals.min(axis=1) == vals.max(axis=1)) | (tests.min(axis=1) == tests.max(axis=1))
    rescale = (~np.isfinite(rho) | (var < _TINY)) & ~degenerate
    if rescale.any():
        v, t = (x[rescale] / np.abs(x[rescale]).max(axis=1, keepdims=True) for x in (vals, tests))
        rho[rescale], t_var = _row_moments(v, t)
        t_sd = np.sqrt(t_var) * np.abs(tests[rescale]).max(axis=1)
        sd[rescale] = np.where(var[rescale] < _TINY, t_sd, sd[rescale])
    rho[degenerate] = math.nan
    return rho, sd


def _gaussian_boon(vals: np.ndarray, tests: np.ndarray, e_ns: Sequence[float]) -> np.ndarray:
    """Parametric Boo(n) of each row of (vals, tests) at each signed E_n of ``e_ns``,
    mu_test + rho * sigma_test * E_n with the estimates of ``_rho_and_sd``, as a
    ``(rows, len(e_ns))`` block, NaN for a row without validation or test spread. The
    moments are computed once and read by every E_n."""
    with np.errstate(all="ignore"):
        rho, sd = _rho_and_sd(vals, tests)
        return tests.mean(axis=1)[:, None] + (rho * sd)[:, None] * np.asarray(e_ns)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of x and y, one row of ``_rho_and_sd``."""
    with np.errstate(all="ignore"):
        rho = float(_rho_and_sd(x[None], y[None])[0][0])
    if not math.isfinite(rho):
        raise DegeneratePoolError("zero variance makes the correlation undefined")
    return rho


def _check_spread(vals: np.ndarray, tests: np.ndarray) -> None:
    # Equal scores, not a zero np.std: the mean of equal values can round
    # away from them and leave a spurious nonzero deviation.
    if vals.min() == vals.max():
        raise DegeneratePoolError("validation scores have zero variance")
    if tests.min() == tests.max():
        raise DegeneratePoolError("test scores have zero variance")


def fit_gaussian_params(pool: ResultPool) -> GaussianParams:
    """Fit bivariate-normal parameters to a pool as given (no direction
    handling): sample means, Bessel-corrected stds, Pearson correlation."""
    if pool.m < 3:
        raise InsufficientDataError(f"need at least 3 records to fit, got m={pool.m}")
    vals, tests = pool.validation_scores, pool.test_scores
    _check_spread(vals, tests)
    with np.errstate(all="ignore"):  # an overflowing moment fails GaussianParams' checks
        return GaussianParams(
            mu_val=float(vals.mean()),
            mu_test=float(tests.mean()),
            sigma_val=_std(vals),
            sigma_test=_std(tests),
            rho=max(-1.0, min(1.0, _pearson(vals, tests))),
        )


def _signed_expected_max(n: int, direction: Direction) -> float:
    """E_n, negated for minimize: the best of n losses lies below their mean."""
    e_n = std_normal_expected_max(n)
    return -e_n if direction is Direction.MINIMIZE else e_n


def boon_parametric_gaussian(pool: ResultPool, n: int) -> BoonEstimate:
    """Best-out-of-n estimate assuming a bivariate-normal performance
    distribution: mu_test + rho * sigma_test * E_n(N(0,1)) with the
    parameters replaced by their standard sample estimates, and E_n
    negated for a minimize pool.

    Lower variance than the non-parametric estimator when the Gaussian
    assumption holds; biased when it does not.
    """
    _integer_arg(n, "n", 1, _MAX_N)
    if pool.m < 3:
        raise InsufficientDataError(f"parametric estimation needs m >= 3 records, got m={pool.m}")
    vals, tests = pool.validation_scores, pool.test_scores
    _check_spread(vals, tests)
    # One row of the bootstrap kernel; an overflowing moment fails _boon_estimate's check.
    value = _gaussian_boon(vals[None], tests[None], [_signed_expected_max(n, pool.direction)])
    return _boon_estimate(pool, n, float(value[0, 0]), EstimatorKind.GAUSSIAN_PARAMETRIC)


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
        _integer_arg(self.n, "n", 1, _MAX_N)
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
    mean_test = _rescaled(np.mean, tests)
    std_test = _rescaled(_std, tests) if m >= 2 else None
    iqr_test = None
    if m >= 2:
        iqr_test = _linear_quantiles(tests, [0.75])[0] - _linear_quantiles(tests, [0.25])[0]
    range_test = (float(tests.min()), float(tests.max()))

    spearman = pearson = None
    if m >= 3 and vals.min() < vals.max() and tests.min() < tests.max():
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
    value 0.752 for this composite case. A NaN or infinite value raises
    :class:`InvalidDataError`; fewer than 8 values, equal values and a spread
    beyond the float range raise :class:`InsufficientDataError`.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.isfinite(x).all():
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise InvalidDataError(f"non-finite value at index {i}: {float(x[i])}")
    m = x.size
    if m < 8:
        raise InsufficientDataError(f"need at least 8 values, got {m}")
    # Equal values, as in _check_spread: their std can round to nonzero.
    if x.min() == x.max():
        raise InsufficientDataError("zero variance; normality check is undefined")
    sd = _std(x)
    if not math.isfinite(sd):  # NaN when the mean overflows too
        raise InsufficientDataError("the spread overflows; normality check is undefined")
    z = np.sort((x - x.mean()) / sd)
    i = np.arange(1, m + 1)
    # log-space tails keep the terms finite for extreme standardized values.
    log_cdf = _log_ndtr(z)
    log_sf = _log_ndtr(-z)
    a2 = -m - float(np.mean((2 * i - 1) * (log_cdf + log_sf[::-1])))
    corrected = a2 * (1.0 + 4.0 / m - 25.0 / (m * m))
    return NormalityResult(statistic=corrected, reject_at_5pct=corrected > _AD_CRITICAL_5PCT)


def best_single_model(pool: ResultPool) -> float:
    """Test score of the pool's best-validation record, its last one.

    This is the statistic behind conventional "best single model"
    reporting. Validation ties are broken toward the better test score, as
    the pool orders its records, so the statistic is a deterministic
    function of the pool.
    """
    return float(pool.test_scores[-1])
