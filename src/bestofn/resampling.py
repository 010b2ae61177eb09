"""Resampling-based uncertainty for best-out-of-n estimates.

Percentile bootstrap, Gaussian-kernel smoothed bootstrap, parametric Monte
Carlo intervals, expected-best curves over the number of experiments, and
two-pool comparison through the interval on the estimate difference.

Determinism contract (stream version 7): every routine draws its
replicates through one engine, in chunks of ``max(1, 2**14 // size)``
replicates of ``size`` records, or, for a block vectorised over the chunk
(the count kernel, Gaussian Boo(n), compare and the Gaussian Monte Carlo
kind), of at least ``min(8, 2**16 // size)``. Chunk k takes every draw
from its own stream, split off (seed, *key, k) by numpy SeedSequence spawn
keys: first the chunk's whole block of draws, then, in row order, a fresh
draw for each row whose statistic failed. Bootstrap, compare and Monte
Carlo runs have an empty key. Boo(n) bootstraps of one estimator at
several n (the list of a ``boon --n`` command) share one run: each
chunk's block has a column per n, so every n reads the same draws. The n
are taken in groups of
max(1, 2**21 // max(replicates, resample size + 1)), each group one run of
the same streams, so a run holds at most max(replicates, 2**21) replicate
values. Each n's interval is bit-identical to its own run's unless a row
fails at one n of its group and not at another: the row is redrawn whole,
and only scores near the top of the float range can cause that. A Monte
Carlo run simulates pools of m records: a Gaussian-kind chunk draws a
(rows, m, 2) standard normal block, a non-parametric one a (rows, m) block
of standardised validations and then one test residual per row. A curve
makes two runs, keyed (0,) for its samples and (1,) for its smoothed band,
and each sample is one nested sequence of records, drawn with replacement,
read by every point: point m takes the first best-validation record among
the first m. A sample counts as one record, so a chunk holds 2**14 samples
and draws record j for all of its rows before record j + 1: the indices,
then, in a band, the validation and test noise as one (2, rows) draw. A
point's numbers therefore depend on the seed, the run, the sample count
and m, not on the other points requested. Which replicates share a stream
depends on the seed, the key, the kind of run and the resample size only,
and chunks are concatenated in order, so output is bit-identical for a
given seed. A drawn index is a position in the pool, whose records run
worst to best (see :class:`ResultPool`), so the output is the same for the
pool's records in any order, and every resample a callable statistic gets
is a pool in that order too. A failed replicate is a NaN or infinite
value, and a run prints no floating-point warnings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import GaussianParams, std_normal_expected_max
from .errors import (
    _MAX_N,
    BestOfNError,
    DegeneratePoolError,
    InsufficientDataError,
    ResamplingDegenerateError,
    _integer_arg,
)
from .estimators import (
    BoonStatistic,
    Direction,
    EstimatorKind,
    ResultPool,
    _CheckedPool,
    _TINY,
    _boon_weighted_average,
    _linear_quantiles,
    _rank_powers,
    _rescaled,
    _signed_expected_max,
    _std,
    _tie_groups,
    _worst_to_best,
    boon_nonparametric,
)

__all__ = [
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
]

# Recorded in every report: changes whenever a seed maps to other draws.
STREAM_VERSION = 7

# Replicate and sample counts are allocated up front, 8 bytes each.
MAX_REPLICATES = 10_000_000

# Retries are tolerated for up to this fraction of all statistic
# evaluations before a resampling run is declared degenerate.
_FAILURE_BUDGET = 0.01

# Resampled records per replicate chunk, and the least rows a vectorised
# block's chunk holds within a wider record budget. Part of the output
# contract: chunking follows the kind of block and the resample size only.
_CHUNK_ELEMENTS = 1 << 14
_WIDE_ROWS = 8
_WIDE_ELEMENTS = 1 << 16

# Best test scores one curve scan holds (8 bytes each), and replicate values
# one Boo(n) run over several n holds; further points or n take further runs
# of the same streams.
_CURVE_VALUES = 1 << 21


@dataclass(frozen=True)
class ResamplingConfig:
    """Knobs shared by every resampling routine.

    ``bandwidth`` only matters for smoothed draws (the smoothed bootstrap
    and curve bands): "auto" selects the per-axis rule sigma_hat *
    m**(-1/6); an explicit value is used for both axes as given.
    """

    replicates: int = 10_000
    level: float = 0.95
    seed: int = 0
    bandwidth: float | str = "auto"

    def __post_init__(self):
        _integer_arg(self.replicates, "replicates", 100, MAX_REPLICATES)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        _integer_arg(self.seed, "seed", 0, 2**64 - 1)
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError(f'bandwidth must be "auto" or a number, got {self.bandwidth!r}')
        elif isinstance(self.bandwidth, (bool, np.bool_)) or not (
            math.isfinite(self.bandwidth) and self.bandwidth >= 0.0
        ):
            raise ValueError(f"bandwidth must be a non-negative number, got {self.bandwidth}")


class CIMethod(str, enum.Enum):
    BOOTSTRAP = "bootstrap"
    SMOOTHED_BOOTSTRAP = "smoothed_bootstrap"
    MONTE_CARLO_GAUSSIAN = "monte_carlo_gaussian"


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    method: CIMethod
    replicates: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class CurvePoint:
    """Expected best-validation test score at pool size m, with the
    sampling interval of that best-single-model statistic when requested."""

    m: int
    expected_best_test: float
    ci: ConfidenceInterval | None = None
    mc_se: float | None = None


class ComparisonResult(NamedTuple):
    delta: float
    ci: ConfidenceInterval
    significant: bool


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one chunk."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _percentile_interval(
    values: np.ndarray, config: ResamplingConfig, method: CIMethod
) -> ConfidenceInterval:
    level = config.level
    lo, hi = _linear_quantiles(values, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return ConfidenceInterval(lo, hi, level, method, config.replicates)


def _chunked_replicates(
    count: int,
    size: int,
    seed: int,
    block: Callable[..., np.ndarray],
    *,
    key: tuple[int, ...] = (),
    wide: bool = False,
) -> np.ndarray:
    """``count`` replicate values, drawn chunk by chunk from the streams
    split off (seed, *key, k) (see the module docstring for the layout).

    Each replicate resamples ``size`` records, and ``block(rng, rows)``
    draws one chunk's ``rows`` replicates from its stream and returns their
    values, or a ``(rows, points)`` array. A chunk holds ``max(1,
    _CHUNK_ELEMENTS // size)`` replicates; a ``wide`` block, one evaluated
    with a few numpy calls over all of its rows, holds at least
    ``min(_WIDE_ROWS, _WIDE_ELEMENTS // size)``. A failed replicate is a
    NaN or infinite value, and a run prints no floating-point warnings.
    Each row holding a failure is redrawn one at a time from its chunk's
    stream until it is finite; the run aborts with
    :class:`ResamplingDegenerateError` once failures exceed 1% of ``count``
    plus failures, a share further draws can only raise, so it evaluates
    at most about 1.01 * ``count`` rows.
    """
    rows = max(1, _CHUNK_ELEMENTS // size)
    if wide:
        rows = max(rows, min(_WIDE_ROWS, _WIDE_ELEMENTS // size))
    out = None
    failures = evaluations = 0
    # Around user callables too, on purpose: a non-finite result fails its
    # replicate anyway, and numpy's warning (an error under -W error) adds nothing.
    with np.errstate(all="ignore"):
        for k, first in enumerate(range(0, count, rows)):
            rng = _rng(seed, *key, k)
            values = block(rng, min(rows, count - first))
            evaluations += len(values)
            failed = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
            failures += failed.size
            for i in failed:
                while failures / (count + failures) <= _FAILURE_BUDGET:
                    values[i] = block(rng, 1)[0]
                    evaluations += 1
                    if np.isfinite(values[i]).all():
                        break
                    failures += 1
                else:
                    raise ResamplingDegenerateError(failures / evaluations)
            # A one-chunk run is its chunk; a longer one fills one array, so a
            # run never holds its values twice.
            if out is None:
                out = values if len(values) == count else np.empty((count, *values.shape[1:]))
            if out is not values:
                out[first : first + len(values)] = values
    return out


def _draw(
    rng: np.random.Generator,
    columns: tuple[np.ndarray, ...],
    rows: int,
    size: int,
    bandwidths: tuple[float, ...] = (),
) -> list[np.ndarray]:
    """``rows`` with-replacement resamples of ``size`` records from
    equal-length columns.

    Each column is gathered at the drawn records and, when a bandwidth is
    nonzero, moved by that bandwidth times standard normal noise drawn for
    all columns at once.
    """
    idx = rng.integers(0, columns[0].size, size=(rows, size))
    out = [c[idx] for c in columns]
    if any(bandwidths):
        noise = rng.standard_normal((rows, size, len(columns)))
        for j, (c, h) in enumerate(zip(out, bandwidths)):
            c += h * noise[:, :, j]  # in place: the gathered columns are fresh arrays
    return out


def _count_boon(
    vals: np.ndarray, tests: np.ndarray, size: int, ns: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Non-parametric Boo(n) at each n of ``ns`` of resamples of ``size``
    records, without sorting any resample: a kernel taking rows of positions
    in a pool's records, worst to best, to a ``(rows, len(ns))`` block.

    A resample is a count vector over the pool's records.
    With S_g the cumulative count up to validation tie group g and s the
    resample size, group g weighs (S_g/s)^n - (S_{g-1}/s)^n times its
    count-weighted mean test score: the rank-weight formula applied to
    counts. The counts, group means and cumulative counts are built once
    and read by every n.
    """
    m = vals.size
    group_start, _ = _tie_groups(vals)
    tied = group_start.size < m
    powers = [_rank_powers(size, n) for n in ns]

    def boon_rows(pos: np.ndarray) -> np.ndarray:
        rows = pos.shape[0]
        flat = (pos + m * np.arange(rows)[:, None]).ravel()
        counts = np.bincount(flat, minlength=rows * m).reshape(rows, m)
        group_tests = tests
        if tied:
            test_sums = np.add.reduceat(counts * tests, group_start, axis=1)
            counts = np.add.reduceat(counts, group_start, axis=1)
            group_tests = test_sums / np.maximum(counts, 1)
        upper = np.cumsum(counts, axis=1)
        lower = upper - counts
        out = np.empty((rows, len(powers)))
        for j, power in enumerate(powers):
            out[:, j] = ((power[upper] - power[lower]) * group_tests).sum(axis=1)
        return out

    # A count block holds m values per row, so resamples much smaller than
    # the pool are counted a slice of rows at a time.
    step = max(1, _CHUNK_ELEMENTS // m)

    def boon(pos: np.ndarray) -> np.ndarray:
        return np.concatenate([boon_rows(pos[i : i + step]) for i in range(0, len(pos), step)])

    return boon


def _sorted_boon(vals: np.ndarray, tests: np.ndarray, n: int) -> np.ndarray:
    """Non-parametric Boo(n) of each row of (vals, tests), its records worst to best: the
    row's tests weighed with the fixed rank weights, or, for a row with tied validations,
    the grouped formula."""
    out = tests @ np.diff(_rank_powers(vals.shape[1], n))
    for r in np.flatnonzero((vals[:, 1:] == vals[:, :-1]).any(axis=1)):
        out[r] = _boon_weighted_average(vals[r], tests[r], n)
    return out


def _row_moments(vals: np.ndarray, tests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Pearson correlation, NaN where a sum of squares or their product is outside
    the normal range as in ``estimators._plain_pearson``, and its Bessel-corrected test variance."""
    vc = vals - vals.mean(axis=1, keepdims=True)
    tc = tests - tests.mean(axis=1, keepdims=True)
    sxx, syy = (vc * vc).sum(axis=1), (tc * tc).sum(axis=1)
    product = sxx * syy
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (vc * tc).sum(axis=1) / np.sqrt(product)
    rho[~((np.minimum(sxx, syy) >= _TINY) & (_TINY <= product) & (product < math.inf))] = math.nan
    return rho, syy / (vals.shape[1] - 1)


def _gaussian_boon(vals: np.ndarray, tests: np.ndarray, e_ns: Sequence[float]) -> np.ndarray:
    """Parametric Boo(n) of each row of (vals, tests) at each signed E_n of ``e_ns``,
    mu_test + rho * sigma_test * E_n with sample estimates, as a ``(rows, len(e_ns))``
    block; NaN for a row without validation or test spread. A row whose correlation is NaN
    or test variance below the normal range takes it from its columns divided by their
    largest magnitudes, as ``estimators._pearson`` and ``_std`` do. The moments are computed
    once and read by every E_n."""
    rho, var = _row_moments(vals, tests)
    sd = np.sqrt(var)
    degenerate = (np.ptp(vals, axis=1) == 0.0) | (np.ptp(tests, axis=1) == 0.0)
    rescale = (~np.isfinite(rho) | (var < _TINY)) & ~degenerate
    if rescale.any():
        v, t = (x[rescale] / np.abs(x[rescale]).max(axis=1, keepdims=True) for x in (vals, tests))
        rho[rescale], t_var = _row_moments(v, t)
        t_sd = np.sqrt(t_var) * np.abs(tests[rescale]).max(axis=1)
        sd[rescale] = np.where(var[rescale] < _TINY, t_sd, sd[rescale])
    out = tests.mean(axis=1)[:, None] + (rho * sd)[:, None] * np.asarray(e_ns)
    out[degenerate] = np.nan
    return out


def _evaluate(statistic: Callable[[ResultPool], float], pool: ResultPool) -> float:
    """The statistic's value on one resample, NaN if it raises; the engine fails a NaN
    or infinite value and keeps the statistic's floating-point warnings off."""
    try:
        return float(statistic(pool))
    except (BestOfNError, ValueError, ZeroDivisionError, FloatingPointError):
        return math.nan


def _resolve_bandwidths(pool: ResultPool, bandwidth: float | str) -> tuple[float, float]:
    if bandwidth != "auto":
        return float(bandwidth), float(bandwidth)
    # Scott-style rule for bivariate data: sigma_hat * m**(-1/6) per axis.
    factor = pool.m ** (-1.0 / 6.0)
    h = []
    for axis, scores in (("validation", pool.validation_scores), ("test", pool.test_scores)):
        h.append(_std(scores) * factor if pool.m >= 2 else 0.0)
        if not math.isfinite(h[-1]):
            raise DegeneratePoolError(
                f"the automatic {axis} bandwidth overflows the float range; "
                "an explicit bandwidth (--bandwidth) avoids it"
            )
    return h[0], h[1]


def _boon_block(
    pool: ResultPool,
    kind: EstimatorKind,
    ns: Sequence[int],
    size: int,
    bandwidths: tuple[float, ...] = (),
) -> Callable[..., np.ndarray]:
    """Block for Boo(n) of one estimator kind at every n of ``ns``: a ``(rows, len(ns))``
    block whose columns all read the same resamples of the pool's records, worst to best.
    Unsmoothed non-parametric rows go by counts and Gaussian rows by their moments,
    vectorised over the chunk; smoothed non-parametric rows are sorted once a chunk."""
    columns = (pool.validation_scores, pool.test_scores)
    if kind is EstimatorKind.GAUSSIAN_PARAMETRIC:
        if size < 3:
            raise InsufficientDataError(
                f"parametric estimation needs resamples of >= 3 records, got {size}"
            )
        e_ns = [_signed_expected_max(n, pool.direction) for n in ns]
        return lambda rng, rows: _gaussian_boon(*_draw(rng, columns, rows, size, bandwidths), e_ns)
    if any(bandwidths):
        def sorted_block(rng: np.random.Generator, rows: int) -> np.ndarray:
            v, t = _worst_to_best(*_draw(rng, columns, rows, size, bandwidths), pool.direction)
            return np.stack([_sorted_boon(v, t, n) for n in ns], axis=1)

        return sorted_block
    boon = _count_boon(*columns, size, ns)
    return lambda rng, rows: boon(rng.integers(0, pool.m, size=(rows, size)))


def _statistic_block(
    pool: ResultPool,
    statistic: Callable[[ResultPool], float],
    size: int,
    bandwidths: tuple[float, ...],
) -> Callable[..., np.ndarray]:
    """Block for any pool statistic: one pool per row, over read-only views of the chunk's
    draws, its records worst to best. An unsmoothed row gathers the pool at sorted positions;
    a smoothed row is sorted as a pool is, and fails with a non-finite (overflowed) score."""
    columns = (pool.validation_scores, pool.test_scores)
    if any(bandwidths):

        def draw(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray, list]:
            v, t = _worst_to_best(*_draw(rng, columns, rows, size, bandwidths), pool.direction)
            finite = np.isfinite(v).all(axis=1) & np.isfinite(t).all(axis=1)
            return v, t, finite.tolist()
    else:
        # Positions sort two to three times as fast as 16-bit integers.
        small = np.int16 if pool.m <= 2**15 else np.intp

        def draw(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray, list]:
            pos = rng.integers(0, pool.m, size=(rows, size)).astype(small)
            pos.sort(axis=1)
            pos = pos.astype(np.intp)
            return columns[0][pos], columns[1][pos], [True] * rows

    def block(rng: np.random.Generator, rows: int) -> np.ndarray:
        v, t, finite = draw(rng, rows)
        v.flags.writeable = t.flags.writeable = False
        make, direction, name = _CheckedPool.from_arrays, pool.direction, pool.metric_name
        return np.array([
            _evaluate(statistic, make(vr, tr, direction, name)) if ok else math.nan
            for vr, tr, ok in zip(v, t, finite)
        ])

    return block


def _bootstrap_intervals(
    pool: ResultPool,
    statistics: Sequence[Callable[[ResultPool], float]],
    config: ResamplingConfig,
    bandwidths: tuple[float, ...] = (),
    method: CIMethod = CIMethod.BOOTSTRAP,
    resample_size: int | None = None,
) -> list[ConfidenceInterval]:
    """One percentile interval per statistic, each from the same resamples:
    either :class:`BoonStatistic` values of one kind or one statistic of any
    other kind.

    Boo(n) statistics share each run (see the module docstring) in groups
    of ``max(1, _CURVE_VALUES // max(replicates, size + 1))`` n, so a run
    keeps at most ``max(replicates, _CURVE_VALUES)`` replicate values and
    the count kernel at most ``max(size + 1, _CURVE_VALUES)`` power-table
    entries.
    """
    if pool.m < 2:
        raise InsufficientDataError(f"bootstrap needs m >= 2 records, got m={pool.m}")
    size = pool.m if resample_size is None else _integer_arg(resample_size, "resample_size")
    first = statistics[0]
    # Callables and smoothed non-parametric Boo(n) go row by row: wider chunks
    # made a callable a fifth slower per row at 5,000 records.
    wide = False
    if isinstance(first, BoonStatistic):
        ns = [s.n for s in statistics]
        per_run = max(1, _CURVE_VALUES // max(config.replicates, size + 1))
        blocks = [
            _boon_block(pool, first.kind, ns[g : g + per_run], size, bandwidths)
            for g in range(0, len(ns), per_run)
        ]
        wide = first.kind is EstimatorKind.GAUSSIAN_PARAMETRIC or not any(bandwidths)
    else:
        blocks = [_statistic_block(pool, first, size, bandwidths)]

    def run(block: Callable[..., np.ndarray]) -> list:
        # A function scope, so one run's values are freed before the next is drawn.
        values = _chunked_replicates(config.replicates, size, config.seed, block, wide=wide)
        return [
            _percentile_interval(column, config, method)
            for column in values.reshape(config.replicates, -1).T
        ]

    return [ci for block in blocks for ci in run(block)]


def bootstrap_ci(
    pool: ResultPool,
    statistic: Callable[[ResultPool], float],
    config: ResamplingConfig,
    *,
    resample_size: int | None = None,
    workers: int = 1,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for any pool statistic.

    Draws ``config.replicates`` with-replacement resamples (of the pool's
    own size unless ``resample_size`` narrows them), evaluates the
    statistic on each, and takes the (1-level)/2 and (1+level)/2 quantiles
    of the replicate values. A replicate whose statistic raises or gives a
    NaN or infinite value has failed and is redrawn; the run aborts with
    :class:`ResamplingDegenerateError` if more than 1% of evaluations fail,
    and prints no floating-point warnings, the statistic's own included.

    A :class:`BoonStatistic` is evaluated on a whole chunk of resamples at
    once; any other callable is called on one resampled pool at a time,
    its records worst to best, as every pool's are. Under the same
    seed both see the same resamples, except those of 2,049 to 32,768
    records: a Boo(n) statistic takes them in wider chunks, so from other
    streams. ``workers`` is accepted for compatibility and has no effect.
    """
    return _bootstrap_intervals(pool, [statistic], config, resample_size=resample_size)[0]


def smoothed_bootstrap_ci(
    pool: ResultPool,
    statistic: Callable[[ResultPool], float],
    config: ResamplingConfig,
    *,
    resample_size: int | None = None,
    workers: int = 1,
) -> ConfidenceInterval:
    """Bootstrap with additive bivariate Gaussian noise on each resampled
    (validation, test) pair.

    Smoothing effectively expands a small pool: statistics that react to
    few order statistics (like the best-validation test score) get a
    usable replicate distribution instead of a handful of repeated values.
    With bandwidth 0 the output is replicate-for-replicate identical to
    :func:`bootstrap_ci` under the same seed. ``workers`` is accepted for
    compatibility and has no effect.
    """
    bandwidths = _resolve_bandwidths(pool, config.bandwidth)
    return _bootstrap_intervals(
        pool, [statistic], config, bandwidths, CIMethod.SMOOTHED_BOOTSTRAP, resample_size
    )[0]


def monte_carlo_ci_gaussian(
    params: GaussianParams,
    m: int,
    n: int,
    estimator_kind: EstimatorKind,
    config: ResamplingConfig,
    *,
    workers: int = 1,
) -> ConfidenceInterval:
    """Sampling interval of a best-out-of-n estimator at pool size m under
    a known bivariate-normal performance distribution.

    Each replicate simulates a fresh pool of m draws from ``params`` and
    re-evaluates the chosen estimator; the percentile interval of those
    replicate values captures how much the estimator moves from one
    m-experiment study to the next.

    The non-parametric kind never simulates the test scores record by
    record. With z the standardised validations, the test score of the
    j-th ranked validation (its concomitant) is mu_t + rho * sigma_t *
    z_(j) + sigma_t * sqrt(1 - rho**2) * e_j, where the e_j are iid
    N(0, 1) and independent of the order statistics z_(j) (David 1973;
    Bhattacharya 1974). A rank-weighted sum sum_j w_j * t_[j] is therefore
    distributed exactly as mu_t * sum(w) + rho * sigma_t * (w . sort(z)) +
    sigma_t * sqrt(1 - rho**2) * ||w|| * g with one g ~ N(0, 1) per pool,
    which is what each replicate draws. Rows whose validations tie after
    rounding take the group-averaged weights, as the estimator does, and
    those weights' norm; rows whose validations overflow are failed replicates.

    ``workers`` is accepted for compatibility and has no effect.
    """
    estimator_kind = EstimatorKind(estimator_kind)
    _integer_arg(n, "n", 1, _MAX_N)
    _integer_arg(m, "m")
    if estimator_kind is EstimatorKind.GAUSSIAN_PARAMETRIC and m < 3:
        raise InsufficientDataError("parametric estimation needs m >= 3 simulated records")
    block = _monte_carlo_block(params, m, n, estimator_kind)
    wide = estimator_kind is EstimatorKind.GAUSSIAN_PARAMETRIC
    values = _chunked_replicates(config.replicates, m, config.seed, block, wide=wide)
    return _percentile_interval(values, config, CIMethod.MONTE_CARLO_GAUSSIAN)


def _monte_carlo_block(
    params: GaussianParams, m: int, n: int, kind: EstimatorKind
) -> Callable[..., np.ndarray]:
    """Block for Boo(n) of pools of m records simulated from ``params``:
    Gaussian rows from a ``(rows, m, 2)`` standard normal draw, and
    non-parametric rows from sorted validations plus one test residual
    (see :func:`monte_carlo_ci_gaussian`)."""
    if kind is EstimatorKind.GAUSSIAN_PARAMETRIC:
        e_n = std_normal_expected_max(n)

        def gaussian_block(rng: np.random.Generator, rows: int) -> np.ndarray:
            z = rng.standard_normal((rows, m, 2))
            vals = params.mu_val + params.sigma_val * z[:, :, 0]
            tests = params.mu_test + params.sigma_test * (
                params.rho * z[:, :, 0] + math.sqrt(1.0 - params.rho**2) * z[:, :, 1]
            )
            return _gaussian_boon(vals, tests, [e_n])[:, 0]

        return gaussian_block

    power = _rank_powers(m, n)
    w = np.diff(power)
    w_sum, w_norm = w.sum(), math.sqrt(w @ w)
    slope = params.rho * params.sigma_test
    residual = params.sigma_test * math.sqrt(1.0 - params.rho**2)

    def block(rng: np.random.Generator, rows: int) -> np.ndarray:
        z = rng.standard_normal((rows, m))
        g = rng.standard_normal(rows)
        z.sort(axis=1)
        out = params.mu_test * w_sum + slope * (z @ w) + residual * w_norm * g
        vals = params.mu_val + params.sigma_val * z
        # vals rise with the sorted z, so a row overflows at an end or not at
        # all; its equal infinities are no tie, and the row fails.
        finite = np.isfinite(vals[:, 0]) & np.isfinite(vals[:, -1])
        out[~finite] = np.nan
        for r in np.flatnonzero(finite & (vals[:, 1:] == vals[:, :-1]).any(axis=1)):
            start, end = _tie_groups(vals[r])
            wr = np.repeat((power[end] - power[start]) / (end - start), end - start)
            out[r] = (
                params.mu_test * wr.sum() + slope * (z[r] @ wr) + residual * math.sqrt(wr @ wr) * g[r]
            )
        return out

    return block


def best_of_m_curve(
    pool: ResultPool,
    m_values: Sequence[int],
    samples_per_m: int,
    config: ResamplingConfig,
    *,
    with_ci: bool = True,
    workers: int = 1,
) -> list[CurvePoint]:
    """Expected best-validation test score as a function of pool size m.

    Draws ``samples_per_m`` with-replacement samples of size m from the
    pool, takes each sample's best-validation record, and averages the test
    scores: the Monte Carlo counterpart of the rank-weighted estimator at
    n = m. Each sample is a nested sequence of ``max(m_values)`` records and
    point m reads its first m records, the first of tied best records
    winning. With ``with_ci`` the smoothed-bootstrap percentile band of the
    best-single-model statistic at that pool size is attached
    (``config.replicates`` smoothed draws).

    ``workers`` is accepted for compatibility and has no effect.
    """
    m_values = list(m_values)
    if len(m_values) == 0:
        raise ValueError("m_values must not be empty")
    _integer_arg(samples_per_m, "samples_per_m", 1, MAX_REPLICATES)
    for m in m_values:
        _integer_arg(m, "m")
    sign = -1.0 if pool.direction is Direction.MINIMIZE else 1.0  # the scans keep the largest
    vals, tests = sign * pool.validation_scores, sign * pool.test_scores
    bandwidths = _resolve_bandwidths(pool, config.bandwidth) if with_ci else ()

    def best_tests(ms: list[int], count: int, run: int, h: tuple[float, ...]) -> np.ndarray:
        """``(len(ms), count)`` test scores of the best-validation record among the first m
        records of each sample, for the increasing sizes ``ms``, from the run keyed (run,)."""

        def scan(rng: np.random.Generator, rows: int) -> np.ndarray:
            out = np.empty((len(ms), rows))
            out_row = dict(zip(ms, out))
            best_v, best_t = np.full(rows, -np.inf), np.full(rows, np.nan)
            for j in range(1, ms[-1] + 1):
                idx = rng.integers(0, pool.m, size=rows)
                v, t = vals[idx], tests[idx]
                if any(h):
                    noise = rng.standard_normal((2, rows))
                    v, t = v + h[0] * noise[0], t + h[1] * noise[1]
                np.copyto(best_t, t, where=v > best_v)
                np.maximum(best_v, v, out=best_v)
                if j in out_row:
                    np.multiply(best_t, sign, out=out_row[j])
            return out.T

        values = _chunked_replicates(count, 1, config.seed, scan, key=(run,))
        return np.ascontiguousarray(values.T)  # one contiguous row per size

    def estimate(draws: np.ndarray) -> tuple[float, float | None]:
        mc_se = None
        if samples_per_m > 1:
            mc_se = _rescaled(lambda d: _std(d) / math.sqrt(samples_per_m), draws)
        return _rescaled(np.mean, draws), mc_se

    points = {}
    ms = sorted(set(m_values))
    per_scan = max(1, _CURVE_VALUES // max(samples_per_m, config.replicates if with_ci else 1))
    for g in range(0, len(ms), per_scan):
        group = ms[g : g + per_scan]
        estimates = [estimate(d) for d in best_tests(group, samples_per_m, 0, ())]
        cis = [None] * len(group)
        if with_ci:
            cis = [
                _percentile_interval(b, config, CIMethod.SMOOTHED_BOOTSTRAP)
                for b in best_tests(group, config.replicates, 1, bandwidths)
            ]
        for m, (mean, mc_se), ci in zip(group, estimates, cis):
            points[m] = CurvePoint(m=m, expected_best_test=mean, ci=ci, mc_se=mc_se)
    return [points[m] for m in m_values]


def compare_architectures(
    pool_a: ResultPool,
    pool_b: ResultPool,
    n: int,
    config: ResamplingConfig,
    *,
    workers: int = 1,
) -> ComparisonResult:
    """Difference in non-parametric best-out-of-n between two pools, with a
    bootstrap interval on the difference.

    Each replicate resamples both pools independently and recomputes the
    difference (pool_b minus pool_a). The improvement is called significant
    when zero lies outside the interval. ``workers`` is accepted for
    compatibility and has no effect.
    """
    if pool_a.direction is not pool_b.direction:
        raise ValueError(
            f"pools disagree on direction: {pool_a.direction.value} vs {pool_b.direction.value}"
        )
    _integer_arg(n, "n", 1, _MAX_N)
    for name, pool in (("A", pool_a), ("B", pool_b)):
        if pool.m < 2:
            raise InsufficientDataError(
                f"compare needs m >= 2 records in pool {name}, got m={pool.m}"
            )
    delta = boon_nonparametric(pool_b, n).value - boon_nonparametric(pool_a, n).value
    a = _boon_block(pool_a, EstimatorKind.NONPARAMETRIC, [n], pool_a.m)
    b = _boon_block(pool_b, EstimatorKind.NONPARAMETRIC, [n], pool_b.m)

    def block(rng: np.random.Generator, rows: int) -> np.ndarray:
        boon_a = a(rng, rows)  # A's records are drawn first
        return b(rng, rows) - boon_a

    values = _chunked_replicates(
        config.replicates, pool_a.m + pool_b.m, config.seed, block, wide=True
    )
    ci = _percentile_interval(values[:, 0], config, CIMethod.BOOTSTRAP)
    significant = not ci.contains(0.0)
    return ComparisonResult(delta=delta, ci=ci, significant=significant)
