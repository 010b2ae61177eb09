"""Resampling-based uncertainty for best-out-of-n estimates.

Percentile bootstrap, Gaussian-kernel smoothed bootstrap, parametric Monte
Carlo intervals, expected-best curves over the number of experiments, and
two-pool comparison through the interval on the estimate difference.

Determinism contract (stream version 10): every routine draws its replicates
through one engine, in chunks of ``max(1, 2**14 // size)`` replicates of
``size`` records; compare, whose replicate resamples both pools, holds at
least ``min(8, 2**16 // size)`` a chunk. Chunk k draws from two streams split
off by numpy SeedSequence spawn keys: (seed, *key, k) takes the chunk's block
row by row, and (seed, *key, k, 1, 0), longer than any chunk's own key, its
smoothing noise or, in compare, pool B's block. A Monte Carlo chunk of pools
of m records draws a (rows, m, 2) standard normal block for the Gaussian
kind, and a (rows, m + 1) one, m validations and a test residual a row, for
the non-parametric kind. A failed replicate (a NaN or infinite value) is left
out, not redrawn, so every value is a function of the seed, the key and its
row alone, and a run of B replicates is the first B values of every longer
run. Bootstrap, compare and Monte Carlo runs have an empty key. Boo(n)
bootstraps of one estimator at several n (a ``boon --n`` list) share each
run, a column per n, in groups of max(1, 2**21 // max(replicates, size + 1))
n, each column the values of its n's own run.
A curve makes two runs, keyed (0,) for its samples and (1,) for its smoothed
band. Each sample is one nested sequence of records, drawn with replacement
and read by every point: point m takes the first best-validation record
among the first m. A sample counts as one record, so a chunk holds 2**14
samples; a run scans records 1 to the largest m once, every chunk drawing
record j of its rows (the index, then, in a band, the validation and test
noise as one (2, rows) draw) before any draws record j + 1, and keeps each
sample's running best validation and test. So a curve's runs are not
prefixes of longer ones, and a point's numbers depend on the seed, the run,
the sample count and m, not on the other points. The
output is bit-identical for a given seed. A drawn index is a position in the
pool, whose records run worst to best (see :class:`ResultPool`), so the
output is the same for the pool's records in any order, and every resample
a callable statistic gets is a pool in that order too. A run prints no
floating-point warnings.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

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
    _gaussian_boon,
    _linear_quantiles,
    _rank_powers,
    _rescaled,
    _signed_expected_max,
    _sorted_boon,
    _std,
    _tie_groups,
    _tie_weights,
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
STREAM_VERSION = 10

# Replicate, sample, resample and simulated pool sizes are allocated up front, 8 bytes each.
MAX_REPLICATES = 10_000_000
# A curve's largest m: each run draws that many records for every sample, so its time grows
# linearly with m.
MAX_CURVE_M = 100_000

# Failed values are tolerated for up to this fraction of a run's replicates in
# each of its columns before the run is declared degenerate.
_FAILURE_BUDGET = 0.01

# Resampled records per replicate chunk, and the least rows compare's chunk
# holds within a wider record budget (its replicate resamples two pools).
# Part of the output contract: chunking follows the resample size only.
_CHUNK_ELEMENTS = 1 << 14
_WIDE_ROWS = 8
_WIDE_ELEMENTS = 1 << 16

# Replicate values one Boo(n) run over several n holds (8 bytes each); further
# n take further runs of the same streams.
_RUN_VALUES = 1 << 21


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
        # A comparison, not math.isfinite: an int beyond the float range would overflow there.
        elif isinstance(self.bandwidth, (bool, np.bool_)) or not (
            0.0 <= self.bandwidth <= sys.float_info.max
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


class _Stream:
    """The generator of one chunk, split off (seed, *key), whose methods it offers as its
    own; its ``noise`` is a second one, split off (seed, *key, 1, 0) on first use. It wraps the
    generator: a subclass would load ``numpy.random`` on import, 8-10 ms of every command."""

    def __init__(self, seed: int, *key: int):
        self.key = (seed, *key)
        self.generator = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    def __getattr__(self, name: str):
        return getattr(self.generator, name)

    @functools.cached_property
    def noise(self) -> _Stream:
        return _rng(*self.key, 1, 0)


def _rng(seed: int, *key: int) -> _Stream:
    """Independent generator for one chunk."""
    return _Stream(seed, *key)


def _percentile_interval(
    values: np.ndarray, config: ResamplingConfig, method: CIMethod
) -> ConfidenceInterval:
    level = config.level
    finite = values[np.isfinite(values)]  # a run's failed values are left out
    lo, hi = _linear_quantiles(finite, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return ConfidenceInterval(lo, hi, level, method, config.replicates)


def _chunked_replicates(
    count: int,
    size: int,
    seed: int,
    block: Callable[..., np.ndarray],
    *,
    wide: bool = False,
) -> np.ndarray:
    """``count`` replicate values, drawn chunk by chunk (see the module docstring for the
    layout): ``block(rng, rows)`` draws one chunk's ``rows`` replicates of ``size`` records
    from ``rng``, split off (seed, k), and ``rng.noise``, and returns their values or a
    ``(rows, columns)`` array; ``wide`` is compare's wider chunk. A failed value (NaN or
    infinite) stays where it falls, and readers of the run leave it out; the run aborts with
    :class:`ResamplingDegenerateError` after the first chunk that takes any column's failures
    past 1% of ``count``.
    """
    rows = max(1, _CHUNK_ELEMENTS // size)
    if wide:
        rows = max(rows, min(_WIDE_ROWS, _WIDE_ELEMENTS // size))
    out = None
    failures = 0
    # Around user callables too, on purpose: a non-finite result fails its
    # replicate anyway, and numpy's warning (an error under -W error) adds nothing.
    with np.errstate(all="ignore"):
        for k, first in enumerate(range(0, count, rows)):
            values = block(_rng(seed, k), min(rows, count - first))
            finite = np.isfinite(values)
            if not finite.all():  # counted per column only in a chunk that holds a failure
                failures = failures + (~finite).sum(axis=0)
                if failures.max() > _FAILURE_BUDGET * count:
                    raise ResamplingDegenerateError(float(failures.max()) / (first + len(values)))
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
    all columns at once from the chunk's noise stream.
    """
    idx = rng.integers(0, columns[0].size, size=(rows, size))
    out = [c[idx] for c in columns]
    if any(bandwidths):
        noise = rng.noise.standard_normal((rows, size, len(columns)))
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
    of ``max(1, _RUN_VALUES // max(replicates, size + 1))`` n, so a run
    keeps at most ``max(replicates, _RUN_VALUES)`` replicate values and
    the count kernel at most ``max(size + 1, _RUN_VALUES)`` power-table
    entries.
    """
    if pool.m < 2:
        raise InsufficientDataError(f"bootstrap needs m >= 2 records, got m={pool.m}")
    size = pool.m
    if resample_size is not None:
        size = _integer_arg(resample_size, "resample_size", 1, MAX_REPLICATES)
    first = statistics[0]
    if isinstance(first, BoonStatistic):
        ns = [s.n for s in statistics]
        per_run = max(1, _RUN_VALUES // max(config.replicates, size + 1))
        blocks = [
            _boon_block(pool, first.kind, ns[g : g + per_run], size, bandwidths)
            for g in range(0, len(ns), per_run)
        ]
    else:
        blocks = [_statistic_block(pool, first, size, bandwidths)]

    def run(block: Callable[..., np.ndarray]) -> list:
        # A function scope, so one run's values are freed before the next is drawn.
        values = _chunked_replicates(config.replicates, size, config.seed, block)
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
    NaN or infinite value has failed and is left out of those quantiles; the
    run aborts with :class:`ResamplingDegenerateError` if more than 1% of
    replicates fail, and prints no floating-point warnings, the statistic's
    own included.

    A :class:`BoonStatistic` is evaluated on a whole chunk of resamples at
    once; any other callable is called on one resampled pool at a time,
    its records worst to best, as every pool's are. Under the same seed
    both see the same resamples. ``workers`` is accepted for compatibility
    and has no effect.
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
    _integer_arg(m, "m", 1, MAX_REPLICATES)
    if estimator_kind is EstimatorKind.GAUSSIAN_PARAMETRIC and m < 3:
        raise InsufficientDataError("parametric estimation needs m >= 3 simulated records")
    block = _monte_carlo_block(params, m, n, estimator_kind)
    values = _chunked_replicates(config.replicates, m, config.seed, block)
    return _percentile_interval(values, config, CIMethod.MONTE_CARLO_GAUSSIAN)


def _monte_carlo_block(
    params: GaussianParams, m: int, n: int, kind: EstimatorKind
) -> Callable[..., np.ndarray]:
    """Block for Boo(n) of pools of m records simulated from ``params``:
    Gaussian rows from a ``(rows, m, 2)`` standard normal draw, and
    non-parametric rows from a ``(rows, m + 1)`` one, m sorted validations and a
    test residual (see :func:`monte_carlo_ci_gaussian`)."""
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
    w_sum, w_norm = w.sum(), math.sqrt((w * w).sum())
    slope = params.rho * params.sigma_test
    residual = params.sigma_test * math.sqrt(1.0 - params.rho**2)

    def block(rng: np.random.Generator, rows: int) -> np.ndarray:
        zg = rng.standard_normal((rows, m + 1))
        z, g = zg[:, :m], zg[:, m]
        z.sort(axis=1)
        # rows are summed as products, never through BLAS, whose bits depend on the row count
        out = params.mu_test * w_sum + slope * (z * w).sum(axis=1) + residual * w_norm * g
        vals = params.mu_val + params.sigma_val * z
        # vals rise with the sorted z, so a row overflows at an end or not at
        # all; its equal infinities are no tie, and the row fails.
        finite = np.isfinite(vals[:, 0]) & np.isfinite(vals[:, -1])
        out[~finite] = np.nan
        ties = vals[:, 1:] == vals[:, :-1]
        if ties.any():  # most chunks hold none, and a row-wise any() costs more than this check
            tied = finite & ties.any(axis=1)
            wt = _tie_weights(vals[tied], power)
            out[tied] = (
                params.mu_test * wt.sum(axis=1) + slope * (z[tied] * wt).sum(axis=1)
                + residual * np.sqrt((wt * wt).sum(axis=1)) * g[tied]
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

    Each run holds two values per sample, its running best validation and
    test, and reduces a point as its scan reaches it, so its time grows
    linearly with ``max(m_values)``. A band run fails at the first point, in
    increasing m, whose values hold more than 1% failed (non-finite) ones:
    :class:`ResamplingDegenerateError` reports that point's failed share.

    ``workers`` is accepted for compatibility and has no effect.
    """
    m_values = list(m_values)
    if len(m_values) == 0:
        raise ValueError("m_values must not be empty")
    _integer_arg(samples_per_m, "samples_per_m", 1, MAX_REPLICATES)
    for m in m_values:
        _integer_arg(m, "m", 1, MAX_CURVE_M)
    sign = -1.0 if pool.direction is Direction.MINIMIZE else 1.0  # the scans keep the largest
    vals, tests = sign * pool.validation_scores, sign * pool.test_scores
    bandwidths = _resolve_bandwidths(pool, config.bandwidth) if with_ci else ()
    wanted = set(m_values)

    def scan(count: int, run: int, h: tuple[float, ...]) -> Iterator[tuple[int, np.ndarray]]:
        """``(m, values)`` per requested m, increasing: the test scores of the best-validation
        record among the first m of each of ``count`` samples of the run keyed (run,), which
        scans records 1 to the largest m once, raising at a point failed past 1% of ``count``."""
        best_v, best_t = np.full(count, -np.inf), np.full(count, np.nan)
        parts = [slice(i, i + _CHUNK_ELEMENTS) for i in range(0, count, _CHUNK_ELEMENTS)]
        chunks = [(_rng(config.seed, run, k), best_v[p], best_t[p]) for k, p in enumerate(parts)]
        for j in range(1, max(wanted) + 1):
            with np.errstate(all="ignore"):  # an overflowed draw fails its sample
                for rng, chunk_v, chunk_t in chunks:
                    idx = rng.integers(0, pool.m, size=chunk_v.size)
                    v, t = vals[idx], tests[idx]
                    if any(h):
                        noise = rng.standard_normal((2, chunk_v.size))
                        v, t = v + h[0] * noise[0], t + h[1] * noise[1]
                    np.copyto(chunk_t, t, where=v > chunk_v)
                    np.maximum(chunk_v, v, out=chunk_v)
            if j in wanted:
                values = sign * best_t
                failures = values.size - np.count_nonzero(np.isfinite(values))
                if failures > _FAILURE_BUDGET * count:
                    raise ResamplingDegenerateError(float(failures) / count)
                yield j, values

    def estimate(draws: np.ndarray) -> tuple[float, float | None]:
        mc_se = None
        if samples_per_m > 1:
            mc_se = _rescaled(lambda d: _std(d) / math.sqrt(samples_per_m), draws)
        return _rescaled(np.mean, draws), mc_se

    # One run at a time: the samples run's state is freed before the band run draws.
    estimates = {m: estimate(draws) for m, draws in scan(samples_per_m, 0, ())}
    bands = scan(config.replicates, 1, bandwidths) if with_ci else ()
    cis = {m: _percentile_interval(b, config, CIMethod.SMOOTHED_BOOTSTRAP) for m, b in bands}
    return [CurvePoint(m, estimates[m][0], cis.get(m), estimates[m][1]) for m in m_values]


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
        return b(rng.noise, rows) - a(rng, rows)

    values = _chunked_replicates(
        config.replicates, pool_a.m + pool_b.m, config.seed, block, wide=True
    )
    ci = _percentile_interval(values[:, 0], config, CIMethod.BOOTSTRAP)
    significant = not ci.contains(0.0)
    return ComparisonResult(delta=delta, ci=ci, significant=significant)
