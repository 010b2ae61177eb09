import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from bestofn import (
    BoonStatistic,
    CIMethod,
    DegeneratePoolError,
    Direction,
    EstimatorKind,
    GaussianParams,
    InsufficientDataError,
    InvalidDataError,
    ResamplingConfig,
    ResamplingDegenerateError,
    ResultPool,
    best_of_m_curve,
    best_single_model,
    bootstrap_ci,
    boon_nonparametric,
    boon_parametric_gaussian,
    compare_architectures,
    fit_gaussian_params,
    monte_carlo_ci_gaussian,
    smoothed_bootstrap_ci,
    std_normal_expected_max,
)

from bestofn import BestOfNError, estimators, resampling

import helpers
import oracles


def mean_test_score(pool):
    return float(pool.test_scores.mean())


def boon5(pool):
    return boon_nonparametric(pool, 5).value


def simulated_pools(params, z):
    """Validation and test scores of the pools that a ``(rows, m, 2)``
    standard normal draw ``z`` gives under ``params``."""
    vals = params.mu_val + params.sigma_val * z[:, :, 0]
    tests = params.mu_test + params.sigma_test * (
        params.rho * z[:, :, 0] + math.sqrt(1.0 - params.rho**2) * z[:, :, 1]
    )
    return vals, tests


class TestResamplingConfig:
    def test_defaults_are_valid(self):
        cfg = ResamplingConfig()
        assert cfg.replicates == 10_000 and cfg.level == 0.95 and cfg.bandwidth == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(replicates=99),
            dict(replicates=10**12),
            dict(level=0.0),
            dict(level=1.0),
            dict(seed=-1),
            dict(bandwidth=-0.5),
            dict(bandwidth="wide"),
            dict(bandwidth=math.inf),
            dict(bandwidth=True),
            dict(bandwidth=np.True_),
            dict(replicates=200.5),
            dict(seed=1.5),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ResamplingConfig(**kwargs)


_POOL = ResultPool.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
_PARAMS = GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5)
_BOOL_ARGS = {
    "n": [
        lambda b: boon_nonparametric(_POOL, b),
        lambda b: BoonStatistic(b),
        lambda b: compare_architectures(_POOL, _POOL, b, ResamplingConfig(replicates=100)),
        lambda b: monte_carlo_ci_gaussian(
            _PARAMS, 5, b, EstimatorKind.NONPARAMETRIC, ResamplingConfig(replicates=100)
        ),
    ],
    "replicates": [lambda b: ResamplingConfig(replicates=b)],
    "seed": [lambda b: ResamplingConfig(seed=b)],
    "m": [
        lambda b: monte_carlo_ci_gaussian(
            _PARAMS, b, 2, EstimatorKind.NONPARAMETRIC, ResamplingConfig(replicates=100)
        ),
        lambda b: best_of_m_curve(_POOL, [b], 10, ResamplingConfig(replicates=100)),
    ],
    "samples_per_m": [lambda b: best_of_m_curve(_POOL, [1], b, ResamplingConfig(replicates=100))],
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("name", list(_BOOL_ARGS))
def test_a_bool_is_not_an_integer_argument(name, flag):
    # as np.True_ is refused, and as a boolean score in a pool file is
    for call in _BOOL_ARGS[name]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer .*, got {flag}$"):
            call(flag)


class TestBootstrapCI:
    def test_identical_records_give_zero_width(self):
        pool = ResultPool.from_pairs([(0.5, 2.0)] * 6)
        ci = bootstrap_ci(pool, boon5, ResamplingConfig(replicates=500, seed=1))
        assert ci.lo == ci.hi == 2.0
        assert ci.method is CIMethod.BOOTSTRAP

    def test_width_matches_normal_theory_for_the_mean(self):
        rng = np.random.default_rng(31)
        pool = ResultPool.from_arrays(rng.standard_normal(400), rng.standard_normal(400))
        ci = bootstrap_ci(pool, mean_test_score, ResamplingConfig(replicates=20_000, seed=3))
        # normal-theory width for the mean of 400 unit-variance scores
        assert ci.width == pytest.approx(2 * 1.96 / math.sqrt(400), rel=0.15)

    def test_boon_interval_stays_inside_test_range(self):
        pool = ResultPool.from_pairs([(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)])
        stat = lambda p: boon_nonparametric(p, 2).value  # noqa: E731
        ci = bootstrap_ci(pool, stat, ResamplingConfig(replicates=100_000, seed=4))
        assert 10.0 <= ci.lo <= ci.hi <= 30.0

    def test_deterministic_for_fixed_seed(self):
        pool = helpers.bivariate_normal_pool(m=30, seed=6)
        cfg = ResamplingConfig(replicates=300, seed=9)
        assert bootstrap_ci(pool, mean_test_score, cfg) == bootstrap_ci(pool, mean_test_score, cfg)

    def test_seed_changes_the_interval(self):
        pool = helpers.bivariate_normal_pool(m=30, seed=6)
        a = bootstrap_ci(pool, mean_test_score, ResamplingConfig(replicates=300, seed=9))
        b = bootstrap_ci(pool, mean_test_score, ResamplingConfig(replicates=300, seed=10))
        assert a != b

    def test_parallel_equals_serial(self):
        pool = helpers.bivariate_normal_pool(m=30, seed=6)
        cfg = ResamplingConfig(replicates=500, seed=9)
        assert bootstrap_ci(pool, mean_test_score, cfg, workers=1) == bootstrap_ci(
            pool, mean_test_score, cfg, workers=4
        )

    def test_higher_level_widens_the_interval(self):
        pool = helpers.bivariate_normal_pool(m=50, seed=12)
        intervals = [
            bootstrap_ci(pool, mean_test_score, ResamplingConfig(replicates=2000, seed=5, level=lvl))
            for lvl in (0.8, 0.95, 0.99)
        ]
        assert intervals[0].lo >= intervals[1].lo >= intervals[2].lo
        assert intervals[0].hi <= intervals[1].hi <= intervals[2].hi

    def test_needs_two_records(self):
        pool = ResultPool.from_pairs([(1.0, 2.0)])
        with pytest.raises(InsufficientDataError):
            bootstrap_ci(pool, mean_test_score, ResamplingConfig(replicates=200, seed=0))

    def test_always_failing_statistic_raises_degenerate(self):
        pool = helpers.bivariate_normal_pool(m=10, seed=1)

        def broken(pool):
            raise ValueError("cannot be computed")

        with pytest.raises(ResamplingDegenerateError):
            bootstrap_ci(pool, broken, ResamplingConfig(replicates=200, seed=0))

    def test_always_failing_statistic_stops_within_its_first_chunk(self):
        # 4-record resamples: 4,096 a chunk, all failed, so the budget of 1%
        # is spent before a single redraw
        calls = []

        def nan(pool):
            calls.append(1)
            return math.nan

        pool = ResultPool.from_arrays([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ResamplingDegenerateError, match="on 100.0% of resamples") as err:
            bootstrap_ci(pool, nan, ResamplingConfig(replicates=10_000, seed=0))
        assert err.value.failure_fraction == 1.0
        assert len(calls) <= 4096

    def test_rare_failures_are_retried(self):
        # fails only when a resample repeats one record five times:
        # probability 5 * (1/5)^5 = 0.16%, inside the 1% retry budget
        pool = ResultPool.from_pairs([(float(i), float(i)) for i in range(5)])

        def picky(pool):
            if len(set(pool.records)) == 1:
                raise ValueError("degenerate resample")
            return float(pool.test_scores.mean())

        cfg = ResamplingConfig(replicates=3000, seed=21)
        ci = bootstrap_ci(pool, picky, cfg)
        assert ci.lo <= ci.hi
        assert bootstrap_ci(pool, picky, cfg, workers=3) == ci

    @pytest.mark.parametrize("bandwidth", [0.0, "auto"])
    @pytest.mark.parametrize("size", [None, 7])
    def test_statistic_gets_read_only_pools_that_stay_unchanged(self, bandwidth, size):
        pool = helpers.bivariate_normal_pool(m=30, seed=6)
        width = pool.m if size is None else size
        kept = []

        def inspect(resample):
            for scores in (resample.validation_scores, resample.test_scores):
                assert scores.shape == (width,) and scores.dtype == np.float64
                assert scores.flags.c_contiguous and not scores.flags.writeable
            assert isinstance(resample, ResultPool) and resample.direction is pool.direction
            assert len(resample.records) == width
            if not kept:
                kept.append((resample, resample.validation_scores.copy(),
                             resample.test_scores.copy()))
            return boon5(resample)

        # two chunks or more: 2340 resamples of 7 records or 546 of 30 each
        cfg = ResamplingConfig(replicates=2500, seed=4, bandwidth=bandwidth)
        smoothed_bootstrap_ci(pool, inspect, cfg, resample_size=size)
        first, v, t = kept[0]
        np.testing.assert_array_equal(first.validation_scores, v)
        np.testing.assert_array_equal(first.test_scores, t)

    # float.hex of bootstrap_ci(pool, boon5) endpoints on _pinned_pool (300
    # replicates, seed 21), recorded at stream version 7, after the row tests
    # below passed: draws are positions in the sorted pool, and a smoothed
    # resample is sorted when its pool is built.
    _PINNED = {
        ("maximize", None, "bootstrap"): ("-0x1.28da3e60f3937p-3", "0x1.23934ef6e06dep-5"),
        ("maximize", None, "smoothed"): ("-0x1.284341c612c6ap-3", "0x1.94fd0a58b1c43p-5"),
        ("maximize", 7, "bootstrap"): ("-0x1.6d92cc50f5151p+0", "0x1.f4f7f1715da29p-1"),
        ("maximize", 7, "smoothed"): ("-0x1.7258e0f53c669p+0", "0x1.140610e4d1973p+0"),
        ("minimize", None, "bootstrap"): ("-0x1.6e6e537423754p-4", "0x1.82cdd6d51f8a3p-4"),
        ("minimize", None, "smoothed"): ("-0x1.87a32106a63d0p-4", "0x1.a39e6996123a4p-4"),
        ("minimize", 7, "bootstrap"): ("-0x1.22945ee200f9ep+0", "0x1.4101f444a4ecfp+0"),
        ("minimize", 7, "smoothed"): ("-0x1.1840281e69938p+0", "0x1.5a49eb2fc6007p+0"),
    }

    # float.hex of bootstrap_ci(pool, boon5) endpoints (1,000 replicates, seed 2203) on
    # _callable_pool, recorded while boon_nonparametric still negated a minimize pool's
    # scores: weighing the records as stored moved no endpoint.
    _PINNED_CALLABLE = {
        ("minimize", None): ("-0x1.5f2bbdc7816e5p-1", "0x1.a472269383e54p-7"),
        ("minimize", 7): ("-0x1.512ecee22a66fp+0", "0x1.df309045eeb7dp-2"),
        ("maximize", None): ("0x1.16a999288040ep-1", "0x1.5853bd133b0c9p+0"),
        ("maximize", 7): ("-0x1.7e1cdb1332d28p-1", "0x1.ad691b834e3a6p+0"),
    }

    @staticmethod
    def _callable_pool(direction):
        """60 minimize records on 30 distinct 1-decimal validations, or 50 untied maximize ones."""
        if direction == "minimize":
            rng = np.random.default_rng(2201)
            v, t = rng.normal(size=60).round(1), rng.normal(size=60).round(2)
        else:
            z = np.random.default_rng(2202).standard_normal((50, 2))
            v, t = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]
        return ResultPool.from_arrays(v, t, direction)

    @pytest.mark.parametrize("key", list(_PINNED_CALLABLE))
    def test_callable_boon_intervals_are_pinned_to_the_bit(self, key):
        direction, size = key
        pool = self._callable_pool(direction)
        assert np.unique(pool.validation_scores).size == (30 if direction == "minimize" else 50)
        cfg = ResamplingConfig(replicates=1000, seed=2203)
        ci = bootstrap_ci(pool, boon5, cfg, resample_size=size)
        assert (ci.lo.hex(), ci.hi.hex()) == self._PINNED_CALLABLE[key]

    @staticmethod
    def _pinned_pool(direction, m=1200):
        """m records with runs of equal pairs and 1-decimal validations."""
        rng = np.random.default_rng(11)
        idx = rng.integers(0, m, m)
        v, t = rng.normal(size=m).round(1)[idx], rng.normal(size=m).round(2)[idx]
        return ResultPool.from_arrays(v, t, direction)

    @pytest.mark.parametrize("key", list(_PINNED))
    def test_large_tied_pool_intervals_are_pinned_to_the_bit(self, key):
        direction, size, method = key
        run = bootstrap_ci if method == "bootstrap" else smoothed_bootstrap_ci
        cfg = ResamplingConfig(replicates=300, seed=21)
        ci = run(self._pinned_pool(direction), boon5, cfg, resample_size=size)
        assert (ci.lo.hex(), ci.hi.hex()) == self._PINNED[key]

    # float.hex of the vectorised BoonStatistic(5, kind) endpoints on _pinned_pool (300
    # replicates, seed 21), recorded at stream version 7 while those blocks still negated a
    # minimize pool's scores: weighing the records as stored must move none of them.
    _PINNED_BLOCKS = {
        ("maximize", None, "bootstrap", "gaussian_parametric"):
            ("-0x1.755846458ab5ap-4", "0x1.41e84c816ccd1p-4"),
        ("maximize", None, "smoothed", "nonparametric"):
            ("-0x1.284341c612c6bp-3", "0x1.94fd0a58b1c42p-5"),
        ("maximize", None, "smoothed", "gaussian_parametric"):
            ("-0x1.8f2e79f07bb10p-4", "0x1.5564d9ccccf1ep-4"),
        ("maximize", 7, "bootstrap", "gaussian_parametric"):
            ("-0x1.3ba28f753fa70p+0", "0x1.0d64f73009637p+0"),
        ("maximize", 7, "smoothed", "nonparametric"):
            ("-0x1.7258e0f53c669p+0", "0x1.140610e4d1973p+0"),
        ("maximize", 7, "smoothed", "gaussian_parametric"):
            ("-0x1.4d8a5cac40fb9p+0", "0x1.25e8e43bffbccp+0"),
        ("minimize", None, "bootstrap", "gaussian_parametric"):
            ("-0x1.f885d8af7fd25p-6", "0x1.16fadc3b01bedp-3"),
        ("minimize", None, "smoothed", "nonparametric"):
            ("-0x1.87a32106a63d1p-4", "0x1.a39e6996123a4p-4"),
        ("minimize", None, "smoothed", "gaussian_parametric"):
            ("-0x1.42ed0b39fcb00p-5", "0x1.2570a56cd3e2ap-3"),
        ("minimize", 7, "bootstrap", "gaussian_parametric"):
            ("-0x1.1897cda483df6p+0", "0x1.4e43964699b3fp+0"),
        ("minimize", 7, "smoothed", "nonparametric"):
            ("-0x1.1840281e69938p+0", "0x1.5a49eb2fc6007p+0"),
        ("minimize", 7, "smoothed", "gaussian_parametric"):
            ("-0x1.3135824026443p+0", "0x1.65a96437f4977p+0"),
    }

    @pytest.mark.parametrize("key", list(_PINNED_BLOCKS))
    def test_boon_statistic_blocks_are_pinned_to_the_bit(self, key):
        direction, size, method, kind = key
        run = bootstrap_ci if method == "bootstrap" else smoothed_bootstrap_ci
        cfg = ResamplingConfig(replicates=300, seed=21)
        ci = run(self._pinned_pool(direction), BoonStatistic(5, kind), cfg, resample_size=size)
        assert (ci.lo.hex(), ci.hi.hex()) == self._PINNED_BLOCKS[key]

    # The same for smoothed BoonStatistic(5) on 40 records of one validation score: its
    # automatic validation bandwidth is 0, so every smoothed row is one tie group.
    _PINNED_TIED_ROWS = {
        ("maximize", None): ("-0x1.6201006660745p-2", "0x1.8d32f6bc29db2p-2"),
        ("maximize", 7): ("-0x1.86db772366a72p-1", "0x1.8c8bac3b2bcf9p-1"),
        ("minimize", None): ("-0x1.7aabcdc26fea2p-2", "0x1.6a2b52432b813p-2"),
        ("minimize", 7): ("-0x1.b88a47307bdeep-1", "0x1.cd7c19a550753p-1"),
    }

    @pytest.mark.parametrize("key", list(_PINNED_TIED_ROWS))
    def test_smoothed_rows_of_one_tie_group_are_pinned_to_the_bit(self, key):
        direction, size = key
        rng = np.random.default_rng(24)
        pool = ResultPool.from_arrays(np.full(40, 0.5), rng.normal(size=40).round(2), direction)
        cfg = ResamplingConfig(replicates=300, seed=21)
        assert resampling._resolve_bandwidths(pool, cfg.bandwidth)[0] == 0.0
        ci = smoothed_bootstrap_ci(pool, BoonStatistic(5), cfg, resample_size=size)
        assert (ci.lo.hex(), ci.hi.hex()) == self._PINNED_TIED_ROWS[key]

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("size", [None, 7])
    def test_a_callable_gets_each_unsmoothed_resample_worst_to_best(self, direction, size):
        rng = np.random.default_rng(12)
        v, t = rng.integers(0, 5, 40).astype(float), rng.normal(size=40).round(1)
        pool = ResultPool.from_arrays(v, t, direction)
        width = pool.m if size is None else size
        seen = []

        def record(resample):
            seen.append((resample.validation_scores.copy(), resample.test_scores.copy()))
            return 0.0

        bootstrap_ci(pool, record, ResamplingConfig(replicates=100, seed=5), resample_size=size)
        # one chunk holds all 100 resamples: rebuild its draw of positions in the sorted pool
        pos = resampling._rng(5, 0).integers(0, pool.m, size=(100, width))
        sign = 1.0 if direction == "maximize" else -1.0
        order = np.lexsort((sign * t, sign * v))
        assert len(seen) == 100
        for row, (sv, st) in zip(pos, seen):
            assert sorted(zip(sv, st)) == sorted(zip(v[order][row], t[order][row]))
            np.testing.assert_array_equal(sv, pool.validation_scores[np.sort(row)])
            # ascending (validation, test) pairs for maximize, descending for minimize
            assert (np.diff(sign * sv) >= 0).all()
            np.testing.assert_array_equal(np.lexsort((sign * st, sign * sv)), np.arange(width))

    @pytest.mark.parametrize("m", [2**15, 2**15 + 1])
    def test_pool_order_holds_at_the_widest_sixteen_bit_position(self, m):
        # Positions sort as 16-bit integers up to 2**15 records; the best
        # record's position, m - 1, is the largest one and must not wrap around.
        rng = np.random.default_rng(m)
        v, t = rng.permutation(m).astype(float), rng.normal(size=m)
        seen = []

        def record(resample):
            if len(seen) < 8:
                seen.append(resample.validation_scores.copy())
            return 0.0

        bootstrap_ci(ResultPool.from_arrays(v, t), record, ResamplingConfig(replicates=100, seed=5))
        # each chunk holds one full-size resample
        rows = [resampling._rng(5, k).integers(0, m, size=(1, m))[0] for k in range(8)]
        assert any((pos == m - 1).any() for pos in rows)
        for pos, got in zip(rows, seen, strict=True):
            np.testing.assert_array_equal(got, np.sort(v)[np.sort(pos)])

    @pytest.mark.parametrize("run", [bootstrap_ci, smoothed_bootstrap_ci])
    def test_a_changed_copy_of_a_resample_is_a_plain_checked_pool(self, run):
        # A copy with another direction or other scores, made by
        # dataclasses.replace or through the resample's own constructors,
        # must be checked and sorted, as a pool one builds is.
        pool = helpers.bivariate_normal_pool(m=30, seed=8)
        seen = []

        def flipped(resample):
            v, t = resample.validation_scores[::-1], resample.test_scores[::-1]
            plain = ResultPool.from_arrays(v, t, "minimize")
            copies = [
                dataclasses.replace(resample, direction="minimize"),
                resample.from_arrays(v, t, "minimize"),
                resample.from_pairs(zip(v, t), "minimize"),
            ]
            seen.extend((type(copy), boon5(copy), boon5(plain)) for copy in copies)
            with pytest.raises(InvalidDataError):
                dataclasses.replace(resample, test_scores=np.full(pool.m, np.nan))
            return 0.0

        run(pool, flipped, ResamplingConfig(replicates=100, seed=1))
        assert len(seen) == 300
        assert all(kind is ResultPool and a == b for kind, a, b in seen)

    def test_a_pickled_resample_keeps_its_value(self):
        import pickle

        pool = helpers.bivariate_normal_pool(m=30, seed=8, direction="minimize")
        seen = []

        def round_trip(resample):
            copy = pickle.loads(pickle.dumps(resample))
            seen.append(copy == resample and boon5(copy) == boon5(resample))
            return 0.0

        bootstrap_ci(pool, round_trip, ResamplingConfig(replicates=100, seed=1))
        assert seen == [True] * 100

    def test_a_callable_gets_each_smoothed_resample_worst_to_best(self):
        # noise is drawn for the drawn positions; each row is then sorted
        pool = helpers.bivariate_normal_pool(m=40, seed=2, direction="minimize")
        seen = []

        def record(resample):
            seen.append((resample.validation_scores.copy(), resample.test_scores.copy()))
            return 0.0

        cfg = ResamplingConfig(replicates=100, seed=5, bandwidth=0.1)
        smoothed_bootstrap_ci(pool, record, cfg)
        rng = resampling._rng(5, 0)
        pos = rng.integers(0, pool.m, size=(100, pool.m))
        noise = rng.standard_normal((100, pool.m, 2))
        v = pool.validation_scores[pos] + 0.1 * noise[:, :, 0]
        t = pool.test_scores[pos] + 0.1 * noise[:, :, 1]
        assert len(seen) == 100
        for row_v, row_t, (sv, st) in zip(v, t, seen):
            order = np.lexsort((-row_t, -row_v))  # descending pairs: minimize
            np.testing.assert_array_equal(sv, row_v[order])
            np.testing.assert_array_equal(st, row_t[order])

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("m", [50, 2000])
    def test_records_are_sorted_once_when_their_pool_is_built(self, m, direction, monkeypatch):
        # Counts, not timings: a pool built by its user is sorted once, an
        # unsmoothed resample (sorted positions) never, a smoothed one once
        # before its pool is built or its rows are weighed at every n, and
        # Boo(n) never sorts a pool's records.
        calls = []
        pair_order = estimators._pair_order

        def counted(vals, tests):
            calls.append(vals.size)  # records sorted: a pool's, or a chunk's rows × size
            return pair_order(vals, tests)

        monkeypatch.setattr(estimators, "_pair_order", counted)
        pool = self._pinned_pool(direction, m=m)
        assert calls == [m]
        calls.clear()
        cfg = ResamplingConfig(replicates=100, seed=3)
        bootstrap_ci(pool, boon5, cfg)
        assert not calls
        smoothed_bootstrap_ci(pool, boon5, cfg)
        assert sum(calls) == m * 100
        calls.clear()
        bandwidths = resampling._resolve_bandwidths(pool, cfg.bandwidth)
        statistics = [BoonStatistic(n) for n in (1, 5, 20)]
        resampling._bootstrap_intervals(pool, statistics, cfg, bandwidths)
        assert sum(calls) == m * 100
        calls.clear()
        boon5(pool)
        assert not calls


class TestSmoothedBootstrapCI:
    def test_zero_bandwidth_equals_vanilla(self):
        pool = helpers.bivariate_normal_pool(m=25, seed=14)
        cfg = ResamplingConfig(replicates=1500, seed=8, bandwidth=0.0)
        plain = bootstrap_ci(pool, boon5, cfg)
        smooth = smoothed_bootstrap_ci(pool, boon5, cfg)
        assert (smooth.lo, smooth.hi) == (plain.lo, plain.hi)
        assert smooth.method is CIMethod.SMOOTHED_BOOTSTRAP

    def test_identical_records_get_positive_width_from_smoothing(self):
        pool = ResultPool.from_pairs([(0.5, 2.0)] * 16)
        widths = {}
        for h in (1.0, 0.25, 0.0625):
            cfg = ResamplingConfig(replicates=4000, seed=2, bandwidth=h)
            widths[h] = smoothed_bootstrap_ci(pool, mean_test_score, cfg).width
            # normal-theory width for the mean of m noisy copies
            assert widths[h] == pytest.approx(2 * 1.96 * h / math.sqrt(16), rel=0.25)
        assert widths[1.0] > widths[0.25] > widths[0.0625] > 0.0

    def test_best_single_model_band_wider_than_boon5(self):
        pool = helpers.bivariate_normal_pool(m=75, rho=0.2, seed=33)
        cfg = ResamplingConfig(replicates=4000, seed=11)
        bsm = smoothed_bootstrap_ci(pool, best_single_model, cfg)
        boo = smoothed_bootstrap_ci(pool, boon5, cfg)
        assert bsm.width > boo.width
        # same comparison at a reduced resample size (pool-size-m bands)
        bsm20 = smoothed_bootstrap_ci(pool, best_single_model, cfg, resample_size=20)
        boo20 = smoothed_bootstrap_ci(pool, boon5, cfg, resample_size=20)
        assert bsm20.width > boo20.width

    def test_auto_bandwidth_follows_pool_scale(self):
        # same shape, 10x the spread: the smoothed interval scales along
        pool1 = helpers.bivariate_normal_pool(m=40, sigma_test=1.0, seed=3)
        pool10 = ResultPool.from_arrays(pool1.validation_scores, 10.0 * pool1.test_scores)
        cfg = ResamplingConfig(replicates=3000, seed=17)
        w1 = smoothed_bootstrap_ci(pool1, mean_test_score, cfg).width
        w10 = smoothed_bootstrap_ci(pool10, mean_test_score, cfg).width
        assert w10 == pytest.approx(10.0 * w1, rel=1e-9)

    @pytest.mark.parametrize("statistic", [boon5, BoonStatistic(5)])
    def test_overflowing_draws_are_failed_replicates(self, statistic):
        pool = ResultPool.from_arrays([1e308, -1e308, 5e307, 0.0], [1.0, 2.0, 3.0, 4.0])
        cfg = ResamplingConfig(replicates=200, seed=0, bandwidth=1e308)
        with pytest.raises(ResamplingDegenerateError):
            smoothed_bootstrap_ci(pool, statistic, cfg)

    def test_an_overflowing_automatic_bandwidth_is_named(self):
        # the test scores' spread overflows; the validations' does not
        pool = ResultPool.from_arrays([0.0, 1.0, 2.0, 3.0], [-1e308, 0.0, 1e308, 1e308])
        cfg = ResamplingConfig(replicates=200, seed=0)
        match = r"^the automatic test bandwidth overflows the float range; .*--bandwidth"
        with pytest.raises(DegeneratePoolError, match=match):
            smoothed_bootstrap_ci(pool, boon5, cfg)
        with pytest.raises(DegeneratePoolError, match=match):
            best_of_m_curve(pool, [1, 2], 200, cfg)
        flipped = ResultPool.from_arrays(pool.test_scores, pool.validation_scores)
        with pytest.raises(DegeneratePoolError, match="automatic validation bandwidth"):
            best_of_m_curve(flipped, [1, 2], 200, cfg)
        # no smoothed draw, no bandwidth: the curve's points need none
        (point,) = best_of_m_curve(pool, [2], 200, cfg, with_ci=False)
        assert point.ci is None and math.isfinite(point.expected_best_test)
        smoothed_bootstrap_ci(pool, boon5, dataclasses.replace(cfg, bandwidth=0.5))


class TestMonteCarloCI:
    def test_vanishing_spread_collapses_to_the_mean(self):
        params = GaussianParams(mu_val=0.0, mu_test=5.0, sigma_val=1e-9, sigma_test=1e-9, rho=0.3)
        ci = monte_carlo_ci_gaussian(
            params, m=10, n=4, estimator_kind=EstimatorKind.NONPARAMETRIC,
            config=ResamplingConfig(replicates=500, seed=5),
        )
        assert ci.lo == pytest.approx(5.0, abs=1e-6)
        assert ci.hi == pytest.approx(5.0, abs=1e-6)

    def test_interval_contains_true_value_under_perfect_correlation(self):
        params = GaussianParams(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=1.0)
        ci = monte_carlo_ci_gaussian(
            params, m=200, n=5, estimator_kind=EstimatorKind.NONPARAMETRIC,
            config=ResamplingConfig(replicates=2000, seed=29),
        )
        assert ci.contains(1.163)

    def test_smaller_pools_give_wider_intervals(self):
        params = GaussianParams(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=0.5)
        widths_20 = []
        widths_200 = []
        for seed in range(50):
            cfg = ResamplingConfig(replicates=400, seed=seed)
            widths_20.append(
                monte_carlo_ci_gaussian(params, 20, 5, EstimatorKind.NONPARAMETRIC, cfg).width
            )
            widths_200.append(
                monte_carlo_ci_gaussian(params, 200, 5, EstimatorKind.NONPARAMETRIC, cfg).width
            )
        assert np.mean(widths_20) > np.mean(widths_200)

    def test_parametric_kind_matches_nonparametric_roughly(self):
        params = GaussianParams(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=0.4)
        cfg = ResamplingConfig(replicates=2000, seed=3)
        np_ci = monte_carlo_ci_gaussian(params, 80, 5, EstimatorKind.NONPARAMETRIC, cfg)
        pa_ci = monte_carlo_ci_gaussian(params, 80, 5, EstimatorKind.GAUSSIAN_PARAMETRIC, cfg)
        # same target quantity; centers should agree within interval scale
        assert abs((np_ci.lo + np_ci.hi) / 2 - (pa_ci.lo + pa_ci.hi) / 2) < np_ci.width

    def test_parametric_kind_needs_three_records(self):
        params = GaussianParams(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(InsufficientDataError):
            monte_carlo_ci_gaussian(
                params, 2, 5, EstimatorKind.GAUSSIAN_PARAMETRIC,
                ResamplingConfig(replicates=200, seed=0),
            )

    def test_deterministic_and_parallel_safe(self):
        params = GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5)
        cfg = ResamplingConfig(replicates=600, seed=44)
        a = monte_carlo_ci_gaussian(params, 30, 5, EstimatorKind.NONPARAMETRIC, cfg, workers=1)
        b = monte_carlo_ci_gaussian(params, 30, 5, EstimatorKind.NONPARAMETRIC, cfg, workers=4)
        assert a == b

    def test_nonparametric_chunk_is_sorted_validations_plus_one_residual(self):
        params = GaussianParams(mu_val=1.0, mu_test=2.0, sigma_val=0.5, sigma_test=1.5, rho=0.6)
        m, n, seed = 9, 4, 13
        rows = 16384 // m  # one chunk
        rng = resampling._rng(seed, 0)
        z = rng.standard_normal((rows, m))
        g = rng.standard_normal(rows)
        z.sort(axis=1)
        w = np.diff((np.arange(m + 1) / m) ** n)
        want = (
            params.mu_test * w.sum()
            + params.rho * params.sigma_test * (z @ w)
            + params.sigma_test * math.sqrt(1.0 - params.rho**2) * math.sqrt(w @ w) * g
        )
        block = resampling._monte_carlo_block(params, m, n, EstimatorKind.NONPARAMETRIC)
        np.testing.assert_array_equal(block(resampling._rng(seed, 0), rows), want)
        cfg = ResamplingConfig(replicates=rows, seed=seed)
        ci = monte_carlo_ci_gaussian(params, m, n, EstimatorKind.NONPARAMETRIC, cfg)
        assert [ci.lo, ci.hi] == np.quantile(want, [(1 - 0.95) / 2, (1 + 0.95) / 2]).tolist()

    @pytest.mark.parametrize("sigma_val", [1.0, 1e300])
    def test_validation_scale_leaves_the_interval_alone(self, sigma_val):
        # Validations only rank the records; at 1e308 they overflow, and
        # those replicates fail (see _OVERFLOW_CASES).
        params = GaussianParams(0.0, 1.0, sigma_val, 1.0, 0.5)
        cfg = ResamplingConfig(replicates=2000, seed=0)
        ci = monte_carlo_ci_gaussian(params, 20, 5, EstimatorKind.NONPARAMETRIC, cfg)
        assert (ci.lo.hex(), ci.hi.hex()) == ("0x1.ac1922efc7178p-1", "0x1.20a2584894751p+1")

    def test_overflowing_validation_rows_are_nan_and_the_others_unchanged(self):
        # Equal infinities are no tie: such a row fails instead of taking
        # tie-averaged weights.
        m, n, rows = 20, 5, 16384 // 20
        blocks = [
            resampling._monte_carlo_block(GaussianParams(0.0, 1.0, s, 1.0, 0.5), m, n,
                                          EstimatorKind.NONPARAMETRIC)
            for s in (1.0, 1e308)
        ]
        with np.errstate(over="ignore"):
            base, huge = (block(resampling._rng(0, 0), rows) for block in blocks)
            z = resampling._rng(0, 0).standard_normal((rows, m))
            over = ~np.isfinite(1e308 * z).all(axis=1)
        assert 0 < over.sum() < rows
        np.testing.assert_array_equal(np.isnan(huge), over)
        np.testing.assert_array_equal(huge[~over], base[~over])

    def test_gaussian_chunk_is_the_simulated_pool(self):
        params = GaussianParams(mu_val=1.0, mu_test=2.0, sigma_val=0.5, sigma_test=1.5, rho=0.6)
        m, n, seed = 9, 4, 13
        rows = 16384 // m
        z = resampling._rng(seed, 0).standard_normal((rows, m, 2))
        vals, tests = simulated_pools(params, z)
        want = resampling._gaussian_boon(vals, tests, [std_normal_expected_max(n)])[:, 0]
        block = resampling._monte_carlo_block(params, m, n, EstimatorKind.GAUSSIAN_PARAMETRIC)
        np.testing.assert_array_equal(block(resampling._rng(seed, 0), rows), want)
        cfg = ResamplingConfig(replicates=rows, seed=seed)
        ci = monte_carlo_ci_gaussian(params, m, n, EstimatorKind.GAUSSIAN_PARAMETRIC, cfg)
        assert [ci.lo, ci.hi] == np.quantile(want, [(1 - 0.95) / 2, (1 + 0.95) / 2]).tolist()

    @pytest.mark.parametrize("params, tied", [
        (GaussianParams(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=0.8), False),
        # validations round onto a few values near 1e6, so most pools hold ties
        (GaussianParams(mu_val=1e6, mu_test=0.0, sigma_val=1e-10, sigma_test=1.0, rho=0.3), True),
    ], ids=["rho-0.8", "rounding-tied"])
    def test_replicates_are_distributed_as_simulated_pools(self, params, tied):
        m, n, count = 10, 5, 20_000
        block = resampling._monte_carlo_block(params, m, n, EstimatorKind.NONPARAMETRIC)
        fast = resampling._chunked_replicates(count, m, 1, block)
        z = np.random.default_rng(2).standard_normal((count, m, 2))
        vals, tests = simulated_pools(params, z)
        sorted_vals = np.sort(vals, axis=1)
        tied_share = (sorted_vals[:, 1:] == sorted_vals[:, :-1]).any(axis=1).mean()
        assert tied_share > 0.9 if tied else tied_share == 0.0
        slow = [boon_nonparametric(ResultPool.from_arrays(v, t), n).value
                for v, t in zip(vals, tests)]
        assert scipy_stats.ks_2samp(fast, slow).pvalue > 0.01


class TestBestOfMCurve:
    def test_m1_recovers_the_test_mean(self):
        pool = helpers.bivariate_normal_pool(m=60, rho=0.5, seed=18)
        (point,) = best_of_m_curve(
            pool, [1], 40_000, ResamplingConfig(replicates=500, seed=2), with_ci=False
        )
        assert abs(point.expected_best_test - float(pool.test_scores.mean())) <= 3 * point.mc_se

    def test_toy_pool_matches_enumeration(self):
        records = [(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)]
        pool = ResultPool.from_pairs(records)
        (point,) = best_of_m_curve(
            pool, [2], 200_000, ResamplingConfig(replicates=500, seed=7), with_ci=False
        )
        assert point.expected_best_test == pytest.approx(oracles.enumerate_boon(records, 2), abs=0.05)
        assert point.expected_best_test == pytest.approx(220 / 9, abs=0.05)

    def test_points_whose_plain_sums_overflow_are_finite(self):
        # No np.errstate around the call: a point whose draws' sums overflow takes its mean
        # and Monte Carlo error from the draws scaled by their largest magnitude, here 1e308,
        # and no floating-point warning escapes.
        v, t = np.arange(4.0), np.array([-1e308, 0.0, 1e308, 1e308])
        cfg = ResamplingConfig(replicates=200, seed=3)
        points, scaled = (
            best_of_m_curve(ResultPool.from_arrays(v, tests), [1, 2, 3], 500, cfg, with_ci=False)
            for tests in (t, t / 1e308)
        )
        for point, unit in zip(points, scaled):
            assert point.expected_best_test == unit.expected_best_test * 1e308
            assert point.mc_se == unit.mc_se * 1e308
            assert math.isfinite(point.expected_best_test) and math.isfinite(point.mc_se)
        first = points[0]  # m = 1: the test mean, 2.5e307
        assert abs(first.expected_best_test - 2.5e307) <= 4 * first.mc_se

    def test_perfect_correlation_curve_is_nondecreasing(self):
        rng = np.random.default_rng(40)
        scores = rng.normal(size=80)
        pool = ResultPool.from_pairs(list(zip(scores, scores)))
        points = best_of_m_curve(
            pool, list(range(1, 11)), 30_000, ResamplingConfig(replicates=500, seed=3),
            with_ci=False,
        )
        values = [p.expected_best_test for p in points]
        assert all(b >= a - 3 * (points[0].mc_se or 0) for a, b in zip(values, values[1:]))

    def test_agrees_with_rank_weighted_estimator(self):
        pool = helpers.bivariate_normal_pool(m=50, rho=0.4, seed=51)
        points = best_of_m_curve(
            pool, [1, 3, 7, 10], 20_000, ResamplingConfig(replicates=500, seed=13),
            with_ci=False,
        )
        for p in points:
            exact = boon_nonparametric(pool, p.m).value
            assert abs(p.expected_best_test - exact) <= 4 * p.mc_se

    def test_curve_points_carry_bands_when_requested(self):
        pool = helpers.bivariate_normal_pool(m=40, rho=0.3, seed=66)
        points = best_of_m_curve(pool, [2, 5], 2000, ResamplingConfig(replicates=800, seed=4))
        for p in points:
            assert p.ci is not None
            assert p.ci.lo <= p.expected_best_test <= p.ci.hi or p.ci.width > 0

    def test_deterministic_and_parallel_safe(self):
        pool = helpers.bivariate_normal_pool(m=25, rho=0.2, seed=55)
        cfg = ResamplingConfig(replicates=400, seed=1)
        # 40,000 samples make three chunks of 2**14; workers has no effect
        a = best_of_m_curve(pool, [1, 4, 6], 40_000, cfg, workers=1)
        b = best_of_m_curve(pool, [1, 4, 6], 40_000, cfg, workers=3)
        assert a == b

    def test_per_m_streams_do_not_depend_on_list_order(self):
        pool = helpers.bivariate_normal_pool(m=25, rho=0.2, seed=55)
        cfg = ResamplingConfig(replicates=400, seed=1)
        forward = best_of_m_curve(pool, [2, 5], 2000, cfg, with_ci=False)
        backward = best_of_m_curve(pool, [5, 2], 2000, cfg, with_ci=False)
        assert forward[0] == backward[1] and forward[1] == backward[0]

    def test_empty_m_values_rejected(self):
        pool = helpers.bivariate_normal_pool(m=5, seed=2)
        with pytest.raises(ValueError):
            best_of_m_curve(pool, [], 100, ResamplingConfig(replicates=500, seed=0))

    def test_point_is_the_documented_nested_scan(self):
        # every sample is a nested sequence of records; chunk k of 2**14
        # samples draws from the stream (seed, run, k), record by record for
        # all of its rows: an index, then (band only) a (2, rows) noise draw.
        # Point m takes the first best-validation record among the first m.
        base = helpers.bivariate_normal_pool(m=40, rho=0.5, seed=8)
        pool = ResultPool.from_arrays(
            base.validation_scores.round(1), base.test_scores, Direction.MINIMIZE
        )
        m, seed, h, samples, replicates = 5, 12, 0.25, 20_000, 5000
        cfg = ResamplingConfig(replicates=replicates, seed=seed, bandwidth=h)
        (point,) = best_of_m_curve(pool, [m], samples, cfg)

        def best_tests(run, count, h):
            out = []
            for k in range(-(-count // 2**14)):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run, k)))
                rows = min(2**14, count - k * 2**14)
                v, t = np.empty((rows, m)), np.empty((rows, m))
                for j in range(m):
                    idx = rng.integers(0, pool.m, size=rows)
                    v[:, j], t[:, j] = -pool.validation_scores[idx], -pool.test_scores[idx]
                    if h:
                        noise = rng.standard_normal((2, rows))
                        v[:, j] += h * noise[0]
                        t[:, j] += h * noise[1]
                out.append(-t[np.arange(rows), v.argmax(axis=1)])
            return np.concatenate(out)

        draws = best_tests(0, samples, 0.0)
        assert point.expected_best_test == float(draws.mean())
        assert point.mc_se == float(draws.std(ddof=1) / math.sqrt(samples))
        level = cfg.level
        lo, hi = np.quantile(best_tests(1, replicates, h), [(1 - level) / 2, (1 + level) / 2])
        assert (point.ci.lo, point.ci.hi) == (lo, hi)

    def test_point_does_not_depend_on_the_other_points(self, monkeypatch):
        base = helpers.bivariate_normal_pool(m=30, rho=0.4, seed=9)
        pool = ResultPool.from_arrays(base.validation_scores.round(1), base.test_scores)
        cfg = ResamplingConfig(replicates=700, seed=5)
        m, samples = 7, 3000
        (alone,) = best_of_m_curve(pool, [m], samples, cfg)
        full = best_of_m_curve(pool, range(1, 21), samples, cfg)
        pair = best_of_m_curve(pool, [20, m], samples, cfg)
        assert alone.ci is not None
        assert alone == full[m - 1] == pair[1]
        assert full[19] == pair[0]
        # a scan holding one point's samples at a time gives the same curve
        monkeypatch.setattr(resampling, "_CURVE_VALUES", samples)
        assert best_of_m_curve(pool, range(1, 21), samples, cfg) == full

    @pytest.mark.parametrize("direction", [Direction.MAXIMIZE, Direction.MINIMIZE])
    def test_first_of_tied_records_is_unbiased(self, direction):
        # 3 distinct validations over 12 records, tests differing within ties
        rng = np.random.default_rng(31)
        vals = np.repeat([0.1, 0.2, 0.3], 4)
        pool = ResultPool.from_arrays(vals, rng.normal(size=12), direction)
        points = best_of_m_curve(
            pool, range(1, 21), 1_000_000, ResamplingConfig(replicates=500, seed=17),
            with_ci=False,
        )
        for p in points:
            exact = boon_nonparametric(pool, p.m).value
            assert abs(p.expected_best_test - exact) <= 4 * p.mc_se

    def test_sample_count_is_bounded(self):
        # refused before the 8 TB of draws would be allocated
        pool = helpers.bivariate_normal_pool(m=5, seed=2)
        with pytest.raises(ValueError, match="samples_per_m"):
            best_of_m_curve(pool, [2], 10**12, ResamplingConfig(replicates=500, seed=0))


class TestCompareArchitectures:
    def test_identical_pools_are_not_significant(self):
        pool = helpers.bivariate_normal_pool(m=30, rho=0.4, seed=3)
        result = compare_architectures(pool, pool, 5, ResamplingConfig(replicates=2000, seed=8))
        assert result.delta == 0.0
        assert not result.significant
        assert result.ci.lo <= 0.0 <= result.ci.hi

    def test_shifted_pool_recovers_the_shift(self):
        delta = 1.75
        pool_a = helpers.bivariate_normal_pool(m=40, rho=0.5, seed=19)
        pool_b = ResultPool.from_arrays(
            pool_a.validation_scores + delta, pool_a.test_scores + delta
        )
        result = compare_architectures(
            pool_a, pool_b, 5, ResamplingConfig(replicates=2000, seed=9)
        )
        assert result.delta == pytest.approx(delta, abs=1e-9)
        assert result.ci.contains(delta)

    def test_single_record_pools_are_refused(self):
        one = ResultPool.from_pairs([(1.0, 2.0)])
        two = ResultPool.from_pairs([(1.0, 4.5), (2.0, 3.0)])
        cfg = ResamplingConfig(replicates=500, seed=0)
        with pytest.raises(InsufficientDataError, match="pool A"):
            compare_architectures(one, two, 3, cfg)
        with pytest.raises(InsufficientDataError, match="pool B"):
            compare_architectures(two, one, 3, cfg)

    def test_direction_mismatch_rejected(self):
        pool_a = helpers.bivariate_normal_pool(m=5, seed=1)
        pool_b = helpers.bivariate_normal_pool(m=5, seed=2, direction=Direction.MINIMIZE)
        with pytest.raises(ValueError):
            compare_architectures(pool_a, pool_b, 5, ResamplingConfig(replicates=500, seed=0))

    def test_deterministic_and_parallel_safe(self):
        pool_a = helpers.bivariate_normal_pool(m=20, seed=1)
        pool_b = helpers.bivariate_normal_pool(m=25, seed=2)
        cfg = ResamplingConfig(replicates=800, seed=31)
        assert compare_architectures(pool_a, pool_b, 5, cfg, workers=1) == (
            compare_architectures(pool_a, pool_b, 5, cfg, workers=4)
        )

    def test_minimize_direction_duality(self):
        pool_a = helpers.bivariate_normal_pool(m=15, rho=0.3, seed=4)
        pool_b = helpers.bivariate_normal_pool(m=18, rho=0.3, seed=5)
        neg_a = ResultPool.from_arrays(
            -pool_a.validation_scores, -pool_a.test_scores, Direction.MINIMIZE
        )
        neg_b = ResultPool.from_arrays(
            -pool_b.validation_scores, -pool_b.test_scores, Direction.MINIMIZE
        )
        cfg = ResamplingConfig(replicates=600, seed=12)
        result = compare_architectures(pool_a, pool_b, 4, cfg)
        dual = compare_architectures(neg_a, neg_b, 4, cfg)
        assert dual.delta == pytest.approx(-result.delta, abs=1e-12)
        assert dual.ci.lo == pytest.approx(-result.ci.hi, rel=1e-12)
        assert dual.ci.hi == pytest.approx(-result.ci.lo, rel=1e-12)


def _row_oracle(pool, idx, statistic):
    """The statistic on each resample row, through the per-pool estimators;
    NaN where the estimator rejects the resample."""
    out = []
    for row in idx:
        resample = ResultPool.from_arrays(
            pool.validation_scores[row], pool.test_scores[row], pool.direction
        )
        try:
            out.append(statistic(resample))
        except BestOfNError:
            out.append(math.nan)
    return np.array(out)


class TestEngine:
    """The vectorised Boo(n) engine against the one-pool estimators."""

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_rows_match_the_estimators_on_the_same_index_blocks(self, direction, kind):
        rng = np.random.default_rng(808)
        checked = 0
        # equal 0.1 validations have a mean that rounds away from 0.1
        inexact = [(0.1, 4.0), (0.1, 5.0), (0.1, 6.0), (0.7, 5.0)]
        for records in [helpers.random_tied_records(rng, m_max=8) for _ in range(30)] + [
            inexact
        ]:
            pool = ResultPool.from_pairs(records, direction)
            for n in (1, 2, 5, 20):
                for size in {pool.m, 3, 11}:
                    stat = BoonStatistic(n, kind)
                    if kind is EstimatorKind.GAUSSIAN_PARAMETRIC and size < 3:
                        continue
                    block = resampling._boon_block(pool, kind, [n], size)
                    got = block(np.random.default_rng(n), 25)[:, 0]
                    idx = np.random.default_rng(n).integers(0, pool.m, size=(25, size))
                    want = _row_oracle(pool, idx, stat)
                    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
                    scale = np.abs(pool.test_scores).max()
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
                    checked += 1
        assert checked > 250

    def test_boon_statistic_and_a_callable_see_the_same_resamples_up_to_2048_records(self):
        # above 2,048 records a BoonStatistic's chunks are wider than a
        # callable's, so the two read other streams
        rng = np.random.default_rng(2048)
        pool = ResultPool.from_arrays(rng.normal(size=2048).round(2), rng.normal(size=2048))
        cfg = ResamplingConfig(replicates=100, seed=1)
        fast = bootstrap_ci(pool, BoonStatistic(5), cfg)
        slow = bootstrap_ci(pool, lambda p: boon_nonparametric(p, 5).value, cfg)
        assert fast.lo == pytest.approx(slow.lo, rel=1e-12)
        assert fast.hi == pytest.approx(slow.hi, rel=1e-12)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_boon_statistic_agrees_with_the_generic_path(self, kind):
        records = helpers.random_tied_records(np.random.default_rng(5), m_max=40) + [
            (0.5, 7.0), (1.5, 12.0), (2.5, 3.0)
        ]
        if kind is EstimatorKind.NONPARAMETRIC:
            generic = lambda p: boon_nonparametric(p, 5).value  # noqa: E731
        else:
            generic = lambda p: boon_parametric_gaussian(p, 5).value  # noqa: E731
        for bandwidth in (0.0, "auto"):
            for direction in ("maximize", "minimize"):
                pool = ResultPool.from_pairs(records, direction)
                cfg = ResamplingConfig(replicates=2000, seed=17, bandwidth=bandwidth)
                fast = smoothed_bootstrap_ci(pool, BoonStatistic(5, kind), cfg)
                slow = smoothed_bootstrap_ci(pool, generic, cfg)
                assert fast.lo == pytest.approx(slow.lo, rel=1e-12)
                assert fast.hi == pytest.approx(slow.hi, rel=1e-12)

    def test_compare_matches_the_estimators_on_its_index_blocks(self):
        pool_a = helpers.bivariate_normal_pool(m=7, rho=0.3, seed=4, direction="minimize")
        pool_b = ResultPool.from_pairs(
            [(1.0, 2.0), (1.0, 3.0), (0.0, 5.0), (2.0, 1.0)], "minimize"
        )
        cfg = ResamplingConfig(replicates=100, seed=3)
        ci = compare_architectures(pool_a, pool_b, 3, cfg).ci
        # one chunk holds all 100 replicates: A's index block, then B's
        rng = resampling._rng(3, 0)
        idx_a = rng.integers(0, pool_a.m, size=(100, pool_a.m))
        idx_b = rng.integers(0, pool_b.m, size=(100, pool_b.m))
        stat = BoonStatistic(3)
        want = _row_oracle(pool_b, idx_b, stat) - _row_oracle(pool_a, idx_a, stat)
        lo, hi = np.quantile(want, [0.025, 0.975])
        assert ci.lo == pytest.approx(lo, rel=1e-12)
        assert ci.hi == pytest.approx(hi, rel=1e-12)

    def test_bootstrap_mean_oracle_agrees_with_enumerated_resamples(self):
        records = [(0.0, 1.0), (1.0, 3.0), (1.0, 5.0), (2.0, -1.0)]
        for direction in ("maximize", "minimize"):
            for s in (1, 3, 4):
                resamples = itertools.product(records, repeat=s)
                want = np.mean([
                    boon_nonparametric(ResultPool.from_pairs(r, direction), 3).value
                    for r in resamples
                ])
                got = oracles.bootstrap_boon_mean(records, 3, s, direction)
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("pool_kind", ["untied", "tied", "large tied"])
    @pytest.mark.parametrize("path", ["count kernel", "callable"])
    @pytest.mark.parametrize("size", [None, 7])
    def test_replicate_mean_matches_the_exact_bootstrap_mean(
        self, direction, pool_kind, path, size
    ):
        rng = np.random.default_rng(len(pool_kind))
        m = 1000 if pool_kind == "large tied" else 40
        v, t = rng.normal(size=m), rng.normal(size=m)
        if pool_kind != "untied":
            v = rng.integers(0, 12, m) / 4.0
        pool = ResultPool.from_arrays(v, t + 0.8 * v, direction)
        s = pool.m if size is None else size
        if path == "count kernel":
            block = resampling._boon_block(pool, EstimatorKind.NONPARAMETRIC, [5], s)
        else:
            block = resampling._statistic_block(pool, boon5, s, ())
        replicates = 500 if m == 1000 and size is None else 2000
        values = resampling._chunked_replicates(replicates, s, 13, block)
        want = oracles.bootstrap_boon_mean(
            list(zip(pool.validation_scores, pool.test_scores)), 5, s, direction
        )
        # bound fixed before running: 4 replicate standard errors
        assert abs(values.mean() - want) <= 4 * values.std(ddof=1) / math.sqrt(replicates)

    def test_overflowing_kernel_rows_are_failed_replicates(self):
        # a resample holding both 1e308 tests sums them to inf
        pool = ResultPool.from_arrays([0.0, 0.0, 1.0], [1e308, 1e308, 0.0])
        with pytest.raises(ResamplingDegenerateError):
            bootstrap_ci(pool, BoonStatistic(5), ResamplingConfig(replicates=100, seed=0))

    def test_all_tied_validations_make_every_n_the_test_mean(self):
        params = GaussianParams(mu_val=63.5, mu_test=0.0, sigma_val=1e-300, sigma_test=1.0, rho=0.0)
        cfg = ResamplingConfig(replicates=500, seed=7)
        n1 = monte_carlo_ci_gaussian(params, 20, 1, EstimatorKind.NONPARAMETRIC, cfg)
        n5 = monte_carlo_ci_gaussian(params, 20, 5, EstimatorKind.NONPARAMETRIC, cfg)
        assert (n5.lo, n5.hi) == (n1.lo, n1.hi)

    def test_monte_carlo_rows_match_the_estimators(self):
        params = GaussianParams(mu_val=1.0, mu_test=2.0, sigma_val=0.5, sigma_test=1.5, rho=0.6)
        m, n = 9, 4
        z = np.random.default_rng(1).standard_normal((50, m, 2))
        vals = params.mu_val + params.sigma_val * z[:, :, 0]
        tests = params.mu_test + params.sigma_test * (
            params.rho * z[:, :, 0] + math.sqrt(1 - params.rho**2) * z[:, :, 1]
        )
        vals[:5, 1] = vals[:5, 0]  # tied validations take the grouped formula
        rows = estimators._worst_to_best(vals, tests, Direction.MAXIMIZE)
        got = resampling._sorted_boon(*rows, n)
        want = [boon_nonparametric(ResultPool.from_arrays(v, t), n).value
                for v, t in zip(vals, tests)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_chunk_layout_ignores_the_replicate_count(self):
        # replicate r of a longer run equals replicate r of a shorter one
        pool = helpers.bivariate_normal_pool(m=30, seed=6)
        block = resampling._boon_block(pool, EstimatorKind.NONPARAMETRIC, [5], pool.m)
        short = resampling._chunked_replicates(700, pool.m, 9, block)
        long = resampling._chunked_replicates(1500, pool.m, 9, block)
        np.testing.assert_array_equal(short, long[:700])

    def test_many_n_at_a_large_replicate_count_stay_in_the_run_budget(self):
        # 30 n at 200,000 replicates: one block would hold 6e6 values (48 MB);
        # runs of 2**21 // 200,000 = 10 n hold 2e6 (16 MB).
        pool = helpers.bivariate_normal_pool(m=20, rho=0.5, seed=3)
        config = ResamplingConfig(replicates=200_000, seed=1)
        statistics = [BoonStatistic(n) for n in range(1, 31)]
        tracemalloc.start()
        try:
            cis = resampling._bootstrap_intervals(pool, statistics, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cis) == 30
        # the budget plus a quarter for one chunk's and one quantile's temporaries
        assert peak < 1.25 * 8 * resampling._CURVE_VALUES

    @pytest.mark.parametrize(
        "m,replicates,runs",
        [(40, 100, 3), (40, 500, 13), (600, 100, 25)],  # 10, 2 and 1 n per run
    )
    def test_n_list_is_split_to_the_run_budget(self, monkeypatch, m, replicates, runs):
        # a group holds budget // max(replicates, size + 1) n
        monkeypatch.setattr(resampling, "_CURVE_VALUES", 1000)
        pool = helpers.bivariate_normal_pool(m=m, rho=0.5, seed=3)
        config = ResamplingConfig(replicates=replicates, seed=2)
        statistics = [BoonStatistic(n) for n in range(1, 26)]
        first_chunks = []
        rng = resampling._rng
        monkeypatch.setattr(
            resampling, "_rng", lambda *key: first_chunks.append(key == (2, 0)) or rng(*key)
        )
        cis = resampling._bootstrap_intervals(pool, statistics, config)
        assert sum(first_chunks) == runs
        monkeypatch.setattr(resampling, "_rng", rng)
        for n, ci in zip((1, 13, 25), cis[::12]):
            assert ci == bootstrap_ci(pool, BoonStatistic(n), config)

    def test_small_resamples_of_a_large_pool_use_bounded_memory(self):
        # 1,638 ten-record resamples per chunk: one (rows, pool.m) count
        # block would take about 260 MB here.
        pool = helpers.bivariate_normal_pool(m=20_000, rho=0.5, seed=3)
        stat = BoonStatistic(5)
        tracemalloc.start()
        try:
            bootstrap_ci(pool, stat, ResamplingConfig(replicates=2000, seed=1), resample_size=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # the kernel's row slices come back in row order
        block = resampling._boon_block(pool, stat.kind, [stat.n], 10)
        got = block(np.random.default_rng(2), 40)[:, 0]
        idx = np.random.default_rng(2).integers(0, pool.m, size=(40, 10))
        np.testing.assert_allclose(got, _row_oracle(pool, idx, stat), rtol=1e-12)

    def test_a_row_with_a_failed_point_is_redrawn_whole(self):
        # a (rows, points) block whose second point fails in about 0.5% of rows
        def block(rng, rows):
            out = rng.random((rows, 3))
            out[out[:, 0] < 0.005, 1] = math.nan
            return out

        values = resampling._chunked_replicates(5000, 1, 4, block)
        first = block(np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0,))), 5000)
        failed = np.isnan(first).any(axis=1)
        assert values.shape == (5000, 3) and failed.any() and not np.isnan(values).any()
        np.testing.assert_array_equal(values[~failed], first[~failed])
        assert (values[failed] != first[failed]).all()

    # float.hex of compare_architectures(A, B, 5) at 100 replicates, seed 11,
    # recorded at stream version 7 after test_wide_chunks_are_the_documented_streams
    # passed: 9,000 records a replicate make 7 replicates a chunk, so the last
    # chunk holds 2.
    _PINNED_COMPARE = {
        (False, "maximize"): ("0x1.25b4823756327p-5", "0x1.6e46c34f29448p-3"),
        (False, "minimize"): ("0x1.947bc91109cbdp-5", "0x1.72ea0d23d7732p-3"),
        (True, "maximize"): ("0x1.fc6620e1db2abp-5", "0x1.7b31d5686d8fbp-3"),
        (True, "minimize"): ("0x1.6e11b99d8e4fcp-5", "0x1.77e6b832909d6p-3"),
    }

    @staticmethod
    def _search_pool(m, seed, tied, direction, shift=0.0):
        rng = np.random.default_rng([seed, m])
        v = rng.normal(size=m)
        t = 0.6 * v + 0.8 * rng.normal(size=m) + shift
        return ResultPool.from_arrays(v.round(1) if tied else v, t, direction)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_compare_in_wide_chunks_is_pinned_to_the_bit(self, tied, direction):
        pool_a = self._search_pool(5000, 1, tied, direction)
        pool_b = self._search_pool(4000, 2, tied, direction, shift=0.1)
        ci = compare_architectures(pool_a, pool_b, 5, ResamplingConfig(replicates=100, seed=11)).ci
        assert (ci.lo.hex(), ci.hi.hex()) == self._PINNED_COMPARE[tied, direction]

    def test_boon_run_in_wide_chunks_is_pinned_to_the_bit(self):
        # 5,000 records: 8 replicates a chunk, and a last chunk of 4; recorded
        # at stream version 7 after test_wide_chunks_are_the_documented_streams passed
        pool = self._search_pool(5000, 3, True, "minimize")
        cis = resampling._bootstrap_intervals(
            pool, [BoonStatistic(n) for n in (1, 5, 20)], ResamplingConfig(replicates=100, seed=12)
        )
        assert [(ci.lo.hex(), ci.hi.hex()) for ci in cis] == [
            ("-0x1.f5917559f60b7p-6", "0x1.9fcafa7181619p-6"),
            ("-0x1.8596ed0e0352ap-1", "-0x1.5b720b831fbdbp-1"),
            ("-0x1.3b3ee1e4a63eap+0", "-0x1.1659bd3899abap+0"),
        ]

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_wide_chunks_are_the_documented_streams(self, monkeypatch, tied):
        # Vectorised runs of more than 2,048 records hold min(8, 2**16 // size)
        # replicates a chunk: 8 of 5,000 records, 7 of a 9,000-record compare.
        runs = []
        chunked = resampling._chunked_replicates
        monkeypatch.setattr(
            resampling, "_chunked_replicates",
            lambda *a, **k: runs.append(chunked(*a, **k)) or runs[-1],
        )
        pool = self._search_pool(5000, 3, tied, "minimize")
        statistics = [BoonStatistic(n) for n in (1, 5, 20)]
        resampling._bootstrap_intervals(pool, statistics, ResamplingConfig(replicates=100, seed=12))
        pool_a = self._search_pool(5000, 1, tied, "maximize")
        pool_b = self._search_pool(4000, 2, tied, "maximize", shift=0.1)
        compare_architectures(pool_a, pool_b, 5, ResamplingConfig(replicates=100, seed=11))
        boon_values, compare_values = runs

        want = []
        for k, first in enumerate(range(0, 100, 8)):
            idx = resampling._rng(12, k).integers(0, pool.m, size=(min(8, 100 - first), pool.m))
            want.append(np.stack([_row_oracle(pool, idx, s) for s in statistics], axis=1))
        np.testing.assert_allclose(boon_values, np.concatenate(want), rtol=1e-12)

        want = []
        for k, first in enumerate(range(0, 100, 7)):
            rng, rows = resampling._rng(11, k), min(7, 100 - first)
            idx_a = rng.integers(0, pool_a.m, size=(rows, pool_a.m))  # A's records first
            idx_b = rng.integers(0, pool_b.m, size=(rows, pool_b.m))
            stat = BoonStatistic(5)
            want.append(_row_oracle(pool_b, idx_b, stat) - _row_oracle(pool_a, idx_a, stat))
        np.testing.assert_allclose(compare_values[:, 0], np.concatenate(want), rtol=1e-12)

    @pytest.mark.parametrize("routine,chunks", [
        ("bootstrap", 13), ("gaussian bootstrap", 13), ("smoothed gaussian", 13),
        ("monte carlo gaussian", 13), ("compare", 15),  # 100 replicates in chunks of 8 or 7
        ("smoothed", 34), ("callable", 34), ("monte carlo", 34),  # in chunks of 3
    ])
    def test_only_vectorised_runs_take_wide_chunks(self, monkeypatch, routine, chunks):
        pool = self._search_pool(5000, 3, False, "maximize")
        config = ResamplingConfig(replicates=100, seed=1)
        smoothed = ResamplingConfig(replicates=100, seed=1, bandwidth=0.1)
        params = GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5)
        gaussian = EstimatorKind.GAUSSIAN_PARAMETRIC
        run = {
            "bootstrap": lambda: bootstrap_ci(pool, BoonStatistic(5), config),
            "gaussian bootstrap": lambda: bootstrap_ci(pool, BoonStatistic(5, gaussian), config),
            "smoothed gaussian": lambda: smoothed_bootstrap_ci(
                pool, BoonStatistic(5, gaussian), smoothed
            ),
            "monte carlo gaussian": lambda: monte_carlo_ci_gaussian(
                params, 5000, 5, gaussian, config
            ),
            "compare": lambda: compare_architectures(
                pool, self._search_pool(4000, 2, False, "maximize"), 5, config
            ),
            "smoothed": lambda: smoothed_bootstrap_ci(pool, BoonStatistic(5), smoothed),
            "callable": lambda: bootstrap_ci(pool, boon5, config),
            "monte carlo": lambda: monte_carlo_ci_gaussian(
                params, 5000, 5, EstimatorKind.NONPARAMETRIC, config
            ),
        }[routine]
        keys = []
        rng = resampling._rng
        monkeypatch.setattr(resampling, "_rng", lambda *key: keys.append(key) or rng(*key))
        run()
        assert keys == [(1, k) for k in range(chunks)]

    def test_failed_rows_of_a_wide_chunk_are_redrawn_from_its_own_stream(self):
        # 8 replicates a chunk of 5,000 records; at seed 11 rows 2 and 5 of
        # chunk 17 fail, and rows 6 and 7 of chunk 201.
        size, count, seed = 5000, 2000, 11

        def block(rng, rows):
            x = rng.random((rows, 3))
            return np.where(x[:, 0] < 0.004, math.nan, x.sum(axis=1))

        want, failed = [], {}
        for k, first in enumerate(range(0, count, 8)):
            rng = resampling._rng(seed, k)
            values = block(rng, min(8, count - first))
            for i in np.flatnonzero(np.isnan(values)):
                failed.setdefault(k, []).append(i)
                while math.isnan(values[i]):
                    values[i] = block(rng, 1)[0]
            want.append(values)
        assert failed[17] == [2, 5] and failed[201] == [6, 7]
        got = resampling._chunked_replicates(count, size, seed, block, wide=True)
        np.testing.assert_array_equal(got, np.concatenate(want))

    def test_a_row_is_redrawn_until_it_is_finite_within_the_budget(self):
        # row 0 fails, and so do its first 150 redraws: 151 failures in
        # 20,151 evaluations stay within 1%, however many fall on one row
        chunks, redraws = [], []

        def block(rng, rows):
            values = rng.random(rows)
            if rows > 1:  # a chunk of 4,096 (the last of 3,616) resamples
                chunks.append(rows)
                if len(chunks) == 1:
                    values[0] = math.nan
            else:
                redraws.append(values[0])
                if len(redraws) <= 150:
                    values[0] = math.nan
            return values

        got = resampling._chunked_replicates(20_000, 4, 5, block)
        assert len(redraws) == 151
        assert got[0] == redraws[-1]
        plain = resampling._chunked_replicates(20_000, 4, 5, lambda rng, rows: rng.random(rows))
        np.testing.assert_array_equal(got[1:], plain[1:])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_an_infinite_point_fails_its_row_as_nan_does(self, bad):
        def block(rng, rows, mark=bad):
            out = rng.random((rows, 3))
            out[out[:, 0] < 0.005, 1] = mark
            return out

        nan_marked = resampling._chunked_replicates(5000, 1, 4, lambda r, n: block(r, n, math.nan))
        np.testing.assert_array_equal(resampling._chunked_replicates(5000, 1, 4, block), nan_marked)
        with pytest.raises(ResamplingDegenerateError):
            resampling._chunked_replicates(200, 1, 4, lambda r, n: np.full(n, bad))


# Scores whose draws, sums or simulated pools overflow the float range in far
# more than 1% of replicates. Each routine fails those replicates and so
# raises ResamplingDegenerateError; pytest's warnings-as-errors turns any
# numpy warning that escapes into a different error.
_OVERFLOW_POOL = ResultPool.from_arrays(np.arange(10.0), np.arange(10) * 1e307)
_OVERFLOW_SMOOTHED = ResultPool.from_arrays([1e308, -1e308, 5e307, 0.0], [1.0, 2.0, 3.0, 4.0])
_OVERFLOW_CURVE = ResultPool.from_arrays([-1e308, -1e308, 0.0], [1.0, 2.0, 3.0])
# two copies of the 1e308 record in one resample sum its tie group to inf
_OVERFLOW_TIED = ResultPool.from_arrays([0.0, 0.0, 1.0], [1e308, 0.0, 0.0])
_OVERFLOW_PARAMS = GaussianParams(0.0, 1e308, 1.0, 1e308, 0.5)
_CFG = ResamplingConfig(replicates=200, seed=0)
_WIDE = ResamplingConfig(replicates=200, seed=0, bandwidth=1e308)
_OVERFLOW_CASES = {
    "bootstrap callable": lambda: bootstrap_ci(
        _OVERFLOW_POOL, lambda p: float(np.sum(p.test_scores * 10)), _CFG
    ),
    "bootstrap BoonStatistic": lambda: bootstrap_ci(_OVERFLOW_TIED, BoonStatistic(5), _CFG),
    "smoothed callable": lambda: smoothed_bootstrap_ci(_OVERFLOW_SMOOTHED, boon5, _WIDE),
    "smoothed BoonStatistic": lambda: smoothed_bootstrap_ci(
        _OVERFLOW_SMOOTHED, BoonStatistic(5), _WIDE
    ),
    "compare": lambda: compare_architectures(_OVERFLOW_TIED, _OVERFLOW_POOL, 5, _CFG),
    "monte carlo non-parametric": lambda: monte_carlo_ci_gaussian(
        _OVERFLOW_PARAMS, 20, 5, EstimatorKind.NONPARAMETRIC, _CFG
    ),
    "monte carlo non-parametric validations": lambda: monte_carlo_ci_gaussian(
        GaussianParams(0.0, 1.0, 1e308, 1.0, 0.5), 20, 5, EstimatorKind.NONPARAMETRIC, _CFG
    ),
    "monte carlo Gaussian": lambda: monte_carlo_ci_gaussian(
        _OVERFLOW_PARAMS, 20, 5, EstimatorKind.GAUSSIAN_PARAMETRIC, _CFG
    ),
    "curve band with replacement": lambda: best_of_m_curve(_OVERFLOW_CURVE, [1, 2], 200, _WIDE),
}


class TestOverflowingInputs:
    @pytest.mark.parametrize("case", list(_OVERFLOW_CASES))
    def test_every_entry_point_fails_overflowed_replicates(self, case):
        with pytest.raises(ResamplingDegenerateError):
            _OVERFLOW_CASES[case]()


class TestDegenerateGaussianResamples:
    def test_mostly_degenerate_pool_is_refused(self):
        # about a third of resamples repeat validation 0 or 1 only
        pool = ResultPool.from_pairs([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)])
        stat = BoonStatistic(5, EstimatorKind.GAUSSIAN_PARAMETRIC)
        with pytest.raises(ResamplingDegenerateError):
            bootstrap_ci(pool, stat, ResamplingConfig(replicates=1000, seed=0))

    def test_resamples_below_three_records_are_refused(self):
        pool = helpers.bivariate_normal_pool(m=10, seed=1)
        stat = BoonStatistic(5, EstimatorKind.GAUSSIAN_PARAMETRIC)
        with pytest.raises(InsufficientDataError):
            bootstrap_ci(pool, stat, ResamplingConfig(replicates=200, seed=0), resample_size=2)

    def test_rare_degenerate_resamples_are_redrawn(self, monkeypatch):
        # 5 * (1/5)^5 = 0.16% of resamples repeat one record
        pool = ResultPool.from_pairs([(float(i), float(3 * i % 5)) for i in range(5)])
        stat = BoonStatistic(5, EstimatorKind.GAUSSIAN_PARAMETRIC)
        cfg = ResamplingConfig(replicates=3000, seed=21)
        degenerate_rows = []
        engine = resampling._gaussian_boon

        def counting(vals, tests, e_n):
            out = engine(vals, tests, e_n)
            degenerate_rows.append(int(np.isnan(out).sum()))
            return out

        monkeypatch.setattr(resampling, "_gaussian_boon", counting)
        ci = bootstrap_ci(pool, stat, cfg)
        assert sum(degenerate_rows) > 0
        assert np.isfinite([ci.lo, ci.hi]).all()
        assert bootstrap_ci(pool, stat, cfg, workers=3) == ci

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("scale", [2.0**-330, 2.0**330, 2.0**500])
    def test_intervals_scale_with_scores_whose_correlation_sums_leave_the_float_range(
        self, direction, scale
    ):
        # A row's plain correlation divides by sqrt(sum vc**2 * sum tc**2), which underflows
        # to 0 (every replicate failed) or overflows to inf (every correlation read as 0)
        # at these scales; such rows take it from scaled columns, so the intervals only scale.
        z = np.random.default_rng(30).standard_normal((30, 2))
        v, t = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]
        cfg = ResamplingConfig(replicates=200, seed=1)
        stat = BoonStatistic(5, EstimatorKind.GAUSSIAN_PARAMETRIC)

        def intervals(pool):
            mc = monte_carlo_ci_gaussian(fit_gaussian_params(pool), 30, 5, stat.kind, cfg)
            return [bootstrap_ci(pool, stat, cfg), smoothed_bootstrap_ci(pool, stat, cfg), mc]

        want = intervals(ResultPool.from_arrays(v, t, direction))
        got = intervals(ResultPool.from_arrays(v * scale, t * scale, direction))
        for g, w in zip(got, want):
            assert g.lo / scale == pytest.approx(w.lo, rel=1e-12)
            assert g.hi / scale == pytest.approx(w.hi, rel=1e-12)


@pytest.mark.parametrize("direction", ["maximize", "minimize"])
@pytest.mark.parametrize("scale", [2.0**-266, 2.0**-600, 2.0**-990])
def test_results_scale_with_scores_whose_squared_deviations_underflow(direction, scale):
    # Below a spread of 2**-511 the squared deviations fall below the normal float range and
    # a plain standard deviation reads 0 (at 2**-266 only the product of the two sums of
    # squares in a correlation does): such spreads and correlations are taken from scaled
    # scores, so every interval, bandwidth and curve number only scales. Power-of-two scales
    # make the division below exact.
    z = np.random.default_rng(4).standard_normal((30, 2))
    v, t = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]
    cfg = ResamplingConfig(replicates=200, seed=3)
    gaussian = BoonStatistic(5, EstimatorKind.GAUSSIAN_PARAMETRIC)

    def numbers(pool):
        cis = [
            bootstrap_ci(pool, gaussian, cfg),
            smoothed_bootstrap_ci(pool, gaussian, cfg),
            smoothed_bootstrap_ci(pool, BoonStatistic(5), cfg),
            monte_carlo_ci_gaussian(fit_gaussian_params(pool), 30, 5, gaussian.kind, cfg),
        ]
        curve = best_of_m_curve(pool, [1, 3], 300, cfg)
        return [
            *resampling._resolve_bandwidths(pool, "auto"),
            *(x for ci in cis for x in (ci.lo, ci.hi)),
            *(x for p in curve for x in (p.expected_best_test, p.mc_se, p.ci.lo, p.ci.hi)),
        ]

    want = numbers(ResultPool.from_arrays(v, t, direction))
    got = numbers(ResultPool.from_arrays(v * scale, t * scale, direction))
    assert [g / scale for g in got] == pytest.approx(want, rel=1e-12, abs=0)
