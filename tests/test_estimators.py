import contextlib
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from bestofn import (
    BoonEstimate,
    BoonStatistic,
    DegeneratePoolError,
    Direction,
    EstimatorKind,
    GaussianParams,
    InsufficientDataError,
    InvalidDataError,
    ResamplingConfig,
    ResultPool,
    anderson_darling_normality,
    best_single_model,
    boon_nonparametric,
    boon_parametric_gaussian,
    compare_architectures,
    fit_gaussian_params,
    gaussian_boon_valtest,
    monte_carlo_ci_gaussian,
    std_normal_expected_max,
    summarize,
)

from bestofn import estimators
from bestofn.errors import _MAX_N

import helpers
import oracles

finite_scores = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


def small_pools(min_m=1, max_m=6):
    """Random pools as lists of (validation, test), ties made likely."""
    tied_vals = st.integers(min_value=0, max_value=2).map(float)
    record = st.tuples(st.one_of(finite_scores, tied_vals), finite_scores)
    return st.lists(record, min_size=min_m, max_size=max_m)


# float.hex of Boo(1), Boo(5) and Boo(20) on the pools of _golden_pool,
# computed by the previous tie-group implementation (group starts and ends
# taken separately, two power calls); any change to the arithmetic shows.
# Four entries were re-recorded when the weighted sum became a product sum.
_GOLDEN_BOON = {
    "single record": {
        "maximize": ["0x1.2000000000000p+1"] * 3,
        "minimize": ["0x1.2000000000000p+1"] * 3,
    },
    "all tied": {
        "maximize": ["0x1.5555555555555p+0"] * 3,
        "minimize": ["0x1.5555555555555p+0"] * 3,
    },
    "tied 50-record resample": {
        "maximize": ["0x1.1657816578165p+1", "0x1.8226fc66f5f2cp+1", "0x1.ba3dfb29ca118p+1"],
        "minimize": ["0x1.1657816578167p+1", "0x1.7f3cbb19a387ap+0", "0x1.816260c43092ep-2"],
    },
    "2000 records, 2-decimal validations": {
        "maximize": ["0x1.406c803887d23p+2", "0x1.42bc028ba1f5ap+2", "0x1.478bb659da065p+2"],
        "minimize": ["0x1.406c803887d24p+2", "0x1.3e0038b80443bp+2", "0x1.398f24680f0d7p+2"],
    },
}


def _golden_pool(name):
    """Pools built from integers by exact division, with no random draw."""
    i = np.arange(2000)
    v50, t50 = (i[:50] * 13 % 50) / 7, (i[:50] * 29 % 53) / 11
    resample = i[:50] ** 2 * 7 % 50  # 22 distinct records
    return {
        "single record": ([0.5], [2.25]),
        "all tied": (np.full(9, 1.5), (i[:9] * 5 % 9) / 3),
        "tied 50-record resample": (v50[resample], t50[resample]),
        "2000 records, 2-decimal validations": ((i * 7919 % 1000) / 100, (i * 104729 % 10007) / 997),
    }[name]


class TestBoonNonparametric:
    def test_n1_equals_test_mean(self):
        pool = helpers.bivariate_normal_pool(m=37, rho=0.4, seed=2)
        est = boon_nonparametric(pool, 1)
        assert est.value == pytest.approx(float(pool.test_scores.mean()), abs=1e-12)
        assert est.n == 1 and est.m == 37
        assert est.estimator_kind is EstimatorKind.NONPARAMETRIC

    def test_toy_pool_matches_enumeration(self):
        records = [(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)]
        pool = ResultPool.from_pairs(records)
        est = boon_nonparametric(pool, 2)
        assert est.value == pytest.approx(220 / 9, abs=1e-12)
        assert est.value == pytest.approx(oracles.enumerate_boon(records, 2), abs=1e-12)

    def test_all_tied_validations_average_the_tests(self):
        pool = ResultPool.from_pairs([(1.0, 5.0), (1.0, 7.0), (1.0, 9.0)])
        for n in (1, 2, 3, 6):
            assert _boon_value(pool, n) == pytest.approx(7.0, abs=1e-12)

    def test_single_record_pool(self):
        pool = ResultPool.from_pairs([(0.7, 42.0)])
        assert boon_nonparametric(pool, 1).value == 42.0
        est = boon_nonparametric(pool, 7)
        assert est.value == 42.0
        assert est.extrapolative

    def test_extrapolative_flagged_when_m_below_n(self):
        pool = ResultPool.from_pairs([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        est = boon_nonparametric(pool, 5)
        assert est.extrapolative
        assert not boon_nonparametric(pool, 3).extrapolative

    def test_brute_force_equivalence_randomized(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            records = helpers.random_tied_records(rng)
            pool = ResultPool.from_pairs(records)
            for n in range(1, 5):
                expected = oracles.enumerate_boon(records, n)
                est = boon_nonparametric(pool, n)
                assert est.extrapolative == (len(records) < n)
                assert est.value == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_n(self):
        pool = ResultPool.from_pairs([(1.0, 2.0)])
        for n in (0, 2.5):
            with pytest.raises(ValueError, match="n must"):
                boon_nonparametric(pool, n)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_largest_n_weighs_the_best_record_alone(self, direction):
        # n past the float range made (j/m)**n raise OverflowError; the
        # largest integer a float holds is the largest n taken.
        pool = helpers.bivariate_normal_pool(m=20, rho=0.5, seed=3, direction=direction)
        sign = 1.0 if direction is Direction.MAXIMIZE else -1.0
        best = pool.test_scores[(sign * pool.validation_scores).argmax()]
        assert boon_nonparametric(pool, _MAX_N).value == best
        with pytest.raises(ValueError, match="n must be an integer in .1, 1.797"):
            boon_nonparametric(pool, _MAX_N + 1)

    def test_empty_pool_rejected_at_construction(self):
        with pytest.raises(InvalidDataError):
            ResultPool.from_pairs([])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InvalidDataError):
            ResultPool.from_pairs([(1.0, math.inf)])
        with pytest.raises(InvalidDataError):
            ResultPool.from_pairs([(math.nan, 1.0)])

    def test_a_non_finite_score_is_named_with_plain_floats(self):
        with pytest.raises(InvalidDataError) as caught:
            ResultPool.from_arrays([1.0, math.nan], [1.0, 2.0])
        assert str(caught.value) == "non-finite score in record 1: (nan, 2.0)"

    @given(small_pools())
    @example([(0.0, 0.0), (0.0, 999603.0), (-1.0, -999830.0)])
    def test_n1_equals_test_mean_for_every_pool(self, records):
        # A rank-weighted sum rounds on the scale of its largest term, not of
        # its result: scores that cancel leave a mean far below that scale.
        pool = ResultPool.from_pairs(records)
        tests = [t for _, t in records]
        mean = math.fsum(tests) / len(tests)
        scale = max(abs(t) for t in tests)
        assert _boon_value(pool, 1) == pytest.approx(mean, rel=0, abs=1e-12 * scale)

    @given(small_pools(min_m=2))
    def test_permutation_invariance_is_bit_exact(self, records):
        n = 3
        pool = ResultPool.from_pairs(records)
        shuffled = ResultPool.from_pairs(list(reversed(records)))
        assert _boon_value(pool, n) == _boon_value(shuffled, n)

    @given(small_pools(), st.integers(min_value=1, max_value=6))
    def test_value_is_convex_combination_of_tests(self, records, n):
        pool = ResultPool.from_pairs(records)
        value = _boon_value(pool, n)
        tests = [t for _, t in records]
        assert min(tests) - 1e-9 <= value <= max(tests) + 1e-9

    @given(small_pools(min_m=2), st.integers(min_value=1, max_value=4))
    def test_affine_equivariance_in_test_scores(self, records, n):
        a, b = 2.5, -7.0
        pool = ResultPool.from_pairs(records)
        mapped = ResultPool.from_pairs([(v, a * t + b) for v, t in records])
        got = _boon_value(mapped, n)
        want = a * _boon_value(pool, n) + b
        assert got == pytest.approx(want, rel=1e-10, abs=1e-8)

    @given(small_pools(min_m=2), st.integers(min_value=1, max_value=4))
    def test_direction_duality(self, records, n):
        pool_min = ResultPool.from_pairs(records, direction=Direction.MINIMIZE)
        negated = ResultPool.from_pairs([(-v, -t) for v, t in records])
        assert _boon_value(pool_min, n) == -_boon_value(negated, n)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("decimals", [None, 2])
    def test_large_pool_permutation_invariance_is_bit_exact(self, direction, decimals):
        rng = np.random.default_rng(17)
        v, t = rng.normal(size=5000), rng.normal(size=5000)
        if decimals is not None:
            v = v.round(decimals)
        pool = ResultPool.from_arrays(v, t, direction)
        shuffle = rng.permutation(5000)
        shuffled = ResultPool.from_arrays(v[shuffle], t[shuffle], direction)
        for n in (1, 5, 20):
            assert boon_nonparametric(pool, n).value == boon_nonparametric(shuffled, n).value

    def test_monotone_in_n_for_single_evaluation(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=25)
        pool = ResultPool.from_pairs(list(zip(scores, scores)))
        values = [boon_nonparametric(pool, n).value for n in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_single_evaluation_grid_is_the_discrete_uniform_maximum(self, n):
        # Validation equal to test makes Boo(n) the expected maximum of n draws from the pool:
        # on the grid 1..m, the sum over k of P(max >= k) = 1 - ((k - 1) / m)**n.
        m = 12
        grid = np.arange(m, 0, -1, dtype=float)
        want = math.fsum(1.0 - ((k - 1) / m) ** n for k in range(1, m + 1))
        assert boon_nonparametric(ResultPool.from_arrays(grid, grid), n).value == pytest.approx(
            want, rel=1e-12
        )

    def test_monte_carlo_crosscheck(self):
        # Draw n records with replacement; keep the test score of the best validation.
        pool = helpers.bivariate_normal_pool(m=15, rho=0.5, seed=9)
        n, draws = 4, 200_000
        picks = np.random.default_rng(17).integers(0, pool.m, size=(draws, n))
        best = picks[np.arange(draws), pool.validation_scores[picks].argmax(axis=1)]
        picked = pool.test_scores[best]
        mc, se = picked.mean(), picked.std(ddof=1) / math.sqrt(draws)
        assert abs(boon_nonparametric(pool, n).value - mc) <= 4 * se

    @pytest.mark.parametrize("name", list(_GOLDEN_BOON))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_values_are_pinned_to_the_bit(self, name, direction):
        v, t = _golden_pool(name)
        pool = ResultPool.from_arrays(v, t, direction)
        got = [float.hex(boon_nonparametric(pool, n).value) for n in (1, 5, 20)]
        assert got == _GOLDEN_BOON[name][direction.value]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3).map(float),
                st.one_of(st.integers(min_value=-8, max_value=8).map(lambda k: k / 4),
                          st.just(-0.0)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(list(Direction)),
        st.integers(min_value=1, max_value=40),
    )
    @example([(0.0, -1.0), (1.0, 1.0)], Direction.MINIMIZE, 1)  # the mean 0, once -0.0
    def test_value_is_the_oriented_formula_to_the_bit(self, records, direction, n):
        # Boo(n) weighs a pool's records as stored. Negating a minimize pool's scores and the
        # result, as the estimator once did, gives the same bits, but a zero's sign.
        pool = ResultPool.from_pairs(records, direction)
        assert_boon_is_the_oriented_formula(pool, n)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("m, decimals", [(50, None), (50, 1), (1200, 1), (1200, 2)])
    def test_value_is_the_oriented_formula_on_larger_pools(self, direction, m, decimals):
        rng = np.random.default_rng(m + (decimals or 0))
        for _ in range(5):
            v, t = rng.normal(size=m), rng.normal(size=m).round(2)
            v = v if decimals is None else v.round(decimals)
            pool = ResultPool.from_arrays(v, t, direction)
            for n in (1, 2, 5, 20, 1000, 10**6):
                assert_boon_is_the_oriented_formula(pool, n)


def assert_boon_is_the_oriented_formula(pool, n):
    """Boo(n) of ``pool`` against the oriented formula (minimize pools negated, then the result
    negated back): the same bits for a nonzero value, and +0.0 for a zero unless every test
    score is -0.0."""
    sign = -1.0 if pool.direction is Direction.MINIMIZE else 1.0
    v, t = pool.validation_scores, pool.test_scores
    oriented = sign * estimators._boon_weighted_average(sign * v, sign * t, n)
    value = boon_nonparametric(pool, n).value
    if oriented != 0.0:
        assert value.hex() == oriented.hex(), (n, value, oriented)
    else:
        assert value == 0.0
        if not (np.signbit(t) & (t == 0.0)).all():
            assert math.copysign(1.0, value) == 1.0, (n, value)


class TestBoonEstimate:
    @pytest.mark.parametrize("estimator", [boon_nonparametric, boon_parametric_gaussian])
    def test_an_estimate_is_the_frozen_dataclass_it_declares(self, estimator):
        pool = helpers.bivariate_normal_pool(m=4, rho=0.5, seed=3, direction="minimize")
        estimate = estimator(pool, 6)
        kind = estimate.estimator_kind
        built = BoonEstimate(n=6, m=4, value=estimate.value, estimator_kind=kind,
                             extrapolative=True)
        assert type(estimate) is BoonEstimate
        assert estimate == built and hash(estimate) == hash(built)
        assert estimate != dataclasses.replace(built, extrapolative=False)
        assert repr(estimate) == repr(built) == (
            f"BoonEstimate(n=6, m=4, value={estimate.value!r}, estimator_kind={kind!r}, "
            "extrapolative=True)"
        )
        assert dataclasses.asdict(estimate) == {
            "n": 6, "m": 4, "value": estimate.value, "estimator_kind": kind,
            "extrapolative": True,
        }
        with pytest.raises(dataclasses.FrozenInstanceError):
            estimate.value = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del estimate.n
        assert estimate == built
        copy = pickle.loads(pickle.dumps(estimate))
        assert type(copy) is BoonEstimate and copy == estimate and repr(copy) == repr(estimate)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.m = 5


def _boon_value(pool, n):
    return boon_nonparametric(pool, n).value


def _pair_pools(m, rng):
    """(validation, test) arrays of m records with the tie patterns the
    record sort must handle."""
    v, t = rng.normal(size=m), rng.normal(size=m)
    resample = rng.integers(0, m, m)
    return {
        "untied": (v, t),
        "two_decimals": (v.round(2), t),
        "all_tied": (np.full(m, 0.25), t),
        "duplicate_pairs": (v.round(1)[resample], t[resample]),
        "tied_tests": (v.round(1), t.round(1)),
        "signed_zeros": (np.where(v < 0, -0.0, 0.0), np.where(t < 0, -0.0, 0.0)),
    }


class TestPairOrder:
    @pytest.mark.parametrize("m", [2, 50, 850, 851, 5000])
    def test_sorts_pairs_as_lexsort_does(self, m):
        pools = _pair_pools(m, np.random.default_rng(m))
        if m == 5000:  # more validation tie groups than 16 bits can number
            rng = np.random.default_rng(3)
            v = rng.permutation(np.concatenate((np.arange(66_000.0), np.arange(4_000.0))))
            pools["many_groups"] = (v, rng.normal(size=v.size).round(1))
        for name, (v, t) in pools.items():
            # the permutation itself, not only the sorted pairs: one order
            # serves the estimators and the engine
            assert np.array_equal(estimators._pair_order(v, t), np.lexsort((t, v))), name
        # a chunk of rows, each sorted along the last axis: tied, untied and signed-zero
        # rows mixed, in both row orders
        chunk = [pools[name] for name in ("untied", "two_decimals", "signed_zeros",
                                          "all_tied", "untied", "duplicate_pairs")]
        v, t = (np.stack(column) for column in zip(*chunk))
        for rows in (slice(None), slice(None, None, -1)):
            want = np.lexsort((t[rows], v[rows]))
            assert np.array_equal(estimators._pair_order(v[rows], t[rows]), want)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_large_pool_in_any_order_is_sorted_and_keeps_its_value(self, direction, monkeypatch):
        calls = []
        pair_order = estimators._pair_order

        def counted(vals, tests):
            calls.append(vals.size)
            return pair_order(vals, tests)

        monkeypatch.setattr(estimators, "_pair_order", counted)
        rng = np.random.default_rng(23)
        m = 1500
        pools = _pair_pools(m, rng)
        v = rng.normal(size=m).round(1)
        v[:40] = [-0.0, 0.0] * 20  # a -0.0/0.0 validation tie with distinct tests
        pools["signed_zero_tie"] = (v, rng.normal(size=m))
        sign = -1.0 if direction is Direction.MINIMIZE else 1.0
        for name, (v, t) in pools.items():
            order = np.lexsort((sign * t, sign * v))  # worst to best
            v, t = v[order], t[order]
            calls.clear()
            pool = ResultPool.from_arrays(v, t, direction)
            want = [_boon_value(pool, n) for n in (1, 5, 20)]
            assert calls == [m], name  # sorted once, when built; Boo(n) sorts nothing
            for shuffle in (rng.permutation(m), np.arange(m)[::-1]):
                shuffled = ResultPool.from_arrays(v[shuffle], t[shuffle], direction)
                assert shuffled == pool, name
                assert [_boon_value(shuffled, n) for n in (1, 5, 20)] == want, name
            # one swapped pair of tied validations is out of order again
            for i in np.flatnonzero((v[1:] == v[:-1]) & (t[1:] != t[:-1]))[:1]:
                v[[i, i + 1]], t[[i, i + 1]] = v[[i + 1, i]], t[[i + 1, i]]
                calls.clear()
                assert _boon_value(ResultPool.from_arrays(v, t, direction), 5) == want[1], name
                assert calls == [m], name


class TestRankPowers:
    def test_table_gathers_are_the_rank_weight_powers_to_the_bit(self):
        rng = np.random.default_rng(31)
        for m in range(1, 3001):
            new_group = np.concatenate(([True], rng.random(m - 1) < rng.random(), [True]))
            bounds = np.flatnonzero(new_group)
            for n in (1, 2, 5, 20, 97, 10**6):
                got = estimators._rank_powers(m, n)[bounds]
                assert got.tobytes() == ((bounds / m) ** n).tobytes(), (m, n)

    def test_table_is_read_only_and_only_the_last_is_kept(self):
        for m, n in [(50, 5), (7, 1), (5000, 20), (50, 5)]:
            table = estimators._rank_powers(m, n)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
            assert estimators._rank_powers.cache_info().currsize <= 1

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_alternating_n_give_the_bits_of_fresh_calls(self, tied):
        # No call leaves state that moves the next one: each n taken in turn, with
        # the table of another (m, n) or of its own kept, gives a fresh call's bits.
        pool = helpers.bivariate_normal_pool(m=50, rho=0.5, seed=2)
        if tied:
            pool = ResultPool.from_arrays(pool.validation_scores.round(1), pool.test_scores)
        ns = (1, 5, 20, 5, 5, 1)
        fresh = []
        for n in ns:
            estimators._rank_powers.cache_clear()
            fresh.append(boon_nonparametric(pool, n).value.hex())
        assert [boon_nonparametric(pool, n).value.hex() for n in ns] == fresh


class TestBoonParametricGaussian:
    def test_n1_is_test_mean(self):
        pool = helpers.bivariate_normal_pool(m=50, rho=0.3, seed=8)
        est = boon_parametric_gaussian(pool, 1)
        assert est.value == pytest.approx(float(pool.test_scores.mean()), abs=1e-12)
        assert est.estimator_kind is EstimatorKind.GAUSSIAN_PARAMETRIC

    def test_degenerate_test_axis_is_named(self):
        pool = ResultPool.from_pairs([(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)])
        with pytest.raises(DegeneratePoolError, match="test"):
            boon_parametric_gaussian(pool, 5)

    def test_degenerate_validation_axis_is_named(self):
        pool = ResultPool.from_pairs([(1.0, 4.0), (1.0, 5.0), (1.0, 6.0)])
        with pytest.raises(DegeneratePoolError, match="validation"):
            boon_parametric_gaussian(pool, 5)

    def test_equal_scores_with_an_inexact_mean_are_degenerate(self):
        # the mean of three 0.1s rounds away from 0.1, so their np.std is not 0
        pool = ResultPool.from_pairs([(0.1, 4.0), (0.1, 5.0), (0.1, 6.0)])
        with pytest.raises(DegeneratePoolError, match="validation"):
            boon_parametric_gaussian(pool, 5)

    def test_requires_three_records(self):
        pool = ResultPool.from_pairs([(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(InsufficientDataError):
            boon_parametric_gaussian(pool, 5)

    def test_recovers_closed_form_on_large_sample(self):
        pool = helpers.bivariate_normal_pool(
            m=10_000, mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94,
            rho=0.18, seed=1000,
        )
        target = 63.16 + 0.18 * 0.94 * 1.1629644736
        assert boon_parametric_gaussian(pool, 5).value == pytest.approx(target, abs=0.05)

    def test_direction_duality(self):
        pool = helpers.bivariate_normal_pool(m=40, rho=0.6, seed=3)
        negated = ResultPool.from_arrays(
            -pool.validation_scores, -pool.test_scores, Direction.MINIMIZE
        )
        got = boon_parametric_gaussian(negated, 4).value
        assert got == pytest.approx(-boon_parametric_gaussian(pool, 4).value, abs=1e-12)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_value_is_one_row_of_the_bootstrap_kernel_to_the_bit(self, direction):
        pool = helpers.bivariate_normal_pool(m=60, rho=0.5, seed=13, direction=direction)
        vals, tests = pool.validation_scores[None], pool.test_scores[None]
        for n in (1, 5, 20):
            e_n = estimators._signed_expected_max(n, pool.direction)
            row = estimators._gaussian_boon(vals, tests, [e_n])[0, 0]
            assert boon_parametric_gaussian(pool, n).value.hex() == float(row).hex()

    def test_affine_equivariance(self):
        pool = helpers.bivariate_normal_pool(m=60, rho=0.5, seed=13)
        a, b = 3.0, 11.0
        mapped = ResultPool.from_arrays(pool.validation_scores, a * pool.test_scores + b)
        got = boon_parametric_gaussian(mapped, 5).value
        want = a * boon_parametric_gaussian(pool, 5).value + b
        assert got == pytest.approx(want, rel=1e-10)


class TestBoonStatistic:
    def test_call_is_the_estimator_value(self):
        pool = helpers.bivariate_normal_pool(m=20, rho=0.4, seed=2, direction="minimize")
        assert BoonStatistic(3)(pool) == boon_nonparametric(pool, 3).value
        gaussian = BoonStatistic(3, "gaussian_parametric")
        assert gaussian.kind is EstimatorKind.GAUSSIAN_PARAMETRIC
        assert gaussian(pool) == boon_parametric_gaussian(pool, 3).value

    @pytest.mark.parametrize("kind, n, tests", [
        # rank weights that sum to one up to rounding, times the largest float
        ("nonparametric", 1, [np.finfo(float).max] * 103),
        ("gaussian_parametric", 5, [-1e308, 0.0, 1e308, 1e308]),  # the spread overflows
        ("gaussian_parametric", 5, [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]),  # the mean
    ])
    def test_an_estimate_beyond_the_float_range_is_refused(self, kind, n, tests):
        # A numpy overflow warning is an error under the test settings. The Gaussian
        # estimator lets none out; the non-parametric one's product sum still does.
        pool = ResultPool.from_arrays(np.arange(len(tests), dtype=float), tests)
        quiet = np.errstate(all="ignore") if kind == "nonparametric" else contextlib.nullcontext()
        with quiet, pytest.raises(DegeneratePoolError, match="overflows"):
            BoonStatistic(n, kind)(pool)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            BoonStatistic(0)
        with pytest.raises(ValueError):
            BoonStatistic(5, "bayesian")


class TestFitGaussianParams:
    def test_recovers_generating_parameters(self):
        pool = helpers.bivariate_normal_pool(
            m=20_000, mu_val=1.0, mu_test=2.0, sigma_val=0.5, sigma_test=1.5,
            rho=0.4, seed=77,
        )
        params = fit_gaussian_params(pool)
        assert params.mu_val == pytest.approx(1.0, abs=0.02)
        assert params.mu_test == pytest.approx(2.0, abs=0.05)
        assert params.sigma_val == pytest.approx(0.5, abs=0.02)
        assert params.sigma_test == pytest.approx(1.5, abs=0.05)
        assert params.rho == pytest.approx(0.4, abs=0.03)

    @pytest.mark.parametrize("m", [1, 2])
    def test_needs_three_records(self, m):
        pool = ResultPool.from_pairs([(0.0, 1.0), (1.0, 3.0)][:m])
        with pytest.raises(InsufficientDataError, match=f"at least 3 records to fit, got m={m}"):
            fit_gaussian_params(pool)

    def test_moments_beyond_the_float_range_are_refused(self):
        # the tests' sum overflows: GaussianParams refuses the fit, and no numpy
        # warning (an error under the test settings) escapes first
        tests = [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]
        pool = ResultPool.from_arrays(np.arange(8.0), tests)
        with pytest.raises(ValueError, match="must be finite"):
            fit_gaussian_params(pool)

    def test_fit_matches_parametric_estimator(self):
        pool = helpers.bivariate_normal_pool(m=200, rho=0.3, seed=5)
        params = fit_gaussian_params(pool)
        for n in (1, 5, 9):
            assert gaussian_boon_valtest(params, n) == pytest.approx(
                boon_parametric_gaussian(pool, n).value, abs=1e-12
            )


class TestResultPool:
    def test_arrays_are_read_only_copies(self):
        v, t = np.array([0.3, 0.1, 0.2]), np.array([3.0, 1.0, 2.0])
        pool = ResultPool.from_arrays(v, t)
        v[0] = 99.0
        assert pool.validation_scores.tolist() == [0.1, 0.2, 0.3]
        for arr in (pool.validation_scores, pool.test_scores):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_records_round_trip_the_pairs_worst_to_best(self):
        pairs = [(0.3, 3.0), (0.1, 2.0), (0.1, 1.0)]
        pool = ResultPool.from_pairs(pairs)
        assert pool.records == ((0.1, 1.0), (0.1, 2.0), (0.3, 3.0))
        assert ResultPool.from_pairs(pool.records) == pool
        assert pool.m == 3
        loss = ResultPool.from_pairs(pairs, "minimize")
        assert loss.records == ((0.3, 3.0), (0.1, 2.0), (0.1, 1.0))

    def test_equality_compares_records_direction_and_metric(self):
        pool = ResultPool.from_pairs([(0.1, 1.0), (0.2, 2.0)])
        assert pool == ResultPool.from_arrays([0.1, 0.2], [1.0, 2.0])
        assert pool == ResultPool.from_arrays([0.2, 0.1], [2.0, 1.0])
        assert pool != ResultPool.from_arrays([0.1, 0.2], [1.0, 2.5])
        assert pool != ResultPool.from_arrays([0.1, 0.2], [1.0, 2.0], Direction.MINIMIZE)
        assert pool != ResultPool.from_arrays([0.1, 0.2], [1.0, 2.0], metric_name="acc")

    @pytest.mark.parametrize(
        "v,t", [([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]]), ([1.0, math.nan], [1.0, 2.0])]
    )
    def test_malformed_arrays_rejected(self, v, t):
        with pytest.raises(InvalidDataError):
            ResultPool.from_arrays(v, t)


class TestSummarize:
    def test_mean_of_small_pool(self):
        pool = ResultPool.from_pairs([(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 4.0)])
        s = summarize(pool)
        assert s.mean_test == pytest.approx(2.5, abs=1e-12)
        assert s.m == 4
        assert s.iqr_test == pytest.approx(1.5, abs=1e-12)
        assert s.range_test == (1.0, 4.0)

    def test_monotone_pairs_have_unit_spearman(self):
        pool = ResultPool.from_pairs([(1.0, 10.0), (2.0, 30.0), (3.0, 31.0), (4.0, 50.0)])
        s = summarize(pool)
        assert s.spearman_val_test == pytest.approx(1.0, abs=1e-12)

    def test_std_matches_direct_formula(self):
        tests = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        pool = ResultPool.from_pairs([(float(i), t) for i, t in enumerate(tests)])
        s = summarize(pool)
        assert s.std_test == pytest.approx(oracles.sample_std(tests), abs=1e-12)
        assert s.std_test == pytest.approx(2.138, abs=1e-3)

    def test_single_record_has_absent_dispersion(self):
        s = summarize(ResultPool.from_pairs([(1.0, 3.0)]))
        assert s.std_test is None and s.iqr_test is None
        assert s.range_test == (3.0, 3.0)
        assert s.spearman_val_test is None and s.pearson_val_test is None

    def test_two_records_have_absent_correlations(self):
        s = summarize(ResultPool.from_pairs([(1.0, 3.0), (2.0, 5.0)]))
        assert s.std_test is not None
        assert s.spearman_val_test is None and s.pearson_val_test is None

    @pytest.mark.parametrize("tied", [False, True])
    def test_spearman_matches_scipy(self, tied):
        pool = helpers.bivariate_normal_pool(m=200, rho=0.6, seed=5)
        v, t = pool.validation_scores, pool.test_scores
        if tied:
            v, t = v.round(1), t.round(1)
        expected = scipy_stats.spearmanr(v, t).statistic
        got = summarize(ResultPool.from_arrays(v, t)).spearman_val_test
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_a_mean_and_std_whose_plain_sums_overflow_are_finite(self):
        tests = [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]
        pool = ResultPool.from_arrays(np.arange(8.0), tests)
        s = summarize(pool)
        assert s.mean_test == 1.25e307 == math.fsum(tests) / 8
        scaled = summarize(ResultPool.from_arrays(np.arange(8.0), np.array(tests) / 1e308))
        assert s.std_test == scaled.std_test * 1e308
        assert s.std_test == pytest.approx(oracles.sample_std([x / 1e308 for x in tests]) * 1e308,
                                           rel=1e-12)
        # the exact correlation, rounded; its plain sums overflow too
        assert s.pearson_val_test == 0.136504726557987
        assert s.pearson_val_test == pytest.approx(
            scipy_stats.pearsonr(np.arange(8.0), np.array(tests) / 1e308).statistic, rel=1e-12)

    def test_a_pearson_whose_plain_sums_underflow_is_the_scaled_one(self):
        # Products of deviations near 1e-100 round to zero: the plain denominator reads zero.
        pool = helpers.bivariate_normal_pool(m=20, rho=0.5, seed=3)
        tiny = ResultPool.from_arrays(pool.validation_scores * 1e-100, pool.test_scores * 1e-100)
        want = summarize(pool).pearson_val_test
        assert summarize(tiny).pearson_val_test == pytest.approx(want, rel=1e-12)
        assert fit_gaussian_params(tiny).rho == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("scale", [2.0**-266, 2.0**-600, 2.0**-990])
    def test_spreads_whose_squared_deviations_underflow_scale_with_the_scores(
        self, direction, scale
    ):
        # Below a spread of 2**-511 the squared deviations fall below the normal float range
        # and a plain standard deviation reads 0 (at 2**-266 only the product of the two sums
        # of squares in a correlation does, which cost it digits): such spreads and
        # correlations are taken from scaled scores. Power-of-two scales divide out exactly.
        z = np.random.default_rng(4).standard_normal((30, 2))
        v, t = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]

        def numbers(pool, scale):
            s, fit = summarize(pool), fit_gaussian_params(pool)
            return [
                s.std_test / scale,
                s.pearson_val_test,
                fit.mu_val / scale,
                fit.mu_test / scale,
                fit.sigma_val / scale,
                fit.sigma_test / scale,
                fit.rho,
                *(boon_parametric_gaussian(pool, n).value / scale for n in (1, 5, 20)),
                anderson_darling_normality(pool.test_scores).statistic,
            ]

        want = numbers(ResultPool.from_arrays(v, t, direction), 1.0)
        got = numbers(ResultPool.from_arrays(v * scale, t * scale, direction), scale)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_a_sum_in_range_keeps_the_plain_mean_and_std(self):
        pool = helpers.bivariate_normal_pool(m=37, mu_test=1e5, rho=0.3, seed=8)
        s = summarize(pool)
        assert s.mean_test.hex() == float(pool.test_scores.mean()).hex()
        assert s.std_test.hex() == float(pool.test_scores.std(ddof=1)).hex()

    def test_constant_axis_has_absent_correlations(self):
        for pairs in [
            [(1.0, 3.0), (2.0, 3.0), (3.0, 3.0)],
            # Equal scores whose std rounds to 1.4e-17 and 7.5e-15.
            [(0.1, 4.0), (0.1, 5.0), (0.1, 6.0)],
            [(float(i), 63.16) for i in range(10)],
        ]:
            s = summarize(ResultPool.from_pairs(pairs))
            assert s.spearman_val_test is None and s.pearson_val_test is None, pairs


def hexes(values):
    return [float(v).hex() for v in values]


class TestLinearQuantiles:
    """``estimators._linear_quantiles`` against ``np.quantile``, bit for bit."""

    DATA = {
        "normal": lambda rng, n: rng.normal(size=n),
        "signed zeros": lambda rng, n: rng.choice([-0.0, 0.0], size=n),
        "tied": lambda rng, n: rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=n),
    }
    LEVELS = [0.0, 1e-9, 0.025, 0.25, 0.5, 0.75, 0.975, 1 - 1e-9, 1.0]

    @pytest.mark.parametrize("data", list(DATA))
    @pytest.mark.parametrize("n", [1, 2, 3, 101, 10_000])
    def test_matches_numpy_quantile_to_the_bit(self, n, data):
        rng = np.random.default_rng([n, list(self.DATA).index(data)])
        for _ in range(10):
            x = self.DATA[data](rng, n)
            kept = x.copy()
            levels = self.LEVELS + rng.random(4).tolist()
            for q in levels:
                assert hexes(estimators._linear_quantiles(x, [q])) == hexes([np.quantile(x, q)])
            pair = rng.choice(levels, 2).tolist()
            assert hexes(estimators._linear_quantiles(x, pair)) == hexes(np.quantile(x, pair))
            assert hexes(x) == hexes(kept)

    @pytest.mark.parametrize("data", list(DATA))
    def test_summarize_iqr_is_numpy_quantiles(self, data):
        rng = np.random.default_rng(list(self.DATA).index(data))
        for n in (2, 3, 101, 10_000):
            t = self.DATA[data](rng, n)
            iqr = summarize(ResultPool.from_arrays(np.zeros(n), t)).iqr_test
            assert hexes([iqr]) == hexes([np.quantile(t, 0.75) - np.quantile(t, 0.25)])


class TestAndersonDarling:
    @pytest.mark.parametrize("m,seed", [(8, 0), (50, 1), (1000, 2)])
    def test_statistic_matches_reference_implementation(self, m, seed):
        x = np.random.default_rng(seed).standard_normal(m)
        mine = anderson_darling_normality(x).statistic
        with warnings.catch_warnings():
            # SciPy 1.17 asks for a p-value `method`, which 1.10 lacks; only
            # the statistic is used here.
            warnings.simplefilter("ignore", FutureWarning)
            reference = scipy_stats.anderson(x, dist="norm").statistic
        correction = 1.0 + 4.0 / m - 25.0 / (m * m)
        assert mine == pytest.approx(reference * correction, abs=1e-10)

    def test_large_uniform_sample_is_rejected(self):
        x = np.random.default_rng(7).random(1000)
        result = anderson_darling_normality(x)
        assert result.reject_at_5pct
        assert result.statistic > 0.752

    def test_large_normal_sample_is_not_rejected(self):
        x = np.random.default_rng(200).standard_normal(1000)
        assert not anderson_darling_normality(x).reject_at_5pct

    def test_calibration_near_nominal_level(self):
        # 200 fixed-seed replications of 1000 standard normal draws; the 5%
        # test should keep around 95% of them.
        nonreject = sum(
            not anderson_darling_normality(
                np.random.default_rng(200 + s).standard_normal(1000)
            ).reject_at_5pct
            for s in range(200)
        )
        assert nonreject >= 188

    def test_constant_values_rejected(self):
        for value in (3.0, 63.16):  # the std of 20 × 63.16 rounds to 1.5e-14
            with pytest.raises(InsufficientDataError):
                anderson_darling_normality([value] * 20)

    def test_too_few_values_rejected(self):
        with pytest.raises(InsufficientDataError):
            anderson_darling_normality([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_is_named(self, bad):
        values = [1.0, 2.0, 3.0, bad, 5.0, 6.0, 7.0, 8.0]
        with pytest.raises(InvalidDataError, match=f"non-finite value at index 3: {bad}"):
            anderson_darling_normality(values)

    def test_a_spread_that_overflows_is_refused(self):
        # the statistic would be NaN, read as "not rejected"
        values = [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]
        with np.errstate(all="ignore"), pytest.raises(InsufficientDataError, match="overflows"):
            anderson_darling_normality(values)


class TestBestSingleModel:
    def test_picks_test_score_of_best_validation(self):
        pool = ResultPool.from_pairs([(0.1, 10.0), (0.3, 30.0), (0.2, 20.0)])
        assert best_single_model(pool) == 30.0

    def test_validation_ties_break_toward_better_test(self):
        pool = ResultPool.from_pairs([(1.0, 4.0), (1.0, 9.0), (0.5, 100.0)])
        assert best_single_model(pool) == 9.0

    def test_minimize_direction(self):
        pool = ResultPool.from_pairs(
            [(0.9, 2.0), (0.1, 5.0), (0.1, 3.0)], direction=Direction.MINIMIZE
        )
        # best validation is the lowest; tie breaks toward the lower test
        assert best_single_model(pool) == 3.0


_POOL = helpers.bivariate_normal_pool(m=20, rho=0.5, seed=4)
_N_CHECKS = {
    "boon_nonparametric": lambda n: boon_nonparametric(_POOL, n),
    "boon_parametric_gaussian": lambda n: boon_parametric_gaussian(_POOL, n),
    "BoonStatistic": lambda n: BoonStatistic(n),
    "compare_architectures": lambda n: compare_architectures(
        _POOL, _POOL, n, ResamplingConfig(replicates=100)
    ),
    "monte_carlo_ci_gaussian": lambda n: monte_carlo_ci_gaussian(
        GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5), 20, n, EstimatorKind.NONPARAMETRIC,
        ResamplingConfig(replicates=100),
    ),
    "std_normal_expected_max": lambda n: std_normal_expected_max(n),
    "gaussian_boon_valtest": lambda n: gaussian_boon_valtest(
        GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5), n
    ),
}


@pytest.mark.parametrize("name", list(_N_CHECKS))
def test_every_n_check_stops_at_the_largest_integer_a_float_holds(name):
    with pytest.raises(ValueError, match="n must be an integer in"):
        _N_CHECKS[name](_MAX_N + 1)
