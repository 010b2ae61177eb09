"""One record order: every pool holds its records worst to best, so no
number depends on the order in which the records were given."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofn import (
    BestOfNError,
    BoonStatistic,
    Direction,
    EstimatorKind,
    ResamplingConfig,
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
    summarize,
)

import helpers

GAUSSIAN = EstimatorKind.GAUSSIAN_PARAMETRIC


def boon5(pool):
    return boon_nonparametric(pool, 5).value


def mean_test(pool):
    # a floating-point sum: its last bits follow the order of the records
    return float(pool.test_scores.mean())


def outcome(routine, *args, **kwargs):
    """The routine's result as its repr, which writes every float exactly,
    or its error's type and message."""
    try:
        return repr(routine(*args, **kwargs))
    except (BestOfNError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def outcomes(pool, other):
    """Every routine's outcome on ``pool``; ``other`` is the pool it is compared with."""
    cfg = ResamplingConfig(replicates=100, seed=7)
    return {
        "boon_nonparametric": outcome(boon_nonparametric, pool, 5),
        "boon_parametric_gaussian": outcome(boon_parametric_gaussian, pool, 5),
        "summarize": outcome(summarize, pool),
        "fit_gaussian_params": outcome(fit_gaussian_params, pool),
        "best_single_model": outcome(best_single_model, pool),
        "bootstrap non-parametric": outcome(bootstrap_ci, pool, BoonStatistic(5), cfg),
        "bootstrap Gaussian": outcome(bootstrap_ci, pool, BoonStatistic(5, GAUSSIAN), cfg),
        "bootstrap callable": outcome(bootstrap_ci, pool, mean_test, cfg),
        "bootstrap callable, 7 records": outcome(bootstrap_ci, pool, boon5, cfg, resample_size=7),
        "smoothed callable": outcome(smoothed_bootstrap_ci, pool, mean_test, cfg),
        "smoothed non-parametric": outcome(smoothed_bootstrap_ci, pool, BoonStatistic(5), cfg),
        "compare as A": outcome(compare_architectures, pool, other, 5, cfg),
        "compare as B": outcome(compare_architectures, other, pool, 5, cfg),
        "curve": outcome(best_of_m_curve, pool, [1, 2, 5], 100, cfg),
        "monte carlo of the fit": outcome(
            lambda: monte_carlo_ci_gaussian(
                fit_gaussian_params(pool), pool.m, 5, EstimatorKind.NONPARAMETRIC, cfg
            )
        ),
    }


# -0.0 + 0.0 is 0.0. The two zeros compare equal, so records that differ
# only in a zero's sign keep their given order (or its reverse), which can
# show in nothing but the sign of a zero result.
scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64).map(
    lambda x: x + 0.0
)
grid = st.integers(min_value=0, max_value=3).map(float)  # makes ties likely
records = st.lists(
    st.tuples(st.one_of(scores, grid), st.one_of(scores, grid)), min_size=2, max_size=25
)


@settings(max_examples=30)
@given(records, st.sampled_from(list(Direction)), st.data())
def test_shuffled_records_give_bit_identical_outputs(records, direction, data):
    order = data.draw(st.permutations(range(len(records))))
    pool = ResultPool.from_pairs(records, direction)
    shuffled = ResultPool.from_pairs([records[i] for i in order], direction)
    assert shuffled == pool
    other = helpers.bivariate_normal_pool(m=12, rho=0.5, seed=1, direction=direction)
    assert outcomes(shuffled, other) == outcomes(pool, other)


def assert_worst_to_best(pool):
    sign = -1.0 if pool.direction is Direction.MINIMIZE else 1.0
    v, t = pool.validation_scores, pool.test_scores
    # np.lexsort is stable: the identity exactly when the pairs are in order
    np.testing.assert_array_equal(np.lexsort((sign * t, sign * v)), np.arange(pool.m))


@pytest.mark.parametrize("direction", list(Direction))
def test_every_construction_route_holds_records_worst_to_best(direction):
    rng = np.random.default_rng(3)
    v, t = rng.integers(0, 6, 40).astype(float), rng.normal(size=40).round(1)
    flipped = Direction.MAXIMIZE if direction is Direction.MINIMIZE else Direction.MINIMIZE
    pool = ResultPool.from_arrays(v, t, direction)
    routes = {
        "constructor": ResultPool(v, t, direction),
        "from_arrays": pool,
        "from_pairs": ResultPool.from_pairs(zip(v, t), direction),
        "replace, flipped": dataclasses.replace(pool, direction=flipped),
        "pickle": pickle.loads(pickle.dumps(pool)),
        "pickle, flipped": pickle.loads(pickle.dumps(dataclasses.replace(pool, direction=flipped))),
    }
    for name, built in routes.items():
        assert sorted(built.records) == sorted(zip(v, t)), name
        assert_worst_to_best(built)
        for scores in (built.validation_scores, built.test_scores):
            assert not scores.flags.writeable, name  # the order cannot be broken later

    rows = []

    def record(resample):
        rows.append(resample)
        return 0.0

    cfg = ResamplingConfig(replicates=100, seed=2)
    for size in (None, 7):
        bootstrap_ci(pool, record, cfg, resample_size=size)
        smoothed_bootstrap_ci(pool, record, cfg, resample_size=size)
    assert len(rows) == 400
    for resample in rows:
        assert resample.direction is direction
        assert_worst_to_best(resample)
        copy = pickle.loads(pickle.dumps(resample))
        assert copy == resample and not copy.test_scores.flags.writeable


def _pool(direction, tied, shift=0.0, seed=41):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=30)
    t = 0.6 * v + 0.8 * rng.normal(size=30) + shift
    return ResultPool.from_arrays(v.round(1) if tied else v, t, direction)


def _mapped(pool, val=lambda v: v, test=lambda t: t, direction=None):
    return ResultPool.from_arrays(
        val(pool.validation_scores), test(pool.test_scores), direction or pool.direction
    )


def _curve_numbers(points):
    return [(p.expected_best_test, p.ci.lo, p.ci.hi) if p.ci else (p.expected_best_test,)
            for p in points]


_CASES = [(d, tied) for d in Direction for tied in (False, True)]


@pytest.mark.parametrize("direction,tied", _CASES)
def test_affine_test_maps_move_every_interval_with_them(direction, tied):
    a, b = 2.5, -7.0
    pool, other = _pool(direction, tied), _pool(direction, tied, shift=0.3, seed=42)
    pool2, other2 = (_mapped(p, test=lambda t: a * t + b) for p in (pool, other))
    cfg = ResamplingConfig(replicates=300, seed=5)
    scale = 1e-12 * np.abs(pool2.test_scores).max()
    for statistic in (BoonStatistic(5), BoonStatistic(5, GAUSSIAN), boon5):
        for run in (bootstrap_ci, smoothed_bootstrap_ci):  # an automatic bandwidth
            ci, ci2 = run(pool, statistic, cfg), run(pool2, statistic, cfg)
            np.testing.assert_allclose([ci2.lo, ci2.hi], [a * ci.lo + b, a * ci.hi + b],
                                       rtol=0, atol=scale)
    result = compare_architectures(pool, other, 5, cfg)
    result2 = compare_architectures(pool2, other2, 5, cfg)
    np.testing.assert_allclose([result2.delta, result2.ci.lo, result2.ci.hi],
                               [a * result.delta, a * result.ci.lo, a * result.ci.hi],
                               rtol=0, atol=scale)
    points = _curve_numbers(best_of_m_curve(pool, [1, 3, 10], 200, cfg))
    points2 = _curve_numbers(best_of_m_curve(pool2, [1, 3, 10], 200, cfg))
    np.testing.assert_allclose(points2, a * np.array(points) + b, rtol=0, atol=scale)


@pytest.mark.parametrize("direction,tied", _CASES)
def test_strictly_increasing_validation_maps_leave_every_number_unchanged(direction, tied):
    def f(v):
        return v**3 + 2.0 * v + 5.0

    pool, other = _pool(direction, tied), _pool(direction, tied, shift=0.3, seed=42)
    for p in (pool, other):  # the map keeps every tie and makes none
        distinct = np.unique(p.validation_scores)
        assert (np.diff(f(distinct)) > 0).all()
    pool2, other2 = _mapped(pool, val=f), _mapped(other, val=f)
    cfg = ResamplingConfig(replicates=300, seed=5)
    for statistic in (BoonStatistic(5), boon5, best_single_model):
        for size in (None, 7):
            assert (bootstrap_ci(pool2, statistic, cfg, resample_size=size)
                    == bootstrap_ci(pool, statistic, cfg, resample_size=size))
    assert compare_architectures(pool2, other2, 5, cfg) == compare_architectures(
        pool, other, 5, cfg
    )
    args = ([1, 3, 10], 200, cfg)
    assert best_of_m_curve(pool2, *args, with_ci=False) == best_of_m_curve(
        pool, *args, with_ci=False
    )


@pytest.mark.parametrize("direction,tied", _CASES)
def test_direction_duality_negates_every_interval(direction, tied):
    # Smoothed resamples are left out: the dual pool's noise is added to
    # negated scores, so it is the same in distribution only.
    flipped = Direction.MAXIMIZE if direction is Direction.MINIMIZE else Direction.MINIMIZE
    pool, other = _pool(direction, tied), _pool(direction, tied, shift=0.3, seed=42)
    dual, dual_other = (_mapped(p, np.negative, np.negative, flipped) for p in (pool, other))
    # Endpoints at order statistics 25 and 75 of 101 values: no interpolation,
    # so negated replicate values give exactly negated endpoints.
    cfg = ResamplingConfig(replicates=101, level=0.5, seed=5)
    for statistic in (BoonStatistic(5), BoonStatistic(5, GAUSSIAN), boon5):
        ci, ci2 = bootstrap_ci(pool, statistic, cfg), bootstrap_ci(dual, statistic, cfg)
        assert (ci2.lo, ci2.hi) == (-ci.hi, -ci.lo)
    result = compare_architectures(pool, other, 5, cfg)
    result2 = compare_architectures(dual, dual_other, 5, cfg)
    assert (result2.delta, result2.ci.lo, result2.ci.hi) == (
        -result.delta, -result.ci.hi, -result.ci.lo
    )
    assert result2.significant == result.significant
    points = best_of_m_curve(pool, [1, 3, 10], 200, cfg)
    points2 = best_of_m_curve(dual, [1, 3, 10], 200, cfg)
    assert [(p.expected_best_test, p.ci.lo, p.ci.hi, p.mc_se) for p in points2] == [
        (-p.expected_best_test, -p.ci.hi, -p.ci.lo, p.mc_se) for p in points
    ]
