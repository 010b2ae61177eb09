import dataclasses
import math

import numpy as np
import pytest

from bestofn.distributions import (
    GaussianParams,
    _log_ndtr,
    gaussian_boon_valtest,
    std_normal_expected_max,
)
from bestofn.errors import _MAX_N

import oracles


class TestStdNormalExpectedMax:
    def test_single_draw_is_the_mean(self):
        assert abs(std_normal_expected_max(1)) <= 1e-9

    @pytest.mark.parametrize(
        "n,expected,tol",
        [
            (2, 1.0 / math.sqrt(math.pi), 1e-4),  # closed form for the max of two
            (5, 1.163, 1e-3),
            (10, 1.539, 1e-3),
        ],
    )
    def test_reference_values(self, n, expected, tol):
        assert std_normal_expected_max(n) == pytest.approx(expected, abs=tol)

    def test_strictly_increasing_in_n(self):
        ns = list(range(1, 31)) + [50, 100, 1000]
        values = [std_normal_expected_max(n) for n in ns]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(ValueError):
            std_normal_expected_max(n)

    def test_memoized_values_are_stable(self):
        assert std_normal_expected_max(7) == std_normal_expected_max(7)

    @pytest.mark.parametrize(
        "n,exact",
        [
            (2, 1.0 / math.sqrt(math.pi)),
            (3, 1.5 / math.sqrt(math.pi)),
            (4, 6.0 / math.pi**1.5 * math.atan(math.sqrt(2.0))),
            (5, 1.25 / math.sqrt(math.pi) * (1.0 + 6.0 / math.pi * math.asin(1.0 / 3.0))),
        ],
    )
    def test_closed_forms_for_two_to_five_draws(self, n, exact):
        assert std_normal_expected_max(n) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 10])
    def test_monte_carlo_crosscheck(self, n):
        draws = np.random.default_rng(n).standard_normal((200_000, n)).max(axis=1)
        mc, se = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(std_normal_expected_max(n) - mc) <= 4 * se

    @pytest.mark.parametrize(
        "n",
        [2, 10, 1000, 10**6, 10**100, _MAX_N],
        ids=["2", "10", "1e3", "1e6", "1e100", "max"],
    )
    def test_stays_inside_the_extreme_value_bound(self, n):
        # E_n <= sqrt(2 ln n): Jensen's inequality on exp(t * max), with t = sqrt(2 ln n).
        assert 0.0 < std_normal_expected_max(n) <= math.sqrt(2.0 * math.log(n))

    @pytest.mark.parametrize("n", [2.5, 3.0, True, _MAX_N + 1], ids=["2.5", "3.0", "True", "max+1"])
    def test_rejects_n_other_than_an_integer_a_float_holds(self, n):
        with pytest.raises(ValueError, match="n must"):
            std_normal_expected_max(n)

    def test_trapezoid_rule_matches_adaptive_quadrature(self):
        for n in range(1, 101):
            assert std_normal_expected_max(n) == pytest.approx(
                oracles.std_normal_expected_max(n), abs=1e-11
            )

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
    def test_very_large_n_matches_adaptive_quadrature(self, n):
        # Phi(x) rounds to 1 above x ~ 8.3, where Phi(x)**(n - 1) must still vanish.
        assert std_normal_expected_max(n) == pytest.approx(oracles.std_normal_expected_max(n),
                                                           abs=1e-12)

    @pytest.mark.parametrize(
        "n",
        [10**30, 10**40, 10**100, 10**300, _MAX_N],
        ids=["1e30", "1e40", "1e100", "1e300", "max"],
    )
    def test_beyond_the_fixed_window_matches_adaptive_quadrature(self, n):
        # The maximum's mass lies near sqrt(2 ln n), past x = 12 from n ~ 1e29 on.
        assert std_normal_expected_max(n) == pytest.approx(oracles.std_normal_expected_max(n),
                                                           rel=1e-9)


def test_log_ndtr_matches_scipy_in_both_tails():
    from scipy.special import log_ndtr

    z = np.concatenate([np.linspace(-60.0, 60.0, 24001), [-37.0, -36.999999, -37.000001]])
    np.testing.assert_allclose(_log_ndtr(z), log_ndtr(z), rtol=1e-12, atol=1e-300)


class TestGaussianBoonValtest:
    def test_zero_correlation_gives_test_mean(self):
        params = GaussianParams(mu_val=1.0, mu_test=5.0, sigma_val=2.0, sigma_test=3.0, rho=0.0)
        for n in (1, 3, 8):
            assert gaussian_boon_valtest(params, n) == 5.0

    def test_perfect_correlation_reduces_to_single_evaluation(self):
        params = GaussianParams(mu_val=0.0, mu_test=2.0, sigma_val=1.0, sigma_test=0.5, rho=1.0)
        for n in (1, 2, 7):
            assert gaussian_boon_valtest(params, n) == pytest.approx(
                2.0 + 0.5 * std_normal_expected_max(n), abs=1e-12
            )

    def test_reference_composition(self):
        params = GaussianParams(mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94, rho=0.18)
        assert gaussian_boon_valtest(params, 5) == pytest.approx(63.357, abs=0.005)

    @pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_single_draw_is_the_test_mean(self, rho):
        params = GaussianParams(mu_val=-4.0, mu_test=42.0, sigma_val=2.0, sigma_test=3.0, rho=rho)
        assert gaussian_boon_valtest(params, 1) == pytest.approx(42.0, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.5, -3.0), (10.0, 100.0)])
    def test_affine_equivariance_in_test_scores(self, a, b):
        base = GaussianParams(mu_val=0.0, mu_test=1.5, sigma_val=1.0, sigma_test=0.7, rho=0.6)
        mapped = dataclasses.replace(base, mu_test=a * 1.5 + b, sigma_test=a * 0.7)
        assert gaussian_boon_valtest(mapped, 6) == pytest.approx(
            a * gaussian_boon_valtest(base, 6) + b, abs=1e-9
        )

    def test_validation_location_and_scale_leave_the_value(self):
        # Selection reads only the validation order, which an increasing affine map keeps.
        base = GaussianParams(mu_val=0.0, mu_test=1.5, sigma_val=1.0, sigma_test=0.7, rho=0.6)
        for mu_val, sigma_val in ((63.5, 0.01), (-1e6, 250.0)):
            moved = dataclasses.replace(base, mu_val=mu_val, sigma_val=sigma_val)
            assert gaussian_boon_valtest(moved, 6) == gaussian_boon_valtest(base, 6)

    def test_negating_rho_reflects_the_value_about_the_test_mean(self):
        up = GaussianParams(mu_val=0.0, mu_test=5.0, sigma_val=1.0, sigma_test=2.0, rho=0.4)
        down = dataclasses.replace(up, rho=-0.4)
        for n in (2, 9, 100):
            assert gaussian_boon_valtest(down, n) - 5.0 == pytest.approx(
                5.0 - gaussian_boon_valtest(up, n), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 5])
    def test_monte_carlo_crosscheck(self, n):
        # n bivariate-normal (validation, test) draws; keep the test score of the best validation.
        params = GaussianParams(mu_val=1.0, mu_test=2.0, sigma_val=3.0, sigma_test=1.5, rho=0.6)
        draws = 100_000
        z = np.random.default_rng(100 + n).standard_normal((2, draws, n))
        vals = params.mu_val + params.sigma_val * z[0]
        tests = params.mu_test + params.sigma_test * (
            params.rho * z[0] + math.sqrt(1.0 - params.rho**2) * z[1]
        )
        picked = tests[np.arange(draws), vals.argmax(axis=1)]
        mc, se = picked.mean(), picked.std(ddof=1) / math.sqrt(draws)
        assert abs(gaussian_boon_valtest(params, n) - mc) <= 4 * se

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_rejects_bad_n(self, n):
        params = GaussianParams(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=0.5)
        with pytest.raises(ValueError, match="n must"):
            gaussian_boon_valtest(params, n)

    def test_monotone_in_n_by_sign_of_rho(self):
        up = GaussianParams(0.0, 0.0, 1.0, 1.0, 0.5)
        down = GaussianParams(0.0, 0.0, 1.0, 1.0, -0.5)
        ups = [gaussian_boon_valtest(up, n) for n in range(1, 11)]
        downs = [gaussian_boon_valtest(down, n) for n in range(1, 11)]
        assert all(b >= a for a, b in zip(ups, ups[1:]))
        assert all(b <= a for a, b in zip(downs, downs[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu_val=0.0, mu_test=0.0, sigma_val=0.0, sigma_test=1.0, rho=0.0),
            dict(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=-1.0, rho=0.0),
            dict(mu_val=0.0, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=1.5),
            dict(mu_val=math.nan, mu_test=0.0, sigma_val=1.0, sigma_test=1.0, rho=0.0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GaussianParams(**kwargs)
