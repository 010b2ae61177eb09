import math

import numpy as np
import pytest

from bestofn.distributions import (
    ContinuousDistribution,
    _log_ndtr,
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
from bestofn.errors import _MAX_N, InvalidDistributionError

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

    def test_trapezoid_rule_matches_adaptive_quadrature(self):
        for n in range(1, 101):
            assert std_normal_expected_max(n) == pytest.approx(
                expected_max_continuous(standard_normal(), n), abs=1e-11
            )

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
    def test_very_large_n_matches_adaptive_quadrature(self, n):
        # Phi(x) rounds to 1 above x ~ 8.3, where Phi(x)**(n - 1) must still
        # vanish; the oracle takes the power in log space.
        from scipy.integrate import quad
        from scipy.special import log_ndtr

        def integrand(x):
            return n * x * math.exp(-0.5 * x * x + (n - 1) * log_ndtr(x)) / math.sqrt(2 * math.pi)

        mode = math.sqrt(2 * math.log(n))
        want, _ = quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-13, limit=200, points=[mode])
        assert std_normal_expected_max(n) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "n",
        [10**30, 10**40, 10**100, 10**300, _MAX_N],
        ids=["1e30", "1e40", "1e100", "1e300", "max"],
    )
    def test_beyond_the_fixed_window_matches_adaptive_quadrature(self, n):
        # The maximum's mass lies near sqrt(2 ln n), past x = 12 from
        # n ~ 1e29 on. The oracle integrates in log space around it, with
        # log Phi(x) from erfc above 0: scipy's ndtr flushes the upper tail
        # to 0 past x ~ 37.6, which the largest n still reads.
        from scipy.integrate import quad
        from scipy.special import log_ndtr

        log_n = math.log(n)

        def integrand(x):
            log_cdf = math.log1p(-0.5 * math.erfc(x / math.sqrt(2))) if x > 0 else log_ndtr(x)
            return x * math.exp(log_n - 0.5 * x * x + (n - 1) * log_cdf) / math.sqrt(2 * math.pi)

        mode = math.sqrt(2 * log_n)
        want, _ = quad(integrand, mode - 12, mode + 12, epsabs=0, epsrel=1e-12, limit=200,
                       points=[mode])
        assert std_normal_expected_max(n) == pytest.approx(want, rel=1e-9)


def test_log_ndtr_matches_scipy_in_both_tails():
    from scipy.special import log_ndtr

    z = np.concatenate([np.linspace(-60.0, 60.0, 24001), [-37.0, -36.999999, -37.000001]])
    np.testing.assert_allclose(_log_ndtr(z), log_ndtr(z), rtol=1e-12, atol=1e-300)


class TestExpectedMaxContinuous:
    def test_uniform_single_draw(self):
        assert expected_max_continuous(uniform(0, 1), 1) == pytest.approx(0.5, abs=1e-9)

    def test_uniform_best_of_three(self):
        assert expected_max_continuous(uniform(0, 1), 3) == pytest.approx(0.75, abs=1e-9)

    def test_uniform_closed_form_up_to_twenty(self):
        for n in range(1, 21):
            value = expected_max_continuous(uniform(0, 1), n)
            assert value == pytest.approx(n / (n + 1), abs=1e-6)

    def test_uniform_monte_carlo_crosscheck(self):
        rng = np.random.default_rng(5)
        draws = rng.random((200_000, 3)).max(axis=1)
        mc, se = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(expected_max_continuous(uniform(0, 1), 3) - mc) <= 4 * se

    def test_standard_normal_matches_reference(self):
        assert expected_max_continuous(standard_normal(), 5) == pytest.approx(1.163, abs=1e-3)

    def test_shifted_gaussian(self):
        dist = normal(mu=10.0, sigma=2.0)
        expected = 10.0 + 2.0 * std_normal_expected_max(4)
        assert expected_max_continuous(dist, 4) == pytest.approx(expected, abs=1e-6)

    def test_result_stays_inside_support(self):
        dist = uniform(2.0, 3.0)
        for n in (1, 2, 10):
            value = expected_max_continuous(dist, n)
            assert 2.0 <= value <= 3.0

    def test_infinite_support_ends_are_cut_where_the_tails_vanish(self):
        std = standard_normal()
        dist = ContinuousDistribution(std.pdf, std.cdf, -math.inf, math.inf)
        for n in (1, 5, 50):
            assert expected_max_continuous(dist, n) == pytest.approx(
                std_normal_expected_max(n), abs=1e-9
            )

    def test_rejects_unnormalized_cdf(self):
        broken = ContinuousDistribution(
            pdf=lambda x: 0.9 if 0.0 <= x <= 1.0 else 0.0,
            cdf=lambda x: 0.9 * min(1.0, max(0.0, x)),
            support_lo=0.0,
            support_hi=1.0,
        )
        with pytest.raises(InvalidDistributionError):
            expected_max_continuous(broken, 3)

    def test_rejects_nonpositive_n(self):
        for n in (0, 2.5):
            with pytest.raises(ValueError, match="n must"):
                expected_max_continuous(uniform(0, 1), n)


class TestExpectedMaxDiscrete:
    def test_single_atom_is_degenerate(self):
        dist = DiscreteDistribution(atoms=((3.5, 1.0),))
        for n in (1, 2, 7):
            assert expected_max_discrete(dist, n) == 3.5

    def test_two_even_atoms_best_of_two(self):
        a, b = 1.0, 3.0
        dist = DiscreteDistribution(atoms=((a, 0.5), (b, 0.5)))
        expected = 0.25 * a + 0.75 * b
        assert expected_max_discrete(dist, 2) == pytest.approx(expected, abs=1e-12)
        brute = oracles.enumerate_discrete_expected_max(dist.atoms, 2)
        assert expected_max_discrete(dist, 2) == pytest.approx(brute, abs=1e-12)

    def test_three_even_atoms_best_of_two(self):
        dist = DiscreteDistribution(atoms=((1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3)))
        assert expected_max_discrete(dist, 2) == pytest.approx(22 / 9, abs=1e-12)

    def test_single_draw_equals_distribution_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            values = np.unique(rng.normal(size=k).round(3))
            weights = rng.dirichlet(np.ones(len(values)))
            dist = DiscreteDistribution(atoms=tuple(zip(values.tolist(), weights.tolist())))
            assert expected_max_discrete(dist, 1) == pytest.approx(dist.mean(), abs=1e-12)

    def test_brute_force_equivalence_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            values = np.unique(rng.normal(scale=10.0, size=k).round(2))
            weights = rng.dirichlet(np.ones(len(values)))
            dist = DiscreteDistribution(atoms=tuple(zip(values.tolist(), weights.tolist())))
            for n in range(1, 5):
                brute = oracles.enumerate_discrete_expected_max(dist.atoms, n)
                assert expected_max_discrete(dist, n) == pytest.approx(brute, abs=1e-12)

    def test_result_within_atom_range(self):
        dist = DiscreteDistribution(atoms=((-2.0, 0.25), (0.0, 0.5), (4.0, 0.25)))
        for n in (1, 3, 9):
            value = expected_max_discrete(dist, n)
            assert -2.0 <= value <= 4.0

    def test_rejects_empty_atoms(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(atoms=())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(atoms=((1.0, 0.5), (1.0, 0.5)))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(atoms=((1.0, 0.7), (2.0, 0.4)))
        with pytest.raises(ValueError):
            DiscreteDistribution(atoms=((1.0, 1.2), (2.0, -0.2)))


class TestGaussianBoonSingle:
    def test_standard_normal_best_of_five(self):
        assert gaussian_boon_single(0.0, 1.0, 5) == pytest.approx(1.163, abs=1e-3)

    def test_single_draw_is_the_mean(self):
        assert gaussian_boon_single(42.0, 3.0, 1) == pytest.approx(42.0, abs=1e-9)

    def test_reference_composition(self):
        assert gaussian_boon_single(63.16, 0.94, 5) == pytest.approx(64.25, abs=0.01)

    def test_zero_sigma_degenerates_to_mean(self):
        assert gaussian_boon_single(7.0, 0.0, 12) == 7.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_boon_single(0.0, -0.5, 3)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.5, -3.0), (10.0, 100.0)])
    def test_affine_equivariance(self, a, b):
        mu, sigma, n = 1.5, 0.7, 6
        direct = gaussian_boon_single(a * mu + b, a * sigma, n)
        mapped = a * gaussian_boon_single(mu, sigma, n) + b
        assert direct == pytest.approx(mapped, abs=1e-9)


class TestGaussianBoonValtest:
    def test_zero_correlation_gives_test_mean(self):
        params = GaussianParams(mu_val=1.0, mu_test=5.0, sigma_val=2.0, sigma_test=3.0, rho=0.0)
        for n in (1, 3, 8):
            assert gaussian_boon_valtest(params, n) == 5.0

    def test_perfect_correlation_reduces_to_single_evaluation(self):
        params = GaussianParams(mu_val=0.0, mu_test=2.0, sigma_val=1.0, sigma_test=0.5, rho=1.0)
        for n in (1, 2, 7):
            assert gaussian_boon_valtest(params, n) == pytest.approx(
                gaussian_boon_single(2.0, 0.5, n), abs=1e-12
            )

    def test_reference_composition(self):
        params = GaussianParams(mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94, rho=0.18)
        assert gaussian_boon_valtest(params, 5) == pytest.approx(63.357, abs=0.005)

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
