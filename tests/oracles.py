"""Independent oracles the estimator tests check against.

Everything here is deliberately written with plain loops over explicit
enumerations, or with scipy's adaptive quadrature, sharing no code with the
package internals.
"""

import itertools
import math


def enumerate_boon(records, n, direction="maximize"):
    """Exact expected best-out-of-n by enumerating all m^n draw tuples.

    Draws are with replacement from the empirical distribution. For each
    tuple the best-validation record is selected; if several drawn entries
    tie on validation, their test scores are averaged (a uniformly random
    pick among the tied entries, in expectation).
    """
    m = len(records)
    sign = -1.0 if direction == "minimize" else 1.0
    total = 0.0
    for combo in itertools.product(range(m), repeat=n):
        best_val = max(sign * records[i][0] for i in combo)
        tied_tests = [records[i][1] for i in combo if sign * records[i][0] == best_val]
        total += sum(tied_tests) / len(tied_tests)
    return total / m**n


def std_normal_expected_max(n):
    """Expected maximum of n standard normal draws, n * integral of x * phi(x) * Phi(x)^(n-1),
    by adaptive quadrature over 12 standard deviations either side of sqrt(2 ln n), near which
    the maximum's mass lies.

    The integrand is taken in log space, so Phi(x)^(n-1) vanishes where Phi(x) rounds to 1
    but n is very large; log Phi(x) comes from erfc above 0, since scipy's ndtr flushes the
    upper tail to 0 past x ~ 37.6, which the largest n still reads.
    """
    from scipy.integrate import quad
    from scipy.special import log_ndtr

    log_n = math.log(n)

    def integrand(x):
        log_cdf = math.log1p(-0.5 * math.erfc(x / math.sqrt(2))) if x > 0 else log_ndtr(x)
        return x * math.exp(log_n - 0.5 * x * x + (n - 1) * log_cdf) / math.sqrt(2 * math.pi)

    mode = math.sqrt(2 * log_n)
    value, _ = quad(integrand, mode - 12, mode + 12, epsabs=1e-13, epsrel=1e-12, limit=200,
                    points=[mode])
    return value


def sample_std(values):
    """Bessel-corrected standard deviation, straight from the formula."""
    m = len(values)
    mean = sum(values) / m
    return math.sqrt(sum((x - mean) ** 2 for x in values) / (m - 1))


def bootstrap_boon_mean(records, n, s, direction="maximize"):
    """Exact mean of the non-parametric Boo(n) over with-replacement
    resamples of s records (Hutson & Ernst 2000).

    With the validation tie groups ranked worst first and G_g the number of
    pool records in groups 1..g, a resample's count S_g of those records is
    Binomial(s, G_g / m). Group g weighs (S_g/s)^n - (S_{g-1}/s)^n, which is
    zero when the resample misses the group, and given the group counts the
    resample's mean test score in a drawn group averages to the group's pool
    mean t_g. So the mean is sum_g t_g * (E[(S_g/s)^n] - E[(S_{g-1}/s)^n]).
    """
    sign = -1.0 if direction == "minimize" else 1.0
    m = len(records)
    groups = {}
    for v, t in records:
        groups.setdefault(sign * v, []).append(t)

    def power_mean(p):
        """E[(S/s)^n] for S ~ Binomial(s, p), the pmf taken in log space."""
        if p == 1.0:
            return 1.0
        total = 0.0
        for k in range(1, s + 1):
            log_pmf = (
                math.lgamma(s + 1) - math.lgamma(k + 1) - math.lgamma(s - k + 1)
                + k * math.log(p) + (s - k) * math.log1p(-p)
            )
            total += math.exp(log_pmf) * (k / s) ** n
        return total

    mean, below, previous = 0.0, 0, 0.0
    for key in sorted(groups):
        tests = groups[key]
        below += len(tests)
        current = power_mean(below / m)
        mean += sum(tests) / len(tests) * (current - previous)
        previous = current
    return mean
