"""Exact expected best-out-of-n values for theoretical score distributions.

If a model's final score is a random variable X with CDF F, the best of n
independent trainings has CDF F^n, so its expected value is

    E_n = integral of x * n * f(x) * F(x)^(n-1) dx        (continuous)
    E_n = sum_i ((P[X <= x_i])^n - (P[X < x_i])^n) * x_i  (discrete)

The Gaussian case reduces to mu + sigma * E_n(N(0,1)), and for a bivariate
normal (validation, test) pair the expected *test* score of the
best-*validation* model is mu_test + rho * sigma_test * E_n(N(0,1)).
Everything here is written for maxima; :mod:`bestofn.estimators` handles
loss-style metrics by negation (the Gaussian estimator) or by the pool's
worst-to-best record order (the non-parametric one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import _MAX_N, InvalidDistributionError, _integer_arg

__all__ = [
    "ContinuousDistribution",
    "DiscreteDistribution",
    "GaussianParams",
    "standard_normal",
    "normal",
    "uniform",
    "std_normal_expected_max",
    "expected_max_continuous",
    "expected_max_discrete",
    "gaussian_boon_single",
    "gaussian_boon_valtest",
]

# CDF of a valid distribution must reach 0 / 1 at the support ends to
# within this tolerance (also the quadrature accuracy target).
_CDF_TOL = 1e-6

# Truncation for unbounded Gaussian supports: the mass beyond 12 sigma is
# ~1.8e-33, negligible against the 1e-6 accuracy target.
_GAUSSIAN_SUPPORT_SIGMAS = 12.0

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Trapezoid step for E_n(N(0,1)) on [-12, 12]. The integrand is smooth and
# decays like exp(-x^2/2), so the rule converges geometrically; at this step
# it agrees with adaptive quadrature to ~1e-12 for n up to several thousand.
_EN_GRID_STEP = 1.0 / 128.0

# Below this z, erfc(-z/sqrt2) nears the subnormal range and log Phi(z)
# switches to its asymptotic series.
_LOG_NDTR_ASYMPTOTIC_Z = -37.0


@dataclass(frozen=True)
class ContinuousDistribution:
    """A continuous score distribution given by its pdf and cdf.

    ``cdf`` must be non-decreasing with ``cdf(support_lo) ~ 0`` and
    ``cdf(support_hi) ~ 1``; this is checked when the distribution is
    integrated, not at construction time.
    """

    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    support_lo: float
    support_hi: float


@dataclass(frozen=True)
class DiscreteDistribution:
    """A discrete score distribution as (value, weight) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("discrete distribution needs at least one atom")
        object.__setattr__(self, "atoms", tuple((float(x), float(p)) for x, p in self.atoms))
        values = [x for x, _ in self.atoms]
        weights = [p for _, p in self.atoms]
        if any(not math.isfinite(x) for x in values):
            raise ValueError("atom values must be finite")
        if any(p <= 0.0 for p in weights):
            raise ValueError("atom weights must be strictly positive")
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1 (got {total!r})")

    def mean(self) -> float:
        return math.fsum(x * p for x, p in self.atoms)


@dataclass(frozen=True)
class GaussianParams:
    """Bivariate-normal fit of a (validation, test) score distribution."""

    mu_val: float
    mu_test: float
    sigma_val: float
    sigma_test: float
    rho: float

    def __post_init__(self):
        for name in ("mu_val", "mu_test", "sigma_val", "sigma_test", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma_val <= 0.0 or self.sigma_test <= 0.0:
            raise ValueError("sigma_val and sigma_test must be positive")
        if abs(self.rho) > 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


def _phi(z: float) -> float:
    """Standard normal pdf."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _Phi(z: float) -> float:
    """Standard normal cdf via erf."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.tolist()), dtype=float, count=x.size)


def _log_ndtr(z: np.ndarray) -> np.ndarray:
    """log Phi(z) of the standard normal, elementwise, accurate in both tails.

    The upper half uses log1p(-Q(z)) so values near 0 keep their relative
    precision; far in the lower tail, where erfc underflows, it uses
    log(phi(z) / -z) plus the asymptotic series of the Mills ratio.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    upper = z > 0.0
    lower = z < _LOG_NDTR_ASYMPTOTIC_Z
    body = ~(upper | lower)
    out[upper] = np.log1p(-0.5 * _erfc(z[upper] / _SQRT2))
    out[body] = np.log(0.5 * _erfc(-z[body] / _SQRT2))
    zl = z[lower]
    w = 1.0 / (zl * zl)
    # 1 - 1/z^2 + 3/z^4 - 15/z^6 + ...; the first omitted term is < 2e-15.
    series = w * (-1.0 + w * (3.0 + w * (-15.0 + w * (105.0 - 945.0 * w))))
    out[lower] = -0.5 * zl * zl - np.log(-zl) - _LOG_SQRT_2PI + np.log1p(series)
    return out


def normal(mu: float, sigma: float) -> ContinuousDistribution:
    """Gaussian score distribution, support truncated at mu +/- 12 sigma."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    half = _GAUSSIAN_SUPPORT_SIGMAS * sigma
    return ContinuousDistribution(
        pdf=lambda x: _phi((x - mu) / sigma) / sigma,
        cdf=lambda x: _Phi((x - mu) / sigma),
        support_lo=mu - half,
        support_hi=mu + half,
    )


def standard_normal() -> ContinuousDistribution:
    """The built-in N(0, 1) instance."""
    return normal(0.0, 1.0)


def uniform(lo: float, hi: float) -> ContinuousDistribution:
    """Uniform score distribution on [lo, hi]."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    width = hi - lo
    return ContinuousDistribution(
        pdf=lambda x: 1.0 / width if lo <= x <= hi else 0.0,
        cdf=lambda x: min(1.0, max(0.0, (x - lo) / width)),
        support_lo=lo,
        support_hi=hi,
    )


def _pow_cdf(F: float, n: int) -> float:
    """F^(n-1) in log space; avoids underflow for large n and guards F <= 0."""
    if n == 1:
        return 1.0
    if F <= 0.0:
        return 0.0
    if F >= 1.0:
        return 1.0
    return math.exp((n - 1) * math.log(F))


def _finite_bounds(dist: ContinuousDistribution) -> tuple[float, float]:
    """Replace infinite support ends with points of negligible tail mass."""
    lo, hi = dist.support_lo, dist.support_hi
    if math.isinf(lo):
        lo = -1.0
        while dist.cdf(lo) > 1e-14 and lo > -1e300:
            lo *= 2.0
    if math.isinf(hi):
        hi = 1.0
        while dist.cdf(hi) < 1.0 - 1e-14 and hi < 1e300:
            hi *= 2.0
    return lo, hi


def expected_max_continuous(dist: ContinuousDistribution, n: int) -> float:
    """Expected maximum of n i.i.d. draws from a continuous distribution.

    Integrates x * n * f(x) * F(x)^(n-1) over the support with adaptive
    quadrature (absolute/relative tolerance well below 1e-6).

    Raises
    ------
    InvalidDistributionError
        If the cdf does not reach 0 and 1 at the support ends.
    ValueError
        If n is not a positive integer.
    """
    _integer_arg(n, "n", 1, _MAX_N)
    lo, hi = _finite_bounds(dist)
    if abs(dist.cdf(hi) - 1.0) > _CDF_TOL:
        raise InvalidDistributionError(
            f"cdf({hi!r}) = {dist.cdf(hi)!r}, expected 1 within {_CDF_TOL}"
        )
    if abs(dist.cdf(lo)) > _CDF_TOL:
        raise InvalidDistributionError(
            f"cdf({lo!r}) = {dist.cdf(lo)!r}, expected 0 within {_CDF_TOL}"
        )

    def integrand(x: float) -> float:
        return x * n * dist.pdf(x) * _pow_cdf(dist.cdf(x), n)

    from scipy.integrate import quad  # deferred: scipy costs ~1 s of import time

    value, _abserr = quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=200)
    return value


@lru_cache(maxsize=1)
def _std_normal_grid(offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid weights h * x * phi(x) and log Phi(x) on the E_n grid, ``offset`` steps up."""
    half = round(_GAUSSIAN_SUPPORT_SIGMAS / _EN_GRID_STEP)
    x = np.arange(offset - half, offset + half + 1) * _EN_GRID_STEP
    weights = (_EN_GRID_STEP * _INV_SQRT_2PI) * x * np.exp(-0.5 * x * x)
    log_cdf = _log_ndtr(x)
    weights.flags.writeable = False
    log_cdf.flags.writeable = False
    return weights, log_cdf


@lru_cache(maxsize=None)
def std_normal_expected_max(n: int) -> float:
    """Expected maximum of n i.i.d. standard normal draws.

    This is the constant coefficient in all Gaussian best-out-of-n
    formulas, so values are memoized per n. E.g. n=5 -> 1.163, n=10 -> 1.539.
    Computed as n * integral of x * phi(x) * Phi(x)^(n-1) by the trapezoid
    rule on [-12, 12], moved up from n ~ 1e14 on to end 4 past sqrt(2 ln n), near which
    the maximum's mass lies; Phi(x)^(n-1) is exp((n-1) * log Phi(x)): Phi(x) rounds to 1
    above x ~ 8.3, where its power must still vanish for very large n.
    """
    _integer_arg(n, "n", 1, _MAX_N)
    shift = math.sqrt(2.0 * math.log(n)) + 4.0 - _GAUSSIAN_SUPPORT_SIGMAS
    weights, log_cdf = _std_normal_grid(max(0, math.ceil(shift / _EN_GRID_STEP)))
    return n * float(np.dot(weights, np.exp((n - 1) * log_cdf)))


def expected_max_discrete(dist: DiscreteDistribution, n: int) -> float:
    """Expected maximum of n i.i.d. draws from a discrete distribution.

    Exact summation: the maximum equals x_i with probability
    (P[X <= x_i])^n - (P[X < x_i])^n. No sampling involved.
    """
    _integer_arg(n, "n", 1, _MAX_N)
    ordered = sorted(dist.atoms)
    total = 0.0
    cum = 0.0
    for i, (x, p) in enumerate(ordered):
        cum_prev = cum
        # Force the final cumulative weight to exactly 1 so large powers of
        # it do not drift; the weights are validated to sum to 1.
        cum = 1.0 if i == len(ordered) - 1 else cum + p
        total += (cum**n - cum_prev**n) * x
    return total


def gaussian_boon_single(mu: float, sigma: float, n: int) -> float:
    """Best-out-of-n of N(mu, sigma^2) when selection and reporting use the
    same metric: mu + sigma * E_n(N(0,1))."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return mu + sigma * std_normal_expected_max(n)


def gaussian_boon_valtest(params: GaussianParams, n: int) -> float:
    """Expected test score of the best-validation model out of n under a
    bivariate normal: mu_test + rho * sigma_test * E_n(N(0,1)).

    Only the correlated share of the test spread is recovered by validation
    selection; rho = 0 collapses to the plain test mean.
    """
    return params.mu_test + params.rho * params.sigma_test * std_normal_expected_max(n)
