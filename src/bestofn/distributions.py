"""The Gaussian closed form of best-out-of-n and its constant E_n.

For a bivariate normal (validation, test) score distribution, the expected
*test* score of the best-*validation* model out of n independent trainings
is mu_test + rho * sigma_test * E_n, where E_n is the expected maximum of n
standard normal draws,

    E_n = n * integral of x * phi(x) * Phi(x)^(n-1) dx.

Everything here is written for maxima. :mod:`bestofn.estimators` handles
loss-style metrics through the pool's worst-to-best record order, and its
Gaussian estimator by the sign of E_n: the best of n losses lies below
their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _MAX_N, _integer_arg

__all__ = [
    "GaussianParams",
    "std_normal_expected_max",
    "gaussian_boon_valtest",
]

# Half-width of the E_n integration window in standard deviations: the mass
# beyond 12 sigma is ~1.8e-33.
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


def gaussian_boon_valtest(params: GaussianParams, n: int) -> float:
    """Expected test score of the best-validation model out of n under a
    bivariate normal: mu_test + rho * sigma_test * E_n(N(0,1)).

    Only the correlated share of the test spread is recovered by validation
    selection; rho = 0 collapses to the plain test mean.
    """
    return params.mu_test + params.rho * params.sigma_test * std_normal_expected_max(n)
