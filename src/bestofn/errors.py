"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument validation (negative
sigma, n = 0, and so on), with ``_integer_arg`` the one check for integer
arguments; the classes here mark domain conditions a caller may want to
handle separately.
"""

from __future__ import annotations

import operator
import sys

__all__ = [
    "BestOfNError",
    "InvalidDataError",
    "InsufficientDataError",
    "DegeneratePoolError",
    "ResamplingDegenerateError",
    "PoolFileError",
]

_MAX_N = int(sys.float_info.max)  # the largest n taken: (j/m)**n stays a float power


def _integer_arg(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (no upper bound when ``high`` is
    None). Python and numpy integers pass; anything else, a bool or a float
    with an integral value included, raises ValueError naming the argument."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low or (high is not None and number > high):
        top = high if high is None or high.bit_length() <= 64 else float(high)  # _MAX_N, exactly
        wanted = f"an integer >= {low}" if high is None else f"an integer in [{low}, {top}]"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    return number


class BestOfNError(Exception):
    """Base class for all package-specific errors."""


class InvalidDataError(BestOfNError, ValueError):
    """Input scores are unusable (non-finite values, empty pool)."""


class InsufficientDataError(BestOfNError, ValueError):
    """Too few observations for the requested statistic."""


class DegeneratePoolError(BestOfNError, ValueError):
    """A pool has zero variance on an axis a statistic needs, or scores so
    near the float range's limits that a Boo(n) estimate or a bandwidth overflows.

    The message names the degenerate axis ("validation" or "test") or the
    overflow.
    """


class ResamplingDegenerateError(BestOfNError, RuntimeError):
    """The statistic failed on more than the tolerated fraction of resamples;
    ``failure_fraction`` is the failed share of the replicates drawn, in the worst column."""

    def __init__(self, failure_fraction: float):
        self.failure_fraction = failure_fraction
        super().__init__(f"statistic failed on {failure_fraction:.1%} of resamples (tolerated: 1%)")

    def __reduce__(self):  # rebuilt from the fraction, not from the formatted message
        return type(self), (self.failure_fraction,)


class PoolFileError(BestOfNError, ValueError):
    """An input file could not be turned into a valid result pool.

    ``bad_rows`` lists (line_number, reason) pairs for rejected rows so no
    row is ever dropped silently.
    """

    def __init__(self, message: str, bad_rows: list[tuple[int, str]] | None = None):
        self.bad_rows = bad_rows or []
        if self.bad_rows:
            detail = "; ".join(f"line {ln}: {why}" for ln, why in self.bad_rows[:20])
            if len(self.bad_rows) > 20:
                detail += f"; ... ({len(self.bad_rows)} rejected rows total)"
            message = f"{message}: {detail}"
        super().__init__(message)
