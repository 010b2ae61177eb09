"""Independent brute-force oracles the estimator tests check against.

Everything here is deliberately written with plain loops over explicit
enumerations, sharing no code with the package internals.
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


def enumerate_best_of_subsets(records, n, direction="maximize"):
    """Exact expected best-validation test score of n records drawn without
    replacement, by enumerating all C(m, n) subsets; tied best entries
    average their test scores, as in :func:`enumerate_boon`."""
    sign = -1.0 if direction == "minimize" else 1.0
    subsets = list(itertools.combinations(records, n))
    total = 0.0
    for subset in subsets:
        best_val = max(sign * v for v, _ in subset)
        tied_tests = [t for v, t in subset if sign * v == best_val]
        total += sum(tied_tests) / len(tied_tests)
    return total / len(subsets)


def enumerate_discrete_expected_max(atoms, n):
    """Exact expected maximum of n draws from (value, weight) atoms."""
    total = 0.0
    for combo in itertools.product(range(len(atoms)), repeat=n):
        prob = math.prod(atoms[i][1] for i in combo)
        total += prob * max(atoms[i][0] for i in combo)
    return total


def sample_std(values):
    """Bessel-corrected standard deviation, straight from the formula."""
    m = len(values)
    mean = sum(values) / m
    return math.sqrt(sum((x - mean) ** 2 for x in values) / (m - 1))
