"""Seeded synthetic result pools, written as the files the CLI reads.

Scores are bivariate normal with validation-test correlation 0.6 and the
percent scale of the paper's example (test mean 63.16, SD 0.94). Pool B,
the candidate, is shifted slightly toward better scores. Minimize pools
hold error rates (100 minus the accuracy). Values are written with
``repr`` so the program parses back exactly the arrays the benchmark
checks against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RHO = 0.6
MU_VAL, SIGMA_VAL = 63.5, 1.0
MU_TEST, SIGMA_TEST = 63.16, 0.94
CANDIDATE_SHIFT = 0.3


@dataclass(frozen=True)
class Pool:
    """One generated pool: its file and the exact arrays in it."""

    path: Path
    validation: np.ndarray
    test: np.ndarray


def _draw(rng: np.random.Generator, m: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    z = rng.standard_normal((m, 2))
    val = MU_VAL + shift + SIGMA_VAL * z[:, 0]
    test = MU_TEST + shift + SIGMA_TEST * (RHO * z[:, 0] + math.sqrt(1.0 - RHO**2) * z[:, 1])
    return val, test


def write_pool(path: Path, validation: np.ndarray, test: np.ndarray) -> None:
    """Write a CSV (``validation,test`` header) or JSONL file by suffix."""
    rows = zip(validation.tolist(), test.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".jsonl":
            for v, t in rows:
                fh.write(json.dumps({"validation": v, "test": t}) + "\n")
        else:
            fh.write("validation,test\n")
            for v, t in rows:
                fh.write(f"{v!r},{t!r}\n")


def make_pools(
    directory: Path,
    seed: int,
    m: int,
    fmt: str,
    minimize: bool,
    round_validation: int | None,
) -> tuple[Pool, Pool]:
    """Baseline pool A and candidate pool B of m records each.

    ``round_validation`` rounds validation scores to that many decimals,
    which makes tied-validation groups common, as in search logs.
    """
    rng = np.random.default_rng([seed, m])
    pools = []
    for name, shift in (("A", 0.0), ("B", CANDIDATE_SHIFT)):
        val, test = _draw(rng, m, shift)
        if minimize:
            val, test = 100.0 - val, 100.0 - test
        if round_validation is not None:
            val = np.round(val, round_validation)
        path = directory / f"{name}.{fmt}"
        write_pool(path, val, test)
        pools.append(Pool(path, val, test))
    return pools[0], pools[1]
