"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with plain ``pytest``; the verdict lines bypass output capture so they
are visible in any mode. Criteria cover closed-form reference constants,
brute-force equivalence of the rank-weighted estimator, parametric
consistency with the bivariate-normal closed form, interval coverage
calibration, curve/estimator agreement, the qualitative two-regime
comparison, and bit-exact reproducibility of the command-line tool.
"""

import json
import math

import numpy as np
import pytest

from bestofn import (
    EstimatorKind,
    GaussianParams,
    ResamplingConfig,
    ResultPool,
    best_of_m_curve,
    best_single_model,
    boon_nonparametric,
    boon_parametric_gaussian,
    fit_gaussian_params,
    gaussian_boon_valtest,
    monte_carlo_ci_gaussian,
    smoothed_bootstrap_ci,
    std_normal_expected_max,
)
from bestofn.cli import main as cli_main

import helpers
import oracles


def _verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {number} ({name}): {status} - {detail}", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_closed_form_constants(capsys):
    e5 = std_normal_expected_max(5)
    e10 = std_normal_expected_max(10)
    e2 = std_normal_expected_max(2)
    err5 = abs(e5 - 1.163)
    err10 = abs(e10 - 1.539)
    err2 = abs(e2 - 1.0 / math.sqrt(math.pi))
    ok = err5 <= 1e-3 and err10 <= 1e-3 and err2 <= 1e-4
    _verdict(
        capsys, 1, "closed-form constants", ok,
        f"E5={e5:.6f} (err {err5:.1e}), E10={e10:.6f} (err {err10:.1e}), "
        f"E2 err {err2:.1e}",
    )


def test_criterion_2_brute_force_equivalence(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(200):
        records = helpers.random_tied_records(rng, m_max=6)
        pool = ResultPool.from_pairs(records)
        for n in range(1, 5):
            expected = oracles.enumerate_boon(records, n)
            got = boon_nonparametric(pool, n).value
            worst = max(worst, abs(got - expected))
            checked += 1
    ok = worst <= 1e-10
    _verdict(
        capsys, 2, "brute-force equivalence", ok,
        f"{checked} pool/n combinations, max abs error {worst:.2e} (limit 1e-10)",
    )


def test_criterion_3_parametric_consistency(capsys):
    target = gaussian_boon_valtest(
        GaussianParams(mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94, rho=0.18), 5
    )
    assert abs(target - 63.357) <= 5e-3
    hits = 0
    errors = []
    for seed in range(20):
        pool = helpers.bivariate_normal_pool(
            m=10_000, mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94,
            rho=0.18, seed=1000 + seed,
        )
        err = abs(boon_parametric_gaussian(pool, 5).value - target)
        errors.append(err)
        hits += err <= 0.05
    ok = hits >= 19
    _verdict(
        capsys, 3, "parametric/closed-form consistency", ok,
        f"{hits}/20 seeds within 0.05 of {target:.4f} (max err {max(errors):.4f})",
    )


def test_criterion_4_coverage_calibration(capsys):
    true = GaussianParams(mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94, rho=0.18)
    true_boon5 = gaussian_boon_valtest(true, 5)
    base_seed = 77
    hits = 0
    trials = 1000
    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=base_seed, spawn_key=(trial,))
        )
        z = rng.standard_normal((50, 2))
        vals = true.mu_val + true.sigma_val * z[:, 0]
        tests = true.mu_test + true.sigma_test * (
            true.rho * z[:, 0] + math.sqrt(1 - true.rho**2) * z[:, 1]
        )
        fitted = fit_gaussian_params(ResultPool.from_arrays(vals, tests))
        ci = monte_carlo_ci_gaussian(
            fitted, m=50, n=5, estimator_kind=EstimatorKind.NONPARAMETRIC,
            config=ResamplingConfig(replicates=1000, seed=base_seed + trial),
        )
        hits += ci.contains(true_boon5)
    ok = 920 <= hits <= 980
    _verdict(
        capsys, 4, "coverage calibration", ok,
        f"{hits}/{trials} 95% intervals covered the true value (need 950 +/- 30)",
    )


def test_criterion_5_curve_consistency(capsys):
    pool = helpers.bivariate_normal_pool(
        m=200, mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94,
        rho=0.5, seed=123,
    )
    points = best_of_m_curve(
        pool, list(range(1, 21)), 100_000, ResamplingConfig(seed=9), with_ci=False
    )
    worst = 0.0
    for p in points:
        exact = boon_nonparametric(pool, p.m).value
        worst = max(worst, abs(p.expected_best_test - exact) / p.mc_se)
    ok = worst <= 4.0
    _verdict(
        capsys, 5, "curve consistency", ok,
        f"m=1..20 at 100k samples each, worst deviation {worst:.2f} "
        "Monte Carlo standard errors (limit 4)",
    )


def test_criterion_6_two_regime_comparison(capsys):
    # data-shuffling-only regime: weak validation-test link; random search
    # regime: strong link and wider spread
    low = helpers.bivariate_normal_pool(
        m=370, mu_val=60.0, mu_test=63.16, sigma_val=1.0, sigma_test=0.94,
        rho=0.1, seed=21,
    )
    high = helpers.bivariate_normal_pool(
        m=197, mu_val=60.0, mu_test=61.26, sigma_val=1.0, sigma_test=2.48,
        rho=0.83, seed=22,
    )
    cfg = ResamplingConfig(replicates=10_000, seed=5)
    boon5_stat = lambda p: boon_nonparametric(p, 5).value  # noqa: E731

    band_ok = True
    ratios = []
    for pool in (low, high):
        for m in (5, 10, 20, 50):
            bsm = smoothed_bootstrap_ci(pool, best_single_model, cfg, resample_size=m)
            boo = smoothed_bootstrap_ci(pool, boon5_stat, cfg, resample_size=m)
            ratios.append(bsm.width / boo.width)
            band_ok = band_ok and bsm.width > boo.width

    rises = {}
    for name, pool in (("low", low), ("high", high)):
        sd_test = float(pool.test_scores.std(ddof=1))
        ends = best_of_m_curve(pool, [1, 20], 50_000, cfg, with_ci=False)
        rises[name] = (ends[1].expected_best_test - ends[0].expected_best_test) / sd_test
    rise_ok = rises["high"] >= 1.0 and rises["low"] < 0.5

    ok = band_ok and rise_ok
    _verdict(
        capsys, 6, "two-regime comparison", ok,
        f"best-single band / best-of-5 band width ratios {min(ratios):.2f}..{max(ratios):.2f} "
        f"(all > 1), curve rise m=1->20: high-corr {rises['high']:.2f} sd (need >= 1), "
        f"low-corr {rises['low']:.2f} sd (need < 0.5)",
    )


def test_criterion_7_cli_determinism(capsys, tmp_path):
    pool_a = helpers.bivariate_normal_pool(m=30, rho=0.4, seed=101)
    pool_b = helpers.bivariate_normal_pool(m=24, rho=0.4, seed=102)
    path_a = helpers.write_pool_csv(
        tmp_path / "a.csv",
        list(zip(pool_a.validation_scores.tolist(), pool_a.test_scores.tolist())),
    )
    path_b = helpers.write_pool_csv(
        tmp_path / "b.csv",
        list(zip(pool_b.validation_scores.tolist(), pool_b.test_scores.tolist())),
    )

    commands = {
        "boon": ["boon", path_a, "--n", "3,5", "--bootstrap", "400"],
        "curve": ["curve", path_a, "--m-max", "5", "--samples-per-m", "2000",
                  "--bootstrap", "300"],
        "compare": ["compare", path_a, path_b, "--n", "5", "--bootstrap", "400"],
    }

    def run_to_report(argv, out_name):
        out = tmp_path / out_name
        rc = cli_main([str(a) for a in argv + ["--output", out]])
        assert rc == 0
        with open(out) as fh:
            report = json.load(fh)
        report.pop("command")
        report.pop("curve_csv", None)
        return report

    all_ok = True
    details = []
    for name, argv in commands.items():
        first = run_to_report(argv, f"{name}_first.json")
        recorded_seed = first["seed"]
        rerun = run_to_report(argv + ["--seed", recorded_seed], f"{name}_rerun.json")
        parallel = run_to_report(
            argv + ["--seed", recorded_seed, "--workers", "4"], f"{name}_par.json"
        )
        same = first == rerun == parallel
        all_ok = all_ok and same
        details.append(f"{name}: {'bit-identical' if same else 'MISMATCH'}")
    _verdict(
        capsys, 7, "determinism", all_ok,
        "recorded-seed reruns serial and with 4 workers -> " + ", ".join(details),
    )
