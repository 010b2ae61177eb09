"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats the names, units and
directions; ``selftest.py`` checks that the two agree. For each per-layer
metric, ``moves`` says which end-to-end metric it should move, and on which
workload, so a later change that claims a gain in one layer can be held to
that prediction.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "report_s": ("s", "lower"),
    "summarize_s": ("s", "lower"),
    "boon_s": ("s", "lower"),
    "boon_gaussian_s": ("s", "lower"),
    "compare_s": ("s", "lower"),
    "curve_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "bootstrap_rps": ("1/s", "higher"),
    "mc_ci_rps": ("1/s", "higher"),
}

PER_LAYER = {
    "import.interpreter_s": ("s", "lower",
        "setup_s and every *_s command metric equally on all workloads"),
    "import.numpy_s": ("s", "lower",
        "setup_s on all workloads; not bootstrap_rps"),
    "import.scipy_s": ("s", "lower",
        "setup_s on all workloads and summarize_s most; not bootstrap_rps"),
    "import.bestofn_s": ("s", "lower",
        "setup_s on all workloads; not bootstrap_rps"),
    "cli.load_pool_s": ("s", "lower",
        "report_s on search-m5000 only, and only marginally"),
    "cli.self_s": ("s", "lower",
        "report_s on all workloads, minus cold start; not bootstrap_rps"),
    "estimators.from_arrays_us": ("us", "lower",
        "boon_s, boon_gaussian_s, bootstrap_rps mostly on search-m5000, less on paper-m50; "
        "not compare_s, curve_s or mc_ci_rps"),
    "estimators.pools_per_rep": ("count", "lower",
        "boon_s, boon_gaussian_s, bootstrap_rps mostly on search-m5000; "
        "not compare_s, curve_s or mc_ci_rps"),
    "estimators.boon_nonparametric_us": ("us", "lower",
        "boon_s, bootstrap_rps, compare_s and mc_ci_rps on both pool sizes"),
    "estimators.boon_parametric_us": ("us", "lower",
        "boon_gaussian_s on both pool sizes"),
    "estimators.summarize_ms": ("ms", "lower",
        "summarize_s, marginally, on search-m5000"),
    "estimators.anderson_darling_ms": ("ms", "lower",
        "summarize_s, marginally, on search-m5000"),
    "estimators.stat_share": ("fraction", "higher",
        "bootstrap_rps: a low share means resampling overhead dominates (paper-m50)"),
    "resampling.overhead_us_per_rep": ("us", "lower",
        "bootstrap_rps, boon_s, compare_s and mc_ci_rps on paper-m50; not on search-m5000"),
    "resampling.stat_evals_per_rep": ("count", "lower",
        "bootstrap_rps and boon_s when above 1 (retries), on all workloads"),
    "resampling.compare_us_per_rep": ("us", "lower",
        "compare_s on all workloads"),
    "resampling.mc_ci_us_per_rep": ("us", "lower",
        "mc_ci_rps on all workloads"),
    "resampling.smoothed_us_per_rep": ("us", "lower",
        "no end-to-end metric directly; smoothed_bootstrap_ci is only checked"),
    "resampling.curve_s": ("s", "lower",
        "curve_s on all workloads, equally on paper-m50 and search-m5000"),
    # Both workloads run one worker, so no end-to-end metric here sees these;
    # they predict the same metrics for a user who passes --workers 2.
    "resampling.workers2_ratio.bootstrap": ("ratio", "lower",
        "none (one worker); boon_s, boon_gaussian_s and bootstrap_rps under --workers 2"),
    "resampling.workers2_ratio.compare": ("ratio", "lower",
        "none (one worker); compare_s and mc_ci_rps under --workers 2"),
    "resampling.workers2_ratio.curve": ("ratio", "lower",
        "none (one worker); curve_s under --workers 2"),
    "distributions.en_cold_ms": ("ms", "lower",
        "boon_gaussian_s, negligibly"),
    "trace.overhead_frac": ("fraction", "lower",
        "none; the cost of tracing, which bounds how well the layers add up"),
}
