#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``bestofn`` CLI and library.

    python3 perfbench/run.py --workload paper-m50 --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the program is taken from
``src/`` (``python -m bestofn`` with ``src`` on ``PYTHONPATH``), so nothing
needs installing. The workload seed generates the input pools, which the
program sees only as files in a temporary directory under ``.perfbench/``.

Untraced (``--trace 0``): one client runs the CLI script closed-loop, each
command in a fresh subprocess, one at a time, after a cold start
(``--version``) that gives ``setup_s``. After each command it times
``bootstrap_ci`` or, after every second one, ``monte_carlo_ci_gaussian``
in this warm process, so those samples are spread over the pass;
``smoothed_bootstrap_ci`` runs, checked, in the warm-up. Passes repeat for
``--seconds``: the first one always runs whole, and later ones stop at
the first step that would not finish in time, so the early commands of
the script may get one sample more than the late ones. Each metric is the
median of its samples; ``report_s`` is taken from whole passes only. Every
report and library result is checked against ``reference.py``. The last
stdout line is a JSON object with every end-to-end metric.

The host is a few cores of a shared machine whose speed swings by tens of
percent from one stretch of seconds to the next, so a fixed probe that
uses no ``bestofn`` code runs between consecutive timed operations, and
each sample is scaled to the speed of a reference host as the probes
around it measure it (see ``HostSpeed``). A change to the program moves
the scaled figures as it moves the raw ones; the raw medians are printed,
and kept with every sample and its factor in the result file.

Traced (``--trace 1``): the same script runs in-process with spans around
the public functions of ``cli``, ``estimators``, ``resampling`` and
``distributions``, plus ``python -X importtime``; the last line carries
every per-layer metric. Spans go to ``.perfbench/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import metrics
import reference
from pools import make_pools
from spans import SpanIndex, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

LEVEL = 0.95
N = 5                     # n of the Boo(n) statistic in compare and the library calls
REF_PROBE_S = 0.045       # host_probe() time on the reference host (a 2-vCPU Xeon VM)
CURVE_M_MAX = 20          # CLI defaults for `curve`
CURVE_SAMPLES = 10_000
CURVE_BAND = 10_000
RUN_LIMIT_S = 170.0       # every run must end within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    fmt: str
    minimize: bool
    round_validation: int | None
    boon_replicates: int      # `boon --bootstrap B`
    compare_replicates: int   # `compare --bootstrap B`
    lib_replicates: int       # library bootstrap_ci and smoothed_bootstrap_ci
    mc_replicates: int        # library monte_carlo_ci_gaussian


WORKLOADS = {w.name: w for w in (
    Workload("paper-m50", 50, "csv", False, None, 4_000, 10_000, 2_000, 2_000),
    Workload("search-m5000", 5000, "jsonl", True, 2, 100, 500, 100, 100),
)}


class Run:
    """Operation counts, failures, pools and the process launcher of one
    benchmark run."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w, self.seed, self.tmp = workload, seed, tmp
        self.t0 = time.perf_counter()
        self.attempted = self.failed = 0
        self.peak_rss_kb = 0
        self.a, self.b = make_pools(tmp, seed, workload.m, workload.fmt,
                                    workload.minimize, workload.round_validation)
        self.ref = reference.Reference(self.a.validation, self.a.test, self.b.validation,
                                       self.b.test, workload.minimize, seed)
        self.first_reports: dict[str, bytes] = {}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("BESTOFN_SEED", None)
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def outcome(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"FAIL {label}: {e}", file=sys.stderr)

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# subprocesses


def run_process(run: Run, argv: list[str], log: Path) -> tuple[float, int, str, int]:
    """Run one process to completion through the launcher; returns (wall s,
    exit code, stderr, max-RSS KiB). A process that would overrun the run's
    time limit is killed."""
    err = log.with_suffix(".err")
    request = {"argv": argv, "stdout": str(log), "stderr": str(err),
               "timeout": max(run.time_left(), 1.0)}
    run.launcher.stdin.write(json.dumps(request) + "\n")
    run.launcher.stdin.flush()
    line = run.launcher.stdout.readline()
    if not line:
        raise SystemExit("error: the benchmark's process launcher died")
    reply = json.loads(line)
    return reply["wall_s"], reply["code"], err.read_text(errors="replace"), reply["maxrss_kb"]


def run_cli(run: Run, args: list[str], name: str) -> tuple[float, list[str]]:
    wall, code, stderr, rss_kb = run_process(
        run, [sys.executable, "-m", "bestofn", *args], run.tmp / f"{name}.out")
    run.peak_rss_kb = max(run.peak_rss_kb, rss_kb)
    errors = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
    return wall, errors


def cold_start(run: Run, label: str) -> float:
    wall, errors = run_cli(run, ["--version"], "version")
    if not errors:
        out = (run.tmp / "version.out").read_text()
        if not out.startswith("bestofn "):
            errors = [f"unexpected --version output {out!r}"]
    run.outcome(label, errors)
    return wall


# ---------------------------------------------------------------------------
# host speed


_PROBE_DATA = np.random.default_rng(0).random(20_000)


def host_probe() -> float:
    """Wall time of a fixed mix of numpy and interpreter work."""
    start = time.perf_counter()
    for _ in range(60):
        np.sort(_PROBE_DATA)
        total = 0
        for k in range(5_000):
            total += k
        sorted(range(3_000), key=lambda i: -i)
    return time.perf_counter() - start


class HostSpeed:
    """Host speed around each timed operation. ``around`` runs a probe
    before and after the operation (back-to-back operations share one). An
    operation's factor is the median of the ``2 * HALF_WINDOW`` probes
    nearest it, half before and half after, over the reference host's
    probe time. The host's speed holds for stretches of seconds, which the
    probes near an operation see and a run-wide median does not; a single
    probe is too short to be steady on its own."""

    HALF_WINDOW = 3

    def __init__(self):
        self.probes: list[float] = []

    def around(self, fn):
        """``fn()``'s result and the index of the probe just before it."""
        if not self.probes:
            self.probes.append(host_probe())
        before = len(self.probes) - 1
        result = fn()
        self.probes.append(host_probe())
        return result, before

    def factor(self, before: int) -> float:
        """The factor of the operation that ran after probe ``before``."""
        near = self.probes[max(0, before + 1 - self.HALF_WINDOW):before + 1 + self.HALF_WINDOW]
        return statistics.median(near) / REF_PROBE_S


def scale(name: str, raw: float, factor: float) -> float:
    """A raw sample at reference host speed: times are divided by the
    factor, rates multiplied by it."""
    return raw * factor if name.endswith("_rps") else raw / factor


# ---------------------------------------------------------------------------
# the CLI script


@dataclass(frozen=True)
class Command:
    name: str
    args: list[str]
    check: object  # report dict -> list of errors

    def output(self, run: Run) -> Path:
        return run.tmp / f"{self.name}.json"


def script(run: Run) -> list[Command]:
    w, ref = run.w, run.ref
    a, b = run.rel(run.a.path), run.rel(run.b.path)
    common = ["--direction", "min"] if w.minimize else []
    seed = ["--seed", str(run.seed)]
    out = lambda name: ["--output", run.rel(run.tmp / f"{name}.json")]  # noqa: E731
    boon_b = ["--bootstrap", str(w.boon_replicates)]
    return [
        Command("summarize", ["summarize", a, *common, *out("summarize")],
                lambda r: reference.check_summarize(r, ref)),
        Command("boon", ["boon", a, "--n", "1,5,20", *boon_b, *common, *seed, *out("boon")],
                lambda r: reference.check_boon(r, ref, [1, 5, 20], False, w.boon_replicates, LEVEL)),
        Command("boon_gaussian", ["boon", a, "--estimator", "gaussian", "--n", str(N), *boon_b,
                                  *common, *seed, *out("boon_gaussian")],
                lambda r: reference.check_boon(r, ref, [N], True, w.boon_replicates, LEVEL)),
        Command("compare", ["compare", a, b, "--n", str(N), "--bootstrap", str(w.compare_replicates),
                            *common, *seed, *out("compare")],
                lambda r: reference.check_compare(r, ref, N, w.compare_replicates, LEVEL)),
        Command("curve", ["curve", a, *common, *seed, *out("curve")],
                lambda r: reference.check_curve(r, ref, CURVE_M_MAX, CURVE_SAMPLES)),
    ]


def read_and_check(run: Run, cmd: Command) -> list[str]:
    """Reference checks on the command's report, and byte-identity with the
    run's first report of the same command."""
    try:
        raw = cmd.output(run).read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    errors = cmd.check(report)
    if raw != run.first_reports.setdefault(cmd.name, raw):
        errors.append("report differs from the first one of this run")
    return errors


# ---------------------------------------------------------------------------
# library calls


def ci_dict(ci) -> dict:
    return {"lo": ci.lo, "hi": ci.hi, "level": ci.level, "method": ci.method.value,
            "replicates": ci.replicates}


def curve_dict(points) -> dict:
    return {"curve": [{"m": p.m, "expected_best_test": p.expected_best_test,
                       "ci_lo": p.ci.lo, "ci_hi": p.ci.hi} for p in points]}


class Library:
    """The public calls the benchmark makes on the workload's pools, each
    timed and checked."""

    def __init__(self, run: Run):
        import bestofn

        self.b, self.run, w = bestofn, run, run.w
        direction = "minimize" if w.minimize else "maximize"
        self.pool = bestofn.ResultPool.from_arrays(run.a.validation, run.a.test, direction)
        self.pool_b = bestofn.ResultPool.from_arrays(run.b.validation, run.b.test, direction)
        self.config = bestofn.ResamplingConfig(replicates=w.lib_replicates, level=LEVEL,
                                               seed=run.seed)
        self.results: dict[tuple, object] = {}

    def statistic(self, pool):
        return self.b.boon_nonparametric(pool, N).value

    def call(self, label: str, replicates: int, fn, check) -> float:
        """Time ``fn()``; a raise, a failed ``check(result)`` or a result
        that differs from the first one with the same replicate count (at
        any worker count) is a failed operation."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any exception is a failed operation
            self.run.outcome(label, [f"raised {exc!r}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        errors = check(result)
        if self.results.setdefault((label, replicates), result) != result:
            errors.append(f"{label}: result differs from the first one of this run")
        self.run.outcome(label, errors)
        return elapsed

    def _ci_check(self, kind: str, method: str, replicates: int):
        dist = self.run.ref.dist(kind, N)
        return lambda ci: reference.ci_errors(kind, ci_dict(ci), dist, LEVEL, replicates, method)

    def bootstrap(self, workers: int = 1, statistic=None, replicates=None) -> float:
        cfg = replace(self.config, replicates=replicates or self.run.w.lib_replicates)
        return self.call(
            "bootstrap_ci", cfg.replicates,
            lambda: self.b.bootstrap_ci(self.pool, statistic or self.statistic, cfg,
                                        workers=workers),
            self._ci_check("bootstrap", "bootstrap", cfg.replicates))

    def smoothed(self, replicates=None) -> float:
        cfg = replace(self.config, replicates=replicates or self.run.w.lib_replicates)
        return self.call(
            "smoothed_bootstrap_ci", cfg.replicates,
            lambda: self.b.smoothed_bootstrap_ci(self.pool, self.statistic, cfg),
            self._ci_check("smoothed", "smoothed_bootstrap", cfg.replicates))

    def monte_carlo(self, replicates=None) -> float:
        cfg = replace(self.config, replicates=replicates or self.run.w.mc_replicates)
        b = self.b
        return self.call(
            "monte_carlo_ci_gaussian", cfg.replicates,
            lambda: b.monte_carlo_ci_gaussian(b.fit_gaussian_params(self.pool), self.pool.m, N,
                                              b.EstimatorKind.NONPARAMETRIC, cfg),
            self._ci_check("mc", "monte_carlo_gaussian", cfg.replicates))

    def compare(self, workers: int) -> float:
        cfg = replace(self.config, replicates=self.run.w.compare_replicates)
        self.run.ref.dist("compare", N)  # build the reference before timing
        return self.call(
            "compare_architectures", cfg.replicates,
            lambda: self.b.compare_architectures(self.pool, self.pool_b, N, cfg, workers=workers),
            lambda r: reference.check_compare(
                {"comparison": {"delta": r.delta, "significant": r.significant,
                                "ci": ci_dict(r.ci)}},
                self.run.ref, N, cfg.replicates, LEVEL))

    def curve(self, workers: int) -> float:
        cfg = replace(self.config, replicates=CURVE_BAND)
        return self.call(
            "best_of_m_curve", CURVE_BAND,
            lambda: self.b.best_of_m_curve(self.pool, range(1, CURVE_M_MAX + 1), CURVE_SAMPLES,
                                           cfg, workers=workers),
            lambda points: reference.check_curve(curve_dict(points), self.run.ref,
                                                 CURVE_M_MAX, CURVE_SAMPLES))

    def warm_up(self) -> None:
        self.bootstrap(replicates=100)
        self.smoothed(replicates=100)
        self.monte_carlo(replicates=100)


# ---------------------------------------------------------------------------
# untraced pass


def untraced_pass(run: Run, commands: list[Command], lib: Library, host: HostSpeed,
                  deadline: float, step_s: dict[str, float]) -> tuple[dict, bool]:
    """One pass: a cold start, then the CLI script, with a library call
    after each command. A step is skipped, with the rest of the pass, when
    its time in the previous pass (``step_s``, updated here) would take it
    past ``deadline``. Returns (raw, probe index) samples (see
    ``HostSpeed.around``) and whether the pass ran whole."""
    w = run.w
    sample: dict[str, list] = {"setup_s": [], "bootstrap_rps": [], "mc_ci_rps": []}

    def start_step():
        sample["setup_s"].append(host.around(lambda: cold_start(run, "--version")))

    def command_step(i: int, cmd: Command):
        cmd.output(run).unlink(missing_ok=True)
        (wall, errors), probe = host.around(lambda: run_cli(run, cmd.args, cmd.name))
        sample[f"{cmd.name}_s"] = [(wall, probe)]
        run.outcome(cmd.name, errors or read_and_check(run, cmd))
        if i % 2 == 0:
            elapsed, probe = host.around(lib.bootstrap)
            sample["bootstrap_rps"].append((w.lib_replicates / elapsed, probe))
        else:
            elapsed, probe = host.around(lib.monte_carlo)
            sample["mc_ci_rps"].append((w.mc_replicates / elapsed, probe))

    steps = [("start", start_step)] + [(c.name, lambda i=i, c=c: command_step(i, c))
                                       for i, c in enumerate(commands)]
    for name, step in steps:
        begin = time.perf_counter()
        if begin + step_s.get(name, 0.0) > deadline:
            return sample, False
        step()
        step_s[name] = time.perf_counter() - begin
    return sample, True


# ---------------------------------------------------------------------------
# traced pass


def import_layers(run: Run) -> dict[str, float]:
    """Interpreter start (``python -c pass``) and per-package import self
    time, from ``python -X importtime -c 'import bestofn'``."""
    wall, code, _, _ = run_process(run, [sys.executable, "-c", "pass"], run.tmp / "pass.out")
    run.outcome("python -c pass", [] if code == 0 else [f"exit code {code}"])
    _, code, stderr, _ = run_process(
        run, [sys.executable, "-X", "importtime", "-c", "import bestofn"],
        run.tmp / "importtime.out")
    run.outcome("importtime", [] if code == 0 else [f"exit code {code}"])
    totals = {"numpy": 0, "scipy": 0, "bestofn": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us)
    return {"import.interpreter_s": wall,
            **{f"import.{k}_s": v / 1e6 for k, v in totals.items()}}


def median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def patched(namespace, names: dict):
    """Temporarily replace attributes of a module or class."""
    saved = {k: namespace.__dict__[k] for k in names}
    for k, v in names.items():
        setattr(namespace, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(namespace, k, v)


# Library functions `cli` calls, by the name `cli` binds them to.
CLI_LIBRARY_CALLS = {
    "summarize": "estimators.summarize",
    "anderson_darling_normality": "estimators.anderson_darling_normality",
    "boon_nonparametric": "estimators.boon_nonparametric",
    "boon_parametric_gaussian": "estimators.boon_parametric_gaussian",
    "bootstrap_ci": "resampling.bootstrap_ci",
    "compare_architectures": "resampling.compare_architectures",
    "best_of_m_curve": "resampling.best_of_m_curve",
}


def traced_pass(run: Run, commands: list[Command], lib: Library, tracer: Tracer) -> dict:
    from bestofn import cli, distributions, estimators

    w, b = run.w, lib.b
    sample = import_layers(run)
    pool_file = cli.PoolFile(run.rel(run.a.path), w.fmt, "validation", "test", lib.pool.direction)
    sample["cli.load_pool_s"] = median_time(lambda: cli.load_pool(pool_file))

    # The CLI script in-process: cli.self_s is cli.main's time outside the
    # library calls it makes.
    from_arrays = estimators.ResultPool.__dict__["from_arrays"].__func__
    traced_pools = {"from_arrays": classmethod(tracer.wrap("estimators.from_arrays", from_arrays))}
    cli_names = {k: tracer.wrap(v, getattr(cli, k)) for k, v in CLI_LIBRARY_CALLS.items()}
    main_ids = []
    with patched(estimators.ResultPool, traced_pools), patched(cli, cli_names):
        for cmd in commands:
            cmd.output(run).unlink(missing_ok=True)
            with tracer.span("cli.main") as main_id:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(cmd.args)
            run.outcome(f"{cmd.name} (in-process)",
                        [f"exit code {code}"] if code else read_and_check(run, cmd))
            main_ids.append(main_id)

    # bootstrap_ci with spans around pool construction and the statistic,
    # next to an untraced call; which goes first alternates between passes.
    stat = tracer.wrap("estimators.boon_nonparametric", lib.statistic)
    untraced_first = tracer.pass_id % 2 == 1
    if untraced_first:
        untraced = lib.bootstrap()
    with patched(estimators.ResultPool, traced_pools):
        with tracer.span("resampling.bootstrap_ci") as boot_id:
            lib.bootstrap(statistic=stat)
    if not untraced_first:
        untraced = lib.bootstrap()

    spans = SpanIndex([s for s in tracer.spans if s[5] == tracer.pass_id])
    reps = w.lib_replicates
    boot = SpanIndex.duration_s(spans.by_id[boot_id])
    pools = spans.descendants(boot_id, "estimators.from_arrays")
    stats = spans.descendants(boot_id, "estimators.boon_nonparametric")
    stat_total = sum(map(SpanIndex.duration_s, stats))
    parametric = [s for s in spans.by_id.values() if s[1] == "estimators.boon_parametric_gaussian"]
    sample.update({
        "cli.self_s": sum(spans.self_s(i) for i in main_ids),
        "estimators.from_arrays_us": 1e6 * sum(map(SpanIndex.duration_s, pools)) / len(pools),
        "estimators.pools_per_rep": len(pools) / reps,
        "estimators.boon_nonparametric_us": 1e6 * stat_total / len(stats),
        "estimators.boon_parametric_us":
            1e6 * sum(map(SpanIndex.duration_s, parametric)) / len(parametric),
        "estimators.stat_share": stat_total / boot,
        "resampling.overhead_us_per_rep": 1e6 * spans.self_s(boot_id) / reps,
        "resampling.stat_evals_per_rep": len(stats) / reps,
        "trace.overhead_frac": (boot - untraced) / untraced,
        "estimators.summarize_ms": 1e3 * median_time(lambda: b.summarize(lib.pool)),
        "estimators.anderson_darling_ms":
            1e3 * median_time(lambda: b.anderson_darling_normality(lib.pool.test_scores)),
    })

    def en_cold():
        distributions.std_normal_expected_max.cache_clear()
        for n in range(1, 21):
            distributions.std_normal_expected_max(n)

    sample["distributions.en_cold_ms"] = 1e3 * median_time(en_cold, 3)
    sample["resampling.smoothed_us_per_rep"] = 1e6 * lib.smoothed() / reps
    sample["resampling.mc_ci_us_per_rep"] = 1e6 * lib.monte_carlo() / w.mc_replicates

    # Worker-count ratios; Library.call also fails a workers=2 result that
    # differs from the workers=1 one.
    timings = {1: {"bootstrap": untraced}, 2: {"bootstrap": lib.bootstrap(workers=2)}}
    for workers in (1, 2):
        timings[workers]["compare"] = lib.compare(workers)
        timings[workers]["curve"] = lib.curve(workers)
    sample["resampling.compare_us_per_rep"] = 1e6 * timings[1]["compare"] / w.compare_replicates
    sample["resampling.curve_s"] = timings[1]["curve"]
    for key in ("bootstrap", "compare", "curve"):
        sample[f"resampling.workers2_ratio.{key}"] = timings[2][key] / timings[1][key]
    return {k: [v] for k, v in sample.items()}


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def measure(run: Run, seconds: float, one_pass,
            partial: bool) -> tuple[dict[str, list[float]], int]:
    """Passes for ``seconds``: ``one_pass(deadline)`` returns its samples and
    whether it ran whole. A ``partial`` pass stops itself at the deadline,
    so passes run until one does not run whole; otherwise they run while
    another as long as the last one fits. Returns every metric's samples
    and the count of whole passes."""
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = {}
    passes = 0
    while True:
        start = time.perf_counter()
        sample, whole = one_pass(deadline)
        for k, v in sample.items():
            samples.setdefault(k, []).extend(v)
        passes += whole
        took = time.perf_counter() - start
        done = not whole if partial else time.perf_counter() + took > deadline
        if done or took > run.time_left() - 10.0:
            return samples, passes


def prepare_reference(ref: reference.Reference, m_max: int) -> None:
    """Build every reference distribution and curve moment the checks use,
    so that the passes spend no time on them."""
    for kind in ("bootstrap", "gaussian", "compare", "smoothed", "mc"):
        ref.dist(kind, N)
    for k in range(1, m_max + 1):
        ref.best_of_k_moments(k)


def measure_run(run: Run, seconds: float, traced: bool) -> dict:
    """Warm up, then measure passes. An untraced run makes one probed cold
    start before its passes, and each pass makes one more."""
    cold_start(run, "warm-up --version")  # also compiles the bytecode
    if run.failed:
        raise SystemExit("error: the program does not start; see FAIL lines above")
    prepare_reference(run.ref, CURVE_M_MAX)
    sys.path.insert(0, str(SRC))
    lib = Library(run)
    lib.warm_up()
    commands = script(run)
    raw = host = None
    if traced:
        tracer = Tracer(run.w.name)

        def one_pass(deadline):
            tracer.pass_id += 1
            return traced_pass(run, commands, lib, tracer), True

        samples, passes = measure(run, seconds, one_pass, partial=False)
        tracer.write(WORK / f"spans-{run.w.name}-seed{run.seed}.jsonl")
        wanted = metrics.PER_LAYER
        values = {k: statistics.median(samples[k]) for k in wanted}
    else:
        host = HostSpeed()
        setup = host.around(lambda: cold_start(run, "--version"))
        step_s: dict[str, float] = {}

        def one_pass(deadline):
            return untraced_pass(run, commands, lib, host, deadline, step_s)

        samples, passes = measure(run, seconds, one_pass, partial=True)
        samples["setup_s"].append(setup)
        # (raw, host factor) pairs; report_s sums the command times of each
        # whole pass, raw and at reference speed.
        samples = {k: [(r, host.factor(i)) for r, i in v] for k, v in samples.items()}
        report = [[samples[f"{c.name}_s"][p] for c in commands] for p in range(passes)]
        samples["report_s"] = [(sum(r for r, _ in rs), sum(r for r, _ in rs) /
                                sum(r / f for r, f in rs)) for rs in report]
        samples["peak_rss_mb"] = [(run.peak_rss_kb / 1024.0, 1.0)]
        wanted = metrics.END_TO_END
        raw = {k: statistics.median(r for r, _ in samples[k]) for k in wanted}
        values = {k: statistics.median(scale(k, *s) for s in samples[k]) for k in wanted}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": wanted[k][0]} for k, v in values.items()},
        "passes": passes,
        "samples": samples,
        "raw": raw,
        "host_probe_s": host and host.probes,
    }


def benchmark(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(workload, seed, Path(tmp))
        try:
            return measure_run(run, seconds, traced)
        finally:
            run.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "bestofn" / "__init__.py").is_file():
        print(f"error: no bestofn sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    passes, samples = result.pop("passes"), result.pop("samples")
    raw, probes = result.pop("raw"), result.pop("host_probe_s")
    specs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {passes} pass(es), "
          f"{result['attempted']} operations, "
          f"failed_frac {result['failed'] / result['attempted']:.4g}")
    if probes:
        print(f"host probe median {statistics.median(probes):.4g} s, reference {REF_PROBE_S} s; "
              f"metrics at reference host speed, raw medians in brackets")
    for name, m in result["metrics"].items():
        moves = f"  -> {specs[name][2]}" if args.trace else f"  [{raw[name]:.6g}]"
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}{moves}")
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "passes": passes,
                    "env": env, **result, "raw": raw, "host_probe_s": probes,
                    "samples": samples},
                   indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
