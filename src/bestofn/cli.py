"""Command-line front end: ingest result pools, estimate, report.

Subcommands: summarize, boon, curve, compare. Human-readable tables go to
stdout; ``--output`` additionally writes a versioned JSON report (and, for
curve, a CSV with columns m,expected_best_test,ci_lo,ci_hi next to it).
Scores are taken verbatim from the input files; the tool never rescales
between fractions and percents.

Only ``main`` loads the input pools and writes the JSON report; each
command adds its own keys to the report and returns its table.

Exit codes: 0 success, 2 usage error, 3 input/data error or a failed
output write (stdout included), 4 estimator or resampling error (a Boo(n)
estimate that overflows the float range included).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegeneratePoolError,
    InsufficientDataError,
    InvalidDataError,
    PoolFileError,
    ResamplingDegenerateError,
    _MAX_N,
    _integer_arg,
)
from .estimators import (
    BoonStatistic,
    Direction,
    EstimatorKind,
    ResultPool,
    anderson_darling_normality,
    boon_nonparametric,
    boon_parametric_gaussian,
    summarize,
)
from .resampling import (
    MAX_REPLICATES,
    STREAM_VERSION,
    ResamplingConfig,
    _bootstrap_intervals,
    best_of_m_curve,
    bootstrap_ci,  # noqa: F401  perfbench's traced pass wraps the CLI's calls by these names
    compare_architectures,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ESTIMATOR = 4

SCHEMA_VERSION = 1
SEED_ENV_VAR = "BESTOFN_SEED"

DEFAULT_N = 5
DEFAULT_REPLICATES = 10_000
DEFAULT_LEVEL = 0.95
DEFAULT_COLUMNS = ("validation", "test")
# Up to 2**21 // max(samples, replicates) points (209 at the defaults) a
# curve is one scan of m-max records per sample. Each further scan redraws
# every sample from record 1, so beyond that the work grows with m-max**2.
MAX_CURVE_M = 100_000


@dataclass(frozen=True)
class PoolFile:
    """Where and how to read one result pool."""

    path: str
    format: str  # "csv" | "jsonl"
    val_column: str
    test_column: str
    direction: Direction


def _detect_format(path: str, explicit: str | None) -> str:
    if explicit in ("csv", "jsonl"):
        return explicit
    return "jsonl" if Path(path).suffix.lower() in (".jsonl", ".ndjson") else "csv"


class _OutputError(Exception):
    """Writing a report or curve file failed; wraps the OSError."""


def _parse_score(raw, line_num: int, column: str, bad_rows: list) -> float | None:
    if type(raw) is float and math.isfinite(raw):  # the common JSON case
        return raw
    if raw is None or (isinstance(raw, str) and raw.strip() == ""):
        bad_rows.append((line_num, f"missing {column!r} value"))
        return None
    if isinstance(raw, bool):
        bad_rows.append((line_num, f"non-numeric {column!r} value {raw!r}"))
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        bad_rows.append((line_num, f"non-numeric {column!r} value {raw!r}"))
        return None
    except OverflowError:  # a JSON integer beyond the float range
        bad_rows.append((line_num, f"{column!r} value beyond the float range"))
        return None
    if not math.isfinite(value):
        bad_rows.append((line_num, f"non-finite {column!r} value {raw!r}"))
        return None
    return value


def load_pool(pool_file: PoolFile) -> ResultPool:
    """Read a pool file, rejecting malformed rows by line number.

    Any rejected row fails the whole load: partial ingestion would silently
    change m, and m is part of every downstream estimate.
    """
    vals: list[float] = []
    tests: list[float] = []
    bad_rows: list[tuple[int, str]] = []
    read = _read_csv if pool_file.format == "csv" else _read_jsonl
    read(pool_file, vals, tests, bad_rows)
    if bad_rows:
        raise PoolFileError(f"malformed rows in {pool_file.path}", bad_rows)
    if not vals:
        raise PoolFileError(f"no data rows in {pool_file.path}")
    return ResultPool.from_arrays(vals, tests, pool_file.direction, pool_file.test_column)


def _read_text(pool_file: PoolFile) -> str:
    """The whole file decoded as UTF-8, less a leading byte-order mark; bytes
    that are not UTF-8 are a data error naming their line."""
    data = Path(pool_file.path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # Line breaks as open() counts them; the appended byte starts or
        # ends the bad byte's line.
        line = len((data[: exc.start] + b".").splitlines())
        raise PoolFileError(
            f"malformed rows in {pool_file.path}", [(line, f"not UTF-8 text ({exc.reason})")]
        ) from None


def _add_scores(raw_v, raw_t, line: int, pool_file: PoolFile, vals: list, tests: list,
                bad_rows: list) -> None:
    """Append one row's scores, or file what is wrong with them."""
    v = _parse_score(raw_v, line, pool_file.val_column, bad_rows)
    t = _parse_score(raw_t, line, pool_file.test_column, bad_rows)
    if v is not None and t is not None:
        vals.append(v)
        tests.append(t)


def _read_csv(pool_file: PoolFile, vals: list, tests: list, bad_rows: list) -> None:
    """Read each well-formed CSV row's scores. A header naming a score
    column twice is refused: DictReader would silently keep the last one."""
    reader = csv.DictReader(io.StringIO(_read_text(pool_file), newline=""))
    try:
        header = reader.fieldnames or []
        for column in (pool_file.val_column, pool_file.test_column):
            if column not in header:
                raise PoolFileError(
                    f"column {column!r} not found in {pool_file.path} "
                    f"(header: {', '.join(header) or 'empty'})"
                )
            if header.count(column) > 1:
                raise PoolFileError(
                    f"column {column!r} appears {header.count(column)} times in the "
                    f"header of {pool_file.path}"
                )
        for row in reader:
            line = reader.line_num
            if None in row:  # DictReader files fields beyond the header under None
                bad_rows.append((line, f"{len(header) + len(row[None])} fields, "
                                       f"header has {len(header)}"))
            else:
                _add_scores(row.get(pool_file.val_column), row.get(pool_file.test_column),
                            line, pool_file, vals, tests, bad_rows)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        # DictReader's own line_num only moves after a row is read whole.
        raise PoolFileError(
            f"malformed rows in {pool_file.path}", [(reader.reader.line_num, str(exc))]
        ) from None


_scan_json = json.JSONDecoder().scan_once
_json_space = json.decoder.WHITESPACE.match


def _read_jsonl(pool_file: PoolFile, vals: list, tests: list, bad_rows: list) -> None:
    """Read the scores of each JSON object, one per line. Lines end at a
    line feed, a carriage return or the two together only, as a text file's
    lines do (not at U+2028 or a form feed). Each line is decoded once, by a
    scanner bound once; a line that does not parse cleanly from its first
    character (leading whitespace included) goes to ``json.loads`` itself,
    so every error message stays its own, and only scores that are not
    finite floats go through ``_parse_score``."""
    val_column, test_column = pool_file.val_column, pool_file.test_column
    isfinite = math.isfinite
    for line_num, line in enumerate(io.StringIO(_read_text(pool_file), newline=None), start=1):
        try:
            obj, end = _scan_json(line, 0)
            clean = line[end:] == "\n" or _json_space(line, end).end() == len(line)
        # StopIteration: no value where one starts. Besides JSONDecodeError: a
        # plain ValueError for an integer past Python's digit limit,
        # RecursionError for deep nesting.
        except (StopIteration, ValueError, RecursionError):
            clean = False
        if not clean:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                reason = getattr(exc, "msg", "a number or nesting beyond the parser's limits")
                bad_rows.append((line_num, f"invalid JSON ({reason})"))
                continue
        if not isinstance(obj, dict):
            bad_rows.append((line_num, "expected a JSON object"))
            continue
        v, t = obj.get(val_column), obj.get(test_column)
        if type(v) is float and type(t) is float and isfinite(v) and isfinite(t):
            vals.append(v)
            tests.append(t)
        else:
            _add_scores(v, t, line_num, pool_file, vals, tests, bad_rows)


def _pool_fingerprint(pool_file: PoolFile, pool: ResultPool) -> dict:
    return {
        "path": pool_file.path,
        "format": pool_file.format,
        "columns": {"validation": pool_file.val_column, "test": pool_file.test_column},
        "m": pool.m,
        "metric": pool.metric_name,
        "direction": pool.direction.value,
    }


def _base_report(args: argparse.Namespace, argv: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "stream_version": STREAM_VERSION,
        "tool": {"name": "bestofn", "version": __version__},
        "command": ["bestofn", *argv],
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "defaults": {
            "n": DEFAULT_N,
            "replicates": DEFAULT_REPLICATES,
            "level": DEFAULT_LEVEL,
        },
    }


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def _finite(x: float | None) -> float | None:
    return x if x is None or math.isfinite(x) else None  # None for an overflowed statistic


# ---------------------------------------------------------------------------
# subcommands


def _cmd_summarize(args: argparse.Namespace, pools: list[ResultPool], report: dict) -> list[str]:
    (pool,) = pools
    s = summarize(pool)
    try:
        ad = anderson_darling_normality(pool.test_scores)
    except InsufficientDataError:  # m < 8 or equal test scores
        ad = None
    normality = None
    if ad and math.isfinite(ad.statistic):  # NaN: the spread overflowed
        normality = {"statistic": ad.statistic, "reject_at_5pct": ad.reject_at_5pct}

    summary = report["summary"] = {
        "m": s.m,
        "mean_test": _finite(s.mean_test),
        "std_test": _finite(s.std_test),
        "iqr_test": _finite(s.iqr_test),
        "range_test": list(s.range_test),
        "spearman_val_test": _finite(s.spearman_val_test),
        "pearson_val_test": _finite(s.pearson_val_test),
        "normality": normality,
    }

    table = [
        f"pool: {args.input} (m={pool.m}, metric={pool.metric_name}, "
        f"direction={pool.direction.value})",
        f"  mean_test     {_fmt(summary['mean_test'])}",
        f"  std_test      {_fmt(summary['std_test'])}",
        f"  iqr_test      {_fmt(summary['iqr_test'])}",
        f"  range_test    {_fmt(s.range_test[0])} .. {_fmt(s.range_test[1])}",
        f"  spearman      {_fmt(summary['spearman_val_test'])}",
        f"  pearson       {_fmt(summary['pearson_val_test'])}",
    ]
    if normality is None:
        table.append("  normality     -" + ("" if ad else " (needs m >= 8 and nonzero spread)"))
    else:
        verdict = "rejected" if normality["reject_at_5pct"] else "not rejected"
        table.append(f"  normality     A2*={normality['statistic']:.4g} "
                     f"(Gaussian {verdict} at 5%)")
    return table


def _cmd_boon(args: argparse.Namespace, pools: list[ResultPool], report: dict) -> list[str]:
    (pool,) = pools
    kind = (
        EstimatorKind.GAUSSIAN_PARAMETRIC
        if args.estimator == "gaussian"
        else EstimatorKind.NONPARAMETRIC
    )
    config = _config_from_args(args)

    estimates = []
    for n in args.n:
        if kind is EstimatorKind.GAUSSIAN_PARAMETRIC:
            try:
                est = boon_parametric_gaussian(pool, n)
            except DegeneratePoolError as exc:
                raise DegeneratePoolError(
                    f"{exc}; rerun with --estimator nonparametric, which needs no spread"
                ) from exc
        else:
            est = boon_nonparametric(pool, n)
        estimates.append({
            "n": est.n,
            "m": est.m,
            "value": est.value,
            "estimator": est.estimator_kind.value,
            "extrapolative": est.extrapolative,
            "ci": None,
        })
    if args.bootstrap is not None:
        # One run of resamples serves every n.
        cis = _bootstrap_intervals(pool, [BoonStatistic(n, kind) for n in args.n], config)
        for entry, ci in zip(estimates, cis):
            entry["ci"] = asdict(ci)

    report["n_values"] = list(args.n)
    report["estimator"] = kind.value
    report["estimates"] = estimates

    width = max(4, *(len(str(n)) for n in args.n))
    table = [
        f"pool: {args.input} (m={pool.m}, direction={pool.direction.value})",
        f"{'n':>{width}}  {'estimator':<20} {'value':>12}  {'ci_lo':>12}  {'ci_hi':>12}  flags",
    ]
    for e in estimates:
        lo = e["ci"]["lo"] if e["ci"] else None
        hi = e["ci"]["hi"] if e["ci"] else None
        flags = "extrapolative" if e["extrapolative"] else ""
        table.append(f"{e['n']:>{width}}  {e['estimator']:<20} {_fmt(e['value']):>12}  "
                     f"{_fmt(lo):>12}  {_fmt(hi):>12}  {flags}")
    return table


def _cmd_curve(args: argparse.Namespace, pools: list[ResultPool], report: dict) -> list[str]:
    (pool,) = pools
    config = _config_from_args(args)
    points = best_of_m_curve(
        pool,
        m_values=list(range(1, args.m_max + 1)),
        samples_per_m=args.samples_per_m,
        config=config,
    )

    report["samples_per_m"] = args.samples_per_m
    report["curve"] = [
        {
            "m": p.m,
            "expected_best_test": p.expected_best_test,
            "ci_lo": p.ci.lo if p.ci else None,
            "ci_hi": p.ci.hi if p.ci else None,
            "mc_se": p.mc_se,
        }
        for p in points
    ]
    curve_csv = None
    if args.output is not None:
        curve_csv = str(Path(args.output).with_suffix("")) + ".curve.csv"
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m", "expected_best_test", "ci_lo", "ci_hi"])
        for p in points:
            writer.writerow([
                p.m,
                repr(p.expected_best_test),
                repr(p.ci.lo) if p.ci else "",
                repr(p.ci.hi) if p.ci else "",
            ])
        _write_output(curve_csv, buf.getvalue())
        report["curve_csv"] = curve_csv

    table = [
        f"pool: {args.input} (m={pool.m}, direction={pool.direction.value})",
        f"{'m':>4}  {'expected_best_test':>20}  {'ci_lo':>12}  {'ci_hi':>12}",
    ]
    for p in points:
        table.append(f"{p.m:>4}  {_fmt(p.expected_best_test):>20}  "
                     f"{_fmt(p.ci.lo if p.ci else None):>12}  "
                     f"{_fmt(p.ci.hi if p.ci else None):>12}")
    if curve_csv:
        table.append(f"curve data written to {curve_csv}")
    return table


def _cmd_compare(args: argparse.Namespace, pools: list[ResultPool], report: dict) -> list[str]:
    config = _config_from_args(args)
    n = args.n
    result = compare_architectures(*pools, n, config)
    report["comparison"] = {
        "n": n,
        "delta": result.delta,
        "significant": result.significant,
        "ci": asdict(result.ci),
    }

    verdict = "significant" if result.significant else "not significant"
    return [
        f"best-out-of-{n} difference (B - A): {_fmt(result.delta)}",
        f"{100 * config.level:g}% CI: [{_fmt(result.ci.lo)}, {_fmt(result.ci.hi)}] "
        f"({verdict}: zero {'outside' if result.significant else 'inside'} the interval)",
    ]


# ---------------------------------------------------------------------------
# argument plumbing


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{SEED_ENV_VAR}: {exc}") from exc


def _flag(check):
    """An argparse type that runs ``check`` on a flag's text. A ValueError
    from the library's own argument checks becomes a usage error, which
    argparse reports as ``argument --X: ...`` before any input is read."""

    def parse(raw: str):
        try:
            return check(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


_seed = _flag(lambda raw: ResamplingConfig(seed=int(raw)).seed)
_level = _flag(lambda raw: ResamplingConfig(level=float(raw)).level)
_replicates = _flag(lambda raw: ResamplingConfig(replicates=int(raw)).replicates)
_bandwidth = _flag(
    lambda raw: ResamplingConfig(bandwidth=raw if raw == "auto" else float(raw)).bandwidth
)
_n = _flag(lambda raw: _integer_arg(int(raw), "n", 1, _MAX_N))
_workers = _flag(lambda raw: _integer_arg(int(raw), "workers"))
_samples = _flag(lambda raw: _integer_arg(int(raw), "samples_per_m", 1, MAX_REPLICATES))
_m_max = _flag(lambda raw: _integer_arg(int(raw), "m_max", 1, MAX_CURVE_M))


def _parse_n_list(raw: str) -> list[int]:
    values = [_n(part) for part in raw.split(",") if part.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"n values must be positive integers, got {raw!r}")
    return values


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "jsonl"], default=None,
                     help="input format (default: by file extension)")
    sub.add_argument("--columns", default=",".join(DEFAULT_COLUMNS), metavar="VAL,TEST",
                     help="validation and test column/field names (default: validation,test)")
    sub.add_argument("--direction", choices=["max", "min"], default="max",
                     help="whether better scores are larger (max) or smaller (min)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write the JSON report here (curve also writes <PATH stem>.curve.csv)")


def _add_sampling_flags(sub: argparse.ArgumentParser, bootstrap_default) -> None:
    if bootstrap_default is None:
        sub.add_argument("--bootstrap", type=_replicates, default=None, nargs="?",
                         const=DEFAULT_REPLICATES, metavar="B",
                         help="attach bootstrap CIs using B replicates (default B: 10000)")
    else:
        sub.add_argument("--bootstrap", type=_replicates, default=bootstrap_default,
                         metavar="B",
                         help=f"replicate count (default: {bootstrap_default})")
    sub.add_argument("--level", type=_level, default=DEFAULT_LEVEL,
                     help="confidence level (default: 0.95)")
    sub.add_argument("--seed", type=_seed, default=None,
                     help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    sub.add_argument("--workers", type=_workers, default=1,
                     help="accepted for compatibility; has no effect, replicates are "
                          "always evaluated in one thread (default: 1)")


def _pool_file_from_args(args: argparse.Namespace, path: str) -> PoolFile:
    columns = [c.strip() for c in args.columns.split(",")]
    if len(columns) != 2 or not all(columns):
        raise ValueError(f"--columns expects two comma-separated names, got {args.columns!r}")
    if columns[0] == columns[1]:
        # One column for both would pick runs on the very scores it reports.
        raise ValueError(f"--columns names {columns[0]!r} twice; the validation and test "
                         "columns must differ")
    return PoolFile(
        path=path,
        format=_detect_format(path, args.format),
        val_column=columns[0],
        test_column=columns[1],
        direction=Direction.MINIMIZE if args.direction == "min" else Direction.MAXIMIZE,
    )


def _config_from_args(args: argparse.Namespace) -> ResamplingConfig:
    replicates = args.bootstrap if args.bootstrap is not None else DEFAULT_REPLICATES
    return ResamplingConfig(
        replicates=replicates,
        level=args.level,
        seed=args.seed,
        bandwidth=getattr(args, "bandwidth", "auto"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestofn",
        description="Expected best-out-of-n performance from repeated-training result pools.",
    )
    parser.add_argument("--version", action="version", version=f"bestofn {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p = subparsers.add_parser("summarize", help="descriptive statistics of a result pool")
    p.add_argument("input", help="pool file (CSV or JSONL)")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_summarize)

    p = subparsers.add_parser("boon", help="best-out-of-n estimates, optionally with CIs")
    p.add_argument("input", help="pool file (CSV or JSONL)")
    p.add_argument("--n", type=_parse_n_list, default=[DEFAULT_N],
                   help="comma-separated n values (default: 5)")
    p.add_argument("--estimator", choices=["nonparametric", "gaussian"],
                   default="nonparametric")
    _add_input_flags(p)
    _add_sampling_flags(p, bootstrap_default=None)
    p.set_defaults(func=_cmd_boon)

    p = subparsers.add_parser("curve", help="expected best-validation test score vs pool size")
    p.add_argument("input", help="pool file (CSV or JSONL)")
    p.add_argument("--m-max", type=_m_max, default=20,
                   help=f"largest pool size, at most {MAX_CURVE_M} (default: 20)")
    p.add_argument("--samples-per-m", type=_samples, default=10_000,
                   help="Monte Carlo samples per pool size (default: 10000)")
    p.add_argument("--bandwidth", type=_bandwidth, default="auto",
                   help='band smoothing bandwidth: "auto" or a number (default: auto)')
    _add_input_flags(p)
    _add_sampling_flags(p, bootstrap_default=DEFAULT_REPLICATES)
    p.set_defaults(func=_cmd_curve)

    p = subparsers.add_parser("compare", help="CI on the best-out-of-n difference of two pools")
    p.add_argument("input_a", help="baseline pool file")
    p.add_argument("input_b", help="candidate pool file")
    p.add_argument("--n", type=_n, default=DEFAULT_N,
                   help="n for the compared estimates (default: 5)")
    _add_input_flags(p)
    _add_sampling_flags(p, bootstrap_default=DEFAULT_REPLICATES)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version have printed, a usage error has not
        return _print_table([], int(exc.code or 0))
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        files = [_pool_file_from_args(args, getattr(args, name))
                 for name in ("input", "input_a", "input_b") if hasattr(args, name)]
        pools = [load_pool(pool_file) for pool_file in files]
        report = _base_report(args, argv)
        report["pools"] = [_pool_fingerprint(f, pool) for f, pool in zip(files, pools)]
        # Overflows surface as checked results, as in the engine, not as numpy's warnings.
        with np.errstate(all="ignore"):
            table = args.func(args, pools, report)
        if args.output is not None:
            _write_output(args.output, json.dumps(report, indent=2) + "\n")
    except (InsufficientDataError, DegeneratePoolError, ResamplingDegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except (PoolFileError, InvalidDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _print_table(table, EXIT_OK)


def _print_table(table: list[str], code: int) -> int:
    """Print a command's table and flush stdout, so that a failed write
    surfaces here whether stdout is buffered or not: it is an output error
    (exit 3), and a reader that closed the pipe gets no message. Either way
    stdout is pointed at the null device, as Python's SIGPIPE recipe does,
    so that what its buffer still holds does not fail again, and print
    ``Exception ignored``, in the interpreter's final flush."""
    try:
        print("".join(f"{line}\n" for line in table), end="", flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DATA
    return code


def entry_point() -> None:
    # Every object that numpy, the standard library and bestofn built on
    # import lives until exit anyway. Frozen, those ~22,000 objects are
    # walked neither by the command's own collections nor at exit, where the
    # interpreter's final collections and teardown otherwise spend about
    # 17 ms on them (exit after `boon` on a 50-record pool: ~24 ms unfrozen,
    # ~7 ms frozen; 2-vCPU Xeon VM, BENCH_17.json). Objects the command
    # creates are collected as before. main() makes no GC call, so
    # in-process callers keep their own GC state.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
