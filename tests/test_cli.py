import csv
import errno
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bestofn import cli, resampling
from bestofn.cli import EXIT_DATA, EXIT_ESTIMATOR, EXIT_OK, EXIT_USAGE, main
from bestofn.errors import _MAX_N

import helpers


def _not_json(constant):
    raise ValueError(f"report holds {constant}, which strict JSON has no value for")


def read_report(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_not_json)


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def toy_csv(tmp_path):
    return helpers.write_pool_csv(
        tmp_path / "toy.csv", [(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)]
    )


@pytest.fixture
def quad_csv(tmp_path):
    return helpers.write_pool_csv(
        tmp_path / "quad.csv", [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 4.0)]
    )


class TestSummarize:
    def test_small_pool(self, quad_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["summarize", quad_csv, "--output", out]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "2.5" in printed
        report = read_report(out)
        assert report["summary"]["m"] == 4
        assert report["summary"]["mean_test"] == pytest.approx(2.5)
        assert report["pools"][0]["m"] == 4
        assert report["schema_version"] == 1

    def test_normality_verdict_present_for_larger_pools(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = list(zip(rng.normal(size=40).tolist(), rng.normal(size=40).tolist()))
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        out = tmp_path / "report.json"
        assert run(["summarize", path, "--output", out]) == EXIT_OK
        normality = read_report(out)["summary"]["normality"]
        assert normality is not None and "statistic" in normality

    @pytest.mark.parametrize(
        "rows",
        [[(0.1, 4.0), (0.1, 5.0), (0.1, 6.0)], [(float(i), 63.16) for i in range(10)]],
    )
    def test_equal_scores_have_absent_correlations_and_normality(self, rows, tmp_path):
        # Equal scores whose std rounds to nonzero (1.4e-17 and 7.5e-15).
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        out = tmp_path / "report.json"
        assert run(["summarize", path, "--output", out]) == EXIT_OK
        summary = read_report(out)["summary"]
        assert summary["spearman_val_test"] is None and summary["pearson_val_test"] is None
        assert summary["normality"] is None

    def test_statistics_that_overflow_are_null(self, tmp_path, capsys):
        # Finite scores whose sum, deviations and products pass the float range.
        tests = [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]
        path = helpers.write_pool_csv(tmp_path / "big8.csv", list(zip(range(8), tests)))
        out = tmp_path / "report.json"
        assert run(["summarize", path, "--output", out]) == EXIT_OK
        summary = read_report(out)["summary"]
        assert summary["normality"] is None
        # Pearson is scale-free, so it is taken from the scaled scores
        assert summary["pearson_val_test"] == 0.136504726557987
        assert summary["iqr_test"] == 2.5e307 and summary["spearman_val_test"] is not None
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "  pearson       0.136505\n" in captured.out
        assert "  normality     - (needs m >= 8 and a finite, nonzero spread)\n" in captured.out

    def test_a_mean_and_std_whose_plain_sums_overflow_are_reported(self, tmp_path, capsys):
        # The same pool: its mean, 1.25e307, and std are finite though the plain sums are not.
        tests = [-1e308, 0.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0]
        path = helpers.write_pool_csv(tmp_path / "big8.csv", list(zip(range(8), tests)))
        out = tmp_path / "report.json"
        assert run(["summarize", path, "--output", out]) == EXIT_OK
        summary = read_report(out)["summary"]
        scaled = np.array(tests) / 1e308
        assert summary["mean_test"] == 1.25e307
        assert summary["std_test"] == float(scaled.std(ddof=1)) * 1e308
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "  mean_test     1.25e+307\n" in captured.out
        assert f"  std_test      {summary['std_test']:.6g}\n" in captured.out

    def test_non_numeric_row_is_an_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("validation,test\n0.1,10\noops,20\n0.3,30\n")
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 3" in err and "oops" in err

    def test_unknown_column_is_a_data_error(self, toy_csv, capsys):
        assert run(["summarize", toy_csv, "--columns", "dev,test"]) == EXIT_DATA
        assert "dev" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert run(["summarize", tmp_path / "nope.csv"]) == EXIT_DATA

    def test_empty_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("validation,test\n")
        assert run(["summarize", path]) == EXIT_DATA

    def test_jsonl_input(self, tmp_path, capsys):
        path = tmp_path / "pool.jsonl"
        rows = [{"validation": 0.1, "test": 1.0}, {"validation": 0.2, "test": 3.0}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run(["summarize", path]) == EXIT_OK
        assert "2" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt,name,text", [
        ("jsonl", "pool.txt", '{"validation": 0.1, "test": 1.0}\n{"validation": 0.2, "test": 3}\n'),
        ("csv", "pool.jsonl", "validation,test\n0.1,1.0\n0.2,3.0\n"),
    ])
    def test_explicit_format_overrides_the_extension(self, tmp_path, capsys, fmt, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert run(["summarize", path]) == EXIT_DATA
        capsys.readouterr()
        assert run(["summarize", path, "--format", fmt]) == EXIT_OK
        assert "m=2" in capsys.readouterr().out

    def test_more_than_twenty_malformed_rows_are_counted(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("validation,test\n0.1,1.0\n" + "oops,2.0\n" * 25)
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        listed = "; ".join(f"line {i}: non-numeric 'validation' value 'oops'" for i in range(3, 23))
        assert err == f"error: malformed rows in {path}: {listed}; ... (25 rejected rows total)\n"

    def test_jsonl_bad_line_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "pool.jsonl"
        for bad in ("not json", '{"validation": 0.2}'):
            path.write_text('{"validation": 0.1, "test": 1.0}\n' + bad + "\n")
            assert run(["summarize", path]) == EXIT_DATA
            assert "line 2" in capsys.readouterr().err

    def test_jsonl_boolean_score_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "pool.jsonl"
        path.write_text('{"validation": 0.1, "test": 1.0}\n{"validation": 0.2, "test": true}\n')
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 2" in err and "True" in err

    def test_oversized_csv_field_is_an_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("validation,test\n0.1,1\n0.2," + "9" * 200_000 + "\n0.3,2\n")
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 3: field larger than field limit" in err

    @pytest.mark.parametrize("header", ["validation,test,test", "validation,validation,test"])
    def test_duplicated_score_column_is_refused(self, tmp_path, capsys, header):
        path = tmp_path / "dup.csv"
        path.write_text(header + "\n0.1,1,9.4\n0.2,3,9.4\n")
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        column = "test" if header.endswith("test,test") else "validation"
        assert f"column {column!r} appears 2 times" in err

    def test_csv_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("validation,test\n0.1,1\n0.2,3\n".encode("utf-8-sig"))
        assert run(["summarize", path]) == EXIT_OK
        assert "m=2" in capsys.readouterr().out

    def test_jsonl_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(
            '{"validation": 0.1, "test": 1}\n{"validation": 0.2, "test": 3}\n'.encode("utf-8-sig")
        )
        assert run(["summarize", path]) == EXIT_OK
        assert "m=2" in capsys.readouterr().out

    def test_jsonl_line_errors_keep_their_messages(self, tmp_path, capsys):
        lines = [
            '{"validation": 0.1, "test": 1.0}\n',
            '{"validation": 0.2, "test": 2.0} {"test": 3}\n',
            '{"validation": NaN, "test": 3.0}\n',
            "[1, 2]\n",
            '{"validation": 0.5, "test": Infinity}\n',
            '\ufeff{"validation": 0.6, "test": 6.0}\n',  # a byte-order mark mid-file
            '{"validation": "0.5", "test": 7.0}\r\n',
            " \t \r\n",
            "\n",
            '{"validation": 0.8, "test": 8.0}\r\n',
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        assert run(["summarize", path]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: malformed rows in {path}: line 2: invalid JSON (Extra data); "
            "line 3: non-finite 'validation' value nan; line 4: expected a JSON object; "
            "line 5: non-finite 'test' value inf; "
            "line 6: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"
        )
        path.write_text("".join(lines[i] for i in (0, 6, 7, 8, 9)), encoding="utf-8", newline="")
        pool = cli.load_pool(cli.PoolFile(str(path), "jsonl", "validation", "test",
                                          cli.Direction.MAXIMIZE))
        assert pool.validation_scores.tolist() == [0.1, 0.5, 0.8]
        assert pool.test_scores.tolist() == [1.0, 7.0, 8.0]

    def test_jsonl_lines_end_at_line_feeds_and_carriage_returns_only(self, tmp_path, capsys):
        # str.splitlines() would also end a line at U+2028 and at a form
        # feed, and so misnumber every later line.
        lines = [
            '{"validation": 0.1, "test": 1.0, "note": "a\u2028b"}\n',
            '{"validation": 0.2, "test": 2.0, "note": "a\x0cb"}\r\n',
            '{"validation": 0.3, "test": 3.0}\r',
            '{"validation": 0.4, "test": "x"}\n',
        ]
        path = tmp_path / "breaks.jsonl"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        assert run(["summarize", path]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: malformed rows in {path}: line 2: invalid JSON (Invalid control "
            "character at); line 4: non-numeric 'test' value 'x'\n"
        )
        path.write_text(lines[0] + lines[2], encoding="utf-8", newline="")
        pool = cli.load_pool(cli.PoolFile(str(path), "jsonl", "validation", "test",
                                          cli.Direction.MAXIMIZE))
        assert pool.test_scores.tolist() == [1.0, 3.0]

    def test_csv_row_with_extra_fields_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        path.write_text("validation,test\n0.1,10\n0.2,20,99\n")
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 3" in err and "3 fields" in err

    @pytest.mark.parametrize(
        "name, data, line",
        [
            ("bad.csv", b"validation,test\r\n0.1,1\r\n0.2,\xff3\r\n", 3),
            ("bad.jsonl", b'{"validation": 0.1, "test": 1}\r{"validation": 0.2, "test": "\xff"}',
             2),
        ],
        ids=["csv", "jsonl"],
    )
    def test_bytes_that_are_not_utf8_are_an_error_naming_the_line(
        self, name, data, line, tmp_path, capsys
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{name}: line {line}: not UTF-8 text" in err

    @pytest.mark.parametrize(
        "value, reasons",
        [
            ("9" * 400, ["beyond the float range"]),
            # Python 3.11 and later refuse an integer past 4,300 digits in
            # json.loads; earlier versions parse it and float() overflows.
            ("9" * 5000, ["invalid JSON", "beyond the float range"]),
            ("[" * 100_000, ["invalid JSON"]),
        ],
        ids=["400 digits", "5000 digits", "deep nesting"],
    )
    def test_jsonl_value_a_float_cannot_hold_is_an_error_naming_the_line(
        self, value, reasons, tmp_path, capsys
    ):
        path = tmp_path / "pool.jsonl"
        path.write_text(
            '{"validation": 0.1, "test": 1.0}\n{"validation": 0.2, "test": ' + value + "}\n"
        )
        assert run(["summarize", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 2" in err and any(reason in err for reason in reasons)

    def test_unwritable_output_is_reported_as_a_write_error(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "report.json"
        assert run(["summarize", toy_csv, "--output", out]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot write output" in err and "cannot read input" not in err


class TestBoon:
    def test_toy_values(self, toy_csv, tmp_path):
        out = tmp_path / "report.json"
        assert run(["boon", toy_csv, "--n", "1,2", "--output", out]) == EXIT_OK
        report = read_report(out)
        values = {e["n"]: e["value"] for e in report["estimates"]}
        assert values[1] == pytest.approx(20.0)
        assert values[2] == pytest.approx(220 / 9)
        assert report["estimator"] == "nonparametric"

    def test_extrapolative_flagged(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["boon", toy_csv, "--n", "5", "--output", out]) == EXIT_OK
        (entry,) = read_report(out)["estimates"]
        assert entry["extrapolative"] is True
        captured = capsys.readouterr()
        assert "extrapolative" in captured.out and captured.err == ""

    def test_n_column_fits_the_widest_n(self, toy_csv, capsys):
        big = 10**39 + 7  # 40 digits
        assert run(["boon", toy_csv, "--n", f"1,12345,{big}"]) == EXIT_OK
        table = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in table] == ["n", "1", "12345", str(big)]
        # n's right edge, the estimator's left edge, and the value and CI
        # columns' right edges
        edges = [[m.end() if i != 1 else m.start() for i, m in
                  enumerate(list(re.finditer(r"\S+", row))[:5])] for row in table]
        assert edges[0][0] == 40 and all(e == edges[0] for e in edges)

    @pytest.mark.parametrize("tests, reason", [
        ([5.0, 5.0, 5.0], "test scores have zero variance"),
        ([-1e308, 0.0, 1e308, 1e308], "Boo(5) overflows the float range"),  # the spread does
    ], ids=["zero-spread", "overflow"])
    def test_gaussian_estimator_on_degenerate_pool_guides_user(
        self, tests, reason, tmp_path, capsys
    ):
        path = helpers.write_pool_csv(tmp_path / "p.csv", list(zip(range(len(tests)), tests)))
        out = tmp_path / "report.json"
        assert run(["boon", path, "--estimator", "gaussian", "--output", out]) == EXIT_ESTIMATOR
        hint = "rerun with --estimator nonparametric, which needs no spread"
        assert capsys.readouterr().err == f"error: {reason}; {hint}\n"
        assert not out.exists()  # the pools loaded, the command failed: no report

    @pytest.mark.parametrize("argv", [
        ["boon", "{p}", "--n", "1"],
        ["boon", "{p}", "--n", "1", "--bootstrap", "100"],
        ["compare", "{p}", "{p}", "--bootstrap", "100"],
    ], ids=["boon", "boon-bootstrap", "compare"])
    def test_nonparametric_estimate_that_overflows_is_an_estimator_error(
        self, argv, tmp_path, capsys
    ):
        # The rank weights sum to one only up to rounding, so the weighted
        # sum of 199 largest floats passes the float range.
        rows = [(i, sys.float_info.max) for i in range(199)]
        path = helpers.write_pool_csv(tmp_path / "maxed.csv", rows)
        out = tmp_path / "report.json"
        argv = [arg.format(p=path) for arg in argv] + ["--output", out]
        assert run(argv) == EXIT_ESTIMATOR
        n = argv[argv.index("--n") + 1] if "--n" in argv else 5
        assert capsys.readouterr().err == f"error: Boo({n}) overflows the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_gaussian_bootstrap_of_tiny_scores(self, direction, tmp_path):
        # each resample's plain correlation sums underflow at scores near 1e-100
        z = np.random.default_rng(30).standard_normal((30, 2))
        rows = 1e-100 * np.column_stack((z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]))
        path = helpers.write_pool_csv(tmp_path / "tiny.csv", rows.tolist())
        out = tmp_path / "report.json"
        rc = run(["boon", path, "--estimator", "gaussian", "--bootstrap", "200",
                  "--direction", direction, "--output", out])
        assert rc == EXIT_OK
        (entry,) = read_report(out)["estimates"]
        assert entry["ci"]["lo"] < entry["value"] < entry["ci"]["hi"]

    def test_scores_near_1e_200_give_the_numbers_of_scores_near_1e_100(self, tmp_path):
        # The squared deviations of scores near 1e-200 fall below the float range, so every
        # spread is taken from scaled scores: the Gaussian estimate, its interval, the test
        # SD and the normality statistic are the 1e-100 pool's, scaled.
        def numbers(exponent):
            rows = [(f"{i}e-{exponent}", f"{i * 7 % 11 + i}e-{exponent}") for i in range(1, 31)]
            path = helpers.write_pool_csv(tmp_path / f"tiny{exponent}.csv", rows)
            boon, summary = tmp_path / f"boon{exponent}.json", tmp_path / f"sum{exponent}.json"
            assert run(["boon", path, "--estimator", "gaussian", "--bootstrap", "200",
                        "--output", boon]) == EXIT_OK
            assert run(["summarize", path, "--output", summary]) == EXIT_OK
            (entry,) = read_report(boon)["estimates"]
            summary = read_report(summary)
            scale = 10.0**-exponent
            return [entry["value"] / scale, entry["ci"]["lo"] / scale, entry["ci"]["hi"] / scale,
                    summary["summary"]["std_test"] / scale,
                    summary["summary"]["normality"]["statistic"]]

        assert numbers(200) == pytest.approx(numbers(100), rel=1e-9, abs=0)

    def test_bootstrap_ci_recorded(self, tmp_path):
        pool = helpers.bivariate_normal_pool(m=40, rho=0.5, seed=4)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        out = tmp_path / "report.json"
        rc = run(["boon", path, "--n", "5", "--bootstrap", "500", "--seed", "7",
                  "--output", out])
        assert rc == EXIT_OK
        report = read_report(out)
        (entry,) = report["estimates"]
        assert entry["ci"]["replicates"] == 500
        assert entry["ci"]["lo"] <= entry["value"] <= entry["ci"]["hi"]
        assert report["seed"] == 7

    def test_every_n_sees_the_same_resamples(self, tmp_path):
        pool = helpers.bivariate_normal_pool(m=40, rho=0.5, seed=4)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        tied = [(round(v, 1), t) for v, t in rows]  # 40 validations in 24 groups
        cases = [(rows, "max"), (tied, "min")]
        for k, (records, direction) in enumerate(cases):
            path = helpers.write_pool_csv(tmp_path / f"pool-{k}.csv", records)
            for estimator in ("nonparametric", "gaussian"):
                def cis(ns):
                    out = tmp_path / f"boon-{k}-{estimator}-{ns}.json"
                    argv = ["boon", path, "--n", ns, "--bootstrap", "500", "--estimator",
                            estimator, "--direction", direction, "--output", out]
                    assert run(argv) == EXIT_OK
                    return [(e["n"], e["ci"]) for e in read_report(out)["estimates"]]

                together = cis("20,1,5,5")
                assert [n for n, _ in together] == [20, 1, 5, 5]
                for n, ci in together:
                    assert [(n, ci)] == cis(str(n))

    def test_one_resample_run_serves_every_n(self, tmp_path, monkeypatch):
        pool = helpers.bivariate_normal_pool(m=40, rho=0.5, seed=4)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        streams = []
        rng = resampling._rng
        monkeypatch.setattr(resampling, "_rng", lambda *key: streams.append(key) or rng(*key))
        opened = {}
        for ns in ("5", "1,5,20"):
            streams.clear()
            assert run(["boon", path, "--n", ns, "--bootstrap", "500"]) == EXIT_OK
            opened[ns] = list(streams)
        # 409 replicates per chunk: two chunk streams for 500 replicates
        assert opened["1,5,20"] == opened["5"] == [(0, 0), (0, 1)]

    def test_gaussian_ci_on_mostly_degenerate_resamples_fails(self, tmp_path, capsys):
        # a third of the resamples have a single validation value
        path = helpers.write_pool_csv(tmp_path / "pool.csv", [(0, 1), (0, 2), (1, 3)])
        rc = run(["boon", path, "--estimator", "gaussian", "--bootstrap", "500"])
        assert rc == EXIT_ESTIMATOR
        assert "resamples" in capsys.readouterr().err

    def test_synthetic_pool_ci_covers_closed_form(self, tmp_path):
        pool = helpers.bivariate_normal_pool(
            m=370, mu_val=63.5, mu_test=63.16, sigma_val=1.0, sigma_test=0.94,
            rho=0.18, seed=12,
        )
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "as.csv", rows)
        out = tmp_path / "report.json"
        rc = run(["boon", path, "--n", "5", "--bootstrap", "2000", "--seed", "3",
                  "--output", out])
        assert rc == EXIT_OK
        (entry,) = read_report(out)["estimates"]
        assert entry["ci"]["lo"] <= 63.357 <= entry["ci"]["hi"]

    def test_direction_min_negates_ranking(self, tmp_path):
        rows_max = [(0.1, 10.0), (0.2, 20.0), (0.3, 30.0)]
        rows_min = [(-v, -t) for v, t in rows_max]
        path_max = helpers.write_pool_csv(tmp_path / "max.csv", rows_max)
        path_min = helpers.write_pool_csv(tmp_path / "min.csv", rows_min)
        out_max, out_min = tmp_path / "max.json", tmp_path / "min.json"
        assert run(["boon", path_max, "--n", "2", "--output", out_max]) == EXIT_OK
        assert run(["boon", path_min, "--n", "2", "--direction", "min",
                    "--output", out_min]) == EXIT_OK
        v_max = read_report(out_max)["estimates"][0]["value"]
        v_min = read_report(out_min)["estimates"][0]["value"]
        assert v_min == pytest.approx(-v_max)


class TestCurve:
    def test_writes_report_and_csv(self, toy_csv, tmp_path):
        out = tmp_path / "curve.json"
        rc = run(["curve", toy_csv, "--m-max", "3", "--samples-per-m", "2000",
                  "--bootstrap", "300", "--seed", "5", "--output", out])
        assert rc == EXIT_OK
        report = read_report(out)
        assert [p["m"] for p in report["curve"]] == [1, 2, 3]
        csv_path = tmp_path / "curve.curve.csv"
        assert csv_path.exists()
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["m"] for r in rows] == ["1", "2", "3"]
        for row, point in zip(rows, report["curve"]):
            assert float(row["expected_best_test"]) == point["expected_best_test"]
            assert float(row["ci_lo"]) == point["ci_lo"]

    def test_perfect_correlation_curve_rises(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=50)
        path = helpers.write_pool_csv(tmp_path / "p.csv", list(zip(scores, scores)))
        out = tmp_path / "curve.json"
        rc = run(["curve", path, "--m-max", "8", "--samples-per-m", "20000",
                  "--bootstrap", "300", "--seed", "5", "--output", out])
        assert rc == EXIT_OK
        values = [p["expected_best_test"] for p in read_report(out)["curve"]]
        assert values[-1] > values[0]

    def test_m_max_one_recovers_the_test_mean(self, tmp_path):
        pool = helpers.bivariate_normal_pool(m=30, rho=0.3, seed=9)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "p.csv", rows)
        out = tmp_path / "curve.json"
        rc = run(["curve", path, "--m-max", "1", "--samples-per-m", "20000",
                  "--bootstrap", "300", "--seed", "2", "--output", out])
        assert rc == EXIT_OK
        (point,) = read_report(out)["curve"]
        mean = float(pool.test_scores.mean())
        assert abs(point["expected_best_test"] - mean) <= 3 * point["mc_se"]

    @pytest.mark.parametrize("rows, bandwidth, error", [
        ([(-1e308, 1.0), (-1e308, 2.0), (0.0, 3.0)], "1e308", "error: statistic failed"),
        # The automatic test bandwidth itself overflows: named before any draw.
        ([(0.0, -1e308), (1.0, 0.0), (2.0, 1e308), (3.0, 1e308)], "auto",
         "error: the automatic test bandwidth overflows the float range; an explicit"
         " bandwidth (--bandwidth) avoids it"),
    ], ids=["wide-noise", "auto"])
    def test_overflowing_band_is_an_estimator_error(self, rows, bandwidth, error, tmp_path,
                                                    capsys):
        path = helpers.write_pool_csv(tmp_path / "p.csv", rows)
        rc = run(["curve", path, "--m-max", "2", "--samples-per-m", "200",
                  "--bootstrap", "200", "--bandwidth", bandwidth, "--seed", "0"])
        assert rc == EXIT_ESTIMATOR
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1

    def test_rejects_bad_m_max(self, tmp_path, capsys):
        # refused by the parser: the missing input file is never opened
        for value in ("0", "100001", str(10**9)):
            assert run(["curve", tmp_path / "missing.csv", "--m-max", value]) == EXIT_USAGE
            assert "--m-max" in capsys.readouterr().err


class TestCompare:
    def test_identical_files(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = run(["compare", toy_csv, toy_csv, "--bootstrap", "500", "--output", out])
        assert rc == EXIT_OK
        comparison = read_report(out)["comparison"]
        assert comparison["delta"] == 0.0
        assert comparison["significant"] is False
        assert "not significant" in capsys.readouterr().out

    @pytest.mark.parametrize("level, shown", [("0.95", "95% CI"), ("0.29", "29% CI"),
                                              ("0.975", "97.5% CI")])
    def test_printed_level_is_the_given_one(self, toy_csv, tmp_path, capsys, level, shown):
        out = tmp_path / "cmp.json"
        assert run(["compare", toy_csv, toy_csv, "--bootstrap", "200", "--level", level,
                    "--output", out]) == EXIT_OK
        assert f"\n{shown}: [" in capsys.readouterr().out

    def test_shifted_file_recovers_delta(self, toy_csv, tmp_path):
        shifted = helpers.write_pool_csv(
            tmp_path / "shifted.csv", [(0.1 + 1.0, 11.0), (1.2, 21.0), (1.3, 31.0)]
        )
        out = tmp_path / "cmp.json"
        rc = run(["compare", toy_csv, shifted, "--n", "2", "--bootstrap", "500",
                  "--output", out])
        assert rc == EXIT_OK
        comparison = read_report(out)["comparison"]
        assert comparison["delta"] == pytest.approx(1.0, abs=1e-9)

    def test_single_row_files_are_an_estimator_error(self, toy_csv, tmp_path, capsys):
        one = helpers.write_pool_csv(tmp_path / "one.csv", [(1.0, 2.0)])
        for argv, name in (([one, toy_csv], "pool A"), ([toy_csv, one], "pool B")):
            out = tmp_path / "cmp.json"
            assert run(["compare", *argv, "--bootstrap", "500", "--output", out]) == EXIT_ESTIMATOR
            assert name in capsys.readouterr().err
            assert not out.exists()


class TestSeedHandling:
    def test_env_var_provides_default_seed(self, toy_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("BESTOFN_SEED", "99")
        out = tmp_path / "r.json"
        assert run(["boon", toy_csv, "--n", "2", "--output", out]) == EXIT_OK
        assert read_report(out)["seed"] == 99

    def test_flag_overrides_env_var(self, toy_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("BESTOFN_SEED", "99")
        out = tmp_path / "r.json"
        assert run(["boon", toy_csv, "--n", "2", "--seed", "11", "--output", out]) == EXIT_OK
        assert read_report(out)["seed"] == 11

    def test_invalid_env_var_is_a_usage_error(self, toy_csv, monkeypatch):
        monkeypatch.setenv("BESTOFN_SEED", "eleven")
        assert run(["boon", toy_csv]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_out_of_range_env_var_is_named(self, toy_csv, capsys, monkeypatch, value):
        monkeypatch.setenv("BESTOFN_SEED", value)
        assert run(["boon", toy_csv]) == EXIT_USAGE
        assert "BESTOFN_SEED" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, toy_csv, tmp_path):
        out = tmp_path / "r.json"
        seed = 2**64 - 1
        assert run(["boon", toy_csv, "--n", "2", "--bootstrap", "100", "--seed", seed,
                    "--output", out]) == EXIT_OK
        assert read_report(out)["seed"] == seed


class TestRoundTrip:
    def test_rerun_with_recorded_seed_reproduces_report(self, tmp_path):
        pool = helpers.bivariate_normal_pool(m=30, rho=0.4, seed=21)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["boon", path, "--n", "3,5", "--bootstrap", "400", "--output"]
        assert run(argv + [out1]) == EXIT_OK
        recorded_seed = read_report(out1)["seed"]
        assert run(["boon", path, "--n", "3,5", "--bootstrap", "400",
                    "--seed", recorded_seed, "--output", out2]) == EXIT_OK
        r1, r2 = read_report(out1), read_report(out2)
        r1.pop("command"), r2.pop("command")
        assert r1 == r2

    def test_workers_do_not_change_the_numbers(self, tmp_path):
        pool = helpers.bivariate_normal_pool(m=25, rho=0.2, seed=2)
        rows = list(zip(pool.validation_scores.tolist(), pool.test_scores.tolist()))
        path = helpers.write_pool_csv(tmp_path / "pool.csv", rows)
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        base = ["curve", path, "--m-max", "4", "--samples-per-m", "2000",
                "--bootstrap", "300", "--seed", "6"]
        assert run(base + ["--workers", "1", "--output", out1]) == EXIT_OK
        assert run(base + ["--workers", "3", "--output", out2]) == EXIT_OK
        r1, r2 = read_report(out1), read_report(out2)
        for r in (r1, r2):  # differ only by invocation echo and output paths
            r.pop("command")
            r.pop("curve_csv")
        assert r1 == r2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert run([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["summarize", "{pool}", "--columns", "onlyone"],
        ["boon", "{pool}", "--columns", "test,test", "--n", "5"],
        ["boon", "{pool}", "--columns", " test , test", "--n", "5"],
    ])
    def test_bad_columns_value(self, tmp_path, capsys, argv):
        # refused before any input is read: the file does not exist
        missing = tmp_path / "missing.csv"
        assert run([a.format(pool=missing) for a in argv]) == EXIT_USAGE
        assert "--columns" in capsys.readouterr().err

    def test_bad_n_value(self, toy_csv):
        assert run(["boon", toy_csv, "--n", "zero"]) == EXIT_USAGE
        assert run(["boon", toy_csv, "--n", "0"]) == EXIT_USAGE

    def test_n_list_without_a_value_is_refused(self, toy_csv, capsys):
        assert run(["boon", toy_csv, "--n", ","]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --n: n values must be positive integers, got ','" in err

    @pytest.mark.parametrize("value", ["3,5", "0", "-2"])
    def test_compare_takes_exactly_one_positive_n(self, toy_csv, capsys, value):
        assert run(["compare", toy_csv, toy_csv, "--n", value]) == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["boon", "{pool}"], ["boon", "{pool}", "--n", "5,{n}"], ["compare", "{pool}", "{pool}"],
    ])
    def test_n_beyond_the_float_range_is_named_before_any_input_is_read(
        self, tmp_path, capsys, argv
    ):
        missing, n = tmp_path / "missing.csv", str(_MAX_N + 1)
        argv = [a.format(pool=missing, n=n) for a in argv]
        assert run(argv if "--n" in argv else argv + ["--n", n]) == EXIT_USAGE
        assert "argument --n" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["nonparametric", "gaussian"])
    def test_largest_n_runs(self, tmp_path, estimator):
        pool = helpers.bivariate_normal_pool(m=20, rho=0.5, seed=6)
        path = helpers.write_pool_csv(
            tmp_path / "pool.csv", zip(pool.validation_scores, pool.test_scores)
        )
        out = str(tmp_path / "boon.json")
        argv = ["boon", path, "--n", str(_MAX_N), "--estimator", estimator,
                "--bootstrap", "200", "--output", out]
        assert run(argv) == EXIT_OK
        (entry,) = read_report(out)["estimates"]
        assert entry["n"] == _MAX_N and entry["ci"]["lo"] <= entry["value"] <= entry["ci"]["hi"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_workers_below_one_rejected(self, toy_csv, capsys, value):
        assert run(["boon", toy_csv, "--bootstrap", "200", "--workers", value]) == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["boon", "{pool}", "--bootstrap", str(10**12)],
        ["compare", "{pool}", "{pool}", "--bootstrap", str(10**12)],
        ["curve", "{pool}", "--bootstrap", str(10**12)],
        ["curve", "{pool}", "--samples-per-m", str(10**12)],
    ])
    def test_replicate_counts_are_bounded(self, toy_csv, capsys, argv):
        assert run([a.format(pool=toy_csv) for a in argv]) == EXIT_USAGE
        assert argv[-2] in capsys.readouterr().err

    def test_bad_bandwidth(self, toy_csv):
        assert run(["curve", toy_csv, "--bandwidth", "-2"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["boon", "{pool}"], ["compare", "{pool}", "{pool}"]])
    def test_bandwidth_is_a_curve_flag_only(self, toy_csv, capsys, argv):
        argv = [a.format(pool=toy_csv) for a in argv] + ["--bandwidth", "0.5"]
        assert run(argv) == EXIT_USAGE
        assert "--bandwidth" in capsys.readouterr().err

    def test_bad_level(self, toy_csv):
        assert run(["boon", toy_csv, "--bootstrap", "200", "--level", "1.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--level", "1.5"), ("--level", "nan"), ("--level", "0"),
        ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "seven"),
        ("--bootstrap", "50"),
    ])
    def test_bad_level_or_seed_is_named_before_any_input_is_read(
        self, tmp_path, capsys, flag, value
    ):
        missing = tmp_path / "missing.csv"
        assert run(["boon", missing, "--bootstrap", "100", flag, value]) == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err


def test_every_report_records_the_stream_version(toy_csv, tmp_path):
    commands = [
        ["summarize", toy_csv],
        ["boon", toy_csv, "--n", "2", "--bootstrap", "100"],
        ["curve", toy_csv, "--m-max", "2", "--samples-per-m", "100", "--bootstrap", "100"],
        ["compare", toy_csv, toy_csv, "--bootstrap", "100"],
    ]
    for argv in commands:
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--output", out]) == EXIT_OK
        report = read_report(out)
        assert report["stream_version"] == resampling.STREAM_VERSION == 7
        assert report["schema_version"] == 1


SRC = str(Path(cli.__file__).resolve().parents[1])
POOL_ROWS = [(0.1 * i, float(i % 7)) for i in range(12)]


@pytest.fixture(scope="module")
def modules_after_every_command(tmp_path_factory):
    """The modules a fresh interpreter holds after running each command once
    and each public library routine once, with scipy made unimportable."""
    path = helpers.write_pool_csv(tmp_path_factory.mktemp("pool") / "pool.csv", POOL_ROWS)
    script = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import bestofn as b
from bestofn import cli
for argv in (
    ["summarize", {str(path)!r}],
    ["boon", {str(path)!r}, "--bootstrap", "100"],
    ["boon", {str(path)!r}, "--estimator", "gaussian", "--bootstrap", "100"],
    ["compare", {str(path)!r}, {str(path)!r}, "--bootstrap", "100"],
    ["curve", {str(path)!r}, "--m-max", "2", "--samples-per-m", "100", "--bootstrap", "100"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
pool = b.ResultPool.from_pairs({POOL_ROWS!r})
config = b.ResamplingConfig(replicates=100)
params = b.fit_gaussian_params(pool)
for statistic in (b.BoonStatistic(2), b.best_single_model):
    for size in (None, 6):
        b.bootstrap_ci(pool, statistic, config, resample_size=size)
        b.smoothed_bootstrap_ci(pool, statistic, config, resample_size=size)
b.best_of_m_curve(pool, [1, 2], 100, config)
for kind in b.EstimatorKind:
    b.monte_carlo_ci_gaussian(params, 12, 3, kind, config)
b.compare_architectures(pool, pool, 3, config)
b.summarize(pool)
b.anderson_darling_normality(pool.test_scores)
b.boon_nonparametric(pool, 3)
b.boon_parametric_gaussian(pool, 3)
b.gaussian_boon_valtest(params, 3)
b.std_normal_expected_max.cache_clear()
b.std_normal_expected_max(10**40)
del sys.modules["scipy"]  # the block, not a loaded module
print(json.dumps(sorted(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_commands_run_without_importing_scipy(modules_after_every_command):
    loaded = [m for m in modules_after_every_command
              if m.split(".")[0] in ("scipy", "concurrent")]
    assert not loaded, loaded


def test_commands_run_without_importing_numpy_ma(modules_after_every_command):
    # np.quantile would import it (10-15 ms) through np.unique.
    loaded = [m for m in modules_after_every_command
              if m == "numpy.ma" or m.startswith("numpy.ma.")]
    assert not loaded, loaded


def cli_process(argv, unbuffered=False, **kwargs):
    """``python -m bestofn argv`` in its own interpreter, stderr captured as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "bestofn", *map(str, argv)], env=env,
                          stderr=subprocess.PIPE, timeout=120, **kwargs)


class TestProcessEntry:
    """The CLI as a process: what a shell and the console script run."""

    @pytest.mark.parametrize("command", [
        ["--version"],
        ["summarize", "{a}"],
        ["boon", "{a}", "--n", "1,5,20", "--bootstrap", "100"],
        ["boon", "{a}", "--estimator", "gaussian", "--bootstrap", "100"],
        ["compare", "{a}", "{b}", "--bootstrap", "100"],
        ["curve", "{a}", "--bootstrap", "100"],
    ], ids=["version", "summarize", "boon", "boon-gaussian", "compare", "curve"])
    def test_output_is_the_in_process_output(self, command, tmp_path, capsys):
        pools = {
            "a": helpers.write_pool_csv(tmp_path / "a.csv", POOL_ROWS),
            "b": helpers.write_pool_csv(tmp_path / "b.csv", [(v, t + 0.5) for v, t in POOL_ROWS]),
        }
        argv = [arg.format(**pools) for arg in command]
        if argv[0] != "--version":
            argv += ["--output", str(tmp_path / "report.json")]

        result = cli_process(argv, stdout=subprocess.PIPE)
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        written = {p.name: p.read_bytes() for p in tmp_path.glob("report*")}
        for name in written:
            (tmp_path / name).unlink()

        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == result.stdout
        assert {p.name: p.read_bytes() for p in tmp_path.glob("report*")} == written
        assert len(written) == {"--version": 0, "curve": 2}.get(argv[0], 1)

    def test_main_leaves_the_callers_gc_state_alone(self, toy_csv):
        # Only the process entry freezes the objects built on import.
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(["boon", toy_csv, "--bootstrap", "100"]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestStdoutFailures:
    """A failed write of the table is an output error (exit 3), reported once
    and after the report is complete; a reader that closed the pipe gets no
    message."""

    def assert_output_error(self, argv, result, expected_err):
        assert result.returncode == EXIT_DATA
        assert result.stderr.decode() == expected_err
        out = Path(argv[-1])
        written = out.read_bytes()
        out.unlink()
        assert run(argv) == EXIT_OK
        assert out.read_bytes() == written

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_full_device(self, unbuffered, toy_csv, tmp_path):
        argv = ["summarize", toy_csv, "--output", str(tmp_path / "report.json")]
        with open("/dev/full", "wb") as full:
            result = cli_process(argv, unbuffered, stdout=full)
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        self.assert_output_error(argv, result, f"error: cannot write output: {reason}\n")

    def test_pipe_closed_by_its_reader(self, unbuffered, toy_csv, tmp_path):
        argv = ["summarize", toy_csv, "--output", str(tmp_path / "report.json")]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the table is written
        try:
            result = cli_process(argv, unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        self.assert_output_error(argv, result, "")


def test_a_shuffled_input_file_gives_byte_identical_output(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(21)
    v, t = rng.integers(0, 6, 40) / 4, rng.normal(size=40).round(2)
    rows = list(zip(v.tolist(), t.tolist()))
    commands = [
        ["summarize", "pool.csv", "--output", "summarize.json"],
        ["boon", "pool.csv", "--n", "1,5", "--bootstrap", "200", "--output", "boon.json"],
        ["boon", "pool.csv", "--estimator", "gaussian", "--bootstrap", "200",
         "--output", "gauss.json"],
        ["compare", "pool.csv", "pool.csv", "--bootstrap", "200", "--output", "compare.json"],
        ["curve", "pool.csv", "--m-max", "3", "--samples-per-m", "200", "--bootstrap", "200",
         "--output", "curve.json"],
    ]
    seen = []
    for name, order in (("given", np.arange(40)), ("shuffled", rng.permutation(40))):
        directory = tmp_path / name
        directory.mkdir()
        helpers.write_pool_csv(directory / "pool.csv", [rows[i] for i in order])
        monkeypatch.chdir(directory)
        printed = []
        for argv in commands:
            assert run(argv) == EXIT_OK
            printed.append(capsys.readouterr().out)
        outputs = sorted(p for p in directory.iterdir() if p.name != "pool.csv")
        seen.append((printed, [(p.name, p.read_bytes()) for p in outputs]))
    assert seen[0] == seen[1]
    assert len(seen[0][1]) == 6  # five reports and the curve CSV
