#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that the reference engine agrees with the plain rank-weight formula,
that correct reports pass and tampered ones fail (one Boo value moved by
1e-6, a CI endpoint moved, a report or a library result that differs from
the run's first one), that a non-zero exit counts as a failed operation,
that both kinds of pass produce every metric they promise, that an
untraced pass stops at its deadline, that samples scale by the host probes
near them, and that ``BENCHMARK.json`` lists the workloads and metrics the
code defines.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import metrics
import reference
import run as bench
from spans import Tracer

TINY = [
    bench.Workload("tiny-max", 20, "csv", False, None, 200, 200, 200, 200),
    bench.Workload("tiny-min-ties", 300, "jsonl", True, 1, 100, 100, 100, 100),
]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_reference_engine(run: bench.Run) -> None:
    ref = run.ref
    idx = np.random.default_rng(0).integers(0, ref.m, size=(50, ref.m))
    engine = ref.boon_of_resamples("A", idx, [1, 5])
    val, test = ref.oriented("A")
    for n in (1, 5):
        plain = [ref.sign * reference.rank_weight_boon(val[i].tolist(), test[i].tolist(), n)
                 for i in idx]
        expect(np.allclose(engine[n], plain, rtol=1e-12, atol=0),
               f"{run.w.name}: count engine matches the rank-weight formula (n={n})")


def check_tampering(run: bench.Run, commands: list[bench.Command]) -> None:
    boon = commands[1]
    path = boon.output(run)
    original = path.read_bytes()
    report = json.loads(original)

    report["estimates"][1]["value"] += 1e-6
    path.write_text(json.dumps(report))
    expect(any("value" in e for e in boon.check(json.loads(path.read_text()))),
           f"{run.w.name}: a Boo value moved by 1e-6 is rejected")

    report = json.loads(original)
    ci = report["estimates"][1]["ci"]
    ci["lo"] -= 3 * (ci["hi"] - ci["lo"])
    expect(any("endpoint" in e for e in boon.check(report)),
           f"{run.w.name}: a CI endpoint moved by three widths is rejected")

    path.write_bytes(original)
    expect(bench.read_and_check(run, boon) == [], f"{run.w.name}: the untouched report passes")
    path.write_text(json.dumps(json.loads(original)))
    expect(any("differs" in e for e in bench.read_and_check(run, boon)),
           f"{run.w.name}: a report that differs from the run's first one is rejected")
    path.write_bytes(original)


def check_result_identity(run: bench.Run, lib: bench.Library) -> None:
    before = run.failed
    lib.call("constant", 1, lambda: 1.0, lambda r: [])
    lib.call("constant", 1, lambda: 1.5, lambda r: [])
    expect(run.failed == before + 1,
           f"{run.w.name}: a library result that differs from the run's first one fails")
    run.failed = before


def main() -> None:
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.SRC))
    bench.WORK.mkdir(exist_ok=True)
    for workload in TINY:
        with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
            run = bench.Run(workload, 7, Path(tmp))
            try:
                check_reference_engine(run)
                lib = bench.Library(run)
                commands = bench.script(run)
                host = bench.HostSpeed()
                step_s: dict[str, float] = {}
                sample, whole = bench.untraced_pass(run, commands, lib, host, float("inf"), step_s)
                expect(whole and run.failed == 0 and run.attempted == 11,
                       f"{workload.name}: an untraced pass runs 11 operations, none failing")
                expect(set(sample) == set(metrics.END_TO_END) - {"report_s", "peak_rss_mb"},
                       f"{workload.name}: an untraced pass yields every per-pass metric")
                sample, whole = bench.untraced_pass(run, commands, lib, host, 0.0, step_s)
                expect(not whole and not any(sample.values()),
                       f"{workload.name}: a pass past its deadline runs no step")
                check_tampering(run, commands)
                check_result_identity(run, lib)

                tracer = Tracer(workload.name)
                sample = bench.traced_pass(run, commands, lib, tracer)
                expect(set(sample) == set(metrics.PER_LAYER),
                       f"{workload.name}: a traced pass yields every per-layer metric")
                expect(run.failed == 0, f"{workload.name}: the traced pass has no failure")

                before = run.failed
                _, errors = bench.run_cli(run, ["boon", "no-such-pool.csv"], "missing")
                run.outcome("missing pool", errors)
                expect(errors != [] and run.failed == before + 1,
                       f"{workload.name}: a non-zero exit counts as a failure")
            finally:
                run.close()

    host = bench.HostSpeed()
    host.probes = [bench.REF_PROBE_S * x for x in (1, 2, 2, 9, 2, 2, 1)]
    expect(host.factor(2) == 2.0 and host.factor(0) == 2.0,
           "an operation's host factor is the median of the probes near it")
    expect(bench.scale("boon_s", 3.0, 2.0) == 1.5 and bench.scale("mc_ci_rps", 3.0, 2.0) == 6.0,
           "a slow host's samples scale to shorter times and higher rates")

    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        expect(listed == {k: v[:2] for k, v in table.items()},
               f"BENCHMARK.json {key} matches metrics.py")
    expect({w["name"] for w in declared["workloads"]} == set(bench.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    print("selftest passed")


if __name__ == "__main__":
    main()
