#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about 20 s on 4 cores).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs the untraced and the traced mode
at --size tiny and asserts that the result line has exactly the four result
keys, that every metric BENCHMARK.json names for that mode is printed with
its unit and a finite value, that no operation failed (error_rate is 0), that
the end-to-end metrics are never 0, and that the traced run wrote a Chrome
trace-event file. Then checks that the compare mode reads the recorded
results and calls a result set unchanged against itself.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_bench(workload, trace, record):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--record", record]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    assert proc.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, proc.returncode, proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(spec_metrics, result, workload, trace):
    where = "%s trace=%d" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, where
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}, (
        where, sorted(set(result["metrics"]) ^ {m["name"] for m in spec_metrics}))
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (where, m["name"])
        if trace == 0:
            assert got["value"] > 0, (where, m["name"], "end-to-end metric is 0")
    if trace == 1:
        assert result["metrics"]["error_rate"]["value"] == 0, where


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))
    smoke = os.path.join(bdir, "smoke")
    os.makedirs(smoke, exist_ok=True)
    record = os.path.join(smoke, "results.jsonl")
    if os.path.exists(record):
        os.remove(record)
    for w in spec["workloads"]:
        name = w["name"]
        check_result(spec["end_to_end"], run_bench(name, 0, record), name, 0)
        check_result(spec["per_layer"], run_bench(name, 1, record), name, 1)
        trace_file = os.path.join(bdir, "traces", "%s-seed7.json" % name)
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        assert events and all({"name", "ts", "dur"} <= set(e) for e in events), trace_file
        print("ok  %s" % name, flush=True)
    out = subprocess.run([sys.executable, RUN, "compare", record, record], cwd=REPO,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    verdicts = [line.split()[-1] for line in out.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"unchanged"}, out
    print("ok  compare (%d rows)" % len(verdicts))


if __name__ == "__main__":
    main()
