#!/usr/bin/env python3
"""TiMR benchmark: build the benchmark binary, run one workload, or compare runs.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload bt_batch --seed 1 --seconds 30 --trace 0

The last line of stdout is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it is the run's provenance. With
--trace 1 the metrics are the per-layer ones and a Chrome trace-event file
(open it in Perfetto) is written under the build directory.

Compare two result sets recorded with --record:

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

The binary is built with CMake from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build at the repository root).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("bt_batch", "bt_procs", "cq_suite")
# A run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))


def build(bdir):
    """Configures (once) and builds timr_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(REPO, "src", "timr", "timr.h")):
        fail("TiMR sources not found under %s; run from a full checkout" % os.path.join(REPO, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    tree = os.path.join(bdir, "perfbench")
    cache = os.path.join(tree, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(tree)  # configured for another checkout
    if not os.path.isfile(cache):
        configure = [cmake, "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", tree, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(tree, "timr_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(REPO, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_run_args(argv):
    opts = {"size": "full", "record": None}
    need = ("workload", "seed", "seconds", "trace")
    i = 0
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--") or i + 1 >= len(argv):
            fail("bad argument %r\nusage: run.py --workload W --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--record FILE]" % flag)
        opts[flag[2:]] = argv[i + 1]
        i += 2
    for key in need:
        if key not in opts:
            fail("missing --" + key)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (opts["workload"], ", ".join(WORKLOADS)))
    unknown = set(opts) - set(need) - {"size", "record"}
    if unknown:
        fail("unknown flag --" + sorted(unknown)[0])
    return opts


def run(argv):
    opts = parse_run_args(argv)
    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"], "--size", opts["size"]]
    if opts["trace"] == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, "%s-seed%s.json" % (opts["workload"], opts["seed"]))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d" % proc.returncode, proc.returncode or 1)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark binary printed no result")
    provenance = json.loads(lines[-2])["provenance"]
    provenance["git_sha"] = git_sha()
    result = json.loads(lines[-1])
    if opts["record"]:
        with open(opts["record"], "a") as f:
            f.write(json.dumps({"workload": opts["workload"], "seed": int(opts["seed"]),
                                "trace": int(opts["trace"]), "provenance": provenance,
                                "result": result}) + "\n")
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"provenance": provenance}))
    print(lines[-1], flush=True)


# ------------------------------------------------------------------ compare --

def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, new, better, bound):
    """improved / unchanged / unresolved / regressed for one metric.

    Improved: the new side wins at least 9 of 10 pairs (ties count for
    neither) and the medians differ by more than the base's quartile
    spread. Regressed: the new median is worse than the base median by more
    than the bound (per-layer metrics, which have none, use the mirror of the
    improvement rule). Unresolved: the base's own spread is wider than the
    bound, unless every new run beats every base run.
    """
    lower = better == "lower"
    wins = lambda a, b: a < b if lower else a > b
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if wins(n, b))
    lost = sum(1 for b, n in pairs if wins(b, n))
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    spread = q3 - q1
    if pairs and won >= 0.9 * len(pairs) and abs(med_n - med_b) > spread:
        return "improved"
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and abs(med_n - med_b) > spread:
            return "regressed"
        return "unchanged" if abs(med_n - med_b) <= spread else "unresolved"
    worse = (med_n - med_b) if lower else (med_b - med_n)
    if med_b != 0 and worse / abs(med_b) > bound:
        return "regressed"
    all_better = all(wins(n, b) for n in new for b in base)
    if med_b != 0 and spread / abs(med_b) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare BASE.jsonl NEW.jsonl")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    print("%-10s %-30s %13s %27s %13s %27s  %s" % ("workload", "metric", "base median", "base q1..q3",
                                                   "new median", "new q1..q3", "verdict"))
    for workload in sorted(set(base) & set(new)):
        # Pair runs by seed (then by order), so run i of one side meets run i
        # of the other, as they were taken.
        b_runs = sorted(base[workload], key=lambda r: (r["trace"], r["seed"]))
        n_runs = sorted(new[workload], key=lambda r: (r["trace"], r["seed"]))
        for name, (better, bound) in metrics.items():
            b = [r["result"]["metrics"][name]["value"] for r in b_runs if name in r["result"]["metrics"]]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs if name in r["result"]["metrics"]]
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            print("%-10s %-30s %13.6g %13.6g..%-13.6g %13.6g %13.6g..%-13.6g  %s" % (
                workload, name, bmed, bq1, bq3, nmed, nq1, nq3, verdict(b, n, better, bound)))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        compare(sys.argv[2:])
    else:
        run(sys.argv[1:])


if __name__ == "__main__":
    main()
