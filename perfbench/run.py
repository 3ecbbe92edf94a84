#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds perfbench/ (which pulls in the library from the repository root) into
a subdirectory of $CARGO_TARGET_DIR (default .bench_build) named after this
checkout's path, so checkouts sharing the directory never reuse or delete
each other's builds, then runs the benchmark binary. The binary's standard
output is passed through; its last line is the result object. Build output
goes to standard error.

Each end-to-end metric is taken per 100 ms window and reported at the window
10% from the fast end, not at the median: co-tenant load on a shared host
slows whole stretches of windows, and the fast end tracks the program's own
cost. The price is a blind spot: a regression that slows only a minority of
windows (periodic cascade or eviction work, an intermittent convoy) leaves
the end-to-end figures unchanged. Read such costs from the traced run's
per-layer counters and problems.call_p99_us, not from an unchanged
end-to-end figure.

The traced run (--trace 1) first checks that the benchmark's probe replicas
of the library's buffer monitors, which supply the tag-search statistics,
move the process-wide counters exactly as the library's monitors do over
the same seeded script; a divergence fails the run.

--self-check makes a short run of every workload in both modes and fails if
any metric named in BENCHMARK.json, or its unit, is missing from the output,
or if perfbench/predictions.json names a metric BENCHMARK.json does not.
"""

import argparse
import json
import hashlib
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(d, "perfbench-" + key)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail("library sources not found (%s missing)" % f, 2)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.csv" % workload)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    return p.returncode, p.stdout


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    problems = []
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for p in predictions["predictions"]:
        for name in [p["layer_metric"]] + p["moves"]:
            if name not in layer_names | e2e_names:
                problems.append("predictions.json names unknown metric " + name)
    workload_names = {w["name"] for w in spec["workloads"]}
    named = set(predictions["workloads"])
    for p in predictions["predictions"]:
        named |= set(p["on"]) | set(p["no_change_on"])
    for w in sorted(named - workload_names):
        problems.append("predictions.json names unknown workload " + w)
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = "%s --trace %d" % (w["name"], trace)
            code, out = run(binary, w["name"], 1, 1, trace, capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(tag + ": last line is not a JSON result")
                continue
            if code != 0 or result.get("correct") is not True:
                problems.append(tag + ": run failed (exit %d)" % code)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(tag + ": result keys are %s" % sorted(result))
                continue
            got = result["metrics"]
            for m in wanted:
                v = got.get(m["name"])
                if v is None:
                    problems.append(tag + ": missing metric " + m["name"])
                elif v.get("unit") != m["unit"]:
                    problems.append(tag + ": %s has unit %r, expected %r"
                                    % (m["name"], v.get("unit"), m["unit"]))
                elif not isinstance(v.get("value"), (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append(tag + ": %s has no numeric value"
                                    % m["name"])
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(tag + ": unexpected metrics %s" % sorted(extra))
            print("self-check: %-24s %d metrics ok" % (tag, len(got) - len(extra)))
    for p in problems:
        print("self-check: FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_check and not 1 <= a.seconds <= 120:
        ap.error("--seconds must be between 1 and 120")
    if not a.self_check and a.seed < 0:
        ap.error("--seed must be a non-negative integer")
    binary = build()
    if a.self_check:
        sys.exit(self_check(binary))
    sys.stdout.flush()
    code, _ = run(binary, a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
