#!/usr/bin/env python3
"""The repository benchmark.

One run of one workload:

    python3 perfbench/run.py --workload query-road --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the library under src/) in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process, and passes its output through: named figures
with units and sample counts, then one JSON line with "correct",
"attempted", "failed" and "metrics". --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit code is
nonzero when the build fails, an output check fails, or the metrics do not
match BENCHMARK.json.

Other modes:

    python3 perfbench/run.py --selftest
        feeds the output checks known-wrong answers; fails if any passes.
    python3 perfbench/run.py --steady [--runs 10] [--seconds S] [--workload W ...]
        repeats each workload with seeds 1..runs and prints, per end-to-end
        metric, the median, the quartiles and the spread against its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["query-road", "mixed-rmat", "build-rmat"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def commit_id():
    try:
        p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        if p.returncode == 0:
            return p.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work, "--commit", commit_id()]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %s timed out after %ss" % (workload, seed, RUN_TIMEOUT_S), 4)
    out = p.stdout.decode(errors="replace")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def check_names(result, trace):
    spec = benchmark_spec()
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if have != want:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(have)), sorted(set(have) - set(want))), 3)


def steady(args, binary):
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload_list or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    print("steadiness: %d runs per workload, seeds 1..%d, %gs each, commit %s" %
          (args.runs, args.runs, seconds, commit_id()))
    worst = 0
    for wl in workloads:
        values = {name: [] for name in bounds}
        failed_shares = set()
        for seed in range(1, args.runs + 1):
            code, res = run_once(binary, wl, seed, seconds, 0, echo=False)
            if code != 0 or res is None or not res.get("correct"):
                fail("%s seed %d failed (exit %d)" % (wl, seed, code), 1)
            failed_shares.add(res["failed"] / res["attempted"])
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print("\n%s  (failed/attempted per run: %s)" % (wl, sorted(failed_shares)))
        for name in bounds:
            print("  %-14s runs: %s" % (name, " ".join("%.4g" % x for x in values[name])))
        print("  %-14s %12s %12s %12s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, m in bounds.items():
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok (< bound/3)"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                worst = 1
            print("  %-14s %12.4f %12.4f %12.4f %7.1f%% %6.2f  %s %s" %
                  (name, med, q1, q3, 100 * spread, m["bound"], verdict, m["unit"]))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", dest="workload_list", action="append",
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode)
    if args.steady:
        sys.exit(steady(args, binary))
    if not args.workload_list or len(args.workload_list) != 1 or args.seed is None \
            or args.seconds is None or args.trace is None:
        fail("one --workload, --seed, --seconds and --trace are required")
    code, result = run_once(binary, args.workload_list[0], args.seed, args.seconds, args.trace)
    if result is None:
        fail("no result line (exit %d)" % code, code or 5)
    check_names(result, args.trace == 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
