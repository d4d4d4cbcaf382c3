#!/usr/bin/env python3
"""Cross-PR bench diff: compare two sets of BENCH_*.json reports.

Usage:
    diff_bench.py BASELINE_DIR CURRENT_DIR [--threshold 0.15]

Every bench binary writes BENCH_<name>.json as a flat array of row
objects (see bench/bench_common.hpp). Rows are matched across the two
directories by their configuration fields (all string fields plus the
workload-shape numbers: n, m, k, threads, eps, ...) and two metric kinds
are compared:

* time fields ("seconds" / "_ms" metrics): lower is better — a ratio
  above 1 + threshold is a regression;
* speedup fields ("speedup" in the name, e.g. speedup_vs_1t): HIGHER is
  better — a ratio below 1 - threshold is a regression. This is what
  guards the persistent-team round engine's whole point: multi-threaded
  runs must not quietly fall back below the 1-thread wall time;
* rate fields ("_rate" suffix, e.g. BENCH_server.json's shed_rate):
  fractions in [0, 1] where lower is better. Compared by absolute
  difference rather than ratio, since healthy baselines are often
  exactly 0 (below the saturation knee) and any ratio would divide by
  zero — an increase of more than `threshold` percentage points is a
  regression.

The report ends with a 1-thread-vs-4-thread table built from the current
reports (every row pair differing only in `threads`), so the step summary
shows the scaling picture at a glance.

Exit code 0 when no metric regressed by more than the threshold,
2 when at least one did (callers are expected to fail-soft: CI surfaces
the summary without failing the build, since shared-runner wall times are
noisy). Missing baselines — first run, renamed benches — are reported and
never fail.
"""

import argparse
import json
import os
import sys

# Fields that identify a row (its configuration), as opposed to measuring
# it. String fields are always part of the identity.
KEY_FIELDS = {
    "bench", "workload", "algorithm", "n", "m", "k", "threads", "eps",
    "beta", "weight_ratio", "queries", "pairs", "seed", "updates",
    "batch_edges", "updaters", "checkpoint_every",
}
# Provenance recorded on a row but never part of its identity: rows from
# two commits must still match each other.
PROVENANCE_FIELDS = {"commit"}


def is_time_field(name: str) -> bool:
    return ("seconds" in name or name.endswith("_ms") or "_ms_" in name) \
        and "speedup" not in name


def is_speedup_field(name: str) -> bool:
    return "speedup" in name


def is_rate_field(name: str) -> bool:
    return name.endswith("_rate")


def row_key(row: dict):
    parts = []
    for key in sorted(row):
        if key in PROVENANCE_FIELDS:
            continue
        if key in KEY_FIELDS or isinstance(row[key], str):
            parts.append((key, row[key]))
    return tuple(parts)


def load_reports(directory: str) -> dict:
    """{file name: {row key: row}} for every BENCH_*.json under directory."""
    reports = {}
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            path = os.path.join(root, name)
            try:
                with open(path) as f:
                    rows = json.load(f)
            except (OSError, json.JSONDecodeError) as err:
                print(f"warning: skipping unreadable {path}: {err}")
                continue
            table = reports.setdefault(name, {})
            for row in rows:
                table[row_key(row)] = row
    return reports


def fmt_key(key) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def thread_scaling_table(reports: dict, low: int = 1, high: int = 4) -> list:
    """Lines of a `low`t-vs-`high`t wall-time table from one report set.

    Rows are paired by their identity key minus `threads`; pairs that have
    both thread counts contribute one line with the measured speedup.
    """
    lines = []
    for name, rows in sorted(reports.items()):
        by_config = {}
        for key, row in rows.items():
            threads = row.get("threads")
            if not isinstance(threads, int) or "seconds" not in row:
                continue
            config = tuple((k, v) for k, v in key if k != "threads")
            by_config.setdefault(config, {})[threads] = row
        for config, by_threads in sorted(by_config.items()):
            if low not in by_threads or high not in by_threads:
                continue
            t_low = by_threads[low]["seconds"]
            t_high = by_threads[high]["seconds"]
            if not (isinstance(t_low, (int, float)) and t_low > 0 and
                    isinstance(t_high, (int, float)) and t_high > 0):
                continue
            speedup = t_low / t_high
            marker = "" if speedup >= 1.0 else "  <-- slower than 1 thread"
            lines.append(f"  {name} [{fmt_key(config)}] "
                         f"{low}t={t_low:.4g}s {high}t={t_high:.4g}s "
                         f"speedup={speedup:.2f}{marker}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that counts as a regression")
    args = parser.parse_args()

    base = load_reports(args.baseline)
    cur = load_reports(args.current)
    if not base:
        print(f"no baseline BENCH_*.json under {args.baseline} — "
              f"recording seed: this run's reports become the baseline "
              f"for the next diff")
        return 0
    if not cur:
        print(f"no current BENCH_*.json under {args.current} — nothing to diff")
        return 0

    regressions = []
    improvements = []
    compared = 0
    for name, cur_rows in sorted(cur.items()):
        base_rows = base.get(name)
        if base_rows is None:
            print(f"{name}: new report (no baseline)")
            continue
        for key, row in cur_rows.items():
            old = base_rows.get(key)
            if old is None:
                continue
            for field, value in row.items():
                time_metric = is_time_field(field)
                speedup_metric = is_speedup_field(field)
                rate_metric = is_rate_field(field)
                if not (time_metric or speedup_metric or rate_metric):
                    continue
                old_value = old.get(field)
                if not isinstance(value, (int, float)):
                    continue
                if rate_metric:
                    # Absolute comparison: a 0 -> 0.3 shed-rate jump is
                    # exactly the regression this exists to catch, and
                    # has no finite ratio.
                    if not isinstance(old_value, (int, float)):
                        continue
                    compared += 1
                    delta = value - old_value
                    line = (f"{name} [{fmt_key(key)}] {field}: "
                            f"{old_value:.4f} -> {value:.4f} "
                            f"({delta * 100:+.1f}pp)")
                    if delta > args.threshold:
                        regressions.append(line)
                    elif delta < -args.threshold:
                        improvements.append(line)
                    continue
                if not isinstance(old_value, (int, float)) or old_value <= 0:
                    continue
                compared += 1
                ratio = value / old_value
                line = (f"{name} [{fmt_key(key)}] {field}: "
                        f"{old_value:.6g} -> {value:.6g} "
                        f"({(ratio - 1) * 100:+.1f}%)")
                # Time: lower is better. Speedup: higher is better.
                worse = ratio > 1.0 + args.threshold if time_metric \
                    else ratio < 1.0 - args.threshold
                better = ratio < 1.0 - args.threshold if time_metric \
                    else ratio > 1.0 + args.threshold
                if worse:
                    regressions.append(line)
                elif better:
                    improvements.append(line)

    print(f"compared {compared} time/speedup metrics "
          f"(threshold {args.threshold:.0%})")
    if improvements:
        print(f"\n{len(improvements)} improvement(s):")
        for line in improvements:
            print(f"  + {line}")
    status = 0
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.threshold:.0%}:")
        for line in regressions:
            print(f"  - {line}")
        status = 2
    else:
        print("no regressions beyond threshold")

    scaling = thread_scaling_table(cur)
    if scaling:
        print("\n1-thread vs 4-thread wall time (current run):")
        for line in scaling:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
