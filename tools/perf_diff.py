#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts between two runs and flag regressions.

Usage: perf_diff.py <baseline-dir> <current-dir> [--threshold=0.20]
           [--fail-keys=fig10,throughput,restart] [--fail-threshold=0.35]
       perf_diff.py --self-test

Both directories hold the machine-readable reports the bench binaries
emit via --json= (bench/harness.h JsonReport: {"bench": ..., "rows":
[{...}]}). Rows are matched by their identity fields (every
string-valued field plus well-known config integers such as "threads"),
then metric fields are compared:

  * throughput metrics (field name containing "per_sec", "qps" or
    "throughput"): a drop past the threshold (default 20%) is flagged;
    a zero or negative value against a positive baseline counts as a
    100% drop;
  * latency metrics (field name ending in "_ms" or "_time"): a rise
    past threshold + 5 points is flagged.

Findings are printed as GitHub "::warning::" annotations and the exit
code stays 0 — timing jitter on a noisy CI runner must not block a
merge — with one escalation: reports named in --fail-keys (matched
against BENCH_<key>.json) FAIL the diff when a row that exists in both
runs regresses past --fail-threshold (default 35%). Only stable,
matched rows can fail; rows with no baseline counterpart (a new sweep
axis, a changed parameter) are always warn-only, so adding or
reshaping a bench never breaks CI. Baseline rows the current run no
longer produces are listed as "row gone (baseline only)", also
warn-only. Missing baselines (first run on a branch) are reported and
skipped. --strict keeps its old meaning: any
warning fails.

--self-test runs the comparison logic against built-in fixtures and
exits non-zero on any disagreement; CI runs it so a refactor of this
script cannot silently stop catching regressions.
"""

import glob
import json
import os
import sys

# Integer config fields that identify a row (as opposed to measured
# metrics): pool sizes, the BENCH_net client/pipelining sweep axes, and
# the BENCH_restart heap-vs-mmap flag.
KEY_INT_FIELDS = {
    "threads",
    "clients",
    "pipeline",
    "requests",
    "mmap",
}
THROUGHPUT_MARKERS = ("per_sec", "qps", "throughput")
TIME_SUFFIXES = ("_ms", "_time")


def row_key(row):
    parts = []
    for key, value in sorted(row.items()):
        if isinstance(value, str) or key in KEY_INT_FIELDS:
            parts.append((key, value))
    return tuple(parts)


def index_rows(report):
    rows = {}
    for row in report.get("rows", []):
        key = row_key(row)
        # Preserve duplicates (repeated sweeps) by occurrence index.
        occurrence = 0
        while (key, occurrence) in rows:
            occurrence += 1
        rows[(key, occurrence)] = row
    return rows


def is_throughput(field):
    return any(marker in field for marker in THROUGHPUT_MARKERS)


def is_time(field):
    return field.endswith(TIME_SUFFIXES)


def row_label(name, key):
    return ", ".join(f"{k}={v}" for k, v in key[0]) or name


def regressions(name, baseline, current, threshold):
    """Yields (label, field, old, new, drop_fraction) for every matched
    row whose metric regressed past `threshold`. New rows (no baseline
    key) are printed and skipped — never a regression."""
    found = []
    base_rows = index_rows(baseline)
    for key, row in index_rows(current).items():
        label = row_label(name, key)
        base = base_rows.get(key)
        if base is None:
            # A row key the baseline run never produced — a new sweep
            # axis or bench variant (e.g. a fresh "clients" column),
            # not a regression. Note it and move on
            # so newly added benches never fail the diff.
            print(f"perf-diff: {name}: new row (no baseline): {label}")
            continue
        for field, value in row.items():
            old = base.get(field)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not isinstance(old, (int, float))
                or old <= 0
            ):
                continue
            if is_throughput(field) and value < old * (1.0 - threshold):
                # A collapsed (zero or negative) throughput is a total
                # loss, not a value to skip.
                drop = 1.0 if value <= 0 else 1 - value / old
                found.append((label, field, old, value, drop))
            elif (
                is_time(field)
                and value > 0
                and value > old * (1.0 + threshold + 0.05)
            ):
                found.append((label, field, old, value, value / old - 1))
    return found


def gone_rows(name, baseline, current):
    """Labels of baseline rows with no counterpart in `current` (a
    dropped bench variant or sweep value) — warn-only, never a
    regression, but never silent either."""
    current_rows = index_rows(current)
    return [
        row_label(name, key)
        for key in index_rows(baseline)
        if key not in current_rows
    ]


def describe(name, regression):
    label, field, old, value, fraction = regression
    verb = "fell" if is_throughput(field) else "rose"
    return (
        f"{name}: {label}: {field} {verb} {100 * fraction:.0f}% "
        f"({old:.6g} -> {value:.6g})"
    )


def fail_key_of(name, fail_keys):
    stem = os.path.basename(name)
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    return stem if stem in fail_keys else None


def self_test():
    baseline = {
        "bench": "t",
        "rows": [
            {"threads": 2, "queries_per_sec": 100.0, "p99_ms": 10.0},
            {"threads": 4, "queries_per_sec": 200.0, "p99_ms": 8.0},
        ],
    }
    checks = []

    def check(what, condition):
        checks.append((what, condition))
        print(f"perf-diff self-test: {'ok' if condition else 'FAIL'}: {what}")

    # Identical runs: clean.
    checks_found = regressions("t", baseline, baseline, 0.20)
    check("identical runs produce no findings", checks_found == [])

    # A matched row past the threshold is found, on the right row.
    dropped = json.loads(json.dumps(baseline))
    dropped["rows"][1]["queries_per_sec"] = 100.0  # -50%
    found = regressions("t", baseline, dropped, 0.20)
    check("50% throughput drop on threads=4 is found",
          len(found) == 1 and "threads=4" in found[0][0])
    check("drop fraction is 0.5",
          len(found) == 1 and abs(found[0][4] - 0.5) < 1e-9)

    # Latency gets the +5pt grace: +22% passes at 0.20, +40% fails.
    slower = json.loads(json.dumps(baseline))
    slower["rows"][0]["p99_ms"] = 12.2
    check("latency +22% within grace produces no finding",
          regressions("t", baseline, slower, 0.20) == [])
    slower["rows"][0]["p99_ms"] = 14.0
    check("latency +40% is found",
          len(regressions("t", baseline, slower, 0.20)) == 1)

    # A drop below the fail threshold warns but does not fail.
    mild = json.loads(json.dumps(baseline))
    mild["rows"][1]["queries_per_sec"] = 140.0  # -30%
    check("30% drop found at 0.20 but not at 0.35",
          len(regressions("t", baseline, mild, 0.20)) == 1
          and regressions("t", baseline, mild, 0.35) == [])

    # A row with a changed key column matches nothing: warn-only path.
    rekeyed = json.loads(json.dumps(dropped))
    rekeyed["rows"][1]["threads"] = 8
    check("param-changed row is skipped, not a regression",
          regressions("t", baseline, rekeyed, 0.20) == [])
    check("param-changed row leaves its baseline row gone",
          gone_rows("t", baseline, rekeyed) == ["threads=4"])
    check("identical runs leave no row gone",
          gone_rows("t", baseline, baseline) == [])

    # A collapsed throughput is a 100% drop, past any fail threshold.
    for collapsed in (0, -1.0):
        zeroed = json.loads(json.dumps(baseline))
        zeroed["rows"][0]["queries_per_sec"] = collapsed
        found = regressions("t", baseline, zeroed, 0.35)
        check(f"throughput {collapsed} against 100 is a 100% drop",
              len(found) == 1 and "threads=2" in found[0][0]
              and found[0][4] == 1.0)

    # Fail-key routing: only the enrolled artifact names escalate.
    keys = {"fig10", "throughput", "restart"}
    check("BENCH_fig10.json routes to fail key",
          fail_key_of("BENCH_fig10.json", keys) == "fig10")
    check("BENCH_cluster.json stays warn-only",
          fail_key_of("BENCH_cluster.json", keys) is None)

    failed = [what for what, condition in checks if not condition]
    if failed:
        print(f"perf-diff self-test: {len(failed)} check(s) failed",
              file=sys.stderr)
        return 1
    print(f"perf-diff self-test: all {len(checks)} checks passed")
    return 0


def main(argv):
    if "--self-test" in argv[1:]:
        return self_test()
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_dir, current_dir = args
    threshold = 0.20
    fail_threshold = 0.35
    fail_keys = set()
    strict = False
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--fail-threshold="):
            fail_threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--fail-keys="):
            fail_keys = {
                k for k in arg.split("=", 1)[1].split(",") if k
            }
        elif arg == "--strict":
            strict = True

    current_files = sorted(glob.glob(os.path.join(current_dir, "BENCH_*.json")))
    if not current_files:
        print(f"perf-diff: no BENCH_*.json in {current_dir}", file=sys.stderr)
        return 2

    all_warnings = []
    all_failures = []
    compared = 0
    for current_path in current_files:
        name = os.path.basename(current_path)
        baseline_path = os.path.join(baseline_dir, name)
        if not os.path.exists(baseline_path):
            print(f"perf-diff: no baseline for {name}, skipping")
            continue
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(current_path) as fh:
            current = json.load(fh)
        compared += 1
        for label in gone_rows(name, baseline, current):
            print(f"perf-diff: {name}: row gone (baseline only): {label}")
        found = regressions(name, baseline, current, threshold)
        all_warnings.extend(describe(name, r) for r in found)
        if fail_key_of(name, fail_keys) is not None:
            # Same matched rows, harder gate: these artifacts have
            # proven stable enough that a regression this deep is a
            # code change, not runner noise.
            hard = regressions(name, baseline, current, fail_threshold)
            all_failures.extend(describe(name, r) for r in hard)

    if compared == 0:
        print("perf-diff: no baselines found (first run?); nothing compared")
        return 0
    for warning in all_warnings:
        print(f"::warning title=bench regression::{warning}")
    for failure in all_failures:
        print(f"::error title=bench regression::{failure}")
    if all_failures:
        print(f"perf-diff: {len(all_failures)} hard regression(s) past "
              f"{100 * fail_threshold:.0f}% in enrolled reports")
        return 1
    if not all_warnings:
        print(f"perf-diff: {compared} report(s) compared, no regressions "
              f"past {100 * threshold:.0f}%")
        return 0
    print(f"perf-diff: {len(all_warnings)} possible regression(s) across "
          f"{compared} report(s) (warn-only)")
    return 1 if strict else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
