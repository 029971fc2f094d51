#!/usr/bin/env python3
"""Validate owl_cli's observability artifacts against its own stdout.

    check_observability.py trace.json manifest.json metrics.txt stdout.txt

Checks (ctest: owl_cli_observability; also usable standalone):
  - the trace is valid Chrome trace_event JSON whose spans cover every
    Fig. 3 stage plus the per-target envelope;
  - the --timings table in stdout is a view of that trace: one row per
    span name, each row's count equal to the trace's events of that name;
  - the manifest is valid owl-manifest-v1 JSON and each target's
    StageCounts match the numbers owl_cli printed for that target;
  - the metrics snapshot is non-empty, sorted, and its pipeline.* report
    counters equal the summed stdout numbers.
"""

import collections
import json
import re
import sys

FIG3_SPANS = {
    "target",
    "detection",
    "annotation",
    "race-verification",
    "vuln-analysis",
    "vuln-verification",
}

STDOUT_FIELDS = {
    "raw race reports": "raw_reports",
    "adhoc syncs annotated": "adhoc_syncs",
    "verifier eliminated": "verifier_eliminated",
    "verified races": "remaining",
    "vulnerability reports": "vulnerability_reports",
}


def fail(msg):
    sys.exit(f"check_observability.py: {msg}")


def parse_stdout(path):
    """target name -> {manifest_count_field: value}."""
    targets = {}
    current = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            head = re.match(r"^owl_cli: (.+)$", line.strip())
            if head:
                current = {}
                targets[head.group(1)] = current
                continue
            if current is None:
                continue
            body = re.match(r"^([a-z ]+?):\s+(\d+)$", line.strip())
            if body and body.group(1) in STDOUT_FIELDS:
                current[STDOUT_FIELDS[body.group(1)]] = int(body.group(2))
    return targets


def parse_timings(path):
    """--timings span name -> count, from the table owl_cli printed."""
    rows = {}
    in_table = False
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.startswith("--- per-stage timings"):
                in_table = True
                continue
            row = re.match(r"^  (\S+)\s+count\s+(\d+)\s+total", line)
            if in_table and row:
                if row.group(1) in rows:
                    fail(f"--timings repeats the row {row.group(1)}")
                rows[row.group(1)] = int(row.group(2))
    return rows


def main():
    if len(sys.argv) != 5:
        fail(__doc__.strip().splitlines()[2].strip())
    trace_path, manifest_path, metrics_path, stdout_path = sys.argv[1:5]

    # --- trace ---
    with open(trace_path, "r", encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace has no traceEvents")
    for event in events:
        if event.get("ph") != "X" or "ts" not in event or "dur" not in event:
            fail(f"malformed trace event: {event}")
    missing = FIG3_SPANS - {e["name"] for e in events}
    if missing:
        fail(f"trace missing Fig. 3 spans: {sorted(missing)}")

    # --- --timings vs trace ---
    timings = parse_timings(stdout_path)
    if not timings:
        fail("no --timings rows found in stdout")
    span_counts = dict(collections.Counter(e["name"] for e in events))
    if timings != span_counts:
        fail(
            f"--timings rows {timings} disagree with the trace's span "
            f"counts {span_counts}"
        )

    # --- manifest vs stdout ---
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("schema") != "owl-manifest-v1":
        fail(f"unexpected manifest schema: {manifest.get('schema')}")
    printed = parse_stdout(stdout_path)
    if not printed:
        fail("no per-target summaries found in stdout")
    manifest_targets = {t["name"]: t for t in manifest.get("targets", [])}
    if set(printed) != set(manifest_targets):
        fail(
            f"target sets differ: stdout {sorted(printed)} vs "
            f"manifest {sorted(manifest_targets)}"
        )
    for name, expect in printed.items():
        counts = manifest_targets[name].get("counts", {})
        for field, value in expect.items():
            if counts.get(field) != value:
                fail(
                    f"{name}: manifest {field}={counts.get(field)} but "
                    f"stdout printed {value}"
                )

    # --- metrics ---
    with open(metrics_path, "r", encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line]
    if not lines:
        fail("metrics snapshot is empty")
    names = [line.split()[1] for line in lines]
    if names != sorted(names):
        fail("metrics snapshot is not sorted by name")
    counters = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "counter":
            counters[parts[1]] = int(parts[3])
    for metric, field in [
        ("pipeline.reports.raw", "raw_reports"),
        ("pipeline.adhoc_syncs", "adhoc_syncs"),
        ("pipeline.reports.verifier_eliminated", "verifier_eliminated"),
        ("pipeline.reports.verified", "remaining"),
        ("pipeline.vulnerability_reports", "vulnerability_reports"),
    ]:
        total = sum(t.get(field, 0) for t in printed.values())
        if counters.get(metric) != total:
            fail(
                f"metric {metric}={counters.get(metric)} but stdout sums "
                f"to {total}"
            )
    if counters.get("pipeline.targets") != len(printed):
        fail(
            f"metric pipeline.targets={counters.get('pipeline.targets')} "
            f"but stdout shows {len(printed)} targets"
        )

    print(
        "check_observability.py: trace/timings/manifest/metrics agree with "
        "stdout"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
