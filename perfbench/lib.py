"""Pure helpers of the OWL benchmark: metric tables, statistics, the serve
request stream and span attribution. run.py does the I/O; everything here is
a function of its arguments, so test_lib.py can check it without a build.
"""

import collections
import json
import math
import random

# Requests in one closed-loop pass of serve-mixed.
SERVE_REQUESTS = 2000
# Share of serve requests that repeat an earlier (module, options) pair.
SERVE_REPEAT_SHARE = 0.5
# Schedule seeds a fresh serve request draws from.
SERVE_SEED_RANGE = 1000
# setup_s is the median of many set-ups spread over the run. A set-up takes
# milliseconds and its time depends on the process it lands in, so the
# sweeps start SETUPS_PER_PASS fresh set-up-only driver processes before
# each pass, and serve spawns SETUPS_PER_TRIAL daemons before each trial,
# each stopped as soon as it listens.
SETUPS_PER_PASS = 8
SETUPS_PER_TRIAL = 3
# serve's dump_s reads every distinct result back this many times per trial
# and keeps the median round, so that a short burst on the host does not
# move the trial's figure.
DUMP_ROUNDS = 3

# Every workload run.py runs, in BENCHMARK.json's order.
WORKLOADS = ("sweep-paper", "sweep-extended", "serve-mixed")

# name -> unit. Every workload prints all of them (see README.md for what
# each means on a sweep and on serve).
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "dump_s": "s",
    "peak_rss_mb": "MB",
    "cold_p50_ms": "ms",
}

PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.instructions": "count",
    "ir.parse_s": "s",
    "ir.verify_s": "s",
    "ir.bytes_parsed": "bytes",
    "analysis.static_s": "s",
    "analysis.value_flow_s": "s",
    "analysis.prescreen_prunable": "count",
    "analysis.prescreen_pruned_frac": "ratio",
    "race.detect_s": "s",
    "race.schedules": "count",
    "race.accesses": "count",
    "race.fast_path_frac": "ratio",
    "race.raw_reports": "count",
    "sync.annotate_s": "s",
    "sync.adhoc_syncs": "count",
    "sync.reports_after": "count",
    "predict.analyze_s": "s",
    "predict.candidates": "count",
    "predict.pruned_frac": "ratio",
    "predict.closure_iterations": "count",
    "verify.race_s": "s",
    "verify.race_reports": "count",
    "verify.race_attempts": "count",
    "verify.race_verified_per_attempt": "ratio",
    "verify.race_livelocked": "count",
    "verify.race_eliminated": "count",
    "verify.race_remaining": "count",
    "verify.vuln_s": "s",
    "verify.vuln_sessions": "count",
    "verify.vuln_attempts": "count",
    "verify.vuln_reached_frac": "ratio",
    "verify.vuln_attacks": "count",
    "vuln.analysis_s": "s",
    "vuln.reports_analyzed": "count",
    "vuln.exploits": "count",
    "checkers.run_s": "s",
    "checkers.findings": "count",
    "repair.run_s": "s",
    "repair.candidates_tried": "count",
    "repair.repaired_frac": "ratio",
    "core.pipeline_self_s": "s",
    "core.render_s": "s",
    "core.render_bytes": "bytes",
    "core.serialize_s": "s",
    "core.serialize_bytes": "bytes",
    "core.retries": "count",
    "core.degraded_targets": "count",
    "core.attacks_found": "count",
    "serve.protocol_s": "s",
    "serve.exec_s": "s",
    "serve.cache_load_s": "s",
    "serve.cache_store_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.hit_frac": "ratio",
    "serve.rejected": "count",
    # Client-side figures of the closed loop (see client_figures()).
    "serve.cold_n": "count",
    "serve.warm_n": "count",
    "serve.cold_p50_ms": "ms",
    "serve.warm_p50_ms": "ms",
    "serve.cold_p99_ms": "ms",
    "serve.warm_p99_ms": "ms",
    "serve.req_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# Span name -> the per-layer metric its self time is charged to. Spans the
# program or a later benchmark adds under another name are charged to their
# nearest named ancestor's metric.
SPAN_LAYER = {
    "bench.build": "workloads.build_s",
    "bench.verify": "ir.verify_s",
    "bench.parse": "ir.parse_s",
    "static-analysis": "analysis.static_s",
    "value-flow": "analysis.value_flow_s",
    "detection": "race.detect_s",
    "detect-schedule": "race.detect_s",
    "annotation": "sync.annotate_s",
    "predict": "predict.analyze_s",
    "race-verification": "verify.race_s",
    "race-verify-report": "verify.race_s",
    "vuln-verification": "verify.vuln_s",
    "vuln-verify-session": "verify.vuln_s",
    "vuln-analysis": "vuln.analysis_s",
    "vuln-analyze-report": "vuln.analysis_s",
    "checkers": "checkers.run_s",
    "repair": "repair.run_s",
    "target": "core.pipeline_self_s",
    "bench.render": "core.render_s",
    "bench.serialize": "core.serialize_s",
    "bench.request": "serve.protocol_s",
    "bench.protocol": "serve.protocol_s",
    "bench.cache_load": "serve.cache_load_s",
    "bench.cache_store": "serve.cache_store_s",
    "bench.exec": "serve.exec_s",
}

# Spans that bracket one unit of work: their self time is what no stage span
# claims (the pipeline's own code, the gaps between a request's steps), so
# trace.coverage_frac does not count it as attributed.
RESIDUAL_SPANS = ("target", "bench.request")

# Per-layer counts summed from the support::metrics() snapshot taken after
# each sweep target or executed serve request: metric -> counter name.
COUNTER_SUMS = {
    "analysis.prescreen_prunable": "prescreen.prunable_instructions",
    "race.schedules": "pipeline.detection_schedules",
    "race.accesses": "detector.accesses",
    "race.raw_reports": "pipeline.reports.raw",
    "sync.adhoc_syncs": "pipeline.adhoc_syncs",
    "sync.reports_after": "pipeline.reports.after_annotation",
    "predict.candidates": "predict.candidates",
    "predict.closure_iterations": "predict.closure_iterations",
    "verify.race_reports": "race_verifier.reports",
    "verify.race_attempts": "race_verifier.attempts",
    "verify.race_livelocked": "race_verifier.livelocked",
    "verify.race_eliminated": "pipeline.reports.verifier_eliminated",
    "verify.race_remaining": "pipeline.reports.verified",
    "verify.vuln_sessions": "vuln_verifier.sessions",
    "verify.vuln_attempts": "vuln_verifier.attempts",
    "verify.vuln_attacks": "pipeline.attacks.confirmed",
    "vuln.reports_analyzed": "vuln_analyzer.reports_analyzed",
    "vuln.exploits": "vuln_analyzer.exploits",
    "checkers.findings": "pipeline.checker_findings",
    "repair.candidates_tried": "repair.candidates_tried",
    "core.retries": "pipeline.retries",
}

# Request options of serve-mixed: name -> (request "options", owl_cli flags).
# "repair" needs a directory on the command line; REPAIR_DIR marks it.
REPAIR_DIR = "<repair-dir>"
OPTION_SETS = {
    "default": ({}, []),
    "checkers-sarif": ({"checkers": "all", "sarif": True},
                       ["--checkers", "all", "--sarif-out", "-"]),
    "predict": ({"predict": "on"}, ["--predict", "on"]),
    "vuln-flow": ({"vuln_flow": "on"}, ["--vuln-flow", "on"]),
    "prescreen": ({"prescreen": "on"}, ["--prescreen", "on"]),
    "repair": ({"repair": True}, ["--repair", REPAIR_DIR]),
}


def nearest_rank(values, percent):
    """The nearest-rank percentile: the smallest sample with at least
    `percent`% of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, percent):
    """Samples strictly above the nearest-rank `percent` of `count`."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def tail_reportable(count, percent=99):
    """A tail percentile is reported only with at least 10 samples beyond."""
    return count > 0 and samples_beyond(count, percent) >= 10


CLIENT_FIGURES = ("serve.cold_n", "serve.warm_n", "serve.cold_p50_ms",
                  "serve.warm_p50_ms", "serve.cold_p99_ms", "serve.warm_p99_ms",
                  "serve.req_per_s")


def client_figures(cold_ms, warm_ms, req_per_s):
    """The latency figures of serve's closed loop through the daemon with
    a cache, split by the reply's cache field. Only serve has a cache and
    enough requests for a p99, so these are per-layer metrics; a p99
    without 10 samples beyond it reads 0."""
    def p99(samples):
        return nearest_rank(samples, 99) if tail_reportable(len(samples)) else 0.0
    return dict(zip(CLIENT_FIGURES, (
        len(cold_ms), len(warm_ms),
        nearest_rank(cold_ms, 50) if cold_ms else 0.0,
        nearest_rank(warm_ms, 50) if warm_ms else 0.0,
        p99(cold_ms), p99(warm_ms), req_per_s)))


def request_stream(seed, count, modules):
    """The serve-mixed request stream: a pure function of (seed, count,
    modules). Each entry is (module, option set, schedule seed).

    A seeded share SERVE_REPEAT_SHARE of the positions, never the first,
    repeats a uniformly chosen earlier triple. The other positions are fresh
    triples that go through every (module, option set) combination in
    seeded rounds, each with a seeded schedule seed, so that every seed asks
    for the same mix of modules and options."""
    rng = random.Random(f"owl-perfbench-serve-{seed}")
    combos = [(m, o) for m in sorted(modules) for o in sorted(OPTION_SETS)]
    repeats = int(count * SERVE_REPEAT_SHARE)
    fresh_count = count - repeats
    repeat_at = [True] * repeats + [False] * (fresh_count - 1)
    rng.shuffle(repeat_at)
    fresh = []
    while len(fresh) < fresh_count:
        rng.shuffle(combos)
        fresh += combos
    seen = []
    taken = set()
    stream = []
    for repeat in [False] + repeat_at:
        if repeat:
            stream.append(seen[rng.randrange(len(seen))])
            continue
        module, option_set = fresh[len(seen)]
        triple = (module, option_set, rng.randint(1, SERVE_SEED_RANGE))
        while triple in taken:
            triple = (module, option_set, rng.randint(1, SERVE_SEED_RANGE))
        seen.append(triple)
        taken.add(triple)
        stream.append(triple)
    return stream


def distinct_pairs(stream):
    """Distinct (module, option set, seed) triples in first-seen order."""
    return list(dict.fromkeys(stream))


def request_line(request_id, module_path, option_set, seed):
    options = dict(OPTION_SETS[option_set][0])
    options["seed"] = seed
    return json.dumps({"id": request_id, "module_path": module_path,
                       "options": options}, sort_keys=True)


def cli_args(module_path, option_set, seed, repair_dir):
    """owl_cli flags that answer the same as request_line()'s options."""
    flags = [repair_dir if f == REPAIR_DIR else f
             for f in OPTION_SETS[option_set][1]]
    return [module_path, "--jobs", "1", "--seed", str(seed)] + flags


def self_times(spans):
    """Self seconds per layer metric, plus the attributed self seconds in the
    subtrees of each root span name: ({metric: s}, {root name: s}).

    `spans` are [name, tid, depth, start_ns, duration_ns], depth being the
    nesting depth on its thread when it opened. A span's self time is its
    duration minus its direct children's; a span whose name has no layer is
    charged to its nearest named ancestor. Attributed self time is that of
    spans with a layer of their own, other than RESIDUAL_SPANS."""
    per_layer = {}
    per_root = {}
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span[1], []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[3], s[2]))
        stack = []  # [span, children_ns, layer, root]

        def close(entry):
            span, children_ns, layer, root = entry
            own = (span[4] - children_ns) / 1e9
            if layer is not None:
                per_layer[layer] = per_layer.get(layer, 0.0) + own
            attributed = (span[0] in SPAN_LAYER
                          and span[0] not in RESIDUAL_SPANS)
            per_root[root] = per_root.get(root, 0.0) + (own if attributed
                                                         else 0.0)

        for span in thread_spans:
            while stack and stack[-1][0][2] >= span[2]:
                close(stack.pop())
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += span[4]
            layer = SPAN_LAYER.get(span[0], parent[2] if parent else None)
            root = parent[3] if parent else span[0]
            stack.append([span, 0, layer, root])
        while stack:
            close(stack.pop())
    return per_layer, per_root


def counter_totals(snapshots):
    """Sums every counter over the snapshots (one per target or executed
    request; None for none)."""
    totals = collections.Counter()
    for snap in snapshots:
        if snap is None:
            continue
        for kind in ("behavioral", "advisory"):
            for name, value in snap.get(kind, {}).items():
                if isinstance(value, int):  # histograms are objects
                    totals[name] += value
    return totals


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, snapshots, repair_runs):
    """The span- and counter-derived per-layer metrics of one traced unit of
    work (the run-specific ones — sizes, serve ratios, overhead — are filled
    in by the caller). `repair_runs` is the number of targets or executed
    requests that asked for repair: a snapshot alone cannot tell, because
    the registry keeps reporting repair.repaired at 0 once any request ran
    repair. Also returns the attributed self seconds per root."""
    metrics = {name: 0.0 for name in PER_LAYER}
    per_layer, per_root = self_times(spans)
    metrics.update(per_layer)
    totals = counter_totals(snapshots)
    for metric, counter in COUNTER_SUMS.items():
        metrics[metric] = totals[counter]
    metrics["race.fast_path_frac"] = ratio(
        totals["detector.epoch_read_hits"] + totals["detector.epoch_write_hits"],
        totals["detector.accesses"])
    metrics["analysis.prescreen_pruned_frac"] = ratio(
        totals["prescreen.pruned_accesses"], totals["detector.accesses"])
    metrics["predict.pruned_frac"] = ratio(
        totals["predict.schedules_avoided"],
        totals["predict.schedules_avoided"] + totals["race_verifier.attempts"])
    metrics["verify.race_verified_per_attempt"] = ratio(
        totals["race_verifier.verified"], totals["race_verifier.attempts"])
    metrics["verify.vuln_reached_frac"] = ratio(
        totals["vuln_verifier.site_reached"], totals["vuln_verifier.sessions"])
    metrics["repair.repaired_frac"] = ratio(totals["repair.repaired"],
                                            repair_runs)
    return metrics, per_root


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last output line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })
