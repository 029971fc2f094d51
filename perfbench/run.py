#!/usr/bin/env python3
"""The OWL benchmark: one named workload at one seed, end to end.

    python3 perfbench/run.py --workload sweep-paper|sweep-extended|serve-mixed
                             --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload for about S seconds, checks every output, and prints one JSON
object as its last line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run. See perfbench/README.md.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lib  # noqa: E402

# No run may outlast the 180 s limit: stop starting passes after this.
LAST_START_S = 120.0
PASS_TIMEOUT_S = 150


class Failure(Exception):
    """The benchmark cannot run here (missing sources, broken build)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build(root):
    """Configures and builds the benchmark package; returns binary paths."""
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                     "examples/ir", "perfbench/CMakeLists.txt"):
        if not (root / required).exists():
            raise Failure(f"{required} is missing: run from a checkout of "
                          "the repository root")
    target_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (root / target_root / "perfbench").resolve()
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir)]
    compile_ = ["cmake", "--build", str(build_dir), "-j4", "--target",
                "perfbench_driver", "owl_cli", "owl_served"]

    def attempt():
        for command in ([] if (build_dir / "CMakeCache.txt").exists()
                        else [configure]) + [compile_]:
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                return done.stdout
        return None

    error = attempt()
    if error is not None and (build_dir / "CMakeCache.txt").exists():
        # A cache configured for another source path cannot be reused.
        shutil.rmtree(build_dir)
        error = attempt()
    if error is not None:
        sys.stderr.write(error[-4000:])
        raise Failure("build failed")
    return {
        "driver": build_dir / "perfbench_driver",
        "cli": build_dir / "owl-tools" / "owl_cli",
        "served": build_dir / "owl-tools" / "owl_served",
        "build_dir": build_dir,
    }


def source_digest(root):
    """SHA-256 over the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


# --- shared ------------------------------------------------------------------

def run_json(command, cwd=None):
    """Runs a driver command; its parsed JSON output, or None on failure."""
    try:
        done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(map(str, command[:3]))}")
        return None
    if done.returncode != 0:
        log(f"exit {done.returncode}: {' '.join(map(str, command[:3]))}\n"
            f"{done.stderr[-2000:]}")
        return None
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        log("driver printed no JSON")
        return None


def keep_going(start, seconds, units, last_duration):
    """Measures for about `seconds`: at least one unit, and another only if
    it would end less than half a unit past `seconds` (never past
    LAST_START_S)."""
    elapsed = time.perf_counter() - start
    if units == 0:
        return True
    return (elapsed + last_duration / 2 < seconds
            and elapsed + last_duration < LAST_START_S)


def alternating(number, first, second):
    """(first(), second()), called in swapped order when `number` is odd, so
    drift on the host does not always favour one side of a comparison."""
    if number % 2:
        later = second()
        return first(), later
    earlier = first()
    return earlier, second()


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def print_unit(kind, number, values):
    print(f"  {kind} {number}: " + " ".join(
        f"{name}={value:.6g}" for name, value in values.items()))


def print_metrics(title, values, units):
    print(f"--- {title} ---")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>14.6g} {unit}")


# --- sweeps ------------------------------------------------------------------

class SweepChecker:
    """Failure accounting and the determinism guard of the sweeps."""

    def __init__(self, record_path, record_key):
        self.attempted = 0
        self.failed = 0
        self.reference = None  # target -> (dump bytes, dump sha256)
        self.record_path = record_path
        self.record_key = record_key

    def check_pass(self, result):
        if result is None:
            self.attempted += 9
            self.failed += 9
            return
        digests = {}
        for target in result["targets"]:
            self.attempted += 1
            digests[target["name"]] = (target["dump_bytes"],
                                       target["dump_sha256"])
            problems = []
            if target["error"]:
                problems.append(target["error"])
            if target["driver_failure"]:
                problems.append("driver-stage failure")
            if target["attacks_found"] != target["known_attacks"]:
                problems.append(f"found {target['attacks_found']} of "
                                f"{target['known_attacks']} known attacks")
            if self.reference is not None and \
                    self.reference.get(target["name"]) != digests[target["name"]]:
                problems.append("dump differs from this run's first pass")
            if problems:
                self.failed += 1
                log(f"{target['name']}: {'; '.join(problems)}")
        if self.reference is None:
            self.reference = digests
            self.check_record(result)

    def check_record(self, result):
        """Dumps must repeat across runs of the same sources and seed."""
        records = {}
        if self.record_path.exists():
            try:
                records = json.loads(self.record_path.read_text())
            except json.JSONDecodeError:
                records = {}
        recorded = records.get(self.record_key)
        if recorded is None:
            records[self.record_key] = self.reference
            tmp = self.record_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
            tmp.replace(self.record_path)
            return
        for name, digest in self.reference.items():
            if list(digest) != list(recorded.get(name, [])):
                self.failed += 1
                log(f"{name}: dump differs from an earlier run at this seed")


def sweep_command(bins, config, seed, *flags):
    return [str(bins["driver"]), "sweep", "--config", config, "--seed",
            str(seed), *flags]


def pass_times(result):
    targets = result["targets"]
    return {
        "setup_s": result["build_s"] + result["verify_s"],
        "verdict_s": sum(t["run_s"] + t["render_s"] for t in targets),
        "dump_s": sum(t["serialize_s"] for t in targets),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_sweep(bins, workload, seed, seconds, trace, root):
    config = "paper" if workload == "sweep-paper" else "extended"
    checker = SweepChecker(
        bins["build_dir"] / "dump-digests.json",
        f"{workload}/seed={seed}/sources={source_digest(root)}")
    start = time.perf_counter()
    if trace:
        return traced_sweep(bins, config, seed, seconds, checker, start)

    setups = []
    passes = []
    cold_ms = []
    last = 0.0
    while keep_going(start, seconds, len(passes), last):
        began = time.perf_counter()
        for _ in range(lib.SETUPS_PER_PASS):
            setup = run_json(sweep_command(bins, config, seed, "--setup-only"))
            if setup is None:
                raise Failure("set-up process failed")
            setups.append(setup["build_s"] + setup["verify_s"])
        result = run_json(sweep_command(bins, config, seed))
        last = time.perf_counter() - began
        checker.check_pass(result)
        if result is None:
            break
        passes.append(pass_times(result))
        setups.append(passes[-1]["setup_s"])
        print_unit("pass", len(passes), passes[-1])
        cold_ms += [(t["run_s"] + t["render_s"]) * 1000.0
                    for t in result["targets"]]
    if not passes:
        return checker, None
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": median_of(passes, "verdict_s"),
        "dump_s": median_of(passes, "dump_s"),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "cold_p50_ms": lib.nearest_rank(cold_ms, 50),
    }
    print(f"workload {workload} seed {seed}: {len(passes)} passes, "
          f"{len(setups)} set-ups, {len(cold_ms)} target samples")
    for name, (size, sha) in checker.reference.items():
        print(f"  dump {name:18s} {size:>9d} B sha256 {sha}")
    print_metrics("end to end (median over passes)", values, lib.END_TO_END)
    return checker, values


def traced_sweep(bins, config, seed, seconds, checker, start):
    """Alternates an untraced and a traced pass, each in a fresh process."""
    rows = []
    last = 0.0
    traced = None
    while keep_going(start, seconds, len(rows), last):
        began = time.perf_counter()
        plain, traced = alternating(
            len(rows), lambda: run_json(sweep_command(bins, config, seed)),
            lambda: run_json(sweep_command(bins, config, seed, "--trace")))
        checker.check_pass(plain)
        checker.check_pass(traced)
        last = time.perf_counter() - began
        if plain is None or traced is None:
            break
        targets = traced["targets"]
        metrics, per_root = lib.layer_metrics(
            traced["spans"], [t["counters"] for t in targets], 0)
        plain_e2e = sum(pass_times(plain)[k] for k in ("verdict_s", "dump_s"))
        traced_e2e = sum(pass_times(traced)[k] for k in ("verdict_s", "dump_s"))
        metrics.update({
            "workloads.instructions": traced["instructions"],
            "core.render_bytes": sum(t["render_bytes"] for t in targets),
            "core.serialize_bytes": sum(t["dump_bytes"] for t in targets),
            "core.degraded_targets": sum(t["resilience"] != "ok"
                                         for t in targets),
            "core.attacks_found": sum(t["attacks_found"] for t in targets),
            "trace.overhead_frac": (traced_e2e - plain_e2e) / plain_e2e,
            "trace.coverage_frac": sum(per_root.get(name, 0.0) for name in (
                "target", "bench.render", "bench.serialize")) / traced_e2e,
        })
        rows.append(metrics)
    if not rows:
        return checker, None
    print("Table 3 rows of the last traced pass (work counts): "
          "R.R. A.S. R.V.E. R. exploits attacks found/known dump-bytes")
    for t in traced["targets"]:
        row = t["table3"]
        print(f"  table3 {t['name']:18s} {row['rr']:6d} {row['as']:4d} "
              f"{row['rve']:6d} {row['r']:5d} {row['exploits']:4d} "
              f"{row['attacks']:4d} {t['attacks_found']}/{t['known_attacks']} "
              f"{t['dump_bytes']}")
    values = {name: statistics.median(r[name] for r in rows)
              for name in lib.PER_LAYER}
    print_metrics(f"per layer (median over {len(rows)} traced passes)",
                  values, lib.PER_LAYER)
    return checker, values


# --- serve -------------------------------------------------------------------

class ServeChecker:
    """Failure accounting of serve-mixed: a request passes with status ok,
    the reference exit code, and output bytes equal to one-shot owl_cli."""

    def __init__(self, references):
        self.references = references  # pair -> (exit, output sha256)
        self.attempted = 0
        self.failed = 0

    def check(self, records, pairs, what, cache=None):
        """Checks one reply per pair; `cache`, if given, is the cache field
        every reply must carry."""
        self.attempted += len(pairs)
        if records is None:
            self.failed += len(pairs)
            return [False] * len(pairs)
        verdicts = []
        for record, pair in zip(records, pairs):
            expected_exit, expected_sha = self.references[pair]
            ok = (record["status"] == "ok" and record["exit"] == expected_exit
                  and record["output_sha256"] == expected_sha
                  and cache in (None, record["cache"]))
            if not ok:
                self.failed += 1
                log(f"{what} {pair}: {record}")
            verdicts.append(ok)
        return verdicts


def reference_outputs(bins, root, pairs, scratch):
    """One-shot owl_cli for every distinct pair (outside any timed window)."""
    repair_dir = scratch / "cli-repair"

    def one(pair):
        module, option_set, seed = pair
        command = [str(bins["cli"])] + lib.cli_args(
            str(root / "examples" / "ir" / module), option_set, seed,
            str(repair_dir))
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
        return pair, (done.returncode, hashlib.sha256(done.stdout).hexdigest())

    # At most 4 threads, like the load generator.
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        return dict(pool.map(one, pairs))


class Daemon:
    """A fresh owl_served with a journal and, unless told not to, a result
    cache."""

    def __init__(self, served, directory, cache=True):
        # Write back what earlier trials and the reference runs left dirty
        # first, so that neither this daemon's fsyncs nor background
        # write-back pay for it.
        os.sync()
        self.directory = directory
        directory.mkdir(parents=True)
        self.log = open(directory / "served.log", "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(served), "--socket", "owl.sock", "--journal", "journal"] +
            (["--cache-dir", "cache"] if cache else []),
            cwd=directory, stdout=subprocess.PIPE, stderr=self.log)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        self.setup_s = time.perf_counter() - began
        if b"listening" not in line:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
            raise Failure("owl_served did not start")

    def peak_rss_mb(self):
        """The daemon's peak resident set so far. Not wait4's ru_maxrss:
        exec keeps the parent's high-water mark, so that would report this
        process's own peak whenever it is the larger."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for owl_served")

    def stop(self):
        """SIGTERM (drain), then reap."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status = os.waitpid(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode != 0:
            raise Failure(f"owl_served exited {self.proc.returncode}")


def client(bins, daemon, requests_file):
    return run_json([str(bins["driver"]), "client", "--socket", "owl.sock",
                     "--requests", str(requests_file)], cwd=daemon.directory)


def run_serve(bins, seed, seconds, trace, root, scratch):
    modules = sorted(p.name for p in (root / "examples" / "ir").glob("*.mir"))
    stream = lib.request_stream(seed, lib.SERVE_REQUESTS, modules)
    distinct = lib.distinct_pairs(stream)

    def write(name, pairs, prefix):
        path = scratch / name
        path.write_text("".join(
            lib.request_line(f"{prefix}{i}", str(root / "examples" / "ir" / m),
                             option_set, s) + "\n"
            for i, (m, option_set, s) in enumerate(pairs)))
        return path

    requests_file = write("requests.jsonl", stream, "r")
    distinct_file = write("distinct.jsonl", distinct, "d")
    dump_file = write("dump.jsonl", distinct * lib.DUMP_ROUNDS, "d")
    checker = ServeChecker(reference_outputs(bins, root, distinct, scratch))
    print(f"workload serve-mixed seed {seed}: {len(stream)} requests, "
          f"{len(distinct)} distinct (module, options) pairs, "
          "4 connections, closed loop")
    start = time.perf_counter()
    if trace:
        return traced_serve(bins, stream, requests_file, checker, seconds,
                            scratch, start)

    setups = []
    trials = []
    executed_ms = []
    cold, warm = [], []
    last = 0.0
    # Trial directories stay until the run ends: deleting a thousand cache
    # entries between trials would queue disk work behind the next trial's
    # fsyncs.
    while keep_going(start, seconds, len(trials), last):
        began = time.perf_counter()
        trial = scratch / f"trial{len(trials)}"
        for number in range(lib.SETUPS_PER_TRIAL):
            daemon = Daemon(bins["served"], trial / f"setup{number}")
            daemon.stop()
            setups.append(daemon.setup_s)
        # Every distinct verdict from a daemon without a result cache: no
        # fsync on this path, so the figures follow the program rather than
        # the disk (README.md, "Why the serve verdicts come from a daemon
        # without a cache").
        uncached = Daemon(bins["served"], trial / "uncached", cache=False)
        try:
            batch = client(bins, uncached, distinct_file)
        finally:
            uncached.stop()
        # The mixed stream through a daemon with a cache and a journal.
        daemon = Daemon(bins["served"], trial / "cached")
        try:
            loop = client(bins, daemon, requests_file)
            rss_mb = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        # Every distinct result read back from that cache in process,
        # through the daemon's own calls, DUMP_ROUNDS times. Over the socket,
        # this all-hit path is mostly thread wake-ups, which follow the
        # host's load.
        fetch = run_json([str(bins["driver"]), "replay", "--requests",
                          str(dump_file), "--cache-dir",
                          str(trial / "cached" / "cache")])
        last = time.perf_counter() - began
        verdicts = checker.check(batch and batch["requests"], distinct,
                                 "verdict request")
        if batch is not None:
            executed_ms += [record["latency_s"] * 1000.0 for record, ok
                            in zip(batch["requests"], verdicts) if ok]
        split_latencies(loop, checker.check(loop and loop["requests"], stream,
                                            "request"), cold, warm)
        checker.check(fetch and fetch["requests"], distinct * lib.DUMP_ROUNDS,
                      "dump request", cache="hit")
        if batch is None or loop is None or fetch is None:
            break
        rounds = [fetch["requests"][i:i + len(distinct)]
                  for i in range(0, len(fetch["requests"]), len(distinct))]
        trials.append({"verdict_s": batch["wall_s"],
                       "dump_s": statistics.median(
                           sum(r["service_s"] for r in one) for one in rounds),
                       "peak_rss_mb": rss_mb,
                       "req_per_s": len(stream) / loop["wall_s"]})
        print_unit("trial", len(trials), trials[-1])
    if not trials or not executed_ms or not cold or not warm:
        return checker, None
    values = {name: median_of(trials, name)
              for name in ("verdict_s", "dump_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    values["cold_p50_ms"] = lib.nearest_rank(executed_ms, 50)
    print(f"  {len(trials)} trials (two fresh daemons each), "
          f"{len(setups)} set-ups")
    print_metrics("end to end (median over trials)", values, lib.END_TO_END)
    print_metrics("client figures of the cached daemon (per-layer metrics)",
                  lib.client_figures(cold, warm, median_of(trials, "req_per_s")),
                  {name: lib.PER_LAYER[name] for name in lib.CLIENT_FIGURES})
    return checker, values


def split_latencies(loop, verdicts, cold, warm):
    """Adds the correct replies' latencies (ms) to `cold` or `warm`."""
    if loop is None:
        return
    for record, ok in zip(loop["requests"], verdicts):
        if ok:
            (warm if record["cache"] == "hit" else cold).append(
                record["latency_s"] * 1000.0)


def traced_serve(bins, stream, requests_file, checker, seconds, scratch,
                 start):
    """Client pass through the daemon, then the same stream replayed in
    process untraced and traced; per-layer numbers from the traced replay."""
    rows = []
    cold, warm, req_per_s = [], [], []
    last = 0.0
    while keep_going(start, seconds, len(rows), last):
        began = time.perf_counter()
        trial = scratch / f"trace{len(rows)}"
        daemon = Daemon(bins["served"], trial / "daemon")
        try:
            loop = client(bins, daemon, requests_file)
        finally:
            daemon.stop()
        replays = alternating(len(rows), *(
            lambda kind=kind, flags=flags: run_json(
                [str(bins["driver"]), "replay", "--requests",
                 str(requests_file), "--cache-dir",
                 str(trial / f"cache-{kind}"), *flags])
            for kind, flags in (("plain", []), ("traced", ["--trace"]))))
        last = time.perf_counter() - began
        split_latencies(loop, checker.check(loop and loop["requests"], stream,
                                            "request"), cold, warm)
        for replay in replays:
            checker.check(replay and replay["requests"], stream, "replayed")
        plain, traced = replays
        if loop is None or plain is None or traced is None:
            break
        executed = [r for r in traced["requests"] if r["cache"] == "miss"]
        metrics, per_root = lib.layer_metrics(
            traced["spans"], [r["counters"] for r in executed],
            sum(r["repair"] for r in executed))
        plain_s = sum(r["service_s"] for r in plain["requests"])
        traced_s = sum(r["service_s"] for r in traced["requests"])
        answered = [r for r in loop["requests"] if r["status"] != "unanswered"]
        metrics.update({
            "ir.bytes_parsed": sum(r["bytes_parsed"] for r in executed),
            "core.render_bytes": sum(r["output_bytes"] for r in executed),
            "core.degraded_targets": sum(r["degraded"] for r in executed),
            "serve.queue_wait_ms": 1000.0 * sum(
                c["latency_s"] - p["service_s"]
                for c, p in zip(loop["requests"], plain["requests"])),
            "serve.hit_frac": lib.ratio(
                sum(r["cache"] == "hit" for r in answered), len(answered)),
            "serve.rejected": sum(r["status"] == "rejected" for r in answered),
            "trace.overhead_frac": (traced_s - plain_s) / plain_s,
            "trace.coverage_frac": per_root.get("bench.request", 0.0) /
            traced_s,
        })
        rows.append(metrics)
        req_per_s.append(len(stream) / loop["wall_s"])
    if not rows:
        return checker, None
    values = {name: statistics.median(r[name] for r in rows)
              for name in lib.PER_LAYER}
    values.update(lib.client_figures(cold, warm, statistics.median(req_per_s)))
    print_metrics(f"per layer (median over {len(rows)} traced trials)",
                  values, lib.PER_LAYER)
    return checker, values


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=lib.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    try:
        bins = build(root)
        scratch = bins["build_dir"].parent / "perfbench-runs" / \
            f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            if args.workload == "serve-mixed":
                checker, values = run_serve(bins, args.seed, args.seconds,
                                            args.trace, root, scratch)
            else:
                checker, values = run_sweep(bins, args.workload, args.seed,
                                            args.seconds, args.trace, root)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except Failure as failure:
        log(str(failure))
        return 2
    if values is None:
        log("no complete pass: nothing to report")
        return 3
    units = lib.PER_LAYER if args.trace else lib.END_TO_END
    print(f"seed {args.seed}: attempted {checker.attempted}, "
          f"failed {checker.failed}")
    print(lib.result_line(checker.failed == 0, checker.attempted,
                          checker.failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
