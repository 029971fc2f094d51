#!/usr/bin/env python3
"""End-to-end robustness and differential gate for owl_served.

    serve_check.py --served BIN --cli BIN --examples DIR [--quick] [--soak N]

Drives a real owl_served over its Unix-domain socket and proves the
service-mode claims (DESIGN.md §10):

  differential  every example x jobs, cold cache and warm cache: the
                response's "output" bytes and "exit" status are
                byte-identical to one-shot owl_cli, and the warm hit
                reproduces the cold miss (same bytes, same manifest_sha)
  options       every example x the non-default option sets the serve-mixed
                benchmark uses (checkers+SARIF, predict, vuln-flow,
                prescreen, repair), plus inline modules that fail to parse,
                lack an entry, or fail verification: exit status, output
                and error text all equal one-shot owl_cli's
  shed          overload answers structured rejections (queue_full,
                client_inflight_exceeded) with a retry hint — admitted
                requests still complete
  drain         SIGTERM mid-request: the in-flight response is still
                delivered, then the daemon exits 0
  corrupt       a bit-flipped cache entry is evicted and recomputed, never
                served; the recomputed bytes match owl_cli
  kill9         kill -9 inside the cache-write window: on restart the
                journal replays the stranded request into the cache and a
                retry is a warm hit with the same bytes
  soak          N pipelined analyze requests (default 1000) over 4
                concurrent connections, mixed jobs: every response
                byte-identical to owl_cli, hit/miss/store counters exact

--quick runs the ctest-sized subset (2 examples, jobs 1; one
example per option set; shed + drain + corrupt) and skips kill9 and the
soak.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def fail(msg):
    sys.exit(f"serve_check.py: FAIL: {msg}")


def check(cond, msg):
    if not cond:
        fail(msg)


class Daemon:
    """One owl_served process: spawn, wait for readiness, stop, autopsy."""

    def __init__(self, served, socket_path, *extra_flags):
        self.socket_path = socket_path
        self.proc = subprocess.Popen(
            [served, "--socket", socket_path, *extra_flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._stderr_lines = []
        self._stderr_thread = threading.Thread(
            target=self._drain_stderr, daemon=True
        )
        self._stderr_thread.start()
        deadline = time.monotonic() + 30
        while True:
            line = self.proc.stdout.readline()
            if "listening on" in line:
                break
            if not line or time.monotonic() > deadline:
                self.proc.kill()
                fail("daemon never printed its readiness line")

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self._stderr_lines.append(line)

    def stderr_text(self):
        self._stderr_thread.join(timeout=10)
        return "".join(self._stderr_lines)

    def sigterm_and_wait(self, timeout=60):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill9(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def expect_clean_exit(self, what):
        code = self.sigterm_and_wait()
        check(code == 0, f"{what}: daemon exited {code}, want 0")
        check(
            "drained, exiting" in self.stderr_text(),
            f"{what}: daemon exit without the drain message",
        )


class Conn:
    """One client connection. Responses may arrive out of order (the
    protocol says correlate by id), so undelivered ones park in a dict."""

    _counter = 0

    def __init__(self, socket_path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(socket_path)
        self.sock.settimeout(120)
        self.file = self.sock.makefile("r", encoding="utf-8")
        self.parked = {}

    def close(self):
        self.file.close()
        self.sock.close()

    def send(self, obj):
        if "id" not in obj:
            Conn._counter += 1
            obj = {**obj, "id": f"req-{Conn._counter}"}
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))
        return obj["id"]

    def _recv_match(self, pred, what):
        for rid, msg in list(self.parked.items()):
            if pred(msg):
                del self.parked[rid]
                return msg
        while True:
            line = self.file.readline()
            if not line:
                fail(f"connection closed while waiting for {what}")
            msg = json.loads(line)
            if pred(msg):
                return msg
            self.parked[msg.get("id", "")] = msg

    def recv(self, rid):
        return self._recv_match(lambda m: m.get("id") == rid, f"id={rid}")

    def call(self, obj):
        return self.recv(self.send(obj))

    def stats(self):
        self.send({"op": "stats"})
        return self._recv_match(lambda m: "stats" in m, "stats")["stats"]


# The non-default option sets of the serve-mixed benchmark
# (perfbench/lib.py OPTION_SETS): daemon options and the owl_cli flags they
# mirror. None stands for a scratch --repair directory.
OPTION_SETS = [
    ("checkers-sarif", {"checkers": "all", "sarif": True},
     ["--checkers", "all", "--sarif-out", "-"]),
    ("predict", {"predict": "on"}, ["--predict", "on"]),
    ("vuln-flow", {"vuln_flow": "on"}, ["--vuln-flow", "on"]),
    ("prescreen", {"prescreen": "on"}, ["--prescreen", "on"]),
    ("repair", {"repair": True}, ["--repair", None]),
]

# Modules that never reach the pipeline, sent as module_text. They stay
# inline rather than in examples/ir, which every CI sweep runs.
LOAD_FAILURES = [
    ("parse-error", "not minir\n", 1),
    ("missing-entry", "module noentry\nfunc @worker() {\nentry:\n  ret\n}\n", 1),
    ("verify-error", "module bad\nfunc @main() {\nentry:\n  io_delay 1\n}\n", 2),
]

# The --quick options phase runs every option set on this one example (it
# has confirmed races, so every layer has something to report).
QUICK_OPTIONS_EXAMPLE = "lost_update.mir"


def run_cli(cli, module, jobs=1):
    """Expected bytes: one-shot owl_cli on the same module and options."""
    result = subprocess.run(
        [cli, module, "--jobs", str(jobs)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return result.stdout, result.returncode


def analyze(module, jobs=1, client=None):
    req = {
        "op": "analyze",
        "module_path": module,
        "options": {"jobs": jobs},
    }
    if client is not None:
        req["client"] = client
    return req


def run_cli_stderr(cli, args):
    """One-shot owl_cli: (stdout, stderr without [owl ...] log lines, exit).
    Log lines are diagnostics on the process's stderr; the daemon writes
    its own to its stderr, not into responses."""
    result = subprocess.run(
        [cli, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    stderr = "".join(
        line
        for line in result.stderr.splitlines(keepends=True)
        if not line.startswith("[owl ")
    )
    return result.stdout, stderr, result.returncode


def expect_identical(resp, expected_out, expected_exit, what):
    check(
        resp.get("status") == "ok",
        f"{what}: status={resp.get('status')} ({resp.get('reason')})",
    )
    check(
        resp.get("exit") == expected_exit,
        f"{what}: exit={resp.get('exit')}, owl_cli exited {expected_exit}",
    )
    if resp.get("output") != expected_out:
        fail(
            f"{what}: response output diverged from owl_cli stdout\n"
            f"--- owl_cli ---\n{expected_out}\n"
            f"--- owl_served ---\n{resp.get('output')}"
        )


def corrupt_cache_dir(cache_dir):
    """Flip one byte in the middle of every committed cache entry."""
    flipped = 0
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, "r+b") as f:
            data = f.read()
            if not data:
                continue
            mid = len(data) // 2
            f.seek(mid)
            f.write(bytes([data[mid] ^ 0x40]))
            flipped += 1
    return flipped


# --- phases -----------------------------------------------------------


def phase_differential(cfg, examples, jobs_list):
    """Daemon bytes == owl_cli bytes, cold and warm, every combination."""
    cache_dir = os.path.join(cfg.tmp, "diff-cache")
    daemon = Daemon(cfg.served, cfg.socket, "--cache-dir", cache_dir)
    conn = Conn(cfg.socket)
    cases = 0
    for module in examples:
        outputs = set()
        for jobs in jobs_list:
            expected_out, expected_exit = run_cli(cfg.cli, module, jobs)
            what = f"{os.path.basename(module)} jobs={jobs}"
            cold = conn.call(analyze(module, jobs))
            expect_identical(cold, expected_out, expected_exit, what)
            check(
                cold.get("cache") == "miss",
                f"{what}: first request was {cold.get('cache')}, want miss",
            )
            warm = conn.call(analyze(module, jobs))
            expect_identical(warm, expected_out, expected_exit, what)
            check(
                warm.get("cache") == "hit",
                f"{what}: repeat request was {warm.get('cache')}, want hit",
            )
            check(
                warm.get("manifest_sha") == cold.get("manifest_sha"),
                f"{what}: warm manifest_sha diverged from cold",
            )
            outputs.add(cold["output"])
            cases += 1
        # Jobs-invariance through the daemon: every jobs value must have
        # produced the same report bytes.
        check(
            len(outputs) == 1,
            f"{os.path.basename(module)}: outputs differ across jobs values",
        )
    stats = conn.stats()
    check(
        stats["cache"]["misses"] == cases and stats["cache"]["hits"] == cases,
        f"differential: cache counters {stats['cache']} != "
        f"{cases} misses + {cases} hits",
    )
    conn.close()
    daemon.expect_clean_exit("differential")
    print(
        f"serve_check.py: differential OK "
        f"({cases} cases, cold+warm byte-identical to owl_cli)"
    )


def phase_options(cfg, examples, quick):
    """Option sets and load failures: daemon == owl_cli, stderr included."""
    cache_dir = os.path.join(cfg.tmp, "options-cache")
    daemon = Daemon(cfg.served, cfg.socket, "--cache-dir", cache_dir)
    conn = Conn(cfg.socket)
    repair_dir = os.path.join(cfg.tmp, "options-repair")
    if quick:
        named = [m for m in examples
                 if os.path.basename(m) == QUICK_OPTIONS_EXAMPLE]
        examples = named or examples[:1]
    cases = 0

    def expect_same(req, cli_args, what):
        out, err, code = run_cli_stderr(cfg.cli, cli_args)
        resp = conn.call(req)
        expect_identical(resp, out, code, what)
        check(
            resp.get("error") == err,
            f"{what}: response error {resp.get('error')!r} != owl_cli "
            f"stderr {err!r}",
        )
        return code

    for name, options, flags in OPTION_SETS:
        cli_flags = [repair_dir if f is None else f for f in flags]
        for module in examples:
            expect_same(
                {"module_path": module, "options": options},
                [module, "--jobs", "1", *cli_flags],
                f"{os.path.basename(module)} {name}",
            )
            cases += 1
    for name, text, want_exit in LOAD_FAILURES:
        path = os.path.join(cfg.tmp, f"{name}.mir")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        code = expect_same(
            {"module_text": text, "name": path}, [path], f"load {name}"
        )
        check(code == want_exit, f"load {name}: owl_cli exited {code}, "
              f"want {want_exit}")
        cases += 1
    conn.close()
    daemon.expect_clean_exit("options")
    print(
        f"serve_check.py: options OK ({cases} cases, exit/output/error "
        "byte-identical to owl_cli)"
    )


def phase_shed(cfg, module):
    """Overload → structured rejections; admitted work still completes."""
    cache_dir = os.path.join(cfg.tmp, "shed-cache")
    daemon = Daemon(
        cfg.served,
        cfg.socket,
        "--cache-dir",
        cache_dir,
        "--queue-depth",
        "2",
        "--max-inflight",
        "1",
        "--retry-after-ms",
        "250",
        # Every cache read stalls ~2s: holds the admitted slots occupied
        # long enough for the overflow requests to arrive deterministically.
        "--inject-fault",
        "cache-read:stall",
    )
    conn_a = Conn(cfg.socket)
    conn_b = Conn(cfg.socket)
    a1 = conn_a.send(analyze(module, client="client-a"))
    time.sleep(0.3)  # a1 is admitted and stalling in cache-read
    a2 = conn_a.recv(conn_a.send(analyze(module, client="client-a")))
    check(
        a2.get("status") == "rejected"
        and a2.get("reason") == "client_inflight_exceeded",
        f"shed: second same-client request got {a2}, want "
        "client_inflight_exceeded",
    )
    check(
        a2.get("retry_after_ms") == 250,
        f"shed: rejection retry_after_ms={a2.get('retry_after_ms')}, want 250",
    )
    b1 = conn_b.send(analyze(module, client="client-b"))
    time.sleep(0.3)  # b1 takes the second (and last) admission slot
    b2 = conn_b.recv(conn_b.send(analyze(module, client="client-c")))
    check(
        b2.get("status") == "rejected" and b2.get("reason") == "queue_full",
        f"shed: over-capacity request got {b2}, want queue_full",
    )
    # The two admitted requests were never harmed by the shedding.
    for conn, rid, who in ((conn_a, a1, "a1"), (conn_b, b1, "b1")):
        resp = conn.recv(rid)
        check(
            resp.get("status") == "ok",
            f"shed: admitted request {who} got {resp.get('status')}",
        )
    stats = conn_a.stats()
    check(
        stats["shed"]["queue_full"] == 1
        and stats["shed"]["client_inflight"] == 1,
        f"shed: counters {stats['shed']} != one of each",
    )
    conn_a.close()
    conn_b.close()
    daemon.expect_clean_exit("shed")
    print("serve_check.py: shed OK (queue_full + client_inflight rejections)")


def phase_drain(cfg, module):
    """SIGTERM mid-request: the response still arrives, then exit 0."""
    cache_dir = os.path.join(cfg.tmp, "drain-cache")
    daemon = Daemon(
        cfg.served,
        cfg.socket,
        "--cache-dir",
        cache_dir,
        # Widen the in-flight window so the signal reliably lands mid-work.
        "--inject-fault",
        "cache-write:stall",
    )
    expected_out, expected_exit = run_cli(cfg.cli, module)
    conn = Conn(cfg.socket)
    rid = conn.send(analyze(module))
    time.sleep(0.5)  # the request is stalling in cache-write
    daemon.proc.send_signal(signal.SIGTERM)
    resp = conn.recv(rid)  # delivered despite the shutdown in progress
    expect_identical(resp, expected_out, expected_exit, "drain in-flight")
    code = daemon.proc.wait(timeout=60)
    check(code == 0, f"drain: daemon exited {code}, want 0")
    check(
        "drained, exiting" in daemon.stderr_text(),
        "drain: daemon exit without the drain message",
    )
    conn.close()
    print("serve_check.py: drain OK (SIGTERM delivered the response, exit 0)")


def phase_corrupt(cfg, module):
    """A corrupt cache entry is evicted and recomputed, never served."""
    cache_dir = os.path.join(cfg.tmp, "corrupt-cache")
    daemon = Daemon(cfg.served, cfg.socket, "--cache-dir", cache_dir)
    expected_out, expected_exit = run_cli(cfg.cli, module)
    conn = Conn(cfg.socket)
    first = conn.call(analyze(module))
    expect_identical(first, expected_out, expected_exit, "corrupt seed run")
    check(first.get("cache") == "miss", "corrupt: seed run was not a miss")
    flipped = corrupt_cache_dir(cache_dir)
    check(flipped >= 1, "corrupt: no cache entry file found to corrupt")
    second = conn.call(analyze(module))
    expect_identical(second, expected_out, expected_exit, "corrupt reread")
    check(
        second.get("cache") == "miss",
        f"corrupt: tampered entry served as {second.get('cache')}",
    )
    third = conn.call(analyze(module))
    check(
        third.get("cache") == "hit",
        "corrupt: healed entry did not serve warm",
    )
    stats = conn.stats()
    check(
        stats["cache"]["evictions"] == 1,
        f"corrupt: evictions={stats['cache']['evictions']}, want 1",
    )
    conn.close()
    daemon.expect_clean_exit("corrupt")
    print("serve_check.py: corrupt OK (bit-flip evicted, recomputed, healed)")


def phase_kill9(cfg, module):
    """kill -9 mid-request: journal replay pays the lost response."""
    cache_dir = os.path.join(cfg.tmp, "kill9-cache")
    journal = os.path.join(cfg.tmp, "kill9-journal.log")
    daemon = Daemon(
        cfg.served,
        cfg.socket,
        "--cache-dir",
        cache_dir,
        "--journal",
        journal,
        # The stall creates a deterministic kill window after the journal's
        # A record is durable but before the entry commit and the response.
        "--inject-fault",
        "cache-write:stall",
    )
    expected_out, expected_exit = run_cli(cfg.cli, module)
    conn = Conn(cfg.socket)
    conn.send(analyze(module))
    time.sleep(0.5)  # analysis done, stalled in cache-write
    daemon.kill9()
    conn.close()
    check(os.path.getsize(journal) > 0, "kill9: journal is empty after kill")
    committed = (
        [n for n in os.listdir(cache_dir)] if os.path.isdir(cache_dir) else []
    )
    check(
        not any(os.path.isfile(os.path.join(cache_dir, n)) for n in committed),
        "kill9: cache has a committed entry despite dying pre-commit",
    )

    reborn = Daemon(
        cfg.served,
        cfg.socket,
        "--cache-dir",
        cache_dir,
        "--journal",
        journal,
    )
    conn = Conn(cfg.socket)
    retry = conn.call(analyze(module))
    expect_identical(retry, expected_out, expected_exit, "kill9 retry")
    check(
        retry.get("cache") == "hit",
        f"kill9: retry was {retry.get('cache')}, want hit (replayed entry)",
    )
    stats = conn.stats()
    check(
        stats["replayed"] == 1,
        f"kill9: stats replayed={stats['replayed']}, want 1",
    )
    conn.close()
    reborn.expect_clean_exit("kill9")
    check(
        "replayed 1 journal entry" in reborn.stderr_text(),
        "kill9: restart did not log the journal replay",
    )
    check(
        os.path.getsize(journal) == 0,
        "kill9: journal not truncated after a clean drain",
    )
    print("serve_check.py: kill9 OK (journal replayed, warm retry identical)")


def phase_soak(cfg, examples, total):
    """total pipelined requests over 4 connections, exact accounting."""
    modules = examples[: min(4, len(examples))]
    jobs_list = [1, 4]
    expected = {
        (m, j): run_cli(cfg.cli, m, j)
        for m in modules
        for j in jobs_list
    }
    cache_dir = os.path.join(cfg.tmp, "soak-cache")
    daemon = Daemon(
        cfg.served,
        cfg.socket,
        "--cache-dir",
        cache_dir,
        "--queue-depth",
        str(total + 64),
        "--max-inflight",
        str(total + 64),
    )

    conns = 4
    per_conn = total // conns
    remainder = total - per_conn * conns
    errors = []

    def worker(conn_index, count):
        try:
            conn = Conn(cfg.socket)
            window = []  # (rid, module, jobs) with at most 8 outstanding
            for i in range(count):
                module = modules[i % len(modules)]
                jobs = jobs_list[(i // len(modules)) % len(jobs_list)]
                rid = conn.send(analyze(module, jobs))
                window.append((rid, module, jobs))
                if len(window) >= 8:
                    settle(conn, *window.pop(0))
            while window:
                settle(conn, *window.pop(0))
            conn.close()
        except BaseException as e:  # noqa: BLE001 — reported by the main thread
            errors.append(f"conn {conn_index}: {e}")

    def settle(conn, rid, module, jobs):
        out, code = expected[(module, jobs)]
        resp = conn.recv(rid)
        expect_identical(
            resp, out, code, f"soak {os.path.basename(module)} jobs={jobs}"
        )

    threads = [
        threading.Thread(
            target=worker, args=(i, per_conn + (1 if i < remainder else 0))
        )
        for i in range(conns)
    ]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    elapsed = time.monotonic() - start
    check(not errors, "soak: " + "; ".join(errors))

    # A response is delivered *before* its request settles (journal C,
    # slot release, completed++), so a client that has every response can
    # still observe completed < accepted for an instant. Poll until the
    # daemon is quiescent, then assert the exact counters.
    conn = Conn(cfg.socket)
    deadline = time.monotonic() + 30
    while True:
        stats = conn.stats()
        if stats["completed"] == total or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    conn.close()
    keys = len(expected)
    check(
        stats["accepted"] == total and stats["completed"] == total,
        f"soak: accepted/completed {stats['accepted']}/{stats['completed']}"
        f" != {total}",
    )
    # The executor serializes requests, so exactly the first request per
    # (module, jobs) key misses and stores; every other one must hit.
    cache = stats["cache"]
    check(
        cache["misses"] == keys
        and cache["hits"] == total - keys
        and cache["stores"] == keys
        and cache["evictions"] == 0,
        f"soak: cache counters {cache} != exactly {keys} misses/stores, "
        f"{total - keys} hits, 0 evictions",
    )
    shed = stats["shed"]
    check(
        shed["queue_full"] == 0 and shed["client_inflight"] == 0,
        f"soak: unexpected shedding {shed}",
    )
    daemon.expect_clean_exit("soak")
    print(
        f"serve_check.py: soak OK ({total} requests, {conns} connections, "
        f"{elapsed:.1f}s, {cache['hits']} hits / {cache['misses']} misses, "
        "all byte-identical)"
    )


class Config:
    pass


def main():
    parser = argparse.ArgumentParser(
        description="owl_served robustness + differential gate"
    )
    parser.add_argument("--served", required=True, help="owl_served binary")
    parser.add_argument("--cli", required=True, help="owl_cli binary")
    parser.add_argument("--examples", required=True, help="examples/ir dir")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="ctest-sized subset: 2 examples, fast/jobs=1, no kill9/soak",
    )
    parser.add_argument(
        "--soak", type=int, default=1000, help="soak request count"
    )
    args = parser.parse_args()

    examples = sorted(
        os.path.join(args.examples, name)
        for name in os.listdir(args.examples)
        if name.endswith(".mir")
    )
    check(len(examples) >= 2, f"need >= 2 examples in {args.examples}")

    cfg = Config()
    cfg.served = os.path.abspath(args.served)
    cfg.cli = os.path.abspath(args.cli)
    with tempfile.TemporaryDirectory(prefix="owl-serve-check-") as tmp:
        cfg.tmp = tmp
        # /tmp keeps the path under the AF_UNIX 108-byte sun_path limit
        # even when the build tree's own path is deep.
        cfg.socket = os.path.join(tmp, "owl.sock")

        if args.quick:
            phase_differential(cfg, examples[:2], [1])
        else:
            phase_differential(cfg, examples, [1, 4])
        phase_options(cfg, examples, args.quick)
        phase_shed(cfg, examples[0])
        phase_drain(cfg, examples[0])
        phase_corrupt(cfg, examples[0])
        if not args.quick:
            phase_kill9(cfg, examples[0])
            phase_soak(cfg, examples, max(args.soak, 1000))

    print("serve_check.py: all phases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
