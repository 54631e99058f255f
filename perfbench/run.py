#!/usr/bin/env python3
"""The ttadse benchmark: end-to-end runs of real `ttadse` processes and a
real `ttadse serve` daemon, plus a traced per-layer replay.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `ttadse` and the replay (`perfbench/replay`) in release mode
under $CARGO_TARGET_DIR (default `.bench_build`), sets its workload up,
measures for S seconds and prints one JSON result as the last line of
stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` replays
the workload through the layers' public calls and reports the per-layer
metrics instead. Every op's answer is checked against the digests pinned
in `perfbench/expected.json`; `--pin` regenerates that file (each answer
cross-checked between a parallel and a `--serial` run).

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("fig2-cold", "huge-walk", "walk-resume", "serve-mix")

FIG2 = ["fig2", "--format", "json"]
WALK = ["explore", "--space", "huge", "--strategy", "neighbour", "--budget", "16384",
        "--format", "json"]
HALF_WALK = ["explore", "--space", "huge", "--strategy", "neighbour", "--budget", "8192",
             "--format", "json"]
# The same ops as job specs, for the replay.
FIG2_SPEC = {"space": "paper", "workloads": ["crypt"], "format": "json"}
WALK_SPEC = {"space": "huge", "strategy": "neighbour", "budget": 16384, "format": "json"}

# serve-mix: every fresh job is drawn from a pinned pool per class. The
# job sequence ends when a pool runs out, and a timed run that reaches
# the end fails: a fresh job is never a disguised repeat.
POOL = 256
FRESH_CLASSES = ("random", "paper", "netlist")
CLIENTS = 2
TRACED_JOBS = 24

FIG2_KEYS = ("architecture", "area", "exec_time")
EXPLORE_KEYS = ("architecture", "area", "exec_time", "test_cost", "cycles", "workload_cycles")

# Replay span names, in the engine's order; each becomes `<span>_s`,
# seconds per replayed op.
LAYER_SPANS = ("search.plan", "template.point", "cache.load", "cache.lookup",
               "backannotate.annotate", "movec.schedule", "netlist.elaborate", "netlist.sta",
               "models.fold", "cache.store", "cache.flush", "pareto.insert", "models.test_cost",
               "render.render")

SETUP_REPEATS = 3
SPAWN_REPEATS = 11
SERIAL_REPEATS = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def pool_spec(cls, k):
    """The job spec of pool entry `k` of a fresh serve-mix class."""
    if cls == "random":
        return {"space": "huge", "strategy": "random", "budget": 1024, "seed": 1000 + k,
                "threads": 1, "format": "json"}
    if cls == "paper":
        return {"space": "paper", "bus_area": 3.0 + k / 16, "threads": 1, "format": "json"}
    return {"space": "huge", "strategy": "random", "budget": 32, "seed": 2000 + k,
            "fidelity": "netlist", "threads": 1, "format": "json"}


def spec_args(spec):
    """`ttadse explore` flags equivalent to a job spec."""
    args = ["explore"]
    if "workloads" in spec:
        args += ["--workload", ",".join(spec["workloads"])]
    for key, flag in (("space", "--space"), ("strategy", "--strategy"), ("budget", "--budget"),
                      ("seed", "--seed"), ("fidelity", "--fidelity"), ("bus_area", "--bus-area")):
        if key in spec:
            args += [flag, str(spec[key])]
    return args + ["--format", "json"]


def serve_jobs(seed):
    """The seeded serve-mix sequence: (class, pool index) per job. Jobs
    come in blocks of one per fresh class plus one verbatim repeat, in
    seeded order, so every seed runs the same mix. A repeat copies a job
    at least three submissions back: with two clients it has finished,
    so its points are cached. Block `b` takes entry `b` of each class's
    seeded pool permutation, so the sequence ends after POOL blocks."""
    rng = random.Random(seed)
    order = {c: rng.sample(range(POOL), POOL) for c in FRESH_CLASSES}
    jobs = []
    for b in range(POOL):
        block = list(FRESH_CLASSES) + (["repeat"] if jobs else [])
        rng.shuffle(block)
        for cls in block:
            jobs.append(jobs[rng.randrange(0, len(jobs) - 2)] if cls == "repeat"
                        else (cls, order[cls][b]))
    return jobs


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def digest(entries, keys):
    canon = [{k: e[k] for k in keys} for e in entries]
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer(doc):
    """The checked part of one op's JSON output: counts and front digest
    (never the `search` object, whose counters may differ by engine)."""
    if doc.get("figure") == "fig2":
        return {"evaluated": len(doc["points"]), "infeasible": doc["infeasible"],
                "front": digest(doc["front"], FIG2_KEYS)}
    return {"evaluated": doc["evaluated"], "infeasible": doc["infeasible"],
            "front": digest(doc["front"], EXPLORE_KEYS)}


def replay_answer(doc, fig2):
    """The answer of a replayed op (or of an `explore` document), on the
    keys the workload's real output carries."""
    return {"evaluated": doc["evaluated"], "infeasible": doc["infeasible"],
            "front": digest(doc["front"], FIG2_KEYS if fig2 else EXPLORE_KEYS)}


def output_answer(text):
    try:
        return answer(json.loads(text))
    except (ValueError, KeyError, TypeError):
        return None


# ---------------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------------

def build():
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "ttadse-cli", "--bin", "ttadse"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join("perfbench", "replay", "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "ttadse"), os.path.join(release, "ttadse-perfbench-replay")


class Op:
    """One finished process: wall-clock, child CPU, peak RSS, output."""

    def __init__(self, wall, cpu, rss_kb, code, out):
        self.wall, self.cpu, self.rss_kb, self.code, self.out = wall, cpu, rss_kb, code, out


def run_proc(argv):
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
              out.decode(errors="replace"))


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# The daemon and its client
# ---------------------------------------------------------------------------

class Daemon:
    def __init__(self, binary, work):
        self.log_path = os.path.join(work, f"serve-{time.monotonic_ns()}.log")
        self.log = open(self.log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen([binary, "serve", "--addr", "127.0.0.1:0", "--workers", "2"],
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("ttadse serve exited during start-up")
            if self.port is None:
                # The daemon writes this line in pieces: wait for all of it.
                with open(self.log_path) as f:
                    found = re.search(r"listening on \S+:(\d+) \(", f.read())
                self.port = found and int(found.group(1))
            if self.port is not None:
                try:
                    status, body = http(self.port, "GET", "/healthz")
                    if status == 200 and json.loads(body).get("ok"):
                        return
                except OSError:
                    pass
            time.sleep(0.001)
        raise RuntimeError("ttadse serve did not become healthy")

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                http(self.port, "POST", "/shutdown")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def http(port, method, path, body=b""):
    """A plain Content-Length request; returns (status, body text)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n"
                  f"Connection: close\r\n\r\n".encode() + body)
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), rest.decode(errors="replace")


def submit(port, spec):
    """Runs one job: POST /run, then the chunked NDJSON event stream.
    Returns (ok, output, times) with times measured from the connect."""
    body = json.dumps(spec).encode()
    t0 = time.perf_counter()
    times = {}
    events = 0
    output, ok = None, False
    with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
        times["connected"] = time.perf_counter() - t0
        s.sendall(f"POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
                  f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode() + body)
        f = s.makefile("rb")
        status = int(f.readline().split()[1])
        chunked = False
        while (line := f.readline()) not in (b"\r\n", b""):
            chunked |= line.lower().startswith(b"transfer-encoding: chunked")
        if status == 200 and chunked:
            pending = b""
            while True:
                size = int(f.readline().strip() or b"0", 16)
                if size == 0:
                    break
                pending += f.read(size)
                f.readline()
                while b"\n" in pending:
                    line, pending = pending.split(b"\n", 1)
                    if not line.strip():
                        continue
                    event = json.loads(line)
                    events += 1
                    kind = event.get("event")
                    times.setdefault(kind, time.perf_counter() - t0)
                    if kind == "done":
                        output, ok = event.get("output"), not event.get("cancelled", False)
                    elif kind == "error":
                        ok = False
        while f.read(65536):
            pass
    times["eof"] = time.perf_counter() - t0
    times["events"] = events
    return ok, output, times


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count). With ten or fewer samples the
    minimum is the only such point."""
    s = sorted(samples)
    k = max(len(s) - 10, 1)
    return s[k - 1], 100.0 * k / len(s), len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, binary, replay, work, expected):
        self.binary, self.replay, self.work, self.expected = binary, replay, work, expected
        self.half_cache = None

    def cli(self, args):
        return run_proc([self.binary] + args)

    def check(self, op, want):
        return op.code == 0 and output_answer(op.out) == want

    def build_half_cache(self):
        """Builds the `--budget 8192` walk cache; returns its set-up time."""
        path = os.path.join(self.work, f"half-{time.monotonic_ns()}")
        op = self.cli(HALF_WALK + ["--cache-dir", path])
        if op.code != 0 or output_answer(op.out) != self.expected["half-walk"]:
            raise RuntimeError("building the half-walk cache failed")
        if self.half_cache:
            shutil.rmtree(self.half_cache, ignore_errors=True)
        self.half_cache = path
        return op.wall

    def fresh_cache_copy(self):
        path = os.path.join(self.work, f"resume-{time.monotonic_ns()}")
        shutil.copytree(self.half_cache, path)
        return path

    # -- set-up -------------------------------------------------------------

    def setup(self, workload):
        """Runs the workload's set-up several times; returns the median."""
        if workload == "serve-mix":
            times = []
            for _ in range(SETUP_REPEATS):
                d = Daemon(self.binary, self.work)
                times.append(d.setup_s)
                d.stop()
            return statistics.median(times)
        if workload == "walk-resume":
            return statistics.median(self.build_half_cache() for _ in range(SETUP_REPEATS))
        args, want = (FIG2, self.expected["fig2-cold"]) if workload == "fig2-cold" else \
            (WALK, self.expected["huge-walk"])
        times = []
        for _ in range(SETUP_REPEATS):
            op = self.cli(args)
            if not self.check(op, want):
                raise RuntimeError(f"{workload} warm-up op gave a wrong answer")
            times.append(op.wall)
        return statistics.median(times)

    # -- timed phase ----------------------------------------------------------

    def timed_cli(self, workload, seconds):
        args, want = {"fig2-cold": (FIG2, self.expected["fig2-cold"]),
                      "huge-walk": (WALK, self.expected["huge-walk"]),
                      "walk-resume": (WALK, self.expected["walk-resume"])}[workload]
        lat, cpu, rss, failed = [], [], [], 0
        start = time.perf_counter()
        busy = 0.0
        while time.perf_counter() - start < seconds:
            extra, copy = [], None
            if workload == "walk-resume":
                copy = self.fresh_cache_copy()
                extra = ["--cache-dir", copy]
            op = self.cli(args + extra)
            busy += op.wall
            if copy:
                shutil.rmtree(copy, ignore_errors=True)
            if not self.check(op, want):
                failed += 1
                continue
            lat.append(op.wall)
            cpu.append(op.cpu)
            rss.append(op.rss_kb)
        attempted = len(lat) + failed
        return {"attempted": attempted, "failed": failed, "latencies": lat,
                "ops_per_s": len(lat) / busy if busy else 0.0,
                "cpu_s_per_op": statistics.median(cpu) if cpu else 0.0,
                "peak_rss_mb": statistics.median(rss) / 1024 if rss else 0.0}

    # -- the daemon -------------------------------------------------------------

    def drive(self, jobs, stop_at=None):
        """Runs `jobs` (until `stop_at`, a perf_counter deadline, if given)
        on a fresh daemon from CLIENTS closed-loop clients. Returns the
        (correct?, event times) row per job, the wall-clock, the daemon's
        CPU-s and its peak RSS in KB."""
        daemon = Daemon(self.binary, self.work)
        lock = threading.Lock()
        rows, nxt = [], [0]

        def client():
            while True:
                with lock:
                    if nxt[0] >= len(jobs) or (stop_at and time.perf_counter() >= stop_at):
                        return
                    cls, k = jobs[nxt[0]]
                    nxt[0] += 1
                try:
                    ok, out, times = submit(daemon.port, pool_spec(cls, k))
                    good = ok and output_answer(out) == self.expected["serve"][cls][str(k)]
                except (OSError, ValueError, IndexError):
                    good, times = False, {}
                with lock:
                    rows.append((good, times))

        try:
            cpu0 = daemon.cpu_s()
            start = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            cpu = daemon.cpu_s() - cpu0
            rss = daemon.peak_rss_kb()
        finally:
            daemon.stop()
        return rows, wall, cpu, rss

    def timed_serve(self, seed, seconds):
        jobs = serve_jobs(seed)
        rows, wall, cpu, rss = self.drive(jobs, time.perf_counter() + seconds)
        if len(rows) == len(jobs):
            raise RuntimeError(f"serve-mix used up its {POOL}-entry job pools before the "
                               "timed phase ended; enlarge POOL and re-pin")
        lat = [t["eof"] for good, t in rows if good]
        return {"attempted": len(rows), "failed": len(rows) - len(lat), "latencies": lat,
                "ops_per_s": len(lat) / wall, "cpu_s_per_op": cpu / max(len(lat), 1),
                "peak_rss_mb": rss / 1024,
                "pool_peak": max(sum(c == cls for c, _ in jobs[:len(rows)])
                                 for cls in FRESH_CLASSES)}

    # -- traced replay ----------------------------------------------------------

    def run_replay(self, specs, extra):
        ops = os.path.join(self.work, "ops.jsonl")
        with open(ops, "w") as f:
            for spec in specs:
                f.write(json.dumps(spec) + "\n")
        spans = os.path.join(self.work, "spans.csv")
        done = subprocess.run([self.replay, "--ops", ops, "--spans", spans] + extra,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"replay failed: {done.stderr.strip()}")
        return json.loads(done.stdout)

    def traced(self, workload, seed):
        """Per-layer metrics for one workload, plus the replay's fidelity."""
        fig2 = workload == "fig2-cold"
        extra, copy = [], None
        if workload == "fig2-cold":
            specs, wants = [FIG2_SPEC] * 3, [self.expected["fig2-cold"]] * 3
        elif workload == "huge-walk":
            specs, wants = [WALK_SPEC], [self.expected["huge-walk"]]
        elif workload == "walk-resume":
            self.build_half_cache()
            copy = self.fresh_cache_copy()
            specs, wants, extra = [WALK_SPEC], [self.expected["walk-resume"]], ["--cache-dir", copy]
        else:
            jobs = serve_jobs(seed)[:TRACED_JOBS]
            specs = [pool_spec(c, k) for c, k in jobs]
            wants = [self.expected["serve"][c][str(k)] for c, k in jobs]
            extra = ["--memory-cache"]
        rep = self.run_replay(specs, extra)
        if copy:
            shutil.rmtree(copy, ignore_errors=True)
        failed = sum(replay_answer(op, fig2) != w for op, w in zip(rep["ops"], wants))
        attempted = len(rep["ops"])
        n = len(rep["ops"])
        L, C = rep["layers"], rep["counters"]
        count = lambda name: C.get(name, 0.0) / n
        ratio = lambda a, b: C.get(a, 0.0) / C[b] if C.get(b) else 0.0
        wall = [op["wall_s"] for op in rep["ops"]]
        m = {span + "_s": (L.get(span, 0.0) / n, "s") for span in LAYER_SPANS}
        shares = {span: round(L.get(span, 0.0) / sum(wall), 4) for span in LAYER_SPANS}
        m.update({
            "movec.calls": (count("movec.calls"), "count"),
            "movec.us_per_call": (1e6 * L.get("movec.schedule", 0.0) / C["movec.calls"]
                                  if C.get("movec.calls") else 0.0, "us"),
            "movec.infeasible_ratio": (ratio("movec.infeasible", "movec.calls"), "ratio"),
            "backannotate.keys": (count("backannotate.keys"), "count"),
            "backannotate.hit_ratio": (1 - ratio("backannotate.keys", "backannotate.key_refs")
                                       if C.get("backannotate.key_refs") else 0.0, "ratio"),
            "backannotate.generate_s": (rep["probe"]["generate_s"] / n, "s"),
            "backannotate.atpg_s": (rep["probe"]["atpg_s"] / n, "s"),
            "backannotate.march_s": (rep["probe"]["march_s"] / n, "s"),
            "template.points": (count("search.fresh"), "count"),
            "search.fresh_ratio": (ratio("search.fresh", "search.proposed"), "ratio"),
            "cache.hit_ratio": (ratio("cache.hits", "cache.lookups"), "ratio"),
            "cache.flushes": (count("cache.flushes"), "count"),
            "cache.bytes_written": (count("cache.bytes_written"), "bytes"),
            "pareto.kept_ratio": (ratio("pareto.kept", "pareto.offered"), "ratio"),
            "netlist.gates": (count("netlist.gates"), "count"),
            "render.bytes": (count("render.bytes"), "bytes"),
        })

        spawn = statistics.median(self.cli(["workloads", "list"]).wall
                                  for _ in range(SPAWN_REPEATS))
        m["process.spawn_s"] = (spawn, "s")

        # The first op, untraced and single-thread, each time paired with
        # a replay of that op alone (same cache state), so the pairs
        # cancel the host's slow speed drift. Its time outside every
        # layer span is process start and exit beyond a trivial command,
        # argument parsing, staging and JSON output. Then the op once
        # more with default threads, for the CPU utilisation.
        unattributed, overhead, serial = [], [], []
        for threads in [["--serial"]] * SERIAL_REPEATS + [[]]:
            copies = [self.fresh_cache_copy() if workload == "walk-resume" else None
                      for _ in range(2 if threads else 1)]
            cache = [["--cache-dir", c] if c else [] for c in copies]
            op = self.cli(spec_args(specs[0]) + threads + cache[0])
            solo = self.run_replay(specs[:1], cache[1])["ops"][0] if threads else None
            for c in copies:
                if c:
                    shutil.rmtree(c, ignore_errors=True)
            try:
                good = op.code == 0 and replay_answer(json.loads(op.out), fig2) == wants[0]
            except (ValueError, KeyError):
                good = False
            if solo:
                good &= replay_answer(solo, fig2) == wants[0]
                serial.append(op.wall - spawn)
                unattributed.append(serial[-1] - solo["attributed_s"])
                overhead.append(solo["wall_s"] - serial[-1])
            attempted += 1
            failed += 0 if good else 1
        parallel = op
        m["unattributed_s"] = (statistics.median(unattributed), "s")
        shares["unattributed"] = round(m["unattributed_s"][0] / statistics.median(serial), 4)
        m["trace_overhead_s"] = (statistics.median(overhead), "s")
        m["cpu_util"] = (parallel.cpu / (parallel.wall * os.cpu_count()), "ratio")

        # Client-observed daemon spans (serve-mix only; 0 elsewhere).
        serve = dict.fromkeys(("serve.connect_s", "serve.queue_wait_s", "serve.run_s",
                               "serve.stream_s", "serve.events"), 0.0)
        if workload == "serve-mix":
            rows, wall_s, cpu, _ = self.drive(serve_jobs(seed)[:TRACED_JOBS])
            attempted += len(rows)
            failed += sum(not good for good, _ in rows)
            rows = [t for good, t in rows if good] or [dict.fromkeys(
                ("connected", "queued", "started", "done", "eof", "events"), 0.0)]
            med = lambda f: statistics.median(f(t) for t in rows)
            serve = {
                "serve.connect_s": med(lambda t: t["connected"]),
                "serve.queue_wait_s": med(lambda t: t["started"] - t["queued"]),
                "serve.run_s": med(lambda t: t["done"] - t["started"]),
                "serve.stream_s": med(lambda t: t["eof"] - t["done"]),
                "serve.events": statistics.mean(t["events"] for t in rows),
            }
            m["cpu_util"] = (cpu / (wall_s * CLIENTS), "ratio")
        for k, v in serve.items():
            m[k] = (v, "count" if k == "serve.events" else "s")
        return m, attempted, failed, {"replay_op_s": statistics.mean(wall), "replay_ops": n,
                                      "shares": shares}


# ---------------------------------------------------------------------------
# Pinning
# ---------------------------------------------------------------------------

def pin(bench):
    """Regenerates expected.json from this build, cross-checking every
    answer between the default (parallel) and a `--serial` run."""
    def both(args):
        a, b = bench.cli(args), bench.cli(args + ["--serial"])
        if a.code != 0 or b.code != 0 or output_answer(a.out) != output_answer(b.out):
            raise RuntimeError(f"parallel and serial runs disagree: {args}")
        return output_answer(a.out)

    # `fig2` has no --serial flag: its serial twin is the same sweep
    # through `explore`, compared on the keys both documents carry.
    fig2, twin = bench.cli(FIG2), bench.cli(spec_args(FIG2_SPEC) + ["--serial"])
    want = output_answer(fig2.out)
    if fig2.code != 0 or want != replay_answer(json.loads(twin.out), True):
        raise RuntimeError("fig2 disagrees with its serial explore twin")
    exp = {"fig2-cold": want, "huge-walk": both(WALK), "half-walk": both(HALF_WALK)}
    bench.expected = exp
    bench.build_half_cache()
    copies = [bench.fresh_cache_copy(), bench.fresh_cache_copy()]
    resumed = [output_answer(bench.cli(WALK + ["--cache-dir", c] + t).out)
               for c, t in zip(copies, ([], ["--serial"]))]
    if resumed[0] != resumed[1] or resumed[0] != exp["huge-walk"]:
        raise RuntimeError("the resumed walk disagrees with the cold walk")
    exp["walk-resume"] = resumed[0]
    exp["serve"] = {c: {str(k): both(spec_args(pool_spec(c, k))) for k in range(POOL)}
                    for c in FRESH_CLASSES}
    with open(EXPECTED, "w") as f:
        json.dump(exp, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"perfbench: wrote {EXPECTED}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true", help="regenerate expected.json")
    a = p.parse_args()
    if not a.pin and not a.workload:
        p.error("--workload is required")

    binary, replay = build()
    work = os.path.join(ROOT, ".bench_work", f"{a.workload or 'pin'}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        expected = {}
        if os.path.isfile(EXPECTED):
            with open(EXPECTED) as f:
                expected = json.load(f)
        bench = Bench(binary, replay, work, expected)
        if a.pin:
            pin(bench)
            return
        if not expected:
            sys.exit(f"perfbench: {EXPECTED} is missing; run with --pin")
        record = {"workload": a.workload, "seed": a.seed, "nproc": os.cpu_count(),
                  "commit": git_commit(), "ttadse_sha256": file_sha256(binary)}
        if a.trace:
            m, attempted, failed, extra = bench.traced(a.workload, a.seed)
            record.update(extra)
            metrics = {k: metric(v, u) for k, (v, u) in m.items()}
        else:
            setup_s = bench.setup(a.workload)
            r = bench.timed_serve(a.seed, a.seconds) if a.workload == "serve-mix" \
                else bench.timed_cli(a.workload, a.seconds)
            attempted, failed = r["attempted"], r["failed"]
            if not r["latencies"]:
                sys.exit("perfbench: no op succeeded")
            tail_v, tail_p, tail_n = tail(r["latencies"])
            record.update({"tail_percentile": tail_p, "samples": tail_n})
            if "pool_peak" in r:
                record.update({"pool_peak": r["pool_peak"], "pool_size": POOL})
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "ops_per_s": metric(r["ops_per_s"], "1/s"),
                "op_p50_s": metric(statistics.median(r["latencies"]), "s"),
                "op_tail_s": metric(tail_v, "s"),
                "cpu_s_per_op": metric(r["cpu_s_per_op"], "s"),
                "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
            }
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
