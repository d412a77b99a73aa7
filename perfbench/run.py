#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the soctest planner.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--synth-seed N] [--held-out]

Run from the repository root. Builds the soctest CLI and perftrace (Release)
under .bench_build/, runs one workload, checks every plan it produces with
perfbench/check.py, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. perfbench/README.md has
the metric table and the reason for each workload.
"""
import argparse
import hashlib
import json
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True   # keep the checkout free of __pycache__
import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "work")
SOCTEST = os.path.join(BUILD, "soctest", "tools", "soctest")
PERFTRACE = os.path.join(BUILD, "perftrace")

WORKLOADS = ("paper-sweep", "synth-scale", "daemon-mix", "portfolio-dist")
PAPER_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")
PAPER_WIDTHS = (16, 32, 48)
# daemon-mix: the warm set shares one explore band (W <= 32); every block of
# the request stream holds each warm (design, width) pair once plus the cold
# SOCs (daemon_stream).
WARM_DESIGNS = ("d695", "System1", "System2", "System3", "System4")
WARM_WIDTHS = (16, 24, 32)
COLD_CORES = 120
COLD_PER_BLOCK = len(WARM_WIDTHS)   # one cold SOC per segment
# The cold SOCs repeat every DAEMON_CYCLE_BLOCKS blocks (long after the LRU
# dropped them, so they are cold again), and a run is a whole number of
# cycles: equal plans give equal quality figures however fast the daemon is.
DAEMON_CYCLE_BLOCKS = 20
SETUP_REPS_DAEMON = 3
SETUP_REPS_ONESHOT = 5
REQUEST_TIMEOUT_S = 150
# portfolio-dist: K replicas, sweeps, worker processes x lanes each.
PORTFOLIO = (8, 40, 2, 2)
DEFAULT_SYNTH_SEED = 1
HELD_OUT_BASE = 1_000_000   # held-out synth seeds: HELD_OUT_BASE + --seed
COLD_SEED_SPLIT = 2 ** 31   # cold daemon seeds: below normally, above held out

END_TO_END = {
    "setup_s": "s", "plan_p50_s": "s", "plan_p90_s": "s",
    "plans_per_s": "1/s", "cpu_s_per_plan": "s", "peak_rss_mb": "MB",
    "soc_test_cycles": "cycles", "ate_volume_bits": "bits",
}


class BenchError(Exception):
    """A failure that makes the run's numbers meaningless: exit nonzero."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no soctest sources under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc()),
                    "--target", "soctest_cli", "perftrace"],
                   stdout=sys.stderr, check=True)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise BenchError("refusing a non-Release build")


def source_digest():
    """sha256 over the program's sources: the commit when git is absent."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def metadata(args, seeds):
    meta = json.loads(subprocess.run([PERFTRACE, "meta"], check=True,
                                     capture_output=True, text=True).stdout)
    if meta["build_type"] != "Release" or not meta["ndebug"]:
        raise BenchError(f"refusing a non-Release build: {meta}")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    meta.update({
        "workload": args.workload, "nproc": nproc(), "cpu_model": cpu,
        "simd_env": os.environ.get("SOCTEST_SIMD", ""),
        "commit": commit.stdout.strip() if commit.returncode == 0 else "",
        "source_sha256": source_digest(), "seeds": seeds,
        "held_out": args.held_out, "seconds": args.seconds,
        "trace": args.trace,
    })
    return meta


# ---------------------------------------------------------------- helpers

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def geomean(values):
    """Order-independent, so equal plans give bit-equal figures."""
    return math.exp(math.fsum(sorted(math.log(v) for v in values)) /
                    len(values))


def core_names(design):
    """The design's core names, from `soctest show` (first column)."""
    out = subprocess.run([SOCTEST, "show", "--design", design], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    rule = next(i for i, line in enumerate(out) if line.startswith("---"))
    return [line.split()[0] for line in out[rule + 1:] if line.strip()]


def oneshot_setup(designs):
    """Process spawn plus design load (`soctest show`) for every design of
    the workload, the fixed cost each one-shot request pays before planning:
    median of several repetitions, plus the core lists for the checker."""
    times, cores = [], {}
    for _ in range(SETUP_REPS_ONESHOT):
        t0 = time.perf_counter()
        for d in designs:
            cores[d] = core_names(d)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cores


def run_cli(argv):
    """One `soctest` process: (latency_s, cpu_s, max_rss_kb, exit code).
    wait4 reports the child plus every descendant it reaped (dist workers)."""
    with open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([SOCTEST] + argv, cwd=WORK,
                             stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, p.kill)
        watchdog.start()
        _, status, ru = os.wait4(p.pid, 0)
        latency = time.perf_counter() - t0
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return latency, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode


class Tally:
    """Per-request outcomes of the timed phase."""

    def __init__(self):
        self.latencies, self.cycles, self.volumes = [], [], []
        self.attempted = self.failed = 0
        self.by_request = {}   # request key -> reports (repeat check)
        self.lock = threading.Lock()

    def record(self, key, latency, rep, width, cores, ok=True):
        with self.lock:
            self.attempted += 1
            problems = ["request failed"] if not ok or rep is None else \
                check.check_report(rep, width, cores)
            if problems:
                self.failed += 1
                log(f"FAILED {key}: {problems[:3]}")
                return
            self.latencies.append(latency)
            self.cycles.append(rep["test_time"])
            self.volumes.append(rep["data_volume_bits"])
            self.by_request.setdefault(key, []).append(rep)

    def repeats_agree(self):
        bad = [k for k, reps in self.by_request.items()
               if not check.same_reports(reps)]
        for k in bad:
            log(f"FAILED repeat check: {k} gave different reports")
        return not bad

    def first_report(self):
        return next(iter(self.by_request.items()), (None, [None]))

    def metrics(self, setup_s, wall_s, cpu_s, rss_mb):
        if not self.latencies:
            raise BenchError("no request succeeded")
        n = len(self.latencies)
        return {
            "setup_s": setup_s,
            "plan_p50_s": statistics.median(self.latencies),
            "plan_p90_s": percentile(self.latencies, 0.9),
            "plans_per_s": n / wall_s,
            "cpu_s_per_plan": cpu_s / n,
            "peak_rss_mb": rss_mb,
            "soc_test_cycles": geomean(self.cycles),
            "ate_volume_bits": geomean(self.volumes),
        }


# ------------------------------------------------------- one-shot workloads

def oneshot_requests(args, synth_seed):
    """(kind, design, width) list of one pass, plus the extra CLI flags."""
    jobs = str(nproc())
    if args.workload == "paper-sweep":
        reqs = [("hill", d, w) for d in PAPER_DESIGNS for w in PAPER_WIDTHS]
        random.Random(args.seed).shuffle(reqs)
        return reqs, ["--jobs", jobs]
    if args.workload == "synth-scale":
        return [("hill", f"synth:1000:{synth_seed}", 32)], ["--jobs", jobs]
    k, sweeps, workers, wjobs = PORTFOLIO
    if workers * wjobs > nproc():
        raise BenchError(f"portfolio-dist needs {workers * wjobs} lanes, "
                         f"nproc is {nproc()}")
    return ([("dist", f"synth:120:{synth_seed}", 32)],
            ["--portfolio", str(k), "--sweeps", str(sweeps),
             "--workers", str(workers), "--jobs", str(wjobs)])


def run_oneshot(args, synth_seed):
    reqs, flags = oneshot_requests(args, synth_seed)
    designs = list(dict.fromkeys(d for _, d, _ in reqs))
    setup_s, cores = oneshot_setup(designs)
    tally = Tally()
    cpu = rss = 0
    artifact = os.path.join(WORK, "report.json")
    t0 = time.perf_counter()
    while True:
        for _, design, width in reqs:
            if os.path.exists(artifact):
                os.remove(artifact)
            latency, c, r, rc = run_cli(
                ["optimize", "--design", design, "--width", str(width),
                 "--json", artifact] + flags)
            cpu, rss = cpu + c, max(rss, r)
            rep = None
            if rc == 0:
                with open(artifact) as f:
                    rep = json.load(f)
            tally.record((design, width), latency, rep, width, cores[design],
                         ok=rc == 0)
        wall = time.perf_counter() - t0
        if wall >= args.seconds:
            break
    return tally, tally.metrics(setup_s, wall, cpu, rss / 1024), cores


def trace_oneshot(args, synth_seed):
    reqs, _ = oneshot_requests(args, synth_seed)
    designs = list(dict.fromkeys(d for _, d, _ in reqs))
    cores = {d: core_names(d) for d in designs}
    k, sweeps, workers, wjobs = PORTFOLIO
    out = perftrace(reqs, ["--probe-designs", str(len(designs)),
                           "--portfolio", str(k), "--sweeps", str(sweeps),
                           "--workers", str(workers),
                           "--worker-jobs", str(wjobs)])
    return check_traced(out, reqs, cores) + (cores,)


def perftrace(reqs, flags):
    argv = [PERFTRACE, "run", "--jobs", str(nproc()), "--soctest", SOCTEST]
    argv += flags + [f"{k}@{d}@{w}" for k, d, w in reqs]
    p = subprocess.run(argv, cwd=WORK, capture_output=True, text=True,
                       timeout=REQUEST_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"perftrace failed: {p.stderr.strip()}")
    return json.loads(p.stdout)


def check_traced(out, reqs, cores):
    """Checks the traced pass's reports; returns (tally, layer metrics)."""
    tally = Tally()
    for (_, design, width), a, b in zip(reqs, out["reports"],
                                        out["untimed_reports"]):
        for text in (a, b):
            tally.record((design, width), 0.0, json.loads(text), width,
                         cores[design])
    if not out["consistent"]:
        tally.failed += 1
        log("FAILED: a probe disagreed with the request's own result")
    metrics = dict(out["metrics"])
    metrics.update({"server.elapsed_warm_p50_s": 0.0,
                    "server.elapsed_cold_p50_s": 0.0,
                    "server.overhead_s": 0.0, "server.warm_frac": 0.0,
                    "server.session_evictions": 0.0})
    return tally, metrics


# ------------------------------------------------------------- daemon-mix

def daemon_stream(args, synth_seed, blocks):
    """The request stream, in blocks of COLD_PER_BLOCK segments. A segment
    is the five warm SOCs once each with one fresh cold synth SOC, in an
    order drawn from --seed; each warm SOC meets every warm width once per
    block. The block's last cold SOC is sent twice in a row, so two clients
    pick it up at once. Since every warm SOC is touched between two cold
    insertions, the LRU evicts the oldest cold session, never a warm one:
    5 warm + 3 cold sessions fill the default 8. The cold SOCs' seeds come
    from the synth seed, so runs with different stream seeds plan the same
    cold SOCs in a different order."""
    rng = random.Random(args.seed)
    cold_rng = random.Random(f"cold:{synth_seed}")
    lo, hi = (COLD_SEED_SPLIT, 2 ** 32 - 1) if args.held_out else \
        (1, COLD_SEED_SPLIT - 1)
    cold_seeds = [cold_rng.randint(lo, hi)
                  for _ in range(DAEMON_CYCLE_BLOCKS * COLD_PER_BLOCK)]
    stream = []
    for b in range(blocks):
        widths = {d: rng.sample(WARM_WIDTHS, len(WARM_WIDTHS))
                  for d in WARM_DESIGNS}
        block = []
        for seg in range(COLD_PER_BLOCK):
            warm = [(d, widths[d][seg]) for d in
                    rng.sample(WARM_DESIGNS, len(WARM_DESIGNS))]
            seed = cold_seeds[(b * COLD_PER_BLOCK + seg) % len(cold_seeds)]
            cold = (f"synth:{COLD_CORES}:{seed}", 32)
            at = rng.randint(0, len(warm))
            colds = [cold, cold] if seg == COLD_PER_BLOCK - 1 else [cold]
            block += warm[:at] + colds + warm[at:]
        stream.append(block)
    return stream


class Daemon:
    """A `soctest --serve` process on a socket inside the checkout."""

    def __init__(self, name):
        self.path = os.path.relpath(os.path.join(WORK, name), ROOT)
        if os.path.exists(self.path):
            os.remove(self.path)
        self.proc = subprocess.Popen(
            [SOCTEST, "--serve", self.path, "--jobs", str(nproc())],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=sys.stderr)
        deadline = time.monotonic() + 30
        while True:
            try:
                self.connect().close()
                return
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise BenchError("daemon did not come up")
                time.sleep(0.002)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(REQUEST_TIMEOUT_S)
        s.connect(self.path)
        return s

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                with Client(self) as c:
                    c.call({"op": "shutdown"}, "shutdown")
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self.path):
            os.remove(self.path)


class Client:
    """One NDJSON connection; call() sends a request and waits for its end."""

    def __init__(self, daemon):
        self.sock = daemon.connect()
        self.rfile = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rfile.close()
        self.sock.close()

    def call(self, req, *terminal):
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while True:
            line = self.rfile.readline()
            if not line:
                raise BenchError(f"daemon closed the connection on {req}")
            msg = json.loads(line)
            if msg.get("event") in terminal or msg.get("event") == "error":
                return msg

    def optimize(self, rid, design, width):
        t0 = time.perf_counter()
        msg = self.call({"op": "optimize", "id": rid, "design": design,
                         "width": width}, "result")
        return time.perf_counter() - t0, msg


def daemon_setup(n, cores):
    """Daemon spawn to socket ready, then the warm set primed over `n`
    connections. Returns (seconds, daemon)."""
    t0 = time.perf_counter()
    daemon = Daemon(f"d{os.getpid()}.sock")
    todo = list(WARM_DESIGNS)
    errors = []

    def prime():
        try:
            with Client(daemon) as c:
                while todo:
                    design = todo.pop()
                    _, msg = c.optimize(f"prime-{design}", design, 32)
                    rep = msg.get("report")
                    if msg.get("event") != "result" or \
                            check.check_report(rep, 32, cores[design]):
                        errors.append(design)
        except (BenchError, OSError) as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=prime) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        daemon.stop()
        raise BenchError(f"priming failed for {errors}")
    return elapsed, daemon


def run_daemon(args, synth_seed):
    n = nproc()
    blocks = daemon_stream(args, synth_seed, 10 * DAEMON_CYCLE_BLOCKS)
    flat = [r for b in blocks for r in b]
    block_len = len(blocks[0])
    cycle = block_len * DAEMON_CYCLE_BLOCKS
    designs = list(dict.fromkeys(d for d, _ in flat[:cycle]))
    cores = {d: core_names(d) for d in designs}

    setups = []
    for _ in range(SETUP_REPS_DAEMON - 1):
        s, d = daemon_setup(n, cores)
        setups.append(s)
        d.stop()
    s, daemon = daemon_setup(n, cores)
    setups.append(s)

    tally = Tally()
    server = {"warm": [], "cold": [], "overhead": []}
    state = {"next": 0, "stop": False}
    lock = threading.Lock()
    try:
        cpu0 = daemon.cpu_s()
        t0 = time.perf_counter()

        def client(k):
            try:
                drive(k)
            except (BenchError, OSError) as exc:
                log(f"client {k}: {exc!r}")
                with lock:
                    state["stop"] = True
                tally.record(("client", k), 0.0, None, 0, [], ok=False)

        def drive(k):
            with Client(daemon) as c:
                while True:
                    with lock:
                        i = state["next"]
                        if state["stop"] or i >= len(flat):
                            return
                        if i > 0 and i % cycle == 0 and \
                                time.perf_counter() - t0 >= args.seconds:
                            state["stop"] = True
                            return
                        state["next"] = i + 1
                    design, width = flat[i]
                    latency, msg = c.optimize(f"c{k}-{i}", design, width)
                    ok = msg.get("event") == "result"
                    tally.record((design, width), latency, msg.get("report"),
                                 width, cores[design], ok=ok)
                    if ok:
                        el = msg["elapsed_ms"] / 1000
                        with lock:
                            server["warm" if msg["warm"] else "cold"].append(el)
                            server["overhead"].append(latency - el)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        with Client(daemon) as c:
            stats = c.call({"op": "stats"}, "stats")
    finally:
        daemon.stop()
    metrics = tally.metrics(statistics.median(setups), wall, cpu, rss)
    done = len(server["warm"]) + len(server["cold"])
    layer = {
        "server.elapsed_warm_p50_s": statistics.median(server["warm"] or [0]),
        "server.elapsed_cold_p50_s": statistics.median(server["cold"] or [0]),
        "server.overhead_s": statistics.median(server["overhead"] or [0]),
        "server.warm_frac": len(server["warm"]) / max(1, done),
        "server.session_evictions": float(stats["sessions"]["evictions"]),
    }
    return tally, metrics, layer, flat[:block_len], cores


def trace_daemon(args, synth_seed):
    tally, _, server, first_block, cores = run_daemon(args, synth_seed)
    reqs = [("hill", d, w) for d, w in first_block]
    out = perftrace(reqs, ["--clear-cache", "0", "--probe-designs", "1"])
    traced, metrics = check_traced(out, reqs, cores)
    metrics.update(server)
    traced.attempted += tally.attempted
    traced.failed += tally.failed
    return traced, metrics, tally.repeats_agree() and \
        traced.repeats_agree(), cores


# ------------------------------------------------------------------ main

def selftest_checker(tally, cores):
    """Runs the checker's negative cases on a real report of this run."""
    key, reps = tally.first_report()
    if reps[0] is None:
        return False
    try:
        check.selftest(reps[0], key[1], cores[key[0]])
        return True
    except AssertionError as exc:
        log(f"FAILED checker selftest: {exc}")
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="request-stream seed: paper-sweep and daemon-mix "
                         "request order")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--synth-seed", type=int, default=DEFAULT_SYNTH_SEED,
                    help="seed of the synth SOC of synth-scale and "
                         "portfolio-dist and of daemon-mix's cold SOCs")
    ap.add_argument("--held-out", action="store_true",
                    help="draw every synth seed from ranges never used while "
                         "tuning a change")
    args = ap.parse_args()
    synth_seed = HELD_OUT_BASE + args.seed if args.held_out else \
        args.synth_seed
    seeds = {"stream": args.seed, "synth": synth_seed}

    os.chdir(ROOT)   # the daemon's socket path is relative to the root
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK   # compiler temporaries stay in the checkout
    try:
        build()
        meta = metadata(args, seeds)
        print("meta " + json.dumps(meta, sort_keys=True), flush=True)
        log(f"meta {json.dumps(meta, sort_keys=True)}")
        if args.workload == "daemon-mix":
            if args.trace:
                tally, metrics, repeats_ok, cores = trace_daemon(args,
                                                                 synth_seed)
            else:
                tally, metrics, _, _, cores = run_daemon(args, synth_seed)
                repeats_ok = tally.repeats_agree()
        else:
            if args.trace:
                tally, metrics, cores = trace_oneshot(args, synth_seed)
            else:
                tally, metrics, cores = run_oneshot(args, synth_seed)
            repeats_ok = tally.repeats_agree()
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        log(f"run.py: {exc}")
        return 2

    checker_ok = selftest_checker(tally, cores)
    failed_frac = tally.failed / max(1, tally.attempted)
    correct = tally.failed == 0 and repeats_ok and checker_ok
    print("summary " + json.dumps({"failed_frac": failed_frac,
                                   "requests": tally.attempted,
                                   "repeats_agree": repeats_ok,
                                   "checker_selftest": bool(checker_ok)}),
          flush=True)
    units = END_TO_END if not args.trace else {}
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or layer_unit(name)}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_share"):
        return "ratio"
    if name == "explore.speedup_jobs":
        return "x"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
