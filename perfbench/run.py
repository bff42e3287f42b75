#!/usr/bin/env python3
"""Serving benchmark of the Multi-CLP optimizer stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

It builds the repository's own binaries (mclp-opt, mclp-serve, mclp-front)
and the in-process tracer (perfbench/trace.cc) into .bench_build/, drives one
workload closed-loop for --seconds, byte-compares every response with its
cold reference, and prints one JSON object as the last line of stdout.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics instead (a separate, traced run).
It exits non-zero, without a result, when the sources are missing or the
build fails, and exits 1 after printing its result when any response
differs from its reference. perfbench/README.md explains the workloads.
"""

import argparse
import gc
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD = ".bench_build"
BIN = os.path.join(BUILD, "mclp")
NPROC = os.cpu_count() or 1
TICK = os.sysconf("SC_CLK_TCK")

NETS = ["alexnet", "vggnet-e", "squeezenet", "googlenet", "resnet50",
        "mobilenet-v1", "resnext-tiny"]
TYPES = ["float", "fixed"]
# Figure-7 DSP rungs that fit every device of the cold_cli mix.
FIG7 = [100, 250, 500, 750, 1000, 1500, 2000, 2240, 2500, 2880, 3500]
# The 1-layer network of the process-start floor (mclp-opt --layers).
PROBE_LAYER = "conv1 3 16 14 14 3 1\n"

END_TO_END_UNITS = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_ms.p50": "ms",
    "latency_ms.p90": "ms", "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB", "first_answer_ms.p50": "ms",
}
PER_LAYER_UNITS = {
    "frontier.build_ms_per_request": "ms",
    "frontier.rows_built_per_request": "count",
    "frontier.row_hit_ratio": "ratio",
    "optimizer.query_ms_per_request": "ms",
    "optimizer.optimize_ms": "ms",
    "memory.tiling_enum_ms_per_request": "ms",
    "memory.walk_ms_per_request": "ms",
    "registry.acquire_us": "us", "registry.hit_ratio": "ratio",
    "registry.evictions": "count",
    "codec.decode_us": "us", "codec.encode_us": "us",
    "codec.response_bytes": "bytes",
    "service.handle_line_us.p50": "us",
    "server.roundtrip_us.p50": "us", "server.overhead_us": "us",
    "server.shed_busy": "count", "server.drain_ms": "ms",
    "front.hop_us.p50": "us", "front.shard_share_max": "ratio",
    "cache.open_ms": "ms", "cache.load_row_us": "us",
    "cache.flush_ms": "ms", "cache.flush_bytes": "bytes",
    "cache.tier_mmap_share": "ratio", "cache.tier_cold_share": "ratio",
    "cli.floor_ms": "ms", "cli.crashes": "count",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


# ------------------------------------------------------------------ helpers

def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise SetupError("run from the root of a checkout of the repository")
    cfg = ["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(cfg, stdout=subprocess.DEVNULL).returncode != 0:
            raise SetupError("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
            "mclp-opt", "mclp-serve", "mclp-front", "perfbench-trace"]
    if subprocess.run(step, stdout=subprocess.DEVNULL).returncode != 0:
        raise SetupError("build failed")


def tool(name):
    return os.path.join(BIN, name) if name != "perfbench-trace" else \
        os.path.join(BUILD, name)


def references(lines):
    """Cold answers (answerRequest, no registry) for each request line."""
    proc = subprocess.run([tool("perfbench-trace"), "refs"],
                          input="\n".join(lines) + "\n",
                          capture_output=True, text=True)
    out = proc.stdout.splitlines()
    if proc.returncode != 0 or len(out) != len(lines):
        raise RuntimeError("reference run failed: " + proc.stderr)
    return out


def proc_cpu_ms(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / TICK


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def wait_ready(proc):
    """Block until a server started with --tcp-port 0 announces its
    port on stderr: it is listening on every socket by then. Reading
    the pipe, rather than polling for the socket file, keeps the wait
    off the CPU the server is starting on."""
    if not proc.stderr.readline():
        raise RuntimeError("server exited during start-up")


class Client:
    """One closed-loop connection: send a line, wait for its answer."""

    def __init__(self, path, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("connection closed")
            self.buf += chunk
        answer, self.buf = self.buf.split(b"\n", 1)
        return answer.decode()

    def close(self):
        self.sock.close()


# Load conditions, not answers: a line shed or orphaned this way fails
# without counting as a wrong answer.
LOAD_ERRORS = ("msg=busy", "msg=worker-died")


class Tally:
    """Attempted/failed counts and the parity verdict of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def check(self, got, want):
        """Count one operation; True when it answered its reference."""
        self.attempted += 1
        if got == want:
            return True
        self.failed += 1
        if got is not None and not got.endswith(LOAD_ERRORS):
            self.mismatches += 1
        return False


def stop(proc, client, timeout=30.0):
    """Drain a server with a `shutdown` line over @p client and wait for
    it to exit. Returns shutdown-to-exit milliseconds."""
    start = time.perf_counter()
    try:
        client.ask("shutdown")
        client.close()
        proc.wait(timeout)
        proc.stderr.close()
    except Exception:
        proc.kill()
        proc.wait()
        raise
    return (time.perf_counter() - start) * 1000.0


class RunDir:
    """A per-run directory under .bench_build (relative, so Unix socket
    paths stay short wherever the checkout lives)."""

    def __init__(self):
        self.dir = os.path.join(BUILD, "run%d" % os.getpid())
        self.spans = os.path.join(BUILD, "spans.jsonl")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.procs = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def spawn(self, argv, **kw):
        """Start a server in its own process group, so that cleanup also
        reaches the workers a front forks."""
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                start_new_session=True, **kw)
        self.procs.append(proc)
        return proc

    def close(self):
        for proc in self.procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # drained and gone, workers too
            proc.wait()
            if proc.stderr:
                proc.stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# ------------------------------------------------------------ workload: CLI

def ladder(rungs):
    """@p rungs Figure-7 budgets spread evenly over the ladder. The
    budgets are fixed: a shift of a few DSP slices moved one request's
    cost by up to 40%, so seeds only reorder requests."""
    last = len(FIG7) - 1
    if rungs == 1:
        return [FIG7[last // 2]]
    return [FIG7[round(i * last / (rungs - 1))] for i in range(rungs)]


def cold_cli_requests(tiny):
    """7 zoo nets x {float, fixed} x {690t, vu9p}, two ladders each, of
    L and 9-L rungs, L running 1..8 over the combinations."""
    reqs = []
    for device in ["690t", "vu9p"]:
        for net in NETS:
            for dtype in TYPES:
                first = 1 + len(reqs) // 2 % 8
                for rungs in (first, 9 - first):
                    reqs.append((net, device, dtype, ladder(rungs)))
    if tiny:
        reqs = [r for r in reqs if r[0] == "alexnet"][:4]
    out = []
    for i, (net, device, dtype, budgets) in enumerate(reqs):
        rid = "c%d" % i
        csv = ",".join(map(str, budgets))
        argv = [tool("mclp-opt"), "--network", net, "--device", device,
                "--type", dtype, "--budgets", csv, "--request-id", rid,
                "--response"]
        line = "dse id=%s net=%s device=%s type=%s budgets=%s" % (
            rid, net, device, dtype, csv)
        out.append((argv, line))
    return out


def run_cli(argv, timeout=120.0):
    """Spawn one CLI process. Returns (stdout line or None, wall ms,
    cpu ms, peak rss MB, crashed)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    data = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.perf_counter() - start) * 1000.0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    cpu = (usage.ru_utime + usage.ru_stime) * 1000.0
    crashed = os.WIFSIGNALED(status)
    text = data.decode(errors="replace").rstrip("\n")
    ok = proc.returncode == 0 and text
    return (text if ok else None), wall, cpu, usage.ru_maxrss / 1024.0, crashed


def probe_argv(rundir):
    path = rundir.path("probe.layers")
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write(PROBE_LAYER)
    return [tool("mclp-opt"), "--layers", path, "--budgets", "200",
            "--response"]


def cold_cli(args, rundir, tally, corrupt):
    rng = random.Random(args.seed)
    reqs = cold_cli_requests(args.tiny)
    t0 = time.perf_counter()
    refs = references([line for _, line in reqs])
    setup_s = time.perf_counter() - t0
    if corrupt:
        refs[0] = refs[0][:-1] + ("0" if refs[0][-1] != "0" else "1")
    probe = probe_argv(rundir)

    lat, cpu, rss, first = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < args.seconds or not rounds:
        rounds += 1
        order = list(range(len(reqs)))
        rng.shuffle(order)
        for k, i in enumerate(order):
            if k % 7 == 0:
                first.append(run_cli(probe)[1])
            got, wall, c, r, _ = run_cli(reqs[i][0])
            if tally.check(got, refs[i]):
                lat.append(wall)
                cpu.append(c)
                rss.append(r)
    elapsed = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "requests_per_s": len(lat) / elapsed,
        "latency_ms": lat,
        "cpu_ms_per_request": sum(cpu) / max(len(lat), 1),
        "peak_rss_mb": median(rss),
        "first_answer_ms.p50": median(first),
    }


# ------------------------------------------------------- workload: servers

WARM_SESSIONS = [(net, dtype) for net in
                 ["alexnet", "squeezenet", "googlenet", "mobilenet-v1"]
                 for dtype in TYPES]


def warm_line(session, rung):
    net, dtype = session
    return "dse id=w%s%s%d net=%s device=690t type=%s budgets=%d" % (
        net[:3], dtype[:2], rung, net, dtype, FIG7[rung])


def warm_sweep_plan(rng, tiny):
    """Setup lines (rung 0 of each session) and the measured sequence:
    every session climbs its Figure-7 ladder one rung per request, and
    each raise to rung k is followed by revisits of rungs k, k-1 and
    k/2, already passed. The seed interleaves the sessions."""
    sessions = WARM_SESSIONS[:2] if tiny else WARM_SESSIONS
    rungs = 3 if tiny else len(FIG7)
    setup = [warm_line(s, 0) for s in sessions]
    streams = []
    for s in sessions:
        stream = []
        for k in range(1, rungs):
            stream += [warm_line(s, r) for r in (k, k, k - 1, k // 2)]
        streams.append(stream[::-1])
    seq = []
    live = list(range(len(sessions)))
    while live:
        i = rng.choice(live)
        seq.append(streams[i].pop())
        if not streams[i]:
            live.remove(i)
    return setup, seq


# Eight tiny inline networks (name:N:M:R:C:K:S per layer).
TINY_NETS = [
    "l0:3:16:14:14:3:1;l1:16:24:7:7:3:1",
    "l0:3:8:14:14:3:1;l1:8:16:14:14:1:1",
    "l0:8:16:7:7:3:1;l1:16:16:7:7:3:1",
    "l0:3:24:14:14:3:1;l1:24:32:7:7:1:1",
    "l0:8:8:14:14:3:1;l1:8:24:7:7:3:1",
    "l0:3:32:7:7:3:1;l1:32:16:7:7:1:1",
    "l0:16:16:7:7:1:1;l1:16:32:7:7:3:1",
    "l0:3:16:7:7:3:1;l1:16:8:14:14:3:1",
]
TINY_BUDGETS = [100, 200, 300, 400]


def front_small_plan(tiny):
    """Eight tiny inline networks x four budgets; setup asks each
    network once at its largest budget, so every later line is warm.
    The seed picks the order the two connections send them in."""
    nets = TINY_NETS[:2] if tiny else TINY_NETS

    def line(k, b):
        return "dse id=f%db%d net=t%d layers=%s budgets=%d" % (
            k, b, k, nets[k], b)

    setup = [line(k, TINY_BUDGETS[-1]) for k in range(len(nets))]
    pool = [line(k, b) for k in range(len(nets)) for b in TINY_BUDGETS]
    return setup, pool


def restart_plan(rng, tiny):
    """The pre-fill pass (zoo nets, float, 690t, a 3-rung ladder each)
    and the restart pass: the same lines, which the mmap tier answers,
    plus two fixed-point lines the pre-fill lacks, which build cold and
    are written by the drain flush. The pass order is fixed: networks
    share frontier rows, so a request's cost depends on which requests
    came before it, and a seeded order moved the median by a quarter.
    The seed only tags the request ids."""
    nets = NETS[:2] if tiny else NETS
    tag = "%04x" % rng.randrange(1 << 16)
    prefill = ["dse id=r%s-%s net=%s device=690t budgets=%s" % (
        tag, net, net, ",".join(map(str, ladder(3)))) for net in nets]
    fresh = ["dse id=x%s-%s net=%s device=690t type=fixed budgets=%s" % (
        tag, net, net, ",".join(map(str, ladder(2))))
        for net in ["alexnet", "resnext-tiny"]]
    return prefill, prefill + fresh


ALL_CPUS = os.sched_getaffinity(0)
CPU_TURN = [0]


def next_cpu():
    """The CPUs in turn. On a shared virtual machine each vCPU slows
    down and speeds up on its own (the same loop took 19-28 ms on one
    vCPU from second to second), so a run that served from one CPU
    measured that CPU's luck. Moving from CPU to CPU during the run
    averages over all of them."""
    cpus = sorted(ALL_CPUS)
    CPU_TURN[0] += 1
    return cpus[CPU_TURN[0] % len(cpus)]


def pin(pids, cpu):
    """Move this client process and every thread of @p pids onto @p cpu.

    The server workloads spawn and set up their system on every CPU,
    then serve their measured requests with client and system on one.
    Their requests hop between single-threaded processes, and on a
    shared virtual machine the cost of waking a process on another,
    idle CPU swung front_small's throughput 3x from round to round. On
    one CPU each hop is a plain context switch. Start-up stays on every
    CPU: pinned, a front's workers sometimes got the CPU before the
    front polled for them and sometimes after, which split
    first_answer_ms between two modes 20 ms apart. A lone mclp-serve has
    no such race, so it starts on the client's CPU (see Round)."""
    for pid in pids:
        for tid in os.listdir("/proc/%d/task" % pid):
            os.sched_setaffinity(int(tid), {cpu})
    os.sched_setaffinity(0, {cpu})


def unpin():
    os.sched_setaffinity(0, ALL_CPUS)


class Round:
    """One life of the serving system: spawn, set up, serve, drain.

    Each round serves from @p cpu, by default the next CPU in turn
    (next_cpu()), and long rounds move on to the next one now and then
    (move()). A lone
    mclp-serve starts on its round's CPU: the client moves there before
    the spawn, and the server inherits it. Started on every CPU, the
    median spawn-to-first-answer of mclp-serve moved by a quarter
    between runs; started on one CPU, by a few percent. A front starts
    on every CPU (see pin())."""

    def __init__(self, rundir, argv, cpu=None):
        self.cpu = next_cpu() if cpu is None else cpu
        if argv[0] == tool("mclp-serve"):
            pin([], self.cpu)
        self.t0 = time.perf_counter()
        self.proc = rundir.spawn(argv, stderr=subprocess.PIPE)
        wait_ready(self.proc)
        self.first_ms = None

    def elapsed_ms(self):
        return (time.perf_counter() - self.t0) * 1000.0

    def pids(self, client):
        """The system's processes: the server, plus a front's workers."""
        pids = [self.proc.pid]
        answer = client.ask("front-stats")
        if answer.startswith("ok front-stats"):
            for tok in answer.split()[3:]:
                if tok.startswith("shard"):
                    pids.append(int(tok.split("=")[1].split(":")[1]))
        return pids

    def pin(self, client):
        """Serve from this round's CPU (see pin())."""
        pin(self.pids(client), self.cpu)

    def move(self, client):
        """Serve from the next CPU from now on."""
        self.cpu = next_cpu()
        self.pin(client)

    def usage(self, client):
        pids = self.pids(client)
        return (sum(proc_cpu_ms(p) for p in pids),
                sum(proc_hwm_mb(p) for p in pids))


def first_answers(rundir, argv, sock, line, want, tally, count=4, cpu=None):
    """Spawn-to-first-answer of @p count short-lived systems: spawn, ask
    @p line, drain. Returns the milliseconds of each."""
    out = []
    for _ in range(count):
        rnd = Round(rundir, argv, cpu)
        client = Client(sock)
        tally.check(client.ask(line), want)
        out.append(rnd.elapsed_ms())
        stop(rnd.proc, client)
    return out


def serve_argv(sock, extra=()):
    return [tool("mclp-serve"), "--socket", sock, "--tcp-port", "0"] + \
        list(extra)


def front_argv(sock):
    return [tool("mclp-front"), "--socket", sock, "--tcp-port", "0",
            "--workers", "2", "--serve-bin", tool("mclp-serve")]


def timed_ask(client, line, want, tally, lat):
    t = time.perf_counter()
    try:
        got = client.ask(line)
    except OSError:
        tally.check(None, want)
        raise
    ms = (time.perf_counter() - t) * 1000.0
    if tally.check(got, want):
        lat.append(ms)


WARM_CHUNK = 40  # requests between two first-answer probes


def warm_sweep(args, rundir, tally, corrupt):
    rng = random.Random(args.seed)
    setup, seq = warm_sweep_plan(rng, args.tiny)
    distinct = sorted(set(setup + seq))
    ref = dict(zip(distinct, references(distinct)))
    if corrupt:
        ref[seq[0]] = ref[seq[0]][:-1] + "#"
    sock = rundir.path("s")
    probe = rundir.path("p")
    setups, firsts, lat, cpu, rss, completed = [], [], [], [], [], 0
    busy = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not setups:
        rnd = Round(rundir, serve_argv(sock))
        client = Client(sock)
        for line in setup:
            tally.check(client.ask(line), ref[line])
            if rnd.first_ms is None:
                rnd.first_ms = rnd.elapsed_ms()
        setups.append(rnd.elapsed_ms() / 1000.0)
        firsts.append(rnd.first_ms)
        rnd.pin(client)
        for k in range(0, len(seq), WARM_CHUNK):
            if k:
                # The next CPU, and a short-lived server's first answer
                # there: spread over the run, both average over its
                # CPUs and its minutes.
                rnd.move(client)
                firsts += first_answers(rundir, serve_argv(probe), probe,
                                        setup[0], ref[setup[0]], tally, 1,
                                        rnd.cpu)
            t = time.perf_counter()
            for line in seq[k:k + WARM_CHUNK]:
                timed_ask(client, line, ref[line], tally, lat)
            busy += time.perf_counter() - t
        unpin()
        c, r = rnd.usage(client)
        cpu.append(c)
        rss.append(r)
        completed += len(setup) + len(seq)
        stop(rnd.proc, client)
    return {
        "setup_s": median(setups),
        "requests_per_s": len(lat) / busy,
        "latency_ms": lat,
        "cpu_ms_per_request": sum(cpu) / completed,
        "peak_rss_mb": median(rss),
        "first_answer_ms.p50": median(firsts),
    }


def closed_loop(clients, next_line, deadline, ref, tally, lat):
    """Drive every connection from this one thread, one request in
    flight on each: a connection's next line goes out when its answer
    is in, until @p deadline. Returns the requests answered correctly."""
    sel = selectors.DefaultSelector()
    inflight = {}
    good = 0

    def send(client):
        line = next_line()
        inflight[client] = (line, time.perf_counter())
        client.sock.sendall(line.encode() + b"\n")

    for client in clients:
        sel.register(client.sock, selectors.EVENT_READ, client)
        send(client)
    while inflight:
        events = sel.select(60.0)
        if not events:
            raise TimeoutError("no answer within 60 s")
        for key, _ in events:
            client = key.data
            chunk = client.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("connection closed")
            client.buf += chunk
            while b"\n" in client.buf:
                answer, client.buf = client.buf.split(b"\n", 1)
                line, start = inflight.pop(client)
                ms = (time.perf_counter() - start) * 1000.0
                if tally.check(answer.decode(), ref[line]):
                    lat.append(ms)
                    good += 1
                if time.perf_counter() < deadline:
                    send(client)
    sel.close()
    return good


def front_small(args, rundir, tally, corrupt):
    rng = random.Random(args.seed)
    setup, pool = front_small_plan(args.tiny)
    ref = dict(zip(pool, references(pool)))
    if corrupt:
        ref[pool[0]] = ref[pool[0]][:-1] + "#"
    sock = rundir.path("f")
    rounds = 1 if args.tiny else 8
    setups, firsts, lat, cpu, rss = [], [], [], [], []
    completed, busy = 0, 0.0
    for _ in range(rounds):
        firsts += first_answers(rundir, front_argv(sock), sock, setup[0],
                                ref[setup[0]], tally)
        rnd = Round(rundir, front_argv(sock))
        control = Client(sock)
        for line in setup:
            tally.check(control.ask(line), ref[line])
            if rnd.first_ms is None:
                rnd.first_ms = rnd.elapsed_ms()
        setups.append(rnd.elapsed_ms() / 1000.0)
        firsts.append(rnd.first_ms)
        conns = [Client(sock) for _ in range(2)]
        rnd.pin(control)
        for i in range(4):  # four slices, each on the next CPU
            if i:
                rnd.move(control)
            deadline = time.perf_counter() + args.seconds / rounds / 4
            t = time.perf_counter()
            completed += closed_loop(conns, lambda: rng.choice(pool),
                                     deadline, ref, tally, lat)
            busy += time.perf_counter() - t
        unpin()
        for conn in conns:
            conn.close()
        c, m = rnd.usage(control)
        cpu.append(c)
        rss.append(m)
        completed += len(setup)
        stop(rnd.proc, control)
    return {
        "setup_s": median(setups),
        "requests_per_s": len(lat) / busy,
        "latency_ms": lat,
        "cpu_ms_per_request": sum(cpu) / completed,
        "peak_rss_mb": median(rss),
        "first_answer_ms.p50": median(firsts),
    }


def prefill_cache(rundir, prefill, ref, tally, dest):
    """One pre-fill run: a fresh cache directory filled by a real
    mclp-serve pass and its drain flush. Returns its seconds."""
    sock = rundir.path("p")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    t = time.perf_counter()
    rnd = Round(rundir, serve_argv(sock, ["--cache-dir", dest]))
    client = Client(sock)
    for line in prefill:
        tally.check(client.ask(line), ref[line])
    stop(rnd.proc, client)
    unpin()
    return time.perf_counter() - t


def copy_cache(src, dest):
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(src, dest)


def cache_bytes(path):
    return {name: os.stat(os.path.join(path, name)).st_mtime_ns
            for name in os.listdir(path)}


def restart_cache(args, rundir, tally, corrupt):
    rng = random.Random(args.seed)
    prefill, passes = restart_plan(rng, args.tiny)
    ref = dict(zip(passes, references(passes)))
    if corrupt:
        ref[passes[0]] = ref[passes[0]][:-1] + "#"
    pristine = rundir.path("pristine")
    setups = [prefill_cache(rundir, prefill, ref, tally, pristine)]
    sock = rundir.path("s")
    live = rundir.path("live")
    firsts, lat, cpu, rss = [], [], [], []
    completed, busy = 0, 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not firsts:
        if len(firsts) % 12 == 11:
            # More pre-fills, spread over the run, for the setup_s
            # median; the pristine copy stays the first one.
            setups.append(prefill_cache(rundir, prefill, ref, tally,
                                        rundir.path("spare")))
        copy_cache(pristine, live)
        rnd = Round(rundir, serve_argv(sock, ["--cache-dir", live]))
        client = Client(sock)
        t = time.perf_counter()
        for line in passes:
            timed_ask(client, line, ref[line], tally, lat)
            if rnd.first_ms is None:
                rnd.first_ms = rnd.elapsed_ms()
                rnd.pin(client)
        busy += time.perf_counter() - t
        unpin()
        firsts.append(rnd.first_ms)
        c, m = rnd.usage(client)
        cpu.append(c)
        rss.append(m)
        completed += len(passes)
        stop(rnd.proc, client)
    return {
        "setup_s": median(setups),
        "requests_per_s": len(lat) / busy,
        "latency_ms": lat,
        "cpu_ms_per_request": sum(cpu) / completed,
        "peak_rss_mb": median(rss),
        "first_answer_ms.p50": median(firsts),
    }


WORKLOADS = {
    "cold_cli": cold_cli,
    "warm_sweep": warm_sweep,
    "front_small": front_small,
    "restart_cache": restart_cache,
}


def end_to_end(result):
    lat = result["latency_ms"]
    values = {
        "setup_s": result["setup_s"],
        "requests_per_s": result["requests_per_s"],
        "latency_ms.p50": median(lat),
        "latency_ms.p90": pct(lat, 90) if lat else 0.0,
        "cpu_ms_per_request": result["cpu_ms_per_request"],
        "peak_rss_mb": result["peak_rss_mb"],
        "first_answer_ms.p50": result["first_answer_ms.p50"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


# ------------------------------------------------------------ traced runs

class RoundTrips:
    """Client-timed socket round trips, kept as spans."""

    def __init__(self, name):
        self.name = name
        self.spans = []

    def ask(self, client, line, want, tally, request):
        start = time.perf_counter_ns()
        try:
            got = client.ask(line)
        except OSError:
            tally.check(None, want)
            raise
        end = time.perf_counter_ns()
        tally.check(got, want)
        self.spans.append({"name": self.name, "start_ns": start,
                           "end_ns": end, "parent": -1, "request": request})

    def p50_us(self):
        return median([(s["end_ns"] - s["start_ns"]) / 1e3
                       for s in self.spans])


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def in_process(rundir, tally, mode, lines, expect, setup=(), caches=()):
    """Run the tracer over @p lines; returns its per-layer summary."""
    write_lines(rundir.path("requests"), lines)
    write_lines(rundir.path("expect"), expect)
    write_lines(rundir.path("setup"), setup)
    argv = [tool("perfbench-trace"), "trace", "--mode", mode,
            "--requests", rundir.path("requests"),
            "--expect", rundir.path("expect"),
            "--setup", rundir.path("setup"),
            "--spans", rundir.spans]
    for flag, path in zip(["--cache-a", "--cache-b", "--cache-c"], caches):
        argv += [flag, path]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError("tracer failed: " + proc.stderr)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += summary["requests"]
    tally.failed += summary["mismatches"]
    tally.mismatches += summary["mismatches"]
    return summary


def stats_field(line, key):
    for tok in line.split():
        if tok.startswith(key + "="):
            return float(tok.split("=", 1)[1])
    return 0.0


def cli_layer(args, rundir, tally, m):
    """tools/mclp_opt and util/thread_pool, measured in every traced
    run: the process-start floor, and the crashes among one round of
    the cold_cli mix run with the default thread count."""
    m["cli.floor_ms"] = median([run_cli(probe_argv(rundir))[1]
                                for _ in range(10)])
    reqs = cold_cli_requests(args.tiny)
    refs = references([line for _, line in reqs])
    crashes = 0
    for (argv, _), want in zip(reqs, refs):
        got, _, _, _, crashed = run_cli(argv)
        crashes += crashed
        tally.check(got, want)
    m["cli.crashes"] = crashes


def trace_cold_cli(args, rundir, tally, m):
    reqs = cold_cli_requests(args.tiny)
    lines = [line for _, line in reqs]
    m.update(in_process(rundir, tally, "cold", lines, references(lines)))


def trace_warm_sweep(args, rundir, tally, m):
    rng = random.Random(args.seed)
    setup, seq = warm_sweep_plan(rng, args.tiny)
    distinct = sorted(set(setup + seq))
    ref = dict(zip(distinct, references(distinct)))
    m.update(in_process(rundir, tally, "warm", seq, [ref[l] for l in seq],
                        setup))
    sock = rundir.path("s")
    rnd = Round(rundir, serve_argv(sock))
    client = Client(sock)
    for line in setup:
        tally.check(client.ask(line), ref[line])
    rnd.pin(client)
    direct = RoundTrips("roundtrip.direct")
    for i, line in enumerate(seq):
        direct.ask(client, line, ref[line], tally, i)
    m["server.roundtrip_us.p50"] = direct.p50_us()
    m["server.shed_busy"] = stats_field(client.ask("stats"), "shed_busy")
    m["server.drain_ms"] = stop(rnd.proc, client)
    return [direct]


def trace_front_small(args, rundir, tally, m):
    rng = random.Random(args.seed)
    setup, pool = front_small_plan(args.tiny)
    ref = dict(zip(pool, references(pool)))
    sample = [rng.choice(pool) for _ in range(300 if args.tiny else 3000)]
    m.update(in_process(rundir, tally, "warm", sample,
                        [ref[l] for l in sample], setup))
    sock = rundir.path("f")
    rnd = Round(rundir, front_argv(sock))
    client = Client(sock)
    for line in setup:
        tally.check(client.ask(line), ref[line])
    rnd.pin(client)
    front = RoundTrips("roundtrip.front")
    for i, line in enumerate(sample):
        front.ask(client, line, ref[line], tally, i)
    stats = client.ask("stats")
    m["server.shed_busy"] = stats_field(stats, "shed_busy")
    shares = [stats_field(part, "requests") for part in stats.split(" | ")[1:]]
    m["front.shard_share_max"] = max(shares) / max(sum(shares), 1.0)
    # The same lines straight to one worker's own socket (warmed first).
    worker = Client(sock + ".w0")
    for line in setup:
        tally.check(worker.ask(line), ref[line])
    direct = RoundTrips("roundtrip.direct")
    for i, line in enumerate(sample):
        direct.ask(worker, line, ref[line], tally, i)
    worker.close()
    m["server.roundtrip_us.p50"] = direct.p50_us()
    m["front.hop_us.p50"] = front.p50_us() - direct.p50_us()
    m["server.drain_ms"] = stop(rnd.proc, client)
    return [front, direct]


def trace_restart_cache(args, rundir, tally, m):
    rng = random.Random(args.seed)
    prefill, passes = restart_plan(rng, args.tiny)
    ref = dict(zip(passes, references(passes)))
    pristine = rundir.path("pristine")
    prefill_cache(rundir, prefill, ref, tally, pristine)
    caches = [rundir.path(name) for name in ("a", "b", "c")]
    for path in caches:
        copy_cache(pristine, path)
    m.update(in_process(rundir, tally, "cache", passes,
                        [ref[l] for l in passes], (), caches))
    sock = rundir.path("s")
    live = rundir.path("live")
    copy_cache(pristine, live)
    rnd = Round(rundir, serve_argv(sock, ["--cache-dir", live]))
    client = Client(sock)
    rnd.pin(client)
    direct = RoundTrips("roundtrip.direct")
    for i, line in enumerate(passes):
        direct.ask(client, line, ref[line], tally, i)
    m["server.roundtrip_us.p50"] = direct.p50_us()
    m["server.shed_busy"] = stats_field(client.ask("stats"), "shed_busy")
    m["server.drain_ms"] = stop(rnd.proc, client)
    return [direct]


TRACED = {
    "cold_cli": trace_cold_cli,
    "warm_sweep": trace_warm_sweep,
    "front_small": trace_front_small,
    "restart_cache": trace_restart_cache,
}


def traced_run(args, rundir, tally):
    """Per-layer metrics of one workload; spans go to .bench_build."""
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    cli_layer(args, rundir, tally, m)
    trips = TRACED[args.workload](args, rundir, tally, m) or []
    if m["server.roundtrip_us.p50"]:
        m["server.overhead_us"] = (m["server.roundtrip_us.p50"] -
                                   m["service.handle_line_us.p50"])
    m["trace.overhead_pct"] = 100.0 * (m["traced_wall_ms"] -
                                       m["handle_wall_ms"]) / m["handle_wall_ms"]
    with open(rundir.spans, "a") as f:
        for rt in trips:
            f.write("".join(json.dumps(s) + "\n" for s in rt.spans))
    return {k: {"value": m[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


# ------------------------------------------------------------------- main

def run(args, corrupt=False):
    """One run of one workload. Returns (result dict, byte mismatches)."""
    rundir = RunDir()
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(args, rundir, tally)
        else:
            metrics = end_to_end(
                WORKLOADS[args.workload](args, rundir, tally, corrupt))
    finally:
        rundir.close()
        unpin()
    out = {"correct": tally.mismatches == 0, "attempted": tally.attempted,
           "failed": tally.failed, "metrics": metrics}
    return out, tally.mismatches


def selftest():
    """Every workload at tiny size, untraced and traced: each metric
    BENCHMARK.json names prints with its unit, and a deliberately
    corrupted reference answer is counted as a failure (so the parity
    check can fail). Returns the exit code."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=1,
                                      trace=trace, tiny=True)
            out, _ = run(args)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metrics %s" % (
                    name, trace, sorted(set(got.items()) ^
                                        set(want[trace].items()))))
            if not out["correct"] or out["attempted"] < 1:
                problems.append("%s trace=%d: %s" % (name, trace, out))
        out, mismatches = run(argparse.Namespace(
            workload=name, seed=7, seconds=1, trace=0, tiny=True),
            corrupt=True)
        if not mismatches or out["correct"] or not out["failed"]:
            problems.append("%s: corrupted reference not caught: %s" % (
                name, out))
        print("selftest: %s done" % name, file=sys.stderr)
    for problem in problems:
        print("selftest: FAIL " + problem)
    print("selftest: %s" % ("ok" if not problems else "failed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    args.tiny = False  # the self-test's size only
    try:
        build()
    except SetupError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    gc.disable()  # no collector pauses inside timed requests
    out, mismatches = run(args)
    print(json.dumps(out))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
