#!/usr/bin/env python3
"""The repository benchmark: builds the release binaries from source,
drives them with seeded workloads, checks every answer, and prints one
JSON result line.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

Run it from the repository root. Workloads (see perfbench/README.md):

  serve-warm   2 closed-loop connections to one warm cq-serve, analyze
  entropy-lp   cycle-fd k = 9, 10 analyze requests (entropy LPs)
  datacheck    one cq-analyze --json --db process per check

With --trace 0 the result carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced run (serve-warm
with CQ_TRACE off and on, plus the in-process probe under
perfbench/probe). Scratch files live under .bench_tmp/ and build output
under $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

WORKLOADS = ("serve-warm", "entropy-lp", "datacheck")
TMP_ROOT = ".bench_tmp"
THREADS = "2"
SETUP_REPS = 31
READY_TIMEOUT_S = 30.0
ENTROPY_EXPECTED = {9: ("4", "4"), 10: ("5", None), 11: ("5", None)}
CAL_LOOP = 30_000  # iterations of the machine-speed loop
CAL_REF_S = 0.002  # the loop's best time on the tuning VM
PAUSE_S = 0.25  # load between two machine-speed samples


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


class Speed:
    """Samples of how fast the machine runs: the best of three runs of a
    fixed pure-CPU loop, taken before, between and after stretches of
    load. On a shared VM the host's speed drifts by tens of percent within
    seconds, and a request's latency follows the loop's time measured
    next to it (correlation 0.93 on entropy-lp). A time measured in a
    stretch is scaled by CAL_REF_S over the mean of the two samples around
    it: to what it would be on a machine where the loop takes CAL_REF_S.
    Parent and change are scaled alike, so a change to the program moves
    a scaled time by the same share as a raw one."""

    def __init__(self):
        self.samples = []

    def sample(self):
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            x = 0
            for i in range(CAL_LOOP):
                x += i * i
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        self.samples.append(best)

    def stretch(self):
        """The index of the stretch of load that starts now; the sample
        before it must have been taken."""
        return len(self.samples)

    def scaled(self, seconds, stretch):
        """`seconds` measured in `stretch`, once the sample after it is in."""
        around = self.samples[stretch - 1 : stretch + 1]
        return seconds * CAL_REF_S / statistics.mean(around)

    def timed(self, fn):
        """Runs `fn` between two samples; returns its result and its
        scaled duration."""
        self.sample()
        stretch = self.stretch()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.sample()
        return result, self.scaled(dt, stretch)


class Unscaled(Speed):
    """Leaves times as measured and spends nothing on samples: for the
    traced run, whose probe times are raw too."""

    def sample(self):
        self.samples.append(CAL_REF_S)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def ok(self, good, note, n=1):
        """Records `n` operations that all had the outcome `good`."""
        self.attempted += n
        if not good:
            self.failed += n
            if len(self.notes) < 10:
                self.notes.append(note)
        return good


# --- build --------------------------------------------------------------


def build():
    """Builds cq-serve, cq-analyze and the probe; returns their paths."""
    for need in ("Cargo.toml", "src/bin/cq-serve.rs", "src/bin/cq-analyze.rs", "crates"):
        if not os.path.exists(need):
            raise BenchError("not a checkout of the repository (missing %s)" % need)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    steps = [
        ["cargo", "build", "--release", "--quiet", "--bin", "cq-serve", "--bin", "cq-analyze"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/probe/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    release = os.path.join(target, "release")
    return {
        name: os.path.join(release, name)
        for name in ("cq-serve", "cq-analyze", "perfbench-probe")
    }


# --- processes ----------------------------------------------------------


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def child_env(trace_file=None):
    """The environment for the program under test: CQ_TRACE only when
    the benchmark asks for spans, never inherited."""
    env = dict(os.environ)
    env.pop("CQ_TRACE", None)
    if trace_file:
        env["CQ_TRACE"] = trace_file
    return env


LIVE = []  # daemons not yet stopped, stopped by main() however a run ends


class Daemon:
    """One cq-serve on a Unix socket, accepting once constructed."""

    def __init__(self, binary, workdir, trace_file=None):
        self.sock_path = os.path.join(workdir, "serve.sock")
        self.log = open(os.path.join(workdir, "serve.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", self.sock_path, "--threads", THREADS],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
            env=child_env(trace_file),
        )
        LIVE.append(self)
        while True:
            try:
                self.connect().close()
                break
            except OSError:
                if self.proc.poll() is not None:
                    raise BenchError("cq-serve exited with %s" % self.proc.returncode)
                if time.perf_counter() - start > READY_TIMEOUT_S:
                    raise BenchError("cq-serve not ready")
                time.sleep(0.0005)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock_path)
        except OSError:
            s.close()
            raise
        return Conn(s)

    def peak_rss_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self in LIVE:
            LIVE.remove(self)


class Conn:
    """A line-oriented client connection."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def lines(self):
        """Reads what is available; returns the complete lines."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk
        *done, self.buf = self.buf.split(b"\n")
        return done

    def request(self, line):
        self.send(line)
        while True:
            got = self.lines()
            if got:
                if len(got) != 1 or self.buf:
                    raise BenchError("unexpected extra response lines")
                return got[0]

    def close(self):
        self.sock.close()


def closed_loop(conns, next_line, seconds, on_response, speed, whole=1):
    """Each connection keeps exactly one request in flight until the
    deadline, and on past it until the number sent is a multiple of
    `whole` (so a run covers whole rounds of a request cycle; `whole` > 1
    needs a single connection). Every PAUSE_S the load drains and `speed`
    takes a sample. Latency runs from send to the response line; returns
    (meta, scaled latency) per request, in the order answered."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    sent, timed = {}, []
    count = 0
    deadline = time.perf_counter() + seconds

    def send(c):
        nonlocal count
        count += 1
        meta, line = next_line()
        sent[c] = (meta, time.perf_counter())
        c.send(line)

    speed.sample()
    while time.perf_counter() < deadline or count % whole:
        stretch = speed.stretch()
        pause_at = time.perf_counter() + PAUSE_S
        for c in conns:
            send(c)
        while sent:
            for key, _ in sel.select():
                c = key.data
                for resp in c.lines():
                    now = time.perf_counter()
                    meta, t0 = sent.pop(c)
                    on_response(meta, resp)
                    timed.append((meta, now - t0, stretch))
                    if now < pause_at and (now < deadline or count % whole):
                        send(c)
        speed.sample()
    sel.close()
    return [(meta, speed.scaled(dt, stretch)) for meta, dt, stretch in timed]


def exponent_of(resp):
    sb = resp.get("report", {}).get("size_bound")
    return sb["exponent"] if sb else None


def split_reps(reps):
    """Set-up repetitions before and after the timed phase. Split so, the
    median set-up time spans the run, not one moment of the host's
    drifting speed; the timed phase uses the last daemon set up before."""
    return reps // 2 + 1, reps - reps // 2 - 1


def repeat_set_up(set_up, reps, keep=False):
    """Runs `set_up`, which returns (daemon or None, scaled seconds),
    `reps` times and stops each daemon but, with `keep`, the last;
    returns that one (else None) and the times."""
    daemon, times = None, []
    for _ in range(reps):
        if daemon:
            daemon.stop()
        daemon, dt = set_up()
        times.append(dt)
    if daemon and not keep:
        daemon.stop()
        daemon = None
    return daemon, times


def spawner(bins, workdir, speed):
    """A set-up that starts a daemon: spawn until the socket accepts."""
    return lambda: speed.timed(lambda: Daemon(bins["cq-serve"], workdir))


# --- workloads ----------------------------------------------------------


def serve_warm(bins, workdir, seed, seconds, tally, speed, trace_file=None, setup_reps=SETUP_REPS):
    """Set-up: spawn + one analyze per class (the warm-up pass), median
    of `setup_reps` fresh daemons. Timed: 2 closed-loop connections."""
    classes, warmup, requests = W.serve_warm(seed)
    known = {}

    def start():
        d = Daemon(bins["cq-serve"], workdir, trace_file)
        conn = d.connect()
        answers = [conn.request(line) for line in warmup]
        conn.close()
        return d, answers

    def set_up():
        (daemon, answers), dt = speed.timed(start)
        for c, raw in enumerate(answers):
            resp = json.loads(raw)
            e = exponent_of(resp)
            q = classes[c]
            lo, hi = W.exponent_bounds(q)
            good = resp.get("ok") and e is not None
            if good:
                good = (Fraction(e) == q.exponent) if q.exponent is not None else lo <= Fraction(e) <= hi
                good = good and known.setdefault(c, e) == e
            tally.ok(good, "warm-up %s: %s" % (q.name, e))
        return daemon, dt

    before, after = split_reps(setup_reps)
    daemon, setups = repeat_set_up(set_up, before, keep=True)
    conns = [daemon.connect() for _ in range(2)]
    # Responses to one request line differ only in id, micros and
    # cache_stats, all outside the span from "ok" to "micros" (the
    # envelope order of docs/PROTOCOL.md). Counting distinct spans keeps
    # every answer checked without parsing or holding each one while
    # the clock runs.
    distinct = {}
    state = {"i": 0, "last": None}

    def next_line():
        line, c = requests[state["i"] % len(requests)]
        state["i"] += 1
        return c, line

    def on_response(c, raw):
        lo, hi = raw.find(b'"ok":'), raw.rfind(b',"micros":')
        key = (c, raw[lo:hi] if 0 <= lo < hi else raw)
        distinct[key] = distinct.get(key, 0) + 1
        state["last"] = raw

    timed = closed_loop(conns, next_line, seconds, on_response, speed)
    rss = daemon.peak_rss_mb()
    for c in conns:
        c.close()
    daemon.stop()
    setups += repeat_set_up(set_up, after)[1]
    for (c, body), n in distinct.items():
        resp = json.loads(b"{" + body + b"}" if body.startswith(b'"ok":') else body)
        good = resp.get("ok") and exponent_of(resp) == known.get(c)
        tally.ok(good, "serve %s" % classes[c].name, n)
    log("serve-warm: %d requests, cache %s" % (len(timed), json.loads(state["last"])["cache_stats"]))
    return {
        "latencies": [dt for _, dt in timed],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


def entropy_lp(bins, workdir, seed, seconds, tally, speed):
    """Set-up: spawn until accepting, median of SETUP_REPS. Timed: one
    connection, one cycle-fd request at a time, whole rounds of k."""
    before, after = split_reps(SETUP_REPS)
    spawn = spawner(bins, workdir, speed)
    daemon, setups = repeat_set_up(spawn, before, keep=True)
    conn = daemon.connect()
    plan = W.entropy_rounds(seed, 256)
    state = {"i": 0}

    def next_line():
        k, text = plan[state["i"] % len(plan)]
        state["i"] += 1
        return k, W.analyze_line(state["i"], text)

    def on_response(k, raw):
        resp = json.loads(raw)
        rep = resp.get("report", {})
        ent = rep.get("entropy") or {}
        st = rep.get("solver_stats") or {}
        color, exponent = ENTROPY_EXPECTED[k]
        good = (
            resp.get("ok")
            and ent.get("color_number") == color
            and ent.get("exponent") == exponent
            and st.get("hybrid_solves", 0) > 0
            and st.get("float_verified", 0) == st.get("hybrid_solves")
            and st.get("exact_fallbacks") == 0
        )
        tally.ok(good, "cycle-fd-%d: %s %s" % (k, ent, st))

    timed = closed_loop([conn], next_line, seconds, on_response, speed, whole=len(W.TIMED_ENTROPY_KS))
    rss = daemon.peak_rss_mb()
    conn.close()
    daemon.stop()
    setups += repeat_set_up(spawn, after)[1]
    return {
        "latencies": [dt for _, dt in timed],
        "kinds": [k for k, _ in timed],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


def run_analyze(binary, args):
    """Runs cq-analyze; returns (seconds, exit status, stdout, max RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [binary] + args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env()
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, out, usage.ru_maxrss / 1024.0


def write_datacheck_inputs(workdir, seed):
    pairs = []
    for shape, program, db in W.datacheck(seed):
        qpath = os.path.join(workdir, shape + ".cq")
        dpath = os.path.join(workdir, shape + ".db")
        with open(qpath, "w") as f:
            f.write(program)
        with open(dpath, "w") as f:
            f.write(db)
        pairs.append({"shape": shape, "query": program, "query_path": qpath, "db": dpath})
    return pairs


def reference_counts(bins, pairs):
    """|Q(D)| per pair from evaluate_wcoj, in the probe's process."""
    spec = "".join(json.dumps({"query": p["query"], "db": p["db"]}) + "\n" for p in pairs)
    out = subprocess.run(
        [bins["perfbench-probe"], "counts"],
        input=spec.encode(),
        stdout=subprocess.PIPE,
    )
    if out.returncode != 0:
        raise BenchError("probe counts failed")
    return json.loads(out.stdout)["counts"]


def datacheck(bins, workdir, seed, seconds, tally, speed):
    """Set-up: one cq-analyze --json run without data (process start and
    analysis), median of SETUP_REPS. Timed: sequential data checks in
    whole rounds over the shapes, `speed` sampled after each."""
    pairs = write_datacheck_inputs(workdir, seed)
    counts = reference_counts(bins, pairs)
    speed.sample()

    def set_up():
        stretch = speed.stretch()
        dt, code, _, _ = run_analyze(bins["cq-analyze"], ["--json", pairs[0]["query_path"]])
        speed.sample()
        tally.ok(code == 0, "setup exit %d" % code)
        return None, speed.scaled(dt, stretch)

    before, after = split_reps(SETUP_REPS)
    setups = repeat_set_up(set_up, before)[1]
    order = W.datacheck_order(seed, 400, len(pairs))
    latencies, rss = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) % len(pairs):
        j = order[len(latencies) % len(order)]
        p = pairs[j]
        stretch = speed.stretch()
        dt, code, out, maxrss = run_analyze(
            bins["cq-analyze"], ["--json", "--db", p["db"], p["query_path"]]
        )
        speed.sample()
        latencies.append(speed.scaled(dt, stretch))
        rss.append(maxrss)
        good = code == 0
        if good:
            data = json.loads(out.splitlines()[0]).get("data") or {}
            good = (
                data.get("measured") == counts[j]
                and data.get("fds_hold") is True
                and data.get("exact_holds") is True
                and data.get("product_holds") is True
            )
        tally.ok(good, "datacheck %s" % p["shape"])
    setups += repeat_set_up(set_up, after)[1]
    return {
        "latencies": latencies,
        "kinds": order[: len(latencies)],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }


RUNNERS = {
    "serve-warm": serve_warm,
    "entropy-lp": entropy_lp,
    "datacheck": datacheck,
}


def typical_latency(latencies, kinds=None):
    """The median latency. Where a workload cycles through a few request
    kinds whose latencies form separate clusters, the geometric mean of
    the per-kind medians instead: a plain median of such a mixture jumps
    between clusters from run to run and ignores the slowest kinds."""
    if kinds is None:
        return statistics.median(latencies)
    by_kind = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    return statistics.geometric_mean(statistics.median(v) for v in by_kind.values())


def end_to_end(bins, workdir, workload, seed, seconds, tally):
    speed = Speed()
    r = RUNNERS[workload](bins, workdir, seed, seconds, tally, speed)
    log("%s: machine-speed loop median %.3f ms over %d samples (reference %.3f ms)"
        % (workload, statistics.median(speed.samples) * 1e3, len(speed.samples), CAL_REF_S * 1e3))
    return {
        "latency_p50_ms": (typical_latency(r["latencies"], r.get("kinds")) * 1e3, "ms"),
        "setup_s": (r["setup_s"], "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


# --- traced run ---------------------------------------------------------


def traced(bins, workdir, seed, seconds, tally):
    """serve-warm with CQ_TRACE off and on in four quarter-run segments
    (off, on, on, off, so a steady drift of machine speed cancels), then
    the in-process probe over every workload's generated inputs."""
    spans = os.path.join(workdir, "serve.ndjson")
    pools = {False: [], True: []}
    speed = Unscaled()
    for traced_segment in (False, True, True, False):
        r = serve_warm(
            bins,
            workdir,
            seed,
            seconds / 4,
            tally,
            speed,
            trace_file=spans if traced_segment else None,
            setup_reps=1,
        )
        pools[traced_segment] += r["latencies"]
    p50_off = statistics.median(pools[False])
    p50_on = statistics.median(pools[True])

    inputs = write_probe_inputs(workdir, seed)
    probe_spans = os.path.join(workdir, "probe.ndjson")
    out = subprocess.run(
        [bins["perfbench-probe"], "layers", inputs, str(seconds), probe_spans],
        stdout=subprocess.PIPE,
    )
    if out.returncode != 0:
        raise BenchError("probe layers failed")
    probe = json.loads(out.stdout)
    tally.attempted += probe["attempted"]
    tally.failed += probe["failed"]
    tally.notes += probe["notes"][:10]
    metrics = dict(probe["metrics"])
    handle_us = metrics["engine.serve.handle_line_us"][0]
    metrics["engine.serve.transport_us"] = (p50_off * 1e6 - handle_us, "us")
    metrics["telemetry.trace_overhead_frac"] = (p50_on / p50_off - 1.0, "fraction")
    keep = os.path.join(TMP_ROOT, "last-trace")
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    for path in (spans, probe_spans):
        if os.path.exists(path):
            shutil.copy(path, keep)
    return metrics


def write_jsonl(path, values):
    with open(path, "w") as f:
        for v in values:
            f.write(json.dumps(v) + "\n")


def write_probe_inputs(workdir, seed):
    """The probe's inputs, one JSON-lines file per list, in a new
    directory; returns its path."""
    d = os.path.join(workdir, "probe-inputs")
    os.makedirs(d)
    classes, _, requests = W.serve_warm(seed)
    _, texts = W.batch_cold(seed)
    expected = []
    for k in W.ENTROPY_KS:
        color, exponent = ENTROPY_EXPECTED[k]
        # One line per LP, in the probe's order: 6.10, then 6.9 if solved.
        expected.append("6.10 k=%d: %s" % (k, color))
        if exponent:
            expected.append("6.9 k=%d: %s" % (k, exponent))
    files = {
        "serve_classes": [q.text() for q in classes],
        "serve_requests": [json.loads(line) for line, _ in requests[: W.PROBE_ROUND]],
        "batch_texts": texts,
        "entropy_small": [W.cycle_fd(k).text() for k in W.SMALL_ENTROPY_KS],
        "entropy_programs": [W.cycle_fd(k).text() for k in W.ENTROPY_KS],
        "entropy_expected": expected,
        "datacheck": [
            {"shape": p["shape"], "query": p["query"], "db": p["db"]}
            for p in write_datacheck_inputs(workdir, seed)
        ],
    }
    for name, values in files.items():
        write_jsonl(os.path.join(d, name + ".jsonl"), values)
    return d


# --- main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bins = build()
    except BenchError as e:
        log("error:", e)
        return 2
    workdir = os.path.join(TMP_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(bins, workdir, args.seed, args.seconds, tally)
        else:
            metrics = end_to_end(bins, workdir, args.workload, args.seed, args.seconds, tally)
    except BenchError as e:
        log("error:", e)
        return 3
    finally:
        for daemon in list(LIVE):
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        log("check failed:", note)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
