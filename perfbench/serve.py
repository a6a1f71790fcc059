"""The serve-mixed workload: a `momsim serve` daemon on an ephemeral
loopback port, driven by a closed loop of client threads."""

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time

import mix
from common import BenchError

# A job's status is polled this long after each answer.  A measuring
# choice, not recorded use: `momsim submit --wait` polls every 100 ms,
# which would round every 30 ms explore job up to a poll; 2 ms keeps the
# poll's share of a job's measured latency small.
POLL_S = 0.002
CLIENTS = 2
# The daemon's store keeps every blob it reads or fills in memory, so its
# RSS grows with the jobs it has done, and in a closed loop that number
# follows the host's speed.  Its peak RSS is therefore read when this many
# explore jobs have completed: the same work on every run of a seed, give
# or take the other client's job in flight.
RSS_AFTER_EXPLORES = 256


class Daemon:
    """One `momsim serve` child with its output in log files."""

    def __init__(self, momsim, store, logs):
        self.out_path = logs / "serve.out"
        self.err_path = logs / "serve.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [str(momsim), "--store", str(store), "serve", "--addr", "127.0.0.1:0"],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        self.host, self.port = None, None

    def wait_ready(self, timeout=60.0):
        """Waits for the bound address, then for `/healthz` to answer."""
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
        while self.port is None:
            found = pattern.search(self.out_path.read_text(errors="replace"))
            if found:
                self.host, self.port = "127.0.0.1", int(found.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"daemon did not start: {self.err_path.read_text()[-400:]}")
            else:
                time.sleep(0.001)
        while True:
            try:
                status, _, _ = request(self.host, self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("daemon never answered /healthz")
            time.sleep(0.001)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def cpu_seconds(self):
        """User plus system CPU time the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def shutdown(self):
        """Drains the daemon; kills it if it does not exit. Always reaps."""
        if self.proc.poll() is None and self.port is not None:
            try:
                request(self.host, self.port, "POST", "/shutdown", timeout=10)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        return self.proc.returncode


def request(host, port, method, path, body=None, timeout=60):
    """One HTTP request; returns (status, body bytes, seconds)."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start
    finally:
        conn.close()


class Ledger:
    """What the clients saw: samples per operation kind, failures, the
    documents needed for the traced run, and (when tracing) request spans."""

    def __init__(self, trace, origin):
        self.lock = threading.Lock()
        self.samples = {kind: [] for kind in ["explore", "replay", "report", "request", "healthz", "submit"]}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.instructions = 0
        self.scheduled = 0
        self.reused = 0
        # The daemon's own job timings, by job kind and stage.
        self.timings = {kind: {"dedup_ms": [], "queue_wait_ms": [], "simulate_ms": [], "emit_ms": []}
                        for kind in ["explore", "replay"]}
        self.explore_bodies = []
        self.reports = set()
        self.docs = []
        self.trace = trace
        self.origin = origin
        self.spans = []
        self.rss_daemon = None
        self.rss_mb = None

    def record(self, kind, seconds):
        with self.lock:
            self.samples[kind].append(seconds)
            probe = (kind == "explore" and self.rss_daemon is not None
                     and len(self.samples[kind]) == RSS_AFTER_EXPLORES)
        if probe:
            self.rss_mb = self.rss_daemon.peak_rss_mb()

    def span(self, client, name, start, seconds):
        if self.trace:
            with self.lock:
                self.spans.append({
                    "name": name, "cat": "serve", "ph": "X", "pid": 3, "tid": client,
                    "ts": (start - self.origin) * 1e6, "dur": seconds * 1e6,
                })

    def outcome(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(what)


class Client:
    def __init__(self, daemon, ledger, expected, client, ops):
        self.host, self.port = daemon.host, daemon.port
        self.ledger = ledger
        self.expected = expected
        self.client = client
        self.ops = ops

    def call(self, method, path, body=None, kind="request", name=None):
        start = time.perf_counter()
        try:
            status, data, seconds = request(self.host, self.port, method, path, body)
        except OSError as e:
            self.ledger.outcome(False, f"{method} {path}: {e}")
            return None, b""
        self.ledger.span(self.client, name or f"{method} {path}", start, seconds)
        if kind:
            self.ledger.record(kind, seconds)
        ok = 200 <= status < 300
        self.ledger.outcome(ok, f"{method} {path}: HTTP {status} {data[:200]!r}")
        return (status if ok else None), data

    def job(self, body, label):
        """Submits a job and polls it until it ends; returns the final
        document, or None when any request failed."""
        start = time.perf_counter()
        status, data = self.call("POST", "/jobs", body, kind="submit", name="POST /jobs")
        if status is None:
            return None, 0.0
        job = json.loads(data)["job"]
        while True:
            time.sleep(POLL_S)
            status, data = self.call("GET", f"/jobs/{job}", name="GET /jobs/<id>")
            if status is None:
                return None, 0.0
            doc = json.loads(data)
            if doc["state"] != "running":
                seconds = time.perf_counter() - start
                self.ledger.span(self.client, f"job {label}", start, seconds)
                return (doc, data), seconds

    def explore(self, body):
        result, seconds = self.job(body, "explore")
        if result is None:
            return
        doc, data = result
        problems = job_problems(doc)
        if doc["scheduled"] + doc["reused"] != doc["points"]:
            problems.append("scheduled + reused != points")
        self.finish_job(doc, data, seconds, "explore", problems)
        with self.ledger.lock:
            self.ledger.explore_bodies.append(json.dumps(body))

    def replay(self, name):
        result, seconds = self.job({"experiment": name}, "replay")
        if result is None:
            return
        doc, data = result
        problems = job_problems(doc)
        if doc["scheduled"] != 0 or doc["reused"] != doc["points"]:
            problems.append(f"replay not fully deduplicated: scheduled {doc['scheduled']}")
        problems += self.expected.row_problems(name, doc["rows"])
        self.finish_job(doc, data, seconds, "replay", problems)

    def finish_job(self, doc, data, seconds, kind, problems):
        self.ledger.outcome(not problems, f"{kind} job {doc['job']}: {'; '.join(problems)}")
        if problems:
            return
        self.ledger.record(kind, seconds)
        with self.ledger.lock:
            self.ledger.scheduled += doc["scheduled"]
            self.ledger.reused += doc["reused"]
            self.ledger.instructions += sum(row.get("instructions", 0) for row in doc["rows"])
            for key, values in self.ledger.timings[kind].items():
                values.append(doc["timings"][key])
            if len(self.ledger.docs) < 64:
                self.ledger.docs.append(data.decode())

    def report(self, name):
        status, data = self.call("GET", f"/reports/{name}", kind="report", name="GET /reports/<name>")
        if status is not None:
            ok = data == self.expected.report_bytes(name)
            self.ledger.outcome(ok, f"report {name} differs from the committed file")
            with self.ledger.lock:
                self.ledger.reports.add(name)

    def run(self, deadline):
        """Runs the client's next operations until `deadline`; the stream
        goes on where it stopped at the next call."""
        while time.perf_counter() < deadline:
            op = next(self.ops)
            try:
                self.step(op)
            except (ValueError, KeyError, TypeError) as e:
                # A malformed answer (bad JSON, a missing field) is a failure.
                self.ledger.outcome(False, f"{op[0]}: {e!r}")

    def step(self, op):
        kind = op[0]
        if kind == "explore":
            self.explore(op[1])
        elif kind == "replay":
            self.replay(op[1])
        elif kind == "report":
            self.report(op[1])
        elif kind == "list":
            status, data = self.call("GET", "/jobs")
            if status is not None:
                json.loads(data)["jobs"]
        else:
            self.call("GET", "/healthz", kind="healthz")


def job_problems(doc):
    problems = []
    if doc["state"] != "done":
        problems.append(f"state {doc['state']}")
    if doc["completed"] != doc["points"] or doc["failed"] != 0:
        problems.append(f"completed {doc['completed']} of {doc['points']}, failed {doc['failed']}")
    if doc["errors"]:
        problems.append(f"errors {doc['errors'][:2]}")
    return problems


class ClosedLoop:
    """The client threads against one daemon, each with its seeded
    operation stream.  `run` may be called several times: the streams
    continue, and `window` adds up the time the clients ran."""

    def __init__(self, daemon, expected, seed, trace):
        self.ledger = Ledger(trace, time.perf_counter())
        self.ledger.rss_daemon = daemon
        self.clients = [Client(daemon, self.ledger, expected, c, mix.operations(seed, c))
                        for c in range(CLIENTS)]
        self.window = 0.0

    def run(self, seconds):
        start = time.perf_counter()
        threads = [threading.Thread(target=c.run, args=(start + seconds,)) for c in self.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.window += time.perf_counter() - start



def scrape(daemon):
    """The daemon's `/metrics` counters, as {series: value}."""
    status, data, _ = request(daemon.host, daemon.port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    values = {}
    for line in data.decode().splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            values[series] = float(value)
    return values


def metric_sum(values, prefix):
    return sum(v for k, v in values.items() if k == prefix or k.startswith(prefix + "{"))
