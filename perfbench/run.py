#!/usr/bin/env python3
"""momsim's benchmark: three workloads against the release `momsim` binary.

    python3 perfbench/run.py --workload sweep-cold|sweep-warm|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a momsim checkout; it builds `momsim` and the
per-layer ledger (`perfbench/layers`) into $CARGO_TARGET_DIR (default
`.bench_build`) and works in `.bench_work/`, which it removes on exit.

--trace 0 measures the end-to-end metrics with nothing traced.  A small
host-speed probe (`perfbench-calib`, from the same package) runs next to
every measured operation and set-up, and the bounded times are scaled by it
to a reference host speed; the raw times are printed as well.  --trace 1
makes the separate traced run: it times the calls into each layer's public
functions from the benchmark's own code, writes them as Chrome trace events
to `.bench_work/perfbench-<workload>-<seed>.trace.json` (kept; open it in
Perfetto) and prints a per-layer self-time table.  Either way the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import re
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import serve  # noqa: E402
from common import BenchError, log  # noqa: E402

WORKLOADS = ["sweep-cold", "sweep-warm", "serve-mixed"]
# Set-ups per run: one before the window, the others spread through it (see
# Window).
SETUPS = 15
WARM_BATCH = 10
# serve-mixed's longest stretch of client load between two probes.
STRETCH_S = 1.0

COLD_LINE = re.compile(r"^store: (\d+) hits, (\d+) fills$", re.M)
WARM_LINE = re.compile(r"^store: 100% store hits \((\d+) artifacts reused, 0 recomputed\)$", re.M)

# The bounded end-to-end metrics.  The times are scaled to the reference
# speed of the host-speed probe (common.probe): the shared host's speed
# drifts by tens of percent between runs, and raw times, tails, throughputs
# and sim_minstr_per_s, printed in the text output, drift with it.
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.norm", "ms"),
    ("cpu_ms_per_op.norm", "ms"),
    ("peak_rss_mb", "MB"),
]


class Expected:
    """The committed reports, and the field checks of replayed job rows
    against them."""

    def __init__(self, root):
        self.bytes = {name: (root / name).read_bytes() for name in common.REPORTS}
        self.docs = {name: json.loads(data) for name, data in self.bytes.items()}

    def report_bytes(self, name):
        return self.bytes[f"BENCH_{name}.json"]

    def row_problems(self, experiment, rows):
        """Checks each replayed row against the committed report's value for
        the same coordinate; returns the mismatches."""
        by_key = {}
        for row in rows:
            by_key[(row.get("kernel"), row.get("isa"), row.get("config"))] = row
        problems = []

        def check(what, got, want):
            if got != want:
                problems.append(f"{experiment} {what}: {got!r} != committed {want!r}")

        if experiment == "fig4":
            for p in self.docs["BENCH_fig4.json"]["points"]:
                config = [1, 2, 4, 8].index(p["width"])
                base = by_key[(p["kernel"], "Alpha", config)]["cycles_per_invocation"]
                mine = by_key[(p["kernel"], p["isa"], config)]["cycles_per_invocation"]
                check(f"{p['kernel']}/{p['isa']}/{p['width']} speedup", base / mine, p["speedup"])
        elif experiment == "fig5":
            memories = ["1", "12", "50", "cache"]
            for p in self.docs["BENCH_fig5.json"]["points"]:
                row = by_key[(p["kernel"], p["isa"], memories.index(p["memory"]))]
                for field in ["cycles_per_invocation", "l1_mpki", "l2_mpki"]:
                    check(f"{p['kernel']}/{p['isa']}/{p['memory']} {field}", row[field], p[field])
        elif experiment == "tables":
            for p in self.docs["BENCH_tables.json"]["rows"]:
                row = by_key[(p["kernel"], p["isa"], 0)]
                for field in ["ipc", "opi"]:
                    check(f"{p['kernel']}/{p['isa']} {field}", row[field], p[field])
        elif experiment in ("ablation-lanes", "ablation-rob"):
            series = self.docs["BENCH_ablations.json"]["lanes" if experiment == "ablation-lanes" else "rob"]
            seen = {}
            for p in series["points"]:
                config = seen.get(p["kernel"], 0)
                seen[p["kernel"]] = config + 1
                check(f"{p['kernel']}/{p['value']} MOM", by_key[(p["kernel"], "MOM", config)]["cycles_per_invocation"], p["mom_cycles"])
                check(f"{p['kernel']}/{p['value']} MMX", by_key[(p["kernel"], "MMX", config)]["cycles_per_invocation"], p["mmx_cycles"])
        elif experiment == "app-speedups":
            check("rows", rows, self.docs["BENCH_apps.json"]["points"])
        if len(problems) > 3:
            problems = problems[:3] + [f"... {len(problems) - 3} more"]
        return problems


class Outcome:
    """Counts operations and failures for `attempted`/`failed`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return ok


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def blob_count(store):
    return sum(1 for ns in ["result", "trace"] for _ in (store / ns).glob("*.bin"))


class Sweeper:
    """Runs `momsim sweep` and checks its outputs. `store` is None for a
    sweep with the store disabled (`--cold`); otherwise `fill` says whether
    the store starts empty (every artifact filled) or full (every one
    reused)."""

    def __init__(self, momsim, expected, scratch, outcome):
        self.momsim = momsim
        self.expected = expected
        self.scratch = scratch
        self.outcome = outcome
        self.counts = {}

    def sweep(self, store, fill=False):
        """One sweep; returns (wall seconds, CPU seconds, peak RSS MB).
        Failures are counted."""
        out = self.scratch.fresh("out")
        where = ["--cold"] if store is None else ["--store", store]
        code, seconds, cpu, rss, output = common.run_child(
            [self.momsim, *where, "sweep", "--out-dir", out], out / "log")
        problems = [] if code == 0 else [f"exit {code}: {output[-300:]}"]
        for name, data in self.expected.bytes.items():
            path = out / name
            if not path.is_file() or path.read_bytes() != data:
                problems.append(f"{name} differs from the committed report")
        if store is None:
            if "store: disabled (--cold)" not in output:
                problems.append("no 'store: disabled (--cold)' line")
        elif fill:
            found = COLD_LINE.search(output)
            if not found:
                problems.append("no 'store: N hits, M fills' line")
            else:
                fills = int(found.group(2))
                # Every fill is one blob: a grid point or a functional trace.
                if fills != blob_count(store):
                    problems.append(f"{fills} fills but {blob_count(store)} blobs on disk")
                problems += self.drift("fills", fills) + self.drift("hits", int(found.group(1)))
        else:
            found = WARM_LINE.search(output)
            if not found:
                problems.append("warm sweep recomputed something (no '100% store hits' line)")
            else:
                problems += self.drift("reuses", int(found.group(1)))
        self.outcome.check(not problems, "; ".join(problems))
        shutil.rmtree(out, ignore_errors=True)
        return seconds, cpu, rss

    def drift(self, what, value):
        first = self.counts.setdefault(what, value)
        return [] if first == value else [f"store {what} drifted: {value} after {first}"]


class Window:
    """The measured window of a run, with set-up samples spread through it.

    A set-up is timed `setups` times in a run: once before the window opens
    and once more each time another 1/`setups` of the window has passed, so
    that `setup_s` averages over the run's whole span, as the operation
    samples do, and a few seconds of a busy host do not decide it.  Time
    spent in those set-ups does not count towards the window, and no
    operation sample spans one."""

    def __init__(self, seconds, setups):
        self.seconds = seconds
        self.setups = setups
        self.taken = 1
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start - self.paused

    def open(self):
        return self.elapsed() < self.seconds

    def next_mark(self):
        """Window time at which the next set-up is due, or its end."""
        if self.taken < self.setups:
            return self.taken * self.seconds / self.setups
        return self.seconds

    def setup_due(self):
        return self.taken < self.setups and self.elapsed() >= self.next_mark()

    def setup(self, make):
        """Runs the set-up `make` outside the window and returns its
        result."""
        try:
            return self.pause(make)
        finally:
            self.taken += 1

    def pause(self, make):
        """Runs `make` with the window's clock stopped and returns its
        result."""
        start = time.perf_counter()
        try:
            return make()
        finally:
            self.paused += time.perf_counter() - start


class Setups:
    """The run's set-ups, each timed between two probes of the host's
    speed: `setup_s` is their interquartile mean at the reference speed,
    as the operations' times are."""

    def __init__(self, probe):
        self.probe = probe
        self.seconds = []
        self.scaled = []

    def time(self, make):
        """Runs the set-up `make` and returns its result."""
        before = self.probe()
        start = time.perf_counter()
        result = make()
        seconds = time.perf_counter() - start
        self.seconds.append(seconds)
        after = self.probe()
        self.scaled.append(seconds * common.speed_scale(before.two_threads, after.two_threads))
        return result

    def metrics(self):
        return {
            "setup_s": common.interquartile_mean(self.scaled),
            "setup_s.raw": common.interquartile_mean(self.seconds),
            "setups": len(self.seconds),
        }


def probe_summary(probes):
    return {
        "probes": len(probes),
        "probe_ms": common.median([p.one_thread for p in probes]) * 1e3,
        "probe2_ms": common.median([p.two_threads for p in probes]) * 1e3,
    }


def setup_store(sweeper):
    """One set-up: an empty store and one sweep into it. Returns the
    store."""
    store = sweeper.scratch.fresh("store")
    sweeper.sweep(store, fill=True)
    return store


def union_instructions(momsim, scratch):
    """Simulated instructions of the evaluation's union grid (36 kernel/ISA
    streams on 7 machines each), read off one ad-hoc run's rows: the stream
    length does not depend on the machine."""
    out = scratch.fresh("instr")
    code, _, _, _, output = common.run_child(
        [momsim, "--cold", "run", "--widths", "4", "--json", out / "rows.json"], out / "log")
    if code != 0:
        raise BenchError(f"momsim run failed: {output[-300:]}")
    rows = json.loads((out / "rows.json").read_text())["points"]
    return 7 * sum(row["instructions"] for row in rows)


def sweep_workload(args, momsim, probe, expected, scratch, outcome):
    cold = args.workload == "sweep-cold"
    sweeper = Sweeper(momsim, expected, scratch, outcome)
    instructions = union_instructions(momsim, scratch)
    setups = Setups(probe)
    if cold:
        # A sweep-cold set-up: the output dirs and a warm-up sweep.
        def spare_setup():
            setups.time(lambda: sweeper.sweep(None))

        spare_setup()
        store = None
    else:
        def spare_setup():
            shutil.rmtree(setups.time(lambda: setup_store(sweeper)), ignore_errors=True)

        store = setups.time(lambda: setup_store(sweeper))
    window = Window(args.seconds, SETUPS)

    # One sample is one cold sweep, or the mean of WARM_BATCH back-to-back
    # warm sweeps: a warm sweep is short enough for a scheduler hiccup to
    # decide a single sample.
    batch = 1 if cold else WARM_BATCH
    samples, cpus, runs, probes = [], [], [], []
    while window.open() or len(samples) < 3:
        if window.setup_due():
            window.setup(spare_setup)
        # Each sample lies between two probes of the host's speed.
        probes.append(probe())
        batch_runs = [sweeper.sweep(store) for _ in range(batch)]
        runs += batch_runs
        samples.append(sum(r[0] for r in batch_runs) / batch)
        cpus.append(sum(r[1] for r in batch_runs) / batch)
    probes.append(probe())
    s = common.summary(samples)
    s["batch"] = batch
    return {
        **setups.metrics(),
        "sweep_s": s,
        "op_ms.iqm": s["iqm"] * 1e3,
        "cpu_ms_per_op": common.median(cpus) * 1e3,
        "op_ms.norm": common.interquartile_mean(
            common.normalised(samples, [p.two_threads for p in probes])) * 1e3,
        "cpu_ms_per_op.norm": common.median(
            common.normalised(cpus, [p.one_thread for p in probes])) * 1e3,
        **probe_summary(probes),
        "ops_per_s": len(runs) / sum(r[0] for r in runs),
        "sim_minstr_per_s": instructions / 1e6 / s["p50"],
        "peak_rss_mb": common.median([r[2] for r in runs]),
    }


def sweep_traced(args, momsim, layers, expected, scratch, outcome, root):
    cold = args.workload == "sweep-cold"
    sweeper = Sweeper(momsim, expected, scratch, outcome)
    store = None if cold else setup_store(sweeper)
    # The untraced wall time the layer spans are set against: sweeps for
    # half the run, as in the untraced workload.
    untraced = []
    deadline = time.perf_counter() + args.seconds / 2.0
    while time.perf_counter() < deadline or len(untraced) < 5:
        untraced.append(sweeper.sweep(store)[0])
    untraced_s = common.median(untraced)

    def replay(*flags):
        work = scratch.fresh("layers")
        where = ["--cold", "--store", work / "store"] if cold else ["--store", store]
        code, _, _, _, output = common.run_child(
            [layers, "sweep", *where, "--committed", root, "--scratch", work, *flags],
            work / "log")
        if code != 0:
            raise BenchError(f"perfbench-layers failed: {output[-500:]}")
        return json.loads(output.strip().splitlines()[-1])

    # The same replay with its spans switched off prices them: a second
    # process on an equivalent store.
    baseline = replay("--untraced")
    trace_path = trace_file(root, args)
    metrics = replay("--trace-out", trace_path)
    outcome.check(metrics.pop("replay.mismatched_reports") == 0,
                  "the traced replay's reports differ from the committed ones")
    events = json.loads(trace_path.read_text())["traceEvents"]
    replay_spans = common.span_events(events, 1)
    metrics["trace.coverage"] = common.covered_seconds(replay_spans) / untraced_s
    metrics["trace.overhead_s"] = metrics.pop("replay.wall_s") - baseline["replay.wall_s"]
    for name in SERVE_LAYER:
        metrics[name] = 0.0
    print_table(events, trace_path, untraced_s)
    return metrics


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

SERVE_LAYER = [
    "serve.healthz_ms.p50", "serve.submit_ms.p50", "serve.json.parse_mb_per_s",
    "serve.journal.append_us", "serve.dedup_ms", "serve.queue_wait_ms", "serve.simulate_ms",
    "serve.units_scheduled", "serve.units_reused", "serve.dedup_ratio", "serve.retries",
]


def serve_setup(momsim, expected, scratch, outcome):
    """One set-up: a filled store and a daemon answering `/healthz`."""
    sweeper = Sweeper(momsim, expected, scratch, outcome)
    store = setup_store(sweeper)
    daemon = serve.Daemon(momsim, store, scratch.fresh("daemon"))
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.shutdown()
        raise
    return daemon, store


def spare_serve_setup(momsim, expected, scratch, outcome):
    """One set-up thrown away: its daemon is drained and its store
    removed."""
    daemon, store = serve_setup(momsim, expected, scratch, outcome)
    outcome.check(daemon.shutdown() == 0, "daemon exited non-zero")
    shutil.rmtree(store, ignore_errors=True)


def merge(outcome, ledger):
    outcome.attempted += ledger.attempted
    outcome.failed += ledger.failed
    outcome.notes += ledger.failures


def serve_workload(args, momsim, probe, expected, scratch, outcome):
    setups = Setups(probe)
    daemon, _ = setups.time(lambda: serve_setup(momsim, expected, scratch, outcome))
    try:
        loop = serve.ClosedLoop(daemon, expected, args.seed, trace=False)
        window = Window(args.seconds, SETUPS)
        # The clients run in stretches of at most STRETCH_S, each between
        # two probes of the host's speed, and the set-ups fall between
        # stretches; the daemon under test idles while a set-up or a probe
        # runs, with the window's clock stopped.  After each stretch:
        # (explore jobs done, daemon CPU).
        marks = [(0, daemon.cpu_seconds())]
        probes = [probe()]
        while window.open():
            end = min(window.next_mark(), window.elapsed() + STRETCH_S)
            loop.run(max(0.0, end - window.elapsed()))
            probes.append(window.pause(probe))
            marks.append((len(loop.ledger.samples["explore"]), daemon.cpu_seconds()))
            if window.setup_due():
                window.setup(lambda: setups.time(
                    lambda: spare_serve_setup(momsim, expected, scratch, outcome)))
        ledger = loop.ledger
        merge(outcome, ledger)
        cpu = marks[-1][1] - marks[0][1]
        counters = serve.scrape(daemon)
        end_rss = daemon.peak_rss_mb()
        outcome.check(daemon.shutdown() == 0, "daemon did not drain cleanly")
    finally:
        daemon.shutdown()
    # The operation is the explore job, the one that computes: replay
    # jobs are quicker, and a median over both kinds would fall between
    # the two.
    jobs = ledger.samples["explore"]
    if not jobs:
        raise BenchError("no explore job completed in the window")
    s = common.summary(jobs)
    all_jobs = len(jobs) + len(ledger.samples["replay"])
    # Each stretch's explore jobs and daemon CPU time, scaled by the probes
    # around the stretch.
    scaled_jobs, scaled_cpu = [], 0.0
    for k in range(len(marks) - 1):
        before, after = probes[k], probes[k + 1]
        wall = common.speed_scale(before.two_threads, after.two_threads)
        scaled_jobs += [t * wall for t in jobs[marks[k][0]:marks[k + 1][0]]]
        cpu_scale = common.speed_scale(before.one_thread, after.one_thread)
        scaled_cpu += (marks[k + 1][1] - marks[k][1]) * cpu_scale
    return {
        **setups.metrics(),
        "op_ms.iqm": s["iqm"] * 1e3,
        "op_ms.norm": common.interquartile_mean(scaled_jobs) * 1e3,
        "ops_per_s": all_jobs / loop.window,
        "cpu_ms_per_op": cpu * 1e3 / all_jobs,
        "cpu_ms_per_op.norm": scaled_cpu * 1e3 / all_jobs,
        **probe_summary(probes),
        "sim_minstr_per_s": ledger.instructions / 1e6 / loop.window,
        # A run too short to reach the checkpoint falls back to the end.
        "peak_rss_mb": end_rss if ledger.rss_mb is None else ledger.rss_mb,
        "end_rss_mb": end_rss,
        "ledger": ledger,
        "evictions": serve.metric_sum(counters, "momsim_serve_unit_evictions_total"),
    }


def serve_half(args, momsim, expected, scratch, outcome, seconds, trace):
    """Half of the traced run: a fresh set-up and the closed loop at the
    run's seed, with the client spans on or off. Both halves therefore
    send the same requests to equivalent stores."""
    daemon, store = serve_setup(momsim, expected, scratch, outcome)
    try:
        before = serve.scrape(daemon)
        cpu = daemon.cpu_seconds()
        loop = serve.ClosedLoop(daemon, expected, args.seed, trace)
        loop.run(seconds)
        cpu = daemon.cpu_seconds() - cpu
        counters = serve.scrape(daemon)
        outcome.check(daemon.shutdown() == 0, "daemon did not drain cleanly")
    finally:
        daemon.shutdown()
    merge(outcome, loop.ledger)
    return {"ledger": loop.ledger, "window": loop.window, "cpu_s": cpu, "before": before,
            "counters": counters, "store": store}


def serve_traced(args, momsim, layers, expected, scratch, outcome, root):
    half = max(1.0, args.seconds / 2.0)
    untraced = serve_half(args, momsim, expected, scratch, outcome, half, trace=False)
    traced = serve_half(args, momsim, expected, scratch, outcome, half, trace=True)
    ledger, counters, before = traced["ledger"], traced["counters"], traced["before"]

    work = scratch.fresh("layers")
    (work / "work.json").write_text(json.dumps({
        "explore": ledger.explore_bodies,
        "reports": sorted(ledger.reports),
        "docs": ledger.docs,
    }))
    trace_path = trace_file(root, args)
    layer_trace = work / "layers.trace.json"
    code, _, _, _, output = common.run_child(
        [layers, "serve", "--store", traced["store"], "--work", work / "work.json",
         "--scratch", work, "--trace-out", layer_trace], work / "log")
    if code != 0:
        raise BenchError(f"perfbench-layers failed: {output[-500:]}")
    metrics = json.loads(output.strip().splitlines()[-1])
    events = json.loads(layer_trace.read_text())["traceEvents"] + ledger.spans
    common.write_trace(trace_path, events)

    def p50_ms(values):
        return common.median(values) * 1e3 if values else 0.0

    def jobs(half):
        return half["ledger"].samples["explore"] + half["ledger"].samples["replay"]

    units = ledger.scheduled + ledger.reused
    explore, replay = ledger.timings["explore"], ledger.timings["replay"]
    metrics.update({
        "kernels.run.calls": serve.metric_sum(counters, "momsim_functional_executions_total"),
        "store.fills": serve.metric_sum(counters, "momsim_store_fills_total"),
        "store.hit_ratio": hit_ratio(counters),
        "serve.healthz_ms.p50": p50_ms(ledger.samples["healthz"]),
        "serve.submit_ms.p50": p50_ms(ledger.samples["submit"]),
        # Replay jobs schedule nothing, so queue wait and simulation are
        # taken over the explore jobs.
        "serve.dedup_ms": median_or_zero(explore["dedup_ms"] + replay["dedup_ms"]),
        "serve.queue_wait_ms": median_or_zero(explore["queue_wait_ms"]),
        "serve.simulate_ms": median_or_zero(explore["simulate_ms"]),
        "serve.units_scheduled": float(ledger.scheduled),
        "serve.units_reused": float(ledger.reused),
        "serve.dedup_ratio": ledger.reused / units if units else 0.0,
        "serve.retries": serve.metric_sum(counters, "momsim_unit_retries_total"),
        "trace.coverage": daemon_coverage(untraced, metrics["bench.unit.us_per_point"]),
        "trace.overhead_s": common.median(jobs(traced)) - common.median(jobs(untraced))
        if jobs(traced) and jobs(untraced) else 0.0,
    })
    metrics["store.bytes_written"] = (serve.metric_sum(counters, "momsim_store_disk_bytes")
                                      - serve.metric_sum(before, "momsim_store_disk_bytes"))
    print(f"daemon: {untraced['cpu_s']:.4f} s CPU in the untraced half; its "
          f"{untraced['ledger'].scheduled} units at the directly timed cost, its dedup and its "
          f"row emission account for {metrics['trace.coverage']:.1%} of it")
    print_table(events, trace_path, traced["window"])
    return metrics


def median_or_zero(values):
    return common.median(values) if values else 0.0


def daemon_coverage(half, unit_us):
    """The share of the daemon's CPU time in an untraced half that the
    layers account for: the per-point units it scheduled, each at the cost
    `PointJob::compute` took when called directly (`unit_us`), plus the
    submit-time deduplication and row emission its job documents report.
    The rest is the accept loop, HTTP, JSON, status polls, reports and the
    journal."""
    ledger = half["ledger"]
    staged_ms = sum(sum(timings[key]) for timings in ledger.timings.values()
                    for key in ["dedup_ms", "emit_ms"])
    layer_s = ledger.scheduled * unit_us / 1e6 + staged_ms / 1e3
    return layer_s / half["cpu_s"] if half["cpu_s"] > 0 else 0.0


def hit_ratio(counters):
    hits = sum(v for k, v in counters.items()
               if k.startswith("momsim_store_lookups_total{") and "_hit\"" in k)
    lookups = serve.metric_sum(counters, "momsim_store_lookups_total")
    return hits / lookups if lookups else 0.0


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def trace_file(root, args):
    return root / ".bench_work" / f"perfbench-{args.workload}-{args.seed}.trace.json"


def print_table(events, trace_path, wall_s):
    """The per-layer self-time table: first the spans around the workload's
    own work (the in-process replay, or the client's requests and jobs)
    against the untraced wall time, then the direct calls on its items."""
    print(f"traced run written to {trace_path} (Chrome trace events; open in Perfetto)")
    spans = [e for e in events if e.get("ph") == "X"]
    sections = [
        ("workload spans", [e for e in spans if e["pid"] != 2 and not e["name"].startswith("job ")]),
        ("direct layer calls", [e for e in spans if e["pid"] == 2]),
    ]
    for title, chosen in sections:
        print(f"{title}: {'layer':<9} {'span':<24} {'calls':>7} {'self s':>10} {'share':>7}"
              f"   (of {wall_s:.4f} s untraced wall)")
        for cat, name, count, busy in common.self_time_table(chosen):
            share = f"{busy / wall_s:>7.1%}" if title == "workload spans" else ""
            print(f"{'':<{len(title) + 1}} {cat:<9} {name:<24} {count:>7} {busy:>10.4f} {share}")


def print_end_to_end(workload, m, outcome):
    """Every end-to-end metric that applies to the workload, bounded or
    not, with its unit."""
    rows = [(f"setup_s.raw (interquartile mean of {m['setups']})", m["setup_s.raw"], "s"),
            ("setup_s (at the reference speed)", m["setup_s"], "s")]
    if "sweep_s" in m:
        s = m["sweep_s"]
        per = f", means of {s['batch']}" if s["batch"] > 1 else ""
        rows += [(f"sweep_s.p50 (n={s['n']}{per})", s["p50"], "s"),
                 (f"sweep_s.tail (p{s['tail_q']} of {s['n']})", s["tail"], "s")]
        rows.append(("sweeps_per_s", m["ops_per_s"], "1/s"))
        rows.append(("sim_minstr_per_s" + ("" if workload == "sweep-cold" else " (delivered)"),
                     m["sim_minstr_per_s"], "Minstr/s"))
    else:
        ledger = m["ledger"]
        for label, kind, scale, unit, tail in [
            ("job_explore_s", ["explore"], 1.0, "s", True),
            ("job_replay_ms", ["replay"], 1e3, "ms", False),
            ("report_ms", ["report"], 1e3, "ms", False),
            ("req_ms", ["request", "healthz"], 1e3, "ms", True),
        ]:
            values = [v for k in kind for v in ledger.samples[k]]
            if not values:
                rows.append((f"{label}.p50", float("nan"), unit))
                continue
            s = common.summary(values)
            rows.append((f"{label}.p50 (n={s['n']})", s["p50"] * scale, unit))
            if tail:
                rows.append((f"{label}.tail (p{s['tail_q']} of {s['n']})", s["tail"] * scale, unit))
        rows.append(("jobs_per_s", m["ops_per_s"], "1/s"))
        rows.append(("sim_minstr_per_s (delivered)", m["sim_minstr_per_s"], "Minstr/s"))
        rows.append(("evicted units (LRU, --retain 1024)", m["evictions"], "count"))
    rows.append(("op_ms.iqm (interquartile mean)", m["op_ms.iqm"], "ms"))
    rows.append(("cpu_ms_per_op (momsim process)", m["cpu_ms_per_op"], "ms"))
    rows.append((f"probe_ms (one thread, median of {m['probes']})", m["probe_ms"], "ms"))
    rows.append(("probe2_ms (two threads)", m["probe2_ms"], "ms"))
    rows.append(("op_ms.norm (at the reference speed)", m["op_ms.norm"], "ms"))
    rows.append(("cpu_ms_per_op.norm (at the reference speed)", m["cpu_ms_per_op.norm"], "ms"))
    if "end_rss_mb" in m:
        at = "end of run" if m["ledger"].rss_mb is None else f"{serve.RSS_AFTER_EXPLORES} explore jobs"
        rows.append((f"peak_rss_mb (at {at})", m["peak_rss_mb"], "MB"))
        rows.append(("peak_rss_mb at the end of the run", m["end_rss_mb"], "MB"))
    else:
        rows.append(("peak_rss_mb", m["peak_rss_mb"], "MB"))
    rows.append(("error_rate", outcome.failed / max(1, outcome.attempted), "ratio"))
    print(f"{workload}: {outcome.attempted} operations, {outcome.failed} failed")
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        common.require_checkout(root)
        momsim, layers, calib = common.build(root)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    scratch = common.Scratch(root)
    outcome = Outcome()
    expected = Expected(root)
    try:
        sweeps = args.workload != "serve-mixed"
        if args.trace:
            run = sweep_traced if sweeps else serve_traced
            metrics = run(args, momsim, layers, expected, scratch, outcome, root)
            units = {name: unit for name, unit in PER_LAYER}
        else:
            run = sweep_workload if sweeps else serve_workload
            measured = run(args, momsim, lambda: common.probe(calib), expected, scratch, outcome)
            print_end_to_end(args.workload, measured, outcome)
            metrics = {name: measured[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        scratch.close()
    for note in outcome.notes:
        log(f"perfbench: FAILED {note}")
    bad_names = [name for name in metrics if not common.METRIC_NAME.match(name)]
    if bad_names or set(metrics) != set(units):
        log(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(units))} {bad_names}")
        return 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]) + 0.0, "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    # A wrong output fails the command, after the result is printed.
    return 0 if outcome.failed == 0 else 1


PER_LAYER = [
    ("kernels.run.busy_s", "s"), ("kernels.run.minstr_per_s", "Minstr/s"), ("kernels.run.calls", "count"),
    ("codec.encode.mb_per_s", "MB/s"), ("codec.decode.mb_per_s", "MB/s"), ("codec.bytes", "B"),
    ("pipeline.fanout.busy_s", "s"), ("pipeline.fanout.minstr_per_s", "Minstr/s"),
    ("pipeline.fixed.minstr_per_s", "Minstr/s"), ("pipeline.hierarchy.minstr_per_s", "Minstr/s"),
    ("pipeline.cachesim.maccess_per_s", "Maccess/s"),
    ("store.put.us_p50", "us"), ("store.put.busy_s", "s"), ("store.get_disk.us_p50", "us"),
    ("store.get_mem.us_p50", "us"), ("store.hit_ratio", "ratio"), ("store.fills", "count"),
    ("store.bytes_written", "B"),
    ("bench.batch.us_per_point", "us"), ("bench.unit.us_per_point", "us"),
    ("bench.plan.us_per_point", "us"), ("bench.point_codec.us_per_point", "us"),
    ("bench.report.busy_s", "s"), ("bench.report.mb_per_s", "MB/s"),
    ("apps.run.busy_s", "s"),
    ("serve.healthz_ms.p50", "ms"), ("serve.submit_ms.p50", "ms"), ("serve.json.parse_mb_per_s", "MB/s"),
    ("serve.journal.append_us", "us"), ("serve.dedup_ms", "ms"), ("serve.queue_wait_ms", "ms"),
    ("serve.simulate_ms", "ms"), ("serve.units_scheduled", "count"), ("serve.units_reused", "count"),
    ("serve.dedup_ratio", "ratio"), ("serve.retries", "count"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
]


if __name__ == "__main__":
    sys.exit(main())
