"""Shared pieces of the momsim benchmark: statistics, metric names, the
build, scratch directories, child processes and Chrome trace files."""

import collections
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# The committed reports a sweep regenerates, byte for byte.
REPORTS = [
    "BENCH_fig4.json",
    "BENCH_fig5.json",
    "BENCH_tables.json",
    "BENCH_apps.json",
    "BENCH_ablations.json",
]


class BenchError(Exception):
    """A failure of the benchmark's own set-up (not a counted operation)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q <= 100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten of `n` samples beyond
    it (nearest rank), or 50 when fewer than twenty samples allow none above
    the median."""
    best = 50
    for q in range(51, 100):
        if n - math.ceil(q / 100.0 * n) >= 10:
            best = q
    return best


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def interquartile_mean(values):
    """Mean of the middle half of the samples (a quarter dropped from each
    end): as robust as the median, but continuous where the samples cluster
    on a few values, as daemon latencies do on its 10 ms accept tick (there
    the median jumps from one cluster to the next)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def summary(values):
    """Median, interquartile mean, the tail percentile the sample supports
    and its name."""
    q = tail_percentile(len(values))
    return {
        "iqm": interquartile_mean(values),
        "p50": median(values),
        "tail": percentile(values, q),
        "tail_q": q,
        "n": len(values),
    }


# ---------------------------------------------------------------------------
# Build and scratch space
# ---------------------------------------------------------------------------


def require_checkout(root):
    """The benchmark builds momsim from the checkout it runs in; without
    the sources there is nothing to measure."""
    for needed in ["Cargo.toml", "Cargo.lock", "crates/mom-bench", "src/bin/momsim.rs"]:
        if not (root / needed).exists():
            raise BenchError(f"{needed} is missing: run from the root of a momsim checkout")
    for report in REPORTS:
        if not (root / report).is_file():
            raise BenchError(f"committed report {report} is missing")


def target_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else root / target


def build(root):
    """Builds the release momsim binary and the per-layer ledger; returns
    their paths."""
    target = target_dir(root)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "momsim", "--bin", "momsim"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench/layers/Cargo.toml")],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, timeout=840)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    release = target / "release"
    return release / "momsim", release / "perfbench-layers", release / "perfbench-calib"


class Scratch:
    """A private directory under `.bench_work/` in the checkout, removed on
    exit."""

    def __init__(self, root):
        self.dir = root / ".bench_work" / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._count = 0

    def fresh(self, label):
        self._count += 1
        path = self.dir / f"{label}-{self._count}"
        path.mkdir(parents=True)
        return path

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass


def run_child(argv, log_path):
    """Runs a child to completion with its output in `log_path`; returns
    (exit code, seconds from spawn to reap, CPU seconds, peak RSS in MB,
    output)."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        pid = os.posix_spawn(
            str(argv[0]),
            [str(a) for a in argv],
            dict(os.environ),
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
            ],
        )
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return code, seconds, cpu, usage.ru_maxrss / 1024.0, Path(log_path).read_text(errors="replace")


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# Units of work per probe and thread.
PROBE_UNITS = 5
# The probe's unit time on the reference host, a shared 2-vCPU Xeon VM.  A
# normalised time is the time the operation would have taken on a host
# whose probe unit takes this long.
PROBE_REF_S = 0.004

# One probe: seconds per unit on one thread (it scales CPU times) and on
# two threads at once (it scales wall times: the operations keep both
# vCPUs busy, so their wall time also follows how much of the second one
# the host grants).
Speed = collections.namedtuple("Speed", ["one_thread", "two_threads"])


def probe(calib):
    """Runs the host-speed probe `calib` (`perfbench-calib`, built from the
    benchmark's own code, never from the repository's) once; returns its
    Speed.  Each probe runs next to the times it normalises, so the host's
    drift over a run and between runs cancels out of the ratio."""
    done = subprocess.run([str(calib), str(PROBE_UNITS)], capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"perfbench-calib failed: {done.stderr[-300:]}")
    return Speed(*(float(x) for x in done.stdout.split()))


def speed_scale(before, after):
    """The factor that scales a time taken between two probes to the
    reference host's speed: the reference unit over the probes' mean."""
    return 2.0 * PROBE_REF_S / (before + after)


def normalised(values, probes):
    """Each value, taken between probes i and i+1, scaled to the reference
    host's speed."""
    if len(probes) != len(values) + 1:
        raise ValueError(f"{len(values)} values need {len(values) + 1} probes, not {len(probes)}")
    return [v * speed_scale(probes[i], probes[i + 1]) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# Chrome trace files
# ---------------------------------------------------------------------------


def span_events(events, pid):
    return [e for e in events if e.get("ph") == "X" and e.get("pid") == pid]


def covered_seconds(events):
    """Length of the union of the spans' intervals, in seconds."""
    intervals = sorted((e["ts"], e["ts"] + e["dur"]) for e in events)
    total, end = 0.0, None
    start = None
    for lo, hi in intervals:
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total / 1e6


def self_time_table(events):
    """Rows of (layer, span, count, busy seconds) by span name; the ledger
    records leaf spans only, so a span's busy time is its self time."""
    rows = {}
    for e in events:
        key = (e.get("cat", "?"), e["name"])
        count, busy = rows.get(key, (0, 0.0))
        rows[key] = (count + 1, busy + e["dur"] / 1e6)
    return sorted(((cat, name, c, b) for (cat, name), (c, b) in rows.items()),
                  key=lambda row: -row[3])


def write_trace(path, events):
    with open(path, "w") as out:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, out)
