"""Self-tests of the momsim benchmark.

    python3 perfbench/test_perfbench.py            # all, smoke runs included
    python3 perfbench/test_perfbench.py Rules      # the fast ones only

Run from the root of a momsim checkout.  The smoke runs build momsim the
way the benchmark does (into $CARGO_TARGET_DIR, default `.bench_build`).
"""

import json
import math
import re
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402


class Rules(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for client in range(2):
            self.assertEqual(mix.schedule(7, client, 300), mix.schedule(7, client, 300))
        self.assertNotEqual(mix.schedule(7, 0, 300), mix.schedule(8, 0, 300))
        self.assertNotEqual(mix.schedule(7, 0, 300), mix.schedule(7, 1, 300))

    def test_every_block_has_the_same_composition(self):
        ops = [json.loads(line)[0] for line in mix.schedule(3, 0, 10 * len(mix.BLOCK))]
        for b in range(10):
            block = ops[b * len(mix.BLOCK):(b + 1) * len(mix.BLOCK)]
            self.assertEqual(Counter(block), Counter(mix.BLOCK))

    def test_explore_grids_stay_outside_the_registered_set(self):
        ops = [json.loads(line) for line in mix.schedule(5, 1, 400)]
        explores = [op[1] for op in ops if op[0] == "explore"]
        fresh = [body for body in explores if "seed" in body]
        self.assertEqual(len(fresh), len(explores) // mix.EXPLORE_FRESH_EVERY)
        for body in explores:
            self.assertFalse({1, 12, 50} & set(body["memory"]), body)
            self.assertEqual(len(body["isas"]), 2)

    def test_fresh_seed_jobs_cycle_the_same_kernels_for_every_seed(self):
        def fresh(seed, client):
            ops = [json.loads(line) for line in mix.schedule(seed, client, 400)]
            return [(op[1]["kernels"], op[1]["isas"]) for op in ops
                    if op[0] == "explore" and "seed" in op[1]]
        for client in range(2):
            self.assertEqual(fresh(1, client), fresh(2, client))
        self.assertNotEqual(fresh(1, 0), fresh(1, 1))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(common.tail_percentile(5), 50)
        self.assertEqual(common.tail_percentile(20), 50)
        self.assertEqual(common.tail_percentile(100), 90)
        self.assertEqual(common.tail_percentile(1000), 99)
        for n in range(1, 3000):
            q = common.tail_percentile(n)
            beyond = n - math.ceil(q / 100.0 * n)
            if q > 50:
                self.assertGreaterEqual(beyond, 10, n)
            if q < 99:
                self.assertLess(n - math.ceil((q + 1) / 100.0 * n), 10, n)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(common.percentile(values, 90), 90)
        self.assertEqual(common.percentile(values, 50), 50)
        self.assertEqual(common.median([3, 1, 2, 10]), 2.5)
        s = common.summary([float(v) for v in values])
        self.assertEqual((s["tail_q"], s["tail"], s["n"]), (90, 90.0, 100))
        self.assertEqual(s["iqm"], 50.5)
        self.assertEqual(common.interquartile_mean([5.0]), 5.0)
        # Half the samples on one tick, half on the next: the median sits
        # on either tick, the interquartile mean between them.
        self.assertEqual(common.interquartile_mean([20.0] * 4 + [30.0] * 4), 25.0)

    def test_metric_names_and_units_match_the_manifest(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        for section, declared in [("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)]:
            listed = [(m["name"], m["unit"]) for m in manifest[section]]
            self.assertEqual(sorted(listed), sorted(declared), section)
            for name, u in listed:
                self.assertRegex(name, common.METRIC_NAME)
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertRegex(u, unit)
        names = [m["name"] for s in ("end_to_end", "per_layer") for m in manifest[s]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in manifest["workloads"]], run.WORKLOADS)

    def test_setups_are_spread_through_the_window(self):
        now = [0.0]
        real = run.time.perf_counter
        run.time.perf_counter = lambda: now[0]
        try:
            window = run.Window(9.0, 3)
            marks = []
            while window.open():
                if window.setup_due():
                    marks.append(window.elapsed())
                    # A set-up's own time does not count towards the window.
                    window.setup(lambda: now.__setitem__(0, now[0] + 5.0))
                now[0] += 0.5
        finally:
            run.time.perf_counter = real
        self.assertEqual(marks, [3.0, 6.0])
        self.assertEqual(window.taken, 3)
        self.assertEqual(now[0], 19.0)

    def test_times_are_scaled_by_the_probes_around_them(self):
        ref = common.PROBE_REF_S
        # A host at half the reference speed: its probes take twice as long.
        self.assertEqual(common.normalised([0.2, 0.4], [2 * ref] * 3), [0.1, 0.2])
        # A value between a slow and a fast probe takes their mean.
        self.assertAlmostEqual(common.normalised([0.3], [ref, 2 * ref])[0], 0.2)
        with self.assertRaises(ValueError):
            common.normalised([1.0, 2.0], [ref, ref])

    def test_span_union(self):
        events = [{"ts": 0, "dur": 10}, {"ts": 5, "dur": 10}, {"ts": 30, "dur": 5}]
        self.assertAlmostEqual(common.covered_seconds(events), 20e-6)


class Smoke(unittest.TestCase):
    """A minimal-length run of each workload, untraced and traced."""

    def smoke(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(sorted(result["metrics"]), sorted(name for name, _ in declared))
        return result["metrics"]

    def test_sweep_cold(self):
        metrics = self.smoke("sweep-cold", 0)
        self.assertGreater(metrics["op_ms.norm"]["value"], 0)

    def test_sweep_warm(self):
        self.smoke("sweep-warm", 0)
        layers = self.smoke("sweep-warm", 1)
        # A warm sweep runs no kernel and simulates nothing.
        for name in ["kernels.run.calls", "pipeline.fanout.busy_s", "store.fills"]:
            self.assertEqual(layers[name]["value"], 0, name)

    def test_serve_mixed(self):
        metrics = self.smoke("serve-mixed", 0)
        self.assertGreater(metrics["cpu_ms_per_op.norm"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
