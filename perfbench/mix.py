"""The seeded request mix of the serve-mixed workload.

Each client thread draws its own endless operation stream from
`(seed, client)`, so one seed always gives the same request schedule;
how far into it a run gets depends on the daemon's speed (a closed loop).
"""

import json
import random

KERNELS = ["idct", "motion2", "rgb2ycc", "motion1", "h2v2", "addblock", "comp", "ltppar", "ltpsfilt"]
ISAS = ["alpha", "mmx", "mdmx", "mom"]
WIDTHS = [1, 2, 4, 8]
# No registered experiment uses these fixed latencies (they use 1, 12 and
# 50 cycles), so every explore point lies outside the registered set.
LATENCIES = [2, 3, 4, 6, 8, 16, 24, 32]
ROBS = [None, 48, 96, 160]
LANES = [None, 1, 2]

REPLAYS = ["fig4", "fig5", "tables", "ablation-lanes", "ablation-rob", "app-speedups"]
REPORTS = ["fig4", "fig5", "tables", "apps", "ablations"]

# One block of the mix: every client runs these operations in a shuffled
# order, block after block, so every seed has the same composition and only
# the order and the drawn parameters differ.  Where each weight comes from:
# - replay 6, report 5, list 1: the repository's only recorded daemon
#   traffic, CI's service round trip, which submits each of the six
#   registered experiments once, fetches each of the five reports once and
#   lists the jobs (`momsim status`) once.  With the decks below, a block
#   replays each experiment and fetches each report exactly once.
# - explore 6: an assumption (nothing records ad-hoc grids): as many explore
#   jobs as replay jobs, so store writes and reads are balanced and the
#   measured operation, the explore job, is half of all jobs.
# - healthz 2: an assumption (a liveness probe; nothing records its rate):
#   enough for a few hundred samples of the accept floor in a 25 s run.
BLOCK = ["explore"] * 6 + ["replay"] * 6 + ["report"] * 5 + ["list"] * 1 + ["healthz"] * 2
# An assumption: every EXPLORE_FRESH_EVERY-th explore job of a client runs
# at a fresh workload seed and so pays for functional runs; one in four
# keeps them a minority, as in a design-space exploration that mostly varies
# the machine over fixed inputs.
EXPLORE_FRESH_EVERY = 4
ISA_PAIRS = [[a, b] for i, a in enumerate(ISAS) for b in ISAS[i + 1:]]
# The kernel and ISA pair of fresh-seed explore jobs come from this fixed
# cycle, not from the seeded decks.  A fresh job's traces stay in the
# daemon's memory and their size depends on the kernel and ISA (up to 7x
# apart), so with seeded choices the daemon's RSS after a given number of
# jobs would depend on the seed.
FRESH_CYCLE = [(kernel, pair) for kernel in KERNELS for pair in ISA_PAIRS]


class Deck:
    """Draws items without replacement, reshuffling when empty, so each item
    comes up equally often."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def operations(seed, client):
    """The endless operation stream of one client: tuples of
    ("explore", body) | ("replay", name) | ("report", name) | ("list",) |
    ("healthz",)."""
    rng = random.Random(f"momsim-serve-mixed/{seed}/{client}")
    kernels, pairs = Deck(rng, KERNELS), Deck(rng, ISA_PAIRS)
    replays, reports = Deck(rng, REPLAYS), Deck(rng, REPORTS)
    explored = 0
    while True:
        block = BLOCK[:]
        rng.shuffle(block)
        for kind in block:
            if kind == "explore":
                explored += 1
                if explored % EXPLORE_FRESH_EVERY == 0:
                    at = client * len(FRESH_CYCLE) // 2 + explored // EXPLORE_FRESH_EVERY - 1
                    kernel, pair = FRESH_CYCLE[at % len(FRESH_CYCLE)]
                    yield ("explore", explore_body(rng, kernel, pair, fresh=True))
                else:
                    yield ("explore", explore_body(rng, kernels.draw(), pairs.draw(), fresh=False))
            elif kind == "replay":
                yield ("replay", replays.draw())
            elif kind == "report":
                yield ("report", reports.draw())
            else:
                yield (kind,)


def explore_body(rng, kernel, isas, fresh):
    """An ad-hoc grid: one kernel on two ISAs, each on four configurations
    (two widths x two latencies) with a drawn ROB size and lane count.

    The shape is an assumption: eight points make a job of about 30 ms on
    two workers, long against the daemon's 10 ms accept tick (so the job,
    not the tick, dominates its latency) and short enough for several
    hundred jobs in a 25 s run, which the tail percentile needs."""
    body = {
        "label": "explore",
        "kernels": [kernel],
        "isas": isas,
        "widths": sorted(rng.sample(WIDTHS, 2)),
        "memory": sorted(rng.sample(LATENCIES, 2)),
    }
    rob = rng.choice(ROBS)
    if rob is not None:
        body["rob"] = [rob]
    lanes = rng.choice(LANES)
    if lanes is not None:
        body["lanes"] = [lanes]
    if fresh:
        body["seed"] = rng.randrange(1, 1 << 31)
    return body


def schedule(seed, client, count):
    """The first `count` operations of a client, as canonical JSON lines."""
    stream = operations(seed, client)
    return [json.dumps(next(stream), sort_keys=True) for _ in range(count)]
