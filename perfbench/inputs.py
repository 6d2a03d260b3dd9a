"""Seeded inputs for the three workloads.

The seed picks the data (leaf prices) and where in the statement stream a
run starts; the program under test only ever receives the generated
statements.  Workload *shape* (trigger population, activations per
statement) must not depend on the seed: every run compares the histogram of
activations per statement it observed over its first
:func:`profile_count` statements with the histogram an in-process replay
of a second seed's first as many statements gives
(:func:`profile_problem`), so a claim can be re-checked on an unused seed.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.workloads import WorkloadParameters
from repro.workloads.generator import HierarchyWorkload

__all__ = [
    "PROFILE_STATEMENTS",
    "build_workload",
    "profile_count",
    "spread_statements",
    "collect",
    "second_seed",
    "profile_problem",
]

#: Table 2's bold column (depth 2, fanout 64, 10,000 triggers, 20
#: satisfied) with the leaf relation scaled to 32k tuples: 500 top elements.
TABLE2 = WorkloadParameters(leaf_tuples=32_000)

#: Many small independent writes: 128 top elements of 32 leaves, 200
#: triggers (20 on the first top, 1-2 on each other one: ~1.6 per statement).
TRICKLE = WorkloadParameters(leaf_tuples=4_096, fanout=32, num_triggers=200)

#: Statements whose activations-per-statement histogram is compared with a
#: second seed's.
PROFILE_STATEMENTS = {
    "paper_table2": 128,
    "durable_tcp_trickle": 256,
    "durable_web_burst": 128,
}
#: The compared count is a whole number of these.  The trickle's statements
#: cycle over its 128 top elements, whose trigger counts differ, so a window
#: of whole cycles has the same histogram wherever the seed starts it; the
#: burst's 500 top elements each yield 20 activations, and every
#: ``paper_table2`` statement targets the same one.
PROFILE_CYCLE = {
    "paper_table2": 1,
    "durable_tcp_trickle": 128,
    "durable_web_burst": 1,
}
SECOND_SEED_OFFSET = 7919


def build_workload(workload: str, seed: int) -> HierarchyWorkload:
    base = TRICKLE if workload == "durable_tcp_trickle" else TABLE2
    return HierarchyWorkload(base.with_(seed=seed))


def spread_statements(workload: HierarchyWorkload, seed: int) -> list:
    """Every leaf updated once, consecutive statements on different subtrees.

    ``client_streams`` deals the leaves round-robin over the top elements,
    so any window shorter than the number of tops touches distinct monitored
    nodes.  The seed rotates where the run starts in that cycle.
    """
    stream = workload.client_streams(1, workload.nodes_per_level()[-1])[0]
    offset = random.Random(seed).randrange(len(stream))
    return stream[offset:] + stream[:offset]


def collect(node) -> None:
    """The no-op action every workload trigger names (``collect``)."""
    return None


def profile_count(workload: str, executed: int) -> int:
    """How many of a run's first statements its profile check compares."""
    cycle = PROFILE_CYCLE[workload]
    return min(PROFILE_STATEMENTS[workload], executed) // cycle * cycle


def second_seed(seed: int) -> int:
    """The unused seed a run re-checks its activation profile on."""
    return seed + SECOND_SEED_OFFSET


def profile_problem(seed: int, observed: Counter, second: Counter) -> str | None:
    """``None`` when the run's observed activations-per-statement histogram
    equals the one :func:`second_seed` gives on as many statements."""
    if observed != second:
        return (
            f"seed {seed} activations-per-statement profile {dict(sorted(observed.items()))} "
            f"differs from seed {second_seed(seed)}'s {dict(sorted(second.items()))}"
        )
    return None
