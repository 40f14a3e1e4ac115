"""Full-support plan sizes of the Shearer oracle in two vertex orders.

For each graph it prints the vertex count m, the steps of the plan for q_0 of
the whole graph built in the caller's labels (identity) and in the graph's
breadth-first order, the order the oracle plans the graph in, the steps each
mask of that plan is charged at a DEN_BITS-bit denominator, whether the
oracle's plan fits MAX_PLAN_STEPS at that charge, and the median time to
build the breadth-first order on a fresh copy of the graph. A plan of more
than MAX_PLAN_STEPS masks prints as `capped`. The graphs are the README's,
the cycles C16-C24, region-large's sixteen random graphs at seed 7 (drawn as
perfbench/workloads.py draws them), the lattice-gap units, each also under a
seeded label shuffle, and the larger graphs a vertex order is tuned on: the
4x30 grid, the 6x12 grid under a seeded shuffle, the lattice-gap windows and
the path P_1200. Standard library only.

    python3 tools/plan_steps.py
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lll_workbench import shearer  # noqa: E402
from lll_workbench.graphs import DependencyGraph  # noqa: E402
from lll_workbench.lattices import BUILTIN_LATTICES, grid_unit  # noqa: E402

#: region-large's seed for its random graphs, and the seed of the shuffles
SEED = 7

#: the denominator the charge is printed at: a 2^-40 boundary bracket's
DEN_BITS = 40


def cycle(n: int) -> DependencyGraph:
    return DependencyGraph.from_edges(n, [(k, k % n + 1) for k in range(1, n + 1)])


def path(n: int) -> DependencyGraph:
    return DependencyGraph.from_edges(n, [(k, k + 1) for k in range(1, n)])


def region_large_graphs() -> list[tuple[str, DependencyGraph]]:
    """The random graphs of perfbench's region-large workload: the same
    draws from the same generator, the direction draws included."""
    rng = random.Random(f"region-large:{SEED}")
    out = []
    for k in range(16):
        m = 14 + k % 7
        while True:
            density = rng.uniform(0.1, 0.5)
            edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1) if rng.random() < density]
            g = DependencyGraph.from_edges(m, edges)
            # q_0 at p = -1 counts the independent sets
            if 600 <= shearer._Plan(g.closed_masks, [-1] * m, 1, shearer.MAX_PLAN_STEPS).q((1 << m) - 1) <= 900:
                break
        for _ in range(m):
            rng.randint(4, 8)
        out.append((f"G{k}", g))
    return out


def shuffled(g: DependencyGraph, rng: random.Random) -> DependencyGraph:
    label = [0] + rng.sample(range(1, g.m + 1), g.m)
    return DependencyGraph.from_edges(g.m, [(label[u], label[v]) for u, v in g.edges])


def graphs() -> list[tuple[str, DependencyGraph]]:
    out = [
        ("README k3", DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])),
        ("README c4", cycle(4)),
    ]
    out += [(f"C{n}", cycle(n)) for n in range(16, 25)]
    out += region_large_graphs()
    rng = random.Random(SEED)
    for name, spec in BUILTIN_LATTICES.items():
        unit = spec().unit
        out += [(f"{name} unit", unit), (f"{name} unit shuffled", shuffled(unit, rng))]
    out += [
        ("4x30 grid", grid_unit((4, 30))[0]),
        ("6x12 grid shuffled", shuffled(grid_unit((6, 12))[0], rng)),
    ]
    out += [(f"{name} window", spec().expanded()[0]) for name, spec in BUILTIN_LATTICES.items()]
    out.append(("P1200", path(1200)))
    return out


def plan_steps(masks, room: int = shearer.MAX_PLAN_STEPS) -> int | str:
    """Steps of the plan for the full vertex set, or `capped` past `room`;
    the numerators do not change which masks it reaches."""
    plan = shearer._Plan(masks, [0] * len(masks), 1, room)
    try:
        plan.q((1 << len(masks)) - 1)
    except shearer.CapExceeded:
        return "capped"
    return len(plan.values) - 1


def order_us(g: DependencyGraph) -> float:
    times = []
    for _ in range(21):
        fresh = DependencyGraph(g.m, g.edges)
        started = time.perf_counter()
        fresh.breadth_first_order
        times.append(time.perf_counter() - started)
    return 1e6 * statistics.median(times)


def fits(g: DependencyGraph) -> str:
    """Whether the oracle's full-support plan fits its budget at DEN_BITS:
    the plan is opened as the oracle opens it, in the order it picks."""
    try:
        plan = shearer._Plan.open(g, [0] * g.m, 1, 0, DEN_BITS)
    except shearer.CapExceeded:
        return "refused"
    try:
        plan.q(plan.full)
    except shearer.CapExceeded:
        return "no"
    return "yes"


def main() -> int:
    print(
        f"oracle: breadth-first order from {shearer._ORDER_MIN_VERTICES} vertices; "
        f"{shearer.MAX_PLAN_STEPS} steps, charged at a {DEN_BITS}-bit denominator"
    )
    row = "{:<24} {:>4} {:>9} {:>14} {:>14} {:>6} {:>7} {:>9}"
    print(row.format("graph", "m", "identity", "breadth-first", "oracle", "charge", "fits", "order_us"))
    for name, g in graphs():
        print(row.format(
            name, g.m, plan_steps(g.closed_masks), plan_steps(g.breadth_first_order[2]),
            "breadth-first" if g.m >= shearer._ORDER_MIN_VERTICES else "identity",
            shearer._step_charge(g.m, DEN_BITS), fits(g), f"{order_us(g):.1f}",
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
