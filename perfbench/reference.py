"""Reference computations the benchmark checks program outputs against.

Nothing here imports the workbench: each quantity is computed by a different
route than the program takes, so a fault the two shared could not hide.

* cycles: the independence polynomial by a 2x2 transfer matrix over Fractions;
* membership: the nested-prefix oracle of Scott and Sokal (J. Stat. Phys. 118,
  2005): p lies in the Shearer region iff Z(G[1..k], -p) > 0 for k = 1..m,
  with the graph restricted to the support of p;
* pwdag weight sums: the stable-set-sequence dynamic program of Kolipaka and
  Szegedy (STOC 2011);
* resampling runs: a replay of the blake2b table from outside.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# graphs as adjacency bit masks, vertex v <-> bit v-1

def adjacency_masks(m: int, edges) -> tuple[int, ...]:
    adj = [0] * m
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return tuple(adj)


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i % n + 1) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# cycles by transfer matrix

def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_pow(a, n: int):
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    while n:
        if n & 1:
            out = _mat_mul(out, a)
        a = _mat_mul(a, a)
        n >>= 1
    return out


def cycle_z(n: int, x: Fraction) -> Fraction:
    """Independence polynomial of C_n at x: trace of [[1, x], [1, 0]]^n."""
    t = _mat_pow(((Fraction(1), Fraction(x)), (Fraction(1), Fraction(0))), n)
    return t[0][0] + t[1][1]


def path_z(n: int, x: Fraction) -> Fraction:
    """Independence polynomial of the path on n vertices (n >= 0) at x."""
    a, b = Fraction(1), Fraction(1) + x  # Z(P_0), Z(P_1)
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, b + x * a
    return b


def cycle_q_empty(n: int, p: Fraction) -> Fraction:
    return cycle_z(n, -Fraction(p))


def cycle_resample_bound(n: int, p: Fraction) -> Fraction:
    """Sum of q_i / q_empty on C_n at uniform p: q_i = p * Z(P_{n-3}, -p)."""
    p = Fraction(p)
    return n * p * path_z(n - 3, -p) / cycle_q_empty(n, p)


def cycle_in_region(n: int, p: Fraction) -> bool:
    """Nested prefixes of C_n are the paths P_1..P_{n-1}, then C_n itself."""
    x = -Fraction(p)
    return all(path_z(k, x) > 0 for k in range(1, n)) and cycle_z(n, x) > 0


def cycle_boundary(n: int) -> float:
    """Symmetric boundary of C_n: 1 / (4 cos^2(pi / 2n))."""
    return 1.0 / (4.0 * math.cos(math.pi / (2 * n)) ** 2)


# ---------------------------------------------------------------------------
# general graphs: nested-prefix oracle

def z_masked(adj: tuple[int, ...], values, mask: int, memo: dict) -> Fraction:
    """Z(G[mask], -values), eliminating the highest vertex first."""
    if mask == 0:
        return 1
    got = memo.get(mask)
    if got is not None:
        return got
    v = mask.bit_length() - 1
    rest = mask & ~(1 << v)
    out = z_masked(adj, values, rest, memo) - values[v] * z_masked(
        adj, values, rest & ~adj[v], memo
    )
    memo[mask] = out
    return out


def in_region(adj: tuple[int, ...], values) -> bool:
    """Scott-Sokal chain: every prefix of the support has Z(-p) > 0."""
    support = [k for k, v in enumerate(values) if v > 0]
    memo: dict = {}
    mask = 0
    for k in support:
        mask |= 1 << k
        if z_masked(adj, values, mask, memo) <= 0:
            return False
    return True


def q_value(adj: tuple[int, ...], values, iset) -> Fraction:
    """q_I = prod_{i in I} p_i * Z(G - N[I], -p)."""
    mask = (1 << len(adj)) - 1
    coeff = Fraction(1)
    for u in iset:
        mask &= ~(adj[u - 1] | 1 << (u - 1))
        coeff *= values[u - 1]
    return coeff * z_masked(adj, values, mask, {})


def independent_sets_sorted(adj: tuple[int, ...], max_size: int):
    """Independent sets of at most max_size vertices, by size, then
    lexicographic."""
    for size in range(max_size + 1):
        for combo in combinations(range(1, len(adj) + 1), size):
            if all(not adj[a - 1] >> (b - 1) & 1 for a, b in combinations(combo, 2)):
                yield combo


def float_boundary_scale(adj: tuple[int, ...], direction, steps: int = 40) -> float:
    """Boundary scale along a ray by bisection on the float chain oracle;
    used only to place input vectors near the boundary."""
    hi = 1.0 / max(direction)
    lo = 0.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if in_region(adj, [mid * d for d in direction]):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# pwdags: stable-set sequences

def pwdag_sums(adj: tuple[int, ...], p, max_nodes: int) -> dict[int, Fraction]:
    """Per-size sums of pwdag weights: sequences I_1 = {i}, I_{k+1} a nonempty
    independent subset of the closed neighbourhood of I_k, weighted by the
    product of p over all members of all sets."""
    m = len(adj)
    closed = [adj[v] | 1 << v for v in range(m)]

    def weight(mask: int) -> Fraction:
        out = Fraction(1)
        for v in range(m):
            if mask >> v & 1:
                out *= p[v]
        return out

    @lru_cache(maxsize=None)
    def children(mask: int) -> tuple[tuple[int, int, Fraction], ...]:
        reach = 0
        for v in range(m):
            if mask >> v & 1:
                reach |= closed[v]
        verts = [v for v in range(m) if reach >> v & 1]
        out = []
        for size in range(1, len(verts) + 1):
            for combo in combinations(verts, size):
                sub = 0
                for v in combo:
                    sub |= 1 << v
                if all(not adj[v] & sub for v in combo):
                    out.append((sub, size, weight(sub)))
        return tuple(out)

    @lru_cache(maxsize=None)
    def tail(mask: int, budget: int) -> Fraction:
        """Weighted sequences after level `mask` using exactly `budget` nodes."""
        if budget == 0:
            return Fraction(1)
        total = Fraction(0)
        for sub, size, w in children(mask):
            if size <= budget:
                total += w * tail(sub, budget - size)
        return total

    return {
        n: sum((Fraction(p[i]) * tail(1 << i, n - 1) for i in range(m)), Fraction(0))
        for n in range(1, max_nodes + 1)
    }


def wdag_is_proper(labels, arcs, adj: tuple[int, ...]) -> bool:
    """Acyclic, an arc between two nodes exactly when their labels are equal
    or adjacent (in one direction), and a single sink."""
    n = len(labels)
    arcset = set(arcs)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            lu, lv = labels[u - 1], labels[v - 1]
            need = lu == lv or adj[lu - 1] >> (lv - 1) & 1
            fwd, bwd = (u, v) in arcset, (v, u) in arcset
            if bool(need) != (fwd or bwd) or (fwd and bwd):
                return False
    if any(not (1 <= u <= n and 1 <= v <= n) for u, v in arcset):
        return False
    order, indeg = [], {v: 0 for v in range(1, n + 1)}
    for _, v in arcset:
        indeg[v] += 1
    ready = [v for v in indeg if indeg[v] == 0]
    while ready:
        u = ready.pop()
        order.append(u)
        for a, b in arcset:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    if len(order) != n:
        return False
    return sum(1 for v in range(1, n + 1) if all(a != v for a, _ in arcset)) == 1


def least_topological_order(n: int, arcs) -> list[int]:
    """The lexicographically least topological order of nodes 1..n."""
    indeg = [0] * (n + 1)
    children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in arcs:
        indeg[b] += 1
        children[a].append(b)
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        u = heapq.heappop(ready)
        out.append(u)
        for w in children[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out


def wdag_key(labels, arcs) -> tuple:
    """Structure key: rename node v to (label, number of same-label nodes
    below it), which is well defined because same-label nodes form a chain."""
    n = len(labels)
    parents = {v: set() for v in range(1, n + 1)}
    for a, b in arcs:
        parents[b].add(a)
    below: dict[int, set[int]] = {}

    def ancestors(v: int) -> set[int]:
        if v not in below:
            acc: set[int] = set()
            for u in parents[v]:
                acc.add(u)
                acc |= ancestors(u)
            below[v] = acc
        return below[v]

    name = {
        v: (labels[v - 1], sum(1 for u in ancestors(v) if labels[u - 1] == labels[v - 1]))
        for v in range(1, n + 1)
    }
    return tuple(sorted(name.values())), tuple(sorted((name[a], name[b]) for a, b in arcs))


# ---------------------------------------------------------------------------
# resampling runs replayed from outside

_SCALE = 1 << 64


def draw(seed, *position) -> Fraction:
    key = ":".join(str(x) for x in (seed, *position)).encode()
    return Fraction(int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big"), _SCALE)


class RefSystem:
    """An event system described without the program's classes.

    variables: list of None (uniform on [0,1)) or a tuple of finite masses.
    events: list of (vbl tuple, predicate over a dict assignment).
    """

    def __init__(self, variables, events):
        self.variables = list(variables)
        self.events = list(events)
        self.adj = adjacency_masks(
            len(events),
            [
                (a + 1, b + 1)
                for a, b in combinations(range(len(events)), 2)
                if set(events[a][0]) & set(events[b][0])
            ],
        )

    def value(self, j: int, u: Fraction):
        masses = self.variables[j - 1]
        if masses is None:
            return u
        acc = Fraction(0)
        for idx, mass in enumerate(masses):
            acc += mass
            if u < acc:
                return idx
        return len(masses) - 1

    def violated(self, assignment) -> list[int]:
        return [i + 1 for i, (_, pred) in enumerate(self.events) if pred(assignment)]


def _pick(system: RefSystem, rule: str, violated, history, rng) -> int:
    if rule == "uniform-violated":
        return violated[rng.randrange(len(violated))]
    if rule == "recent-neighbor":
        for past in reversed(history):
            near = [i for i in violated if i == past or system.adj[i - 1] >> (past - 1) & 1]
            if near:
                return near[0]
    elif rule != "lowest-index":
        raise AssertionError(f"unknown rule {rule}")
    return violated[0]


def replay(system: RefSystem, rule: str, seed, sequence=None) -> tuple[list[int], dict]:
    """Run the resampling algorithm on the blake2b table from outside.

    With a sequence, replay it: every pick must be violated when made and be
    the pick the rule makes. Without one, run to completion. Returns the
    sequence and the final assignment, which violates nothing.
    """
    rng = random.Random(int(draw(seed, "rule") * _SCALE))
    cursor = {j: 1 for j in range(1, len(system.variables) + 1)}
    assignment = {j: system.value(j, draw(seed, "x", j, 1)) for j in cursor}
    history: list[int] = []
    steps = iter(sequence) if sequence is not None else None
    while True:
        violated = system.violated(assignment)
        given = next(steps, None) if steps is not None else None
        if steps is None and not violated:
            return history, assignment
        if steps is not None and given is None:
            if violated:
                raise AssertionError("final assignment still violates an event")
            return history, assignment
        if given is not None and given not in violated:
            raise AssertionError(f"pick {given} not violated at step {len(history) + 1}")
        pick = _pick(system, rule, violated, history, rng)
        if given is not None and given != pick:
            raise AssertionError(f"rule {rule} picks {pick}, run picked {given}")
        history.append(pick)
        for j in system.events[pick - 1][0]:
            cursor[j] += 1
            assignment[j] = system.value(j, draw(seed, "x", j, cursor[j]))


def box_event(intervals_by_var):
    """Elementary event: each listed variable lies in its [a, b) intervals."""
    vbl = tuple(sorted(intervals_by_var))

    def pred(assignment) -> bool:
        return all(
            any(a <= assignment[j] < b for a, b in intervals_by_var[j]) for j in vbl
        )

    return vbl, pred


def value_event(values_by_var):
    vbl = tuple(sorted(values_by_var))

    def pred(assignment) -> bool:
        return all(assignment[j] in values_by_var[j] for j in vbl)

    return vbl, pred


def mean_within(mean: float, stderr: float, expected: float, k: float = 5.0) -> bool:
    return abs(mean - expected) <= k * stderr


# ---------------------------------------------------------------------------
# verdict ingredients

def cycle_slack(p: list[Fraction]) -> float:
    """|C| (min p)^4 (2 sum sqrt(p) / |C| - 1)^2, clamped bracket."""
    k = len(p)
    bracket = 2 * sum(math.sqrt(x) for x in p) / k - 1
    return k * float(min(p)) ** 4 * max(bracket, 0.0) ** 2


def grid_degrees(dims) -> list[int]:
    """Vertex degrees of the axis-aligned grid graph with the given extents."""
    from itertools import product

    out = []
    for point in product(*[range(d) for d in dims]):
        out.append(sum((c > 0) + (c < d - 1) for c, d in zip(point, dims)))
    return out


def lattice_gap_float(degrees, edges: int, diameter: int, lattice_degree: int, p: float) -> float:
    """p^(D+2) F^2 / (17 (Delta+1) |V|^2 (1-p)^(D+1)), F the positive part of
    the unit's edge-variable overlap functional at uniform p."""
    n = len(degrees)
    surplus = sum(d * p ** (1.0 / d) for d in degrees) - edges
    f = p * p * surplus / (math.sqrt(n) * max(degrees) * max(degrees) ** 2)
    f = max(f, 0.0)
    return p ** (diameter + 2) * f * f / (
        17 * (lattice_degree + 1) * n * n * (1 - p) ** (diameter + 1)
    )
