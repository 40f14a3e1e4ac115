"""Witness-DAG calculus.

Labeled DAGs recording resampling histories: validity, prefixes, single-sink
wdags (pwdags) built once per structural class from stable-set sequences,
reversible arcs, consistency with resampling/auxiliary tables, the repair
procedure that realigns a wdag with an auxiliary table, label splitting into
the matched double-cover graph, and exact weight sums by dynamic programming
over the same sequences.

Stable-set sequences (Kolipaka-Szegedy, STOC 2011): the pwdags with sink label
i correspond one-to-one to the sequences of nonempty independent sets
I_1 = {i}, I_{k+1} a subset of the closed neighbourhood of I_k, where layer k
holds the nodes whose longest path to the sink has k nodes. A pwdag's weight
is the product of p over all members of all layers.

Node identity convention: a wdag on n nodes uses ids 1..n and `labels[k-1]`
is the label of node k. Arc rule (`ordered_arcs`): exactly the nodes with
equal or adjacent labels are joined, from the earlier to the later node, so
a set of such pairwise-conflicting nodes is totally ordered, and a node's
position in it is 1 plus the number of its parents in the set. The canonical
form renames node v to its pair (label, rank-within-label), the rank being 1
plus v's same-label parents, and sorts. Two valid wdags are structurally
equal iff their canonical encodings coincide.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import DependencyGraph, InputError, Matching
from .shearer import CapExceeded, ProbabilityVector


@dataclass(frozen=True)
class WDag:
    labels: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.labels)
        for u, v in self.arcs:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise InputError(f"arc ({u},{v}) out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def label(self, v: int) -> int:
        return self.labels[v - 1]

    def sinks(self) -> tuple[int, ...]:
        with_out = {u for u, _ in self.arcs}
        return tuple(v for v in self.nodes if v not in with_out)

    # Derived structure, computed on first use and kept in the instance's
    # __dict__: it is freed with the wdag and plays no part in ==, hash or repr.

    @cached_property
    def _parents(self) -> dict[int, frozenset[int]]:
        par: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.arcs:
            par[v].add(u)
        return {v: frozenset(s) for v, s in par.items()}

    @cached_property
    def _children(self) -> dict[int, frozenset[int]]:
        ch: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.arcs:
            ch[u].add(v)
        return {v: frozenset(s) for v, s in ch.items()}

    @cached_property
    def _topological_order(self) -> tuple[int, ...]:
        indeg = {v: len(self._parents[v]) for v in self.nodes}
        ready = [v for v in self.nodes if indeg[v] == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            u = heapq.heappop(ready)
            out.append(u)
            for w in sorted(self._children[u]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(out) != self.n:
            raise InputError("wdag contains a cycle")
        return tuple(out)


def topological_order(d: WDag) -> tuple[int, ...]:
    """Lexicographic-minimal topological order (deterministic pi_D)."""
    return d._topological_order


def ordered_arcs(
    labels: Sequence[int], rank: Sequence, closed: Sequence[int]
) -> list[tuple[int, int]]:
    """The sorted arcs (a, b) between nodes whose labels conflict (bit
    labels[b-1]-1 of closed[labels[a-1]-1], closed being the graph's
    closed_masks), each from the lower rank to the higher. Precondition:
    conflicting nodes never share a rank."""
    nodes = tuple(enumerate(zip(labels, rank), 1))
    arcs = []
    for a, (la, ra) in nodes:
        conflicts = closed[la - 1]
        for b, (lb, rb) in nodes:
            if ra < rb and conflicts >> (lb - 1) & 1:
                arcs.append((a, b))
    return arcs


def validate_wdag(d: WDag, g: DependencyGraph) -> bool:
    """Acyclic, and for every node pair exactly one arc exists iff their
    labels are equal or adjacent (no arc otherwise); independent of
    ordered_arcs, so it can judge its outputs.
    """
    for v in d.nodes:
        if not 1 <= d.label(v) <= g.m:
            return False
    try:
        topological_order(d)
    except InputError:  # a cycle
        return False
    closed = g.closed_masks
    for u, v in combinations(d.nodes, 2):
        lu, lv = d.label(u), d.label(v)
        need = bool(closed[lu - 1] >> (lv - 1) & 1)
        fwd = (u, v) in d.arcs
        bwd = (v, u) in d.arcs
        if need != (fwd != bwd) or (fwd and bwd):
            return False
    return True


def canonical_key(d: WDag):
    """Structure-invariant encoding: rename nodes to (label, within-label
    rank) and sort, where the rank is 1 plus the node's same-label parents.

    Assumes a valid wdag, in which same-label nodes are pairwise joined by
    arcs; on other labelled DAGs two nodes may share a rank.
    """
    labels = d.labels
    rank = [1] * (d.n + 1)
    for u, v in d.arcs:
        if labels[u - 1] == labels[v - 1]:
            rank[v] += 1
    pair = {v: (labels[v - 1], rank[v]) for v in d.nodes}
    arcs = tuple(sorted((pair[u], pair[v]) for u, v in d.arcs))
    return (tuple(sorted(pair.values())), arcs)


def canonical_form(d: WDag) -> WDag:
    """Renumber nodes so sorted (label, rank) pairs become ids 1..n."""
    key_nodes, key_arcs = canonical_key(d)
    ids = {pair: k + 1 for k, pair in enumerate(key_nodes)}
    labels = tuple(pair[0] for pair in key_nodes)
    arcs = frozenset((ids[a], ids[b]) for a, b in key_arcs)
    return WDag(labels, arcs)


# ---------------------------------------------------------------------------
# prefixes

def closure(d: WDag, nodes: Iterable[int]) -> frozenset[int]:
    """All nodes with a directed path to some u in nodes (each node reaches
    itself)."""
    out = set(nodes)
    stack = list(out)
    while stack:
        for u in d._parents[stack.pop()]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return frozenset(out)


def prefix(d: WDag, nodes: Sequence[int]) -> WDag:
    """Induced sub-wdag on closure(nodes); node ids renumbered ascending."""
    keep = sorted(closure(d, nodes))
    new_id = {v: k + 1 for k, v in enumerate(keep)}
    labels = tuple(d.label(v) for v in keep)
    arcs = frozenset(
        (new_id[u], new_id[v]) for u, v in d.arcs if u in new_id and v in new_id
    )
    return WDag(labels, arcs)


def single_sink_prefix_count(d: WDag) -> int:
    """Number of distinct prefixes of d having exactly one sink. A prefix with
    the single sink v is the closure of v, so these are the distinct one-node
    closures."""
    return len({closure(d, (v,)) for v in d.nodes})


# ---------------------------------------------------------------------------
# stable-set sequences: enumeration of proper wdags

def _members(mask: int) -> list[int]:
    """0-based vertices of a bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(mask: int, closed: Sequence[int]) -> int:
    """Closed neighbourhood of a vertex set."""
    out = 0
    for v in _members(mask):
        out |= closed[v]
    return out


def _next_layers(
    reach: int, closed: Sequence[int], max_size: int, limit: int | None = None
) -> list[tuple[int, int, int]] | None:
    """The layers that may follow a layer whose closed neighbourhood is
    reach: (size, vertex mask, closed neighbourhood) of every nonempty
    independent subset of reach with at most max_size members. None as soon
    as more than limit of them are held."""
    subsets = [0]
    for v in _members(reach):
        bit, nbrs = 1 << v, closed[v] & ~(1 << v)
        subsets += [s | bit for s in subsets if not s & nbrs and s.bit_count() < max_size]
        if limit is not None and len(subsets) > limit + 1:
            return None
    return [(s.bit_count(), s, _reach(s, closed)) for s in subsets[1:]]


def _sequence_wdag(layers: Sequence[int], closed: Sequence[int]) -> tuple[tuple, WDag]:
    """The pwdag of a stable-set sequence (layer 0 holds the sink), in
    canonical form, with its sort key.

    Nodes are numbered by (label, rank), and rank 1 within a label goes to the
    deepest layer. The order is -depth; a layer is independent, so no two
    conflicting nodes share a depth. Arcs come out sorted, so the key
    (n, labels, arcs) orders pwdags as their canonical keys do.
    """
    nodes = sorted((v + 1, -depth) for depth, layer in enumerate(layers) for v in _members(layer))
    labels, rank = zip(*nodes)
    arcs = tuple(ordered_arcs(labels, rank, closed))
    return (len(labels), labels, arcs), WDag(labels, frozenset(arcs))


def enumerate_pwdags(g: DependencyGraph, node_cap: int) -> Iterator[WDag]:
    """All single-sink wdags of g with at most node_cap nodes, one
    representative per structural class, in canonical form, ordered by node
    count, then sorted label tuple, then canonical arc key.

    Walks the stable-set sequences depth first and builds each pwdag once
    from its sequence.
    """
    if node_cap < 1:
        raise InputError("node_cap must be positive")
    if node_cap > 8:
        raise CapExceeded("pwdag enumeration capped at 8 nodes")
    closed = g.closed_masks
    nexts: dict[int, list[tuple[int, int, int]]] = {}
    found = []

    def walk(layers: list[int], reach: int, left: int) -> None:
        found.append(_sequence_wdag(layers, closed))
        if not left:
            return
        if reach not in nexts:
            nexts[reach] = _next_layers(reach, closed, node_cap - 1)
        for size, layer, below in nexts[reach]:
            if size <= left:
                layers.append(layer)
                walk(layers, below, left - size)
                layers.pop()

    for v in range(g.m):
        walk([1 << v], closed[v], node_cap - 1)
    found.sort(key=lambda item: item[0])
    for _, d in found:
        yield d


def group_pwdags(
    g: DependencyGraph, node_cap: int
) -> dict[tuple[int, int], list[WDag]]:
    """Group enumerated pwdags by (sink label i, count of nodes labelled i)."""
    groups: dict[tuple[int, int], list[WDag]] = {}
    for d in enumerate_pwdags(g, node_cap):
        (w,) = d.sinks()
        i = d.label(w)
        r = sum(1 for v in d.nodes if d.label(v) == i)
        groups.setdefault((i, r), []).append(d)
    return groups


# ---------------------------------------------------------------------------
# reversible arcs

def is_reversible(d: WDag, u: int, v: int) -> bool:
    """An arc is reversible iff it is the unique directed path u -> v. Any
    other u -> v path ends in an arc from another parent of v, so the arc is
    reversible iff u is not among the ancestors of v's other parents."""
    if (u, v) not in d.arcs:
        raise InputError(f"({u},{v}) is not an arc")
    return u not in closure(d, d._parents[v] - {u})


def _m_reversible_arcs(d: WDag, m: Matching) -> list[tuple[int, int]]:
    out = []
    for u, v in sorted(d.arcs):
        pair = (min(d.label(u), d.label(v)), max(d.label(u), d.label(v)))
        if pair in m.pairs and is_reversible(d, u, v):
            out.append((u, v))
    return out


def m_reversible_nodes(
    d: WDag, m: Matching
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """Nodes participating in matched reversible arcs, total and per label."""
    nodes: set[int] = set()
    for u, v in _m_reversible_arcs(d, m):
        nodes.update((u, v))
    per_label: dict[int, set[int]] = {}
    for v in nodes:
        per_label.setdefault(d.label(v), set()).add(v)
    return frozenset(nodes), {k: frozenset(s) for k, s in per_label.items()}


def node_list_for_pair(d: WDag, i: int, j: int) -> list[int]:
    """All nodes labelled i or j in topological order, each at its
    lambda_order. Assumes a valid wdag with i and j equal or adjacent, so
    these nodes are pairwise arc-connected and the order is unique."""
    pair = (i, j)
    members = [v for v in d.nodes if d.label(v) in pair]
    return sorted(members, key=lambda v: lambda_order(d, v, pair))


def lambda_order(d: WDag, v: int, pair: tuple[int, int]) -> int:
    """1-based position of v, labelled in pair, in the pair's topological
    node list: 1 plus v's parents labelled in pair. Assumes a valid wdag,
    as node_list_for_pair does."""
    return 1 + sum(1 for u in d._parents[v] if d.label(u) in pair)


def disjoint_reversible_pairs(d: WDag, m: Matching) -> frozenset[tuple[int, int]]:
    """Greedy scan of each matched pair's node list, taking a reversible
    consecutive matched arc and skipping past it. Covers, per matched label,
    at least half the nodes participating in matched reversible arcs.
    """
    chosen: set[tuple[int, int]] = set()
    for i, j in sorted(m.pairs):
        lst = node_list_for_pair(d, i, j)
        k = 0
        while k < len(lst) - 1:
            u, v = lst[k], lst[k + 1]
            if d.label(u) != d.label(v) and (u, v) in d.arcs and is_reversible(d, u, v):
                chosen.add((u, v))
                k += 2
            else:
                k += 1
    return frozenset(chosen)


def reverse_arc(d: WDag, u: int, v: int) -> WDag:
    """phi(D, u, v): reverse a reversible arc, then take the prefix at the
    original sink. Nodes that lose their path to the sink are dropped.
    """
    sinks = d.sinks()
    if len(sinks) != 1:
        raise InputError("reverse_arc requires a single-sink wdag")
    if not is_reversible(d, u, v):
        raise InputError(f"arc ({u},{v}) is not reversible")
    (w,) = sinks
    arcs = set(d.arcs)
    arcs.discard((u, v))
    arcs.add((v, u))
    flipped = WDag(d.labels, frozenset(arcs))
    return prefix(flipped, (w,))


# ---------------------------------------------------------------------------
# consistency with tables

def sample_indices(d: WDag, v: int, vbl: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """For node v, the resampling-table column per variable of its event:
    one plus the number of v's parents whose event also touches the variable.

    Assumes d is valid for a graph in which events sharing a variable are
    adjacent, such as the system's dependency graph: the nodes reading a
    variable are then pairwise arc-connected, and v's parents among them are
    all those resampled before it.
    """
    parents = d._parents[v]
    return {j: 1 + sum(1 for u in parents if j in vbl[d.label(u)]) for j in vbl[d.label(v)]}


def consistent_with_table(d: WDag, system, table) -> bool:
    """Every node's event holds on the table entries read just before the
    corresponding resampling would happen.
    """
    vbl = {i: system.events[i - 1].vbl for i in range(1, len(system.events) + 1)}
    for v in d.nodes:
        cols = sample_indices(d, v, vbl)
        assignment = {j: table.entry(j, k) for j, k in cols.items()}
        if not system.holds(d.label(v), assignment):
            return False
    return True


def consistent_with_tables(d: WDag, system, x_table, y_table, m: Matching) -> bool:
    """Consistent with the resampling table, and every matched reversible arc
    that disagrees with the auxiliary table has an inconsistent reversal."""
    return (
        consistent_with_table(d, system, x_table)
        and _consistent_flip(d, system, x_table, y_table, m) is None
    )


def _consistent_flip(d: WDag, system, x_table, y_table, m: Matching) -> WDag | None:
    """reverse_arc of the first matched reversible arc (u, v) whose auxiliary
    entry at u's lambda_order names v's label and whose reversal is
    consistent with the resampling table; None if there is no such arc."""
    for u, v in _m_reversible_arcs(d, m):
        lu, lv = d.label(u), d.label(v)
        pair = (min(lu, lv), max(lu, lv))
        if y_table.entry(pair, lambda_order(d, u, pair)) != lv:
            continue
        candidate = reverse_arc(d, u, v)
        if consistent_with_table(candidate, system, x_table):
            return candidate
    return None


def repair_to_consistent(d0: WDag, system, x_table, y_table, m: Matching) -> WDag:
    """Repeatedly reverse an auxiliary-table-inconsistent matched reversible
    arc whose reversal stays consistent with the resampling table. Terminates
    (no wdag ever repeats) and returns a wdag consistent with both tables,
    in the same (sink label, label count) class as d0.
    """
    if not consistent_with_table(d0, system, x_table):
        raise InputError("repair requires a resampling-table-consistent start")
    d = d0
    visited = {canonical_key(d)}
    while True:
        successor = _consistent_flip(d, system, x_table, y_table, m)
        if successor is None:
            return d
        d = successor
        key = canonical_key(d)
        if key in visited:
            raise AssertionError("repair revisited a wdag")
        visited.add(key)


# ---------------------------------------------------------------------------
# matched double cover and the label-splitting maps

@dataclass(frozen=True)
class HomomorphicGraph:
    """Dependency graph after splitting each matched vertex i into i+ / i-.

    Vertex names: "k" for unmatched original k, "k+" (weight p'_k) and "k-"
    (weight p-_k - p'_k) for matched k. The probability of an unmatched
    vertex is p-_k.
    """

    graph: DependencyGraph
    names: tuple[str, ...]
    p_m: ProbabilityVector
    index: dict[str, int]

    def up(self, i: int) -> int:
        return self.index[f"{i}+"]

    def down(self, i: int) -> int:
        return self.index[f"{i}-"]

    def plain(self, i: int) -> int:
        return self.index[str(i)]


def homomorphic_graph(
    g: DependencyGraph,
    m: Matching,
    p: ProbabilityVector,
    p_minus: ProbabilityVector,
    p_prime: ProbabilityVector,
) -> HomomorphicGraph:
    m.validate_against(g)
    names: list[str] = []
    weights: list[Fraction] = []
    for i in g.vertices:
        if m.covers(i):
            if p_minus[i] < p_prime[i]:
                raise InputError(f"p-_{i} < p'_{i} gives negative split mass")
            names.append(f"{i}+")
            weights.append(p_prime[i])
            names.append(f"{i}-")
            weights.append(p_minus[i] - p_prime[i])
        else:
            names.append(str(i))
            weights.append(p_minus[i])
    index = {nm: k + 1 for k, nm in enumerate(names)}

    def splits(i: int) -> list[str]:
        return [f"{i}+", f"{i}-"] if m.covers(i) else [str(i)]

    edges: set[tuple[int, int]] = set()
    for i0, i1 in g.edges:
        group = [index[nm] for nm in splits(i0) + splits(i1)]
        for a, b in combinations(sorted(group), 2):
            edges.add((a, b))
    graph = DependencyGraph(len(names), frozenset(edges))
    return HomomorphicGraph(graph, tuple(names), ProbabilityVector(tuple(weights)), index)


@dataclass(frozen=True)
class Partition4:
    """Ordered 4-way partition of the matched-label nodes of a wdag, with
    every matched-reversible node forced into the first block."""

    s1: frozenset[int]
    s2: frozenset[int]
    s3: frozenset[int]
    s4: frozenset[int]


def matched_nodes(d: WDag, m: Matching) -> frozenset[int]:
    return frozenset(v for v in d.nodes if m.covers(d.label(v)))


def partitions_psi(d: WDag, m: Matching) -> Iterator[Partition4]:
    """All 4^|free| ordered partitions, where free nodes are the matched
    nodes not participating in any matched reversible arc."""
    reversible, _ = m_reversible_nodes(d, m)
    free = sorted(matched_nodes(d, m) - reversible)
    for assign in product((1, 2, 3, 4), repeat=len(free)):
        blocks: dict[int, set[int]] = {1: set(reversible), 2: set(), 3: set(), 4: set()}
        for v, b in zip(free, assign):
            blocks[b].add(v)
        yield Partition4(*(frozenset(blocks[b]) for b in (1, 2, 3, 4)))


def map_h(d: WDag, s: Partition4, m: Matching, hom: HomomorphicGraph) -> WDag:
    """Image wdag over the split graph: every original node keeps a copy with
    an up/down label, and each node of the third/fourth blocks additionally
    spawns a partner-labelled companion after the copies. The order is
    (position in topological_order(d), 0 for a companion, 1 for a copy); a
    matched pair is an edge, so each companion is arced into its copy."""
    pos = {v: k for k, v in enumerate(topological_order(d))}
    labels, rank = [], []
    for v in d.nodes:
        lab = d.label(v)
        if v in s.s1:
            labels.append(hom.up(lab))
        elif v in s.s2 or v in s.s3 or v in s.s4:
            labels.append(hom.down(lab))
        else:
            labels.append(hom.plain(lab))
        rank.append((pos[v], 1))
    for v in sorted(s.s3 | s.s4):
        partner = m.partner(d.label(v))
        labels.append(hom.up(partner) if v in s.s3 else hom.down(partner))
        rank.append((pos[v], 0))
    return WDag(tuple(labels), frozenset(ordered_arcs(labels, rank, hom.graph.closed_masks)))


def split_labels(d: WDag, bits: Sequence[int], m: Matching, hom: HomomorphicGraph) -> WDag:
    """Rewrite matched labels to up (bit 0) or down (bit 1) copies, keeping
    nodes and arcs; ranges over all bit strings, this bijects onto the split
    graph's pwdags."""
    matched = sorted(matched_nodes(d, m))
    if len(bits) != len(matched):
        raise InputError("one bit per matched node required")
    labels = []
    bit_of = dict(zip(matched, bits))
    for v in d.nodes:
        lab = d.label(v)
        if v in bit_of:
            labels.append(hom.down(lab) if bit_of[v] else hom.up(lab))
        elif m.covers(lab):
            raise AssertionError("matched node missed")
        else:
            labels.append(hom.plain(lab))
    return WDag(tuple(labels), d.arcs)


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class WeightSums:
    by_size: dict[int, Fraction]
    cumulative: Fraction
    node_cap: int


def wdag_weight(d: WDag, p: ProbabilityVector) -> Fraction:
    out = Fraction(1)
    for v in d.nodes:
        out *= p[d.label(v)]
    return out


#: pwdag node counts above this are refused by weight_sums: the exact size-n
#: sum has a numerator and denominator of about n times the bits of the
#: common denominator of p, and the DP table holds node_cap such values per
#: state
MAX_SUM_NODES = 64

#: independent subsets plus table entries the weight-sum DP may hold
MAX_DP_STATES = 100_000


def weight_sums(g: DependencyGraph, p: ProbabilityVector, node_cap: int) -> WeightSums:
    """Exact per-size partial sums of pwdag weights, by dynamic programming
    over stable-set sequences instead of enumeration.

    A layer's successors depend on it only through its closed neighbourhood
    R. T(R, b), the weight of the continuations below such a layer with
    exactly b more nodes, is 1 for b = 0 and otherwise the sum of
    w(S) * T(reach(S), b - |S|) over nonempty independent S in R. The size-n
    sum is the sum of p_i * T(reach(i), n - 1). Weights are scaled to
    integers over a common denominator, so the table holds integers. Raises
    CapExceeded before holding more than MAX_DP_STATES subsets and entries.
    """
    if node_cap < 1:
        raise InputError("node_cap must be positive")
    if len(p) != g.m:
        raise InputError("probability vector length mismatch")
    if node_cap > MAX_SUM_NODES:
        raise CapExceeded(f"weight sums capped at {MAX_SUM_NODES} nodes")
    den = lcm(*(x.denominator for x in p.values))
    num = [(x * den).numerator for x in p.values]
    closed = g.closed_masks

    # successors of every reachable R: (|S|, scaled weight of S, reach(S))
    succ: dict[int, list[tuple[int, int, int]]] = {}
    held = 0
    todo = list(closed)
    while todo:
        reach = todo.pop()
        if reach in succ:
            continue
        held += node_cap
        layers = _next_layers(reach, closed, node_cap - 1, MAX_DP_STATES - held)
        if layers is None or held > MAX_DP_STATES:
            raise CapExceeded(f"weight-sum DP capped at {MAX_DP_STATES} states")
        held += len(layers)
        succ[reach] = [
            (size, prod(num[v] for v in _members(layer)), below) for size, layer, below in layers
        ]
        todo.extend(below for _, _, below in layers)

    table = {reach: [1] + [0] * (node_cap - 1) for reach in succ}
    for b in range(1, node_cap):
        for reach, out in succ.items():
            table[reach][b] = sum(w * table[r][b - k] for k, w, r in out if k <= b)
    by_size = {
        n: Fraction(sum(num[v] * table[closed[v]][n - 1] for v in range(g.m)), den**n)
        for n in range(1, node_cap + 1)
    }
    return WeightSums(by_size, sum(by_size.values(), Fraction(0)), node_cap)


def tighter_weight(
    d: WDag, p: ProbabilityVector, p_prime: ProbabilityVector, m: Matching
) -> Fraction:
    """Weight with matched-reversible nodes priced at p' instead of p."""
    reversible, _ = m_reversible_nodes(d, m)
    out = Fraction(1)
    for v in d.nodes:
        out *= p_prime[d.label(v)] if v in reversible else p[d.label(v)]
    return out
