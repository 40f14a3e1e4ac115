"""Witness-DAG calculus.

Labeled DAGs recording resampling histories: validity, prefixes, single-sink
wdags (pwdags) built once per structural class from stable-set sequences,
reversible arcs, the wdag of a run, consistency with resampling/auxiliary
tables, the repair procedure that realigns a wdag with an auxiliary table,
label splitting into the matched double-cover graph, and exact weight sums
by dynamic programming over the same sequences.

Stable-set sequences (Kolipaka-Szegedy, STOC 2011): the pwdags with sink label
i correspond one-to-one to the sequences of nonempty independent sets
I_1 = {i}, I_{k+1} a subset of the closed neighbourhood of I_k, where layer k
holds the nodes whose longest path to the sink has k nodes. A pwdag's weight
is the product of p over all members of all layers.

Node identity convention: a wdag on n nodes uses ids 1..n and `labels[k-1]`
is the label of node k. A wdag is stored as one parent mask per node: bit u-1
of `parents[v-1]` is set when (u, v) is an arc. Every reader (sinks, the
topological order, closures, validity, reversibility, the canonical key)
works on these masks; `arcs`, the same arcs as (u, v) pairs, is built on
first read, for readers that take pairs. Arc rule: exactly the nodes with
equal or adjacent labels are joined, from the earlier to the later node, so
a set of such pairwise-conflicting nodes is totally ordered, and a node's
position in it is 1 plus the number of its parents in the set.
`ordered_parents` applies it to runs (time order) and split images (the
original wdag's topological order). A stable-set sequence's pwdag reads its
parents off its layers instead: the earlier of two conflicting nodes is the
deeper one.
The canonical key renames node v to its pair (label, rank-within-label), the
rank being 1 plus v's same-label parents, and sorts. Two valid wdags are
structurally equal iff their canonical keys coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import CapExceeded, DependencyGraph, InputError, Matching, _members
from .shearer import ProbabilityVector, _integers


@dataclass(frozen=True, init=False)
class WDag:
    """A labelled digraph on nodes 1..n: `labels[v-1]` is node v's label, and
    bit u-1 of `parents[v-1]` is set when (u, v) is an arc."""

    labels: tuple[int, ...]
    parents: tuple[int, ...]

    def __init__(self, labels: tuple[int, ...], parents: Sequence[int] = (), *, arcs=None):
        """Given arcs, (u, v) pairs of node ids, they replace parents, so
        dataclasses.replace(d, arcs=...) also builds from pairs."""
        n = len(labels)
        if arcs is not None:
            masks = [0] * n
            for u, v in arcs:
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise InputError(f"arc ({u},{v}) out of range")
                masks[v - 1] |= 1 << (u - 1)
            parents = masks
        elif len(parents) != n:
            raise InputError("one parent mask per node required")
        for v, mask in enumerate(parents):
            # a negative mask, like one with a bit at n or above, shifts to nonzero
            if type(mask) is not int or mask >> n or mask >> v & 1:
                raise InputError(f"parent mask {mask!r} of node {v + 1} out of range")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "parents", tuple(parents))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def label(self, v: int) -> int:
        return self.labels[v - 1]

    def sinks(self) -> tuple[int, ...]:
        with_child = 0
        for mask in self.parents:
            with_child |= mask
        return tuple(v for v in self.nodes if not with_child >> (v - 1) & 1)

    # Derived structure, computed on first use and kept in the instance's
    # __dict__: it is freed with the wdag and plays no part in ==, hash or repr.

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs as (u, v) pairs."""
        return frozenset((u + 1, v) for v, mask in enumerate(self.parents, 1) for u in _members(mask))

    @cached_property
    def _topological_order(self) -> tuple[int, ...]:
        parents, placed, out = self.parents, 0, []
        left = (1 << self.n) - 1
        while left:
            ready = left
            while ready:  # the lowest node whose parents are all placed
                low = ready & -ready
                if not parents[low.bit_length() - 1] & ~placed:
                    break
                ready ^= low
            else:
                raise InputError("wdag contains a cycle")
            placed |= low
            left ^= low
            out.append(low.bit_length())
        return tuple(out)


def topological_order(d: WDag) -> tuple[int, ...]:
    """Lexicographic-minimal topological order (deterministic pi_D)."""
    return d._topological_order


def _label_masks(labels: Sequence[int]) -> dict[int, int]:
    """The mask of the nodes (0-based bits) of each label present."""
    out: dict[int, int] = {}
    for v, lab in enumerate(labels):
        out[lab] = out.get(lab, 0) | 1 << v
    return out


def ordered_parents(labels: Sequence[int], rank: Sequence, closed: Sequence[int]) -> tuple[int, ...]:
    """The parent masks of the arcs between nodes whose labels conflict (bit
    labels[b-1]-1 of closed[labels[a-1]-1], closed being the graph's
    closed_masks), each from the lower rank to the higher. The nodes are
    visited in rank order, and a node's parent mask ORs the masks of the
    visited nodes of each label that conflicts with its own. Precondition:
    conflicting nodes never share a rank."""
    by_label: dict[int, int] = {}  # the visited nodes of each label
    parents = [0] * len(labels)
    for v in sorted(range(len(labels)), key=rank.__getitem__):
        lab = labels[v]
        reach, mask = closed[lab - 1], 0
        for other, nodes in by_label.items():
            if reach >> (other - 1) & 1:
                mask |= nodes
        parents[v] = mask
        by_label[lab] = by_label.get(lab, 0) | 1 << v
    return tuple(parents)


def validate_wdag(d: WDag, g: DependencyGraph) -> bool:
    """Acyclic, and for every node pair exactly one arc exists iff their
    labels are equal or adjacent (no arc otherwise). Tested as: every arc
    joins conflicting nodes, there are as many arcs as conflicting pairs, and
    the topological order exists, which rules out a pair joined both ways.
    Independent of ordered_parents, so it can judge its outputs.
    """
    if not all(1 <= lab <= g.m for lab in d.labels):
        return False
    closed = g.closed_masks
    by_label = _label_masks(d.labels)
    conflicts = {}  # per label: the nodes whose labels conflict with it
    for lab in by_label:
        reach, conflicting = closed[lab - 1], 0
        for other, nodes in by_label.items():
            if reach >> (other - 1) & 1:
                conflicting |= nodes
        conflicts[lab] = conflicting
    arcs = ends = 0  # ends counts each conflicting pair twice
    for v, (lab, up) in enumerate(zip(d.labels, d.parents)):
        conflicting = conflicts[lab] & ~(1 << v)
        if up & ~conflicting:
            return False
        arcs += up.bit_count()
        ends += conflicting.bit_count()
    if 2 * arcs != ends:
        return False
    try:
        topological_order(d)
    except InputError:  # a cycle
        return False
    return True


def canonical_key(d: WDag):
    """Structure-invariant encoding: rename nodes to (label, within-label
    rank) and sort, where the rank is 1 plus the node's same-label parents.

    Assumes a valid wdag, in which same-label nodes are pairwise joined by
    arcs; on other labelled DAGs two nodes may share a rank.
    """
    same = _label_masks(d.labels)
    pair = [(lab, 1 + (mask & same[lab]).bit_count()) for lab, mask in zip(d.labels, d.parents)]
    arcs = []
    for head, mask in zip(pair, d.parents):
        while mask:  # _members inlined: this key is built for every map_h image
            low = mask & -mask
            arcs.append((pair[low.bit_length() - 1], head))
            mask ^= low
    arcs.sort()
    return (tuple(sorted(pair)), tuple(arcs))


# ---------------------------------------------------------------------------
# prefixes

def _ancestors(parents: Sequence[int], mask: int) -> int:
    """mask and every node with a directed path into it (0-based bits)."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        new = parents[low.bit_length() - 1] & ~mask
        mask |= new
        todo |= new
    return mask


def closure(d: WDag, nodes: Iterable[int]) -> frozenset[int]:
    """All nodes with a directed path to some u in nodes (each node reaches
    itself)."""
    mask = 0
    for v in nodes:
        mask |= 1 << (v - 1)
    return frozenset(v + 1 for v in _members(_ancestors(d.parents, mask)))


def prefix(d: WDag, nodes: Sequence[int]) -> WDag:
    """Induced sub-wdag on closure(nodes); node ids renumbered ascending."""
    keep = sorted(closure(d, nodes))
    new_bit = {v - 1: 1 << k for k, v in enumerate(keep)}
    # a closure holds every parent of its nodes
    parents = tuple(sum(new_bit[u] for u in _members(d.parents[v - 1])) for v in keep)
    return WDag(tuple(d.label(v) for v in keep), parents)


def single_sink_prefix_count(d: WDag) -> int:
    """Number of distinct prefixes of d having exactly one sink. A prefix with
    the single sink v is the closure of v, so these are the distinct one-node
    closures."""
    return len({_ancestors(d.parents, 1 << v) for v in range(d.n)})


# ---------------------------------------------------------------------------
# stable-set sequences: enumeration of proper wdags

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


#: _REV8[b] is the byte b with its bit order reversed
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _pwdags(g: DependencyGraph, node_cap: int) -> list[tuple[int, WDag]]:
    """(sink label, pwdag) of every stable-set sequence with at most
    node_cap nodes, in enumerate_pwdags' order.

    A pwdag numbers its nodes by label, and deepest first within a label;
    the walk keeps the layers' members, a node count per label and the
    label set. The layers are read from the deepest up, so a node's parents
    are the nodes already numbered whose labels conflict with its own: arcs
    run from deeper to shallower, and a layer holds no conflicting pair.

    The sort key is one bytes object: n, each label big-endian in a fixed
    width, and the parent masks as bytes with their bits reversed. It
    orders pwdags as (n, labels, sorted arc tuple) does. Two pwdags with the
    same labels join the same node pairs, each by one arc. Their sorted arc
    tuples first differ at the lowest pair a < b (lowest a, then b) that
    they orient differently, and the one with the arc (a, b) comes first.
    Their reversed masks first differ at node a, bit b, which the one with
    the arc (b, a) has set. A mask fits a byte while n <= MAX_ENUM_NODES.
    """
    if node_cap < 1:
        raise InputError("node_cap must be positive")
    if node_cap > MAX_ENUM_NODES:
        raise CapExceeded(f"pwdag enumeration capped at {MAX_ENUM_NODES} nodes")
    closed, m = g.closed_masks, g.m
    names = [v.to_bytes((m.bit_length() + 7) // 8, "big") for v in range(m + 1)]  # key bytes per label
    nexts: dict[int, list[tuple[int, int, tuple[int, ...], int]]] = {}
    # per label set met: its members ascending, and for each member the
    # members that conflict with it
    label_sets: dict[int, tuple[tuple[int, ...], dict[int, tuple[int, ...]]]] = {}
    count, first, numbered = [0] * m, [0] * m, [0] * m  # per label; a pwdag resets its own
    layers: list[tuple[int, ...]] = []
    keys: list[bytes] = []
    found: list[tuple[int, WDag]] = []

    def build(present: int) -> None:
        entry = label_sets.get(present)
        if entry is None:
            members = tuple(_members(present))
            entry = label_sets[present] = (
                members,
                {v: tuple(u for u in members if closed[v] >> u & 1) for v in members},
            )
        members, conflicts = entry
        labels: list[int] = []
        for v in members:
            first[v] = len(labels)
            numbered[v] = 0
            labels += [v + 1] * count[v]
        parents = [0] * len(labels)
        for layer in reversed(layers):
            for v in layer:
                k = first[v]
                first[v] = k + 1
                mask = 0
                for u in conflicts[v]:
                    mask |= numbered[u]
                parents[k] = mask
                numbered[v] |= 1 << k
        label_bytes = b"".join(map(names.__getitem__, labels))
        keys.append(bytes((len(labels),)) + label_bytes + bytes(parents).translate(_REV8))
        found.append((layers[0][0] + 1, WDag(tuple(labels), parents)))

    def walk(present: int, reach: int, left: int) -> None:
        build(present)
        if not left:
            return
        if reach not in nexts:
            nexts[reach] = [
                (size, layer, tuple(_members(layer)), below)
                for size, layer, below in _next_layers(reach, closed, node_cap - 1)
            ]
        for size, layer, members, below in nexts[reach]:
            if size <= left:
                layers.append(members)
                for v in members:
                    count[v] += 1
                walk(present | layer, below, left - size)
                for v in members:
                    count[v] -= 1
                layers.pop()

    for v in range(m):
        layers.append((v,))
        count[v] = 1
        walk(1 << v, closed[v], node_cap - 1)
        count[v] = 0
        layers.pop()
    # bytes keys are not tracked by the garbage collector, as tuple keys are
    return [found[k] for k in sorted(range(len(keys)), key=keys.__getitem__)]


def enumerate_pwdags(g: DependencyGraph, node_cap: int) -> Iterator[WDag]:
    """All single-sink wdags of g with at most node_cap nodes, one
    representative per structural class, in canonical form, ordered by node
    count, then sorted label tuple, then canonical arc key.

    Walks the stable-set sequences depth first and builds each pwdag once
    from its sequence.
    """
    for _, d in _pwdags(g, node_cap):
        yield d


def group_pwdags(
    g: DependencyGraph, node_cap: int
) -> dict[tuple[int, int], list[WDag]]:
    """Group enumerated pwdags by (sink label i, count of nodes labelled i)."""
    groups: dict[tuple[int, int], list[WDag]] = {}
    for i, d in _pwdags(g, node_cap):
        groups.setdefault((i, d.labels.count(i)), []).append(d)
    return groups


# ---------------------------------------------------------------------------
# reversible arcs

def is_reversible(d: WDag, u: int, v: int) -> bool:
    """An arc is reversible iff it is the unique directed path u -> v. Any
    other u -> v path ends in an arc from another parent of v, so the arc is
    reversible iff u is not among the ancestors of v's other parents."""
    if not (1 <= u <= d.n and 1 <= v <= d.n and d.parents[v - 1] >> (u - 1) & 1):
        raise InputError(f"({u},{v}) is not an arc")
    bit = 1 << (u - 1)
    return not _ancestors(d.parents, d.parents[v - 1] & ~bit) & bit


def _m_reversible_arcs(d: WDag, m: Matching) -> list[tuple[int, int]]:
    """The reversible arcs between matched labels, sorted."""
    labels = d.labels
    matched = sorted(
        (u + 1, v)
        for v, mask in enumerate(d.parents, 1)
        for u in _members(mask)
        if (min(labels[u], labels[v - 1]), max(labels[u], labels[v - 1])) in m.pairs
    )
    return [(u, v) for u, v in matched if is_reversible(d, u, v)]


def m_reversible_nodes(d: WDag, m: Matching) -> frozenset[int]:
    """Nodes participating in matched reversible arcs."""
    return frozenset(chain.from_iterable(_m_reversible_arcs(d, m)))


def lambda_order(d: WDag, v: int, pair: tuple[int, int]) -> int:
    """1-based position of v, labelled in pair, among the nodes labelled in
    pair, in topological order: 1 plus v's parents labelled in pair. Assumes
    a valid wdag with the pair's labels equal or adjacent, so these nodes
    are pairwise joined by arcs and the order is unique."""
    inside = sum(1 << k for k, lab in enumerate(d.labels) if lab in pair)
    return 1 + (d.parents[v - 1] & inside).bit_count()


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
    parents = list(d.parents)
    parents[v - 1] &= ~(1 << (u - 1))
    parents[u - 1] |= 1 << (v - 1)
    return prefix(WDag(d.labels, parents), (w,))


# ---------------------------------------------------------------------------
# runs and consistency with tables
#
# These read an event system, a run and tables by their fields only, so the
# calculus does not import the engine.

def witness_dag_of_run(system, stats) -> WDag:
    """The wdag of a run's resample sequence: node k is the k-th resampling,
    and the arc rule (`ordered_parents`) runs in time order."""
    seq, closed = stats.sequence, system.dependency_graph.closed_masks
    return WDag(tuple(seq), ordered_parents(seq, range(len(seq)), closed))


def sample_indices(d: WDag, v: int, vbl: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """For node v, the resampling-table column per variable of its event:
    one plus the number of v's parents whose event also touches the variable.

    Assumes d is valid for a graph in which events sharing a variable are
    adjacent, such as the system's dependency graph: the nodes reading a
    variable are then pairwise arc-connected, and v's parents among them are
    all those resampled before it.
    """
    parent_labels = [d.labels[u] for u in _members(d.parents[v - 1])]
    return {j: 1 + sum(1 for lab in parent_labels if j in vbl[lab]) for j in vbl[d.label(v)]}


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
    vertex is p-_k. copies[k-1] holds the split vertices of original k:
    those of "k+" and "k-" if k is matched, that of "k" if not.
    """

    graph: DependencyGraph
    names: tuple[str, ...]
    p_m: ProbabilityVector
    copies: tuple[tuple[int, ...], ...]

    def up(self, i: int) -> int:
        up, _ = self.copies[i - 1]
        return up

    def down(self, i: int) -> int:
        _, down = self.copies[i - 1]
        return down

    def plain(self, i: int) -> int:
        (plain,) = self.copies[i - 1]
        return plain


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
    copies: list[tuple[int, ...]] = []
    for i in g.vertices:
        k = len(names) + 1
        if m.covers(i):
            if p_minus[i] < p_prime[i]:
                raise InputError(f"p-_{i} < p'_{i} gives negative split mass")
            names += (f"{i}+", f"{i}-")
            weights += (p_prime[i], p_minus[i] - p_prime[i])
            copies.append((k, k + 1))
        else:
            names.append(str(i))
            weights.append(p_minus[i])
            copies.append((k,))
    edges: set[tuple[int, int]] = set()
    for i0, i1 in g.edges:
        edges.update(combinations(copies[i0 - 1] + copies[i1 - 1], 2))
    graph = DependencyGraph(len(names), frozenset(edges))
    return HomomorphicGraph(graph, tuple(names), ProbabilityVector(tuple(weights)), tuple(copies))


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
    nodes not participating in any matched reversible arc, in the order of
    product(blocks, repeat=|free|) over the free nodes ascending. Each block
    is one of the 2^|free| subsets of the free nodes (with the reversible
    nodes, in the first block), built once per call."""
    reversible = m_reversible_nodes(d, m)
    free = sorted(matched_nodes(d, m) - reversible)
    blocks = [frozenset(v for k, v in enumerate(free) if sub >> k & 1) for sub in range(1 << len(free))]
    firsts = [reversible | block for block in blocks]
    for assign in product(range(4), repeat=len(free)):
        subs = [0, 0, 0, 0]
        for k, b in enumerate(assign):
            subs[b] |= 1 << k
        yield Partition4(firsts[subs[0]], blocks[subs[1]], blocks[subs[2]], blocks[subs[3]])


def map_h(d: WDag, s: Partition4, m: Matching, hom: HomomorphicGraph) -> WDag:
    """Image wdag over the split graph: every original node keeps a copy with
    an up/down label, and each node of the third/fourth blocks additionally
    spawns a partner-labelled companion after the copies. The order is
    2 * (position in topological_order(d)), plus 1 for a copy, so a
    companion comes just before its copy; a matched pair is an edge, so each
    companion is arced into its copy."""
    pos = {v: k for k, v in enumerate(topological_order(d))}
    labels, rank = [], []
    for v, lab in enumerate(d.labels, 1):
        if v in s.s1:
            labels.append(hom.up(lab))
        elif v in s.s2 or v in s.s3 or v in s.s4:
            labels.append(hom.down(lab))
        else:
            labels.append(hom.plain(lab))
        rank.append(2 * pos[v] + 1)
    for v in sorted(s.s3 | s.s4):
        partner = m.partner(d.labels[v - 1])
        labels.append(hom.up(partner) if v in s.s3 else hom.down(partner))
        rank.append(2 * pos[v])
    return WDag(tuple(labels), ordered_parents(labels, rank, hom.graph.closed_masks))


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
    return WDag(tuple(labels), d.parents)


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class WeightSums:
    by_size: dict[int, Fraction]
    cumulative: Fraction
    node_cap: int


def wdag_weight(d: WDag, p: ProbabilityVector) -> Fraction:
    """The product of p over the node labels, taken on the integer
    numerators over the common denominator of p."""
    num, den = _integers(p.values)
    return Fraction(prod(num[label - 1] for label in d.labels), den**d.n)


#: pwdag node counts above this are refused by enumerate_pwdags and
#: group_pwdags. Their sort key holds each parent mask in one byte, so with
#: a higher cap bytes(parents) would raise ValueError rather than misorder
MAX_ENUM_NODES = 8

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
    # each distinct closed neighbourhood is a state of node_cap entries and a
    # mask of ceil(m/64) words, so this many states are refused before their
    # masks, about m^2/16 bytes, exist: they are counted as vertex sets
    words = (g.m + 63) // 64
    closed_sets = {v: {v} for v in g.vertices}
    for u, v in g.edges:
        closed_sets[u].add(v)
        closed_sets[v].add(u)
    if len({frozenset(s) for s in closed_sets.values()}) * (node_cap + words) > MAX_DP_STATES:
        raise CapExceeded(f"weight-sum DP capped at {MAX_DP_STATES} states")
    num, den = _integers(p.values)
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
    """Weight with matched-reversible nodes priced at p' instead of p, on
    the integer numerators of both over their common denominator."""
    reversible = m_reversible_nodes(d, m)
    num, den = _integers(p.values + p_prime.values)  # p' at offset len(p)
    picked = (num[d.label(v) - 1 + (len(p) if v in reversible else 0)] for v in d.nodes)
    return Fraction(prod(picked), den**d.n)
