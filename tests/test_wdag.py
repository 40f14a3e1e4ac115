import dataclasses
import heapq
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from lll_workbench.graphs import DependencyGraph, InputError, Matching
from lll_workbench.mt_engine import (
    Event,
    EventSystem,
    FiniteVariable,
    RunStats,
    ValueSet,
)
from lll_workbench.shearer import CapExceeded, ProbabilityVector, expected_resample_bound
from lll_workbench.tables import FixedTable
from lll_workbench.wdag import (
    MAX_SUM_NODES,
    Partition4,
    WDag,
    _REV8,
    _m_reversible_arcs,
    _next_layers,
    canonical_key,
    closure,
    consistent_with_table,
    consistent_with_tables,
    enumerate_pwdags,
    group_pwdags,
    homomorphic_graph,
    is_reversible,
    lambda_order,
    m_reversible_nodes,
    map_h,
    matched_nodes,
    ordered_parents,
    partitions_psi,
    prefix,
    repair_to_consistent,
    reverse_arc,
    sample_indices,
    single_sink_prefix_count,
    split_labels,
    tighter_weight,
    topological_order,
    validate_wdag,
    wdag_weight,
    weight_sums,
    witness_dag_of_run,
)

K1 = DependencyGraph(1, frozenset())
K2 = DependencyGraph.from_edges(2, [(1, 2)])
P3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3)])
C4 = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
M12 = Matching(frozenset({(1, 2)}))


def chain(labels):
    n = len(labels)
    arcs = frozenset((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return WDag(tuple(labels), arcs=arcs)


def canonical_form(d):
    """The wdag renumbered so that the sorted (label, rank) pairs of its
    canonical key become node ids 1..n."""
    key_nodes, key_arcs = canonical_key(d)
    ids = {pair: k for k, pair in enumerate(key_nodes, 1)}
    return WDag(tuple(pair[0] for pair in key_nodes), arcs=[(ids[a], ids[b]) for a, b in key_arcs])


# The paper's disjoint reversible pairs, which no command evaluates: each
# matched pair's nodes in topological order, scanned greedily.


def node_list_for_pair(d, i, j):
    """All nodes labelled i or j in topological order, each at its
    lambda_order (i and j equal or adjacent)."""
    return sorted((v for v in d.nodes if d.label(v) in (i, j)), key=lambda v: lambda_order(d, v, (i, j)))


def disjoint_reversible_pairs(d, m):
    """Greedy scan of each matched pair's node list, taking a reversible
    consecutive matched arc and skipping past it. Covers, per matched label,
    at least half the nodes participating in matched reversible arcs."""
    chosen = set()
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


# ---------------------------------------------------------------------------
# reference oracle: pwdags by orientation brute force

def reference_pwdags(g, node_cap):
    """Every label multiset in order; for each, every orientation of the
    cross-label conflict pairs (same-label nodes chained in position order),
    kept when acyclic with a single sink, in canonical form and sorted by
    canonical key."""
    for n in range(1, node_cap + 1):
        for labels in combinations_with_replacement(range(1, g.m + 1), n):
            yield from _reference_pwdags_for_multiset(g, labels)


def _reference_pwdags_for_multiset(g, labels):
    n = len(labels)
    fixed, free = [], []
    conflict_adj = {v: set() for v in range(1, n + 1)}
    for a, b in combinations(range(1, n + 1), 2):
        la, lb = labels[a - 1], labels[b - 1]
        if la == lb:
            fixed.append((a, b))
        elif g.has_edge(la, lb):
            free.append((a, b))
        else:
            continue
        conflict_adj[a].add(b)
        conflict_adj[b].add(a)
    seen, stack = {1}, [1]
    while stack:
        u = stack.pop()
        for w in conflict_adj[u] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != n:
        return []
    results = []
    for bits in range(1 << len(free)):
        arcs = set(fixed)
        for k, (a, b) in enumerate(free):
            arcs.add((a, b) if not bits >> k & 1 else (b, a))
        if not reference_is_acyclic(n, arcs):
            continue
        d = WDag(labels, arcs=frozenset(arcs))
        if len(d.sinks()) == 1:
            results.append(canonical_form(d))
    return sorted(results, key=canonical_key)


def reference_is_acyclic(n, arcs):
    """Kahn's algorithm on nodes 1..n."""
    indeg = [0] * (n + 1)
    children = [[] for _ in range(n + 1)]
    for u, v in arcs:
        indeg[v] += 1
        children[u].append(v)
    stack = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while stack:
        seen += 1
        for w in children[stack.pop()]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == n


def reference_closures(d):
    """Distinct closures of all 2^n node subsets."""
    return {closure(d, combo) for r in range(d.n + 1) for combo in combinations(d.nodes, r)}


def reference_is_prefix(h, d):
    """True iff h equals some prefix of d, up to canonical renaming."""
    want = canonical_key(h)
    return any(
        len(keep) == h.n and canonical_key(prefix(d, tuple(keep))) == want
        for keep in reference_closures(d)
    )


def reference_single_sink_prefix_count(d):
    """Distinct closures of all 2^n node subsets with exactly one sink."""
    return sum(1 for keep in reference_closures(d) if len(prefix(d, tuple(keep)).sinks()) == 1)


# ---------------------------------------------------------------------------
# reference oracles: the set and pair code that the parent-mask readers
# replaced, reading only labels and the arcs view

def reference_parents(d):
    return {v: frozenset(u for u, w in d.arcs if w == v) for v in d.nodes}


def reference_topological_order(d):
    """Kahn's algorithm with a heap: the lexicographically least order;
    InputError on a cycle."""
    parents = reference_parents(d)
    indeg = {v: len(parents[v]) for v in d.nodes}
    ready = [v for v in d.nodes if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        u = heapq.heappop(ready)
        out.append(u)
        for w in sorted(w for a, w in d.arcs if a == u):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != d.n:
        raise InputError("wdag contains a cycle")
    return tuple(out)


def reference_set_closure(d, nodes):
    """Set walk over the parents, on any digraph."""
    parents = reference_parents(d)
    out = set(nodes)
    stack = list(out)
    while stack:
        for u in parents[stack.pop()]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return frozenset(out)


def reference_validate_wdag(d, g):
    """Labels in range, acyclic, and a node pair carries exactly one arc iff
    its labels conflict, tested pair by pair."""
    if not all(1 <= lab <= g.m for lab in d.labels):
        return False
    try:
        reference_topological_order(d)
    except InputError:
        return False
    closed = g.closed_masks
    for u, v in combinations(d.nodes, 2):
        need = bool(closed[d.label(u) - 1] >> (d.label(v) - 1) & 1)
        fwd, bwd = (u, v) in d.arcs, (v, u) in d.arcs
        if need != (fwd != bwd) or (fwd and bwd):
            return False
    return True


def reference_prefix(d, nodes):
    keep = sorted(reference_set_closure(d, nodes))
    new_id = {v: k + 1 for k, v in enumerate(keep)}
    arcs = {(new_id[u], new_id[v]) for u, v in d.arcs if u in new_id and v in new_id}
    return WDag(tuple(d.label(v) for v in keep), arcs=arcs)


def reference_pair_canonical_key(d):
    """Rank each node by 1 plus its same-label parents, from the arc pairs."""
    rank = {v: 1 + sum(1 for u, w in d.arcs if w == v and d.label(u) == d.label(v)) for v in d.nodes}
    pair = {v: (d.label(v), rank[v]) for v in d.nodes}
    return (tuple(sorted(pair.values())), tuple(sorted((pair[u], pair[v]) for u, v in d.arcs)))


# ---------------------------------------------------------------------------
# reference oracles: node order from strict-ancestor sets

def reference_ancestors(d):
    """Strict ancestors of every node, accumulated along a topological order."""
    anc = {v: set() for v in d.nodes}
    for v in topological_order(d):
        for u, w in d.arcs:
            if w == v:
                anc[v] |= {u} | anc[u]
    return anc


def reference_canonical_key(d):
    """Rank each node within its label by its same-label ancestors."""
    anc = reference_ancestors(d)
    rank = {}
    by_label = {}
    for v in d.nodes:
        by_label.setdefault(d.label(v), []).append(v)
    for lab, vs in by_label.items():
        vs_sorted = sorted(vs, key=lambda v: len(anc[v] & set(vs)))
        for k, v in enumerate(vs_sorted):
            rank[v] = (lab, k + 1)
    arcs = tuple(sorted((rank[u], rank[v]) for u, v in d.arcs))
    return (tuple(sorted(rank.values())), arcs)


def reference_node_list_for_pair(d, i, j):
    anc = reference_ancestors(d)
    members = {v for v in d.nodes if d.label(v) in (i, j)}
    return sorted(members, key=lambda v: len(anc[v] & members))


def reference_sample_indices(d, v, vbl):
    anc = reference_ancestors(d)[v]
    return {j: 1 + sum(1 for u in anc if j in vbl[d.label(u)]) for j in vbl[d.label(v)]}


def reference_closure(d, nodes):
    anc = reference_ancestors(d)
    return frozenset(nodes).union(*(anc[u] for u in nodes))


# ---------------------------------------------------------------------------
# reference oracles: the arc-building loops that ordered_parents and the
# pwdag walk replaced, each testing conflicts its own way

def reference_ordered_arcs(labels, rank, closed):
    """The sorted arcs (a, b) between nodes whose labels conflict, each from
    the lower rank to the higher, by a scan of all node pairs."""
    nodes = tuple(enumerate(zip(labels, rank), 1))
    arcs = []
    for a, (la, ra) in nodes:
        for b, (lb, rb) in nodes:
            if ra < rb and closed[la - 1] >> (lb - 1) & 1:
                arcs.append((a, b))
    return arcs


def reference_run_wdag(seq, g):
    """Arcs forward in time between equal or adjacent labels (has_edge)."""
    arcs = set()
    for k in range(len(seq)):
        for l in range(k + 1, len(seq)):
            if seq[k] == seq[l] or g.has_edge(seq[k], seq[l]):
                arcs.add((k + 1, l + 1))
    return WDag(tuple(seq), arcs=frozenset(arcs))


def reference_sequence_wdag(layers, closed):
    """Nodes sorted by (0-based label, -depth); arcs from deeper to
    shallower layers between labels whose closed-mask bit is set."""
    nodes = sorted(
        (v, -depth) for depth, layer in enumerate(layers) for v in range(len(closed)) if layer >> v & 1
    )
    arcs = []
    for a, (u, du) in enumerate(nodes, 1):
        for b, (w, dw) in enumerate(nodes, 1):
            if du < dw and closed[u] >> w & 1:
                arcs.append((a, b))
    labels = tuple(v + 1 for v, _ in nodes)
    return (len(labels), labels, tuple(arcs)), WDag(labels, arcs=frozenset(arcs))


def sequence_wdag(layers, closed):
    """The pwdag of a stable-set sequence (layer 0 holds the sink), in
    canonical form, with its sort key (n, labels, parent masks as bytes with
    their bits reversed). Nodes are numbered by (label, -depth), and the
    arcs follow ordered_parents in the order -depth."""
    nodes = sorted((v + 1, -depth) for depth, layer in enumerate(layers) for v in range(len(closed)) if layer >> v & 1)
    labels, rank = zip(*nodes)
    parents = ordered_parents(labels, rank, closed)
    return (len(labels), labels, bytes(parents).translate(_REV8)), WDag(labels, parents)


def reference_walk_pwdags(g, node_cap, build=sequence_wdag):
    """The stable-set sequences walked depth first, each built into its
    pwdag by build, and sorted on the keys build gives."""
    closed = g.closed_masks
    nexts = {}
    found = []

    def walk(layers, reach, left):
        found.append(build(layers, closed))
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
    return [d for _, d in found]


def reference_groups(ds):
    """(sink label, count of that label) -> pwdags, in order of appearance."""
    groups = {}
    for d in ds:
        (w,) = d.sinks()
        groups.setdefault((d.label(w), d.labels.count(d.label(w))), []).append(d)
    return list(groups.items())


def reference_partitions_psi(d, m, reversible):
    """One Partition4 per block assignment of the free matched nodes, each
    block collected node by node."""
    free = sorted(matched_nodes(d, m) - reversible)
    for assign in product((1, 2, 3, 4), repeat=len(free)):
        blocks = {1: set(reversible), 2: set(), 3: set(), 4: set()}
        for v, b in zip(free, assign):
            blocks[b].add(v)
        yield Partition4(*(frozenset(blocks[b]) for b in (1, 2, 3, 4)))


def reference_map_h(d, s, m, hom):
    """Copies keep ids 1..n, companions follow; an arc from every companion
    to its copy, and between nodes of different origins when their labels
    are equal or adjacent in the split graph, following topological_order."""
    pos = {v: k for k, v in enumerate(topological_order(d))}
    n = d.n
    extra = sorted(s.s3 | s.s4)
    star = {v: n + k + 1 for k, v in enumerate(extra)}
    labels = [0] * (n + len(extra))
    for v in d.nodes:
        lab = d.label(v)
        if v in s.s1:
            labels[v - 1] = hom.up(lab)
        elif v in s.s2 or v in s.s3 or v in s.s4:
            labels[v - 1] = hom.down(lab)
        else:
            labels[v - 1] = hom.plain(lab)
    for v in extra:
        partner = m.partner(d.label(v))
        labels[star[v] - 1] = hom.up(partner) if v in s.s3 else hom.down(partner)

    def origin(node):
        return node if node <= n else extra[node - n - 1]

    arcs = {(star[v], v) for v in extra}
    for a in range(1, len(labels) + 1):
        for b in range(1, len(labels) + 1):
            ga, gb = origin(a), origin(b)
            la, lb = labels[a - 1], labels[b - 1]
            if ga != gb and (la == lb or hom.graph.has_edge(la, lb)) and pos[ga] < pos[gb]:
                arcs.add((a, b))
    return WDag(tuple(labels), arcs=frozenset(arcs))


def reference_split_labels(d, bits, m, hom):
    """One bit per matched node in ascending node order, looked up in a
    dict."""
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


@st.composite
def small_graphs(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    pairs = list(combinations(range(1, m + 1), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return DependencyGraph.from_edges(m, [e for k, e in enumerate(pairs) if bits >> k & 1])


def edge_variables(g):
    """vbl of a system with one variable per vertex and one per edge, each
    event reading its own and its edges' variables: events sharing a
    variable are exactly the adjacent ones."""
    edges = sorted(g.edges)
    return {
        i: (i, *(g.m + k for k, e in enumerate(edges, 1) if i in e)) for i in g.vertices
    }


def shuffled(d, draw):
    """d with its node ids permuted, so ids need not be a topological order."""
    perm = draw(st.permutations(range(1, d.n + 1)))
    labels = [0] * d.n
    for v in d.nodes:
        labels[perm[v - 1] - 1] = d.label(v)
    return WDag(tuple(labels), arcs=frozenset((perm[u - 1], perm[v - 1]) for u, v in d.arcs))


@st.composite
def sequence_wdags(draw):
    """The wdag of a random label sequence over a random event system's base
    graph: arcs run forward between equal or adjacent labels."""
    k = draw(st.integers(1, 4))
    vbls = draw(
        st.lists(st.sets(st.integers(1, k), min_size=1).map(sorted), min_size=1, max_size=6)
    )
    fair = FiniteVariable((Fraction(1, 2), Fraction(1, 2)))
    zero = ValueSet(frozenset({0}))
    system = EventSystem(
        (fair,) * k, tuple(Event(vbl=tuple(b), allowed=tuple((j, zero) for j in b)) for b in vbls)
    )
    g = system.dependency_graph
    seq = draw(st.lists(st.integers(1, g.m), min_size=1, max_size=9))
    vbl = {i: ev.vbl for i, ev in enumerate(system.events, 1)}
    return reference_run_wdag(seq, g), g, vbl


@st.composite
def pwdags(draw):
    g = draw(small_graphs(max_m=4))
    d = draw(st.sampled_from(list(enumerate_pwdags(g, draw(st.integers(1, 5))))))
    return d, g, edge_variables(g)


@st.composite
def reversed_pwdags(draw):
    """reverse_arc outputs; a pwdag without reversible arcs stands as it is."""
    d, g, vbl = draw(pwdags())
    arcs = sorted(a for a in d.arcs if is_reversible(d, *a))
    if arcs:
        d = reverse_arc(d, *draw(st.sampled_from(arcs)))
    return d, g, vbl


@st.composite
def matched_wdags(draw):
    """(d, g, m): a pwdag or a reverse_arc output of a graph g with m <= 4,
    and a random matching of g."""
    d, g, _ = draw(st.one_of(pwdags(), reversed_pwdags()))
    return d, g, draw(random_matchings(g))


@st.composite
def map_h_images(draw):
    g = draw(small_graphs(max_m=4).filter(lambda g: g.edges))
    pairs = []
    for e in draw(st.permutations(sorted(g.edges))):
        if not any(set(e) & set(f) for f in pairs):
            pairs.append(e)
    m = Matching(frozenset(pairs))
    p = ProbabilityVector.uniform(g.m, Fraction(1, 4))
    hom = homomorphic_graph(g, m, p, p, ProbabilityVector.uniform(g.m, Fraction(1, 5)))
    d = draw(st.sampled_from(list(enumerate_pwdags(g, draw(st.integers(1, 4))))))
    free = matched_nodes(d, m) - m_reversible_nodes(d, m)
    k = draw(st.integers(0, 4 ** len(free) - 1))
    img = map_h(d, next(islice(partitions_psi(d, m), k, None)), m, hom)
    return img, hom.graph, edge_variables(hom.graph)


valid_wdags = st.one_of(sequence_wdags(), pwdags(), reversed_pwdags(), map_h_images())


class TestValidation:
    def test_single_node(self):
        assert validate_wdag(WDag((1,), arcs=frozenset()), K2)

    def test_missing_arc_between_adjacent_labels(self):
        assert not validate_wdag(WDag((1, 2), arcs=frozenset()), K2)

    def test_forbidden_arc_between_far_labels(self):
        assert not validate_wdag(WDag((1, 3), arcs=frozenset({(1, 2)})), P3)

    def test_resample_sequence_dag_validates(self):
        # sequence (1,3,2,1) on the path graph
        d = WDag((1, 3, 2, 1), arcs=frozenset({(1, 3), (1, 4), (2, 3), (3, 4)}))
        assert validate_wdag(d, P3)


class TestPrefix:
    def test_full_prefix_is_identity(self):
        d = chain((1, 2, 1))
        assert prefix(d, tuple(d.nodes)) == d

    def test_head_segment_of_chain(self):
        d = chain((1, 2, 1))
        head = prefix(d, (2,))
        assert head.labels == (1, 2)

    def test_is_prefix_on_sequence_dag(self):
        d = WDag((1, 3, 2, 1), arcs=frozenset({(1, 3), (1, 4), (2, 3), (3, 4)}))
        sub = prefix(d, (3,))
        assert sub.labels == (1, 3, 2)
        assert reference_is_prefix(sub, d)
        assert reference_is_prefix(d, d)
        assert not reference_is_prefix(chain((2, 2)), d)


class TestEnumeration:
    def test_k1_chains(self):
        assert [d.labels for d in enumerate_pwdags(K1, 3)] == [(1,), (1, 1), (1, 1, 1)]

    def test_edgeless_pair(self):
        e2 = DependencyGraph(2, frozenset())
        got = list(enumerate_pwdags(e2, 2))
        assert len(got) == 4  # single-label chains only

    def test_single_edge_cap_two(self):
        got = list(enumerate_pwdags(K2, 2))
        assert len(got) == 6

    def test_matches_brute_force_filter(self):
        # independent oracle: all labelled DAGs from arbitrary arc subsets,
        # filtered by validity and single sink, up to canonical form
        for g in (K2, P3):
            for cap in (1, 2, 3):
                brute = set()
                for n in range(1, cap + 1):
                    from itertools import combinations_with_replacement

                    for labels in combinations_with_replacement(range(1, g.m + 1), n):
                        pairs = list(combinations(range(1, n + 1), 2))
                        for bits in range(3 ** len(pairs)):
                            arcs = set()
                            code = bits
                            for pair in pairs:
                                mode = code % 3
                                code //= 3
                                if mode == 1:
                                    arcs.add(pair)
                                elif mode == 2:
                                    arcs.add((pair[1], pair[0]))
                            d = WDag(tuple(labels), arcs=frozenset(arcs))
                            if validate_wdag(d, g) and len(d.sinks()) == 1:
                                brute.add(canonical_key(d))
                fast = {canonical_key(d) for d in enumerate_pwdags(g, cap)}
                assert fast == brute

    def test_grouping(self):
        groups = group_pwdags(K2, 3)
        assert sorted(groups) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert [len(groups[k]) for k in sorted(groups)] == [3, 3, 1, 3, 3, 1]


class TestReversibility:
    def test_two_node_matched_arc(self):
        d = chain((1, 2))
        assert is_reversible(d, 1, 2)
        nodes = m_reversible_nodes(d, M12)
        assert nodes == frozenset({1, 2})
        assert {lab: {v for v in nodes if d.label(v) == lab} for lab in (1, 2)} == {1: {1}, 2: {2}}

    def test_second_path_blocks_reversal(self):
        d = chain((1, 2, 1))
        assert not is_reversible(d, 1, 3)
        assert is_reversible(d, 1, 2)
        assert is_reversible(d, 2, 3)

    def test_against_brute_force_path_count(self):
        def count_paths(d, u, v):
            if u == v:
                return 1
            total = 0
            for (a, b) in d.arcs:
                if a == u:
                    total += count_paths(d, b, v)
            return total

        rng = random.Random(2)
        pool = list(enumerate_pwdags(C4, 4))
        for d in rng.sample(pool, 60):
            for (u, v) in d.arcs:
                assert is_reversible(d, u, v) == (count_paths(d, u, v) == 1)

    @settings(max_examples=200, deadline=None)
    @given(case=matched_wdags())
    def test_m_reversible_arcs_equal_brute_force(self, case):
        d, _, m = case
        want = [
            (u, v) for u, v in sorted(d.arcs)
            if (min(d.label(u), d.label(v)), max(d.label(u), d.label(v))) in m.pairs and is_reversible(d, u, v)
        ]
        assert _m_reversible_arcs(d, m) == want

    def test_greedy_skip_by_two(self):
        d = chain((1, 2, 1, 2))
        assert disjoint_reversible_pairs(d, M12) == frozenset({(1, 2), (3, 4)})

    def test_single_pair(self):
        d = chain((2, 1))
        assert disjoint_reversible_pairs(d, M12) == frozenset({(1, 2)})

    def test_no_matched_arcs(self):
        d = chain((1, 1))
        assert disjoint_reversible_pairs(d, M12) == frozenset()

    def test_half_coverage_guarantee(self):
        for d in enumerate_pwdags(K2, 5):
            chosen = disjoint_reversible_pairs(d, M12)
            covered = {v for arc in chosen for v in arc}
            reversible = m_reversible_nodes(d, M12)
            for label in {d.label(v) for v in reversible}:
                hit = len([v for v in covered if d.label(v) == label])
                assert 2 * hit >= len([v for v in reversible if d.label(v) == label])


class TestReverseArc:
    def test_two_node_drop(self):
        d = chain((1, 2))
        assert reverse_arc(d, 1, 2) == WDag((2,), arcs=frozenset())

    def test_interior_reversal_keeps_nodes(self):
        d = chain((2, 1, 1))
        out = reverse_arc(d, 1, 2)
        assert canonical_key(out) == canonical_key(chain((1, 2, 1)))

    def test_double_reversal_node_containment(self):
        for d in enumerate_pwdags(K2, 4):
            for (u, v) in list(d.arcs):
                if not is_reversible(d, u, v):
                    continue
                once = reverse_arc(d, u, v)
                for (a, b) in list(once.arcs):
                    if is_reversible(once, a, b):
                        assert reverse_arc(once, a, b).n <= d.n

    def test_requires_reversible(self):
        d = chain((1, 2, 1))
        with pytest.raises(InputError):
            reverse_arc(d, 1, 3)


def single_edge_system():
    fair = FiniteVariable((Fraction(1, 2), Fraction(1, 2)))
    zero = ValueSet(frozenset({0}))
    return EventSystem(
        (fair, fair),
        (
            Event(vbl=(1,), allowed=((1, zero),)),
            Event(vbl=(1, 2), allowed=((1, zero), (2, zero))),
        ),
    )


class TestTableConsistency:
    def test_single_node_reads_column_one(self):
        system = single_edge_system()
        d = WDag((1,), arcs=frozenset())
        good = FixedTable({(1, 1): 0, (2, 1): 0})
        bad = FixedTable({(1, 1): 1, (2, 1): 0})
        assert consistent_with_table(d, system, good)
        assert not consistent_with_table(d, system, bad)

    def test_chain_advances_sample_index(self):
        system = single_edge_system()
        d = chain((2, 2))
        vbl = {1: (1,), 2: (1, 2)}
        assert sample_indices(d, 2, vbl) == {1: 2, 2: 2}
        table = FixedTable(
            {(1, 1): 0, (2, 1): 0, (1, 2): 0, (2, 2): 1}
        )
        assert not consistent_with_table(d, system, table)

    def test_y_favoring_tail_keeps_arc_consistent(self):
        system = single_edge_system()
        d = chain((1, 2))
        table = FixedTable(
            {(1, 1): 0, (1, 2): 0, (2, 1): 0}
        )
        aux = FixedTable({((1, 2), 1): 1})
        assert consistent_with_tables(d, system, table, aux, M12)

    def test_two_node_family_decided_by_coin(self):
        # both orders are resampling-table consistent; the auxiliary entry
        # picks exactly one of them
        system = single_edge_system()
        d12 = chain((1, 2))
        d21 = chain((2, 1))
        table = FixedTable({(1, 1): 0, (1, 2): 0, (2, 1): 0})
        assert consistent_with_table(d12, system, table)
        assert consistent_with_table(d21, system, table)
        for coin in (1, 2):
            aux = FixedTable({((1, 2), 1): coin, ((1, 2), 2): coin})
            hits = [
                d
                for d in (d12, d21)
                if consistent_with_tables(d, system, table, aux, M12)
            ]
            assert len(hits) == 1
            picked = hits[0]
            # the coin names the label whose node the order keeps first
            assert picked.label(1) == coin

    def test_no_matched_arcs_reduces_to_x(self):
        system = single_edge_system()
        d = chain((1, 1))
        table = FixedTable({(1, 1): 0, (1, 2): 0, (2, 1): 1})
        aux = FixedTable({})
        assert consistent_with_tables(d, system, table, aux, M12)


class TestRepair:
    def test_already_consistent_is_returned(self):
        system = single_edge_system()
        d = chain((1, 2))
        table = FixedTable({(1, 1): 0, (1, 2): 0, (2, 1): 0})
        aux = FixedTable({((1, 2), 1): 1, ((1, 2), 2): 1})
        assert repair_to_consistent(d, system, table, aux, M12) == d

    def test_single_step_repair(self):
        system = single_edge_system()
        d = chain((1, 2))
        table = FixedTable({(1, 1): 0, (1, 2): 0, (2, 1): 0})
        aux = FixedTable({((1, 2), 1): 2, ((1, 2), 2): 2})
        out = repair_to_consistent(d, system, table, aux, M12)
        assert consistent_with_tables(out, system, table, aux, M12)
        assert out.label(out.sinks()[0]) == 2

    def test_exhaustive_small_tables(self):
        system = single_edge_system()
        groups = group_pwdags(K2, 3)
        cells = [(j, k) for j in (1, 2) for k in (1, 2, 3)]
        rng = random.Random(1)
        combos = [
            (bits, ybits)
            for bits in product((0, 1), repeat=6)
            for ybits in product((1, 2), repeat=3)
        ]
        for bits, ybits in rng.sample(combos, 120):
            table = FixedTable(dict(zip(cells, bits)))
            aux = FixedTable({((1, 2), k): v for k, v in enumerate(ybits, 1)})
            for (i, r), members in groups.items():
                for d in members:
                    if not consistent_with_table(d, system, table):
                        continue
                    out = repair_to_consistent(d, system, table, aux, M12)
                    assert consistent_with_tables(out, system, table, aux, M12)
                    (w,) = out.sinks()
                    assert out.label(w) == i
                    assert sum(1 for v in out.nodes if out.label(v) == i) == r


class TestHomomorphicGraph:
    def p(self, *vals):
        return ProbabilityVector(tuple(Fraction(x) for x in vals))

    def test_path_with_matched_middle_edge(self):
        p4 = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        m = Matching(frozenset({(2, 3)}))
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        pm = ProbabilityVector.uniform(4, Fraction(1, 5))
        pp = ProbabilityVector.uniform(4, Fraction(1, 6))
        hom = homomorphic_graph(p4, m, p, pm, pp)
        assert hom.names == ("1", "2+", "2-", "3+", "3-", "4")
        assert sorted(hom.graph.edges) == [
            (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
        ]
        assert hom.p_m[2] == Fraction(1, 6)
        assert hom.p_m[3] == Fraction(1, 5) - Fraction(1, 6)
        assert hom.p_m[1] == Fraction(1, 5)

    def test_label_lookups_name_their_split_vertices(self):
        p4 = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        pp = ProbabilityVector.uniform(4, Fraction(1, 5))
        hom = homomorphic_graph(p4, Matching(frozenset({(2, 3)})), p, p, pp)
        assert [hom.names[hom.plain(i) - 1] for i in (1, 4)] == ["1", "4"]
        assert [hom.names[hom.up(i) - 1] for i in (2, 3)] == ["2+", "3+"]
        assert [hom.names[hom.down(i) - 1] for i in (2, 3)] == ["2-", "3-"]
        for lookup, label in ((hom.plain, 2), (hom.up, 1), (hom.down, 4)):
            with pytest.raises(ValueError):
                lookup(label)

    def test_empty_matching_keeps_graph(self):
        m = Matching(frozenset())
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        pm = ProbabilityVector.uniform(4, Fraction(1, 5))
        hom = homomorphic_graph(C4, m, p, pm, pm)
        assert hom.graph == C4
        assert hom.p_m.values == pm.values

    def test_single_matched_edge_gives_clique_of_splits(self):
        p = ProbabilityVector.uniform(2, Fraction(1, 4))
        pm = ProbabilityVector.uniform(2, Fraction(1, 5))
        pp = ProbabilityVector.uniform(2, Fraction(1, 6))
        hom = homomorphic_graph(K2, M12, p, pm, pp)
        assert hom.graph.m == 4
        assert len(hom.graph.edges) == 6

    def test_negative_split_mass_rejected(self):
        p = ProbabilityVector.uniform(2, Fraction(1, 4))
        with pytest.raises(InputError):
            homomorphic_graph(
                K2,
                M12,
                p,
                ProbabilityVector.uniform(2, Fraction(1, 7)),
                ProbabilityVector.uniform(2, Fraction(1, 6)),
            )


class TestPartitionsAndMaps:
    def setup_method(self):
        self.p = ProbabilityVector((Fraction(1, 4), Fraction(1, 5)))
        self.pm = ProbabilityVector((Fraction(247, 1000), Fraction(197, 1000)))
        self.pp = ProbabilityVector((Fraction(24, 100), Fraction(19, 100)))
        self.hom = homomorphic_graph(K2, M12, self.p, self.pm, self.pp)

    def test_partition_counts(self):
        assert len(list(partitions_psi(WDag((1,), arcs=frozenset()), M12))) == 4
        assert len(list(partitions_psi(chain((1, 2)), M12))) == 1  # all reversible
        assert len(list(partitions_psi(chain((1, 1)), M12))) == 16

    def test_matched_nodes_all_forced_first_block(self):
        d = chain((1, 2))
        (s,) = partitions_psi(d, M12)
        assert s.s1 == frozenset({1, 2})

    def test_single_node_first_block_maps_to_up(self):
        d = WDag((1,), arcs=frozenset())
        parts = {tuple(sorted(s.s1)): s for s in partitions_psi(d, M12)}
        img = map_h(d, parts[(1,)], M12, self.hom)
        assert img.labels == (self.hom.up(1),)

    def test_single_node_third_block_spawns_partner(self):
        d = WDag((1,), arcs=frozenset())
        s3 = next(s for s in partitions_psi(d, M12) if s.s3)
        img = map_h(d, s3, M12, self.hom)
        assert img.n == 2
        assert img.labels[0] == self.hom.down(1)
        assert img.labels[1] == self.hom.up(2)
        assert (2, 1) in img.arcs

    def test_unmatched_dag_maps_isomorphically(self):
        p3_matching = Matching(frozenset({(1, 2)}))
        p = ProbabilityVector.uniform(3, Fraction(1, 4))
        pm = ProbabilityVector.uniform(3, Fraction(24, 100))
        pp = ProbabilityVector.uniform(3, Fraction(23, 100))
        hom = homomorphic_graph(P3, p3_matching, p, pm, pp)
        d = WDag((3, 3), arcs=frozenset({(1, 2)}))
        (s,) = partitions_psi(d, p3_matching)
        img = map_h(d, s, p3_matching, hom)
        assert img.labels == (hom.plain(3), hom.plain(3))
        assert img.arcs == d.arcs

    def test_split_labels_identity_when_unmatched(self):
        d = WDag((1,), arcs=frozenset())
        m_far = Matching(frozenset({(2, 3)}))
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        pm = ProbabilityVector.uniform(4, Fraction(24, 100))
        pp = ProbabilityVector.uniform(4, Fraction(23, 100))
        hom = homomorphic_graph(C4, m_far, p, pm, pp)
        img = split_labels(d, (), m_far, hom)
        assert img.labels == (hom.plain(1),)

    def test_split_labels_bit_meaning(self):
        d = WDag((1,), arcs=frozenset())
        up = split_labels(d, (0,), M12, self.hom)
        down = split_labels(d, (1,), M12, self.hom)
        assert up.labels == (self.hom.up(1),)
        assert down.labels == (self.hom.down(1),)

    @settings(max_examples=100, deadline=None)
    @given(case=matched_wdags())
    # C4's 5-node chain has five free nodes (odd); the other pwdag has two
    # free nodes (even) beside two reversible ones and an unmatched one
    @example(case=(WDag((1, 1, 1, 1, 1), (0, 1, 3, 7, 15)), C4, M12))
    @example(case=(WDag((1, 1, 1, 2, 3), (8, 9, 11, 16, 0)), C4, M12))
    def test_partitions_and_reversible_nodes_equal_reference(self, case):
        d, _, m = case
        arcs = [
            (u, v) for u, v in sorted(d.arcs)
            if (min(d.label(u), d.label(v)), max(d.label(u), d.label(v))) in m.pairs
            and reference_path_count(d, u, v) == 1
        ]
        reversible = frozenset(v for arc in arcs for v in arc)
        assert m_reversible_nodes(d, m) == reversible
        assert list(partitions_psi(d, m)) == list(reference_partitions_psi(d, m, reversible))

    @settings(max_examples=200, deadline=None)
    @given(case=matched_wdags(), data=st.data())
    def test_split_labels_equal_reference(self, case, data):
        d, g, m = case
        p = ProbabilityVector.uniform(g.m, Fraction(1, 4))
        hom = homomorphic_graph(g, m, p, p, ProbabilityVector.uniform(g.m, Fraction(1, 5)))
        size = len(matched_nodes(d, m))
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        assert split_labels(d, bits, m, hom) == reference_split_labels(d, bits, m, hom)
        wrong = data.draw(st.lists(st.integers(0, 1), max_size=size + 2).filter(lambda b: len(b) != size))
        with pytest.raises(InputError, match="one bit per matched node"):
            split_labels(d, tuple(wrong), m, hom)

    def test_split_bijection_small(self):
        seen = set()
        for d in enumerate_pwdags(K2, 3):
            for bits in product((0, 1), repeat=len(matched_nodes(d, M12))):
                key = canonical_key(split_labels(d, bits, M12, self.hom))
                assert key not in seen
                seen.add(key)
        targets = {canonical_key(d) for d in enumerate_pwdags(self.hom.graph, 3)}
        assert seen == targets


class TestWeights:
    def test_k1_partial_sums_are_geometric(self):
        p = ProbabilityVector.uniform(1, Fraction(1, 3))
        sums = weight_sums(K1, p, 3)
        assert sums.by_size == {
            1: Fraction(1, 3),
            2: Fraction(1, 9),
            3: Fraction(1, 27),
        }
        assert sums.cumulative == Fraction(13, 27)
        # cumulative increases to p/(1-p), the exact resample bound for K1
        assert sums.cumulative < expected_resample_bound(K1, p) == Fraction(1, 2)

    def test_tighter_weight_trivial_without_reversible_nodes(self):
        p = ProbabilityVector((Fraction(1, 4), Fraction(1, 5)))
        pp = ProbabilityVector((Fraction(1, 8), Fraction(1, 10)))
        d = chain((1, 1))
        assert tighter_weight(d, p, pp, M12) == wdag_weight(d, p)

    def test_tighter_weight_fully_reversible_pair(self):
        p = ProbabilityVector((Fraction(1, 4), Fraction(1, 5)))
        pp = ProbabilityVector((Fraction(1, 8), Fraction(1, 10)))
        d = chain((1, 2))
        assert tighter_weight(d, p, pp, M12) == Fraction(1, 8) * Fraction(1, 10)

    def test_weight_sums_converge_to_exact_ratio_bound(self):
        # partial pwdag weight sums approach sum q_i / q_0 from below, tying
        # the enumeration route to the independent-set algebra route
        cases = (
            (K2, Fraction(1, 4), 8),
            (C4, Fraction(1, 8), 6),
        )
        for g, p, cap in cases:
            pv = ProbabilityVector.uniform(g.m, p)
            bound = expected_resample_bound(g, pv)
            sums = weight_sums(g, pv, cap)
            running = Fraction(0)
            for n in sorted(sums.by_size):
                running += sums.by_size[n]
                assert running <= bound
            assert bound - running < bound / 4

    def test_reduced_weight_bound_spot_check(self):
        # the pairwise bound behind the tighter pricing:
        # p p' (1-2c)^2 >= p p' - delta^2 / 2 for c = delta^2/(8 p p')
        rng = random.Random(13)
        for _ in range(200):
            pi = Fraction(rng.randint(2, 99), 100)
            pj = Fraction(rng.randint(2, 99), 100)
            delta = min(pi, pj) * Fraction(rng.randint(1, 99), 100)
            c = delta * delta / (8 * pi * pj)
            assert pi * pj * (1 - 2 * c) ** 2 >= pi * pj - delta * delta / 2


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        d1 = WDag((1, 2), arcs=frozenset({(1, 2)}))
        d2 = WDag((2, 1), arcs=frozenset({(2, 1)}))
        assert canonical_key(d1) == canonical_key(d2)

    def test_topological_order_is_lex_minimal(self):
        d = WDag((2, 1, 1), arcs=frozenset({(1, 2), (1, 3), (2, 3)}))
        assert topological_order(d) == (1, 2, 3)

    def test_node_list_for_pair_orders_topologically(self):
        d = WDag((1, 1, 2), arcs=frozenset({(1, 2), (3, 1), (3, 2)}))
        assert node_list_for_pair(d, 1, 2) == [3, 1, 2]


class TestStableSetSequences:
    """The sequence construction against the orientation brute force."""

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), cap=st.integers(1, 5))
    @example(g=DependencyGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), cap=5)
    @example(g=DependencyGraph.from_edges(4, list(combinations(range(1, 5), 2))), cap=5)
    def test_enumeration_equals_reference_in_order(self, g, cap):
        assert list(enumerate_pwdags(g, cap)) == list(reference_pwdags(g, cap))

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), cap=st.integers(1, 5), data=st.data())
    def test_weight_sums_equal_reference_weights(self, g, cap, data):
        p = ProbabilityVector(
            tuple(Fraction(data.draw(st.integers(1, 12)), data.draw(st.integers(12, 40))) for _ in range(g.m))
        )
        want = {n: Fraction(0) for n in range(1, cap + 1)}
        for d in reference_pwdags(g, cap):
            want[d.n] += wdag_weight(d, p)
        got = weight_sums(g, p, cap)
        assert got.by_size == want
        assert got.cumulative == sum(want.values())

    @settings(max_examples=15, deadline=None)
    @given(g=small_graphs(), data=st.data())
    def test_large_cap_sums_approach_resample_bound_from_below(self, g, data):
        # e p (max degree + 1) <= 1 keeps p inside Shearer's region
        scale = Fraction(1, 3 * (g.max_degree() + 1))
        p = ProbabilityVector(tuple(scale * Fraction(data.draw(st.integers(1, 4)), 4) for _ in range(g.m)))
        bound = expected_resample_bound(g, p)
        sums = weight_sums(g, p, 40)
        running = Fraction(0)
        for n in range(1, 41):
            running += sums.by_size[n]
            assert running <= bound
        assert bound - running < bound * Fraction(1, 10**6)

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs(max_m=6), cap=st.integers(1, 6))
    @example(g=DependencyGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), cap=7)
    @example(g=DependencyGraph.from_edges(300, [(k, k + 1) for k in range(1, 300)]), cap=3)
    @example(g=DependencyGraph.from_edges(12, list(combinations(range(1, 13), 2))), cap=3)
    @example(g=K1, cap=8)
    @example(g=DependencyGraph(3, frozenset()), cap=8)
    @example(g=DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), cap=8)
    def test_walk_equals_reference_walk(self, g, cap):
        # the examples: the benchmark's largest enumeration, labels wider
        # than one byte, degrees above the node count, one label 8 times
        # (the top of its 4-bit count field), each of three labels up to 8
        # times, and one layout per count vector of three labels
        want = reference_walk_pwdags(g, cap)
        assert list(enumerate_pwdags(g, cap)) == want
        assert list(group_pwdags(g, cap).items()) == reference_groups(want)

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs(max_m=6), cap=st.integers(1, 6))
    @example(g=DependencyGraph.from_edges(6, list(combinations(range(1, 7), 2))), cap=6)
    def test_order_is_the_sorted_arc_order(self, g, cap):
        ds = list(enumerate_pwdags(g, cap))
        assert ds == sorted(ds, key=lambda d: (d.n, d.labels, tuple(sorted(d.arcs))))

    def test_each_class_once_and_proper(self):
        ds = list(enumerate_pwdags(C4, 6))
        assert len({canonical_key(d) for d in ds}) == len(ds)
        assert all(validate_wdag(d, C4) and len(d.sinks()) == 1 for d in ds)
        assert all(canonical_form(d) == d for d in ds)

    def test_weight_sums_beyond_enumeration_cap(self):
        # C4 has 2240 pwdags up to 6 nodes; the DP needs no enumeration, so
        # it also answers at sizes enumerate_pwdags refuses
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        ones = weight_sums(C4, ProbabilityVector.uniform(4, Fraction(1)), 6).by_size
        assert sum(ones.values()) == 2240
        big = weight_sums(C4, p, 20)
        assert big.by_size[20] > 0
        with pytest.raises(CapExceeded):
            list(enumerate_pwdags(C4, 9))

    def test_node_cap_limit(self):
        p = ProbabilityVector.uniform(3, Fraction(1, 4))
        k3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert weight_sums(k3, p, MAX_SUM_NODES).node_cap == MAX_SUM_NODES
        with pytest.raises(CapExceeded):
            weight_sums(k3, p, MAX_SUM_NODES + 1)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            weight_sums(C4, ProbabilityVector.uniform(3, Fraction(1, 4)), 3)
        with pytest.raises(InputError):
            weight_sums(C4, ProbabilityVector.uniform(4, Fraction(1, 4)), 0)


def reference_path_count(d, u, v):
    """Directed u -> v paths in a DAG, by recursion over the arcs."""
    if u == v:
        return 1
    return sum(reference_path_count(d, b, v) for a, b in d.arcs if a == u)


@st.composite
def labelled_digraphs(draw):
    """A graph and a labelled digraph on up to 7 nodes, labels up to m + 1:
    each conflicting node pair gets no arc, either arc or both, and any
    other pair an arc now and then, so cycles and invalid pairs occur."""
    g = draw(small_graphs())
    n = draw(st.integers(1, 7))
    labels = tuple(draw(st.lists(st.integers(1, g.m + 1), min_size=n, max_size=n)))
    arcs = set()
    for u, v in combinations(range(1, n + 1), 2):
        lu, lv = labels[u - 1], labels[v - 1]
        conflict = lu == lv or g.has_edge(lu, lv)
        mode = draw(st.sampled_from((1, 2, 1, 2, 0, 3) if conflict else (0, 0, 0, 1, 2)))
        arcs |= (set(), {(u, v)}, {(v, u)}, {(u, v), (v, u)})[mode]
    return g, WDag(labels, arcs=frozenset(arcs))


class TestReachability:
    """The one cycle test (the topological order) and the one path walk
    (closure) against Kahn's algorithm and path counting, on labelled
    digraphs that need not be valid or acyclic."""

    @settings(max_examples=300, deadline=None)
    @given(case=labelled_digraphs())
    def test_validate_wdag_equals_reference(self, case):
        g, d = case
        pairs_ok = all(
            ((u, v) in d.arcs) + ((v, u) in d.arcs)
            == (d.label(u) == d.label(v) or g.has_edge(d.label(u), d.label(v)))
            for u, v in combinations(d.nodes, 2)
        )
        labels_ok = all(1 <= lab <= g.m for lab in d.labels)
        want = labels_ok and reference_is_acyclic(d.n, d.arcs) and pairs_ok
        assert validate_wdag(d, g) == want

    @settings(max_examples=300, deadline=None)
    @given(case=labelled_digraphs(), data=st.data())
    def test_is_reversible_counts_one_path(self, case, data):
        _, d0 = case
        d = shuffled(WDag(d0.labels, arcs=frozenset((u, v) for u, v in d0.arcs if u < v)), data.draw)
        for u, v in d.arcs:
            assert is_reversible(d, u, v) == (reference_path_count(d, u, v) == 1)


class TestMaskReaders:
    """Each parent-mask reader against the set and pair code it replaced, on
    labelled digraphs that need not be valid or acyclic."""

    @settings(max_examples=300, deadline=None)
    @given(case=labelled_digraphs(), data=st.data())
    def test_readers_equal_the_set_references(self, case, data):
        g, d = case
        parents = reference_parents(d)
        assert d.arcs == {(u, v) for v in d.nodes for u in d.nodes if d.parents[v - 1] >> (u - 1) & 1}
        assert d.sinks() == tuple(v for v in d.nodes if all(u != v for u, _ in d.arcs))
        try:
            order = reference_topological_order(d)
        except InputError:
            with pytest.raises(InputError):
                topological_order(d)
        else:
            assert topological_order(d) == order
        assert validate_wdag(d, g) == reference_validate_wdag(d, g)
        assert canonical_key(d) == reference_pair_canonical_key(d)
        nodes = data.draw(st.lists(st.sampled_from(list(d.nodes)), max_size=3))
        assert closure(d, nodes) == reference_set_closure(d, nodes)
        assert prefix(d, nodes) == reference_prefix(d, nodes)
        assert single_sink_prefix_count(d) == len({reference_set_closure(d, (v,)) for v in d.nodes})
        vbl = {lab: tuple(data.draw(st.sets(st.integers(1, 4), min_size=1))) for lab in range(1, g.m + 2)}
        pair = tuple(data.draw(st.lists(st.sampled_from(d.labels), min_size=2, max_size=2)))
        for v in d.nodes:
            labels_above = [d.label(u) for u in parents[v]]
            assert lambda_order(d, v, pair) == 1 + sum(1 for lab in labels_above if lab in pair)
            assert sample_indices(d, v, vbl) == {
                j: 1 + sum(1 for lab in labels_above if j in vbl[lab]) for j in vbl[d.label(v)]
            }
        sinks = d.sinks()
        for u, v in sorted(d.arcs):
            reversible = u not in reference_set_closure(d, parents[v] - {u})
            assert is_reversible(d, u, v) == reversible
            if reversible and len(sinks) == 1:
                flipped = WDag(d.labels, arcs=(d.arcs - {(u, v)}) | {(v, u)})
                assert reverse_arc(d, u, v) == reference_prefix(flipped, sinks)


class TestDerivedStructure:
    def test_cached_per_instance_without_changing_identity(self):
        d = WDag((1, 3, 2, 1), arcs=frozenset({(1, 3), (1, 4), (2, 3), (3, 4)}))
        twin = WDag(d.labels, d.parents)
        assert d.parents == (0, 0, 0b0011, 0b0101)
        assert topological_order(d) == (1, 2, 3, 4)
        assert closure(d, (4,)) == frozenset({1, 2, 3, 4})
        assert d.arcs == frozenset({(1, 3), (1, 4), (2, 3), (3, 4)})
        assert {"arcs", "_topological_order"} <= set(vars(d))
        assert not set(vars(twin)) - {"labels", "parents"}
        assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.arcs = frozenset()

    def test_replace_builds_from_arc_pairs(self):
        d = chain((1, 2, 1))
        flipped = dataclasses.replace(d, arcs={(2, 1), (1, 3), (2, 3)})
        assert flipped == WDag((1, 2, 1), (0b010, 0, 0b011))

    @pytest.mark.parametrize(
        "labels,parents",
        [((1, 2), (0, 1.0)), ((1, 2), (0, True)), ((1, 2), (0, 0b10)), ((1, 2), (0, 0b100)),
         ((1, 2), (0, -1)), ((1, 2), (0,)), ((1,), ((1, 2),))],
    )
    def test_bad_parent_masks_are_input_errors(self, labels, parents):
        with pytest.raises(InputError):
            WDag(labels, parents)

    @pytest.mark.parametrize("arc", [(1, 1), (0, 1), (1, 3), (-1, 2)])
    def test_bad_arcs_are_input_errors(self, arc):
        with pytest.raises(InputError, match="out of range"):
            WDag((1, 2), arcs=[arc])

    def test_cycle_still_rejected(self):
        with pytest.raises(InputError):
            topological_order(WDag((1, 2), arcs=frozenset({(1, 2), (2, 1)})))


class TestSingleSinkPrefixes:
    def test_count_matches_subset_scan(self):
        for d in enumerate_pwdags(P3, 5):
            assert single_sink_prefix_count(d) == reference_single_sink_prefix_count(d)
        d = WDag((1, 3, 2, 1), arcs=frozenset({(1, 3), (1, 4), (2, 3), (3, 4)}))
        assert single_sink_prefix_count(d) == reference_single_sink_prefix_count(d) == 4


class TestParentCountRanks:
    """Positions as parent counts against the ancestor-set references, on
    valid wdags whose node ids are shuffled."""

    @settings(max_examples=300, deadline=None)
    @given(case=valid_wdags, data=st.data())
    def test_agrees_with_ancestor_references(self, case, data):
        d0, g, vbl = case
        d = shuffled(d0, data.draw)
        assert validate_wdag(d, g)
        assert canonical_key(d) == reference_canonical_key(d) == canonical_key(d0)
        nodes = data.draw(st.lists(st.sampled_from(list(d.nodes)), max_size=3))
        assert closure(d, nodes) == reference_closure(d, nodes)
        present = sorted(set(d.labels))
        for i, j in combinations_with_replacement(present, 2):
            if i != j and not g.has_edge(i, j):
                continue
            got = node_list_for_pair(d, i, j)
            assert got == reference_node_list_for_pair(d, i, j)
            assert [lambda_order(d, v, (i, j)) for v in got] == list(range(1, len(got) + 1))
        for v in d.nodes:
            assert closure(d, (v,)) == reference_closure(d, (v,))
            assert sample_indices(d, v, vbl) == reference_sample_indices(d, v, vbl)


def edge_variable_system(g):
    """An event system whose dependency graph is g (see edge_variables)."""
    vbl = edge_variables(g)
    zero = ValueSet(frozenset({0}))
    fair = FiniteVariable((Fraction(1, 2), Fraction(1, 2)))
    events = tuple(Event(vbl=vbl[i], allowed=tuple((j, zero) for j in vbl[i])) for i in g.vertices)
    return EventSystem((fair,) * (g.m + len(g.edges)), events)


@st.composite
def random_matchings(draw, g):
    pairs = []
    for e in draw(st.permutations(sorted(g.edges))):
        if not any(set(e) & set(f) for f in pairs) and draw(st.booleans()):
            pairs.append(e)
    return Matching(frozenset(pairs))


@st.composite
def map_h_cases(draw):
    """(d, g, m, s): a valid wdag of a graph g with m <= 6 (a pwdag, or a
    run's wdag with its ids shuffled), a random matching of g and a random
    partition of d's matched nodes."""
    g = draw(small_graphs(max_m=6).filter(lambda g: g.edges))
    m = draw(random_matchings(g))
    if draw(st.booleans()):
        seq = draw(st.lists(st.integers(1, g.m), min_size=1, max_size=8))
        d = shuffled(reference_run_wdag(seq, g), draw)
    else:
        d = draw(st.sampled_from(list(enumerate_pwdags(g, draw(st.integers(1, 4))))))
    return d, g, m, draw(random_partitions(d, m))


@st.composite
def random_partitions(draw, d, m):
    """A Partition4 with the matched reversible nodes in the first block and
    every other matched node in a random block."""
    reversible = m_reversible_nodes(d, m)
    blocks = {1: set(reversible), 2: set(), 3: set(), 4: set()}
    for v in sorted(matched_nodes(d, m) - reversible):
        blocks[draw(st.integers(1, 4))].add(v)
    return Partition4(*(frozenset(blocks[b]) for b in (1, 2, 3, 4)))


class TestOrderedArcs:
    """The wdag builders against the loops they replaced, on random graphs
    with m <= 6."""

    def test_arcs_come_out_sorted_from_lower_rank(self):
        labels, rank, closed = (2, 1, 3, 2), (3, 0, 2, 1), P3.closed_masks
        parents = ordered_parents(labels, rank, closed)
        assert parents == (0b1110, 0, 0b1000, 0b0010)
        arcs = [(2, 1), (2, 4), (3, 1), (4, 1), (4, 3)]
        assert reference_ordered_arcs(labels, rank, closed) == arcs
        assert WDag(labels, parents) == WDag(labels, arcs=arcs)

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(max_m=6), data=st.data())
    def test_parents_equal_the_pair_scan(self, g, data):
        # ranks with ties between non-conflicting nodes only, as the
        # precondition allows: nodes in a random order, each joining the
        # previous node's rank now and then when it conflicts with no node there
        labels = tuple(data.draw(st.lists(st.integers(1, g.m), min_size=1, max_size=10)))
        rank, r, tied = [0] * len(labels), 0, []
        for v in data.draw(st.permutations(range(len(labels)))):
            conflicts = any(g.closed_masks[labels[u] - 1] >> (labels[v] - 1) & 1 for u in tied)
            if not tied or conflicts or data.draw(st.booleans()):
                r, tied = r + 1, []
            tied.append(v)
            rank[v] = r
        want = WDag(labels, arcs=reference_ordered_arcs(labels, rank, g.closed_masks))
        assert WDag(labels, ordered_parents(labels, rank, g.closed_masks)) == want

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(max_m=6), data=st.data())
    def test_run_wdags_equal_reference(self, g, data):
        system = edge_variable_system(g)
        assert system.dependency_graph == g
        seq = tuple(data.draw(st.lists(st.integers(1, g.m), min_size=1, max_size=12)))
        stats = RunStats(seq, False, {}, {})
        assert witness_dag_of_run(system, stats) == reference_run_wdag(seq, g)

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(max_m=6), cap=st.integers(1, 6))
    @example(g=K2, cap=8)
    def test_sequence_wdags_equal_reference(self, g, cap):
        # the same wdags as the pair scan builds, and in the order of its
        # (n, labels, sorted arcs) keys, up to the enumeration cap of 8 nodes
        assert list(enumerate_pwdags(g, cap)) == reference_walk_pwdags(g, cap, reference_sequence_wdag)

    @settings(max_examples=200, deadline=None)
    @given(case=map_h_cases())
    # node 2 precedes node 1, so the companions of nodes 1 and 2 (ids 3
    # and 4, labelled 2+ and 2-, which conflict) are placed as 4 before 3
    @example(case=(WDag((1, 1), (2, 0)), K2, M12, Partition4(*map(frozenset, ((), (), {1}, {2})))))
    def test_map_h_images_equal_reference(self, case):
        d, g, m, s = case
        p = ProbabilityVector.uniform(g.m, Fraction(1, 4))
        hom = homomorphic_graph(g, m, p, p, ProbabilityVector.uniform(g.m, Fraction(1, 5)))
        img = map_h(d, s, m, hom)
        assert img == reference_map_h(d, s, m, hom)
        assert validate_wdag(img, hom.graph)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(pwdags(), reversed_pwdags()), data=st.data())
def test_integer_weights_equal_the_fraction_products(case, data):
    d, g, _ = case
    entries = st.fractions(min_value=Fraction(1, 997), max_value=1, max_denominator=997)
    p, p_prime = (ProbabilityVector(tuple(data.draw(entries) for _ in range(g.m))) for _ in range(2))
    m = data.draw(random_matchings(g))
    reversible = m_reversible_nodes(d, m)
    weight, tighter = Fraction(1), Fraction(1)
    for v in d.nodes:
        weight *= p[d.label(v)]
        tighter *= (p_prime if v in reversible else p)[d.label(v)]
    assert wdag_weight(d, p) == weight
    assert tighter_weight(d, p, p_prime, m) == tighter
