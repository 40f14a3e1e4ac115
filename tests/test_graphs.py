import pickle
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lll_workbench.graphs import (
    BipartiteEventVariableGraph,
    DependencyGraph,
    InputError,
    Matching,
    base_graph,
    connected_components,
    edge_variable_graph,
    find_disjoint_chordless_cycles,
    graph_diameter,
    graph_distance,
    shortest_path,
    _canon_cycle,
    _layers,
)
from lll_workbench.lattices import builtin_lattice, grid_unit, hexagon_flake_unit


def neighbors(g, v):
    """The neighbours of v, read off its closed mask."""
    mask = g.closed_masks[v - 1] & ~(1 << (v - 1))
    return frozenset(u for u in range(1, mask.bit_length() + 1) if mask >> (u - 1) & 1)


def is_chordal(g):
    """Chordality as the workbench decides it: no chordless cycle found."""
    return not find_disjoint_chordless_cycles(g)


# The greedy matching and the linearity of a bipartite graph, with its
# simplification, serve the matching floor (tests/test_criterion.py), which
# no command evaluates: they are kept here as the tests' references.


def greedy_max_intersection_matching(g, w):
    """Greedy matching by weight: scan the edges heaviest first (ties broken
    by lexicographic edge order) and take each edge whose endpoints are both
    still unmatched."""
    weights = {}
    for (u, v), wt in w.items():
        e = (min(u, v), max(u, v))
        if e not in g.edges:
            raise InputError(f"weight given for non-edge {e}")
        weights[e] = Fraction(wt)
    missing = g.edges - weights.keys()
    if missing:
        raise InputError(f"weights missing for edges {sorted(missing)}")
    chosen, matched = set(), set()
    for e in sorted(weights, key=lambda x: (-weights[x], x)):
        if e[0] not in matched and e[1] not in matched:
            chosen.add(e)
            matched.update(e)
    return Matching(frozenset(chosen))


def is_linear(b):
    """True iff every pair of events shares at most one variable."""
    return all(len(b.event_vars(u) & b.event_vars(v)) <= 1 for u, v in combinations(b.events, 2))


def simplify(b):
    """Drop variables seen by a single event; merge variables with identical
    event neighbourhoods. Preserves linearity. Variables renumbered 1..n'."""
    groups = {}
    for evs in b._var_events.values():
        if len(evs) > 1:
            groups.setdefault(evs, len(groups) + 1)
    if not groups:
        raise InputError("simplification removed every variable")
    edges = frozenset((i, j) for evs, j in groups.items() for i in evs)
    return BipartiteEventVariableGraph(b.event_count, len(groups), edges)


def var_events(b, j):
    return b._var_events.get(j, frozenset())


def cycle(n):
    return DependencyGraph.from_edges(n, [(k, k % n + 1) for k in range(1, n + 1)])


K3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
C4 = cycle(4)


def brute_force_has_long_induced_cycle(g):
    """Any induced cycle of length >= 4: induced subgraph that is connected
    and 2-regular."""
    for size in range(4, g.m + 1):
        for sub in combinations(g.vertices, size):
            keep = set(sub)
            degs = [len(neighbors(g, v) & keep) for v in sub]
            if any(d != 2 for d in degs):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for w in neighbors(g, u) & keep:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return True
    return False


def reference_is_chordal(g):
    """The Lex-BFS perfect-elimination-ordering test: with sigma the Lex-BFS
    order, the earlier neighbours of each vertex must all be adjacent to the
    latest of them."""
    labels = {v: [] for v in g.vertices}
    order = []
    remaining = set(g.vertices)
    while remaining:
        v = max(remaining, key=lambda x: (labels[x], -x))
        remaining.discard(v)
        order.append(v)
        for w in neighbors(g, v) & remaining:
            labels[w].append(g.m - len(order) + 1)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in neighbors(g, v) if pos[w] < pos[v]]
        if earlier:
            last = max(earlier, key=pos.__getitem__)
            if any(u != last and not g.has_edge(u, last) for u in earlier):
                return False
    return True


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        yield DependencyGraph(n, edges)


@st.composite
def edge_lists(draw, max_m=12):
    """A vertex count and an edge list in random orientation and order."""
    m = draw(st.integers(1, max_m))
    pairs = list(combinations(range(1, m + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return m, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


# ---------------------------------------------------------------------------
# test-only references: the dict/deque breadth-first searches the mask
# searches replaced

def reference_shortest_path(g, source, target, allowed=None):
    """A shortest source-target vertex sequence, None if there is none. BFS
    visits neighbours in increasing order, so ties go to smaller vertices;
    with allowed given, it enters no vertex outside allowed."""
    parent = {source: None}
    dq = deque([source])
    while dq:
        x = dq.popleft()
        if x == target:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for y in sorted(neighbors(g, x)):
            if y not in parent and (allowed is None or y in allowed):
                parent[y] = x
                dq.append(y)
    return None


def reference_shortest_chordless_cycle(g, alive):
    """One breadth-first search per centre v and non-adjacent alive
    neighbours u < w, from w to u outside N[v]; the shortest cycle, least in
    canonical form among the shortest."""
    best = None
    for v in sorted(alive):
        nbrs = sorted(n for n in neighbors(g, v) if n in alive)
        for u, w in combinations(nbrs, 2):
            if g.has_edge(u, w):
                continue
            path = reference_shortest_path(g, w, u, (alive - neighbors(g, v) - {v}) | {u})
            if path is None:
                continue
            cycle = (v, *reversed(path))  # v,u,...,w
            if best is None or len(cycle) < len(best) or (
                len(cycle) == len(best) and _canon_cycle(cycle) < _canon_cycle(best)
            ):
                best = cycle
    return _canon_cycle(best) if best is not None else None


def reference_chordless_cycles(g):
    alive, cycles = set(g.vertices), []
    while (c := reference_shortest_chordless_cycle(g, alive)) is not None:
        cycles.append(c)
        alive -= set(c)
    return tuple(cycles)


def cylinder(width, length):
    """The square grid of length rows wrapped around width columns,
    labelled row by row."""
    edges = []
    for v in range(1, width * length + 1):
        edges.append((v, v - (v - 1) % width + v % width))
        if v + width <= width * length:
            edges.append((v, v + width))
    return DependencyGraph.from_edges(width * length, edges)


def bfs_distances(g, source):
    dist = {source: 0}
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for v in sorted(neighbors(g, u)):
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def reference_graph_diameter(g):
    diam = 0
    for v in g.vertices:
        dist = bfs_distances(g, v)
        if len(dist) != g.m:
            raise InputError("graph is disconnected")
        diam = max(diam, max(dist.values()))
    return diam


def reference_graph_distance(g, u, v):
    dist = bfs_distances(g, u)
    if v not in dist:
        raise InputError(f"no path from {u} to {v}")
    return dist[v]


def outcome(fn, *args):
    """fn's value, or the message of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


class TestBaseGraph:
    def test_shared_variable(self):
        b = BipartiteEventVariableGraph(2, 1, frozenset({(1, 1), (2, 1)}))
        assert base_graph(b).edges == frozenset({(1, 2)})

    def test_disjoint_variables(self):
        b = BipartiteEventVariableGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        assert base_graph(b).edges == frozenset()

    def test_edge_variable_of_c4_roundtrips(self):
        assert base_graph(edge_variable_graph(C4)) == C4

    def test_roundtrip_on_all_small_graphs(self):
        # base(edge_variable(G)) == G whenever G has minimum degree >= 1
        for n in (2, 3, 4, 5):
            for g in all_graphs(n):
                if not g.edges:
                    continue
                if not all(neighbors(g, v) for v in g.vertices):
                    continue
                assert base_graph(edge_variable_graph(g)) == g

    def test_roundtrip_on_sampled_six_vertex_graphs(self):
        rng = random.Random(6)
        pairs = list(combinations(range(1, 7), 2))
        for _ in range(300):
            edges = frozenset(p for p in pairs if rng.random() < 0.5)
            g = DependencyGraph(6, edges)
            if not all(neighbors(g, v) for v in g.vertices):
                continue
            assert base_graph(edge_variable_graph(g)) == g


class TestChordality:
    def test_triangle_is_chordal(self):
        assert is_chordal(K3)

    def test_c4_is_not(self):
        assert not is_chordal(C4)

    def test_agrees_with_brute_force_exhaustively(self):
        for n in (1, 2, 3, 4, 5):
            for g in all_graphs(n):
                assert is_chordal(g) == (not brute_force_has_long_induced_cycle(g))

    def test_agrees_with_brute_force_sampled(self):
        rng = random.Random(7)
        pairs = list(combinations(range(1, 8), 2))
        for _ in range(250):
            edges = frozenset(p for p in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7)))
            g = DependencyGraph(7, edges)
            assert is_chordal(g) == (not brute_force_has_long_induced_cycle(g))

    def test_reference_agrees_with_brute_force(self):
        for n in (1, 2, 3, 4, 5):
            for g in all_graphs(n):
                assert reference_is_chordal(g) == (not brute_force_has_long_induced_cycle(g))

    @settings(max_examples=300, deadline=None)
    @given(spec=edge_lists(max_m=12), fill=st.booleans(), ring=st.integers(0, 12))
    def test_agrees_with_lex_bfs_reference(self, spec, fill, ring):
        m, edges = spec
        edges = {tuple(sorted(e)) for e in edges}
        if fill:  # dense graphs too: the complement of the drawn edges
            edges = set(combinations(range(1, m + 1), 2)) - edges
        if 4 <= ring <= m:  # long induced cycles too: a ring under sparse chords
            edges |= {(k, k % ring + 1) for k in range(1, ring + 1)}
        g = DependencyGraph.from_edges(m, edges)
        assert is_chordal(g) == reference_is_chordal(g)


class TestChordlessCycles:
    def test_triangle_has_none(self):
        assert find_disjoint_chordless_cycles(K3) == ()

    def test_c4_found(self):
        assert find_disjoint_chordless_cycles(C4) == ((1, 2, 3, 4),)

    def test_two_bridged_squares(self):
        g = DependencyGraph.from_edges(
            8,
            [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5), (4, 5)],
        )
        got = find_disjoint_chordless_cycles(g)
        assert set(got) == {(1, 2, 3, 4), (5, 6, 7, 8)}

    def test_results_are_induced_and_disjoint(self):
        rng = random.Random(11)
        pairs = list(combinations(range(1, 9), 2))
        for _ in range(120):
            g = DependencyGraph(8, frozenset(p for p in pairs if rng.random() < 0.35))
            cycles = find_disjoint_chordless_cycles(g)
            used = set()
            for c in cycles:
                assert len(c) >= 4
                assert not (set(c) & used)
                used |= set(c)
                for a in range(len(c)):
                    assert g.has_edge(c[a], c[(a + 1) % len(c)])
                for a in range(len(c)):
                    for b in range(a + 2, len(c)):
                        if a == 0 and b == len(c) - 1:
                            continue
                        assert not g.has_edge(c[a], c[b])
            assert bool(cycles) == brute_force_has_long_induced_cycle(g)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_breadth_first_reference(self, data):
        kind = data.draw(st.sampled_from(["random", "grid", "cylinder"]))
        if kind == "random":
            g = DependencyGraph.from_edges(*data.draw(edge_lists(max_m=14)))
        elif kind == "grid":
            g, _ = grid_unit((data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))))
        else:
            g = cylinder(data.draw(st.integers(3, 7)), data.draw(st.integers(1, 5)))
        if kind != "random" and data.draw(st.booleans()):
            label = [0] + data.draw(st.permutations(range(1, g.m + 1)))
            g = DependencyGraph.from_edges(g.m, [(label[u], label[v]) for u, v in g.edges])
        assert find_disjoint_chordless_cycles(g) == reference_chordless_cycles(g)

    def test_square_cylinder_packs_its_squares(self):
        # rows 2r and 2r+1, columns 2c and 2c+1: the 4-cycles tile the
        # 8-wide, 40-long cylinder; the 8-cycles around it are never shortest
        want = tuple((a, a + 1, a + 9, a + 8) for row in range(0, 320, 16) for a in range(row + 1, row + 8, 2))
        assert len(want) == 80
        assert find_disjoint_chordless_cycles(cylinder(8, 40)) == want

    def test_a_later_centre_finds_a_tie_with_a_smaller_canonical_form(self):
        # two 5-cycles through the path 5-1-2: read from 5, the path 5-4-8-2
        # is the least, so centre 1 finds (1, 2, 8, 4, 5) first; centre 2
        # then finds the canonically smaller (1, 2, 3, 9, 5), whose path
        # from 3 to 1 reaches the last layer a 5-cycle can use
        g = DependencyGraph.from_edges(
            9, [(1, 2), (2, 3), (3, 9), (9, 5), (5, 1), (2, 8), (8, 4), (4, 5)]
        )
        assert find_disjoint_chordless_cycles(g) == ((1, 2, 3, 9, 5),)
        assert reference_chordless_cycles(g) == ((1, 2, 3, 9, 5),)

    def test_each_path_steps_to_the_least_vertex(self):
        # 1 and 3 share the neighbours 2, 5, 6, and 2 and 5 share 1, 3, 4: every
        # (v, u, w) that can close the least 4-cycle (1, 2, 3, 5) also has a
        # path through a larger vertex, so paths that stepped to the largest
        # vertex of a layer would pack (1, 2, 3, 6) instead
        g = DependencyGraph.from_edges(
            6, [(1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6), (4, 5)]
        )
        assert find_disjoint_chordless_cycles(g) == ((1, 2, 3, 5),)
        assert reference_chordless_cycles(g) == ((1, 2, 3, 5),)


class TestShortestPath:
    def test_ties_go_to_smaller_vertices(self):
        assert shortest_path(C4, 1, 3) == (1, 2, 3)
        assert shortest_path(C4, 3, 1) == (3, 2, 1)
        assert shortest_path(C4, 2, 2) == (2,)

    def test_allowed_restricts_the_entered_vertices(self):
        # the cycle search's layers, kept inside a within mask
        assert list(_layers(C4.closed_masks, 0b0001, 0b1100)) == [0b0001, 0b1000, 0b0100]
        assert list(_layers(C4.closed_masks, 0b0001, 0b0100)) == [0b0001]
        assert shortest_path(DependencyGraph(2, frozenset()), 1, 2) is None

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 8), bits=st.integers(0, (1 << 28) - 1), data=st.data())
    def test_length_is_the_bfs_distance(self, m, bits, data):
        pairs = list(combinations(range(1, m + 1), 2))
        g = DependencyGraph(m, frozenset(e for k, e in enumerate(pairs) if bits >> k & 1))
        u, v = data.draw(st.integers(1, m)), data.draw(st.integers(1, m))
        path = shortest_path(g, u, v)
        assert path == reference_shortest_path(g, u, v)
        dist = bfs_distances(g, u)
        if v not in dist:
            assert path is None
        else:
            assert path[0] == u and path[-1] == v and len(path) == dist[v] + 1
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


class TestGreedyMatching:
    def test_path_picks_heaviest(self):
        p4 = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        w = {(1, 2): Fraction(3, 10), (2, 3): Fraction(1, 2), (3, 4): Fraction(1, 5)}
        assert greedy_max_intersection_matching(p4, w).pairs == frozenset({(2, 3)})

    def test_single_edge(self):
        g = DependencyGraph.from_edges(2, [(1, 2)])
        m = greedy_max_intersection_matching(g, {(1, 2): Fraction(1, 3)})
        assert m.pairs == frozenset({(1, 2)})

    def test_c4_equal_weights_ties_lexicographically(self):
        w = {e: Fraction(1, 4) for e in C4.edges}
        m = greedy_max_intersection_matching(C4, w)
        assert m.pairs == frozenset({(1, 2), (3, 4)})

    def test_maximality_and_weight_dominance(self):
        rng = random.Random(5)
        pairs = list(combinations(range(1, 8), 2))
        for _ in range(60):
            g = DependencyGraph(7, frozenset(p for p in pairs if rng.random() < 0.4))
            if not g.edges:
                continue
            w = {e: Fraction(rng.randint(0, 40), 41) for e in g.edges}
            m = greedy_max_intersection_matching(g, w)
            covered = {v for e in m.pairs for v in e}
            # maximal: every edge touches a matched vertex
            for e in g.edges:
                assert e[0] in covered or e[1] in covered
            # every non-matched edge neighbours a matched edge of >= weight
            for e in sorted(g.edges - m.pairs):
                best = max(
                    w[f] for f in m.pairs if set(f) & set(e)
                )
                assert w[e] <= best


def reference_greedy_matching(g, w):
    """The matching as first written: take the least remaining edge in
    (-weight, edge) order, then drop every remaining edge it touches."""
    remaining = set(g.edges)
    chosen = set()
    while remaining:
        e = min(remaining, key=lambda x: (-w[x], x))
        chosen.add(e)
        remaining = {f for f in remaining if e[0] not in f and e[1] not in f}
    return frozenset(chosen)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 9))
def test_greedy_matching_matches_reference(data, m):
    pairs = list(combinations(range(1, m + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = DependencyGraph(m, frozenset(edges))
    # few distinct weights, so that most picks break a tie
    top = data.draw(st.integers(1, 3))
    w = {e: Fraction(data.draw(st.integers(0, top)), top) for e in sorted(edges)}
    assert greedy_max_intersection_matching(g, w).pairs == reference_greedy_matching(g, w)


class TestLinearAndSimplify:
    def test_two_shared_variables_not_linear(self):
        b = BipartiteEventVariableGraph(
            2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        )
        assert not is_linear(b)

    def test_edge_variable_graph_is_linear(self):
        for g in (C4, K3, cycle(5)):
            assert is_linear(edge_variable_graph(g))

    def test_empty_intersection_linear(self):
        b = BipartiteEventVariableGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        assert is_linear(b)

    def test_simplify_drops_pendant_variable(self):
        b = BipartiteEventVariableGraph(2, 2, frozenset({(1, 1), (2, 1), (1, 2)}))
        s = simplify(b)
        assert s.variable_count == 1
        assert var_events(s, 1) == frozenset({1, 2})

    def test_simplify_merges_same_neighborhood(self):
        b = BipartiteEventVariableGraph(
            2, 2, frozenset({(1, 1), (2, 1), (1, 2), (2, 2)})
        )
        s = simplify(b)
        assert s.variable_count == 1

    def test_simplify_pendants_on_edge_variable_graph(self):
        evg = edge_variable_graph(C4)
        # add one pendant variable per event
        extra = {(i, 4 + i) for i in range(1, 5)}
        b = BipartiteEventVariableGraph(4, 8, evg.edges | extra)
        s = simplify(b)
        assert s.variable_count == 4
        assert base_graph(s) == C4

    def test_simplify_preserves_linearity(self):
        rng = random.Random(3)
        for _ in range(80):
            edges = set()
            for i in range(1, 5):
                for j in range(1, 7):
                    if rng.random() < 0.4:
                        edges.add((i, j))
            for i in range(1, 5):
                if not any(e[0] == i for e in edges):
                    edges.add((i, rng.randint(1, 6)))
            used = {j for _, j in edges}
            remap = {j: k + 1 for k, j in enumerate(sorted(used))}
            b = BipartiteEventVariableGraph(
                4, len(used), frozenset((i, remap[j]) for i, j in edges)
            )
            if not is_linear(b):
                continue
            try:
                s = simplify(b)
            except InputError:
                continue
            assert is_linear(s)


class TestEdgeVariableGraph:
    def test_single_edge(self):
        g = DependencyGraph.from_edges(2, [(1, 2)])
        b = edge_variable_graph(g)
        assert (b.event_count, b.variable_count) == (2, 1)
        assert b.edges == frozenset({(1, 1), (2, 1)})

    def test_c4_gives_bipartite_eight_cycle(self):
        b = edge_variable_graph(C4)
        assert (b.event_count, b.variable_count) == (4, 4)
        assert all(len(b.event_vars(i)) == 2 for i in b.events)
        assert all(len(var_events(b, j)) == 2 for j in b.variables)
        # connected 2-regular bipartite on 4+4: an 8-cycle
        seen = {(0, 1)}
        frontier = [(0, 1)]
        while frontier:
            side, x = frontier.pop()
            nbrs = b.event_vars(x) if side == 0 else var_events(b, x)
            for y in nbrs:
                node = (1 - side, y)
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        assert len(seen) == 8

    def test_no_edges_is_an_error(self):
        with pytest.raises(InputError):
            edge_variable_graph(DependencyGraph(3, frozenset()))


class TestLattices:
    def test_square_unit(self):
        unit = builtin_lattice("square")
        assert unit.m == 25
        assert len(unit.edges) == 40
        assert graph_diameter(unit) == 8

    def test_hexagonal_unit(self):
        g, emb = hexagon_flake_unit()
        assert g.m == 54
        assert len(g.edges) == 72
        # Euler check with the 19 hexagon faces plus the outer face
        assert g.m - len(g.edges) + 20 == 2
        assert graph_diameter(g) == 11
        assert g.max_degree() == 3
        assert sorted(len(neighbors(g, v)) for v in g.vertices).count(2) == 18

    def test_cubic_unit(self):
        unit = builtin_lattice("cubic")
        assert unit.m == 27
        assert len(unit.edges) == 54
        assert graph_diameter(unit) == 6

    def test_unit_degree_is_the_lattice_degree(self):
        for name, want in (("square", 4), ("hexagonal", 3), ("cubic", 6)):
            assert builtin_lattice(name).max_degree() == want

    def test_unknown_lattice(self):
        with pytest.raises(InputError):
            builtin_lattice("kagome")


class TestValidation:
    def test_no_self_loops(self):
        with pytest.raises(InputError):
            DependencyGraph.from_edges(2, [(1, 1)])

    def test_matching_disjointness(self):
        with pytest.raises(InputError):
            Matching(frozenset({(1, 2), (2, 3)}))

    def test_matching_must_be_edges(self):
        m = Matching(frozenset({(1, 3)}))
        with pytest.raises(InputError):
            m.validate_against(C4)

    def test_distance(self):
        assert graph_distance(C4, 1, 3) == 2


    def test_counts_beyond_the_incidences_size_nothing(self):
        inc = frozenset({(1, 1), (2, 1), (2, 3)})
        huge = BipartiteEventVariableGraph(2, 10**300, inc)
        reached = BipartiteEventVariableGraph(2, 3, inc)
        assert base_graph(huge) == base_graph(reached)
        assert simplify(huge) == simplify(reached)
        assert huge._var_events == reached._var_events == {1: {1, 2}, 3: {2}}
        with pytest.raises(InputError, match="events without variables"):
            BipartiteEventVariableGraph(10**300, 3, inc)


class TestMaskSearches:
    """The frontier-mask searches against the dict/deque references."""

    @settings(max_examples=200, deadline=None)
    @given(spec=edge_lists(max_m=9))
    def test_match_the_breadth_first_references(self, spec):
        m, edges = spec
        g = DependencyGraph.from_edges(m, edges)
        assert outcome(graph_diameter, g) == outcome(reference_graph_diameter, g)
        for u in g.vertices:
            for v in range(0, m + 2):
                assert outcome(graph_distance, g, u, v) == outcome(reference_graph_distance, g, u, v)

    def test_disconnected_graphs_keep_their_errors(self):
        g = DependencyGraph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(InputError, match="graph is disconnected"):
            graph_diameter(g)
        with pytest.raises(InputError, match="no path from 1 to 3"):
            graph_distance(g, 1, 3)

    @settings(max_examples=150, deadline=None)
    @given(spec=edge_lists(max_m=10))
    def test_components_partition_into_induced_connected_subgraphs(self, spec):
        m, edges = spec
        g = DependencyGraph.from_edges(m, edges)
        parts = connected_components(g)
        assert sorted(v for vertices, _ in parts for v in vertices) == list(g.vertices)
        assert [vertices[0] for vertices, _ in parts] == sorted(vertices[0] for vertices, _ in parts)
        for vertices, sub in parts:
            assert list(vertices) == sorted(vertices)
            assert set(bfs_distances(g, vertices[0])) == set(vertices)
            label = {v: k for k, v in enumerate(vertices, 1)}
            want = {(label[u], label[v]) for u, v in g.edges if u in label and v in label}
            assert sub == DependencyGraph(len(vertices), frozenset(want))


@st.composite
def incidence_lists(draw, max_events=12, max_vars=6):
    events = draw(st.integers(1, max_events))
    variables = draw(st.integers(1, max_vars))
    var_sets = st.sets(st.integers(1, variables), min_size=1)
    return events, variables, [(i, j) for i in range(1, events + 1) for j in draw(var_sets)]


def assert_same_value(a, twin, text):
    """Equal and equally hashed to its twin and to its pickled copy, and
    still printed as `text`."""
    back = pickle.loads(pickle.dumps(a))
    assert a == twin == back
    assert hash(a) == hash(twin) == hash(back)
    assert repr(a) == text


class TestDerivedAdjacency:
    @settings(max_examples=80, deadline=None)
    @given(spec=edge_lists())
    def test_matches_reference_built_from_edges(self, spec):
        m, edges = spec
        g = DependencyGraph.from_edges(m, edges)
        ref = {v: set() for v in range(1, m + 1)}
        for u, v in edges:
            ref[u].add(v)
            ref[v].add(u)
        assert g.closed_masks == tuple(
            sum(1 << (u - 1) for u in ref[v] | {v}) for v in range(1, m + 1)
        )
        for v in range(1, m + 1):
            for u in range(1, m + 1):
                assert g.has_edge(u, v) == (u in ref[v])
        assert g.max_degree() == max(len(s) for s in ref.values())

    @settings(max_examples=40, deadline=None)
    @given(spec=edge_lists())
    def test_cache_stays_out_of_value_semantics(self, spec):
        m, edges = spec
        g = DependencyGraph.from_edges(m, edges)
        twin = DependencyGraph.from_edges(m, [(v, u) for u, v in reversed(edges)])
        text = repr(g)
        assert_same_value(g, twin, text)
        masks, degree = g.closed_masks, g.max_degree()
        assert_same_value(g, twin, text)
        back = pickle.loads(pickle.dumps(g))
        assert back.closed_masks == masks and back.max_degree() == degree

    @settings(max_examples=80, deadline=None)
    @given(spec=edge_lists())
    def test_breadth_first_order_matches_a_queue_walk(self, spec):
        m, edges = spec
        g = DependencyGraph.from_edges(m, edges)
        text = repr(g)
        # reference: roots and neighbours taken by (degree, label), 1-based
        key = lambda v: (len(neighbors(g, v)), v)  # noqa: E731
        seen: list[int] = []
        for root in sorted(g.vertices, key=key):
            if root in seen:
                continue
            queue = deque([root])
            seen.append(root)
            while queue:
                for w in sorted(neighbors(g, queue.popleft()), key=key):
                    if w not in seen:
                        seen.append(w)
                        queue.append(w)
        order, rank, masks = g.breadth_first_order
        assert order == tuple(v - 1 for v in seen)
        assert [rank[i] for i in order] == list(range(m))
        for k, i in enumerate(order):
            assert masks[k] == sum(1 << rank[u - 1] for u in neighbors(g, i + 1) | {i + 1})
        assert_same_value(g, DependencyGraph.from_edges(m, edges), text)

    def test_breadth_first_order_pinned(self):
        # the path 3-1-4-2 and the isolated vertex 5: the walk starts at 5
        # (degree 0), then at 2, the lower label of the two degree-1 ends
        g = DependencyGraph.from_edges(5, [(3, 1), (1, 4), (4, 2)])
        order, rank, masks = g.breadth_first_order
        assert order == (4, 1, 3, 0, 2)
        assert rank == (3, 1, 4, 2, 0)
        assert masks == (0b00001, 0b00110, 0b01110, 0b11100, 0b11000)

    @settings(max_examples=60, deadline=None)
    @given(spec=edge_lists())
    def test_matching_partners_match_a_scan_of_the_pairs(self, spec):
        m, edges = spec
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if not {u, v} & {w for pair in pairs for w in pair}:
                pairs.append((u, v))
        matching = Matching(frozenset(pairs))
        twin = Matching(frozenset((v, u) for u, v in reversed(pairs)))
        text = repr(matching)
        for i in range(m + 2):
            want = next((b for a, b in pairs + [(v, u) for u, v in pairs] if a == i), None)
            assert matching.partner(i) == want
            assert matching.covers(i) == (want is not None)
        assert_same_value(matching, twin, text)

    @settings(max_examples=60, deadline=None)
    @given(spec=incidence_lists())
    def test_bipartite_maps_match_reference(self, spec):
        events, variables, incidences = spec
        b = BipartiteEventVariableGraph(events, variables, frozenset(incidences))
        twin = BipartiteEventVariableGraph(events, variables, frozenset(reversed(incidences)))
        text = repr(b)
        assert_same_value(b, twin, text)
        for i in range(1, events + 1):
            assert b.event_vars(i) == {j for k, j in incidences if k == i}
        for j in range(1, variables + 1):
            assert var_events(b, j) == {i for i, k in incidences if k == j}
        assert_same_value(b, twin, text)
        back = pickle.loads(pickle.dumps(b))
        assert back._var_events == b._var_events
