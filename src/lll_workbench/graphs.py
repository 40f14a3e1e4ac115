"""Graph models and structural predicates.

Dependency graphs over event indices, event-variable bipartite graphs,
base-graph construction, chordality, chordless cycles, greedy matchings,
linearity, bipartite simplification, and translational-unit expansion.

All graph values are immutable after construction; every operation here is a
pure function, so values can be shared freely across concurrent tasks.
Vertices are indexed 1..m throughout, matching the JSON wire format.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Collection, Iterable, Mapping, Sequence


class InputError(ValueError):
    """Malformed input (bad indices, inconsistent structures)."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected graph over event indices 1..m, no loops or multi-edges."""

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.m < 1:
            raise InputError("vertex count must be positive")
        norm = frozenset(_normalize_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        for u, v in norm:
            if not (1 <= u <= self.m and 1 <= v <= self.m):
                raise InputError(f"edge ({u},{v}) out of range 1..{self.m}")

    @staticmethod
    def from_edges(m: int, edges: Iterable[Sequence[int]]) -> "DependencyGraph":
        return DependencyGraph(m, frozenset(tuple(e) for e in edges))

    @property
    def vertices(self) -> range:
        return range(1, self.m + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges if u != v else False

    def neighbors(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        return len(self._neighbor_sets[v])

    def max_degree(self) -> int:
        return max(len(s) for s in self._neighbor_sets.values())

    # Derived structure, computed on first use and kept in the instance's
    # __dict__: it is freed with the graph and plays no part in ==, hash or repr.

    @cached_property
    def _neighbor_sets(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Index v-1 holds the bit mask of v and its neighbours (bit u-1 for u)."""
        masks = [1 << (v - 1) for v in self.vertices]
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)


@dataclass(frozen=True)
class BipartiteEventVariableGraph:
    """Incidence between events 1..event_count and variables 1..variable_count.

    Every event must touch at least one variable (degree-0 events would make
    per-event root exponents 1/|N(i)| meaningless downstream).
    """

    event_count: int
    variable_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.event_count < 1 or self.variable_count < 1:
            raise InputError("event and variable counts must be positive")
        for i, j in self.edges:
            if not (1 <= i <= self.event_count and 1 <= j <= self.variable_count):
                raise InputError(f"incidence ({i},{j}) out of range")
        # compared before anything is sized by event_count
        covered = len({i for i, _ in self.edges})
        if covered < self.event_count:
            raise InputError(
                f"events without variables: {self.event_count - covered} of {self.event_count}"
            )

    @property
    def events(self) -> range:
        return range(1, self.event_count + 1)

    @property
    def variables(self) -> range:
        return range(1, self.variable_count + 1)

    def event_vars(self, i: int) -> frozenset[int]:
        return self._event_vars[i]

    def var_events(self, j: int) -> frozenset[int]:
        if not 1 <= j <= self.variable_count:
            raise KeyError(j)
        return self._var_events.get(j, frozenset())

    def max_event_degree(self) -> int:
        return max(len(self.event_vars(i)) for i in self.events)

    # Derived maps, cached per instance like DependencyGraph's adjacency.

    @cached_property
    def _event_vars(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {i: set() for i in self.events}
        for i, j in self.edges:
            out[i].add(j)
        return {i: frozenset(s) for i, s in out.items()}

    @cached_property
    def _var_events(self) -> dict[int, frozenset[int]]:
        """Variables with at least one incidence, in increasing order; a
        variable count far above them sizes nothing."""
        out: dict[int, set[int]] = {}
        for i, j in self.edges:
            out.setdefault(j, set()).add(i)
        return {j: frozenset(out[j]) for j in sorted(out)}


@dataclass(frozen=True)
class Matching:
    """Set of pairwise vertex-disjoint edges of an associated DependencyGraph."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = frozenset(_normalize_edge(u, v) for u, v in self.pairs)
        object.__setattr__(self, "pairs", norm)
        seen: set[int] = set()
        for u, v in sorted(norm):
            if u in seen or v in seen:
                raise InputError(f"matching pairs share vertex in ({u},{v})")
            seen.update((u, v))

    def partner(self, i: int) -> int | None:
        for u, v in self.pairs:
            if i == u:
                return v
            if i == v:
                return u
        return None

    def covers(self, i: int) -> bool:
        return self.partner(i) is not None

    def validate_against(self, g: DependencyGraph) -> None:
        for u, v in self.pairs:
            if not g.has_edge(u, v):
                raise InputError(f"matching pair ({u},{v}) is not an edge")


@dataclass(frozen=True)
class ChordlessCycleSet:
    """Vertex sequences of induced cycles (length >= 4), pairwise disjoint."""

    cycles: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# operations

def base_graph(b: BipartiteEventVariableGraph) -> DependencyGraph:
    """Canonical dependency graph: events adjacent iff they share a variable."""
    edges: set[tuple[int, int]] = set()
    for evs in b._var_events.values():
        edges.update(combinations(sorted(evs), 2))
    return DependencyGraph(b.event_count, frozenset(edges))


def is_chordal(g: DependencyGraph) -> bool:
    """True iff the graph has no induced cycle of length >= 4."""
    return _shortest_chordless_cycle(g, set(g.vertices)) is None


def _shortest_chordless_cycle(g: DependencyGraph, alive: set[int]) -> tuple[int, ...] | None:
    """Shortest induced cycle of length >= 4 inside the alive vertex set.

    For a center v with neighbors u, w that are themselves non-adjacent, any
    shortest u-w path avoiding N[v]\\{u,w} closes an induced cycle through v:
    shortest paths are induced, and no internal vertex can see v.
    Deterministic: scans (v, u, w) in sorted order, shortest_path breaks ties
    by vertex number, then the cycle is canonicalized by rotation/reflection.
    """
    best: tuple[int, ...] | None = None
    for v in sorted(alive):
        nbrs = sorted(n for n in g.neighbors(v) if n in alive)
        for u, w in combinations(nbrs, 2):
            if g.has_edge(u, w):
                continue
            # w to u outside the closed neighbourhood of v
            path = shortest_path(g, w, u, (alive - g.neighbors(v) - {v}) | {u})
            if path is None:
                continue
            cycle = (v, *reversed(path))  # v,u,...,w
            if best is None or len(cycle) < len(best) or (
                len(cycle) == len(best) and _canon_cycle(cycle) < _canon_cycle(best)
            ):
                best = cycle
    return _canon_cycle(best) if best is not None else None


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect so the cycle starts at its minimum, smaller side second."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    fwd = tuple(cycle[(i + t) % k] for t in range(k))
    rev = tuple(cycle[(i - t) % k] for t in range(k))
    return min(fwd, rev)


def find_disjoint_chordless_cycles(g: DependencyGraph) -> ChordlessCycleSet:
    """Greedy-maximal family of vertex-disjoint induced cycles, shortest first.

    Empty iff the graph is chordal.
    """
    alive = set(g.vertices)
    cycles: list[tuple[int, ...]] = []
    while True:
        c = _shortest_chordless_cycle(g, alive)
        if c is None:
            break
        cycles.append(c)
        alive -= set(c)
    return ChordlessCycleSet(tuple(cycles))


def greedy_max_intersection_matching(
    g: DependencyGraph, w: Mapping[tuple[int, int], Fraction]
) -> Matching:
    """Greedy matching by weight: repeatedly take the heaviest remaining edge
    (ties broken by lexicographic edge order) and delete incident edges.
    """
    weights: dict[tuple[int, int], Fraction] = {}
    for (u, v), wt in w.items():
        e = _normalize_edge(u, v)
        if e not in g.edges:
            raise InputError(f"weight given for non-edge {e}")
        weights[e] = Fraction(wt)
    missing = g.edges - weights.keys()
    if missing:
        raise InputError(f"weights missing for edges {sorted(missing)}")
    remaining = set(g.edges)
    chosen: set[tuple[int, int]] = set()
    while remaining:
        e = min(remaining, key=lambda x: (-weights[x], x))
        chosen.add(e)
        remaining = {f for f in remaining if e[0] not in f and e[1] not in f}
    return Matching(frozenset(chosen))


def is_linear(b: BipartiteEventVariableGraph) -> bool:
    """True iff every pair of events shares at most one variable."""
    for u, v in combinations(b.events, 2):
        if len(b.event_vars(u) & b.event_vars(v)) > 1:
            return False
    return True


def simplify(b: BipartiteEventVariableGraph) -> BipartiteEventVariableGraph:
    """Drop variables seen by a single event; merge variables with identical
    event neighborhoods. Preserves linearity. Variables renumbered 1..n'.
    """
    groups: dict[frozenset[int], int] = {}
    new_edges: set[tuple[int, int]] = set()
    next_var = 0
    for evs in b._var_events.values():
        if len(evs) <= 1:
            continue
        if evs not in groups:
            next_var += 1
            groups[evs] = next_var
        jj = groups[evs]
        for i in evs:
            new_edges.add((i, jj))
    if next_var == 0:
        raise InputError("simplification removed every variable")
    return BipartiteEventVariableGraph(b.event_count, next_var, frozenset(new_edges))


def edge_variable_graph(g: DependencyGraph) -> BipartiteEventVariableGraph:
    """Regard each edge as a variable and each vertex as an event; an event
    depends on a variable iff the vertex is an endpoint of the edge.
    """
    if not g.edges:
        raise InputError("graph has no edges, so no variables")
    edge_ids = {e: k + 1 for k, e in enumerate(sorted(g.edges))}
    inc = frozenset((i, k) for e, k in edge_ids.items() for i in e)
    return BipartiteEventVariableGraph(g.m, len(edge_ids), inc)


def expand_translational_unit(
    unit: DependencyGraph,
    embedding: Mapping[int, tuple[int, ...]],
    shift_vectors: Sequence[tuple[int, ...]],
    repetitions: Sequence[int],
) -> tuple[DependencyGraph, dict[int, tuple[int, ...]]]:
    """Union of shifted copies of the unit; coincident positions merge.

    Copies are placed at every offset sum(a_k * shift_k) for a_k in
    range(repetitions[k]). Edges are the union of copy edges, so overlapping
    shifts (e.g. primitive lattice vectors) reproduce the full periodic graph
    on the covered window, while disjoint shifts give detached blocks.
    Returns the expanded graph and the vertex -> position map.
    """
    if len(shift_vectors) != len(repetitions):
        raise InputError("one repetition extent per shift vector required")
    dims = {len(pos) for pos in embedding.values()}
    if len(dims) != 1:
        raise InputError("embedding positions must share one dimension")
    (dim,) = dims
    if any(len(s) != dim for s in shift_vectors):
        raise InputError("shift vectors must match embedding dimension")
    if len(set(embedding.values())) != len(embedding):
        raise InputError("unit embedding maps two vertices to one position")
    if set(embedding) != set(unit.vertices):
        raise InputError("embedding must cover exactly the unit vertices")
    if any(r < 1 for r in repetitions):
        raise InputError("repetitions must be positive")

    positions: dict[tuple[int, ...], int] = {}
    edges: set[tuple[int, int]] = set()
    for combo in product(*[range(r) for r in repetitions]):
        offset = tuple(
            sum(a * s[d] for a, s in zip(combo, shift_vectors)) for d in range(dim)
        )
        placed: dict[int, tuple[int, ...]] = {
            v: tuple(p + o for p, o in zip(embedding[v], offset))
            for v in unit.vertices
        }
        if len(set(placed.values())) != len(placed):
            raise InputError("a shifted copy collapses two unit vertices")
        for pos in sorted(placed.values()):
            if pos not in positions:
                positions[pos] = len(positions) + 1
        for u, v in unit.edges:
            edges.add(_normalize_edge(positions[placed[u]], positions[placed[v]]))
    graph = DependencyGraph(len(positions), frozenset(edges))
    return graph, {vid: pos for pos, vid in positions.items()}


# ---------------------------------------------------------------------------
# shared graph utilities

def bfs_distances(g: DependencyGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for v in sorted(g.neighbors(u)):
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def shortest_path(
    g: DependencyGraph, source: int, target: int, allowed: Collection[int] | None = None
) -> tuple[int, ...] | None:
    """A shortest source-target vertex sequence, None if there is none. BFS
    visits neighbours in increasing order, so ties go to smaller vertices;
    with allowed given, it enters no vertex outside allowed."""
    parent: dict[int, int | None] = {source: None}
    dq = deque([source])
    while dq:
        x = dq.popleft()
        if x == target:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for y in sorted(g.neighbors(x)):
            if y not in parent and (allowed is None or y in allowed):
                parent[y] = x
                dq.append(y)
    return None


def is_connected(g: DependencyGraph) -> bool:
    return len(bfs_distances(g, 1)) == g.m


def graph_diameter(g: DependencyGraph) -> int:
    """Max graph distance over vertex pairs; error if disconnected."""
    diam = 0
    for v in g.vertices:
        dist = bfs_distances(g, v)
        if len(dist) != g.m:
            raise InputError("graph is disconnected")
        diam = max(diam, max(dist.values()))
    return diam


def graph_distance(g: DependencyGraph, u: int, v: int) -> int:
    dist = bfs_distances(g, u)
    if v not in dist:
        raise InputError(f"no path from {u} to {v}")
    return dist[v]
