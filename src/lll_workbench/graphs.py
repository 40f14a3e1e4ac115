"""Graph models and structural predicates.

Dependency graphs over event indices, event-variable bipartite graphs,
base-graph construction, chordless cycles (a graph is chordal iff it has
none), connected components, and translational-unit expansion. The package's
two error types live here, below every layer that raises them: InputError
(the CLI exits 2) and CapExceeded (it exits 3).

All graph values are immutable after construction; every operation here is a
pure function, so values can be shared freely across concurrent tasks.
Vertices are indexed 1..m throughout, matching the JSON wire format.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import prod
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence


class InputError(ValueError):
    """Malformed input (bad indices, inconsistent structures)."""


class CapExceeded(RuntimeError):
    """A configured enumeration or search cap was hit."""


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

    def max_degree(self) -> int:
        # counted off the edges: it is asked of fresh graphs, whose
        # closed masks would be built for it alone
        return max(Counter(chain.from_iterable(self.edges)).values(), default=0)

    # Derived structure, computed on first use and kept in the instance's
    # __dict__: it is freed with the graph and plays no part in ==, hash or repr.

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Index v-1 holds the bit mask of v and its neighbours (bit u-1 for u)."""
        masks = [1 << (v - 1) for v in self.vertices]
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)

    @cached_property
    def breadth_first_order(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """A breadth-first (Cuthill-McKee) order of the vertices, in which
        neighbours stay close: (order, rank, masks), indices 0-based like the
        bits of closed_masks. order[k] is v-1 for the k-th vertex v visited,
        rank inverts order, and masks[k] is the closed mask of that vertex
        with bit rank[u-1] for u. Each component's walk starts at a vertex
        of least degree and visits neighbours by ascending degree, ties
        broken by label."""
        m = self.m
        adj: list[list[int]] = [[] for _ in range(m)]
        for u, v in self.edges:
            adj[u - 1].append(v - 1)
            adj[v - 1].append(u - 1)
        by_degree = sorted(range(m), key=lambda i: len(adj[i]))  # stable: ties by label
        place = [0] * m
        for k, i in enumerate(by_degree):
            place[i] = k
        order: list[int] = []
        rank = [-1] * m
        head = 0
        for root in by_degree:
            if rank[root] >= 0:
                continue
            rank[root] = len(order)
            order.append(root)
            while head < len(order):
                fresh = [w for w in adj[order[head]] if rank[w] < 0]
                fresh.sort(key=place.__getitem__)
                for w in fresh:
                    rank[w] = len(order)
                    order.append(w)
                head += 1
        masks = [1 << k for k in range(m)]
        for u, v in self.edges:
            masks[rank[u - 1]] |= 1 << rank[v - 1]
            masks[rank[v - 1]] |= 1 << rank[u - 1]
        return tuple(order), tuple(rank), tuple(masks)


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

    def max_event_degree(self) -> int:
        return max(len(self.event_vars(i)) for i in self.events)

    # Derived maps, cached per instance like DependencyGraph's closed masks.

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

    @cached_property
    def _partners(self) -> dict[int, int]:
        """Each matched vertex's partner, both ways round."""
        return {a: b for u, v in self.pairs for a, b in ((u, v), (v, u))}

    def partner(self, i: int) -> int | None:
        return self._partners.get(i)

    def covers(self, i: int) -> bool:
        return i in self._partners

    def validate_against(self, g: DependencyGraph) -> None:
        for u, v in self.pairs:
            if not g.has_edge(u, v):
                raise InputError(f"matching pair ({u},{v}) is not an edge")


# ---------------------------------------------------------------------------
# operations

def base_graph(b: BipartiteEventVariableGraph) -> DependencyGraph:
    """Canonical dependency graph: events adjacent iff they share a variable."""
    edges: set[tuple[int, int]] = set()
    for evs in b._var_events.values():
        edges.update(combinations(sorted(evs), 2))
    return DependencyGraph(b.event_count, frozenset(edges))


def _shortest_chordless_cycle(masks: Sequence[int], alive: int) -> tuple[int, ...] | None:
    """Shortest induced cycle of length >= 4 inside the alive mask, least
    in canonical form among the shortest.

    For a center v with neighbors u < w that are themselves non-adjacent,
    any shortest u-w path inside W = alive - N[v] + u closes an induced
    cycle through v: shortest paths are induced, and no internal vertex can
    see v. The layers around u inside W serve every such w, and are built
    only to the depth at which a cycle as short as the best so far can
    still close, so ties with the best are found and compared.

    The path from w takes, at each step, the least neighbour one layer
    nearer u. Every shortest path from w to u meets the layers in descending
    order, one step a layer, so this greedy choice gives the
    lexicographically least shortest path read from w. That is the path a
    breadth-first search from w returns when it visits neighbours in
    increasing order and makes the first vertex to reach a node its parent:
    by induction on the depth, its queue holds each layer in the
    lexicographic order of its vertices' paths, so the first vertex to reach
    a node ends the least shortest path into it. It is also why the least
    canonical cycle (a, b, c, ...) among the shortest is found: from centre
    b with u = a and w = c, the least path from c reads no later than it.
    """
    best: tuple[int, ...] | None = None
    for v in _vertices(alive):
        nbrs = alive & masks[v - 1] & ~(1 << (v - 1))
        for u in _vertices(nbrs):
            # the alive neighbours w > u of v that do not see u
            far = (nbrs & ~masks[u - 1]) >> u << u
            if not far:
                continue
            within = alive & ~masks[v - 1] | 1 << (u - 1)
            # a w that first sees layer k closes a cycle of length k + 3
            depth = None if best is None else len(best) - 2
            layers = list(islice(_layers(masks, 1 << (u - 1), within), depth))
            for w in _vertices(far):
                k = next((k for k, layer in enumerate(layers) if masks[w - 1] & layer), None)
                if k is None:
                    continue
                cycle = (v, *reversed(_least_path(masks, layers[: k + 1], w)))  # v,u,...,w
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


def find_disjoint_chordless_cycles(g: DependencyGraph) -> tuple[tuple[int, ...], ...]:
    """Greedy-maximal family of vertex-disjoint induced cycles (length >= 4),
    shortest first, each as its vertex sequence.

    Empty iff the graph is chordal.
    """
    alive = (1 << g.m) - 1
    cycles: list[tuple[int, ...]] = []
    while (c := _shortest_chordless_cycle(g.closed_masks, alive)) is not None:
        cycles.append(c)
        alive &= ~sum(1 << (v - 1) for v in c)
    return tuple(cycles)


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
    range(repetitions[k]), in product order, and each copy gives the
    positions it adds the next vertex ids in lexicographic order. Edges are
    the union of copy edges, so overlapping shifts (e.g. primitive lattice
    vectors) reproduce the full periodic graph on the covered window, while
    disjoint shifts give detached blocks. Returns the expanded graph and the
    vertex -> position map.

    Positions are coded as single integers, in a mixed radix over the
    window's bounding box with the last axis varying fastest, so that codes
    sort as the position tuples do. A copy's codes are the unit's codes plus
    its offset's code: the unit's sorted order serves every copy, and
    distinct unit positions stay distinct in each. The codes are decoded to
    tuples once, at the end.
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

    # the window's bounding box: from lo[d], span[d] values along axis d
    lo, span = [], []
    for d in range(dim):
        axis = [pos[d] for pos in embedding.values()]
        reach = [(r - 1) * s[d] for s, r in zip(shift_vectors, repetitions)]
        lo.append(min(axis) + sum(min(x, 0) for x in reach))
        span.append(max(axis) + sum(max(x, 0) for x in reach) - lo[d] + 1)
    weight = [prod(span[d + 1 :]) for d in range(dim)]

    def encode(vector) -> int:
        return sum(x * w for x, w in zip(vector, weight))

    base = encode(lo)
    code = {v: encode(pos) - base for v, pos in embedding.items()}
    order = sorted(code.values())
    shift_codes = [encode(s) for s in shift_vectors]
    offsets = [sum(map(mul, combo, shift_codes)) for combo in product(*[range(r) for r in repetitions])]
    # ids in order of first appearance, copy after copy
    ids = {c: vid for vid, c in enumerate(dict.fromkeys(c + o for o in offsets for c in order), 1)}
    # an edge is its lower end's code and the difference up to the other
    # end's, so that shifted copies of one edge coincide as codes
    lower_ends: dict[int, list[int]] = {}
    for u, v in unit.edges:
        cu, cv = sorted((code[u], code[v]))
        lower_ends.setdefault(cv - cu, []).append(cu)
    edges = frozenset(
        (ids[c], ids[c + d])
        for d, ends in lower_ends.items()
        for c in {e + o for o in offsets for e in ends}
    )
    # decoded axis by axis; a 0-dimensional unit has one vertex, at ()
    axes = [[c // w % s + x for c in ids] for w, s, x in zip(weight, span, lo)]
    return DependencyGraph(len(ids), edges), dict(enumerate(zip(*axes) if dim else [()], 1))


# ---------------------------------------------------------------------------
# shared graph utilities

def _members(mask: int) -> list[int]:
    """0-based vertices of a bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertices(mask: int) -> Iterator[int]:
    """The vertices of a mask (bit v-1 for v), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _layers(masks: Sequence[int], start: int, within: int = -1) -> Iterator[int]:
    """The breadth-first layers around the start mask over the closed masks
    (bit v-1 for v): start, then each set of vertices one step further out,
    entering no vertex outside within."""
    seen = layer = start
    while layer:
        yield layer
        grown = 0
        while layer:
            low = layer & -layer
            grown |= masks[low.bit_length() - 1]
            layer ^= low
        layer = grown & within & ~seen
        seen |= layer


def _least_path(masks: Sequence[int], layers: Sequence[int], x: int) -> list[int]:
    """From x, a neighbour of the last layer, the vertex sequence that steps
    to the least neighbour in each layer, last to first."""
    path = [x]
    for layer in reversed(layers):
        step = masks[path[-1] - 1] & layer
        path.append((step & -step).bit_length())
    return path


def shortest_path(g: DependencyGraph, source: int, target: int) -> tuple[int, ...] | None:
    """The lexicographically least shortest source-target vertex sequence,
    None if there is none: read off the layers around target as in
    _shortest_chordless_cycle."""
    layers: list[int] = []
    for layer in _layers(g.closed_masks, 1 << (target - 1)):
        if layer >> (source - 1) & 1:
            return tuple(_least_path(g.closed_masks, layers, source))
        layers.append(layer)
    return None


def is_connected(g: DependencyGraph) -> bool:
    # the layers are disjoint, so their sum is their union
    return sum(_layers(g.closed_masks, 1)) == (1 << g.m) - 1


def connected_components(g: DependencyGraph) -> list[tuple[tuple[int, ...], DependencyGraph]]:
    """Each component of g, by its least vertex: its vertices, ascending, and
    the subgraph they induce, relabelled 1..k in that order; a connected g
    is its own one component, as it is."""
    parts: list[list[int]] = []
    part_of, label = [0] * (g.m + 1), [0] * (g.m + 1)
    unseen = (1 << g.m) - 1
    while unseen:
        part = sum(_layers(g.closed_masks, unseen & -unseen))
        if part == (1 << g.m) - 1:
            return [(tuple(g.vertices), g)]
        unseen ^= part
        members = list(_vertices(part))
        for k, v in enumerate(members, 1):
            part_of[v], label[v] = len(parts), k
        parts.append(members)
    edges: list[list[tuple[int, int]]] = [[] for _ in parts]
    for u, v in g.edges:
        edges[part_of[u]].append((label[u], label[v]))
    return [
        (tuple(members), DependencyGraph(len(members), frozenset(e)))
        for members, e in zip(parts, edges)
    ]


def graph_diameter(g: DependencyGraph) -> int:
    """Max graph distance over vertex pairs; error if disconnected."""
    full = (1 << g.m) - 1
    diam = 0
    for v in g.vertices:
        reached = depth = 0
        for depth, layer in enumerate(_layers(g.closed_masks, 1 << (v - 1))):
            reached |= layer
        if reached != full:
            raise InputError("graph is disconnected")
        diam = max(diam, depth)
    return diam


def graph_distance(g: DependencyGraph, u: int, v: int) -> int:
    if 1 <= v <= g.m:
        for depth, layer in enumerate(_layers(g.closed_masks, 1 << (u - 1))):
            if layer >> (v - 1) & 1:
                return depth
    raise InputError(f"no path from {u} to {v}")
