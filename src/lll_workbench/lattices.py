"""Built-in translational units and finite lattice windows.

Units ship with integer-lattice embeddings so distances and diameters are
graph distances computed on the actual graphs, never Euclidean distances.

The hexagonal unit uses the brick-wall model of the honeycomb: vertices are
integer points (x, y), horizontal edges (x,y)-(x+1,y) always exist, vertical
edges (x,y)-(x,y+1) exist iff x+y is even. A hexagon labelled by its
bottom-left corner (x, y) (x+y even) has corners {x..x+2} x {y, y+1}. The
19-hexagon unit is the hexagonal ball of radius two around a central cell,
which drawn column-wise has 3,4,5,4,3 hexagons in its five columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from .graphs import DependencyGraph, InputError, expand_translational_unit


@dataclass(frozen=True)
class LatticeSpec:
    """A translational unit plus the shift data that tiles the full lattice."""

    name: str
    unit: DependencyGraph
    embedding: dict[int, tuple[int, ...]]
    shift_vectors: tuple[tuple[int, ...], ...]
    default_repetitions: tuple[int, ...]

    def expanded(self):
        return expand_translational_unit(
            self.unit, self.embedding, self.shift_vectors, self.default_repetitions
        )


def grid_unit(dims: tuple[int, ...]) -> tuple[DependencyGraph, dict[int, tuple[int, ...]]]:
    """Axis-aligned grid graph on prod(dims) vertices with unit spacing."""
    points = sorted(product(*[range(d) for d in dims]))
    ids = {p: k + 1 for k, p in enumerate(points)}
    edges: set[tuple[int, int]] = set()
    for p in points:
        for axis in range(len(dims)):
            q = list(p)
            q[axis] += 1
            qt = tuple(q)
            if qt in ids:
                edges.add((ids[p], ids[qt]))
    return DependencyGraph(len(points), frozenset(edges)), {v: p for p, v in ids.items()}


def hexagon_flake_unit() -> tuple[DependencyGraph, dict[int, tuple[int, ...]]]:
    """The 19-hexagon honeycomb unit (54 vertices, 72 edges).

    Hexagon centres are the triangular-lattice ball of radius 2 in axial
    coordinates (a, b); a centre maps to the brick label (2a+b, b).
    """
    labels = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (abs(a) + abs(b) + abs(a + b)) // 2 <= 2:
                labels.append((2 * a + b, b))
    if len(labels) != 19:
        raise InputError("hexagon unit construction produced wrong cell count")
    corners: set[tuple[int, int]] = set()
    for x, y in labels:
        for i in range(3):
            for j in range(2):
                corners.add((x + i, y + j))
    ids = {p: k + 1 for k, p in enumerate(sorted(corners))}
    edges: set[tuple[int, int]] = set()
    for x, y in labels:
        ring = [
            (x, y), (x + 1, y), (x + 2, y),
            (x + 2, y + 1), (x + 1, y + 1), (x, y + 1),
        ]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.add((ids[a], ids[b]))
    graph = DependencyGraph(len(ids), frozenset(edges))
    return graph, {v: p for p, v in ids.items()}


def _square_spec() -> LatticeSpec:
    unit, emb = grid_unit((5, 5))
    return LatticeSpec("square", unit, emb, ((1, 0), (0, 1)), (6, 6))


def _hexagonal_spec() -> LatticeSpec:
    unit, emb = hexagon_flake_unit()
    # (2,0) and (1,1) generate the brick-wall translation group
    return LatticeSpec("hexagonal", unit, emb, ((2, 0), (1, 1)), (3, 3))


def _cubic_spec() -> LatticeSpec:
    unit, emb = grid_unit((3, 3, 3))
    return LatticeSpec(
        "cubic", unit, emb, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (4, 4, 4)
    )


#: the names builtin_lattice accepts, each with the builder of its spec
BUILTIN_LATTICES = {
    "square": _square_spec,
    "hexagonal": _hexagonal_spec,
    "cubic": _cubic_spec,
}


def builtin_lattice(name: str) -> LatticeSpec:
    if name not in BUILTIN_LATTICES:
        raise InputError(f"unknown lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}")
    return BUILTIN_LATTICES[name]()
