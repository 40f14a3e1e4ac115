"""Built-in translational units of the square, hexagonal and cubic lattices.

Each unit is a finite piece of its lattice, shipped with an integer-lattice
embedding; distances and diameters are graph distances computed on the
actual graphs, never Euclidean distances. Every unit holds a vertex with its
whole lattice neighbourhood, so the unit's maximum degree is the lattice's.

The hexagonal unit uses the brick-wall model of the honeycomb: vertices are
integer points (x, y), horizontal edges (x,y)-(x+1,y) always exist, vertical
edges (x,y)-(x,y+1) exist iff x+y is even. A hexagon labelled by its
bottom-left corner (x, y) (x+y even) has corners {x..x+2} x {y, y+1}. The
19-hexagon unit is the hexagonal ball of radius two around a central cell,
which drawn column-wise has 3,4,5,4,3 hexagons in its five columns.
"""

from __future__ import annotations

from itertools import product
from .graphs import DependencyGraph, InputError


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


#: the names builtin_lattice accepts, each with the builder of its unit
BUILTIN_LATTICES = {
    "square": lambda: grid_unit((5, 5)),
    "hexagonal": hexagon_flake_unit,
    "cubic": lambda: grid_unit((3, 3, 3)),
}


def builtin_lattice(name: str) -> DependencyGraph:
    """The named lattice's translational unit."""
    if name not in BUILTIN_LATTICES:
        raise InputError(f"unknown lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}")
    return BUILTIN_LATTICES[name]()[0]
