"""Derived quantities and convergence verdicts.

Reduced probability vectors for matched intersecting event pairs, the
intersection-aware convergence verdict, the overlap functional on linear
bipartite graphs, cycle slack terms, the beyond-region verdict, single-step
probability transfer along shortest paths, transfer-scheme condition checks,
and lattice gap bounds.

Roots of rationals are irrational, so those quantities are evaluated with
certified interval arithmetic; every verdict comparison uses directed
rounding (guaranteed quantities rounded down, thresholds rounded down), so
acceptance is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import iv

from .graphs import (
    BipartiteEventVariableGraph,
    DependencyGraph,
    InputError,
    Matching,
    base_graph,
    edge_variable_graph,
    find_disjoint_chordless_cycles,
    graph_diameter,
    graph_distance,
    is_connected,
    is_linear,
    simplify,
)
from .shearer import (
    ProbabilityVector,
    descent_gap_lower,
    in_shearer_bound,
    l1_gap,
    shearer_membership,
)

iv.dps = 60


def _to_iv(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _mpf_tuple_to_fraction(data) -> Fraction:
    sign, man, exp, _ = data
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * (Fraction(2) ** exp)
    return -value if sign else value


@dataclass(frozen=True)
class Bounds:
    """Certified enclosure of a real quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("invalid bounds")

    @staticmethod
    def from_iv(x) -> "Bounds":
        lo_data, hi_data = x._mpi_
        return Bounds(_mpf_tuple_to_fraction(lo_data), _mpf_tuple_to_fraction(hi_data))

    def clamp_nonnegative(self) -> "Bounds":
        return Bounds(max(self.lo, Fraction(0)), max(self.hi, Fraction(0)))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# reduced vectors

@dataclass(frozen=True)
class IntersectionSetting:
    """Dependency graph, probabilities, matched pairs, and guaranteed
    pairwise intersection lower bounds for the matched pairs."""

    graph: DependencyGraph
    p: ProbabilityVector
    matching: Matching
    delta: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        self.matching.validate_against(self.graph)
        if len(self.p) != self.graph.m:
            raise InputError("probability vector length mismatch")
        norm = {}
        for (u, v), d in self.delta.items():
            key = (min(u, v), max(u, v))
            if key not in self.matching.pairs:
                raise InputError(f"delta given for unmatched pair {key}")
            d = Fraction(d)
            if not 0 < d < 1:
                raise InputError(f"delta for {key} must lie in (0,1)")
            if d > min(self.p[key[0]], self.p[key[1]]):
                raise InputError(f"delta for {key} exceeds an endpoint probability")
            norm[key] = d
        missing = self.matching.pairs - norm.keys()
        if missing:
            raise InputError(f"delta missing for pairs {sorted(missing)}")
        object.__setattr__(self, "delta", norm)


@dataclass(frozen=True)
class ReducedVectors:
    p_minus: ProbabilityVector
    p_prime: ProbabilityVector
    c: dict[int, Fraction]


def reduced_vectors(setting: IntersectionSetting) -> ReducedVectors:
    """Matched entries shrink twice: p- subtracts delta^2/17, and p' scales
    by (1 - c_i) with c_i = delta^2 / (8 p_i p_partner)."""
    p = setting.p
    minus = list(p.values)
    prime = list(p.values)
    c: dict[int, Fraction] = {}
    for i, j in sorted(setting.matching.pairs):
        d = setting.delta[(i, j)]
        for a, b in ((i, j), (j, i)):
            ca = d * d / (8 * p[a] * p[b])
            c[a] = ca
            minus[a - 1] = p[a] - d * d / 17
            prime[a - 1] = p[a] * (1 - ca)
    return ReducedVectors(
        ProbabilityVector(tuple(minus)), ProbabilityVector(tuple(prime)), c
    )


def reduction_identity_holds(setting: IntersectionSetting) -> bool:
    """Exact check of p-_i + p-_j (p-_i - p'_i) >= p_i for every matched pair
    (both orientations)."""
    rv = reduced_vectors(setting)
    pm, pp = rv.p_minus, rv.p_prime
    for i, j in setting.matching.pairs:
        for a, b in ((i, j), (j, i)):
            if pm[a] + pm[b] * (pm[a] - pp[a]) < setting.p[a]:
                return False
    return True


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    accepted: bool
    bound_on_expected_steps: Fraction | None
    evidence: str
    details: dict


def intersection_lll_verdict(
    setting: IntersectionSetting, eps: Fraction, delta_source: str = "user"
) -> Verdict:
    """Accept iff the scaled reduced vector (1+eps) p- lies in the Shearer
    region; acceptance carries the m/eps resampling bound."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    rv = reduced_vectors(setting)
    scaled = [(1 + eps) * x for x in rv.p_minus.values]
    details = {
        "eps": eps,
        "p_minus": rv.p_minus.values,
        "p_prime": rv.p_prime.values,
        "delta_source": delta_source,
        "rounding": "exact rational arithmetic",
    }
    if any(x > 1 for x in scaled):
        details["clamp"] = "scaled reduced vector leaves (0,1]"
        return Verdict(False, None, "scaled-entry-above-one", details)
    report = in_shearer_bound(setting.graph, ProbabilityVector(tuple(scaled)))
    if report.in_bound:
        bound = Fraction(setting.graph.m) / eps
        return Verdict(True, bound, "scaled-reduced-vector-in-region", details)
    details["witness"] = report.witness
    return Verdict(False, None, "scaled-reduced-vector-out-of-region", details)


# ---------------------------------------------------------------------------
# overlap functional

def _induced_bipartite(
    b: BipartiteEventVariableGraph, left: Sequence[int]
) -> tuple[BipartiteEventVariableGraph, list[int]]:
    """Induced subgraph on the left set and all its variables; returns the
    sub-bipartite graph plus the original indices of its events in order."""
    levents = sorted(set(left))
    for i in levents:
        if not 1 <= i <= b.event_count:
            raise InputError(f"event {i} out of range")
    variables = sorted({j for i in levents for j in b.event_vars(i)})
    emap = {i: k + 1 for k, i in enumerate(levents)}
    vmap = {j: k + 1 for k, j in enumerate(variables)}
    edges = frozenset(
        (emap[i], vmap[j]) for i, j in b.edges if i in emap and j in vmap
    )
    return (
        BipartiteEventVariableGraph(len(levents), len(variables), edges),
        levents,
    )


def digamma(
    b: BipartiteEventVariableGraph,
    p: ProbabilityVector,
    left: Sequence[int] | None = None,
) -> tuple[Bounds, Bounds]:
    """Certified bounds on the overlap functional and its positive part.

    The functional scales the AM-GM surplus of per-event root weights by the
    squared minimum probability against sqrt(|L|) * Delta_D * Delta_B^2.
    Probabilities index the original events; the left restriction takes the
    induced subgraph on the chosen events and all their variables.
    """
    if left is None:
        left = list(b.events)
    sub, original = _induced_bipartite(b, left)
    probs = [p[i] for i in original]
    union_vars = sub.variable_count
    min_p = min(probs)
    acc = iv.mpf(0)
    for k, i in enumerate(sub.events):
        deg = len(sub.event_vars(i))
        pi = _to_iv(probs[k])
        acc += deg * iv.exp(iv.log(pi) / deg)
    bracket = acc - union_vars
    delta_d = base_graph(sub).max_degree()
    if delta_d == 0:
        raise InputError("left set induces no dependencies; functional undefined")
    delta_b = sub.max_event_degree()
    numerator = _to_iv(min_p) ** 2 * bracket
    denominator = iv.sqrt(iv.mpf(sub.event_count)) * delta_d * delta_b**2
    value = Bounds.from_iv(numerator / denominator)
    return value, value.clamp_nonnegative()


def matching_intersection_lower_bound(
    b: BipartiteEventVariableGraph,
    p: ProbabilityVector,
    left_sets: Sequence[Sequence[int]],
) -> list[Fraction]:
    """Per disjoint left set, the guaranteed floor on the sum of squared
    pairwise intersections some matching must achieve: the squared positive
    part of the overlap functional, rounded down.

    Each induced subgraph (or its simplification) must be linear.
    """
    seen: set[int] = set()
    for ls in left_sets:
        inter = seen & set(ls)
        if inter:
            raise InputError(f"left sets overlap at {sorted(inter)}")
        seen |= set(ls)
    bounds: list[Fraction] = []
    for ls in left_sets:
        sub, _ = _induced_bipartite(b, ls)
        if not is_linear(sub):
            sub2 = simplify(sub)
            if not is_linear(sub2):
                raise InputError(
                    f"left set {sorted(set(ls))} induces a non-linear subgraph"
                )
        _, plus = digamma(b, p, ls)
        bounds.append(plus.lo * plus.lo)
    return bounds


# ---------------------------------------------------------------------------
# cycle slack and the beyond-region verdict

def _validate_induced_cycle(g: DependencyGraph, cycle: Sequence[int]) -> None:
    k = len(cycle)
    if k < 4:
        raise InputError("cycle must have length at least 4")
    if len(set(cycle)) != k:
        raise InputError("cycle repeats a vertex")
    for t in range(k):
        u, v = cycle[t], cycle[(t + 1) % k]
        if not g.has_edge(u, v):
            raise InputError(f"cycle misses edge ({u},{v})")
    for a in range(k):
        for bidx in range(a + 2, k):
            if a == 0 and bidx == k - 1:
                continue
            if g.has_edge(cycle[a], cycle[bidx]):
                raise InputError(
                    f"cycle has chord ({cycle[a]},{cycle[bidx]}); not induced"
                )


def r_cycle(
    g: DependencyGraph, p: ProbabilityVector, cycle: Sequence[int]
) -> tuple[Bounds, Bounds]:
    """Cycle slack |C| (min p)^4 (2 sum sqrt(p)/|C| - 1)^2 and its variant
    with the bracket clamped at zero before squaring."""
    _validate_induced_cycle(g, cycle)
    k = len(cycle)
    min_p = min(p[v] for v in cycle)
    s = iv.mpf(0)
    for v in cycle:
        s += iv.sqrt(_to_iv(p[v]))
    bracket = 2 * s / k - 1
    scale = k * _to_iv(min_p) ** 4
    plain = Bounds.from_iv(scale * bracket**2)
    br = Bounds.from_iv(bracket)
    if br.lo >= 0:
        plus = plain
    elif br.hi <= 0:
        plus = Bounds(Fraction(0), Fraction(0))
    else:
        plus = Bounds(Fraction(0), plain.hi)
    return plain, plus


def beyond_shearer_verdict(
    g: DependencyGraph,
    p: ProbabilityVector,
    eps: Fraction,
    gap_resolution: Fraction | None = None,
) -> Verdict:
    """Accept iff the gap of the scaled vector stays below the disjoint
    chordless cycles' summed slack over 545 (both the 544 and 545 thresholds
    are reported; the stricter one decides). Chordal graphs have zero slack,
    so acceptance then requires the scaled vector inside the region. A
    gap_resolution must be positive; None picks one from the thresholds.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if gap_resolution is not None and gap_resolution <= 0:
        raise InputError("resolution must be positive")
    cycles = find_disjoint_chordless_cycles(g)
    scaled_vals = [(1 + eps) * x for x in p.values]
    details: dict = {"eps": eps, "cycles": cycles.cycles, "rounding": "slack terms rounded down"}
    if any(x > 1 for x in scaled_vals):
        details["clamp"] = "scaled vector leaves (0,1]"
        return Verdict(False, None, "scaled-entry-above-one", details)
    slack_lo = Fraction(0)
    for c in cycles.cycles:
        _, plus = r_cycle(g, p, c)
        slack_lo += plus.lo
    thr544 = slack_lo / 544
    thr545 = slack_lo / 545
    details["threshold_544"] = thr544
    details["threshold_545"] = thr545
    scaled = ProbabilityVector(tuple(scaled_vals))
    if shearer_membership(g, scaled.values):
        details["gap"] = Fraction(-1)
        return Verdict(True, Fraction(g.m) / eps, "scaled-vector-in-region", details)
    if thr545 == 0:
        return Verdict(False, None, "out-of-region-with-zero-slack", details)
    # a descent witness settles rejection without the expensive certified
    # search, which is only tractable when the vector is near the boundary
    quick = descent_gap_lower(g, scaled)
    details["gap_lower_witness"] = quick
    if quick >= thr545:
        return Verdict(False, None, "gap-witness-at-or-above-cycle-slack", details)
    resolution = min(thr545 / 8, (thr545 - quick) / 2) if gap_resolution is None else gap_resolution
    gap = l1_gap(g, scaled, resolution)
    details["gap"] = (gap.lower, gap.upper)
    details["gap_below_544"] = gap.upper < thr544
    if gap.upper < thr545:
        return Verdict(True, Fraction(g.m) / eps, "gap-below-cycle-slack", details)
    return Verdict(False, None, "gap-at-or-above-cycle-slack", details)


# ---------------------------------------------------------------------------
# probability transfer

def transfer_along_path(
    g: DependencyGraph,
    p: ProbabilityVector,
    path: Sequence[int],
    q: Fraction,
) -> ProbabilityVector:
    """Move mass q off the path's last vertex and add the compensated amount
    (prod over interior vertices of (1-p)/p, times (1-p_first)/p_last, times
    q) onto the first; applied to an out-of-region vector along a shortest
    path, the result stays out of the region.
    """
    q = Fraction(q)
    if len(path) < 2 or len(set(path)) != len(path):
        raise InputError("path must list distinct vertices, at least two")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise InputError(f"path misses edge ({a},{b})")
    first, last = path[0], path[-1]
    if graph_distance(g, first, last) != len(path) - 1:
        raise InputError("path is not a shortest path")
    if not 0 <= q <= p[last]:
        raise InputError("q must lie in [0, p_last]")
    if shearer_membership(g, p.values):
        raise InputError("transfer requires a vector beyond the region")
    factor = (1 - p[first]) / p[last]
    for mid in path[1:-1]:
        factor *= (1 - p[mid]) / p[mid]
    vals = list(p.values)
    vals[last - 1] -= q
    vals[first - 1] += factor * q
    if vals[last - 1] <= 0:
        raise InputError("transfer would zero out the source entry")
    if vals[first - 1] > 1:
        raise InputError("transfer would push the target entry above 1")
    return ProbabilityVector(tuple(vals))


def probability_transfer_conditions(
    g: DependencyGraph,
    p: ProbabilityVector,
    p_a: Fraction,
    source_sets: Sequence[Sequence[int]],
    target_sets: Sequence[Sequence[int]],
    multiplicity: int,
    distance: int,
) -> bool:
    """Check the three transfer-scheme conditions: bounded target
    multiplicity, bounded source-target distance, and the scaled surplus
    inequality per set pair. All arithmetic exact.
    """
    p_a = Fraction(p_a)
    if len(source_sets) != len(target_sets):
        raise InputError("one target set per source set required")
    covered = set()
    for s in source_sets:
        covered |= set(s)
    if covered != set(g.vertices):
        raise InputError("source sets must cover every vertex")
    counts: dict[int, int] = {}
    for t in target_sets:
        for i in set(t):
            counts[i] = counts.get(i, 0) + 1
    if any(ct > multiplicity for ct in counts.values()):
        return False
    for s, t in zip(source_sets, target_sets):
        for i in set(s):
            for i2 in set(t):
                if i != i2 and graph_distance(g, i, i2) > distance:
                    return False
    scale = ((1 - p_a) / p_a) ** (distance - 1) * Fraction(multiplicity) / p_a
    for s, t in zip(source_sets, target_sets):
        lhs = scale * sum((max(p[i] - p_a, Fraction(0)) for i in set(s)), Fraction(0))
        rhs = sum((max(p_a - p[i], Fraction(0)) for i in set(t)), Fraction(0))
        if lhs > rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# lattice gaps

@dataclass(frozen=True)
class LatticeGapReport:
    q: Bounds
    unit_diameter: int
    lattice_max_degree: int
    unit_vertices: int
    overlap_functional: Bounds
    note: str


def lattice_gap_q(
    expanded: DependencyGraph,
    unit: DependencyGraph,
    p_a: Fraction,
) -> LatticeGapReport:
    """Gap bound below which symmetric probabilities stay tractable:
    p^(D+2) F+^2 / (17 (Delta+1) |V_U|^2 (1-p)^(D+1)) with D the unit's graph
    diameter, Delta the expanded lattice's maximum degree, F+ the positive
    part of the unit's edge-variable overlap functional at p_a.
    """
    p_a = Fraction(p_a)
    if not 0 < p_a < 1:
        raise InputError("p_a must lie in (0,1)")
    if not is_connected(unit):
        raise InputError("translational unit must be connected")
    diameter = graph_diameter(unit)
    delta = expanded.max_degree()
    b = edge_variable_graph(unit)
    p_vec = ProbabilityVector.uniform(unit.m, p_a)
    _, plus = digamma(b, p_vec)
    denom = 17 * (delta + 1) * Fraction(unit.m) ** 2 * (1 - p_a) ** (diameter + 1)
    numer_scale = p_a ** (diameter + 2)
    q = Bounds(
        numer_scale * plus.lo * plus.lo / denom,
        numer_scale * plus.hi * plus.hi / denom,
    )
    return LatticeGapReport(
        q=q,
        unit_diameter=diameter,
        lattice_max_degree=delta,
        unit_vertices=unit.m,
        overlap_functional=plus,
        note="volume factor uses the unit's vertex count, squared",
    )
