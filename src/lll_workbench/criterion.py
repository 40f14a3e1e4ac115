"""Derived quantities and convergence verdicts.

Reduced probability vectors for matched intersecting event pairs, the
intersection-aware convergence verdict, the overlap functional over all the
events of a bipartite graph, the cycle slack with its bracket clamped at
zero, the beyond-region verdict, single-step probability transfer along
shortest paths, and lattice gap bounds. The paper's statements these serve
that no command evaluates (the reduction identity, the matching floor with
the overlap functional on a left set, the unclamped cycle slack, the
transfer-scheme conditions) are checked by reference functions in the tests.

The overlap functional and the cycle slack need roots of rationals (p^(1/deg),
sqrt(p), sqrt(|L|)). Each root is enclosed at 2^-200 in integer
arithmetic, the overlap functional's once per distinct value and degree
within a call; everything else is exact rational arithmetic on those
enclosures, and the summed cycle slack and the lattice gap are rounded
outward to multiples of 2^-200. Every verdict comparison uses directed
rounding (guaranteed quantities rounded down, thresholds rounded down), so
acceptance is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

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
)
from .shearer import ProbabilityVector, gap, in_shearer_bound, shearer_membership


@dataclass(frozen=True)
class Bounds:
    """Certified enclosure of a real quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("invalid bounds")

    def clamp_nonnegative(self) -> "Bounds":
        return Bounds(max(self.lo, Fraction(0)), max(self.hi, Fraction(0)))


ROOT_BITS = 200


def _root_floor(a: int, b: int, k: int) -> tuple[int, bool]:
    """For x = a/b > 0, the integer k-th root r of n = a b^(k-1) 2^(k ROOT_BITS),
    which gives r <= b x^(1/k) 2^ROOT_BITS < r + 1, and whether r is exact:
    it is exactly when the root is rational, since then n is a perfect k-th
    power."""
    n = a * b ** (k - 1) << k * ROOT_BITS
    if k == 2:
        r = isqrt(n)
    else:
        # Newton's iteration from above decreases to the floor of the root
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
    return r, r**k == n


def _root(x: Fraction, k: int) -> Bounds:
    """Enclosure of the k-th root of x > 0 over b 2^ROOT_BITS for x = a/b, at
    most 2^-ROOT_BITS wide (`_root_floor`); a point when the root is
    rational."""
    r, exact = _root_floor(x.numerator, x.denominator, k)
    scale = x.denominator << ROOT_BITS
    return Bounds(Fraction(r, scale), Fraction(r if exact else r + 1, scale))


def _grid_floor(x: Fraction) -> Fraction:
    """The largest multiple of 2^-ROOT_BITS at most x (-_grid_floor(-x) is the
    least one at least x). Printed enclosures that are sums and products of
    roots, each over b*2^ROOT_BITS, are rounded outward with it: they stay
    conservative and print with about half the digits."""
    return Fraction((x.numerator << ROOT_BITS) // x.denominator, 1 << ROOT_BITS)


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


def reduced_vectors(setting: IntersectionSetting) -> ReducedVectors:
    """Matched entries shrink twice: p- subtracts delta^2/17, and p' scales
    by (1 - c_i) with c_i = delta^2 / (8 p_i p_partner)."""
    p = setting.p
    minus = list(p.values)
    prime = list(p.values)
    for i, j in sorted(setting.matching.pairs):
        d = setting.delta[(i, j)]
        for a, b in ((i, j), (j, i)):
            minus[a - 1] = p[a] - d * d / 17
            prime[a - 1] = p[a] * (1 - d * d / (8 * p[a] * p[b]))
    return ReducedVectors(ProbabilityVector(tuple(minus)), ProbabilityVector(tuple(prime)))


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

def digamma(b: BipartiteEventVariableGraph, p: ProbabilityVector) -> tuple[Bounds, Bounds]:
    """Certified bounds on the overlap functional over all of b's events and
    its positive part.

    The functional scales the AM-GM surplus of per-event root weights,
    sum deg(i) p_i^(1/deg(i)) minus the number of variables some event
    reads, by the squared minimum probability against
    sqrt(|L|) * Delta_D * Delta_B^2. The functional on a left set of events
    is the tests' reference, on the induced subgraph.
    """
    delta_d = base_graph(b).max_degree()
    if delta_d == 0:
        raise InputError("no two events share a variable; functional undefined")
    # events of one probability and degree share a root: group them, keyed
    # by integers, and enclose each root once
    groups: dict[tuple[int, int, int], int] = {}
    for i in b.events:
        pi = p[i]
        key = (pi.numerator, pi.denominator, len(b.event_vars(i)))
        groups[key] = groups.get(key, 0) + 1
    lo = hi = Fraction(-len({j for _, j in b.edges}))
    for (num, den, deg), count in groups.items():
        r, exact = _root_floor(num, den, deg)
        scale = den << ROOT_BITS
        lo += Fraction(count * deg * r, scale)
        hi += Fraction(count * deg * (r if exact else r + 1), scale)
    scale = min(p[i] for i in b.events) ** 2 / (delta_d * b.max_event_degree() ** 2)
    # each end is divided by the end of the root of |L| that rounds it
    # outward: a nonnegative one by the upper end, a negative one by the lower
    sqrt_l = _root(Fraction(b.event_count), 2)
    value = Bounds(
        scale * lo / (sqrt_l.hi if lo >= 0 else sqrt_l.lo),
        scale * hi / (sqrt_l.lo if hi >= 0 else sqrt_l.hi),
    )
    return value, value.clamp_nonnegative()


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


def r_cycle(g: DependencyGraph, p: ProbabilityVector, cycle: Sequence[int]) -> Bounds:
    """Cycle slack |C| (min p)^4 max(2 sum sqrt(p)/|C| - 1, 0)^2, the bracket
    clamped at zero before squaring; the verdict reads its lower end. The
    unclamped square is the tests' reference."""
    _validate_induced_cycle(g, cycle)
    k = len(cycle)
    roots = [_root(p[v], 2) for v in cycle]
    lo = max(2 * sum(r.lo for r in roots) / k - 1, Fraction(0))
    hi = max(2 * sum(r.hi for r in roots) / k - 1, Fraction(0))
    scale = k * min(p[v] for v in cycle) ** 4
    return Bounds(scale * lo * lo, scale * hi * hi)


def beyond_shearer_verdict(g: DependencyGraph, p: ProbabilityVector, eps: Fraction) -> Verdict:
    """Accept iff the gap of the scaled vector stays below the disjoint
    chordless cycles' summed slack over 545 (both the 544 and 545 thresholds
    are reported; the stricter one decides). Chordal graphs have zero slack,
    so acceptance then requires the scaled vector inside the region. One
    `gap` call gives the exact gap, or the first witness of a gap at or
    above the 545 threshold, or, at zero slack, only the in-bound test.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    cycles = find_disjoint_chordless_cycles(g)
    scaled_vals = [(1 + eps) * x for x in p.values]
    details: dict = {"eps": eps, "cycles": cycles, "rounding": "slack terms rounded down"}
    if any(x > 1 for x in scaled_vals):
        details["clamp"] = "scaled vector leaves (0,1]"
        return Verdict(False, None, "scaled-entry-above-one", details)
    slack_lo = Fraction(0)
    for c in cycles:
        slack_lo += r_cycle(g, p, c).lo
    slack_lo = _grid_floor(slack_lo)
    thr544 = slack_lo / 544
    thr545 = slack_lo / 545
    details["threshold_544"] = thr544
    details["threshold_545"] = thr545
    found = gap(g, ProbabilityVector(tuple(scaled_vals)), stop=thr545)
    if found is None:
        details["gap"] = Fraction(-1)
        return Verdict(True, Fraction(g.m) / eps, "scaled-vector-in-region", details)
    if thr545 == 0:
        return Verdict(False, None, "out-of-region-with-zero-slack", details)
    details["gap_lower_witness"] = found
    if found >= thr545:
        return Verdict(False, None, "gap-witness-at-or-above-cycle-slack", details)
    details["gap"] = (found, found)
    details["gap_below_544"] = found < thr544
    return Verdict(True, Fraction(g.m) / eps, "gap-below-cycle-slack", details)


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
        _grid_floor(numer_scale * plus.lo * plus.lo / denom),
        -_grid_floor(-numer_scale * plus.hi * plus.hi / denom),
    )
    return LatticeGapReport(
        q=q,
        unit_diameter=diameter,
        lattice_max_degree=delta,
        unit_vertices=unit.m,
        overlap_functional=plus,
        note="volume factor uses the unit's vertex count, squared",
    )
