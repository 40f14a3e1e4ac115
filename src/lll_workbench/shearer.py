"""Exact Shearer-region computations.

Everything here is exact rational arithmetic: the alternating sums over
independent sets cancel catastrophically in floating point, so q-values,
membership verdicts, boundary scalings and L1-gap bounds are all Fractions.
Pure functions over immutable inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .graphs import DependencyGraph, InputError


class CapExceeded(RuntimeError):
    """A configured enumeration or search cap was hit."""


#: graphs larger than this are refused by full independent-set enumeration
DEFAULT_ENUMERATION_CAP = 30

#: l1_gap refuses to split more boxes than this
MAX_GAP_BOXES = 500_000

#: descent_gap_lower bisects each coordinate to this width, in at most
#: DESCENT_PASSES passes over the coordinates
DESCENT_TOLERANCE = Fraction(1, 1 << 40)
DESCENT_PASSES = 8


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-event probabilities, exact rationals in (0, 1]."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for k, v in enumerate(vals):
            if not 0 < v <= 1:
                raise InputError(f"probability p_{k + 1}={v} outside (0,1]")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        """1-based access, matching vertex indices."""
        return self.values[i - 1]

    @staticmethod
    def uniform(m: int, p) -> "ProbabilityVector":
        return ProbabilityVector((Fraction(p),) * m)

    def scaled(self, factor) -> "ProbabilityVector":
        return ProbabilityVector(tuple(Fraction(factor) * v for v in self.values))


@dataclass(frozen=True)
class ShearerReport:
    in_bound: bool
    q_values: dict[tuple[int, ...], Fraction]
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class GapEstimate:
    """Certified bounds on the maximum L1-gap d(p, G).

    lower == upper == -1 encodes the in-bound marker value.
    """

    lower: Fraction
    upper: Fraction
    resolution: Fraction


@dataclass(frozen=True)
class BoundaryScale:
    lo: Fraction
    hi: Fraction
    clamped: bool


def _check_size(g: DependencyGraph) -> None:
    if g.m > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(
            f"graph has {g.m} vertices; enumeration capped at {DEFAULT_ENUMERATION_CAP}"
        )


def independent_sets(g: DependencyGraph) -> Iterator[tuple[int, ...]]:
    """All independent sets including (), in nondecreasing size order,
    lexicographic within each size: extending each set of a lex-ordered
    level by larger vertices, in increasing order, keeps the next level in
    lex order.
    """
    _check_size(g)
    nbr = g.closed_masks
    current: list[tuple[tuple[int, ...], int]] = [((), 0)]
    yield ()
    while current:
        nxt: list[tuple[tuple[int, ...], int]] = []
        for vs, mask in current:
            start = vs[-1] + 1 if vs else 1
            for v in range(start, g.m + 1):
                if mask & (1 << (v - 1)):
                    continue
                nxt.append((vs + (v,), mask | nbr[v - 1]))
        for vs, _ in nxt:
            yield vs
        current = nxt


def _q_empty_masked(
    values: Sequence[Fraction],
    nbr: Sequence[int],
    mask: int,
    memo: dict[int, Fraction],
) -> Fraction:
    """Independence polynomial of the induced subgraph `mask` at negated
    weights: sum over independent J within mask of (-1)^|J| prod values.

    Splits on the lowest vertex of `mask`, so evaluating a mask leaves every
    suffix mask, mask & (mask-1) and so on, in `memo`.
    """
    if mask == 0:
        return Fraction(1)
    cached = memo.get(mask)
    if cached is not None:
        return cached
    v_bit = mask & -mask
    v = v_bit.bit_length() - 1
    without_v = _q_empty_masked(values, nbr, mask & ~v_bit, memo)
    without_nv = _q_empty_masked(values, nbr, mask & ~nbr[v], memo)
    out = without_v - values[v] * without_nv
    memo[mask] = out
    return out


def _in_region(
    values: Sequence[Fraction],
    nbr: Sequence[int],
    support: int,
    memo: dict[int, Fraction],
) -> bool:
    """Strict membership of a nonnegative vector whose positive entries are
    exactly `support`: q_0 > 0 on each of the nested suffixes of the support
    (Scott-Sokal, J. Stat. Phys. 118, 2005: positivity along one maximal
    chain of induced subgraphs is equivalent to q_I > 0 for every
    independent I). The first evaluation fills `memo` with all the others.
    """
    mask = support
    while mask:
        if _q_empty_masked(values, nbr, mask, memo) <= 0:
            return False
        mask &= mask - 1
    return True


def _q_of_set(
    p: ProbabilityVector,
    nbr: Sequence[int],
    iset: Sequence[int],
    memo: dict[int, Fraction],
) -> Fraction:
    """q_I = (prod_{i in I} p_i) * q_0 on the graph minus N[I]."""
    mask = (1 << len(p)) - 1
    coeff = Fraction(1)
    for u in iset:
        mask &= ~nbr[u - 1]
        coeff *= p[u]
    return coeff * _q_empty_masked(p.values, nbr, mask, memo)


def q_polynomial(
    g: DependencyGraph, p: ProbabilityVector, independent: Sequence[int]
) -> Fraction:
    """q_I: alternating sum over independent supersets J of I of prod p.

    Factorizes as (prod_{i in I} p_i) * q_0 on the graph minus N[I].
    """
    if len(p) != g.m:
        raise InputError("probability vector length mismatch")
    iset = tuple(sorted(set(independent)))
    for u in iset:
        if not 1 <= u <= g.m:
            raise InputError(f"vertex {u} out of range")
    for a in iset:
        for b in iset:
            if a < b and g.has_edge(a, b):
                raise InputError(f"set not independent: edge ({a},{b})")
    return _q_of_set(p, g.closed_masks, iset, {})


def q_empty(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    return q_polynomial(g, p, ())


def shearer_membership(g: DependencyGraph, values: Sequence[Fraction]) -> bool:
    """Strict membership test, extended to vectors with zero entries by
    restricting to the support (an event of probability zero never fires).
    """
    vals = [Fraction(v) for v in values]
    if len(vals) != g.m:
        raise InputError("vector length mismatch")
    for v in vals:
        if not 0 <= v <= 1:
            raise InputError(f"entry {v} outside [0,1]")
    support_mask = 0
    for k, v in enumerate(vals):
        if v > 0:
            support_mask |= 1 << k
    _check_size(g)
    return _in_region(vals, g.closed_masks, support_mask, {})


def in_shearer_bound(g: DependencyGraph, p: ProbabilityVector) -> ShearerReport:
    """Strict membership with q_0 and the singleton q-values; on rejection
    the witness is the first failing independent set (size order, then
    lexicographic).
    """
    if len(p) != g.m:
        raise InputError("probability vector length mismatch")
    _check_size(g)
    nbr = g.closed_masks
    memo: dict[int, Fraction] = {}
    q_values = {(): _q_of_set(p, nbr, (), memo)}
    for v in g.vertices:
        q_values[(v,)] = _q_of_set(p, nbr, (v,), memo)
    if _in_region(p.values, nbr, (1 << g.m) - 1, memo):
        return ShearerReport(True, q_values, None)
    witness = next(
        iset for iset in independent_sets(g) if _q_of_set(p, nbr, iset, memo) <= 0
    )
    return ShearerReport(False, q_values, witness)


def boundary_scale(
    g: DependencyGraph,
    direction: ProbabilityVector,
    resolution: Fraction,
) -> BoundaryScale:
    """Bisection bracket [lo, hi] with hi-lo <= resolution such that
    lo*direction is in the bound (lo=0 counts trivially) and hi*direction is
    not. Bisection starts from the clamp scale t_max, the largest scale
    keeping every entry <= 1; a vector with a unit entry is never strictly
    inside, so t_max itself always fails membership. clamped means only that
    bisection found no failing point below t_max (hi == t_max): the boundary
    may still lie inside (lo, t_max).
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InputError("resolution must be positive")
    t_max = min(Fraction(1) / d for d in direction.values)
    lo, hi = Fraction(0), t_max
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if shearer_membership(g, [mid * d for d in direction.values]):
            lo = mid
        else:
            hi = mid
    return BoundaryScale(lo, hi, clamped=hi == t_max)


def _norm1(vec: tuple[Fraction, ...]) -> Fraction:
    return sum(vec, Fraction(0))


def l1_gap(g: DependencyGraph, p: ProbabilityVector, resolution: Fraction) -> GapEstimate:
    """Certified bounds on d(p, G) = sup ||q||_1 over 0 <= q <= p with p-q
    outside the region. Returns the -1 marker when p is in the bound.

    Equivalent form used here: minimize ||r||_1 over out-of-bound r <= p
    (the out-region is up-closed since the region is down-closed), then
    d = ||p||_1 - min. Branch-and-bound over boxes [a, b] in [0, p]:
    a box with in-bound upper corner contains no out point; a box with
    out-of-bound lower corner achieves exactly ||a||_1.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InputError("resolution must be positive")
    if len(p) != g.m:
        raise InputError("probability vector length mismatch")
    if shearer_membership(g, p.values):
        return GapEstimate(Fraction(-1), Fraction(-1), resolution)

    total = _norm1(p.values)
    zero = tuple(Fraction(0) for _ in p.values)

    # every box on the heap straddles the boundary: lower corner in bound,
    # upper corner out of bound; its min-norm lower bound is ||a||_1
    upper_best = total  # ||p||_1 itself is achievable (p is out of bound)
    counter = 0
    heap: list[tuple[Fraction, int, tuple[Fraction, ...], tuple[Fraction, ...]]] = []

    def offer(a: tuple[Fraction, ...], b: tuple[Fraction, ...], a_known_in: bool):
        nonlocal upper_best, counter
        lb = _norm1(a)
        if lb >= upper_best:
            return
        if not a_known_in and not shearer_membership(g, a):
            upper_best = min(upper_best, lb)  # a itself is an out point
            return
        counter += 1
        heapq.heappush(heap, (lb, counter, a, b))

    if shearer_membership(g, zero):
        offer(zero, p.values, True)
    else:
        upper_best = Fraction(0)
    boxes_seen = 0
    while heap:
        lb, _, a, b = heapq.heappop(heap)
        if upper_best - lb <= resolution:
            heapq.heappush(heap, (lb, counter, a, b))
            break
        if lb >= upper_best:
            continue
        boxes_seen += 1
        if boxes_seen > MAX_GAP_BOXES:
            raise CapExceeded(f"l1_gap exceeded {MAX_GAP_BOXES} boxes")
        axis = max(range(len(a)), key=lambda k: (b[k] - a[k], -k))
        mid = (a[axis] + b[axis]) / 2
        b_low = tuple(mid if k == axis else b[k] for k in range(len(b)))
        a_high = tuple(mid if k == axis else a[k] for k in range(len(a)))
        if not shearer_membership(g, b_low):
            offer(a, b_low, True)  # still straddling
        offer(a_high, b, False)
    lower_min = min((item[0] for item in heap), default=upper_best)
    lower_min = min(lower_min, upper_best)
    return GapEstimate(total - upper_best, total - lower_min, resolution)


def descent_gap_lower(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    """Cheap certified lower bound on d(p, G) for an out-of-bound p.

    Coordinate descent from r = p: per coordinate, bisect the smallest value
    keeping r out of the region; every intermediate r stays a witness, so
    ||p||_1 - ||r||_1 is always a valid lower bound. Returns -1 when p is in
    the region.
    """
    if shearer_membership(g, p.values):
        return Fraction(-1)
    r = list(p.values)
    for _ in range(DESCENT_PASSES):
        improved = False
        for k in range(len(r)):
            if r[k] == 0:
                continue
            lo, hi = Fraction(0), r[k]
            probe = list(r)
            probe[k] = Fraction(0)
            if not shearer_membership(g, probe):
                r[k] = Fraction(0)
                improved = True
                continue
            while hi - lo > DESCENT_TOLERANCE:
                mid = (lo + hi) / 2
                probe[k] = mid
                if shearer_membership(g, probe):
                    lo = mid
                else:
                    hi = mid
            if hi < r[k]:
                r[k] = hi
                improved = True
        if not improved:
            break
    return _norm1(p.values) - _norm1(tuple(r))


def resample_bound(report: ShearerReport) -> Fraction:
    """Exact value of sum_i q_{i}/q_0 from an in-bound report: the
    resampling-count bound valid whenever p lies in the Shearer region.
    """
    if not report.in_bound:
        raise InputError(f"vector out of bound, witness {report.witness}")
    singles = (q for iset, q in report.q_values.items() if len(iset) == 1)
    return sum(singles, Fraction(0)) / report.q_values[()]


def expected_resample_bound(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    """Exact value of sum_i q_{i}/q_0, the resampling-count bound valid
    whenever p lies in the Shearer region.
    """
    return resample_bound(in_shearer_bound(g, p))
