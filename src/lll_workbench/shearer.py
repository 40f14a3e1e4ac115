"""Exact Shearer-region computations.

Everything here is exact: the alternating sums over independent sets cancel
catastrophically in floating point. The oracle runs on integer numerators
over one common denominator D: for a vertex set S, Q(S) = D^|S| * q_0(G[S])
is an integer with the sign of q_0. The boundary, gap and descent searches
keep their probes as integer numerators over D*2^k, so Fractions appear only
at the API boundary: the inputs, and the q-values, brackets and bounds
returned. Pure functions over immutable inputs.

Every oracle call evaluates Q through one `_Plan` per vector: the masks the
recursion on the lowest vertex reaches, in bottom-up order, each with its
value. One-off membership and `q_polynomial` build one plan;
`in_shearer_bound` reads q_0, the singleton q-values (one backward pass over
the plan) and the witness walk off the same plan, and `minimal_gap` reads
q_0, that backward pass and the memberships of every G - v off one plan.
The searches probe one graph thousands of times with new numerators, so
each builds a support's plan at its first probe, keeps the plan's replay
steps and replays them at every later probe of that support. A call holds at most MAX_PLAN_STEPS
steps of plans; nothing is cached across calls.

A plan's size depends on the vertex order it splits in, and any order gives
the same verdict and values (any maximal chain of induced subgraphs decides
membership), so graphs of _ORDER_MIN_VERTICES or more vertices are planned
in their breadth-first (Cuthill-McKee) order: on a 5x5 grid with shuffled
labels that is 103 steps instead of 800 to 1,400. Inputs and results stay in
the caller's labels: numerators are permuted once per plan, the q-values
mapped back, and replay steps name the caller's vertices.

The gap search's boxes at one split depth share their widths, level and
split axis, so `_box_gap` keeps those once per depth (at most one entry per
split) and a box on its heap is only its lower corner and its depth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import lcm, prod
from typing import Callable, Iterator, Sequence

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


#: plan steps one oracle call may hold: a search over all the supports it
#: probes, a one-off call over all the masks it evaluates. A step takes about
#: 200 bytes, so the cap bounds a call's plans to about 100 MB
MAX_PLAN_STEPS = 500_000

#: a plan's replay steps: the highest power of den they use, and one step
#: (v's label, |N[v] & S|-1, index of S-v, index of S - N[v], S is a nested
#: suffix) per mask S, in the order built
_Replay = tuple[int, tuple[tuple[int, int, int, int, bool], ...]]


class _Plan:
    """The oracle's one plan for the vector nums/den, built as callers ask.

    For a vertex set S, Q(S) = den^|S| * q_0(G[S]) is an integer with the
    sign of q_0. q_0 is multilinear, so splitting on the lowest vertex v of S
    gives Q(S) = den*Q(S-v) - n_v * den^(|N[v] & S|-1) * Q(S - N[v]).
    `values` holds Q of every mask reached, children first (the empty mask
    first, Q = 1): a plan step per mask, evaluated as it is built. `q`
    walks each chain S, S-v, ... down to a known mask in a loop and
    recurses only on a new S - N[v], so its depth does not grow with the
    number of vertices. Raises CapExceeded once a chain leaves the plan
    with more than `room` steps.
    """

    __slots__ = ("nbr", "nums", "den", "room", "values")

    def __init__(self, nbr: Sequence[int], nums: Sequence[int], den: int, room: int):
        self.nbr, self.nums, self.den, self.room = nbr, nums, den, room
        self.values = {0: 1}

    def q(self, mask: int) -> int:
        values, nbr, nums, den = self.values, self.nbr, self.nums, self.den
        chain = []
        out = values.get(mask)
        while out is None:
            chain.append(mask)
            mask &= mask - 1
            out = values.get(mask)
        for mask in reversed(chain):
            v_bit = mask & -mask
            v = v_bit.bit_length() - 1
            near = mask & nbr[v]
            without_nv = values.get(mask ^ near)
            if without_nv is None:
                without_nv = self.q(mask ^ near)
            out = values[mask] = den * out - nums[v] * den ** (near.bit_count() - 1) * without_nv
        if len(values) > self.room + 1:
            raise CapExceeded(f"oracle plans capped at {MAX_PLAN_STEPS} steps")
        return out

    def inside(self, support: int) -> bool:
        """Strict membership of the vector restricted to `support`: Q > 0 on
        each of its nested suffixes (Scott-Sokal, J. Stat. Phys. 118, 2005:
        positivity along one maximal chain of induced subgraphs is
        equivalent to q_I > 0 for every independent I)."""
        self.q(support)
        while support:
            if self.values[support] <= 0:
                return False
            support &= support - 1
        return True

    def replay(self, support: int, labels: Sequence[int]) -> _Replay:
        """The steps that recompute `values` at another vector, for `_probe`,
        each naming its vertex v by labels[v]: the index of v's numerator in
        the vectors probed."""
        nbr, index = self.nbr, dict(zip(self.values, count()))
        steps = []
        for mask in islice(index, 1, None):
            v_bit = mask & -mask
            v = v_bit.bit_length() - 1
            near = mask & nbr[v]
            nested = support & -v_bit == mask
            steps.append((labels[v], near.bit_count() - 1, index[mask ^ v_bit], index[mask ^ near], nested))
        return max((step[1] for step in steps), default=0), tuple(steps)

    def slopes(self) -> list[int]:
        """-dQ(S)/dn_v for every vertex v, S the last mask built: one
        backward pass over the plan's masks, last to first (reverse-mode
        differentiation), in which weight[T] gathers dQ(S)/dQ(T) from the
        masks built on T."""
        values, nbr, nums, den = self.values, self.nbr, self.nums, self.den
        weight = dict.fromkeys(values, 0)
        weight[next(reversed(values))] = 1
        slope = [0] * len(nums)
        for mask in islice(reversed(values), len(values) - 1):  # not the empty mask
            v_bit = mask & -mask
            v = v_bit.bit_length() - 1
            near = mask & nbr[v]
            w = weight[mask]
            weight[mask ^ v_bit] += den * w
            w *= den ** (near.bit_count() - 1)
            weight[mask ^ near] -= nums[v] * w
            slope[v] += w * values[mask ^ near]
        return slope


def _support(nums: Sequence[int]) -> int:
    return sum(1 << k for k, n in enumerate(nums) if n)


def _probe(replay: _Replay, nums: Sequence[int], den: int) -> bool:
    """`_Plan.inside` of nums/den, whose support the steps were built for."""
    top, steps = replay
    power = [1]
    for _ in range(top):
        power.append(power[-1] * den)
    q = [1]
    for v, e, without_v, without_nv, nested in steps:
        out = den * q[without_v] - nums[v] * power[e] * q[without_nv]
        if nested and out <= 0:
            return False
        q.append(out)
    return True


#: graphs with fewer vertices than this are planned in the caller's labels:
#: on them, building the breadth-first order costs more than it saves
_ORDER_MIN_VERTICES = 12


def _plan_order(g: DependencyGraph) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """The vertex order g's plans are built in, as (order, rank, masks) of
    `DependencyGraph.breadth_first_order`: the plan's vertex k is the
    caller's order[k], the caller's u-1 is the plan's rank[u-1], and masks
    are the closed masks in the plan's labels. The caller's own labels below
    _ORDER_MIN_VERTICES and above the size cap, which only q_polynomial
    passes."""
    if _ORDER_MIN_VERTICES <= g.m <= DEFAULT_ENUMERATION_CAP:
        return g.breadth_first_order
    labels = range(g.m)
    return labels, labels, g.closed_masks


def _searcher(g: DependencyGraph) -> Callable[[Sequence[int], int], bool]:
    """Membership for the probes of one search: each support's plan is
    built at its first probe, evaluating that probe, and its steps are kept
    until the search returns; later probes of the support replay them. The
    steps name the caller's vertices, so a probe reads its numerators as
    given."""
    order, _, nbr = _plan_order(g)
    replays: dict[tuple[bool, ...], _Replay] = {}
    held = 0
    full = (True,) * g.m  # most probes have no zero entry

    def member(nums: Sequence[int], den: int) -> bool:
        nonlocal held
        support = tuple(map(bool, nums)) if 0 in nums else full
        replay = replays.get(support)
        if replay is not None:
            return _probe(replay, nums, den)
        ranked = [nums[i] for i in order]
        mask = _support(ranked)
        plan = _Plan(nbr, ranked, den, MAX_PLAN_STEPS - held)
        inside = plan.inside(mask)
        replays[support] = plan.replay(mask, order)
        held += len(plan.values) - 1
        return inside

    return member


def _bisect(
    x0: Sequence[int],
    x1: Sequence[int],
    den: int,
    member: Callable[[Sequence[int], int], bool],
    done: Callable[[int], bool],
) -> tuple[int, int]:
    """Bisection on the segment from x0, in the region, to x1, outside it,
    both numerators over den. After t halvings the bracket runs from
    x0 + a*(x1-x0)/2^t, in the region, to x0 + (a+1)*(x1-x0)/2^t, outside
    it; halves until done(t) and returns (a, t)."""
    step = [y - x for x, y in zip(x0, x1)]
    a = t = 0
    while not done(t):
        t += 1
        a <<= 1
        if member([(x << t) + (a + 1) * d for x, d in zip(x0, step)], den << t):
            a += 1
    return a, t


def _integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators over the least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _check_length(g: DependencyGraph, values: Sequence) -> None:
    if len(values) != g.m:
        raise InputError("vector length mismatch")


def _checked_integers(g: DependencyGraph, values: Sequence) -> tuple[list[int], int]:
    """The input checks of membership and of the searches (length, entries
    in [0,1], size cap) on the numerators over the common denominator."""
    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    _check_length(g, vals)
    nums, den = _integers(vals)
    for n in nums:
        if not 0 <= n <= den:
            raise InputError(f"entry {Fraction(n, den)} outside [0,1]")
    _check_size(g)
    return nums, den


def _outside(nbr: Sequence[int], rank: Sequence[int], m: int, iset: Sequence[int]) -> int:
    """The mask of the vertices outside N[I], in the labels of `_plan_order`."""
    mask = (1 << m) - 1
    for u in iset:
        mask &= ~nbr[rank[u - 1]]
    return mask


def q_polynomial(
    g: DependencyGraph, p: ProbabilityVector, independent: Sequence[int]
) -> Fraction:
    """q_I: alternating sum over independent supersets J of I of prod p.

    Factorizes as (prod_{i in I} p_i) * q_0 on the graph minus N[I].
    """
    _check_length(g, p.values)
    iset = tuple(sorted(set(independent)))
    for u in iset:
        if not 1 <= u <= g.m:
            raise InputError(f"vertex {u} out of range")
    for a in iset:
        for b in iset:
            if a < b and g.has_edge(a, b):
                raise InputError(f"set not independent: edge ({a},{b})")
    nums, den = _integers(p.values)
    order, rank, nbr = _plan_order(g)
    mask = _outside(nbr, rank, g.m, iset)
    q = prod(nums[u - 1] for u in iset) * _Plan(nbr, [nums[i] for i in order], den, MAX_PLAN_STEPS).q(mask)
    return Fraction(q, den ** (len(iset) + mask.bit_count()))


def q_empty(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    return q_polynomial(g, p, ())


def shearer_membership(g: DependencyGraph, values: Sequence[Fraction]) -> bool:
    """Strict membership test, extended to vectors with zero entries by
    restricting to the support (an event of probability zero never fires).
    """
    nums, den = _checked_integers(g, values)
    order, _, nbr = _plan_order(g)
    ranked = [nums[i] for i in order]
    return _Plan(nbr, ranked, den, MAX_PLAN_STEPS).inside(_support(ranked))


def in_shearer_bound(g: DependencyGraph, p: ProbabilityVector) -> ShearerReport:
    """Strict membership with q_0 and the singleton q-values; on rejection
    the witness is the first failing independent set (size order, then
    lexicographic). Every q_I has the sign of Q on the graph minus N[I].

    One plan serves all three. q_0 is multilinear, so q_{v} = -p_v * dq_0/dp_v,
    which is n_v * slope_v / den^m for Q of the whole graph; the witness walk
    extends the plan with each S - N[I] it asks for.
    """
    nums, den = _checked_integers(g, p.values)
    order, rank, nbr = _plan_order(g)
    plan = _Plan(nbr, [nums[i] for i in order], den, MAX_PLAN_STEPS)
    full, scale = (1 << g.m) - 1, den**g.m
    q_values = {(): Fraction(plan.q(full), scale)}
    slopes = plan.slopes()
    for v, k in enumerate(rank):
        q_values[(v + 1,)] = Fraction(nums[v] * slopes[k], scale)
    if plan.inside(full):
        return ShearerReport(True, q_values, None)
    witness = next(iset for iset in independent_sets(g) if plan.q(_outside(nbr, rank, g.m, iset)) <= 0)
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
    nums, den = _checked_integers(g, direction.values)
    top = max(nums)
    t_max = Fraction(den, top)
    # t_max * direction is nums over top. When t_max <= resolution no probe
    # is made: the bracket is [0, t_max].
    width, res = t_max.numerator * resolution.denominator, resolution.numerator * t_max.denominator
    member = _searcher(g)
    a, k = _bisect([0] * len(nums), nums, top, member, lambda t: width <= res << t)
    lo = t_max * Fraction(a, 1 << k)
    hi = t_max * Fraction(a + 1, 1 << k)
    return BoundaryScale(lo, hi, clamped=a + 1 == 1 << k)


def minimal_gap(g: DependencyGraph, p: ProbabilityVector) -> Fraction | None:
    """d(p, G) exactly when p is minimally outside G, else None.

    p is minimally outside when q_0(G; p) <= 0 and p restricted to every
    G - v is inside. Then d(p, G) = D* = -q_0(G; p) / min_v q_0(G - N[v]; p)
    (see `l1_gap`). One plan gives all three: Q of the whole graph, the
    slopes of that last mask built, den^(m-1) * q_0(G - N[v]), and then the
    m memberships of G - v, which extend it.
    """
    nums, den = _checked_integers(g, p.values)
    order, _, nbr = _plan_order(g)
    plan = _Plan(nbr, [nums[i] for i in order], den, MAX_PLAN_STEPS)
    full = (1 << g.m) - 1
    q = plan.q(full)
    if q > 0:
        return None
    slope = min(plan.slopes())  # > 0 once every G - v is inside
    if not all(plan.inside(full ^ (1 << v)) for v in range(g.m)):
        return None
    return Fraction(-q, den * slope)


def l1_gap(g: DependencyGraph, p: ProbabilityVector, resolution: Fraction) -> GapEstimate:
    """Certified bounds on d(p, G) = sup ||q||_1 over 0 <= q <= p with p-q
    outside the region. Returns the -1 marker when p is in the bound.

    When p is minimally outside (q_0(G; p) <= 0, and p restricted to every
    G - v inside), d is exact: lower == upper == D* of `minimal_gap`. q_0 is
    multilinear with dq_0/dp_v = -q_0(G - N[v]), so for 0 <= x <= p
    q_0(G; p-x) = sum over independent J of x^J * q_0(G - N[J]; p)
    (Scott-Sokal, J. Stat. Phys. 118, 2005). Each G - N[J] with J nonempty
    lies in some G - v, so its term is >= 0 and q_0(G; p-x) >= q_0(G; p) +
    ||x||_1 * min_v q_0(G - N[v]; p): past D* every p-x is inside, since
    its proper induced subgraphs stay inside too. Along the minimising v,
    q_0 is linear, so p - D* e_v has q_0 = 0 and is outside: D* is attained.

    Any other p takes `_box_gap`, the branch-and-bound search, whose
    bracket is at most one resolution wide.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InputError("resolution must be positive")
    exact = minimal_gap(g, p)
    if exact is not None:
        return GapEstimate(exact, exact, resolution)
    return _box_gap(g, p, resolution)


#: _box_gap's heap keys are box norms over den*2^shift; shift grows by this
#: many bits whenever a box gets finer than 2^-shift
_KEY_BITS = 64


def _box_gap(g: DependencyGraph, p: ProbabilityVector, resolution: Fraction) -> GapEstimate:
    """`l1_gap` by branch-and-bound, for every p: certified bounds at most
    one resolution apart, or the -1 marker when p is in the bound.

    Equivalent form used here: minimize ||r||_1 over out-of-bound r <= p
    (the out-region is up-closed since the region is down-closed), then
    d = ||p||_1 - min. Branch-and-bound over boxes [a, a+w] in [0, p]:
    a box with in-bound upper corner contains no out point; a box with
    out-of-bound lower corner achieves exactly ||a||_1.

    A split halves the widest side (the first on ties), so every box at
    split depth d has the same widths w, split axis and level k (its
    numerators are over den*2^k); a box is its lower corner and its depth.
    `geometry` holds (k, w, axis) per depth, filled at the first split of a
    box of the depth above: at most one entry per split, so at most
    MAX_GAP_BOXES + 1. Heap keys and the incumbent are norms over
    den*2^shift, one scale for all levels <= shift. The resolution is a
    positive Fraction, as `l1_gap` checks.
    """
    nums, den = _checked_integers(g, p.values)
    member = _searcher(g)
    if member(nums, den):
        return GapEstimate(Fraction(-1), Fraction(-1), resolution)

    shift = _KEY_BITS
    # every box on the heap straddles the boundary: lower corner in bound,
    # upper corner out of bound; its min-norm lower bound is ||a||_1
    upper = sum(nums) << shift  # ||p||_1 itself is achievable (p is out of bound)
    geometry = [(0, tuple(nums), nums.index(max(nums)))]
    # (||a||_1, order, depth, a), the zero vector in bound at order 0; split
    # s pushes its halves at orders 2s and 2s+1, so ties pop in push order
    heap: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, (0,) * len(nums))]
    boxes_seen = 0
    while heap:
        lb, _, depth, a = heapq.heappop(heap)
        if (upper - lb) * resolution.denominator <= resolution.numerator * den << shift:
            break  # lb is the least norm still open
        boxes_seen += 1
        if boxes_seen > MAX_GAP_BOXES:
            raise CapExceeded(f"l1_gap exceeded {MAX_GAP_BOXES} boxes")
        k, w, axis = geometry[depth]
        depth += 1
        if depth == len(geometry):  # the first split at this depth
            level = k + (w[axis] & 1)  # an odd split point needs one more bit
            half = [x << (level - k) for x in w]
            half[axis] >>= 1
            if level > shift:  # rescale every key; their order stays
                shift += _KEY_BITS
                upper <<= _KEY_BITS
                lb <<= _KEY_BITS
                heap[:] = [(key << _KEY_BITS, *rest) for key, *rest in heap]
            geometry.append((level, tuple(half), half.index(max(half))))
        level, w, _ = geometry[depth]
        if level > k:
            a = tuple(x << 1 for x in a)
        if not member([x + y for x, y in zip(a, w)], den << level):
            # the lower half still straddles; its key is lb
            heapq.heappush(heap, (lb, 2 * boxes_seen, depth, a))
        lb += w[axis] << (shift - level)
        if lb < upper:
            a = a[:axis] + (a[axis] + w[axis],) + a[axis + 1 :]
            if member(a, den << level):
                heapq.heappush(heap, (lb, 2 * boxes_seen + 1, depth, a))
            else:
                upper = lb  # a itself is an out point
    else:
        lb = upper  # every box was settled
    norm = Fraction(sum(nums), den)
    return GapEstimate(
        norm - Fraction(upper, den << shift),
        norm - Fraction(min(lb, upper), den << shift),
        resolution,
    )


def descent_gap_lower(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    """Cheap certified lower bound on d(p, G) for an out-of-bound p.

    Coordinate descent from r = p: per coordinate, bisect the smallest value
    keeping r out of the region; every intermediate r stays a witness, so
    ||p||_1 - ||r||_1 is always a valid lower bound. Returns -1 when p is in
    the region. r is kept as integer numerators over den*2^level.
    """
    nums, den = _checked_integers(g, p.values)
    member = _searcher(g)
    if member(nums, den):
        return Fraction(-1)
    tol_num, tol_den = DESCENT_TOLERANCE.numerator, DESCENT_TOLERANCE.denominator
    r, level = list(nums), 0
    for _ in range(DESCENT_PASSES):
        improved = False
        for k in range(len(r)):
            rk = r[k]
            if rk == 0:
                continue
            probe = list(r)
            probe[k] = 0
            if not member(probe, den << level):
                r[k] = 0
                improved = True
                continue
            # from probe (r with r_k = 0) to r, until r_k/2^t <= the tolerance
            a, t = _bisect(
                probe,
                r,
                den << level,
                member,
                lambda t: rk * tol_den <= tol_num * den << (level + t),
            )
            if a + 1 < 1 << t:  # hi < r_k
                r = [x << t for x in r]
                r[k] = rk * (a + 1)
                level += t
                # drop the factors of two all entries share; r is never
                # zero, since it stays out of the region
                low = 0
                for x in r:
                    low |= x
                drop = min(level, (low & -low).bit_length() - 1)
                r = [x >> drop for x in r]
                level -= drop
                improved = True
        if not improved:
            break
    return Fraction((sum(nums) << level) - sum(r), den << level)


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
