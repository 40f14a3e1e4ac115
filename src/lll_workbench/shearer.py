"""Exact Shearer-region computations.

Everything here is exact: the alternating sums over independent sets cancel
catastrophically in floating point. The oracle runs on integer numerators
over one common denominator D: for a vertex set S, Q(S) = D^|S| * q_0(G[S])
is an integer with the sign of q_0. The boundary search keeps its probes as
integer numerators over D*2^k, so Fractions appear only at the API
boundary: the inputs, and the q-values, brackets and gaps returned. Pure
functions over immutable inputs.

Every oracle call evaluates Q through one `_Plan` per vector, opened from
the graph with `_Plan.open`: the masks the recursion on the lowest vertex
reaches, in bottom-up order, each with its value. `q_empty` and one-off
membership build one plan; `in_shearer_bound` reads q_0, the singleton
q-values (one backward pass over the plan) and the witness walk off the same
plan, and `gap` reads the in-bound test, D* (that backward pass and the
memberships of every G - v) and the q_0 of every vertex set its walk visits
off one plan per component. `boundary_scale` probes one graph many times
with new numerators on one support, so it builds its plan at the first
probe and replays the plan's steps at every later one. Nothing is cached
across calls.

MAX_PLAN_STEPS is the oracle's only cap, and it bounds memory, not time: a
mask is charged for the size of its value (`_step_charge`), so a call's
plans, with the q-values `in_shearer_bound` reports, hold about 100 MB at
most at any vertex count and denominator, and a call whose full-support plan
cannot fit is refused before any mask exists. The witness walk holds one
partial independent set per depth beside the plan, whose masks it extends
under the same cap. Reducing the m reported q-values of about m * bits(D)
bits each takes time of order m^3 * bits(D)^2, which no cap bounds.

A plan's size depends on the vertex order it splits in, and any order gives
the same verdict and values (any maximal chain of induced subgraphs decides
membership), so graphs of _ORDER_MIN_VERTICES or more vertices are planned
in their breadth-first (Cuthill-McKee) order: on a 5x5 grid with shuffled
labels that is 103 steps instead of 800 to 1,400. The order is picked in
`_Plan.open` alone, and inputs and results stay in the caller's labels: the
plan permutes the numerators once, its slopes and replay steps name the
caller's vertices, and the witness walk tries the caller's vertices in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import lcm
from typing import Sequence

from .graphs import CapExceeded, DependencyGraph, InputError, _members, connected_components


#: the oracle's only cap, in steps of 1,600 bits (200 bytes): over all the
#: masks a call's plan evaluates, the witness walk's included, and the
#: q-values it reports. Each mask or value is charged its size in steps
#: (`_step_charge`), so a call holds about 100 MB at most, whatever the
#: vertex count and denominator
MAX_PLAN_STEPS = 500_000


def _capped() -> CapExceeded:
    return CapExceeded(f"oracle plans capped at {MAX_PLAN_STEPS} steps")


def _step_charge(m: int, bits: int) -> int:
    """The steps charged for one entry over m vertices: an m-bit mask and up
    to m numbers of bits+1 bits each. A plan's value Q(S) = den^|S| *
    q_0(G[S]) has |Q(S)| <= (2*den)^|S|, so a plan passes bits(den). Any
    graph of up to 30 vertices below a 2^51 denominator pays 1."""
    return -(-m * (bits + 2) // 1600)


def _room(m: int, bits: int, kept: int = 0) -> int:
    """The entries of `_step_charge(m, bits)` steps MAX_PLAN_STEPS holds
    beside `kept` values of that size. Raises CapExceeded when it holds
    fewer than m, the nested suffixes of a full support, so that an input
    too large is refused before any mask exists."""
    room = MAX_PLAN_STEPS // _step_charge(m, bits) - kept
    if room < m:
        raise _capped()
    return room


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
class BoundaryScale:
    lo: Fraction
    hi: Fraction
    clamped: bool


#: graphs with fewer vertices than this are planned in the caller's labels:
#: on them, building the breadth-first order costs more than it saves
_ORDER_MIN_VERTICES = 12


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
    with more than `room` masks (`_room`).

    Masks, `nbr` and `nums` are in the plan's labels: its vertex k is the
    caller's order[k] (0-based), and the caller's u-1 is its rank[u-1]. The
    oracle opens its plans with `open`; built directly, a plan takes raw
    closed masks and numerators in its own labels, the caller's.
    """

    __slots__ = ("nbr", "nums", "den", "room", "order", "rank", "full", "values")

    def __init__(self, nbr: Sequence[int], nums: Sequence[int], den: int, room: int, order=(), rank=()):
        self.nbr, self.nums, self.den, self.room = nbr, nums, den, room
        self.order, self.rank = order or range(len(nums)), rank or range(len(nums))
        self.full, self.values = (1 << len(nums)) - 1, {0: 1}

    @classmethod
    def open(cls, g: DependencyGraph, nums: Sequence[int], den: int, kept: int = 0, bits: int = 0) -> "_Plan":
        """The plan of g at the caller's numerators nums over den, each
        mask charged at a `bits`-bit denominator (den's own by default)
        beside `kept` values of that size. Refuses before any mask exists
        (`_room`). Graphs of _ORDER_MIN_VERTICES or more vertices are
        planned in `DependencyGraph.breadth_first_order`, smaller ones in
        the caller's labels."""
        room = _room(g.m, bits or den.bit_length(), kept)
        if g.m < _ORDER_MIN_VERTICES:
            return cls(g.closed_masks, nums, den, room)
        order, rank, nbr = g.breadth_first_order
        return cls(nbr, [nums[i] for i in order], den, room, order, rank)

    @property
    def support(self) -> int:
        """The mask of the vertices with a nonzero numerator."""
        return sum(1 << k for k, n in enumerate(self.nums) if n)

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
            raise _capped()
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

    def replay(self) -> _Replay:
        """The steps that recompute `values` at another vector of the same
        support, for `_probe`, each naming its vertex in the caller's
        labels: the index of its numerator in the vectors probed."""
        nbr, order, support = self.nbr, self.order, self.support
        index = dict(zip(self.values, count()))
        steps = []
        for mask in islice(index, 1, None):
            v_bit = mask & -mask
            v = v_bit.bit_length() - 1
            near = mask & nbr[v]
            nested = support & -v_bit == mask
            steps.append((order[v], near.bit_count() - 1, index[mask ^ v_bit], index[mask ^ near], nested))
        return max((step[1] for step in steps), default=0), tuple(steps)

    def slopes(self) -> list[int]:
        """-dQ(S)/dn_v for every vertex v, in the caller's labels, S the
        last mask built: one
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
        return [slope[k] for k in self.rank]


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


def _integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators over the least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _checked_integers(g: DependencyGraph, values: Sequence) -> tuple[list[int], int]:
    """The input checks of every oracle call (length, entries in [0,1]) on
    the numerators over the common denominator."""
    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if len(vals) != g.m:
        raise InputError("vector length mismatch")
    nums, den = _integers(vals)
    for n in nums:
        if not 0 <= n <= den:
            raise InputError(f"entry {Fraction(n, den)} outside [0,1]")
    return nums, den


def q_empty(g: DependencyGraph, p: ProbabilityVector) -> Fraction:
    """q_0 = sum over the independent sets J of (-1)^|J| prod_{j in J} p_j."""
    nums, den = _checked_integers(g, p.values)
    plan = _Plan.open(g, nums, den)
    return Fraction(plan.q(plan.full), den**g.m)


def shearer_membership(g: DependencyGraph, values: Sequence[Fraction]) -> bool:
    """Strict membership test, extended to vectors with zero entries by
    restricting to the support (an event of probability zero never fires).
    """
    nums, den = _checked_integers(g, values)
    plan = _Plan.open(g, nums, den)
    return plan.inside(plan.support)


def in_shearer_bound(g: DependencyGraph, p: ProbabilityVector) -> ShearerReport:
    """Strict membership with q_0 and the singleton q-values; on rejection
    the witness is the first failing independent set (size order, then
    lexicographic). Every q_I has the sign of Q on the graph minus N[I].

    One plan serves all three. q_0 is multilinear, so q_{v} = -p_v * dq_0/dp_v,
    which is n_v * slope_v / den^m for Q of the whole graph; the witness walk
    extends the plan with each S - N[I] it asks for. The m+1 q-values are
    charged against the plan's budget as entries of the plan.
    """
    nums, den = _checked_integers(g, p.values)
    plan = _Plan.open(g, nums, den, g.m + 1)
    scale = den**g.m
    q_values = {(): Fraction(plan.q(plan.full), scale)}
    for v, slope in enumerate(plan.slopes()):
        q_values[(v + 1,)] = Fraction(nums[v] * slope, scale)
    if plan.inside(plan.full):
        return ShearerReport(True, q_values, None)
    return ShearerReport(False, q_values, _witness(plan))


def _witness(plan: _Plan) -> tuple[int, ...]:
    """The first independent set I, by size and then lexicographically in
    the caller's labels, with Q <= 0 on the graph minus N[I]: one exists
    once the plan's full mask is outside (Scott-Sokal). The walk is depth
    first, one size at a time, over the caller's vertices u (0-based here),
    and holds one partial set per depth, each with its mask outside N[I] in
    the plan's labels: a vertex after I's last may join I iff its bit
    rank[u] is in that mask. Only the plan's masks are charged."""
    m, nbr, rank = len(plan.nums), plan.nbr, plan.rank
    for size in range(m + 1):
        iset, outside, u = [], [plan.full], 0
        while True:
            if len(iset) == size:
                if plan.q(outside[-1]) <= 0:
                    return tuple(v + 1 for v in iset)
            elif u < m:
                if outside[-1] >> rank[u] & 1:
                    iset.append(u)
                    outside.append(outside[-1] & ~nbr[rank[u]])
                u += 1
                continue
            if not iset:
                break
            u = iset.pop() + 1
            outside.pop()
    raise AssertionError("a vector outside the region has a failing independent set")


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

    Every probe has the direction's support, all of g, so one plan serves
    them all: it is opened before the first probe, charged at the last
    probe's denominator, built at the first probe, and replayed (`_probe`)
    at every later one.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InputError("resolution must be positive")
    nums, den = _checked_integers(g, direction.values)
    top = max(nums)
    t_max = Fraction(den, top)
    # t_max * direction is nums over top. After `last` halvings, the least
    # number with t_max / 2^last <= resolution, the bracket is narrow enough;
    # when t_max <= resolution no probe is made: the bracket is [0, t_max].
    width, res = t_max.numerator * resolution.denominator, resolution.numerator * t_max.denominator
    last = ((width - 1) // res).bit_length()
    # after t halvings the bracket runs from a/2^t * t_max, in the region,
    # to (a+1)/2^t * t_max, outside it. The first probe, a = 0 at t = 1, is
    # nums over top << 1: it builds the plan, whose steps replay the others
    plan = _Plan.open(g, nums, top << 1, 0, (top << last).bit_length())
    a = t = 0
    if last:
        t, a = 1, int(plan.inside(plan.full))
        replay = plan.replay()
    del plan  # its steps are all the later probes need, not its values
    while t < last:
        t += 1
        a <<= 1
        if _probe(replay, [(a + 1) * n for n in nums], top << t):
            a += 1
    return BoundaryScale(t_max * Fraction(a, 1 << t), t_max * Fraction(a + 1, 1 << t), clamped=a + 1 == 1 << t)


def gap(g: DependencyGraph, p: ProbabilityVector, stop: Fraction | None = None) -> Fraction | None:
    """d(p, G) = sup ||x||_1 over 0 <= x <= p with p - x outside the region,
    exactly, or None when p is in the bound. With `stop`, it returns as
    soon as it has certified a value >= stop, which is then a lower bound on
    d; p itself certifies 0, so a stop <= 0 returns right after the in-bound
    test.

    q_0 factors over components, so p - x is outside iff it is outside on
    some component C, and d(p, G) is the max over the out-of-region C of
    ||p_{V-C}||_1 + d(p_C, C); a connected G is its own one component. One
    plan per component gives its in-bound test, then D* when p_C is
    minimally outside C (q_0(C; p) <= 0 and p restricted to every C - v
    inside): d(p_C, C) = D* = -q_0(C; p) / min_v q_0(C - N[v]; p), from Q
    of C, the slopes of that last mask built, den^(k-1) * q_0(C - N[v]),
    and the k memberships of C - v, which extend it (README, "Exact gaps").
    Any other out-of-region p_C takes the walk, `_walk`, on the same plan.
    The whole vector is checked, and refused when the full-support plan of
    G cannot fit, before any mask exists.
    """
    nums, den = _checked_integers(g, p.values)
    _room(g.m, den.bit_length())
    norm, best = sum(nums), None
    for vertices, part in connected_components(g):
        part_nums = [nums[v - 1] for v in vertices]
        plan = _Plan.open(part, part_nums, den)
        if plan.inside(plan.full):
            continue
        rest = Fraction(norm - sum(part_nums), den)
        if stop is not None and stop <= 0:
            return rest
        q, found = plan.values[plan.full], None
        if q <= 0:
            slope = min(plan.slopes())  # > 0 once every C - v is inside
            if all(plan.inside(plan.full ^ (1 << v)) for v in range(part.m)):
                found = Fraction(-q, den * slope)
        if found is None:
            found = _walk(plan, None if stop is None else stop - rest)
        best = rest + found if best is None else max(best, rest + found)
        if stop is not None and best >= stop:
            break  # a certified lower bound at or above stop
    return best


def _walk(plan: _Plan, stop: Fraction | None) -> Fraction:
    """d(p, G) of the plan's out-of-region vector p = nums/den, in the
    plan's labels, with `gap`'s early `stop`.

    d = ||p||_1 minus the least ||p_K||_1 - D_w(K) over the connected vertex
    sets K and the w in K with p restricted to K - w inside and
    q_0(K; p) <= 0, where D_w(K) = -q_0(K; p) / q_0(K - N[w]; p); each such
    (K, w) gives the outside point p_K - D_w(K) e_w (README, "Exact gaps").
    The sets are walked from their lowest vertex on an explicit stack, so
    the walk's depth is not the interpreter's. Each carries its admissible
    w, those with K - w inside: S is inside iff S - u is and Q(S) > 0, so
    the admissible w of K + u need only Q of K + u and of each K + u - w. A
    set with none has no admissible superset, and since D_w < p_w, one with
    ||p_K||_1 - max p >= the best norm so far has no better one. No outside
    point has norm below 1 (the union bound), so best = 1 ends the walk.
    Each set visited is a mask of the plan, so MAX_PLAN_STEPS caps the walk.
    """
    nbr, ranked, den = plan.nbr, plan.nums, plan.den
    norm, top = Fraction(sum(ranked), den), max(ranked)
    best = norm  # p itself is outside
    floor = 1 if stop is None else max(1, norm - stop)

    # a frame is [K, the numerator of ||p_K||_1, K's admissible w, K is
    # inside, ext, seen]: ext holds the neighbours that may still join K,
    # seen the vertices that may not (those below K's lowest, and those tried
    # already), so each set is visited once, depth first at any depth
    stack: list[list] = []

    def visit(mask: int, total: int, admissible: int, ext: int, seen: int) -> None:
        nonlocal best
        q = plan.q(mask)
        if q <= 0:
            # the largest D_w has the least den^|K & N[w]| * Q(K - N[w]) > 0
            scale = min(den ** (mask & nbr[w]).bit_count() * plan.q(mask & ~nbr[w]) for w in _members(admissible))
            best = min(best, Fraction(total, den) + Fraction(q, scale))
        stack.append([mask, total, admissible, q > 0 and admissible == mask, ext, seen])

    for v in range(len(ranked)):
        if best <= floor:
            break
        bit, seen = 1 << v, (2 << v) - 1
        visit(bit, ranked[v], bit, nbr[v] & ~seen, seen)
        while stack:
            frame = stack[-1]
            mask, total, admissible, inside, ext, seen = frame
            if not ext or best <= floor:
                stack.pop()
                continue
            u_bit = ext & -ext
            ext ^= u_bit
            frame[4], frame[5] = ext, seen | u_bit
            u = u_bit.bit_length() - 1
            child, grown = mask | u_bit, total + ranked[u]
            if (grown - top) * best.denominator < best.numerator * den:
                if inside and plan.q(child) > 0:
                    kept = child
                else:
                    kept = u_bit if inside else 0
                    kept |= sum(1 << w for w in _members(admissible) if plan.q(child ^ 1 << w) > 0)
                if kept:
                    visit(child, grown, kept, (ext | nbr[u]) & ~(child | seen), seen)
    return norm - best


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
