import heapq
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import event, given, settings, strategies as st

import lll_workbench
from lll_workbench import shearer
from lll_workbench.graphs import DependencyGraph, InputError
from lll_workbench.lattices import grid_unit
from lll_workbench.shearer import (
    BoundaryScale,
    CapExceeded,
    ProbabilityVector,
    boundary_scale,
    expected_resample_bound,
    gap,
    in_shearer_bound,
    q_empty,
    resample_bound,
    shearer_membership,
)
from test_graphs import neighbors


def cycle(n):
    return DependencyGraph.from_edges(n, [(k, k % n + 1) for k in range(1, n + 1)])


K1 = DependencyGraph(1, frozenset())
K3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
C4 = cycle(4)
P4 = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
E2 = DependencyGraph(2, frozenset())
P4_EXAMPLE = ProbabilityVector((Fraction(2, 5), Fraction(3, 10), Fraction(3, 5), Fraction(1, 10)))


def independent_sets(g):
    """The witness walk's reference, the level walk the oracle ran before
    its depth-first walk: all independent sets including (), by size and
    then lexicographically. Extending each set of a lex-ordered level by
    larger vertices, in increasing order, keeps the next level in lex
    order."""
    nbr = g.closed_masks
    level = [((), 0)]
    while level:
        yield from (vs for vs, _ in level)
        level = [
            (vs + (v,), mask | nbr[v - 1])
            for vs, mask in level
            for v in range(vs[-1] + 1 if vs else 1, g.m + 1)
            if not mask >> (v - 1) & 1
        ]


def q_set(g, p, iset):
    """q_I through the oracle: (prod_{i in I} p_i) * q_0 of the graph minus
    N[I], relabelled 1..k."""
    rest = [v for v in g.vertices if v not in iset and not any(g.has_edge(u, v) for u in iset)]
    coeff = prod(p[u] for u in iset)
    if not rest:
        return Fraction(coeff)
    label = {v: k + 1 for k, v in enumerate(rest)}
    sub = DependencyGraph.from_edges(len(rest), [(label[u], label[v]) for u, v in g.edges if u in label and v in label])
    return coeff * q_empty(sub, ProbabilityVector(tuple(p[v] for v in rest)))


def five_cycles(copies):
    """Disjoint 5-cycles on 1-5, 6-10, ..."""
    return DependencyGraph.from_edges(
        5 * copies, [(5 * c + k, 5 * c + k % 5 + 1) for c in range(copies) for k in range(1, 6)]
    )


def brute_q(g, p, iset):
    """Independent oracle: literal alternating sum over independent supersets."""
    iset = frozenset(iset)
    total = Fraction(0)
    for size in range(g.m + 1):
        for sub in combinations(g.vertices, size):
            s = frozenset(sub)
            if not iset <= s:
                continue
            if any(g.has_edge(a, b) for a, b in combinations(sorted(s), 2)):
                continue
            term = Fraction((-1) ** (len(s) - len(iset)))
            for v in s:
                term *= p[v]
            total += term
    return total


class TestIndependentSets:
    def test_triangle(self):
        assert list(independent_sets(K3)) == [(), (1,), (2,), (3,)]

    def test_c4(self):
        assert list(independent_sets(C4)) == [
            (), (1,), (2,), (3,), (4,), (1, 3), (2, 4),
        ]

    def test_edgeless(self):
        got = list(independent_sets(DependencyGraph(3, frozenset())))
        assert len(got) == 8
        sizes = [len(s) for s in got]
        assert sizes == sorted(sizes)



class TestQValues:
    def test_single_vertex(self):
        p = ProbabilityVector((Fraction(2, 7),))
        assert q_empty(K1, p) == Fraction(5, 7)
        assert in_shearer_bound(K1, p).q_values == {(): Fraction(5, 7), (1,): Fraction(2, 7)}

    def test_c4_quarter(self):
        assert q_empty(C4, ProbabilityVector.uniform(4, Fraction(1, 4))) == Fraction(1, 8)

    def test_k3_third_is_zero(self):
        assert q_empty(K3, ProbabilityVector.uniform(3, Fraction(1, 3))) == 0

    def test_matches_brute_force(self):
        rng = random.Random(17)
        graphs = [K3, C4, cycle(5), DependencyGraph.from_edges(4, [(1, 2), (2, 3)])]
        for g in graphs:
            p = ProbabilityVector(
                tuple(Fraction(rng.randint(1, 9), 20) for _ in range(g.m))
            )
            for iset in independent_sets(g):
                assert q_set(g, p, iset) == brute_q(g, p, iset)


class TestMembership:
    def test_k3_inside(self):
        p = ProbabilityVector.uniform(3, Fraction(1, 3) - Fraction(1, 100))
        assert in_shearer_bound(K3, p).in_bound

    def test_k3_boundary_witness_is_empty_set(self):
        report = in_shearer_bound(K3, ProbabilityVector.uniform(3, Fraction(1, 3)))
        assert not report.in_bound
        assert report.witness == ()

    def test_c4_quarter_inside(self):
        assert in_shearer_bound(C4, ProbabilityVector.uniform(4, Fraction(1, 4))).in_bound

    def test_down_closed(self):
        rng = random.Random(23)
        for g in (K3, C4, cycle(5)):
            for _ in range(40):
                p = tuple(Fraction(rng.randint(1, 12), 48) for _ in range(g.m))
                if not shearer_membership(g, p):
                    continue
                q = tuple(x * Fraction(rng.randint(1, 8), 8) for x in p)
                if any(x == 0 for x in q):
                    continue
                assert shearer_membership(g, q)

    def test_zero_entries_restrict_to_support(self):
        # (1, 0, 0) on the triangle sits outside: the support subsystem fails
        assert not shearer_membership(K3, (Fraction(1), Fraction(0), Fraction(0)))
        assert shearer_membership(K3, (Fraction(1, 2), Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("copies", [2, 4])
    def test_witness_of_two_vertices(self, copies):
        # q_0(C5) < 0 at 3/5, so an even number of disjoint copies has
        # q_0 = q_0(C5)^copies > 0 and every q_{v} > 0 too: the first failing
        # set is (1, 3), which leaves the first copy empty and the others at
        # q_0 < 0
        g, p = five_cycles(copies), ProbabilityVector.uniform(5 * copies, Fraction(3, 5))
        report = in_shearer_bound(g, p)
        assert report.q_values[()] == Fraction(1, 25) ** (copies // 2)
        assert not report.in_bound and report.witness == (1, 3)
        assert reference_report(g, p)[1] == (1, 3)


class TestBoundaryScale:
    def test_k3_boundary_third(self):
        res = boundary_scale(K3, ProbabilityVector.uniform(3, 1), Fraction(1, 1024))
        assert res.lo <= Fraction(1, 3) <= res.hi
        assert res.hi - res.lo <= Fraction(1, 1024)
        assert not res.clamped

    def test_k1_boundary_at_one_is_clamped(self):
        res = boundary_scale(K1, ProbabilityVector.uniform(1, 1), Fraction(1, 1024))
        assert res.hi == 1
        assert res.clamped

    def test_c4_boundary(self):
        res = boundary_scale(C4, ProbabilityVector.uniform(4, 1), Fraction(1, 1 << 20))
        # smallest positive root of 1 - 4t + 2t^2
        assert abs(float(res.hi) - (2 - 2**0.5) / 2) < 2e-6

    def test_monotone_consistency(self):
        res = boundary_scale(C4, ProbabilityVector.uniform(4, 1), Fraction(1, 4096))
        assert shearer_membership(C4, [res.lo] * 4)
        assert not shearer_membership(C4, [res.hi] * 4)

    def test_clamped_flag_on_edgeless_pair(self):
        # the region of the edgeless pair is the whole open box, so the
        # boundary along any direction sits exactly at the clamp scale
        g = DependencyGraph(2, frozenset())
        res = boundary_scale(
            g, ProbabilityVector((Fraction(1, 2), Fraction(1, 4))), Fraction(1, 64)
        )
        assert res.clamped
        assert res.hi == 2


class TestGap:
    def test_marker_for_inside_vectors(self):
        assert gap(K3, ProbabilityVector.uniform(3, Fraction(1, 4))) is None

    def test_k3_example_contains_one_sixth(self):
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))
        assert gap(K3, p) == Fraction(1, 6)

    def test_interval_well_formed_beyond(self):
        assert gap(C4, ProbabilityVector.uniform(4, Fraction(31, 100))) >= 0

    def test_descent_bound_is_consistent(self):
        # the descent reference's witness is a lower bound, here within 2^-40
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))
        quick = fraction_descent_gap_lower(K3, p)
        exact = gap(K3, p)
        assert exact - DESCENT_TOLERANCE <= quick <= exact


class TestExpectedResampleBound:
    def test_single_event_half(self):
        assert expected_resample_bound(K1, ProbabilityVector.uniform(1, Fraction(1, 2))) == 1

    def test_single_event_scaled(self):
        # p = 1/(1+eps) gives exactly 1/eps, the m/eps form with m = 1
        eps = Fraction(1, 4)
        p = ProbabilityVector.uniform(1, 1 / (1 + eps))
        assert expected_resample_bound(K1, p) == 1 / eps

    def test_c4_eighth_matches_enumeration(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 8))
        got = expected_resample_bound(C4, p)
        want = sum(brute_q(C4, p, (i,)) for i in C4.vertices) / brute_q(C4, p, ())
        assert got == want

    def test_out_of_bound_rejected(self):
        with pytest.raises(InputError):
            expected_resample_bound(K3, ProbabilityVector.uniform(3, Fraction(1, 2)))


class TestCycleSlope:
    def test_exact_slope_is_path_avoidance_probability(self):
        # d q_0 / d p_last at the symmetric quarter point: the multilinear
        # alternating sum differentiates to minus the q-value of the graph
        # with the last vertex's closed neighbourhood removed, which for the
        # cycle is a path system with avoidance probability (l-1)/2^(l-2)
        step = Fraction(1, 10**6)
        for length in range(4, 8):
            g = cycle(length)
            base = ProbabilityVector.uniform(length, Fraction(1, 4))
            bumped = list(base.values)
            bumped[-1] += step
            slope = (q_empty(g, ProbabilityVector(tuple(bumped))) - q_empty(g, base)) / step
            assert slope == -Fraction(length - 1, 2 ** (length - 2))

    def test_closed_form_matches_path_recurrence(self):
        # independent of shearer.py: q_0 of the path P_n at 1/4 obeys
        # Z_n = Z_{n-1} - Z_{n-2}/4 with Z_0 = 1, Z_1 = 3/4, and the cycle
        # slope in p_l is -q_0(P_{l-3})
        path = [Fraction(1), Fraction(3, 4)]
        while len(path) < 5:
            path.append(path[-1] - path[-2] / 4)
        for length in range(4, 8):
            assert -path[length - 3] == -Fraction(length - 1, 2 ** (length - 2))

    def test_perturbed_vector_stays_inside(self):
        for length in range(4, 8):
            vals = [Fraction(1, 4)] * length
            vals[-1] += Fraction(1, 4 * (length - 1))
            assert in_shearer_bound(cycle(length), ProbabilityVector(tuple(vals))).in_bound


@settings(max_examples=40, deadline=None)
@given(
    scale=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    shrink=st.fractions(min_value=Fraction(1, 10), max_value=1),
)
def test_down_closedness_property(scale, shrink):
    boundary = Fraction(1, 3)  # triangle boundary along the symmetric ray
    p = boundary * scale
    assert shearer_membership(K3, [p] * 3)
    assert shearer_membership(K3, [p * shrink] * 3)


# ---------------------------------------------------------------------------
# Reference oracles: membership as q_I > 0 for every independent set I inside
# the support, walked in `independent_sets` order, which the nested-suffix
# oracle must agree with. They share no code with shearer.py.


def _ref_q_empty(nbr, vals, mask, memo):
    """q_0 of the subgraph induced by `mask`, split on its highest vertex."""
    if mask == 0:
        return Fraction(1)
    if mask not in memo:
        v = mask.bit_length() - 1
        without_v = _ref_q_empty(nbr, vals, mask & ~(1 << v), memo)
        without_nv = _ref_q_empty(nbr, vals, mask & ~nbr[v], memo)
        memo[mask] = without_v - vals[v] * without_nv
    return memo[mask]


def _ref_q(nbr, vals, support, iset, memo):
    mask = support
    coeff = Fraction(1)
    for u in iset:
        mask &= ~nbr[u - 1]
        coeff *= vals[u - 1]
    return coeff * _ref_q_empty(nbr, vals, mask, memo)


def reference_membership(g, values):
    vals = [Fraction(v) for v in values]
    support = sum(1 << k for k, v in enumerate(vals) if v > 0)
    nbr, memo = g.closed_masks, {}
    for iset in independent_sets(g):
        if any(not support >> (u - 1) & 1 for u in iset):
            continue
        if _ref_q(nbr, vals, support, iset, memo) <= 0:
            return False
    return True


def reference_report(g, p):
    nbr, memo, full = g.closed_masks, {}, (1 << g.m) - 1
    q_values = {(): _ref_q(nbr, p.values, full, (), memo)}
    for v in g.vertices:
        q_values[(v,)] = _ref_q(nbr, p.values, full, (v,), memo)
    witness = next(
        (iset for iset in independent_sets(g) if _ref_q(nbr, p.values, full, iset, memo) <= 0),
        None,
    )
    return witness is None, witness, q_values


@st.composite
def small_graphs(draw, max_m=9):
    m = draw(st.integers(1, max_m))
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    if draw(st.booleans()):  # sparser graphs: about a quarter of the pairs
        bits &= draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
    return DependencyGraph.from_edges(m, edges)


@st.composite
def near_boundary(draw):
    """A graph, a positive direction and scales on both sides of its
    boundary bracket, moved by a small rational."""
    g = draw(small_graphs())
    d = tuple(Fraction(draw(st.integers(1, 8)), 8) for _ in range(g.m))
    res = boundary_scale(g, ProbabilityVector(d), Fraction(1, 64))
    eps = Fraction(1, 1 << draw(st.integers(4, 24)))
    scales = [res.lo, res.hi, res.lo - eps, res.lo + eps, res.hi - eps, res.hi + eps]
    return g, d, [t for t in scales if t > 0]


def _clip(t, d):
    return [min(Fraction(1), t * x) for x in d]


@settings(max_examples=150, deadline=None)
@given(case=near_boundary(), zeros=st.integers(0, (1 << 9) - 1))
def test_membership_matches_reference_walk(case, zeros):
    g, d, scales = case
    for t in scales:
        v = [Fraction(0) if zeros >> k & 1 else x for k, x in enumerate(_clip(t, d))]
        assert shearer_membership(g, v) == reference_membership(g, v)


@settings(max_examples=100, deadline=None)
@given(case=near_boundary())
def test_report_matches_reference_walk(case):
    g, d, scales = case
    for t in scales:
        p = ProbabilityVector(tuple(_clip(t, d)))
        report = in_shearer_bound(g, p)
        assert (report.in_bound, report.witness, report.q_values) == reference_report(g, p)
        assert report.in_bound == shearer_membership(g, p.values)


@settings(max_examples=150, deadline=None)
@given(
    part=st.one_of(st.integers(4, 8).map(cycle), small_graphs(max_m=5)),
    copies=st.integers(2, 4),
    base=st.integers(1, 39),
    data=st.data(),
)
def test_union_reports_match_the_level_walk(part, copies, base, data):
    """Reports on disjoint copies of a cycle or a small graph, each at
    entries near one base value in (0, 1), against the level walk. Copies
    with q_0 < 0 in an even number make the union's q_0 > 0, and on cycles
    far past the boundary every q_{v} > 0 too, so that the witness may need
    two vertices."""
    m = part.m * copies
    nudges = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    p = ProbabilityVector(tuple(Fraction(base, 40) + Fraction(k, 400) for k in nudges))
    edges = [(u + c * part.m, v + c * part.m) for c in range(copies) for u, v in part.edges]
    g = DependencyGraph.from_edges(m, edges)
    report = in_shearer_bound(g, p)
    event("in the bound" if report.in_bound else f"witness of {len(report.witness)} vertices")
    assert report == recursive_report(g, p)


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(max_m=10))
def test_independent_sets_match_sorted_reference(g):
    # reference: every vertex subset without an edge, sorted by (size, lex)
    ref = sorted(
        (s for k in range(g.m + 1) for s in combinations(g.vertices, k)
         if not any(g.has_edge(a, b) for a, b in combinations(s, 2))),
        key=lambda s: (len(s), s),
    )
    assert list(independent_sets(g)) == ref


class TestResampleBoundFromReport:
    def test_matches_expected_resample_bound(self):
        p = ProbabilityVector.uniform(5, Fraction(1, 5))
        report = in_shearer_bound(cycle(5), p)
        assert resample_bound(report) == expected_resample_bound(cycle(5), p)

    def test_out_of_bound_report_rejected(self):
        report = in_shearer_bound(K3, ProbabilityVector.uniform(3, Fraction(1, 2)))
        with pytest.raises(InputError):
            resample_bound(report)


# ---------------------------------------------------------------------------
# Sturm-count oracle for boundary_scale. Along a ray t*d the region ends at
# the first positive root of Z_G(-t d) = sum over independent I of
# (-t)^|I| prod_{i in I} d_i. Polynomials are coefficient lists, constant
# term first, over Fractions.


def _ray_polynomial(g, d):
    coeffs = [Fraction(0)] * (g.m + 1)
    for size in range(g.m + 1):
        for sub in combinations(g.vertices, size):
            if any(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                continue
            term = Fraction((-1) ** size)
            for v in sub:
                term *= d[v - 1]
            coeffs[size] += term
    return _trim(coeffs)


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _divmod(a, b):
    a, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        quot[shift] = f
        for k, c in enumerate(b):
            a[shift + k] -= f * c
        a = _trim(a[:-1])
    return quot, a


def _sturm_sequence(poly):
    deriv = [k * c for k, c in enumerate(poly)][1:]
    gcd_a, gcd_b = poly, deriv
    while gcd_b:
        gcd_a, gcd_b = gcd_b, _divmod(gcd_a, gcd_b)[1]
    square_free, _ = _divmod(poly, gcd_a)
    seq = [square_free, [k * c for k, c in enumerate(square_free)][1:]]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    return seq[:-1]


def _sign_changes(seq, x):
    signs = [v > 0 for v in (sum(c * x**k for k, c in enumerate(p)) for p in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def roots_in(seq, a, b):
    """Distinct real roots in the half-open interval (a, b]."""
    return _sign_changes(seq, a) - _sign_changes(seq, b)


def _assert_bracket_holds_first_root(g, d, res):
    seq = _sturm_sequence(_ray_polynomial(g, d))
    assert roots_in(seq, Fraction(0), res.lo) == 0
    assert roots_in(seq, res.lo, res.hi) >= 1
    if res.clamped:
        assert res.hi == min(1 / x for x in d)


class TestBoundaryScaleSturm:
    def test_sturm_counts_c4_roots(self):
        # 1 - 4t + 2t^2 has roots (2 -+ sqrt 2)/2, about 0.29 and 1.71
        seq = _sturm_sequence(_ray_polynomial(C4, (Fraction(1),) * 4))
        assert roots_in(seq, Fraction(0), Fraction(1, 4)) == 0
        assert roots_in(seq, Fraction(0), Fraction(1, 3)) == 1
        assert roots_in(seq, Fraction(0), Fraction(2)) == 2

    def test_sturm_counts_a_double_root(self):
        # the edgeless pair on the diagonal: (1 - t)^2, one distinct root at 1
        edgeless = DependencyGraph(2, frozenset())
        seq = _sturm_sequence(_ray_polynomial(edgeless, (Fraction(1),) * 2))
        assert roots_in(seq, Fraction(0), Fraction(1)) == 1
        assert roots_in(seq, Fraction(0), Fraction(99, 100)) == 0

    def test_clamped_bracket_can_hold_a_root_below_the_clamp_scale(self):
        # the edge with d = (1, 1/1000): the root 1000/1001 lies within one
        # resolution step of t_max = 1, so bisection never finds a failing
        # midpoint and reports the clamp bracket
        g = DependencyGraph.from_edges(2, [(1, 2)])
        d = (Fraction(1), Fraction(1, 1000))
        res = boundary_scale(g, ProbabilityVector(d), Fraction(1, 64))
        assert res.clamped and res.hi == 1
        assert res.lo < Fraction(1000, 1001) < res.hi
        _assert_bracket_holds_first_root(g, d, res)


@settings(max_examples=60, deadline=None)
@given(
    g=small_graphs(max_m=8),
    data=st.data(),
    resolution=st.sampled_from([Fraction(1, 16), Fraction(1, 64), Fraction(1, 256)]),
)
def test_boundary_bracket_holds_first_root(g, data, resolution):
    d = tuple(Fraction(data.draw(st.integers(1, 8)), 8) for _ in range(g.m))
    res = boundary_scale(g, ProbabilityVector(d), resolution)
    assert res.hi - res.lo <= resolution
    _assert_bracket_holds_first_root(g, d, res)


# ---------------------------------------------------------------------------
# Fraction references: the nested-suffix membership test and the boundary
# search as they ran on Fractions before the oracle moved onto integer
# numerators over a common denominator, which the integer code must equal;
# and the box search and coordinate descent that bracketed the gap before it
# was exact, which must hold the exact gap.


def fraction_membership(g, values):
    vals = [Fraction(v) for v in values]
    nbr, memo = g.closed_masks, {}
    mask = sum(1 << k for k, v in enumerate(vals) if v > 0)
    while mask:
        if _ref_q_empty(nbr, vals, mask, memo) <= 0:
            return False
        mask &= mask - 1
    return True


def fraction_q(g, p, iset):
    return _ref_q(g.closed_masks, p.values, (1 << g.m) - 1, iset, {})


def fraction_boundary_scale(g, direction, resolution):
    t_max = min(Fraction(1) / d for d in direction.values)
    lo, hi = Fraction(0), t_max
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if fraction_membership(g, [mid * d for d in direction.values]):
            lo = mid
        else:
            hi = mid
    return BoundaryScale(lo, hi, clamped=hi == t_max)


def fraction_l1_gap(g, p, resolution, max_boxes):
    """The box search's bracket (lower, upper) on d(p, G) of an out-of-region
    p, at most resolution wide."""
    total = sum(p.values, Fraction(0))
    upper_best, counter, heap = total, 0, []

    def offer(a, b, a_known_in):
        nonlocal upper_best, counter
        lb = sum(a, Fraction(0))
        if lb >= upper_best:
            return
        if not a_known_in and not fraction_membership(g, a):
            upper_best = min(upper_best, lb)
            return
        counter += 1
        heapq.heappush(heap, (lb, counter, a, b))

    offer(tuple(Fraction(0) for _ in p.values), p.values, True)
    boxes_seen = 0
    while heap:
        lb, _, a, b = heapq.heappop(heap)
        if upper_best - lb <= resolution:
            heapq.heappush(heap, (lb, counter, a, b))
            break
        if lb >= upper_best:
            continue
        boxes_seen += 1
        if boxes_seen > max_boxes:
            raise CapExceeded(f"box search exceeded {max_boxes} boxes")
        axis = max(range(len(a)), key=lambda k: (b[k] - a[k], -k))
        mid = (a[axis] + b[axis]) / 2
        b_low = tuple(mid if k == axis else b[k] for k in range(len(b)))
        a_high = tuple(mid if k == axis else a[k] for k in range(len(a)))
        if not fraction_membership(g, b_low):
            offer(a, b_low, True)
        offer(a_high, b, False)
    lower_min = min(min((item[0] for item in heap), default=upper_best), upper_best)
    return total - upper_best, total - lower_min


#: the descent reference bisects each coordinate to this width, in at most
#: DESCENT_PASSES passes over the coordinates
DESCENT_TOLERANCE = Fraction(1, 1 << 40)
DESCENT_PASSES = 8


def fraction_descent_gap_lower(g, p):
    if fraction_membership(g, p.values):
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
            if not fraction_membership(g, probe):
                r[k] = Fraction(0)
                improved = True
                continue
            while hi - lo > DESCENT_TOLERANCE:
                mid = (lo + hi) / 2
                probe[k] = mid
                if fraction_membership(g, probe):
                    lo = mid
                else:
                    hi = mid
            if hi < r[k]:
                r[k] = hi
                improved = True
        if not improved:
            break
    return sum(p.values, Fraction(0)) - sum(r, Fraction(0))


@st.composite
def mixed_vectors(draw, m, zeros=True):
    """Entries 0 and 1 and fractions over mixed denominators, dyadic and
    not, scaled down now and then so that some vectors lie inside."""
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 8)]))
    vals = []
    for _ in range(m):
        kind = draw(st.integers(0, 7))
        if kind == 0 and zeros:
            vals.append(Fraction(0))
        elif kind == 1:
            vals.append(Fraction(1))
        else:
            den = draw(st.sampled_from([2, 3, 7, 8, 10, 97, 1024]))
            vals.append(scale * Fraction(draw(st.integers(1, den)), den))
    return vals


@settings(max_examples=300, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_integer_oracle_matches_fraction_reference(g, data):
    v = data.draw(mixed_vectors(g.m))
    assert shearer_membership(g, v) == fraction_membership(g, v)
    p = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    report = in_shearer_bound(g, p)
    assert report.in_bound == fraction_membership(g, p.values)
    assert report.q_values == {iset: fraction_q(g, p, iset) for iset in report.q_values}
    for iset in independent_sets(g):
        assert q_set(g, p, iset) == fraction_q(g, p, iset)


@settings(max_examples=40, deadline=None)
@given(
    g=small_graphs(max_m=4),
    data=st.data(),
    resolution=st.sampled_from([Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]),
)
def test_integer_searches_match_fraction_references(g, data, resolution):
    d = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    assert boundary_scale(g, d, resolution) == fraction_boundary_scale(g, d, resolution)


@settings(max_examples=100, deadline=None)
@given(g=small_graphs(max_m=5), data=st.data())
def test_minimal_gap_matches_the_box_search(g, data):
    """D* of a vector just past the boundary against brute force over the
    G - v, the box search's bracket, the descent witness, and the removal
    along v* on both sides of D*."""
    d = ProbabilityVector(tuple(Fraction(data.draw(st.integers(1, 8)), 8) for _ in range(g.m)))
    p = ProbabilityVector(tuple(boundary_scale(g, d, Fraction(1, 2**20)).hi * x for x in d.values))
    minimal = fraction_q(g, p, ()) <= 0 and all(
        fraction_membership(g, [0 if k == v else x for k, x in enumerate(p.values)]) for v in range(g.m)
    )
    if not minimal:
        event("not minimally outside")
        return
    exact = gap(g, p)
    assert exact >= fraction_descent_gap_lower(g, p)
    # v* minimises q_0(G - N[v]) = q_{v} / p_v, and D* = -q_0(G) / q_0(G - N[v*])
    v = min(g.vertices, key=lambda v: fraction_q(g, p, (v,)) / p[v])
    assert exact == -fraction_q(g, p, ()) * p[v] / fraction_q(g, p, (v,))
    assert exact < p[v]
    at = list(p.values)
    at[v - 1] -= exact
    assert not fraction_membership(g, at)
    at[v - 1] -= (p[v] - exact) / 2**20
    assert fraction_membership(g, at)
    try:
        lower, upper = fraction_l1_gap(g, p, Fraction(1, 64), 1000)
    except CapExceeded:
        event("box search capped")
        return
    assert lower <= exact <= upper


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_m=6), data=st.data())
def test_exact_gap_matches_the_brute_force_theorem(g, data):
    """gap of vectors just past the boundary and far past it, and the walk
    alone, against the theorem by brute force over every vertex set, the box
    search's bracket when it closes under its cap, and the descent witness;
    and the early stop of both, which `beyond` takes at its threshold."""
    d = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    hi = boundary_scale(g, d, Fraction(1, 2**20)).hi
    far = hi * data.draw(st.sampled_from([Fraction(11, 10), Fraction(3, 2), Fraction(3)]))
    for p in (ProbabilityVector(tuple(min(1, t * x) for x in d.values)) for t in (hi, far)):
        exact = gap(g, p)
        assert exact == walk_alone(g, p) == brute_gap(g, p)
        assert exact >= fraction_descent_gap_lower(g, p)
        try:
            lower, upper = fraction_l1_gap(g, p, Fraction(1, 8), 100)
        except CapExceeded:
            event("box search capped")
        else:
            assert lower <= exact <= upper
        for stop in (exact, exact / 2, exact + Fraction(1, 97), data.draw(st.fractions(Fraction(1, 1000), 2))):
            for search in (walk_alone, gap):
                early = search(g, p, stop)
                assert (early >= stop) == (exact >= stop)
                assert early == exact if early < stop else early <= exact


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(small_graphs(max_m=4), min_size=2, max_size=3), data=st.data())
def test_component_gaps_match_the_walk_over_the_whole_graph(parts, data):
    """gap on a disjoint union of graphs, each part inside, just past its
    boundary or far past it, against the walk over the whole union."""
    edges, values = [], []
    for part in parts:
        base = len(values)
        edges += [(u + base, v + base) for u, v in part.edges]
        d = ProbabilityVector(tuple(data.draw(mixed_vectors(part.m, zeros=False))))
        scale = boundary_scale(part, d, Fraction(1, 2**20))
        t = data.draw(st.sampled_from([scale.lo, scale.hi, 2 * scale.hi]))
        values += [min(1, t * x) for x in d.values]
    g = DependencyGraph.from_edges(len(values), edges)
    p = ProbabilityVector(tuple(values))
    if shearer_membership(g, p.values):
        assert gap(g, p) is None
        return
    exact = walk_alone(g, p)
    assert gap(g, p) == exact
    for stop in (exact, exact / 2, exact + Fraction(1, 97)):
        early = gap(g, p, stop)
        assert (early >= stop) == (exact >= stop)
        assert early == exact if early < stop else early <= exact


def _outcome(search, *args):
    try:
        return search(*args)
    except CapExceeded as exc:
        return str(exc)


K3_EXAMPLE = ProbabilityVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))


def _on(p, vertices):
    """p restricted to the given 0-based vertices: zero elsewhere."""
    return [x if k in vertices else Fraction(0) for k, x in enumerate(p.values)]


def _q0(g, vals):
    """q_0 at vals of the subgraph induced by their support."""
    return _ref_q_empty(g.closed_masks, vals, (1 << g.m) - 1, {})


def _closed(g, w):
    return {w} | {u - 1 for u in neighbors(g, w + 1)}


def walk_alone(g, p, stop=None):
    """The connected-set walk of `gap` over the whole of g on a plan of its
    own, with no in-bound test, no D* and no split into components before
    it: a second route to d(p, G) of an out-of-region p."""
    return shearer._walk(shearer._Plan.open(g, *shearer._checked_integers(g, p.values)), stop)


def brute_gap(g, p):
    """d(p, G) by the theorem over every vertex set, connected or not:
    ||p||_1 minus the least ||p_K||_1 - D_w(K) over the S with p restricted
    to S inside and the w outside S, K = S + w, with q_0(K; p) <= 0, where
    D_w(K) = -q_0(K; p) / q_0(K - N[w]; p)."""
    least = None
    for size in range(g.m):
        for s in combinations(range(g.m), size):
            if not fraction_membership(g, _on(p, s)):
                continue
            for w in set(range(g.m)) - set(s):
                k = set(s) | {w}
                q = _q0(g, _on(p, k))
                if q <= 0:
                    norm = sum(_on(p, k)) + q / _q0(g, _on(p, k - _closed(g, w)))
                    least = norm if least is None else min(least, norm)
    return sum(p.values) - least


def item_20_formula(g, p):
    """The formula ROADMAP item 20 proposed: the largest ||p_{V - H}||_1 +
    D*(H) over the H on which p is minimally outside."""
    best = None
    for size in range(1, g.m + 1):
        for h in map(set, combinations(range(g.m), size)):
            q = _q0(g, _on(p, h))
            if q > 0 or not all(fraction_membership(g, _on(p, h - {v})) for v in h):
                continue
            d_star = -q / min(_q0(g, _on(p, h - _closed(g, v))) for v in h)
            value = sum(p.values) - sum(_on(p, h)) + d_star
            best = value if best is None else max(best, value)
    return best


class TestPinnedGaps:
    # the walk alone, without D* before it: K3_EXAMPLE ends the walk at the
    # union bound (a set of norm 1), C4 at 3/10 takes K = C4
    def test_k3_brackets(self):
        assert walk_alone(K3, K3_EXAMPLE) == Fraction(1, 6)

    def test_c4_bracket(self):
        assert walk_alone(C4, C4_EXAMPLE) == Fraction(1, 35)

    def test_path_is_not_item_20s_formula(self):
        # P4 - 4 is outside, so P4 is not minimally outside at P4_EXAMPLE.
        # K = P4 and w = 1 give the outside point (1/10, 3/10, 3/5, 1/10),
        # at which q_0(P4) = 0: d = 3/10. Item 20's formula takes the
        # minimally-outside H = {1, 2, 3}: p_4 + D*(H) = 1/10 + 3/20 = 1/4
        assert not fraction_membership(P4, _on(P4_EXAMPLE, {0, 1, 2}))
        assert gap(P4, P4_EXAMPLE) == Fraction(3, 10)
        assert item_20_formula(P4, P4_EXAMPLE) == Fraction(1, 4)
        # the walk meets K = {1, 2, 3} first, so a stop at 3/10 walks on
        assert gap(P4, P4_EXAMPLE, Fraction(1, 4)) == Fraction(1, 4)
        assert gap(P4, P4_EXAMPLE, Fraction(3, 10)) == Fraction(3, 10)
        assert fraction_descent_gap_lower(P4, P4_EXAMPLE) == Fraction(3, 10)

    def test_only_admissible_w_give_outside_points(self):
        # the path 1-2-4 and an isolated 3: p restricted to K - 1 = {2, 4} is
        # outside, so K = {1, 2, 4} with w = 1 would need the entry
        # y_1 = q_0({2, 4}) / q_0({4}) = -1; the least norm is 1, at K = {2, 4}
        g = DependencyGraph.from_edges(4, [(1, 2), (2, 4)])
        p = ProbabilityVector((Fraction(1, 5), Fraction(3, 5), Fraction(1, 10), Fraction(7, 10)))
        assert gap(g, p) == walk_alone(g, p) == brute_gap(g, p) == Fraction(3, 5)

    def test_unit_entries_close(self):
        # a unit entry alone is outside, at norm 1
        for p, want in (((Fraction(1, 2), Fraction(1)), Fraction(1, 2)), ((Fraction(1), Fraction(1)), Fraction(1))):
            assert gap(E2, ProbabilityVector(p)) == want

    def test_cycle_far_outside(self):
        # C8 at 3/10: every C8 - v is a path P7, itself outside
        p = ProbabilityVector.uniform(8, Fraction(3, 10))
        assert not fraction_membership(cycle(8), _on(p, set(range(7))))
        assert gap(cycle(8), p) == Fraction(5, 7)
        # with a stop, the walk returns a witness at or above it, or the gap
        assert Fraction(7, 10) <= gap(cycle(8), p, Fraction(7, 10)) <= Fraction(5, 7)
        assert gap(cycle(8), p, Fraction(3, 4)) == Fraction(5, 7)

    def test_disconnected_gap_takes_each_component(self):
        # a 5x5 grid just past its boundary plus an isolated vertex: the walk
        # over the whole graph runs to the plan cap, the grid alone is
        # minimally outside
        grid, _ = grid_unit((5, 5))
        hi = boundary_scale(grid, ProbabilityVector.uniform(25, 1), Fraction(1, 2**30)).hi
        g = DependencyGraph(26, grid.edges)
        tiny = Fraction(1, 10**12)
        p = ProbabilityVector((hi,) * 25 + (tiny,))
        start = time.perf_counter()
        got = gap(g, p)
        assert time.perf_counter() - start < 1
        want = tiny + gap(grid, ProbabilityVector.uniform(25, hi))
        assert got == want
        assert gap(g, p, want / 2) >= want / 2
        assert gap(g, p, 2 * want) == want

    def test_disconnected_gap_is_the_largest_over_failing_components(self):
        # C4 at 3/10 (d = 1/35) beside K3_EXAMPLE (d = 1/6) and an inside edge
        g = DependencyGraph.from_edges(9, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (5, 7), (8, 9)])
        p = ProbabilityVector(C4_EXAMPLE.values + K3_EXAMPLE.values + (Fraction(1, 5),) * 2)
        norm = sum(p.values)
        want = max(norm - sum(C4_EXAMPLE.values) + Fraction(1, 35), norm - sum(K3_EXAMPLE.values) + Fraction(1, 6))
        assert gap(g, p) == want == walk_alone(g, p)

    def test_minimally_outside_gaps_are_exact(self):
        # on K3 the region is p_1 + p_2 + p_3 < 1, so d = 7/6 - 1; on C4 at
        # 3/10, D* = -q_0(C4) / q_0(K1) = (1/50) / (7/10)
        assert gap(K3, K3_EXAMPLE) == Fraction(1, 6)
        assert gap(C4, ProbabilityVector.uniform(4, Fraction(3, 10))) == Fraction(1, 35)

    def test_coarse_resolution_needs_no_probe(self):
        d = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        got = boundary_scale(K3, d, Fraction(2))
        assert got == fraction_boundary_scale(K3, d, Fraction(2))
        assert got == BoundaryScale(Fraction(0), Fraction(2), clamped=True)


@pytest.mark.parametrize("resolution", [Fraction(1, 64), Fraction(2)])
def test_input_checks_hold_with_or_without_probes(resolution):
    # a coarse resolution makes no probe, but the direction is checked first
    with pytest.raises(InputError, match="^vector length mismatch"):
        boundary_scale(C4, ProbabilityVector.uniform(3, 1), resolution)
    for search in (
        lambda g, p, _: gap(g, p),
        lambda g, p, _: in_shearer_bound(g, p),
        lambda g, p, _: q_empty(g, p),
    ):
        with pytest.raises(InputError, match="^vector length mismatch"):
            search(C4, ProbabilityVector.uniform(3, Fraction(1, 4)), resolution)
    # the plan budget holds for boundary_scale, probes or not, and no
    # longer depends on the vertex count: C31 answers
    with pytest.raises(CapExceeded):
        boundary_scale(DependencyGraph(50_000, frozenset()), ProbabilityVector.uniform(50_000, 1), resolution)
    assert boundary_scale(cycle(31), ProbabilityVector.uniform(31, 1), resolution).hi > 0
    assert q_empty(cycle(31), ProbabilityVector.uniform(31, Fraction(1, 4))) > 0


# ---------------------------------------------------------------------------
# The oracle's plans. Every caller evaluates through one `_Plan` per vector;
# the searches replay a support's plan at later probes. The memoised recursion and its unrolled plan, which the oracle ran
# before it had one builder, stay here as the references for every value,
# plan and probe.


def _q_int(nums, den, nbr, mask, memo):
    """Q(S) = den^|S| * q_0(G[S]) for S = `mask`, split on the lowest vertex v:
    Q(S) = den*Q(S-v) - n_v * den^(|N[v] & S|-1) * Q(S - N[v])."""
    if mask == 0:
        return 1
    out = memo.get(mask)
    if out is None:
        v_bit = mask & -mask
        v = v_bit.bit_length() - 1
        near = mask & nbr[v]
        without_v = _q_int(nums, den, nbr, mask ^ v_bit, memo)
        without_nv = _q_int(nums, den, nbr, mask ^ near, memo)
        out = den * without_v - nums[v] * den ** (near.bit_count() - 1) * without_nv
        memo[mask] = out
    return out


def _member(nums, den, nbr, memo=None):
    """Q > 0 on each nested suffix of the support of nums/den."""
    mask = sum(1 << k for k, n in enumerate(nums) if n)
    memo = {} if memo is None else memo
    while mask:
        if _q_int(nums, den, nbr, mask, memo) <= 0:
            return False
        mask &= mask - 1
    return True


def _compile(nbr, support):
    """`_q_int`'s recursion from `support` unrolled: one step (v,
    |N[v] & S|-1, index of S-v, index of S - N[v], S is a nested suffix) per
    mask S, children first, and the highest power of den the steps use."""
    index = {0: 0}
    steps = []

    def visit(mask):
        at = index.get(mask)
        if at is None:
            v_bit = mask & -mask
            v = v_bit.bit_length() - 1
            near = mask & nbr[v]
            without_v = visit(mask ^ v_bit)
            without_nv = visit(mask ^ near)
            steps.append((v, near.bit_count() - 1, without_v, without_nv, support & -v_bit == mask))
            at = index[mask] = len(steps)
        return at

    visit(support)
    return max((step[1] for step in steps), default=0), tuple(steps)


def _q_of_set(nums, den, nbr, iset, memo):
    """q_I = (prod_{i in I} p_i) * q_0 on the graph minus N[I]."""
    mask = (1 << len(nums)) - 1
    coeff = 1
    for u in iset:
        mask &= ~nbr[u - 1]
        coeff *= nums[u - 1]
    return Fraction(coeff * _q_int(nums, den, nbr, mask, memo), den ** (len(iset) + mask.bit_count()))


def recursive_report(g, p):
    """in_shearer_bound from the per-set recursion: q_0 and every singleton
    q-value on one memo, then the first independent set with Q <= 0."""
    nums, den = shearer._checked_integers(g, p.values)
    nbr, memo = g.closed_masks, {}
    q_values = {iset: _q_of_set(nums, den, nbr, iset, memo) for iset in [()] + [(v,) for v in g.vertices]}
    witness = None
    if not _member(nums, den, nbr, memo):
        for iset in independent_sets(g):
            outside = (1 << g.m) - 1
            for u in iset:
                outside &= ~nbr[u - 1]
            if _q_int(nums, den, nbr, outside, memo) <= 0:
                witness = iset
                break
    return shearer.ShearerReport(witness is None, q_values, witness)


@st.composite
def shuffled_graphs(draw, max_m=10):
    g = draw(small_graphs(max_m))
    label = [0] + draw(st.permutations(range(1, g.m + 1)))
    edges = [(label[u], label[v]) for u, v in g.edges]
    return DependencyGraph.from_edges(g.m, edges)


@st.composite
def scaled_numerators(draw, m):
    """Numerators over den << k with zero entries, so that the support
    changes from probe to probe, scaled down now and then to land inside."""
    den = draw(st.sampled_from([1, 3, 8, 10, 97])) << draw(st.integers(0, 12))
    top = den >> draw(st.integers(0, 4)) or 1
    return [0 if draw(st.integers(0, 3)) == 0 else draw(st.integers(1, top)) for _ in range(m)], den


@settings(max_examples=300, deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_plan_replays_the_unrolled_recursion(g, data):
    nums, den = data.draw(scaled_numerators(g.m))
    nbr = g.closed_masks
    plan = shearer._Plan(nbr, nums, den, shearer.MAX_PLAN_STEPS)
    support, memo = plan.support, {}
    assert plan.inside(support) == _member(nums, den, nbr, memo)
    # the recursion's values, mask by mask, and its unrolled steps, which
    # reproduce the verdict at the building vector
    assert plan.values == {0: 1, **memo}
    replay = plan.replay()
    assert replay == _compile(nbr, support)
    assert shearer._probe(replay, nums, den) == plan.inside(support)
    # asking for another mask extends the plan by the masks it reaches
    mask = data.draw(st.integers(0, (1 << g.m) - 1))
    reached = {}
    assert plan.q(mask) == _q_int(nums, den, nbr, mask, reached)
    assert plan.values == {0: 1, **memo, **reached}


@settings(max_examples=200, deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_compiled_probe_matches_recursive_member(g, data):
    # a plan charged at the largest den drawn, replayed at vectors of its support
    nums, den = data.draw(scaled_numerators(g.m))
    plan = shearer._Plan.open(g, nums, den, 0, (97 << 12).bit_length())
    assert plan.inside(plan.support) == _member(nums, den, g.closed_masks)
    replay = plan.replay()
    for _ in range(8):
        other, den = data.draw(scaled_numerators(g.m))
        other = [max(1, n) if kept else 0 for n, kept in zip(other, nums)]
        assert shearer._probe(replay, other, den) == _member(other, den, g.closed_masks)


@settings(max_examples=200, deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_one_plan_gives_the_per_set_q_values_and_witness(g, data):
    p = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    assert in_shearer_bound(g, p) == recursive_report(g, p)
    nums, den = data.draw(scaled_numerators(g.m))
    values = [Fraction(n, den) for n in nums]
    assert shearer_membership(g, values) == _member(nums, den, g.closed_masks)


def _probes_of(search, args):
    """The search's outcome and every probe it made, as (nums, den, verdict)
    in the caller's labels: the first on its plan, the later ones replayed."""
    log = []
    probe = shearer._probe

    class LoggedPlan(shearer._Plan):
        __slots__ = ()

        def inside(self, support):
            out = super().inside(support)
            log.append((tuple(self.nums[k] for k in self.rank), self.den, out))
            return out

    def logged_probe(replay, nums, den):
        out = probe(replay, nums, den)
        log.append((tuple(nums), den, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shearer, "_Plan", LoggedPlan)
        patch.setattr(shearer, "_probe", logged_probe)
        return _outcome(search, *args), log


@settings(max_examples=60, deadline=None)
@given(g=shuffled_graphs(max_m=10), data=st.data())
def test_searches_make_the_recursive_reference_probes(g, data):
    # every probe's verdict is the memoised recursion's, so a search running
    # the recursion would make the same probes
    p = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    _, log = _probes_of(boundary_scale, (g, p, Fraction(1, 256)))
    assert log
    assert [out for _, _, out in log] == [_member(list(nums), den, g.closed_masks) for nums, den, _ in log]


# The plans' vertex order. Graphs of `_ORDER_MIN_VERTICES` or more vertices
# are planned in their breadth-first order; the caller's labels, which every
# plan used before, are the reference. Each test runs the oracle both ways,
# on every graph it draws, by moving that threshold.


def _in_both_orders(call):
    """call() with every graph planned in the caller's labels, then in its
    breadth-first order."""
    out = []
    for smallest in (sys.maxsize, 1):  # above every graph's size, then below
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shearer, "_ORDER_MIN_VERTICES", smallest)
            out.append(call())
    return out


@settings(max_examples=200, deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_breadth_first_plans_answer_as_the_identity_order(g, data):
    nums, den = data.draw(scaled_numerators(g.m))  # zero entries too
    values = [Fraction(n, den) for n in nums]
    p = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    isets = data.draw(st.lists(st.sampled_from(list(independent_sets(g))), max_size=4))

    def answers():
        report = in_shearer_bound(g, p)
        return (
            shearer_membership(g, values),
            (report.in_bound, report.q_values, report.witness),
            [q_set(g, p, iset) for iset in isets],
            gap(g, p),
        )

    identity, ordered = _in_both_orders(answers)
    assert ordered == identity


@settings(max_examples=60, deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_breadth_first_searches_make_the_identity_order_probes(g, data):
    p = ProbabilityVector(tuple(data.draw(mixed_vectors(g.m, zeros=False))))
    args = (g, p, Fraction(1, 256))
    identity, ordered = _in_both_orders(lambda: _probes_of(boundary_scale, args))
    assert ordered == identity


def path(n):
    return DependencyGraph.from_edges(n, [(k, k + 1) for k in range(1, n)])


@st.composite
def large_graphs(draw):
    """Graphs of 31-130 vertices whose own labels keep plans small enough to
    plan both ways: grid strips 2-4 wide labelled across the strip, small
    grids under a drawn shuffle, long cycles and paths."""
    kind = draw(st.sampled_from(["strip", "shuffled", "cycle", "path"]))
    event(kind)
    if kind == "strip":
        width = draw(st.integers(2, 4))
        return grid_unit((draw(st.integers(31 // width + 1, 130 // width)), width))[0]
    if kind == "shuffled":
        g = grid_unit(draw(st.sampled_from([(2, 16), (3, 11), (4, 8)])))[0]
        label = [0] + draw(st.permutations(range(1, g.m + 1)))
        return DependencyGraph.from_edges(g.m, [(label[u], label[v]) for u, v in g.edges])
    n = draw(st.integers(31, 130))
    return cycle(n) if kind == "cycle" else path(n)


@settings(max_examples=120, deadline=None)
@given(g=large_graphs(), data=st.data())
def test_large_graphs_answer_alike_in_both_orders(g, data):
    # above the 30 vertices the oracle once refused; entries near the
    # thresholds of grids (about 0.12-0.14) and of paths and cycles (1/4)
    pool = [Fraction(k, 80) for k in (5, 8, 10, 11, 12, 16, 20, 24)]
    p = ProbabilityVector(tuple(data.draw(st.lists(st.sampled_from(pool), min_size=g.m, max_size=g.m))))

    def answers():
        report = in_shearer_bound(g, p)
        return (
            shearer_membership(g, p.values),
            (report.in_bound, report.q_values, report.witness),
            boundary_scale(g, p, Fraction(1, 64)),
        )

    identity, ordered = _in_both_orders(answers)
    assert ordered == identity


def _full_plan_steps(nbr):
    return len(_compile(nbr, (1 << len(nbr)) - 1)[1])


def _oracle_masks(g):
    """The closed masks, in the oracle's vertex order, of the plans it opens on g."""
    return shearer._Plan.open(g, [1] * g.m, 1).nbr


def test_breadth_first_order_keeps_plans_small():
    # a 5x5 grid window, labelled row by row, then under a seeded shuffle
    unit, _ = grid_unit((5, 5))
    label = [0] + random.Random(3).sample(range(1, 26), 25)
    shuffled = DependencyGraph.from_edges(25, [(label[u], label[v]) for u, v in unit.edges])
    assert _full_plan_steps(unit.closed_masks) == 121
    assert _full_plan_steps(shuffled.closed_masks) == 1_370
    assert _full_plan_steps(_oracle_masks(shuffled)) <= 121  # 103
    # a cycle's own labels already split it two vertices wide
    for n in range(16, 25):
        g = cycle(n)
        assert _full_plan_steps(_oracle_masks(g)) <= _full_plan_steps(g.closed_masks)


@pytest.fixture
def work(monkeypatch):
    """Counts the plans built, the supports whose replay steps a search
    keeps, and the probes that replay them."""
    counts = {"plans": 0, "kept": [], "probes": 0}
    probe = shearer._probe

    class CountedPlan(shearer._Plan):
        __slots__ = ()

        def __init__(self, *args):
            counts["plans"] += 1
            super().__init__(*args)

        def replay(self):
            counts["kept"].append(self.support)
            return super().replay()

    def counted_probe(replay, nums, den):
        counts["probes"] += 1
        return probe(replay, nums, den)

    monkeypatch.setattr(shearer, "_Plan", CountedPlan)
    monkeypatch.setattr(shearer, "_probe", counted_probe)
    return counts


C4_EXAMPLE = ProbabilityVector.uniform(4, Fraction(3, 10))


@pytest.mark.parametrize(
    "search,args",
    [
        (boundary_scale, (C4, ProbabilityVector.uniform(4, 1), Fraction(1, 4096))),
    ],
)
def test_each_search_compiles_each_support_once(work, search, args):
    first = search(*args)
    kept = list(work["kept"])
    assert kept and len(set(kept)) == len(kept) == work["plans"]
    # nothing outlives the call: the same search builds the same plans again
    assert search(*args) == first
    assert work["kept"] == kept * 2


def test_one_off_calls_build_one_plan_and_replay_nothing(work):
    p = ProbabilityVector.uniform(4, Fraction(1, 2))
    shearer_membership(C4, p.values)
    in_shearer_bound(C4, p)
    q_empty(C4, p)
    assert work == {"plans": 3, "kept": [], "probes": 0}


def test_plan_cap_counts_the_steps_a_search_holds(work, monkeypatch):
    args = (C4, ProbabilityVector.uniform(4, 1), Fraction(1, 4096))
    expected = boundary_scale(*args)
    held = sum(len(_compile(C4.closed_masks, support)[1]) for support in work["kept"])
    assert held < shearer.MAX_PLAN_STEPS
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held)
    assert boundary_scale(*args) == expected
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held - 1)
    with pytest.raises(CapExceeded, match=f"oracle plans capped at {held - 1} steps"):
        boundary_scale(*args)


@pytest.fixture
def kept_plans(monkeypatch):
    """The plans built, kept to be read after the call."""
    plans = []

    class KeptPlan(shearer._Plan):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(shearer, "_Plan", KeptPlan)
    return plans


def test_connected_gap_counts_its_steps_against_the_plan_cap(kept_plans, monkeypatch):
    # P4 is not minimally outside at P4_EXAMPLE: the in-bound test, the D*
    # test and every set the walk visits are masks of gap's one plan, 14
    assert gap(P4, P4_EXAMPLE) == Fraction(3, 10)
    (plan,) = kept_plans
    held = len(plan.values) - 1
    assert held == 14
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held)
    assert gap(P4, P4_EXAMPLE) == Fraction(3, 10)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held - 1)
    with pytest.raises(CapExceeded, match=f"oracle plans capped at {held - 1} steps"):
        gap(P4, P4_EXAMPLE)


@pytest.mark.parametrize(
    "g,p,stop",
    [
        (K3, ProbabilityVector.uniform(3, Fraction(1, 4)), None),  # in the bound
        (K3, K3_EXAMPLE, None),  # minimally outside: D*
        (C4, C4_EXAMPLE, Fraction(1)),
        (P4, P4_EXAMPLE, None),  # the walk
        (P4, P4_EXAMPLE, Fraction(1, 4)),
        (cycle(8), ProbabilityVector.uniform(8, Fraction(3, 10)), Fraction(0)),
        (cycle(12), ProbabilityVector.uniform(12, Fraction(3, 10)), Fraction(7, 10)),  # breadth-first order
    ],
)
def test_gap_builds_one_plan_on_a_connected_graph(kept_plans, g, p, stop):
    # the in-bound test, D* and the walk read one plan of g itself: no
    # relabelled copy, no second plan of the same vector
    gap(g, p, stop)
    (plan,) = kept_plans
    assert plan.nbr is _oracle_masks(g)


def test_gap_builds_one_plan_per_component(kept_plans):
    # C4 at 3/10, K3_EXAMPLE and an inside edge: one plan each
    g = DependencyGraph.from_edges(9, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (5, 7), (8, 9)])
    p = ProbabilityVector(C4_EXAMPLE.values + K3_EXAMPLE.values + (Fraction(1, 5),) * 2)
    gap(g, p)
    assert [len(plan.nums) for plan in kept_plans] == [4, 3, 2]


def connected_set_count(g):
    """The nonempty vertex sets of g that induce a connected subgraph."""
    count = 0
    for size in range(1, g.m + 1):
        for s in map(set, combinations(g.vertices, size)):
            reached, frontier = set(), [min(s)]
            while frontier:
                v = frontier.pop()
                reached.add(v)
                frontier += (neighbors(g, v) & s) - reached
            count += reached == s
    return count


def test_walk_visits_each_connected_set_once(monkeypatch):
    # just past the boundary nothing prunes the walk, so it visits every
    # connected set, and it queries Q(K) from `visit` once per set K it
    # visits. A walk that forgets the neighbours it has tried revisits sets
    # in their subtrees (C4: 15 visits, the 3x3 grid: 686) with the same gap
    visits = []

    class CountedPlan(shearer._Plan):
        __slots__ = ()

        def q(self, mask):
            if sys._getframe(1).f_code.co_name == "visit":
                visits.append(mask)
            return super().q(mask)

    for g, sets in ((C4, 13), (cycle(6), 31), (grid_unit((3, 3))[0], 218)):
        p = ProbabilityVector.uniform(g.m, boundary_scale(g, ProbabilityVector.uniform(g.m, 1), Fraction(1, 2**20)).hi)
        exact = gap(g, p)
        visits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(shearer, "_Plan", CountedPlan)
            assert walk_alone(g, p) == exact
        assert len(visits) == len(set(visits)) == connected_set_count(g) == sets


def test_steps_are_charged_by_their_size(monkeypatch):
    # every graph of up to 30 vertices below a 2^51 denominator pays 1 a
    # step, so plans that fit before fit now
    assert shearer._step_charge(30, 51) == 1
    assert shearer._step_charge(31, 51) == shearer._step_charge(30, 52) == 2
    # K3 over a 1,600-bit denominator is charged 4 a step: its 3-step plan
    # takes 12, with the report's 4 q-values 28, and a budget below that
    # refuses it before any mask exists
    p = ProbabilityVector.uniform(3, Fraction(1, 2**1599))
    expected = in_shearer_bound(K3, p)
    # the boundary search is charged at the last probe's 1,599-bit denominator
    search = (K3, ProbabilityVector.uniform(3, 1), Fraction(1, 2**1598))
    bracket = boundary_scale(*search)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 28)
    assert in_shearer_bound(K3, p) == expected
    g = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 27)
    with pytest.raises(CapExceeded, match="oracle plans capped at 27 steps"):
        in_shearer_bound(g, p)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 12)
    assert q_empty(K3, p) == expected.q_values[()]
    assert boundary_scale(*search) == bracket
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 11)
    for call in (
        lambda: shearer_membership(g, p.values),
        lambda: q_empty(g, p),
        lambda: gap(g, p),
        lambda: boundary_scale(g, *search[1:]),
    ):
        with pytest.raises(CapExceeded, match="oracle plans capped at 11 steps"):
            call()
    assert "closed_masks" not in g.__dict__


def test_q_empty_refuses_a_graph_too_large_before_any_mask():
    # 50,000 isolated vertices: each mask would be charged 157 steps
    g = DependencyGraph(50_000, frozenset())
    p = ProbabilityVector.uniform(50_000, Fraction(1, 4))
    started = time.monotonic()
    with pytest.raises(CapExceeded, match="oracle plans capped at 500000 steps"):
        q_empty(g, p)
    assert time.monotonic() - started < 1
    assert "closed_masks" not in g.__dict__ and "breadth_first_order" not in g.__dict__


def test_connected_gap_walks_deeper_than_the_recursion_limit():
    # on P_100 just past its boundary the walk grows K from vertex 1 through
    # the whole path, 100 sets deep, on an explicit stack
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from lll_workbench.graphs import DependencyGraph\n"
        "from lll_workbench import shearer\n"
        "from lll_workbench.shearer import ProbabilityVector as P, boundary_scale, gap\n"
        "g = DependencyGraph.from_edges(100, [(k, k + 1) for k in range(1, 100)])\n"
        "p = P.uniform(100, boundary_scale(g, P.uniform(100, 1), Fraction(1, 2**20)).hi)\n"
        "exact = gap(g, p)\n"
        "plan = shearer._Plan.open(g, *shearer._checked_integers(g, p.values))\n"
        "sys.setrecursionlimit(25)\n"
        "print(exact is not None and shearer._walk(plan, None) == exact)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lll_workbench.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_long_path_needs_no_deep_recursion():
    # q_0 of the path P_n at 1/4 is (n+2)/2^(n+1); the plan walks each
    # chain S, S-v, ... in a loop, so 1,200 vertices recurse only once
    g = DependencyGraph.from_edges(1200, [(k, k + 1) for k in range(1, 1200)])
    assert q_empty(g, ProbabilityVector.uniform(1200, Fraction(1, 4))) == Fraction(1202, 2**1201)


def test_oracle_calls_pass_under_a_low_recursion_limit():
    # in a fresh interpreter, so that the limit counts only the oracle's frames
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from lll_workbench.graphs import DependencyGraph\n"
        "from lll_workbench.shearer import ProbabilityVector as P, boundary_scale, in_shearer_bound, shearer_membership\n"
        "g = DependencyGraph.from_edges(30, [(k, k % 30 + 1) for k in range(1, 31)])\n"
        "sys.setrecursionlimit(25)\n"
        "print(shearer_membership(g, [Fraction(1, 4)] * 30))\n"
        "print(in_shearer_bound(g, P.uniform(30, Fraction(1, 2))).witness)\n"
        "print(boundary_scale(g, P.uniform(30, 1), Fraction(1, 64)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lll_workbench.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True",
        "()",
        "BoundaryScale(lo=Fraction(1, 4), hi=Fraction(17, 64), clamped=False)",
    ]


def test_one_off_calls_count_their_steps_against_the_plan_cap(monkeypatch):
    # membership, the q-values and the witness walk share one plan: C4's
    # full support takes 5 steps and the walk's first failing set, (), adds
    # none; the report's 5 q-values are charged beside it
    p = ProbabilityVector.uniform(4, Fraction(1, 2))
    assert len(_compile(C4.closed_masks, 0b1111)[1]) == 5
    expected = recursive_report(C4, p)
    # two disjoint edges and an isolated vertex, for the witness walk below
    g = DependencyGraph.from_edges(5, [(2, 5), (3, 4)])
    q = ProbabilityVector(tuple(Fraction(k, 4) for k in (3, 3, 4, 3, 2)))
    walked = recursive_report(g, q)
    assert walked.witness == (2,)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 10)
    assert in_shearer_bound(C4, p) == expected
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 9)
    with pytest.raises(CapExceeded, match="oracle plans capped at 9 steps"):
        in_shearer_bound(C4, p)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 5)
    assert not shearer_membership(C4, p.values)
    assert q_empty(C4, p) == Fraction(-1, 2)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 4)
    for call in (
        lambda: shearer_membership(C4, p.values),
        lambda: in_shearer_bound(C4, p),
        lambda: q_empty(C4, p),
    ):
        with pytest.raises(CapExceeded, match="oracle plans capped at 4 steps"):
            call()
    # the witness walk's steps count too: on g, the walk extends the 7-step
    # plan by the mask {1,3,4}, beside 6 q-values
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 14)
    assert in_shearer_bound(g, q) == walked
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 13)
    with pytest.raises(CapExceeded, match="oracle plans capped at 13 steps"):
        in_shearer_bound(g, q)
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 7)
    assert not shearer_membership(g, q.values)


def test_witness_walk_is_charged_only_its_plan_masks(kept_plans, monkeypatch):
    # the walk holds one partial set per depth and no level of sets: on two
    # disjoint 5-cycles at 3/5 it passes the ten sets of one vertex to reach
    # (1, 3), and the 45 masks it adds to the 14 of membership's plan,
    # beside the 11 q-values, are all it is charged
    g, p = five_cycles(2), ProbabilityVector.uniform(10, Fraction(3, 5))
    expected = in_shearer_bound(g, p)
    shearer_membership(g, p.values)
    walked, member = (len(plan.values) - 1 for plan in kept_plans)
    assert (member, walked) == (14, 59)
    held = walked + g.m + 1
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held)
    assert in_shearer_bound(g, p) == expected
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", held - 1)
    with pytest.raises(CapExceeded, match=f"oracle plans capped at {held - 1} steps"):
        in_shearer_bound(g, p)


def test_minimal_gap_counts_its_steps_against_the_plan_cap(kept_plans, monkeypatch):
    # C4's full support takes 5 steps, and the memberships of the four paths
    # C4 - v extend gap's one plan by 5 more: D* needs no walk
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 10)
    assert gap(C4, C4_EXAMPLE) == Fraction(1, 35)
    (plan,) = kept_plans
    assert len(plan.values) - 1 == 10
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 9)
    with pytest.raises(CapExceeded, match="oracle plans capped at 9 steps"):
        gap(C4, C4_EXAMPLE)
