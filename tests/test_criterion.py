import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from lll_workbench import criterion
from lll_workbench.criterion import (
    ROOT_BITS,
    Bounds,
    IntersectionSetting,
    _root,
    beyond_shearer_verdict,
    digamma,
    intersection_lll_verdict,
    lattice_gap_q,
    r_cycle,
    reduced_vectors,
    transfer_along_path,
)
from lll_workbench.graphs import (
    BipartiteEventVariableGraph,
    DependencyGraph,
    InputError,
    Matching,
    base_graph,
    edge_variable_graph,
    graph_distance,
)
from lll_workbench.lattices import builtin_lattice, grid_unit
from lll_workbench.mt_engine import (
    Event,
    EventSystem,
    IntervalUnion,
    Uniform01,
    measure_pair_intersections,
)
from lll_workbench.shearer import (
    ProbabilityVector,
    boundary_scale,
    gap,
    in_shearer_bound,
    shearer_membership,
)
from test_graphs import greedy_max_intersection_matching, is_linear, neighbors, simplify


def cycle(n):
    return DependencyGraph.from_edges(n, [(k, k % n + 1) for k in range(1, n + 1)])


C4 = cycle(4)
C5 = cycle(5)
K3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
P3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3)])


def quarter_setting(delta=Fraction(1, 8)):
    return IntersectionSetting(
        C4,
        ProbabilityVector.uniform(4, Fraction(1, 4)),
        Matching(frozenset({(1, 2)})),
        {(1, 2): delta},
    )


# The paper's statements that no command evaluates, checked exactly: the
# reduction identity, the matching floor over left sets and the
# transfer-scheme conditions.


def reduction_identity_holds(setting):
    """Exact check of p-_i + p-_j (p-_i - p'_i) >= p_i for every matched pair
    (both orientations)."""
    rv = reduced_vectors(setting)
    pm, pp = rv.p_minus, rv.p_prime
    return all(
        pm[a] + pm[b] * (pm[a] - pp[a]) >= setting.p[a]
        for i, j in setting.matching.pairs
        for a, b in ((i, j), (j, i))
    )


def _induced_bipartite(b, left):
    """Induced subgraph on the left set and all its variables; returns the
    sub-bipartite graph plus the original indices of its events in order."""
    levents = sorted(set(left))
    for i in levents:
        if not 1 <= i <= b.event_count:
            raise InputError(f"event {i} out of range")
    variables = sorted({j for i in levents for j in b.event_vars(i)})
    emap = {i: k + 1 for k, i in enumerate(levents)}
    vmap = {j: k + 1 for k, j in enumerate(variables)}
    edges = frozenset((emap[i], vmap[j]) for i, j in b.edges if i in emap and j in vmap)
    return BipartiteEventVariableGraph(len(levents), len(variables), edges), levents


def matching_intersection_lower_bound(b, p, left_sets):
    """Per disjoint left set, the guaranteed floor on the sum of squared
    pairwise intersections some matching must achieve: the squared positive
    part of the overlap functional, rounded down. Each induced subgraph (or
    its simplification) must be linear."""
    seen = set()
    for ls in left_sets:
        if seen & set(ls):
            raise InputError(f"left sets overlap at {sorted(seen & set(ls))}")
        seen |= set(ls)
    bounds = []
    for ls in left_sets:
        sub, _ = _induced_bipartite(b, ls)
        if not is_linear(sub) and not is_linear(simplify(sub)):
            raise InputError(f"left set {sorted(set(ls))} induces a non-linear subgraph")
        _, plus = per_event_digamma(b, p, ls)
        bounds.append(plus.lo * plus.lo)
    return bounds


def probability_transfer_conditions(g, p, p_a, source_sets, target_sets, multiplicity, distance):
    """The three transfer-scheme conditions: bounded target multiplicity,
    bounded source-target distance, and the scaled surplus inequality per
    set pair. All arithmetic exact."""
    p_a = Fraction(p_a)
    if len(source_sets) != len(target_sets):
        raise InputError("one target set per source set required")
    if set().union(*map(set, source_sets)) != set(g.vertices):
        raise InputError("source sets must cover every vertex")
    counts = {}
    for t in target_sets:
        for i in set(t):
            counts[i] = counts.get(i, 0) + 1
    if any(ct > multiplicity for ct in counts.values()):
        return False
    for s, t in zip(source_sets, target_sets):
        if any(i != i2 and graph_distance(g, i, i2) > distance for i in set(s) for i2 in set(t)):
            return False
    scale = ((1 - p_a) / p_a) ** (distance - 1) * Fraction(multiplicity) / p_a
    for s, t in zip(source_sets, target_sets):
        lhs = scale * sum((max(p[i] - p_a, Fraction(0)) for i in set(s)), Fraction(0))
        rhs = sum((max(p_a - p[i], Fraction(0)) for i in set(t)), Fraction(0))
        if lhs > rhs:
            return False
    return True


def d_star(g, p):
    """D* = -q_0(G; p) / min_v q_0(G - N[v]; p) when p is minimally outside
    G (q_0(G; p) <= 0 and p restricted to every G - v inside), else None;
    q_{v} = p_v * q_0(G - N[v])."""
    q = in_shearer_bound(g, p).q_values
    if q[()] > 0 or not all(
        shearer_membership(g, [0 if k == v else x for k, x in enumerate(p.values, 1)]) for v in g.vertices
    ):
        return None
    return -q[()] / min(q[(v,)] / p[v] for v in g.vertices)


class TestReducedVectors:
    def test_spec_arithmetic(self):
        rv = reduced_vectors(quarter_setting())
        assert rv.p_minus[1] == Fraction(271, 1088)
        assert rv.p_minus[2] == Fraction(271, 1088)
        assert rv.p_minus[3] == Fraction(1, 4)
        assert rv.p_prime[1] == Fraction(31, 128)
        # p' = p (1 - c) with c = delta^2 / (8 p_i p_j)
        c = Fraction(1, 8) ** 2 / (8 * Fraction(1, 4) * Fraction(1, 4))
        assert c == Fraction(1, 32)
        assert rv.p_prime[1] == Fraction(1, 4) * (1 - c)

    def test_identity_example(self):
        assert reduction_identity_holds(quarter_setting())

    def test_monotonicity(self):
        rv = reduced_vectors(quarter_setting())
        for i in (1, 2):
            assert rv.p_prime[i] < rv.p_minus[i] < Fraction(1, 4)
        for i in (3, 4):
            assert rv.p_prime[i] == rv.p_minus[i] == Fraction(1, 4)

    def test_tiny_delta_approaches_original(self):
        rv = reduced_vectors(quarter_setting(Fraction(1, 10**6)))
        assert Fraction(1, 4) - rv.p_minus[1] < Fraction(1, 10**12)
        assert Fraction(1, 4) - rv.p_prime[1] < Fraction(1, 10**11)

    def test_identity_randomized(self):
        rng = random.Random(41)
        for _ in range(1000):
            pi = Fraction(rng.randint(2, 98), 100)
            pj = Fraction(rng.randint(2, 98), 100)
            delta = min(pi, pj) * Fraction(rng.randint(1, 100), 101)
            g = DependencyGraph.from_edges(2, [(1, 2)])
            setting = IntersectionSetting(
                g,
                ProbabilityVector((pi, pj)),
                Matching(frozenset({(1, 2)})),
                {(1, 2): delta},
            )
            assert reduction_identity_holds(setting)

    def test_delta_validation(self):
        with pytest.raises(InputError):
            quarter_setting(Fraction(1, 2))  # exceeds endpoint probability
        with pytest.raises(InputError):
            IntersectionSetting(
                C4,
                ProbabilityVector.uniform(4, Fraction(1, 4)),
                Matching(frozenset({(1, 2)})),
                {},
            )


class TestIntersectionVerdict:
    def test_tiny_delta_reduces_to_plain_membership(self):
        setting = quarter_setting(Fraction(1, 10**9))
        verdict = intersection_lll_verdict(setting, Fraction(1, 10))
        assert verdict.accepted
        assert verdict.bound_on_expected_steps == 40

    def test_clamp_rejection(self):
        verdict = intersection_lll_verdict(quarter_setting(), Fraction(4))
        assert not verdict.accepted
        assert verdict.evidence == "scaled-entry-above-one"

    def test_rejected_when_scaled_out(self):
        verdict = intersection_lll_verdict(quarter_setting(), Fraction(1, 2))
        assert not verdict.accepted
        assert "witness" in verdict.details

    def test_accepts_beyond_plain_region_with_overlap(self):
        # thresholds a=217/400: each event wants its two cycle variables low;
        # the plain vector sits outside the region but the measured pairwise
        # overlap pulls the reduced vector back inside
        a = Fraction(217, 400)
        low = IntervalUnion(((Fraction(0), a),))
        events = []
        for i in range(1, 5):
            nxt = i % 4 + 1
            events.append(Event(vbl=(i, nxt), allowed=((i, low), (nxt, low))))
        system = EventSystem(tuple(Uniform01() for _ in range(4)), tuple(events))
        g = system.dependency_graph
        p = ProbabilityVector(tuple(system.event_probability(i) for i in range(1, 5)))
        assert not in_shearer_bound(g, p).in_bound
        matching = Matching(frozenset({(1, 2), (3, 4)}))
        inter = measure_pair_intersections(system)
        delta = {pair: inter[pair] for pair in matching.pairs}
        assert delta[(1, 2)] == a**3
        setting = IntersectionSetting(g, p, matching, delta)
        verdict = intersection_lll_verdict(setting, Fraction(1, 4000), "measured")
        assert verdict.accepted
        assert verdict.details["delta_source"] == "measured"


class TestDigamma:
    def test_eight_cycle_quarter_is_zero(self):
        b = edge_variable_graph(C4)
        value, plus = digamma(b, ProbabilityVector.uniform(4, Fraction(1, 4)))
        assert value.lo <= 0 <= value.hi
        assert (value.hi - value.lo) < Fraction(1, 10**30)
        assert plus.lo == 0

    def test_eight_cycle_at_036(self):
        b = edge_variable_graph(C4)
        value, _ = digamma(b, ProbabilityVector.uniform(4, Fraction(9, 25)))
        assert value.lo <= Fraction(81, 12500) <= value.hi
        assert (value.hi - value.lo) < Fraction(1, 10**30)

    def test_five_by_five_grid(self):
        unit = builtin_lattice("square")
        b = edge_variable_graph(unit)
        value, _ = digamma(b, ProbabilityVector.uniform(25, Fraction(1193, 10000)))
        assert abs(float(value.lo) - 7.3063e-5) < 1e-8

    def test_left_restriction(self):
        b = edge_variable_graph(C4)
        full, _ = digamma(b, ProbabilityVector.uniform(4, Fraction(9, 25)))
        restricted, _ = per_event_digamma(
            b, ProbabilityVector.uniform(4, Fraction(9, 25)), left=[1, 2, 3, 4]
        )
        assert (full.lo, full.hi) == (restricted.lo, restricted.hi)

    def test_variables_no_event_reads_do_not_count(self):
        b = edge_variable_graph(C4)
        wider = BipartiteEventVariableGraph(b.event_count, b.variable_count + 3, b.edges)
        p = ProbabilityVector.uniform(4, Fraction(9, 25))
        assert digamma(wider, p) == digamma(b, p)


class TestMatchingLowerBound:
    def test_negative_functional_floors_at_zero(self):
        b = edge_variable_graph(C4)
        bounds = matching_intersection_lower_bound(
            b, ProbabilityVector.uniform(4, Fraction(1, 100)), [[1, 2, 3, 4]]
        )
        assert bounds == [Fraction(0)]

    def test_four_cycle_at_036(self):
        b = edge_variable_graph(C4)
        (bound,) = matching_intersection_lower_bound(
            b, ProbabilityVector.uniform(4, Fraction(9, 25)), [[1, 2, 3, 4]]
        )
        expected = Fraction(81, 12500) ** 2
        assert abs(bound - expected) < Fraction(1, 10**20)

    def test_greedy_matching_achieves_floor_empirically(self):
        rng = random.Random(55)
        b = edge_variable_graph(C4)
        for _ in range(100):
            thresholds = {}
            events = []
            for i in range(1, 5):
                nxt = i % 4 + 1
                t1 = Fraction(rng.randint(256, 1023), 1024)
                t2 = Fraction(rng.randint(256, 1023), 1024)
                events.append(
                    Event(
                        vbl=(i, nxt),
                        allowed=(
                            (i, IntervalUnion(((Fraction(0), t1),))),
                            (nxt, IntervalUnion(((Fraction(0), t2),))),
                        ),
                    )
                )
            system = EventSystem(tuple(Uniform01() for _ in range(4)), tuple(events))
            p = ProbabilityVector(
                tuple(system.event_probability(i) for i in range(1, 5))
            )
            (floor,) = matching_intersection_lower_bound(b, p, [[1, 2, 3, 4]])
            inter = measure_pair_intersections(system)
            matching = greedy_max_intersection_matching(
                system.dependency_graph, inter
            )
            achieved = sum(
                (inter[pair] ** 2 for pair in matching.pairs), Fraction(0)
            )
            assert achieved >= floor

    def test_nonlinear_left_set_rejected(self):
        b = BipartiteEventVariableGraph(
            3,
            2,
            frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)}),
        )
        with pytest.raises(InputError):
            matching_intersection_lower_bound(
                b, ProbabilityVector.uniform(3, Fraction(1, 4)), [[1, 2, 3]]
            )

    def test_overlapping_sets_rejected(self):
        b = edge_variable_graph(C4)
        with pytest.raises(InputError):
            matching_intersection_lower_bound(
                b, ProbabilityVector.uniform(4, Fraction(1, 4)), [[1, 2], [2, 3]]
            )


class TestCycleSlack:
    def test_bracket_vanishes_at_quarter(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        slack = r_cycle(C4, p, (1, 2, 3, 4))
        assert slack.lo == slack.hi == 0
        assert reference_r_cycle(C4, p)[0] == (0, 0)

    def test_exact_at_perfect_square(self):
        p = ProbabilityVector.uniform(4, Fraction(9, 25))
        slack = r_cycle(C4, p, (1, 2, 3, 4))
        exact = Fraction(26873856, 10**10)
        assert slack.lo <= exact <= slack.hi
        assert (slack.hi - slack.lo) < Fraction(1, 10**25)
        assert encloses(slack, reference_r_cycle(C4, p)[0])

    def test_clamped_variant_differs_below_quarter(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 9))
        slack = r_cycle(C4, p, (1, 2, 3, 4))
        (plain_lo, _), _ = reference_r_cycle(C4, p)
        assert plain_lo > 0
        assert slack.lo == slack.hi == 0

    def test_perturbed_vector_exceeds_floor(self):
        for length in range(4, 8):
            g = cycle(length)
            vals = [Fraction(1, 4)] * length
            vals[-1] += Fraction(1, 4 * (length - 1))
            slack = r_cycle(g, ProbabilityVector(tuple(vals)), tuple(range(1, length + 1)))
            assert slack.lo > Fraction(1, 2**10 * length**3)

    def test_chord_rejected(self):
        g = DependencyGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        with pytest.raises(InputError):
            r_cycle(g, ProbabilityVector.uniform(4, Fraction(1, 4)), (1, 2, 3, 4))

    def test_short_cycle_rejected(self):
        with pytest.raises(InputError):
            r_cycle(K3, ProbabilityVector.uniform(3, Fraction(1, 4)), (1, 2, 3))


# ---------------------------------------------------------------------------
# the roots against mpmath's interval arithmetic at 120 digits, the test-only
# reference: digamma and r_cycle as they were computed with it

def _iv_fraction(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _mp_bounds(compute) -> tuple[Fraction, Fraction]:
    """The exact endpoints of the interval compute() returns in mpmath's
    interval context at 120 digits."""
    dps, iv.dps = iv.dps, 120
    try:
        x = compute()
        with mp.workprec(iv.prec):
            ends = [mp.mpf(end) for end in (x.a, x.b)]
    finally:
        iv.dps = dps
    # man_exp holds the magnitude: (m, e) for +-m 2^e
    return tuple(
        (-1 if end < 0 else 1) * Fraction(int(end.man_exp[0])) * Fraction(2) ** end.man_exp[1]
        for end in ends
    )


def reference_digamma(b: BipartiteEventVariableGraph, p: ProbabilityVector):
    """The overlap functional on all of b's events, every variable incident."""

    def compute():
        acc = iv.mpf(0)
        for i in b.events:
            deg = len(b.event_vars(i))
            acc += deg * iv.exp(iv.log(_iv_fraction(p[i])) / deg)
        numerator = _iv_fraction(min(p.values)) ** 2 * (acc - b.variable_count)
        delta_d, delta_b = base_graph(b).max_degree(), b.max_event_degree()
        return numerator / (iv.sqrt(iv.mpf(b.event_count)) * delta_d * delta_b**2)

    return _mp_bounds(compute)


def reference_r_cycle(g: DependencyGraph, p: ProbabilityVector):
    """The slack of g, a cycle 1..m, and its bracket 2 sum sqrt(p)/m - 1."""
    m = g.m

    def bracket():
        s = iv.mpf(0)
        for v in g.vertices:
            s += iv.sqrt(_iv_fraction(p[v]))
        return 2 * s / m - 1

    return (
        _mp_bounds(lambda: m * _iv_fraction(min(p.values)) ** 4 * bracket() ** 2),
        _mp_bounds(bracket),
    )


def encloses(ours: Bounds, ref: tuple[Fraction, Fraction]) -> bool:
    """ours contains the reference enclosure; a point, being exact, lies
    inside it instead."""
    lo, hi = ref
    if ours.lo == ours.hi:
        return lo <= ours.lo <= hi
    return ours.lo <= lo and hi <= ours.hi


_probabilities = st.fractions(Fraction(1, 10**4), 1, max_denominator=10**4)
_probabilities = _probabilities | _probabilities.map(lambda x: x * x)


@st.composite
def edge_variable_graphs(draw):
    """The edge-variable graph of a random graph on up to 7 vertices with no
    isolated vertex, and probabilities for its events."""
    n = draw(st.integers(2, 7))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2))), min_size=1))
    label = {v: k for k, v in enumerate(sorted({v for e in edges for v in e}), 1)}
    g = DependencyGraph.from_edges(len(label), [(label[u], label[v]) for u, v in edges])
    p = ProbabilityVector(tuple(draw(_probabilities) for _ in label))
    return edge_variable_graph(g), p


def per_event_digamma(b: BipartiteEventVariableGraph, p: ProbabilityVector, left=None):
    """digamma as it was before its roots were grouped: one enclosure and
    one Fraction sum per event, the test-only reference for equal Bounds;
    with a left set, the overlap functional on the induced subgraph."""
    sub, original = _induced_bipartite(b, list(b.events) if left is None else left)
    probs = [p[i] for i in original]
    delta_d = base_graph(sub).max_degree()
    if delta_d == 0:
        raise InputError("left set induces no dependencies; functional undefined")
    lo = hi = Fraction(-sub.variable_count)
    for i, pi in zip(sub.events, probs):
        deg = len(sub.event_vars(i))
        root = _root(pi, deg)
        lo += deg * root.lo
        hi += deg * root.hi
    scale = min(probs) ** 2 / (delta_d * sub.max_event_degree() ** 2)
    sqrt_l = _root(Fraction(sub.event_count), 2)
    value = Bounds(
        scale * lo / (sqrt_l.hi if lo >= 0 else sqrt_l.lo),
        scale * hi / (sqrt_l.lo if hi >= 0 else sqrt_l.hi),
    )
    return value, value.clamp_nonnegative()


@st.composite
def grouped_cases(draw):
    """An edge-variable graph whose events take their probabilities from a
    pool of one to three values (squares among them, whose square roots are
    exact), so that events of equal probability and degree share a root; and
    a left set of at least one dependent pair, or None."""
    b, _ = draw(edge_variable_graphs())
    pool = draw(st.lists(_probabilities, min_size=1, max_size=3))
    p = ProbabilityVector(tuple(draw(st.sampled_from(pool)) for _ in b.events))
    left = None
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(sorted(base_graph(b).edges)))
        left = sorted({u, v} | set(draw(st.lists(st.sampled_from(list(b.events))))))
    return b, p, left


class TestGroupedRoots:
    @settings(max_examples=150, deadline=None)
    @given(case=grouped_cases())
    def test_digamma_equals_the_per_event_reference(self, case):
        b, p, left = case
        if left is None:
            assert digamma(b, p) == per_event_digamma(b, p)
        else:
            sub, original = _induced_bipartite(b, left)
            assert digamma(sub, ProbabilityVector(tuple(p[i] for i in original))) == per_event_digamma(b, p, left)

    @pytest.mark.parametrize("name,pa", [("square", "0.1193"), ("hexagonal", "0.1547"), ("cubic", "0.1")])
    def test_lattice_units_equal_the_per_event_reference(self, name, pa):
        b = edge_variable_graph(builtin_lattice(name))
        p = ProbabilityVector.uniform(b.event_count, Fraction(pa))
        assert digamma(b, p) == per_event_digamma(b, p)

    def test_one_enclosure_per_distinct_value_and_degree(self, monkeypatch):
        calls = []
        floor = criterion._root_floor

        def spy(a, b, k):
            calls.append((a, b, k))
            return floor(a, b, k)

        monkeypatch.setattr(criterion, "_root_floor", spy)
        b = edge_variable_graph(builtin_lattice("square"))  # degrees 2, 3 and 4
        digamma(b, ProbabilityVector.uniform(25, Fraction(1193, 10000)))
        # the three event roots, and sqrt(|L|) = sqrt(25)
        assert sorted(calls) == [(25, 1, 2)] + [(1193, 10000, k) for k in (2, 3, 4)]


class TestCertifiedRoots:
    @settings(max_examples=300, deadline=None)
    @given(x=st.fractions(Fraction(1, 10**9), 10**9, max_denominator=10**9), k=st.integers(1, 8))
    def test_root_encloses_at_the_root_bits(self, x, k):
        r = _root(x, k)
        assert (r.hi - r.lo) <= Fraction(1, 2**ROOT_BITS)
        if r.lo == r.hi:
            assert r.lo**k == x
        else:
            assert r.lo**k < x < r.hi**k

    @settings(max_examples=200, deadline=None)
    @given(y=st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**6), k=st.integers(1, 8))
    def test_root_of_a_perfect_power_is_a_point(self, y, k):
        r = _root(y**k, k)
        assert r.lo == r.hi == y

    @settings(max_examples=200, deadline=None)
    @given(x=st.fractions(-(10**9), 10**9, max_denominator=10**40))
    def test_grid_floor_rounds_down_to_the_root_bits(self, x):
        down = criterion._grid_floor(x)
        assert down <= x < down + Fraction(1, 2**ROOT_BITS)
        assert (down * 2**ROOT_BITS).denominator == 1

    def test_printed_slack_and_lattice_gap_lie_on_the_grid(self):
        grid = 2**ROOT_BITS
        p = ProbabilityVector((Fraction(27, 100),) * 3 + (Fraction(36, 100),))
        details = beyond_shearer_verdict(C4, p, Fraction(1, 10**9)).details
        assert (details["threshold_545"] * 545 * grid).denominator == 1
        q = lattice_gap_q(builtin_lattice("square"), Fraction(1193, 10000)).q
        assert (q.lo * grid).denominator == (q.hi * grid).denominator == 1

    @settings(max_examples=100, deadline=None)
    @given(case=edge_variable_graphs())
    def test_digamma_encloses_the_reference(self, case):
        b, p = case
        value, plus = digamma(b, p)
        assert encloses(value, reference_digamma(b, p))
        assert (value.hi - value.lo) <= Fraction(1, 2**190)
        assert plus == value.clamp_nonnegative()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), length=st.integers(4, 8))
    def test_r_cycle_encloses_the_reference(self, data, length):
        g = cycle(length)
        p = ProbabilityVector(tuple(data.draw(_probabilities) for _ in g.vertices))
        slack = r_cycle(g, p, tuple(g.vertices))
        ref_plain, (br_lo, br_hi) = reference_r_cycle(g, p)
        ref_plus = ref_plain if br_lo >= 0 else (0, 0) if br_hi <= 0 else (0, ref_plain[1])
        assert encloses(slack, ref_plus)
        assert (slack.hi - slack.lo) <= Fraction(1, 2**190)

    def test_a_bracket_straddling_zero_squares_from_zero(self, monkeypatch):
        # exact roots give a point and irrational ones a bracket off 0 by far
        # more than 2^-200, so a straddling bracket needs wider roots: here
        # [-4/100, 2/100], whose clamped square is [0, (2/100)^2]
        def wide(x, k):
            return Bounds(Fraction(48, 100), Fraction(51, 100))

        monkeypatch.setattr(criterion, "_root", wide)
        slack = r_cycle(C4, ProbabilityVector.uniform(4, Fraction(1, 4)), (1, 2, 3, 4))
        top = 4 * Fraction(1, 4) ** 4 * Fraction(2, 100) ** 2
        assert slack == Bounds(Fraction(0), top)

    def test_digamma_divides_each_end_by_the_root_end_that_rounds_outward(self):
        # degrees 1, 2, 1 and sqrt(1/4) = 1/2 make the root sum exact, 23/15,
        # and the value -7/3000/sqrt(3) negative: over the upper end of the
        # enclosure of sqrt(3), its lower end would come out above the value
        b = edge_variable_graph(P3)
        p = ProbabilityVector((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)))
        value, _ = digamma(b, p)
        assert 3 * value.lo**2 > Fraction(7, 3000) ** 2 > 3 * value.hi**2
        assert encloses(value, reference_digamma(b, p))


class TestBeyondVerdict:
    def test_chordal_reduces_to_membership(self):
        ok = beyond_shearer_verdict(K3, ProbabilityVector.uniform(3, Fraction(1, 4)), Fraction(1, 100))
        assert ok.accepted and ok.evidence == "scaled-vector-in-region"
        bad = beyond_shearer_verdict(K3, ProbabilityVector.uniform(3, Fraction(2, 5)), Fraction(1, 100))
        assert not bad.accepted and bad.evidence == "out-of-region-with-zero-slack"

    def test_far_beyond_rejected_via_witness(self):
        verdict = beyond_shearer_verdict(
            C4, ProbabilityVector.uniform(4, Fraction(29, 50)), Fraction(1, 100)
        )
        assert not verdict.accepted
        assert verdict.evidence == "gap-witness-at-or-above-cycle-slack"

    @staticmethod
    def construction_beyond_region():
        # scale the asymmetric direction to the boundary, step just past it
        direction = ProbabilityVector(
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 3))
        )
        scale = boundary_scale(C4, direction, Fraction(1, 10**10))
        eps = Fraction(1, 10**9)
        factor = scale.hi * (1 + Fraction(12, 10**8)) / (1 + eps)
        return ProbabilityVector(tuple(factor * v for v in direction.values)), eps

    def test_accepts_construction_beyond_region(self):
        # the gap stays under the cycle slack over 545 while exceeding the
        # 2^-20 l^-3 floor
        p, eps = self.construction_beyond_region()
        verdict = beyond_shearer_verdict(C4, p, eps)
        assert verdict.accepted
        assert verdict.evidence == "gap-below-cycle-slack"
        gap_lo, gap_hi = verdict.details["gap"]
        assert gap_lo >= Fraction(1, 2**20 * 4**3)
        assert verdict.details["gap_below_544"]
        assert not shearer_membership(C4, p.values)

    def test_exact_gap_needs_no_resolution(self):
        # the construction is minimally outside C4 (each C4 - v is a path,
        # inside), so its gap is D*
        p, eps = self.construction_beyond_region()
        verdict = beyond_shearer_verdict(C4, p, eps)
        assert verdict.accepted and verdict.evidence == "gap-below-cycle-slack"
        scaled = ProbabilityVector(tuple((1 + eps) * x for x in p.values))
        gap_lo, gap_hi = verdict.details["gap"]
        assert gap_lo == gap_hi == verdict.details["gap_lower_witness"] == d_star(C4, scaled)
        assert gap_lo < verdict.details["threshold_545"]

    def test_exact_gap_accepts_the_construction(self):
        # an isolated fifth vertex of probability 10^-12 keeps the vector
        # outside without it (G - 5 = C4), so G is not minimally outside: the
        # component C4 is, and the gap adds 10^-12 to its D*, under the slack
        p, eps = self.construction_beyond_region()
        g = DependencyGraph.from_edges(5, C4.edges)
        p = ProbabilityVector(p.values + (Fraction(1, 10**12),))
        scaled = ProbabilityVector(tuple((1 + eps) * x for x in p.values))
        assert d_star(g, scaled) is None
        verdict = beyond_shearer_verdict(g, p, eps)
        assert verdict.accepted and verdict.evidence == "gap-below-cycle-slack"
        assert sorted(verdict.details) == [
            "cycles", "eps", "gap", "gap_below_544", "gap_lower_witness",
            "rounding", "threshold_544", "threshold_545",
        ]
        gap_lo, gap_hi = verdict.details["gap"]
        assert gap_lo == gap_hi == verdict.details["gap_lower_witness"] == gap(g, scaled)
        assert f"{float(gap_lo):.4g} {float(verdict.details['threshold_545']):.4g}" == "1.557e-07 2.466e-07"
        assert verdict.details["gap_below_544"]

    @pytest.mark.parametrize("n,p", [(8, Fraction(3, 10)), (10, Fraction(3, 10)), (12, Fraction(27, 100))])
    def test_early_witness_crosses_the_threshold_with_the_exact_gap(self, n, p):
        # cycles far past the boundary, not minimally outside: the walk stops
        # at its first witness at or above the 545 threshold
        g, eps = cycle(n), Fraction(1, 1000)
        verdict = beyond_shearer_verdict(g, ProbabilityVector.uniform(n, p), eps)
        scaled = ProbabilityVector.uniform(n, (1 + eps) * p)
        exact = gap(g, scaled)
        witness = verdict.details["gap_lower_witness"]
        assert d_star(g, scaled) is None
        assert witness <= exact
        assert (witness >= verdict.details["threshold_545"]) == (exact >= verdict.details["threshold_545"])
        assert verdict.accepted == (exact < verdict.details["threshold_545"])

    def test_early_witness_on_a_disconnected_graph(self):
        # C8 far past the boundary beside an isolated vertex: the witness
        # adds the vertex's entry to the component's early stop
        g, eps = DependencyGraph.from_edges(9, cycle(8).edges), Fraction(1, 1000)
        p = ProbabilityVector((Fraction(3, 10),) * 8 + (Fraction(1, 10),))
        verdict = beyond_shearer_verdict(g, p, eps)
        scaled = ProbabilityVector(tuple((1 + eps) * x for x in p.values))
        exact = gap(g, scaled)
        assert exact == Fraction(1001, 10**4) + gap(cycle(8), ProbabilityVector(scaled.values[:8]))
        witness, threshold = verdict.details["gap_lower_witness"], verdict.details["threshold_545"]
        assert threshold <= witness <= exact
        assert not verdict.accepted

    def test_scaled_entry_above_one_is_rejected_before_any_search(self):
        # (1 + 1/2) * 9/10 = 27/20 leaves (0, 1]
        verdict = beyond_shearer_verdict(C4, ProbabilityVector.uniform(4, Fraction(9, 10)), Fraction(1, 2))
        assert not verdict.accepted and verdict.bound_on_expected_steps is None
        assert verdict.evidence == "scaled-entry-above-one"
        assert verdict.details == {
            "eps": Fraction(1, 2),
            "cycles": ((1, 2, 3, 4),),
            "rounding": "slack terms rounded down",
            "clamp": "scaled vector leaves (0,1]",
        }

    def test_reports_both_thresholds(self):
        # 0.28 sits inside the region with a strictly positive cycle slack
        verdict = beyond_shearer_verdict(
            C4, ProbabilityVector.uniform(4, Fraction(28, 100)), Fraction(1, 1000)
        )
        assert verdict.accepted
        assert 0 < verdict.details["threshold_545"] < verdict.details["threshold_544"]


class TestTransfer:
    def test_adjacent_example(self):
        p = ProbabilityVector.uniform(4, Fraction(3, 10))
        out = transfer_along_path(C4, p, (1, 2), Fraction(1, 10))
        assert out.values == (
            Fraction(8, 15), Fraction(1, 5), Fraction(3, 10), Fraction(3, 10),
        )
        assert not shearer_membership(C4, out.values)

    def test_zero_is_identity(self):
        p = ProbabilityVector.uniform(4, Fraction(3, 10))
        assert transfer_along_path(C4, p, (1, 2), Fraction(0)).values == p.values

    def test_q_above_p_rejected(self):
        p = ProbabilityVector.uniform(4, Fraction(3, 10))
        with pytest.raises(InputError):
            transfer_along_path(C4, p, (1, 2), Fraction(1, 2))

    def test_non_shortest_path_rejected(self):
        p = ProbabilityVector.uniform(4, Fraction(3, 10))
        with pytest.raises(InputError):
            transfer_along_path(C4, p, (1, 4, 3, 2), Fraction(1, 10))

    def test_in_bound_vector_rejected(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        with pytest.raises(InputError):
            transfer_along_path(C4, p, (1, 2), Fraction(1, 10))


class TestTransferConditions:
    def test_uniform_at_pa_trivially_true(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        assert probability_transfer_conditions(
            C4, p, Fraction(1, 4), [[1, 2, 3, 4]], [[1, 2, 3, 4]], 2, 2
        )

    def test_hand_picked_surplus(self):
        # one raised entry, one deeply lowered one; multiplicity 1, distance 2
        p = ProbabilityVector(
            (Fraction(26, 100), Fraction(1, 100), Fraction(25, 100), Fraction(25, 100))
        )
        p_a = Fraction(1, 4)
        # scale = (3)^1 * 4 = 12; lhs = 12 * 1/100 <= rhs = 24/100? no: 12/100 < 24/100
        assert probability_transfer_conditions(
            C4, p, p_a, [[1, 2, 3, 4]], [[2]], 1, 2
        )

    def test_distance_violation(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        assert not probability_transfer_conditions(
            C4, p, Fraction(1, 4), [[1, 2, 3, 4]], [[3]], 1, 1
        )

    def test_multiplicity_violation(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        assert not probability_transfer_conditions(
            C4, p, Fraction(1, 4), [[1, 2], [3, 4]], [[1], [1]], 1, 3
        )

    def test_cover_required(self):
        p = ProbabilityVector.uniform(4, Fraction(1, 4))
        with pytest.raises(InputError):
            probability_transfer_conditions(
                C4, p, Fraction(1, 4), [[1, 2]], [[3]], 1, 2
            )


class TestLatticeGap:
    def test_square_values(self):
        report = lattice_gap_q(builtin_lattice("square"), Fraction(1193, 10000))
        assert report.unit_diameter == 8
        assert report.lattice_max_degree == 4
        assert report.unit_vertices == 25
        mid = float((report.q.lo + report.q.hi) / 2)
        assert abs(mid - 1.8410e-22) < 2e-25

    def test_hexagonal_regression(self):
        report = lattice_gap_q(builtin_lattice("hexagonal"), Fraction(1547, 10000))
        assert report.unit_diameter == 11
        assert report.lattice_max_degree == 3
        mid = float((report.q.lo + report.q.hi) / 2)
        assert abs(mid - 2.9744e-25) < 2e-28

    def test_cubic_regression(self):
        report = lattice_gap_q(builtin_lattice("cubic"), Fraction(744, 10000))
        assert report.unit_diameter == 6
        assert report.lattice_max_degree == 6
        mid = float((report.q.lo + report.q.hi) / 2)
        assert abs(mid - 3.7924e-24) < 2e-27

    def test_disconnected_unit_rejected(self):
        g = DependencyGraph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(InputError, match="graph is disconnected"):
            lattice_gap_q(g, Fraction(1, 8))


class TestLatticeOverlapFloorOnCopies:
    def test_translated_copy_floor_on_square_lattice(self):
        # random elementary system with every event probability exactly 1/8 on
        # a 10x10 window; the summed squared overlaps of matched pairs near
        # any translated unit copy dominate the unit functional's square
        window, positions = grid_unit((10, 10))
        target = Fraction(1, 8)
        rng = random.Random(2024)

        # exact-probability boxes: degree-many thresholds multiplying to 1/8
        incident = {v: [] for v in window.vertices}
        edge_ids = {}
        for k, e in enumerate(sorted(window.edges), 1):
            edge_ids[e] = k
            incident[e[0]].append(k)
            incident[e[1]].append(k)
        events = []
        for v in window.vertices:
            vars_v = sorted(incident[v])
            deg = len(vars_v)
            # over-approximations of target^(1/deg) from above, exact tail
            rest = []
            for _ in range(deg - 1):
                approx = Fraction(
                    int((float(target) ** (1.0 / deg)) * 4096) + rng.randint(1, 64),
                    4096,
                )
                rest.append(min(approx, Fraction(1)))
            prod = Fraction(1)
            for t in rest:
                prod *= t
            last = target / prod
            assert 0 < last <= 1
            allowed = []
            for j, t in zip(vars_v, rest + [last]):
                allowed.append((j, IntervalUnion(((Fraction(0), t),))))
            events.append(Event(vbl=tuple(vars_v), allowed=tuple(allowed)))
        system = EventSystem(
            tuple(Uniform01() for _ in range(len(edge_ids))), tuple(events)
        )
        for v in (1, 17, 60):
            assert system.event_probability(v) == target

        inter = measure_pair_intersections(system)
        matching = greedy_max_intersection_matching(window, inter)

        # one translated copy of the unit: offset (2,2)
        pos_to_vertex = {pos: v for v, pos in positions.items()}
        copy_vertices = {
            pos_to_vertex[(x + 2, y + 2)] for x in range(5) for y in range(5)
        }
        closed = set(copy_vertices)
        for v in copy_vertices:
            closed |= neighbors(window, v)
        t_k = {
            pair for pair in matching.pairs
            if pair[0] in closed and pair[1] in closed
        }
        achieved = sum((inter[pair] ** 2 for pair in t_k), Fraction(0))

        b_unit = edge_variable_graph(builtin_lattice("square"))
        _, plus = digamma(b_unit, ProbabilityVector.uniform(25, target))
        assert plus.hi > 0
        assert achieved >= plus.hi * plus.hi
