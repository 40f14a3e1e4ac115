import pickle
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lll_workbench import mt_engine
from lll_workbench.graphs import InputError
from lll_workbench.mt_engine import (
    DEFAULT_STEP_CAP,
    SELECTION_RULES,
    Event,
    EventSystem,
    FiniteVariable,
    IntervalUnion,
    RunStats,
    Uniform01,
    ValueSet,
    _ceil_scaled,
    estimate_expected_steps,
    extremal_cycle_instance,
    make_rule,
    measure_pair_intersections,
    pair_intersection,
    run_mt,
    witness_dag_of_run,
)
from lll_workbench.shearer import CapExceeded, ProbabilityVector, q_empty
from lll_workbench.tables import SCALE, ResamplingTable, unit_bits, unit_fraction
from lll_workbench.wdag import (
    canonical_key,
    consistent_with_table,
    prefix,
    single_sink_prefix_count,
    validate_wdag,
)

HALF = IntervalUnion(((Fraction(0), Fraction(1, 2)),))
QUARTER = IntervalUnion(((Fraction(0), Fraction(1, 4)),))


def reference_box_product(variables, a, b):
    """Pr(A and B) for elementary events: over every variable of either
    event, the measure of the two allowed sets' intersection, a variable
    outside an event allowing its whole range."""
    out = Fraction(1)
    for j in sorted(set(a.vbl) | set(b.vbl)):
        var = variables[j - 1]
        if isinstance(var, Uniform01):
            full = IntervalUnion(((Fraction(0), Fraction(1)),))
        else:
            full = ValueSet(frozenset(range(len(var.masses))))
        both = dict(a.allowed).get(j, full).intersect(dict(b.allowed).get(j, full))
        out *= both.measure() if isinstance(var, Uniform01) else sum(var.masses[v] for v in both.values)
    return out


def reference_value(var, u):
    """A variable's value at the sample u, decoded on Fractions: u itself for
    a uniform variable; for a finite one the first value whose cumulative
    mass exceeds u."""
    if isinstance(var, Uniform01):
        return u
    acc = Fraction(0)
    for idx, mass in enumerate(var.masses):
        acc += mass
        if u < acc:
            return idx
    return len(var.masses) - 1


def assert_values_at_cuts(var, cuts):
    """var.value(k) is the Fraction decoder's value at and one below every
    cut, which random draws almost never hit."""
    for c in cuts:
        for k in (c - 1, c):
            if 0 <= k < SCALE:
                assert var.value(k) == reference_value(var, Fraction(k, SCALE))


def reference_rule(name, system):
    """The selection rules as first written: recent-neighbor walks back
    through the whole history on every call."""
    g = system.dependency_graph
    if name == "lowest-index":
        return lambda violated, history, rng: violated[0]
    if name == "uniform-violated":
        return lambda violated, history, rng: violated[rng.randrange(len(violated))]
    assert name == "recent-neighbor"

    def rule(violated, history, rng):
        for past in reversed(history):
            near = [i for i in violated if i == past or g.has_edge(i, past)]
            if near:
                return near[0]
        return violated[0]

    return rule


def reference_run_mt(system, rule, seed, step_cap=DEFAULT_STEP_CAP):
    """The resampling loop on Fraction samples: every step tests all m events
    on the decoded assignment. Each sample is hashed afresh from its whole
    key, not read through ResamplingTable."""
    rule_fn = reference_rule(rule, system) if isinstance(rule, str) else rule

    def entry(j, k):
        return reference_value(system.variables[j - 1], unit_fraction(seed, "x", j, k))

    rng = random.Random(int(unit_fraction(seed, "rule") * (1 << 64)))
    cursor = {j: 1 for j in range(1, len(system.variables) + 1)}
    assignment = {j: entry(j, 1) for j in cursor}
    sequence: list[int] = []
    counts: dict[int, int] = {}
    truncated = False
    while True:
        violated = [i for i in range(1, system.m + 1) if system.holds(i, assignment)]
        if not violated:
            break
        if len(sequence) >= step_cap:
            truncated = True
            break
        pick = rule_fn(violated, sequence, rng)
        assert pick in violated
        sequence.append(pick)
        counts[pick] = counts.get(pick, 0) + 1
        for j in system.events[pick - 1].vbl:
            cursor[j] += 1
            assignment[j] = entry(j, cursor[j])
    return RunStats(tuple(sequence), truncated, dict(assignment), counts)


#: interval endpoints: the ends of [0,1), dyadic and non-dyadic points
ENDPOINTS = tuple(
    Fraction(x) for x in ("0", "1", "1/3", "2/7", "1/2", "3/8", "5/7", "1/1000", "999/1000")
)


@st.composite
def random_systems(draw):
    """Up to four uniform or finite variables (masses that may be zero or
    non-dyadic) and up to five events: boxes of interval unions or value
    sets, empty sets included, or predicates (an odd number of the event's
    variables lie low)."""
    variables = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            variables.append(Uniform01())
        else:
            weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
            if not any(weights):
                weights[0] = 1
            variables.append(FiniteVariable(tuple(Fraction(w, sum(weights)) for w in weights)))
    n = len(variables)

    def allowed_set(var):
        if isinstance(var, Uniform01):
            ends = st.sampled_from(ENDPOINTS)
            pairs = st.lists(st.tuples(ends, ends).map(lambda t: tuple(sorted(t))), max_size=3)
            return IntervalUnion(tuple(draw(pairs)))
        return ValueSet(frozenset(draw(st.sets(st.integers(0, len(var.masses) - 1)))))

    def low(var, value):
        return value < Fraction(2, 7) if isinstance(var, Uniform01) else value == 0

    def predicate(vbl):
        return lambda a: sum(low(variables[j - 1], a[j]) for j in vbl) % 2 == 1

    events = []
    for _ in range(draw(st.integers(1, 5))):
        vbl = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
        if draw(st.integers(0, 3)) == 0:
            events.append(Event(vbl=vbl, predicate=predicate(vbl)))
        else:
            boxes = tuple((j, allowed_set(variables[j - 1])) for j in vbl)
            events.append(Event(vbl=vbl, allowed=boxes))
    return EventSystem(tuple(variables), tuple(events))


def _highest_then_random(violated, history, rng):
    return violated[-1] if len(history) % 2 else violated[rng.randrange(len(violated))]


def single_event_system(allowed=HALF):
    return EventSystem((Uniform01(),), (Event(vbl=(1,), allowed=((1, allowed),)),))


class TestSystems:
    def test_event_probability_box(self):
        sys1 = single_event_system()
        assert sys1.event_probability(1) == Fraction(1, 2)

    def test_predicate_probability_exhaustive(self):
        fair = FiniteVariable((Fraction(1, 2), Fraction(1, 2)))
        system = EventSystem(
            (fair, fair),
            (Event(vbl=(1, 2), predicate=lambda a: a[1] == a[2]),),
        )
        assert system.event_probability(1) == Fraction(1, 2)

    def test_extremal_probabilities(self):
        system = extremal_cycle_instance(4)
        assert [system.event_probability(i) for i in range(1, 5)] == [Fraction(1, 4)] * 4
        system = extremal_cycle_instance(5, Fraction(1, 3))
        assert system.event_probability(1) == Fraction(2, 9)

    def test_extremal_adjacent_events_exclusive(self):
        inter = measure_pair_intersections(extremal_cycle_instance(4))
        assert set(inter.values()) == {Fraction(0)}

    def test_extremal_avoidance_probability_matches_q(self):
        # only the monotone threshold patterns avoid every event: q_0 at the
        # quarter point equals the count 2*(l+... of safe half-space patterns
        for length in (4, 5, 6):
            system = extremal_cycle_instance(length)
            patterns = 0
            for bits in range(1 << length):
                low = [bool(bits >> k & 1) for k in range(length)]
                bad = any(
                    low[i] and not low[(i + 1) % length] for i in range(length)
                )
                if not bad:
                    patterns += 1
            avoid = Fraction(patterns, 1 << length)
            assert avoid == q_empty(
                system.dependency_graph,
                ProbabilityVector.uniform(length, Fraction(1, 4)),
            )

    def test_cached_graph_stays_out_of_value_semantics(self):
        system, twin = extremal_cycle_instance(5), extremal_cycle_instance(5)
        text, key, blob = repr(system), hash(system), pickle.dumps(system)
        g = system.dependency_graph
        assert system.dependency_graph is g and "dependency_graph" in vars(system)
        assert system == twin and hash(system) == key == hash(twin)
        assert repr(system) == text == repr(twin)
        form = system.integer_form
        assert system.integer_form is form and "integer_form" in vars(system)
        assert system == twin and hash(system) == key == hash(twin)
        assert repr(system) == text == repr(twin)
        back = pickle.loads(pickle.dumps(system))
        assert back == pickle.loads(blob) == system and back.dependency_graph == g
        assert "integer_form" in vars(back) and back.integer_form == form
        assert run_mt(back, "recent-neighbor", 3) == run_mt(twin, "recent-neighbor", 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_box_products_match_reference(self, data):
        masses = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        variables = (Uniform01(), FiniteVariable(masses), Uniform01())
        eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))
        interval = st.tuples(eighths, eighths).map(lambda t: tuple(sorted(t)))
        sets = {
            1: st.lists(interval, max_size=2).map(lambda ivs: IntervalUnion(tuple(ivs))),
            2: st.sets(st.integers(0, 2)).map(lambda vs: ValueSet(frozenset(vs))),
        }
        sets[3] = sets[1]
        events = []
        for _ in range(data.draw(st.integers(1, 4))):
            vbl = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1)))
            events.append(Event(vbl=tuple(vbl), allowed=tuple((j, data.draw(sets[j])) for j in vbl)))
        system = EventSystem(variables, tuple(events))
        for i, a in enumerate(events, 1):
            assert system.event_probability(i) == reference_box_product(variables, a, a)
            for k, b in enumerate(events, 1):
                assert pair_intersection(system, i, k) == reference_box_product(variables, a, b)

    def test_pair_intersection_examples(self):
        u = Uniform01()
        system = EventSystem(
            (u,),
            (
                Event(vbl=(1,), allowed=((1, HALF),)),
                Event(vbl=(1,), allowed=((1, QUARTER),)),
            ),
        )
        assert pair_intersection(system, 1, 2) == Fraction(1, 4)
        three_quarters = IntervalUnion(((Fraction(0), Fraction(3, 4)),))
        system = EventSystem(
            (u, u, u),
            (
                Event(vbl=(1, 2), allowed=((1, HALF), (2, HALF))),
                Event(vbl=(2, 3), allowed=((2, three_quarters), (3, HALF))),
            ),
        )
        assert pair_intersection(system, 1, 2) == Fraction(1, 8)


class TestRuns:
    def test_probability_zero_event_stops_immediately(self):
        system = single_event_system(IntervalUnion(()))
        stats = run_mt(system, "lowest-index", 0)
        assert stats.t == 0 and not stats.truncated

    def test_geometric_mean_near_one(self):
        est = estimate_expected_steps(single_event_system(), "lowest-index", 100_000, 7)
        assert est.truncated_runs == 0
        assert 0.97 <= est.mean <= 1.03

    def test_determinism(self):
        system = extremal_cycle_instance(4)
        a = run_mt(system, "uniform-violated", 99)
        b = run_mt(system, "uniform-violated", 99)
        assert a == b

    def test_extremal_terminates_in_constant_pattern(self):
        system = extremal_cycle_instance(4)
        for seed in range(25):
            stats = run_mt(system, "lowest-index", seed)
            assert not stats.truncated
            low = [stats.final_assignment[j] < Fraction(1, 2) for j in range(1, 5)]
            assert all(low) or not any(low)

    def test_selected_events_were_violated(self):
        # replay the run from its own table and recheck every selection
        system = extremal_cycle_instance(4)
        for rule in ("lowest-index", "uniform-violated", "recent-neighbor"):
            stats = run_mt(system, rule, 5)
            table = ResamplingTable(system.variables, 5)
            cursor = {j: 1 for j in range(1, 6 - 1)}
            assignment = {j: table.entry(j, 1) for j in cursor}
            for step in stats.sequence:
                assert system.holds(step, assignment)
                for j in system.events[step - 1].vbl:
                    cursor[j] += 1
                    assignment[j] = table.entry(j, cursor[j])
            assert not any(
                system.holds(i, assignment) for i in range(1, system.m + 1)
            )

    def test_bad_rule_rejected(self):
        always = IntervalUnion(((Fraction(0), Fraction(1)),))
        system = single_event_system(always)
        with pytest.raises(InputError):
            run_mt(system, lambda violated, history, rng: 999, 0, step_cap=3)

    @pytest.mark.parametrize("pick", [1.0, True, 0, -1])
    def test_rule_must_return_the_index_of_a_violated_event(self, pick):
        always = IntervalUnion(((Fraction(0), Fraction(1)),))
        system = single_event_system(always)
        with pytest.raises(InputError, match="selection rule chose a non-violated event"):
            run_mt(system, lambda violated, history, rng: pick, 0, step_cap=3)

    def test_uniform_violated_reaches_the_highest_violated_event(self):
        # the rule takes the r-th set bit of the violated mask; at r = its
        # popcount - 1 that is the highest bit
        system = extremal_cycle_instance(6)
        last = SimpleNamespace(randrange=lambda n: n - 1)
        assert make_rule("uniform-violated", system)([2, 5, 6], [], last) == 6
        highest = []

        def recording(violated, history, rng):
            pick = violated[rng.randrange(len(violated))]
            highest.append(len(violated) > 1 and pick == violated[-1])
            return pick

        want = reference_run_mt(system, recording, 4)
        assert any(highest)
        assert run_mt(system, "uniform-violated", 4) == want

    def test_truncation_flagged(self):
        always = IntervalUnion(((Fraction(0), Fraction(1)),))
        system = single_event_system(always)
        stats = run_mt(system, "lowest-index", 0, step_cap=5)
        assert stats.truncated and stats.t == 5
        est = estimate_expected_steps(system, "lowest-index", 4, 0, step_cap=5)
        assert est.truncated_runs == 4

    def test_worker_split_is_stable(self):
        system = extremal_cycle_instance(4)
        seq = estimate_expected_steps(system, "lowest-index", 60, 11, workers=1)
        par = estimate_expected_steps(system, "lowest-index", 60, 11, workers=2)
        assert seq.per_trial == par.per_trial

    @pytest.mark.parametrize("cpus, trials, want", [(4, 60, [4]), (4, 3, [3]), (None, 60, [])])
    def test_worker_count_is_clamped(self, monkeypatch, cpus, trials, want):
        started = []

        class Recorder:
            """Stands in for the pool: records max_workers, starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        system = extremal_cycle_instance(4)
        serial = estimate_expected_steps(system, "lowest-index", trials, 11, workers=1)
        monkeypatch.setattr(mt_engine, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(mt_engine.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("LLL_WORKBENCH_THREADS", "100000")
        est = estimate_expected_steps(system, "lowest-index", trials, 11)
        assert started == want
        assert est.per_trial == serial.per_trial

    def test_trial_cap(self, monkeypatch):
        monkeypatch.setattr(mt_engine, "MAX_TRIALS", 5)
        system = extremal_cycle_instance(4)
        assert estimate_expected_steps(system, "lowest-index", 5, 3).trials == 5
        with pytest.raises(CapExceeded, match="5 trials"):
            estimate_expected_steps(system, "lowest-index", 6, 3)

    def test_workers_receive_the_built_integer_form(self):
        system = extremal_cycle_instance(5, Fraction(1, 3))
        assert system.integer_form.var_events[0] == 0b10001
        fresh = extremal_cycle_instance(5, Fraction(1, 3))
        seq = estimate_expected_steps(fresh, "recent-neighbor", 40, 2, workers=1)
        par = estimate_expected_steps(system, "recent-neighbor", 40, 2, workers=2)
        assert seq.per_trial == par.per_trial

    def test_recent_neighbor_rule_restarts_with_a_new_run(self):
        system = extremal_cycle_instance(6)
        rule = make_rule("recent-neighbor", system)
        for seed in range(6):
            assert run_mt(system, rule, seed) == run_mt(system, "recent-neighbor", seed)

    def test_rule_generator_seeded_only_for_rules_that_read_it(self, monkeypatch):
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(mt_engine, "random", SimpleNamespace(Random=recording))
        system = extremal_cycle_instance(4)
        for rule in ("lowest-index", "recent-neighbor"):
            run_mt(system, rule, 5)
        assert seeds == []
        run_mt(system, "uniform-violated", 5)
        run_mt(system, _highest_then_random, 5)
        assert seeds == [unit_bits(5, "rule")] * 2

    @settings(max_examples=300, deadline=None)
    @given(
        system=random_systems(),
        rule=st.sampled_from(SELECTION_RULES + (_highest_then_random,)),
        seed=st.integers(0, 10**6) | st.text(max_size=6),
        step_cap=st.sampled_from((1, 3, 40)),
    )
    def test_matches_fraction_reference(self, system, rule, seed, step_cap):
        want = reference_run_mt(system, rule, seed, step_cap)
        got = run_mt(system, rule, seed, step_cap)
        assert got == want
        assert repr(got.final_assignment) == repr(want.final_assignment)

    @settings(max_examples=100, deadline=None)
    @given(
        system=random_systems(),
        rule=st.sampled_from(SELECTION_RULES),
        seed=st.integers(0, 10**6) | st.text(max_size=6),
        step_cap=st.sampled_from((1, 3, 40)),
        trials=st.integers(1, 4),
    )
    def test_estimates_match_fraction_reference(self, system, rule, seed, step_cap, trials):
        est = estimate_expected_steps(system, rule, trials, seed, step_cap, workers=1)
        want = []
        for t in range(trials):
            run = reference_run_mt(system, rule, f"{seed}/{t}", step_cap)
            want.append((t, run.t, run.truncated))
        assert est.per_trial == tuple(want)

    def test_long_runs_match_fraction_reference(self):
        # the differential test above compares short runs; on extremal cycles
        # recent-neighbor often finds no violated event next to the last one
        # resampled and must fall back on the order of older labels
        for system in (extremal_cycle_instance(6), extremal_cycle_instance(8, Fraction(2, 7))):
            for rule in SELECTION_RULES:
                for seed in range(10):
                    for cap in (5, DEFAULT_STEP_CAP):
                        want = reference_run_mt(system, rule, seed, cap)
                        assert run_mt(system, rule, seed, cap) == want

    def test_null_event_estimate_is_zero(self):
        system = single_event_system(IntervalUnion(()))
        est = estimate_expected_steps(system, "lowest-index", 200, 3)
        assert est.mean == 0.0 and est.stderr == 0.0 and est.truncated_runs == 0

    def test_extremal_mean_within_scaled_bound(self):
        # thresholds 1/3 put each event at 2/9 = boundary/(1+eps) for some
        # eps > 0.3, so the mean must stay under m/eps with room to spare
        from lll_workbench.shearer import boundary_scale

        system = extremal_cycle_instance(4, Fraction(1, 3))
        g = system.dependency_graph
        scale = boundary_scale(g, ProbabilityVector.uniform(4, 1), Fraction(1, 1 << 20))
        eps = scale.lo / Fraction(2, 9) - 1
        assert eps > Fraction(3, 10)
        est = estimate_expected_steps(system, "lowest-index", 3000, 17)
        assert est.truncated_runs == 0
        assert est.mean + 3 * est.stderr <= float(4 / eps)


class TestWitnessDags:
    def test_single_step(self):
        system = single_event_system()
        stats = run_mt(system, "lowest-index", 1)
        if stats.t:
            dag = witness_dag_of_run(system, stats)
            assert dag.labels == stats.sequence

    def test_same_label_chain(self):
        # two resamples of the same event force an arc
        system = single_event_system()
        stats = RunStats((1, 1), False, {}, {1: 2})
        dag = witness_dag_of_run(system, stats)
        assert dag.arcs == frozenset({(1, 2)})

    def test_path_system_arc_pattern(self):
        # events 1-2 share a variable, 2-3 share a variable, 1 and 3 do not
        u = Uniform01()
        system = EventSystem(
            (u, u, u, u),
            (
                Event(vbl=(1, 2), allowed=((1, HALF), (2, HALF))),
                Event(vbl=(2, 3), allowed=((2, HALF), (3, HALF))),
                Event(vbl=(3, 4), allowed=((3, HALF), (4, HALF))),
            ),
        )
        stats = RunStats((1, 3, 2, 1), False, {}, {1: 2, 2: 1, 3: 1})
        dag = witness_dag_of_run(system, stats)
        assert validate_wdag(dag, system.dependency_graph)
        assert dag.arcs == frozenset({(1, 3), (1, 4), (2, 3), (3, 4)})

    def test_occurred_dag_is_table_consistent(self):
        system = extremal_cycle_instance(4)
        hits = 0
        for seed in range(40):
            stats = run_mt(system, "lowest-index", seed)
            if stats.truncated or not stats.t:
                continue
            dag = witness_dag_of_run(system, stats)
            table = ResamplingTable(system.variables, seed)
            assert consistent_with_table(dag, system, table)
            hits += 1
        assert hits > 5

    def test_prefix_count_identity_small(self):
        system = extremal_cycle_instance(4)
        checked = 0
        for seed in range(60):
            stats = run_mt(system, "lowest-index", f"pfx/{seed}")
            if stats.truncated or stats.t > 8:
                continue
            dag = witness_dag_of_run(system, stats)
            assert single_sink_prefix_count(dag) == stats.t
            checked += 1
        assert checked >= 30

    def test_one_node_prefixes_pairwise_distinct(self):
        # Moser-Tardos: the T prefixes at the run's T resamplings are
        # distinct wdags; per-node closures keep long runs cheap to check
        longest = 0
        for length in (4, 6):
            system = extremal_cycle_instance(length)
            for seed in range(40):
                stats = run_mt(system, "lowest-index", f"pfx-distinct/{length}/{seed}")
                if stats.truncated:
                    continue
                dag = witness_dag_of_run(system, stats)
                keys = {canonical_key(prefix(dag, (v,))) for v in dag.nodes}
                assert len(keys) == stats.t == single_sink_prefix_count(dag)
                longest = max(longest, stats.t)
        assert longest > 8


class TestResamplingTable:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(1 << 80), 1 << 80)
        | st.text(st.sampled_from(":/x7-é\u2211\U0001f600"), max_size=8)
        | st.text(max_size=8),
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_draws_are_the_fresh_hash(self, seed, n, data):
        table = ResamplingTable((Uniform01(),) * n, seed)
        assert len(table.rows) == n + 1
        for _ in range(4):
            j = data.draw(st.integers(1, n))
            k = data.draw(st.integers(1, 1 << 40))
            assert table.draw(j, k) == unit_bits(seed, "x", j, k)
            assert table.entry(j, k) == unit_fraction(seed, "x", j, k)


class _FixedRow:
    """A row state whose every column is the draw k."""

    def __init__(self, k):
        self.k = k

    def copy(self):
        return self

    def update(self, column):
        pass

    def digest(self):
        return self.k.to_bytes(8, "big")


class TestIntegerForm:
    @pytest.mark.parametrize("a", [Fraction(x) for x in ("0", "1/3", "2/7", "1/2", "1")])
    def test_threshold_is_the_least_draw_at_or_above(self, a):
        k = _ceil_scaled(a)
        assert Fraction(k, SCALE) >= a
        assert not Fraction(k - 1, SCALE) >= a

    @staticmethod
    def assert_cell_tests_at_cuts(system, value_of, cuts):
        """At and one below every cut, which random draws almost never hit,
        the events the engine finds violated when variable 1 draws k are
        those that Event.holds finds on the decoded value."""
        for c in cuts:
            for k in (c - 1, c):
                if 0 <= k < SCALE:
                    table = SimpleNamespace(rows=(None, _FixedRow(k)))
                    seen = []

                    def first(violated, history, rng):
                        seen.append(violated)
                        return violated[0]

                    with mock.patch.object(mt_engine, "ResamplingTable", lambda variables, seed: table):
                        mt_engine._resample(system, first, 0, 1)
                    u = value_of(Fraction(k, SCALE))
                    want = [i for i, event in enumerate(system.events, 1) if event.holds({1: u})]
                    assert seen == ([want] if want else [])

    def test_interval_tests_at_their_ends(self):
        ends = (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(1))
        sets = [IntervalUnion(((a, b),)) for a in ends for b in ends if a < b]
        sets.append(IntervalUnion(((ends[0], ends[2]), (ends[1], ends[4]))))
        sets.append(IntervalUnion(((ends[2], ends[1]), (ends[3], ends[4]))))
        sets.append(IntervalUnion(()))
        events = tuple(Event(vbl=(1,), allowed=((1, s),)) for s in sets)
        system = EventSystem((Uniform01(),), events)
        assert system.integer_form.points[0] == tuple(sorted(map(_ceil_scaled, ends[1:4])))
        assert_values_at_cuts(Uniform01(), map(_ceil_scaled, ends))
        self.assert_cell_tests_at_cuts(system, lambda u: u, map(_ceil_scaled, ends))

    @pytest.mark.parametrize(
        "masses",
        [
            (Fraction(1, 3), Fraction(2, 7), Fraction(8, 21)),
            (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)),
            (Fraction(1),),
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        ],
    )
    def test_finite_decoding_at_every_cut(self, masses):
        var = FiniteVariable(masses)
        values = range(len(masses))
        subsets = [frozenset(v for v in values if bits >> v & 1) for bits in range(1 << len(masses))]
        events = tuple(Event(vbl=(1,), allowed=((1, ValueSet(s)),)) for s in subsets)
        system = EventSystem((var,), events)
        cuts = var.cuts
        assert len(cuts) == len(masses) and cuts[-1] == SCALE
        assert_values_at_cuts(var, cuts)
        assert set(system.integer_form.points[0]) <= set(cuts)
        self.assert_cell_tests_at_cuts(system, lambda u: reference_value(var, u), cuts)

    def test_interval_bounds_and_variable_index(self):
        third = IntervalUnion(((Fraction(1, 3), Fraction(1)),))
        system = EventSystem(
            (Uniform01(), Uniform01(), Uniform01()),
            (
                Event(vbl=(1,), allowed=((1, third),)),
                Event(vbl=(1, 2), allowed=((1, HALF), (2, IntervalUnion(())))),
                Event(vbl=(3,), predicate=lambda a: a[3] < Fraction(1, 2)),
            ),
        )
        form = system.integer_form
        # variable 1 has the cells [0, 1/3), [1/3, 1/2) and [1/2, 1)
        assert form.points == ((_ceil_scaled(Fraction(1, 3)), SCALE // 2), (), ())
        assert form.tests[0] == ((1, 0b110),)
        assert form.tests[1] == ((1, 0b011), (2, 0))
        assert form.tests[2] is None
        assert form.var_events == (0b011, 0b010, 0b100)


class TestValueSets:
    def test_interval_union_merges(self):
        iu = IntervalUnion(
            ((Fraction(0), Fraction(1, 4)), (Fraction(1, 8), Fraction(1, 2)))
        )
        assert iu.intervals == ((Fraction(0), Fraction(1, 2)),)
        assert iu.measure() == Fraction(1, 2)

    def test_value_set(self):
        vs = ValueSet(frozenset({0, 2}))
        assert vs.contains(0) and not vs.contains(1)
        assert vs.intersect(ValueSet(frozenset({2, 3}))).values == frozenset({2})

    def test_finite_variable_sampling(self):
        var = FiniteVariable((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        assert var.value(0) == 0
        assert var.value(SCALE // 4) == 1
        assert var.value(SCALE - 1) == 2
        assert_values_at_cuts(var, var.cuts)

    def test_cached_cuts_stay_out_of_value_semantics(self):
        var, twin = FiniteVariable((Fraction(1, 3), Fraction(2, 3))), FiniteVariable(("1/3", "2/3"))
        text, key = repr(var), hash(var)
        cuts = var.cuts
        assert var.cuts is cuts and "cuts" in vars(var) and "cuts" not in vars(twin)
        assert var == twin and hash(var) == key == hash(twin) and repr(var) == text == repr(twin)
        back = pickle.loads(pickle.dumps(var))
        assert back == var and vars(back)["cuts"] == cuts

    @pytest.mark.parametrize(
        "var,allowed,message",
        [
            (Uniform01(), ValueSet(frozenset({0})), "value sets require a finite variable"),
            (FiniteVariable((Fraction(1, 2),) * 2), HALF, "interval sets require a uniform01 variable"),
            (FiniteVariable((Fraction(1, 2),) * 2), ValueSet(frozenset({-1})), r"values \[-1\] outside 0..1"),
            (FiniteVariable((Fraction(1, 2),) * 2), ValueSet(frozenset({0, 2})), r"values \[0, 2\] outside 0..1"),
            (Uniform01(), frozenset({0}), "unknown allowed set frozenset"),
        ],
        ids=["values-on-uniform", "intervals-on-finite", "value-minus-one", "value-k", "unknown-set"],
    )
    def test_boxes_must_fit_their_variable(self, var, allowed, message):
        # the wire format's checks, for library-built systems too: each of
        # these ran in run_mt before, and the probability code misread it
        events = (Event(vbl=(1,), allowed=((1, allowed),)),)
        with pytest.raises(InputError, match=message):
            EventSystem((var,), events)
