"""Acceptance checks: one callable per criterion, shared by the CLI selftest
and the test suite.

Every check returns a CheckResult with a pass/fail flag and a human-readable
detail line. Expected values are frozen here; checks that compare against
published target constants state the relative error they found.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .criterion import (
    IntersectionSetting,
    digamma,
    intersection_lll_verdict,
    lattice_gap_q,
    reduced_vectors,
    transfer_along_path,
)
from .graphs import (
    DependencyGraph,
    Matching,
    base_graph,
    shortest_path,
)
from .lattices import builtin_lattice
from .mt_engine import (
    Event,
    EventSystem,
    FiniteVariable,
    IntervalUnion,
    Uniform01,
    ValueSet,
    estimate_expected_steps,
    measure_pair_intersections,
    pair_intersection,
    run_mt,
    witness_dag_of_run,
)
from .shearer import (
    ProbabilityVector,
    boundary_scale,
    in_shearer_bound,
    l1_gap,
    q_empty,
    shearer_membership,
)
from .tables import FixedAuxiliaryTable, FixedResamplingTable
from .wdag import (
    canonical_key,
    consistent_with_table,
    consistent_with_tables,
    enumerate_pwdags,
    group_pwdags,
    homomorphic_graph,
    map_h,
    matched_nodes,
    partitions_psi,
    prefix,
    repair_to_consistent,
    single_sink_prefix_count,
    split_labels,
    tighter_weight,
    validate_wdag,
    wdag_weight,
    weight_sums,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    elapsed: float


def _cycle(length: int) -> DependencyGraph:
    edges = [(k, k % length + 1) for k in range(1, length + 1)]
    return DependencyGraph.from_edges(length, edges)


def _result(criterion, started, passed, detail) -> CheckResult:
    return CheckResult(criterion, passed, detail, time.monotonic() - started)


# --------------------------------------------------------------------------
# 1. extremal cycle values

def check_1_extremal_cycle_values() -> CheckResult:
    started = time.monotonic()
    failures = []
    for length in range(4, 9):
        got = q_empty(_cycle(length), ProbabilityVector.uniform(length, Fraction(1, 4)))
        want = Fraction(1, 2 ** (length - 1))
        if got != want:
            failures.append(f"l={length}: {got} != {want}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    detail = "; ".join(failures) if failures else f"exact for l=4..8 in {elapsed:.3f}s"
    if not failures and elapsed >= 1.0:
        detail += " (over 1s budget)"
    return _result("1", started, ok, detail)


# --------------------------------------------------------------------------
# 2. lattice gap table

_LATTICE_TARGETS = (
    ("square", Fraction("0.1193"), Fraction("1.858e-22"), Fraction(5, 100)),
    ("hexagonal", Fraction("0.1547"), Fraction("2.597e-25"), Fraction(10, 100)),
    ("cubic", Fraction("0.0744"), Fraction("7.445e-23"), Fraction(10, 100)),
)


def check_2_lattice_gaps() -> CheckResult:
    started = time.monotonic()
    lines = []
    ok = True
    for name, p_a, target, tol in _LATTICE_TARGETS:
        t0 = time.monotonic()
        spec = builtin_lattice(name)
        expanded, _ = spec.expanded()
        report = lattice_gap_q(expanded, spec.unit, p_a)
        q_mid = (report.q.lo + report.q.hi) / 2
        rel = abs(q_mid - target) / target
        dt = time.monotonic() - t0
        this_ok = rel <= tol and dt < 10.0
        ok = ok and this_ok
        lines.append(
            f"{name}: q={float(q_mid):.4e} target={float(target):.4e} "
            f"rel={float(rel):+.2%} tol={float(tol):.0%} ({dt:.1f}s)"
            + ("" if this_ok else " FAIL")
        )
    return _result("2", started, ok, " | ".join(lines))


# --------------------------------------------------------------------------
# 3. cycle derivative and perturbed membership

def check_3_cycle_derivative() -> CheckResult:
    started = time.monotonic()
    lines = []
    ok = True
    step = Fraction(1, 10**6)
    for length in range(4, 8):
        g = _cycle(length)
        base = ProbabilityVector.uniform(length, Fraction(1, 4))
        bumped_vals = list(base.values)
        bumped_vals[-1] += step
        bumped = ProbabilityVector(tuple(bumped_vals))
        # q_0 is affine in p_l, so the finite difference is the exact
        # derivative -q_0(C_l minus the closed neighbourhood of l), i.e.
        # minus the path P_{l-3} at 1/4, which is (l-1)/2^(l-2)
        slope = (q_empty(g, bumped) - q_empty(g, base)) / step
        asserted = -Fraction(length - 1, 2 ** (length - 2))
        slope_ok = slope == asserted
        lam_vals = list(base.values)
        lam_vals[-1] = Fraction(1, 4) + Fraction(1, 4 * (length - 1))
        member_ok = in_shearer_bound(g, ProbabilityVector(tuple(lam_vals))).in_bound
        ok = ok and slope_ok and member_ok
        lines.append(
            f"l={length}: slope={slope} asserted={asserted}"
            + ("" if slope_ok else " SLOPE-FAIL")
            + (" member-ok" if member_ok else " MEMBER-FAIL")
        )
    return _result("3", started, ok, " | ".join(lines))


# --------------------------------------------------------------------------
# 4. run-length equals single-sink prefix count

def _small_systems() -> list[EventSystem]:
    half = IntervalUnion(((Fraction(0), Fraction(1, 2)),))
    third = IntervalUnion(((Fraction(0), Fraction(1, 3)),))
    one_event = EventSystem(
        (Uniform01(),), (Event(vbl=(1,), allowed=((1, half),)),)
    )
    shared_pair = EventSystem(
        (Uniform01(), Uniform01(), Uniform01()),
        (
            Event(vbl=(1, 2), allowed=((1, half), (2, half))),
            Event(vbl=(2, 3), allowed=((2, half), (3, third))),
        ),
    )
    path_three = EventSystem(
        (Uniform01(), Uniform01(), Uniform01(), Uniform01()),
        (
            Event(vbl=(1, 2), allowed=((1, half), (2, half))),
            Event(vbl=(2, 3), allowed=((2, half), (3, half))),
            Event(vbl=(3, 4), allowed=((3, half), (4, third))),
        ),
    )
    return [one_event, shared_pair, path_three]


def check_4_prefix_count_identity() -> CheckResult:
    started = time.monotonic()
    systems = _small_systems()
    checked = 0
    seed = 0
    while checked < 200:
        system = systems[seed % len(systems)]
        stats = run_mt(system, "lowest-index", f"c4ident/{seed}", step_cap=64)
        seed += 1
        if stats.truncated or stats.t > 8:
            continue
        dag = witness_dag_of_run(system, stats)
        if not validate_wdag(dag, system.dependency_graph):
            return _result(
                "4", started, False,
                f"seed {seed - 1}: T={stats.t} run wdag invalid",
            )
        if single_sink_prefix_count(dag) != stats.t:
            return _result(
                "4", started, False,
                f"seed {seed - 1}: T={stats.t} prefixes mismatch",
            )
        # Moser-Tardos: the T one-node prefixes are pairwise distinct wdags
        if len({canonical_key(prefix(dag, (v,))) for v in dag.nodes}) != stats.t:
            return _result(
                "4", started, False,
                f"seed {seed - 1}: T={stats.t} one-node prefixes repeat",
            )
        checked += 1
    return _result(
        "4", started, True,
        f"wdags valid, identity exact and one-node prefixes distinct on {checked} runs",
    )


# --------------------------------------------------------------------------
# 5. empirical soundness of the intersection verdict

def _c4_overlap_instance() -> EventSystem:
    half = IntervalUnion(((Fraction(0), Fraction(1, 2)),))
    events = []
    for i in range(1, 5):
        nxt = i % 4 + 1
        events.append(Event(vbl=(i, nxt), allowed=((i, half), (nxt, half))))
    return EventSystem(tuple(Uniform01() for _ in range(4)), tuple(events))


def check_5_verdict_soundness(trials: int = 100_000) -> CheckResult:
    started = time.monotonic()
    system = _c4_overlap_instance()
    g = system.dependency_graph
    p = ProbabilityVector(tuple(system.event_probability(i) for i in range(1, 5)))
    matching = Matching(frozenset({(1, 2), (3, 4)}))
    inter = measure_pair_intersections(system)
    delta = {pair: inter[pair] for pair in matching.pairs}
    eps = Fraction(1, 8)
    setting = IntersectionSetting(g, p, matching, delta)
    verdict = intersection_lll_verdict(setting, eps, delta_source="measured")
    if not verdict.accepted:
        return _result("5", started, False, "instance unexpectedly rejected")
    bound = verdict.bound_on_expected_steps
    lines = [f"bound 4/eps={float(bound):.1f}"]
    ok = True
    for rule in ("lowest-index", "uniform-violated", "recent-neighbor"):
        est = estimate_expected_steps(system, rule, trials, f"c5/{rule}")
        this_ok = est.truncated_runs == 0 and est.mean <= float(bound) + 3 * est.stderr
        ok = ok and this_ok
        lines.append(
            f"{rule}: mean={est.mean:.3f} se={est.stderr:.4f}"
            + ("" if this_ok else " FAIL")
        )
    return _result("5", started, ok, " | ".join(lines))


# --------------------------------------------------------------------------
# 6. injection and weight identities

def _check_injection_on(graph, matching, p, delta, cap) -> tuple[bool, str]:
    rv = reduced_vectors(IntersectionSetting(graph, p, matching, delta))
    hom = homomorphic_graph(graph, matching, p, rv.p_minus, rv.p_prime)
    pwdags = list(enumerate_pwdags(graph, cap))
    # one image per (wdag, partition) pair: valid single-sink, injective
    # across all pairs, and its weights dominate the tighter weight of d
    seen: dict = {}
    pairs = 0
    for d in pwdags:
        total = Fraction(0)
        for s in partitions_psi(d, matching):
            img = map_h(d, s, matching, hom)
            if not validate_wdag(img, hom.graph) or len(img.sinks()) != 1:
                return False, f"image invalid for {d}"
            key = canonical_key(img)
            if key in seen:
                return False, f"collision between {seen[key]} and {(d, s)}"
            seen[key] = (d, s)
            total += wdag_weight(img, hom.p_m)
            pairs += 1
        if tighter_weight(d, p, rv.p_prime, matching) > total:
            return False, f"tighter weight not dominated for {d}"
    # label splitting is a bijection per node count: every image is a
    # single-sink pwdag of the split graph, no image repeats, and there are
    # as many images of each size as the split graph has pwdags
    split_seen = set()
    split_sizes = [0] * (cap + 1)
    for d in pwdags:
        for bits in product((0, 1), repeat=len(matched_nodes(d, matching))):
            img = split_labels(d, bits, matching, hom)
            if not validate_wdag(img, hom.graph) or len(img.sinks()) != 1:
                return False, f"split_labels image invalid for {d}"
            key = canonical_key(img)
            if key in split_seen:
                return False, "split_labels image repeated"
            split_seen.add(key)
            split_sizes[img.n] += 1
    counts = weight_sums(hom.graph, ProbabilityVector.uniform(hom.graph.m, 1), cap).by_size
    if any(split_sizes[n] != counts.get(n, 0) for n in range(1, cap + 1)):
        return False, "split_labels images do not exhaust the split graph's pwdags"
    # per-size weight equality
    lhs = weight_sums(hom.graph, hom.p_m, cap).by_size
    rhs = weight_sums(graph, rv.p_minus, cap).by_size
    if lhs != rhs:
        return False, f"per-size weights differ: {lhs} vs {rhs}"
    return True, f"{len(pwdags)} pwdags, {pairs} partition pairs"


def check_6_injection_and_weights() -> CheckResult:
    started = time.monotonic()
    k2 = DependencyGraph.from_edges(2, [(1, 2)])
    ok1, d1 = _check_injection_on(
        k2,
        Matching(frozenset({(1, 2)})),
        ProbabilityVector((Fraction(1, 4), Fraction(1, 5))),
        {(1, 2): Fraction(1, 8)},
        cap=4,
    )
    c4 = _cycle(4)
    ok2, d2 = _check_injection_on(
        c4,
        Matching(frozenset({(1, 2)})),
        ProbabilityVector(
            (Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(1, 7))
        ),
        {(1, 2): Fraction(1, 9)},
        cap=5,
    )
    elapsed = time.monotonic() - started
    ok = ok1 and ok2 and elapsed < 60.0
    detail = f"single-edge: {d1} | matched-C4: {d2} ({elapsed:.1f}s)"
    return _result("6", started, ok, detail)


# --------------------------------------------------------------------------
# 7. compound-event probability never beats the product minus squared overlap

def _random_masses(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    cuts = sorted(rng.randint(1, 63) for _ in range(size - 1))
    xs = [Fraction(b - a, 64) for a, b in zip([0] + cuts, cuts + [64])]
    return tuple(xs)


def check_7_compound_event_bound(cases: int = 100) -> CheckResult:
    started = time.monotonic()
    rng = random.Random(20240711)
    for case in range(cases):
        nx, ny, nz = (rng.randint(1, 3) for _ in range(3))
        mx, my, mz = _random_masses(rng, nx), _random_masses(rng, ny), _random_masses(rng, nz)
        event_a = {(x, y) for x in range(nx) for y in range(ny) if rng.random() < 0.5}
        event_b = {(y, z) for y in range(ny) for z in range(nz) if rng.random() < 0.5}
        pr_a = sum((mx[x] * my[y] for x, y in event_a), Fraction(0))
        pr_b = sum((my[y] * mz[z] for y, z in event_b), Fraction(0))
        pr_ab = sum(
            (
                mx[x] * my[y] * mz[z]
                for x in range(nx)
                for y in range(ny)
                for z in range(nz)
                if (x, y) in event_a and (y, z) in event_b
            ),
            Fraction(0),
        )
        compound = Fraction(0)
        for x1 in range(nx):
            for y1 in range(ny):
                for y2 in range(ny):
                    for z1 in range(nz):
                        if (x1, y1) not in event_a or (y2, z1) not in event_b:
                            continue
                        if (x1, y2) in event_a and (y1, z1) in event_b:
                            continue
                        compound += mx[x1] * my[y1] * my[y2] * mz[z1]
        if compound > pr_a * pr_b - pr_ab * pr_ab:
            return _result(
                "7", started, False,
                f"case {case}: {compound} > {pr_a * pr_b - pr_ab * pr_ab}",
            )
    return _result("7", started, True, f"{cases} exhaustive cases, exact")


# --------------------------------------------------------------------------
# 8. resampling-table consistency probabilities survive the auxiliary table

def _single_edge_system() -> EventSystem:
    fair = FiniteVariable((Fraction(1, 2), Fraction(1, 2)))
    zero = ValueSet(frozenset({0}))
    return EventSystem(
        (fair, fair),
        (
            Event(vbl=(1,), allowed=((1, zero),)),
            Event(vbl=(1, 2), allowed=((1, zero), (2, zero))),
        ),
    )


def check_8_consistency_equality() -> CheckResult:
    started = time.monotonic()
    system = _single_edge_system()
    g = system.dependency_graph
    matching = Matching(frozenset({(1, 2)}))
    groups = group_pwdags(g, 3)
    x_cells = [(j, k) for j in (1, 2) for k in (1, 2, 3)]
    y_cells = [1, 2, 3]
    for (i, r), members in sorted(groups.items()):
        if r > 2:
            continue
        count_x = 0
        count_xy = 0
        for bits in product((0, 1), repeat=len(x_cells)):
            table = FixedResamplingTable(dict(zip(x_cells, bits)))
            x_hit = any(consistent_with_table(d, system, table) for d in members)
            if x_hit:
                count_x += 1
            for ybits in product((1, 2), repeat=len(y_cells)):
                aux = FixedAuxiliaryTable(
                    {((1, 2), k): v for k, v in zip(y_cells, ybits)}
                )
                xy_hit = any(
                    consistent_with_tables(d, system, table, aux, matching)
                    for d in members
                )
                if xy_hit:
                    count_xy += 1
                if x_hit:
                    for d in members:
                        if not consistent_with_table(d, system, table):
                            continue
                        repaired = repair_to_consistent(d, system, table, aux, matching)
                        if not consistent_with_tables(
                            repaired, system, table, aux, matching
                        ):
                            return _result(
                                "8", started, False, f"repair failed in D{(i, r)}"
                            )
                        (w,) = repaired.sinks()
                        rr = sum(
                            1 for v in repaired.nodes if repaired.label(v) == i
                        )
                        if repaired.label(w) != i or rr != r:
                            return _result(
                                "8", started, False, f"repair left class D{(i, r)}"
                            )
        if count_x * (2 ** len(y_cells)) != count_xy:
            return _result(
                "8", started, False,
                f"D{(i, r)}: Pr mismatch {count_x}*8 != {count_xy}",
            )
    return _result("8", started, True, "equalities exact for r <= 2, repairs clean")


# --------------------------------------------------------------------------
# 9. elementary systems respect the overlap functional's floor

def _random_eight_cycle_system(rng: random.Random) -> EventSystem:
    def threshold() -> Fraction:
        return Fraction(rng.randint(200, 1000), 1024)

    variables = tuple(Uniform01() for _ in range(4))
    events = []
    for i in range(1, 5):
        nxt = i % 4 + 1
        events.append(
            Event(
                vbl=(i, nxt),
                allowed=(
                    (i, IntervalUnion(((Fraction(0), threshold()),))),
                    (nxt, IntervalUnion(((Fraction(0), threshold()),))),
                ),
            )
        )
    return EventSystem(variables, tuple(events))


def check_9_overlap_floor(cases: int = 100) -> CheckResult:
    started = time.monotonic()
    rng = random.Random(991)
    for case in range(cases):
        system = _random_eight_cycle_system(rng)
        b = system.bipartite()
        g = system.dependency_graph
        p = ProbabilityVector(
            tuple(system.event_probability(i) for i in range(1, 5))
        )
        lhs = sum((pair_intersection(system, u, v) for u, v in sorted(g.edges)), Fraction(0))
        value, _ = digamma(b, p)
        # sqrt(m) * Delta_D * Delta_B^2 with m=4: the root is exact
        rhs_hi = 2 * base_graph(b).max_degree() * b.max_event_degree() ** 2 * value.hi
        if lhs < rhs_hi:
            return _result(
                "9", started, False,
                f"case {case}: sum {float(lhs):.6f} < floor {float(rhs_hi):.6f}",
            )
    return _result("9", started, True, f"{cases} random elementary systems, exact sums")


# --------------------------------------------------------------------------
# 10. transfer along shortest paths stays out of the region

def check_10_transfer(cases: int = 50) -> CheckResult:
    started = time.monotonic()
    rng = random.Random(777)
    graphs = [_cycle(4), _cycle(5)]
    done = 0
    while done < cases:
        g = graphs[done % 2]
        direction = ProbabilityVector(
            tuple(Fraction(rng.randint(512, 1024), 1024) for _ in range(g.m))
        )
        scale = boundary_scale(g, direction, Fraction(1, 2**16))
        bump = 1 + Fraction(rng.randint(1, 64), 2048)
        vals = tuple(min(x * scale.hi * bump, Fraction(1)) for x in direction.values)
        p = ProbabilityVector(vals)
        if shearer_membership(g, p.values):
            continue
        first = rng.randint(1, g.m)
        last = rng.randint(1, g.m)
        if first == last:
            continue
        path = shortest_path(g, first, last)
        factor = (1 - p[first]) / p[last]
        for mid in path[1:-1]:
            factor *= (1 - p[mid]) / p[mid]
        headroom = (1 - p[first]) / factor
        q = min(p[last], headroom) * Fraction(rng.randint(1, 7), 8)
        if q <= 0 or q >= p[last]:
            continue
        moved = transfer_along_path(g, p, path, q)
        if shearer_membership(g, moved.values):
            return _result(
                "10", started, False,
                f"case {done}: transferred vector re-entered the region",
            )
        done += 1
    return _result("10", started, True, f"{cases} transfers stayed out of the region")


# --------------------------------------------------------------------------
# 11. gap sanity

def check_11_gap_sanity() -> CheckResult:
    started = time.monotonic()
    k3 = DependencyGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    c4 = _cycle(4)
    lines = []
    ok = True

    for g, inside in ((k3, Fraction(1, 4)), (c4, Fraction(1, 4))):
        gap = l1_gap(g, ProbabilityVector.uniform(g.m, inside), Fraction(1, 256))
        marker_ok = gap.lower == gap.upper == Fraction(-1)
        ok = ok and marker_ok
        lines.append(f"in-bound marker m={g.m}: {'ok' if marker_ok else 'FAIL'}")

    claim = Fraction(1, 256)
    for g in (k3, c4):
        scale = boundary_scale(
            g, ProbabilityVector.uniform(g.m, 1), Fraction(1, 4096)
        )
        gap = l1_gap(g, ProbabilityVector.uniform(g.m, scale.hi), Fraction(1, 1024))
        boundary_ok = Fraction(0) <= gap.upper <= claim
        ok = ok and boundary_ok
        lines.append(
            f"boundary m={g.m}: d<= {float(gap.upper):.5f}"
            + ("" if boundary_ok else " FAIL")
        )

    p = ProbabilityVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))
    gap = l1_gap(k3, p, Fraction(1, 256))
    third_ok = gap.lower <= Fraction(1, 6) <= gap.upper
    ok = ok and third_ok
    lines.append(
        f"K3 interval [{float(gap.lower):.5f},{float(gap.upper):.5f}] contains 1/6: "
        + ("yes" if third_ok else "NO")
    )
    return _result("11", started, ok, " | ".join(lines))


# --------------------------------------------------------------------------

CHECKS: tuple[tuple[str, str, Callable[[], CheckResult]], ...] = (
    ("1", "extremal cycle q-values", check_1_extremal_cycle_values),
    ("2", "lattice gap table", check_2_lattice_gaps),
    ("3", "cycle derivative and perturbed membership", check_3_cycle_derivative),
    ("4", "run length equals single-sink prefix count", check_4_prefix_count_identity),
    ("5", "verdict soundness under all selection rules", check_5_verdict_soundness),
    ("6", "injection and weight identities", check_6_injection_and_weights),
    ("7", "compound-event probability bound", check_7_compound_event_bound),
    ("8", "table-consistency probability equality", check_8_consistency_equality),
    ("9", "overlap functional floor on elementary systems", check_9_overlap_floor),
    ("10", "out-of-region transfer stability", check_10_transfer),
    ("11", "gap sanity", check_11_gap_sanity),
)


def run_check(criterion_id: str) -> CheckResult:
    for cid, _, fn in CHECKS:
        if cid == criterion_id:
            return fn()
    raise KeyError(f"unknown acceptance criterion {criterion_id!r}")


def run_all() -> list[CheckResult]:
    return [fn() for _, _, fn in CHECKS]
