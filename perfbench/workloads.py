"""The four benchmark workloads.

A workload is a list of operations built from the seed. One operation is one
call into a public function of the workbench, either a module function or a
`cli.dispatch` command with its output captured. Every call looks the
function up on its module when it runs, so the tracer's wrappers see it.

Each operation carries a check. The check compares the output with the
independent computations in `reference.py`, or with properties the method
must have; it never compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

import reference as ref
from lll_workbench import cli, mt_engine, shearer, wdag
from lll_workbench.graphs import DependencyGraph, Matching
from lll_workbench.mt_engine import (
    Event,
    EventSystem,
    FiniteVariable,
    IntervalUnion,
    Uniform01,
    ValueSet,
)
from lll_workbench.shearer import ProbabilityVector


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


class OpFailed(Exception):
    """The operation did not complete: an exception, or exit code 2 or 3."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # times the operation appears in a round: short operations appear more
    # often, so their latency is a median over more repetitions
    repeat: int = 1


@dataclass
class Workload:
    ops: list[Op]
    # checks over the whole first round, run after every op's own check
    round_checks: list[Callable[[], None]] = field(default_factory=list)


def _graph(m: int, edges) -> DependencyGraph:
    return DependencyGraph.from_edges(m, edges)


def _cycle(n: int) -> DependencyGraph:
    return _graph(n, ref.cycle_edges(n))


def _dyadic(x: float, bits: int, up: bool) -> Fraction:
    scaled = x * (1 << bits)
    return Fraction(math.ceil(scaled) if up else math.floor(scaled), 1 << bits)


def cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    if code in (2, 3):
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# shared checks

def check_report(adj, values, exact_first: bool = True):
    """An in_shearer_bound report: verdict from the chain oracle, q-values of
    the empty set and singletons, and a witness that is the first failing
    independent set in size-then-lexicographic order."""
    m = len(adj)

    def check(report):
        inside = ref.in_region(adj, values)
        require(report.in_bound == inside, f"in_bound {report.in_bound}, reference {inside}")
        memo: dict = {}
        full = (1 << m) - 1
        require(report.q_values[()] == ref.z_masked(adj, values, full, memo), "q_empty differs")
        for v in range(1, m + 1):
            want = values[v - 1] * ref.z_masked(adj, values, full & ~(adj[v - 1] | 1 << (v - 1)), memo)
            require(report.q_values[(v,)] == want, f"q_{v} differs")
        if inside:
            require(report.witness is None, "witness given for an inside vector")
            return
        w = report.witness
        require(w is not None and ref.q_value(adj, values, w) <= 0, f"witness {w} has q > 0")
        if exact_first:
            for iset in ref.independent_sets_sorted(adj, len(w)):
                if iset == tuple(w):
                    break
                require(ref.q_value(adj, values, iset) > 0, f"{iset} fails before witness {w}")
        else:
            require(tuple(w) == () or report.q_values[()] > 0, "witness is not the first failing set")

    return check


def check_equals(want, what: str):
    def check(out):
        require(out == want, f"{what}: got {out}, reference {want}")

    return check


def check_member(adj, values):
    def check(out):
        want = ref.in_region(adj, values)
        require(out == want, f"membership: got {out}, reference {want}")

    return check


def check_cycle_bracket(n: int, resolution: Fraction):
    """The symmetric cycle boundary lies in [lo, hi], lo is inside, hi is not."""

    def check(scale):
        b = ref.cycle_boundary(n)
        require(not scale.clamped, "cycle bracket flagged clamped")
        require(scale.hi - scale.lo <= resolution, "bracket wider than the resolution")
        require(float(scale.lo) <= b <= float(scale.hi), f"boundary {b} outside [{scale.lo}, {scale.hi}]")
        require(ref.cycle_in_region(n, scale.lo) and not ref.cycle_in_region(n, scale.hi), "bracket ends on the wrong sides")

    return check


def check_bracket(adj, direction, resolution: Fraction):
    """lo * direction is inside (or lo = 0), hi * direction is not, and the
    bracket is no wider than the resolution."""

    def check(scale):
        require(scale.hi - scale.lo <= resolution, "bracket wider than the resolution")
        require(scale.lo == 0 or ref.in_region(adj, [scale.lo * d for d in direction]), "lo end outside the region")
        require(not ref.in_region(adj, [scale.hi * d for d in direction]), "hi end inside the region")

    return check


# ---------------------------------------------------------------------------
# region-large

def region_large(rng: random.Random, workdir: str) -> Workload:
    ops: list[Op] = []
    quarter = Fraction(1, 4)
    for n in (16, 18, 20):
        g = _cycle(n)
        adj = ref.adjacency_masks(n, ref.cycle_edges(n))
        p = ProbabilityVector.uniform(n, quarter)
        ones = ProbabilityVector.uniform(n, 1)
        want_q0 = ref.cycle_q_empty(n, quarter)
        require(want_q0 == Fraction(2, 2**n), "transfer matrix disagrees with 2^(1-n)")
        want_bound = ref.cycle_resample_bound(n, quarter)
        require(want_bound == Fraction(n * (n - 1), 2), "transfer matrix disagrees with n(n-1)/2")
        ops += [
            Op(f"shearer_membership C{n} p=1/4",
               lambda g=g, p=p: shearer.shearer_membership(g, p.values),
               check_equals(ref.cycle_in_region(n, quarter), "membership")),
            Op(f"in_shearer_bound C{n} p=1/4",
               lambda g=g, p=p: shearer.in_shearer_bound(g, p),
               check_report(adj, p.values, exact_first=False)),
            Op(f"expected_resample_bound C{n} p=1/4",
               lambda g=g, p=p: shearer.expected_resample_bound(g, p),
               check_equals(want_bound, "expected_resample_bound")),
            Op(f"boundary_scale C{n} 1/64",
               lambda g=g, d=ones: shearer.boundary_scale(g, d, Fraction(1, 64)),
               check_cycle_bracket(n, Fraction(1, 64))),
        ]
    g22 = _cycle(22)
    ops.append(Op("shearer_membership C22 p=1/4",
                  lambda: shearer.shearer_membership(g22, (quarter,) * 22),
                  check_equals(ref.cycle_in_region(22, quarter), "membership")))
    ops.append(Op("boundary_scale C22 1/64",
                  lambda: shearer.boundary_scale(g22, ProbabilityVector.uniform(22, 1), Fraction(1, 64)),
                  check_cycle_bracket(22, Fraction(1, 64))))
    for n in (16, 18, 20, 22, 24):
        g = _cycle(n)
        adj = ref.adjacency_masks(n, ref.cycle_edges(n))
        beyond = _dyadic(ref.cycle_boundary(n) * (1 + 1 / 64), 12, up=True)
        p = ProbabilityVector.uniform(n, beyond)
        ops += [
            Op(f"shearer_membership C{n} beyond",
               lambda g=g, p=p: shearer.shearer_membership(g, p.values),
               check_equals(ref.cycle_in_region(n, beyond), "membership")),
            Op(f"in_shearer_bound C{n} beyond",
               lambda g=g, p=p: shearer.in_shearer_bound(g, p),
               check_report(adj, p.values, exact_first=False)),
        ]

    # Random graphs, vectors just inside and just outside along a random ray.
    # Each graph is drawn until it has 600-900 independent sets, so the
    # walk an inside vector costs is alike for all seeds, and every random
    # operation stays well below the eleven cycle operations that set the
    # tail latency. The median operation falls among the sixteen inside
    # walks, whose costs still differ by a third from graph to graph; with
    # sixteen of them, each twice a round, that median moves little between
    # seeds.
    for k in range(16):
        m = 14 + k % 7
        while True:
            density = rng.uniform(0.1, 0.5)
            edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1) if rng.random() < density]
            adj = ref.adjacency_masks(m, edges)
            if 600 <= ref.z_masked(adj, [-1] * m, (1 << m) - 1, {}) <= 900:
                break
        g = _graph(m, edges)
        direction = ProbabilityVector(tuple(Fraction(rng.randint(4, 8), 8) for _ in range(m)))
        t = ref.float_boundary_scale(adj, [float(d) for d in direction.values])
        t_in = _dyadic(t * (1 - 1 / 32), 10, up=False)
        t_out = min(_dyadic(t * (1 + 1 / 32), 10, up=True), 1 / max(direction.values))
        inside = tuple(t_in * d for d in direction.values)
        outside = ProbabilityVector(tuple(t_out * d for d in direction.values))
        ops += [
            Op(f"shearer_membership G{k} m={m} inside",
               lambda g=g, v=inside: shearer.shearer_membership(g, v),
               check_member(adj, inside), repeat=2),
            Op(f"in_shearer_bound G{k} m={m} outside",
               lambda g=g, p=outside: shearer.in_shearer_bound(g, p),
               check_report(adj, outside.values)),
            Op(f"boundary_scale G{k} m={m} 1/64",
               lambda g=g, d=direction: shearer.boundary_scale(g, d, Fraction(1, 64)),
               check_bracket(adj, direction.values, Fraction(1, 64)), repeat=2),
        ]

    # shearer-check enumerates the independent sets twice (the report, then
    # expected_resample_bound again); C22 shows it at 1.6 s a call, where C24
    # would take 4.5 s and triple the round
    path = os.path.join(workdir, "c22.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"m": 22, "edges": ref.cycle_edges(22)}, handle)

    def check_cli(out):
        code, text = out
        doc = json.loads(text)
        require(code == 0 and doc["in_bound"] is True, "C22 at 1/4 rejected")
        require(Fraction(doc["q_values"]["()"]) == ref.cycle_q_empty(22, quarter), "q_empty(C22) differs")
        require(Fraction(doc["expected_resample_bound"]) == 22 * 21 // 2, "C22 resample bound differs from 231")

    ops.append(Op("cli shearer-check C22",
                  lambda: cli_call(["shearer-check", "--graph", path, "--p", ",".join(["1/4"] * 22)]),
                  check_cli))
    return Workload(ops)


# ---------------------------------------------------------------------------
# resample-long

def _extremal_ref(n: int, a: Fraction) -> ref.RefSystem:
    events = [ref.box_event({i: [(0, a)], i % n + 1: [(a, 1)]}) for i in range(1, n + 1)]
    return ref.RefSystem([None] * n, events)


def _c4_overlap() -> tuple[EventSystem, ref.RefSystem]:
    half = Fraction(1, 2)
    iv = IntervalUnion(((Fraction(0), half),))
    events, ref_events = [], []
    for i in range(1, 5):
        nxt = i % 4 + 1
        events.append(Event(vbl=(i, nxt), allowed=((i, iv), (nxt, iv))))
        ref_events.append(ref.box_event({i: [(0, half)], nxt: [(0, half)]}))
    system = EventSystem(tuple(Uniform01() for _ in range(4)), tuple(events))
    return system, ref.RefSystem([None] * 4, ref_events)


def check_run(system: ref.RefSystem, rule: str, seed):
    def check(stats):
        require(not stats.truncated, "run truncated")
        _, final = ref.replay(system, rule, seed, stats.sequence)
        require(stats.final_assignment == final, "final assignment differs from the replay")
        require(stats.t == len(stats.sequence), "T differs from the sequence length")
        counts: dict[int, int] = {}
        for i in stats.sequence:
            counts[i] = counts.get(i, 0) + 1
        require(stats.per_event_counts == counts, "per-event counts differ")

    return check


def check_estimate(system: ref.RefSystem, rule: str, seed, trials: int, expected=None, ceiling=None):
    """Per-trial counts replayed for the first trials; mean and stderr from
    the counts; the mean within five standard errors of a closed form, or
    below a Shearer bound plus five standard errors."""

    def check(est):
        require(est.trials == trials and len(est.per_trial) == trials, "trial count differs")
        require(est.truncated_runs == 0, "truncated runs")
        require([row[0] for row in est.per_trial] == list(range(trials)), "trial indices differ")
        for index in range(2):
            seq, _ = ref.replay(system, rule, f"{seed}/{index}")
            require(est.per_trial[index][1] == len(seq), f"trial {index}: T differs from the replay")
        counts = [row[1] for row in est.per_trial]
        mean = sum(counts) / trials
        var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
        require(math.isclose(est.mean, mean, rel_tol=1e-12), "mean differs from the counts")
        require(math.isclose(est.stderr, math.sqrt(var / trials), rel_tol=1e-9), "stderr differs")
        if expected is not None:
            require(ref.mean_within(est.mean, est.stderr, float(expected)),
                    f"mean {est.mean} not within 5 SE ({est.stderr}) of {float(expected)}")
        if ceiling is not None:
            require(est.mean <= float(ceiling) + 5 * est.stderr, f"mean {est.mean} above bound {float(ceiling)}")

    return check


def resample_long(rng: random.Random, workdir: str) -> Workload:
    """Operation mix: seven estimates, 24 single runs of the extremal C12 and
    twelve short runs, so the median operation is a C12 run and the slowest
    are estimates, whatever the seed."""
    ops: list[Op] = []
    half = Fraction(1, 2)
    tag = rng.getrandbits(32)

    def estimate(name, system, rsys, rule, trials, seed, **want):
        ops.append(Op(f"estimate_expected_steps {name} {rule} x{trials}",
                      lambda: mt_engine.estimate_expected_steps(system, rule, trials, seed, workers=1),
                      check_estimate(rsys, rule, seed, trials, **want)))

    def runs(name, system, rsys, rule, seeds):
        for s in seeds:
            ops.append(Op(f"run_mt {name} {rule} {s}",
                          lambda s=s: mt_engine.run_mt(system, rule, s),
                          check_run(rsys, rule, s), repeat=3))

    # Extremal cycles: the length of a run has a heavy tail, so these runs
    # take fixed seeds; a sample of a few dozen runs drawn per workload seed
    # would move the run's work by more than the bound between seeds.
    for n, trials in ((12, 240), (40, 6)):
        system = mt_engine.extremal_cycle_instance(n, half)
        rsys = _extremal_ref(n, half)
        estimate(f"C{n}", system, rsys, "lowest-index", trials, f"ext{n}",
                 expected=Fraction(n * (n - 1), 2))
    c12 = mt_engine.extremal_cycle_instance(12, half)
    runs("C12", c12, _extremal_ref(12, half), "lowest-index", [f"run/{k}" for k in range(24)])

    # The criterion-5 C4 overlap instance under every rule. Its p = 1/4 lies
    # inside the region, so the Shearer bound sum q_i/q_0 = 6 caps the mean.
    c4, c4_ref = _c4_overlap()
    for rule in mt_engine.SELECTION_RULES:
        estimate("C4-overlap", c4, c4_ref, rule, 400, f"{tag}/c4/{rule}",
                 ceiling=ref.cycle_resample_bound(4, Fraction(1, 4)))
        runs("C4-overlap", c4, c4_ref, rule, [f"c4run/{k}" for k in range(2)])

    # Finite variables: six uniform 3-valued variables on a cycle. Event i
    # wants x_i = a_i and x_{i+1} = b_i with b_i != a_{i+1}, so neighbouring
    # events exclude each other; the seed draws the values, which leaves the
    # law of the run unchanged (p = 1/9 for every event).
    third = (Fraction(1, 3),) * 3
    wants = [rng.sample(range(3), 2) for _ in range(6)]  # (a_i, c_i): c_i is the value b_{i-1}
    fin_events, fin_ref = [], []
    for i in range(1, 7):
        nxt = i % 6 + 1
        a, b = wants[i - 1][0], wants[nxt - 1][1]
        fin_events.append(Event(vbl=(i, nxt), allowed=((i, ValueSet(frozenset({a}))), (nxt, ValueSet(frozenset({b}))))))
        fin_ref.append(ref.value_event({i: {a}, nxt: {b}}))
    finite = EventSystem(tuple(FiniteVariable(third) for _ in range(6)), tuple(fin_events))
    finite_ref = ref.RefSystem([third] * 6, fin_ref)
    estimate("finite-C6", finite, finite_ref, "lowest-index", 300, f"{tag}/fin",
             ceiling=ref.cycle_resample_bound(6, Fraction(1, 9)))
    runs("finite-C6", finite, finite_ref, "lowest-index", [f"finrun/{k}" for k in range(3)])

    # Predicate events: four uniform 5-valued variables, event i holds when
    # x_i = sigma(x_{i+1}) for a seeded permutation sigma, probability 1/5.
    sigma = list(range(5))
    rng.shuffle(sigma)
    uniform5 = (Fraction(1, 5),) * 5

    def pred_event(i: int, nxt: int):
        return lambda a: a[i] == sigma[a[nxt]]

    pred_events, pred_ref = [], []
    for i in range(1, 5):
        nxt = i % 4 + 1
        pred_events.append(Event(vbl=(i, nxt), predicate=pred_event(i, nxt)))
        pred_ref.append(((i, nxt), pred_event(i, nxt)))
    predicate = EventSystem(tuple(FiniteVariable(uniform5) for _ in range(4)), tuple(pred_events))
    predicate_ref = ref.RefSystem([uniform5] * 4, pred_ref)
    estimate("predicate-C4", predicate, predicate_ref, "lowest-index", 300, f"{tag}/pred",
             ceiling=ref.cycle_resample_bound(4, Fraction(1, 5)))
    runs("predicate-C4", predicate, predicate_ref, "lowest-index", [f"predrun/{k}" for k in range(3)])
    return Workload(ops)


def _resample_bound(adj, p) -> Fraction:
    full = (1 << len(adj)) - 1
    memo: dict = {}
    q0 = ref.z_masked(adj, p, full, memo)
    return sum(
        (p[v] * ref.z_masked(adj, p, full & ~(adj[v] | 1 << v), memo) for v in range(len(adj))),
        Fraction(0),
    ) / q0


# ---------------------------------------------------------------------------
# wdag-enum

def _relabelled(m: int, edges, rng: random.Random):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    new = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    return _graph(m, new), ref.adjacency_masks(m, new)


def check_pwdags(adj, cap: int):
    def check(ds):
        counts = ref.pwdag_sums(adj, [1] * len(adj), cap)
        by_size: dict[int, int] = {}
        keys = set()
        for d in ds:
            require(ref.wdag_is_proper(d.labels, d.arcs, adj), f"improper pwdag {d}")
            keys.add(ref.wdag_key(d.labels, d.arcs))
            by_size[d.n] = by_size.get(d.n, 0) + 1
        require(len(keys) == len(ds), "a structural class is listed twice")
        require(by_size == {k: v for k, v in counts.items() if v}, f"counts by size {by_size}, stable-set sequences {counts}")

    return check


def check_groups(adj, cap: int):
    whole = check_pwdags(adj, cap)

    def check(groups):
        flat = []
        for (i, r), ds in groups.items():
            for d in ds:
                (sink,) = [v for v in range(1, d.n + 1) if all(a != v for a, _ in d.arcs)]
                require(d.labels[sink - 1] == i, "group sink label differs")
                require(d.labels.count(i) == r, "group label count differs")
            flat += ds
        whole(flat)

    return check


def check_sums(adj, p, cap: int):
    def check(ws):
        want = ref.pwdag_sums(adj, p, cap)
        require(ws.by_size == want, f"weight sums {ws.by_size}, stable-set sequences {want}")
        require(ws.cumulative == sum(want.values()) and ws.node_cap == cap, "cumulative differs")

    return check


def _split_names(m: int, matching: Matching) -> list[str]:
    names = []
    for i in range(1, m + 1):
        names += [f"{i}+", f"{i}-"] if any(i in pair for pair in matching.pairs) else [str(i)]
    return names


def _criterion6(g: DependencyGraph, adj, matching: Matching, p: tuple, delta: Fraction, cap: int, ops, checks):
    """Criterion-6 maps on one graph: the split graph, the 4-way partitions,
    the partition map and label splitting, each call one operation."""
    (i0, j0), = matching.pairs
    pv = ProbabilityVector(p)
    minus, prime = list(p), list(p)
    for a, b in ((i0, j0), (j0, i0)):
        minus[a - 1] = p[a - 1] - delta * delta / 17
        prime[a - 1] = p[a - 1] * (1 - delta * delta / (8 * p[a - 1] * p[b - 1]))
    p_minus, p_prime = ProbabilityVector(tuple(minus)), ProbabilityVector(tuple(prime))
    names = _split_names(g.m, matching)
    index = {nm: k for k, nm in enumerate(names)}
    hom_edges = set()
    for u, v in g.edges:
        group = [index[nm] + 1 for nm in names if nm.rstrip("+-") in (str(u), str(v))]
        hom_edges |= {(a, b) for a in group for b in group if a < b}
    hom_adj = ref.adjacency_masks(len(names), hom_edges)

    def check_hom(hom):
        require(list(hom.names) == names, "split names differ")
        require(hom.graph.edges == frozenset(hom_edges), "split graph edges differ")
        want = [prime[int(nm[:-1]) - 1] if nm.endswith("+") else
                minus[int(nm[:-1]) - 1] - prime[int(nm[:-1]) - 1] if nm.endswith("-") else
                minus[int(nm) - 1] for nm in names]
        require(list(hom.p_m.values) == want, "split weights differ")

    ops.append(Op(f"homomorphic_graph m={g.m}",
                  lambda: wdag.homomorphic_graph(g, matching, pv, p_minus, p_prime), check_hom))
    hom = wdag.homomorphic_graph(g, matching, pv, p_minus, p_prime)
    pwdags = list(wdag.enumerate_pwdags(g, cap))
    matched = {i0, j0}
    map_keys: set = set()
    split_keys: dict[int, set] = {}

    def check_parts(d):
        s_nodes = frozenset(v for v in range(1, d.n + 1) if d.labels[v - 1] in matched)

        def check(parts):
            forced = frozenset.intersection(*(s.s1 for s in parts))
            require(len(parts) == 4 ** len(s_nodes - forced), "partition count is not 4^|free|")
            require(len(set(parts)) == len(parts), "repeated partition")
            for s in parts:
                require(s.s1 | s.s2 | s.s3 | s.s4 == s_nodes, "partition misses a matched node")
                require(sum(map(len, (s.s1, s.s2, s.s3, s.s4))) == len(s_nodes), "blocks overlap")

        return check

    def check_image(d, s):
        """A proper wdag of the split graph, new to the run, whose arcs
        between copies of different nodes follow the original wdag's
        lexicographically least topological order."""
        pos = {v: k for k, v in enumerate(ref.least_topological_order(d.n, d.arcs))}
        extra = sorted(s.s3 | s.s4)

        def origin(x: int) -> int:
            return x if x <= d.n else extra[x - d.n - 1]

        def check(img):
            require(ref.wdag_is_proper(img.labels, img.arcs, hom_adj), f"map_h image improper: {img}")
            for a in range(1, len(img.labels) + 1):
                for b in range(1, len(img.labels) + 1):
                    la, lb = img.labels[a - 1], img.labels[b - 1]
                    conflict = la == lb or hom_adj[la - 1] >> (lb - 1) & 1
                    if conflict and origin(a) != origin(b) and pos[origin(a)] < pos[origin(b)]:
                        require((a, b) in img.arcs, f"map_h arc ({a},{b}) against the topological order")
            key = ref.wdag_key(img.labels, img.arcs)
            require(key not in map_keys, "map_h is not injective")
            map_keys.add(key)

        return check

    def check_split(d):
        def check(img):
            require(img.arcs == d.arcs and len(img.labels) == d.n, "split changed the arcs")
            for v in range(1, d.n + 1):
                require(names[img.labels[v - 1] - 1].rstrip("+-") == str(d.labels[v - 1]), "split moved a label")
            require(ref.wdag_is_proper(img.labels, img.arcs, hom_adj), "split image improper")
            key = ref.wdag_key(img.labels, img.arcs)
            require(key not in split_keys.setdefault(d.n, set()), "split_labels image repeated")
            split_keys[d.n].add(key)

        return check

    for d in pwdags:
        ops.append(Op(f"partitions_psi m={g.m}", lambda d=d: list(wdag.partitions_psi(d, matching)), check_parts(d)))
        for s in wdag.partitions_psi(d, matching):
            ops.append(Op(f"map_h m={g.m}", lambda d=d, s=s: wdag.map_h(d, s, matching, hom), check_image(d, s)))
        free = sum(1 for lab in d.labels if lab in matched)
        for bits in product((0, 1), repeat=free):
            ops.append(Op(f"split_labels m={g.m}", lambda d=d, b=bits: wdag.split_labels(d, b, matching, hom), check_split(d)))

    def check_split_onto():
        counts = ref.pwdag_sums(hom_adj, [1] * len(names), cap)
        got = {n: len(keys) for n, keys in split_keys.items()}
        require(got == {n: c for n, c in counts.items() if c}, f"split images {got}, split-graph pwdags {counts}")

    checks.append(check_split_onto)


def wdag_enum(rng: random.Random, workdir: str) -> Workload:
    ops: list[Op] = []
    checks: list[Callable[[], None]] = []
    k3_edges = [(1, 2), (2, 3), (1, 3)]
    k3, k3_adj = _graph(3, k3_edges), ref.adjacency_masks(3, k3_edges)
    c5, c5_adj = _relabelled(5, ref.cycle_edges(5), rng)
    c4, c4_adj = _relabelled(4, ref.cycle_edges(4), rng)
    p4, p4_adj = _relabelled(4, [(1, 2), (2, 3), (3, 4)], rng)

    def pvec(m: int) -> tuple[Fraction, ...]:
        # a seeded order of fixed values, so the Fraction arithmetic costs
        # the same for every seed
        values = [Fraction(k, 64) for k in range(9, 9 + 2 * m, 2)]
        rng.shuffle(values)
        return tuple(values)

    ops.append(Op("enumerate_pwdags C5 cap 7", lambda: list(wdag.enumerate_pwdags(c5, 7)), check_pwdags(c5_adj, 7)))
    ops.append(Op("enumerate_pwdags K3 cap 6", lambda: list(wdag.enumerate_pwdags(k3, 6)), check_pwdags(k3_adj, 6), repeat=2))
    ops.append(Op("enumerate_pwdags C4 cap 6", lambda: list(wdag.enumerate_pwdags(c4, 6)), check_pwdags(c4_adj, 6), repeat=2))
    ops.append(Op("enumerate_pwdags P4 cap 6", lambda: list(wdag.enumerate_pwdags(p4, 6)), check_pwdags(p4_adj, 6), repeat=2))
    ops.append(Op("group_pwdags C4 cap 6", lambda: wdag.group_pwdags(c4, 6), check_groups(c4_adj, 6), repeat=2))
    ops.append(Op("group_pwdags P4 cap 6", lambda: wdag.group_pwdags(p4, 6), check_groups(p4_adj, 6), repeat=2))
    ops.append(Op("group_pwdags K3 cap 6", lambda: wdag.group_pwdags(k3, 6), check_groups(k3_adj, 6), repeat=2))
    ops.append(Op("enumerate_pwdags C5 cap 5", lambda: list(wdag.enumerate_pwdags(c5, 5)), check_pwdags(c5_adj, 5), repeat=2))
    ops.append(Op("group_pwdags C5 cap 5", lambda: wdag.group_pwdags(c5, 5), check_groups(c5_adj, 5), repeat=2))
    # fourteen operations of 0.1 s or more, so the tail latency (the eleventh
    # slowest operation) falls among several of about the same cost
    for name, g, adj, cap in (("C4", c4, c4_adj, 7), ("C5", c5, c5_adj, 6), ("C5", c5, c5_adj, 5),
                              ("K3", k3, k3_adj, 6), ("P4", p4, p4_adj, 6)):
        p = pvec(g.m)
        ops.append(Op(f"weight_sums {name} cap {cap}",
                      lambda g=g, p=p, cap=cap: wdag.weight_sums(g, ProbabilityVector(p), cap),
                      check_sums(adj, p, cap), repeat=1 if cap == 7 else 2))

    k2_edges = [(1, 2)]
    _criterion6(_graph(2, k2_edges), ref.adjacency_masks(2, k2_edges), Matching(frozenset({(1, 2)})),
                (Fraction(1, 4), Fraction(1, 5)), Fraction(1, 8), 4, ops, checks)
    c4n = _cycle(4)
    _criterion6(c4n, ref.adjacency_masks(4, ref.cycle_edges(4)), Matching(frozenset({(1, 2)})),
                (Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(1, 7)), Fraction(1, 9), 5, ops, checks)
    return Workload(ops, checks)


# ---------------------------------------------------------------------------
# cli-small

def cli_small(rng: random.Random, workdir: str) -> Workload:
    ops: list[Op] = []
    files = {}

    def write(name: str, doc) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        files[name] = path
        return path

    k3_edges = [(1, 2), (2, 3), (1, 3)]
    k3 = write("k3.json", {"m": 3, "edges": k3_edges})
    cyc = {n: write(f"c{n}.json", {"m": n, "edges": ref.cycle_edges(n)}) for n in (4, 5, 6)}
    half = write("single_half.json", {"variables": [{"kind": "uniform01"}],
                                      "events": [{"allowed": {"1": {"intervals": [["0", "1/2"]]}}}]})
    overlap = write("c4_overlap.json", {
        "variables": [{"kind": "uniform01"}] * 4,
        "events": [{"allowed": {str(i): {"intervals": [["0", "1/2"]]}, str(i % 4 + 1): {"intervals": [["0", "1/2"]]}}}
                   for i in range(1, 5)],
    })
    adj = {"k3": ref.adjacency_masks(3, k3_edges)}
    for n in (4, 5, 6):
        adj[n] = ref.adjacency_masks(n, ref.cycle_edges(n))

    def text(values) -> str:
        return ",".join(str(Fraction(v)) for v in values)

    def add(name, argv, check, repeat=4):
        ops.append(Op(f"cli {name}", lambda argv=argv: cli_call(argv), check, repeat))

    def check_shearer(a, values):
        report_check = check_report(a, values)

        def check(out):
            code, body = out
            doc = json.loads(body)
            q = {(): Fraction(doc["q_values"]["()"])}
            for k in range(1, len(a) + 1):
                q[(k,)] = Fraction(doc["q_values"][str(k)])
            witness = tuple(doc["witness"]) if doc["witness"] is not None else None
            report_check(shearer.ShearerReport(doc["in_bound"], q, witness))
            require(code == (0 if doc["in_bound"] else 1), "exit code disagrees with the verdict")
            if doc["in_bound"]:
                require(Fraction(doc["expected_resample_bound"]) == _resample_bound(a, values), "resample bound differs")

        return check

    # K_m region is sum p < 1; the seeded vectors straddle it
    k3_vectors = [(Fraction(1, 4),) * 3, (Fraction(1, 3),) * 3]
    k3_vectors += [tuple(Fraction(rng.randint(14, 26), 60) for _ in range(3)) for _ in range(4)]
    for vals in k3_vectors:
        require(ref.in_region(adj["k3"], vals) == (sum(vals) < 1), "chain oracle disagrees with sum p < 1 on K3")
        add(f"shearer-check K3 {text(vals)}", ["shearer-check", "--graph", k3, "--p", text(vals)], check_shearer(adj["k3"], vals))
    c4_vectors = [(Fraction(1, 4),) * 4] + [tuple(Fraction(rng.randint(8, 14), 40) for _ in range(4)) for _ in range(4)]
    for vals in c4_vectors:
        add(f"shearer-check C4 {text(vals)}", ["shearer-check", "--graph", cyc[4], "--p", text(vals)], check_shearer(adj[4], vals))
    for n in (5, 6):
        for _ in range(4):
            vals = tuple(Fraction(rng.randint(9, 13), 40) for _ in range(n))
            add(f"shearer-check C{n} {text(vals)}", ["shearer-check", "--graph", cyc[n], "--p", text(vals)],
                check_shearer(adj[n], vals))

    def check_boundary(a, direction, resolution, symmetric):
        def check(out):
            doc = json.loads(out[1])
            lo, hi = Fraction(doc["lo"]), Fraction(doc["hi"])
            require(hi - lo <= resolution and not doc["clamped"], "bracket too wide or clamped")
            require(ref.in_region(a, [lo * d for d in direction]), "lo end outside the region")
            require(not ref.in_region(a, [hi * d for d in direction]), "hi end inside the region")
            if symmetric:
                require(float(lo) <= ref.cycle_boundary(4) <= float(hi), "C4 boundary outside the bracket")

        return check

    res = Fraction(1, 4096)
    for direction, symmetric in (((1, 1, 1, 1), True), (tuple(Fraction(rng.randint(2, 4), 4) for _ in range(4)), False)):
        add(f"boundary C4 {text(direction)}", ["boundary", "--graph", cyc[4], "--p", text(direction), "--resolution", str(res)],
            check_boundary(adj[4], direction, res, symmetric))

    def check_gap(lower_bound):
        def check(out):
            doc = json.loads(out[1])
            lo, hi, r = Fraction(doc["lower"]), Fraction(doc["upper"]), Fraction(doc["resolution"])
            require(lo <= hi and hi - lo <= r, "gap bracket wider than the resolution")
            require(lower_bound(lo, hi), f"gap bracket [{lo}, {hi}] misses the reference")

        return check

    k3_p = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
    for r in ("1/64", "1/256"):
        # on K_m the nearest out-of-region point has norm 1, so d = sum p - 1 = 1/6
        add(f"gap K3 {r}", ["gap", "--graph", k3, "--p", text(k3_p), "--resolution", r],
            check_gap(lambda lo, hi: lo <= sum(k3_p) - 1 <= hi), repeat=1)
    c4_gap = 4 * 0.3 - 4 * ref.cycle_boundary(4)  # the symmetric boundary point is out of region
    add("gap C4 3/10", ["gap", "--graph", cyc[4], "--p", "3/10,3/10,3/10,3/10", "--resolution", "1/64"],
        check_gap(lambda lo, hi: float(hi) >= c4_gap), repeat=1)

    def check_beyond(n, vals, eps, accept):
        def check(out):
            code, body = out
            doc = json.loads(body)
            det = doc["details"]
            require(doc["accepted"] is accept and code == (0 if accept else 1), f"verdict {doc['accepted']}, expected {accept}")
            slack = ref.cycle_slack(list(vals)) if len(vals) >= 4 else 0.0
            require(math.isclose(float(Fraction(det["threshold_545"])), slack / 545, rel_tol=1e-9, abs_tol=1e-300),
                    "545 threshold differs from the cycle slack")
            scaled = [(1 + eps) * v for v in vals]
            if accept:
                require(Fraction(doc["bound_on_expected_steps"]) == Fraction(n) / eps, "bound is not m/eps")
                if ref.in_region(adj[n], scaled):
                    require(doc["evidence"] == "scaled-vector-in-region", "inside vector not accepted as inside")
            else:
                require(not ref.in_region(adj[n], scaled), "rejected an inside vector")
                witness = Fraction(det["gap_lower_witness"])
                require(Fraction(det["threshold_545"]) <= witness <= sum(scaled), "descent witness out of range")

        return check

    readme = (Fraction(27, 100), Fraction(27, 100), Fraction(27, 100), Fraction(36, 100))
    eps_tiny = Fraction(1, 10**9)
    add("beyond C4 README", ["beyond", "--graph", cyc[4], "--p", text(readme), "--eps", str(eps_tiny)],
        check_beyond(4, readme, eps_tiny, True))
    for n in (4, 5, 6):
        inside = tuple(Fraction(rng.randint(36, 44), 200) for _ in range(n))
        add(f"beyond C{n} inside", ["beyond", "--graph", cyc[n], "--p", text(inside), "--eps", "1/8"],
            check_beyond(n, inside, Fraction(1, 8), True))
        if n > 4:
            out = (Fraction(3, 10),) * n
            add(f"beyond C{n} beyond", ["beyond", "--graph", cyc[n], "--p", text(out), "--eps", "1/1000"],
                check_beyond(n, out, Fraction(1, 1000), False))

    def check_criterion(p, delta):
        def check(out):
            code, body = out
            doc = json.loads(body)
            eps = Fraction(1, 8)
            minus = [v - delta * delta / 17 for v in p]
            require([Fraction(x) for x in doc["details"]["p_minus"]] == minus, "p_minus differs")
            accept = ref.in_region(adj[4], [(1 + eps) * v for v in minus])
            require(doc["accepted"] is accept and code == (0 if accept else 1), "criterion verdict differs")
            if accept:
                require(Fraction(doc["bound_on_expected_steps"]) == 4 / eps, "bound is not m/eps")

        return check

    crit_p = tuple(Fraction(rng.randint(22, 26), 100) for _ in range(4))
    add("criterion --delta", ["criterion", "--graph", cyc[4], "--p", text(crit_p), "--matching", "1-2,3-4",
                              "--delta", "1/8,1/8", "--eps", "1/8"], check_criterion(crit_p, Fraction(1, 8)))
    quarter4 = (Fraction(1, 4),) * 4
    # each matched pair of the overlap instance meets with probability 1/8
    add("criterion --system", ["criterion", "--graph", cyc[4], "--p", text(quarter4), "--matching", "1-2,3-4",
                               "--system", overlap, "--eps", "1/8"], check_criterion(quarter4, Fraction(1, 8)))

    half_ref = ref.RefSystem([None], [ref.box_event({1: [(0, Fraction(1, 2))]})])
    overlap_ref = _c4_overlap()[1]

    def check_mt_run(rsys, seed):
        def check(out):
            doc = json.loads(out[1])
            seq = doc["sequence"]
            _, final = ref.replay(rsys, "lowest-index", seed, seq)
            require(doc["T"] == len(seq) and not doc["truncated"], "T differs from the sequence")
            require({int(k): Fraction(v) for k, v in doc["final_assignment"].items()} == final, "final assignment differs")

        return check

    run_seed = rng.randint(0, 10**6)
    add("mt-run single_half", ["mt-run", "--system", half, "--seed", str(run_seed)], check_mt_run(half_ref, run_seed))

    def check_csv(rsys, seed, trials, expected=None, ceiling=None):
        def check(out):
            rows = out[1].splitlines()
            require(rows[0] == "seed,T,truncated" and len(rows) == trials + 1, "csv shape differs")
            counts = []
            for k, row in enumerate(rows[1:]):
                trial, t, trunc = row.split(",")
                require(trial == f"{seed}/{k}" and trunc == "false", "csv row differs")
                counts.append(int(t))
            for k in range(3):
                require(counts[k] == len(ref.replay(rsys, "lowest-index", f"{seed}/{k}")[0]), "trial T differs")
            mean = sum(counts) / len(counts)
            se = math.sqrt(sum((c - mean) ** 2 for c in counts) / (len(counts) - 1) / len(counts))
            if expected is not None:
                require(ref.mean_within(mean, se, expected), f"mean {mean} not within 5 SE of {expected}")
            if ceiling is not None:
                require(mean <= float(ceiling) + 5 * se, f"mean {mean} above the Shearer bound {float(ceiling)}")

        return check

    for name, path, rsys, trials, want in (
        ("single_half", half, half_ref, 2000, {"expected": 1.0}),
        ("C4-overlap", overlap, overlap_ref, 1000, {"ceiling": ref.cycle_resample_bound(4, Fraction(1, 4))}),
    ):
        seed = rng.randint(0, 10**6)
        add(f"mt-estimate {name}", ["mt-estimate", "--system", path, "--trials", str(trials), "--seed", str(seed),
                                    "--format", "csv"], check_csv(rsys, seed, trials, **want))

    def check_wdag_sum(a, p, cap):
        def check(out):
            want = ref.pwdag_sums(a, p, cap)
            doc = json.loads(out[1])
            require({int(k): Fraction(v) for k, v in doc["by_size"].items()} == want, "wdag sums differ")
            require(Fraction(doc["cumulative"]) == sum(want.values()), "cumulative differs")

        return check

    for n in (4, 5):
        ws_p = tuple(Fraction(rng.randint(10, 16), 64) for _ in range(n))
        add(f"wdag-sum C{n} cap 5", ["wdag-sum", "--graph", cyc[n], "--p", text(ws_p), "--node-cap", "5"],
            check_wdag_sum(adj[n], ws_p, 5))

    lattices = {  # name: (pa, degrees, edges, diameter, lattice degree); hexagonal flake: 54 vertices, 72 edges
        "square": ("0.1193", ref.grid_degrees((5, 5)), 40, 8, 4),
        "hexagonal": ("0.1547", [3] * 36 + [2] * 18, 72, None, 3),
        "cubic": ("0.1", ref.grid_degrees((3, 3, 3)), 54, 6, 6),
    }

    def check_lattice(name, pa, degrees, edges, diameter, lattice_degree):
        def check(out):
            doc = json.loads(out[1])
            require(doc["unit_vertices"] == len(degrees) and doc["lattice_max_degree"] == lattice_degree, "unit facts differ")
            if diameter is not None:
                require(doc["unit_diameter"] == diameter, "unit diameter differs")
            lo, hi = Fraction(doc["q_lower"]), Fraction(doc["q_upper"])
            want = ref.lattice_gap_float(degrees, edges, doc["unit_diameter"], lattice_degree, float(Fraction(pa)))
            require(lo <= hi and math.isclose(float(lo), want, rel_tol=1e-9), f"{name} gap {float(lo)}, reference {want}")

        return check

    for name, (pa, degrees, edges, diameter, deg) in lattices.items():
        add(f"lattice-gap {name}", ["lattice-gap", "--lattice", name, "--pa", pa],
            check_lattice(name, pa, degrees, edges, diameter, deg))

    # Two operations, once a round each, that fail because of faults in the program: wdag-sum
    # exits 3 because enumerate_pwdags refuses more than 8 nodes, although the
    # sums are well defined; mt-run exits 2 because --seed is parsed as an int
    # while the engine takes string seeds. Once they succeed, their outputs
    # are checked like any other.
    cap_p = (Fraction(1, 8),) * 4
    add("wdag-sum C4 cap 10", ["wdag-sum", "--graph", cyc[4], "--p", text(cap_p), "--node-cap", "10"],
        check_wdag_sum(adj[4], cap_p, 10), repeat=1)
    add("mt-run string seed", ["mt-run", "--system", overlap, "--seed", "c5/lowest-index"],
        check_mt_run(overlap_ref, "c5/lowest-index"), repeat=1)
    return Workload(ops)


WORKLOADS = {
    "region-large": region_large,
    "resample-long": resample_long,
    "wdag-enum": wdag_enum,
    "cli-small": cli_small,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    workload = WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
    workload.ops = [op for op in workload.ops for _ in range(op.repeat)]
    # One shuffle, the same for every seed, spreads each kind of operation
    # over the whole round, so a slow spell of the machine does not fall on
    # one kind alone, and keeps the order (and so the memory peak) seed-free.
    random.Random(name).shuffle(workload.ops)
    return workload
