"""Variable-generated event systems and the resampling algorithm.

A system is a list of independent variables (uniform on [0,1) with exact
dyadic samples, or finite with rational masses) plus events that are
deterministic functions of their variables. Elementary events are boxes:
one allowed set per variable, conjunctively. The engine runs the resampling
algorithm against a seeded lazy table, so identical (system, rule, seed)
always reproduce the identical run, and batches can be farmed out to
workers without changing results.

The engine works on the table's integer draws k (the sample is k / 2^64),
which each variable alone decodes, bounds and measures. Each system's
IntegerForm cuts every variable's draws into cells at the ends of all the
elementary events' allowed sets, so an elementary event reads a variable
only through the cell of its draw: one bisect per redrawn variable, then
one shift and AND per variable of each event on it. The violated events
are one int mask, from which the named rules pick. A draw copies the
table's blake2b state for its row, in the loop itself."""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import ceil, prod, sqrt
from typing import Callable, Mapping

from .graphs import BipartiteEventVariableGraph, DependencyGraph, InputError, base_graph
from .shearer import CapExceeded
from .tables import SCALE, ResamplingTable, unit_bits
from .wdag import WDag, ordered_arcs


# ---------------------------------------------------------------------------
# variables
#
# value(k) is the value at draw k; ends(allowed) the ends lo, hi, lo, hi, ...
# of the intervals [lo, hi) of the draws an allowed set admits, in order; and
# measure(allowed) its probability. As k / 2^64 < x iff k < ceil(x * 2^64),
# the three agree exactly, so the engine and pair_intersection do too.

def _ceil_scaled(x: Fraction) -> int:
    """The least k with k / 2^64 >= x."""
    return ceil(x * SCALE)


@dataclass(frozen=True)
class Uniform01:
    """Uniform on [0,1); samples are exact dyadic rationals k / 2^64."""

    def value(self, k: int) -> Fraction:
        return Fraction(k, SCALE)

    def ends(self, allowed: "IntervalUnion") -> tuple[int, ...]:
        return tuple(_ceil_scaled(x) for iv in allowed.intervals for x in iv)

    def measure(self, allowed: "IntervalUnion") -> Fraction:
        return allowed.measure()


@dataclass(frozen=True)
class FiniteVariable:
    """Finite domain 0..k-1 with exact rational masses summing to one."""

    masses: tuple[Fraction, ...]

    def __post_init__(self):
        ms = tuple(Fraction(x) for x in self.masses)
        object.__setattr__(self, "masses", ms)
        if any(x < 0 for x in ms) or sum(ms) != 1:
            raise InputError("finite masses must be nonnegative and sum to 1")

    @cached_property
    def cuts(self) -> tuple[int, ...]:
        """ceil((m_0 + ... + m_v) * 2^64) for each value v, so value v is
        drawn iff cuts[v-1] <= k < cuts[v] (cuts[-1] read as 0). Built on
        first use and kept like EventSystem.dependency_graph: out of ==,
        hash and repr, pickled along."""
        return tuple(map(_ceil_scaled, accumulate(self.masses)))

    def value(self, k: int) -> int:
        return bisect_right(self.cuts, k)

    def ends(self, allowed: "ValueSet") -> tuple[int, ...]:
        cuts = self.cuts
        return tuple(x for v in sorted(allowed.values) for x in (cuts[v - 1] if v else 0, cuts[v]))

    def measure(self, allowed: "ValueSet") -> Fraction:
        return sum((self.masses[v] for v in allowed.values), Fraction(0))


# ---------------------------------------------------------------------------
# allowed sets for elementary events

@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of half-open rational intervals within [0, 1)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = sorted((Fraction(a), Fraction(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not (0 <= a <= b <= 1):
                raise InputError(f"interval [{a},{b}) outside [0,1)")
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in ivs:
            if a >= b:
                continue
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    def contains(self, x: Fraction) -> bool:
        return any(a <= x < b for a, b in self.intervals)

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion(tuple(out))


@dataclass(frozen=True)
class ValueSet:
    """Allowed values of a finite variable."""

    values: frozenset[int]

    def contains(self, x: int) -> bool:
        return x in self.values

    def intersect(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(self.values & other.values)


# ---------------------------------------------------------------------------
# events and systems

@dataclass(frozen=True)
class Event:
    """An event over its variable set: either an explicit predicate over
    assignments, or an elementary box (allowed set per variable)."""

    vbl: tuple[int, ...]
    allowed: tuple[tuple[int, object], ...] | None = None
    predicate: Callable[[Mapping[int, object]], bool] | None = None

    def __post_init__(self):
        if not self.vbl:
            raise InputError("event must depend on at least one variable")
        object.__setattr__(self, "vbl", tuple(sorted(set(self.vbl))))
        if self.allowed is not None:
            boxes = tuple(sorted((int(j), s) for j, s in self.allowed))
            if tuple(j for j, _ in boxes) != self.vbl:
                raise InputError("elementary form must cover exactly vbl")
            object.__setattr__(self, "allowed", boxes)
        elif self.predicate is None:
            raise InputError("event needs an elementary form or a predicate")

    @property
    def is_elementary(self) -> bool:
        return self.allowed is not None

    def holds(self, assignment: Mapping[int, object]) -> bool:
        if self.allowed is not None:
            return all(s.contains(assignment[j]) for j, s in self.allowed)
        return self.predicate(assignment)


#: outcome tuples an exhaustive joint probability may sum over
MAX_OUTCOMES = 1_000_000


@dataclass(frozen=True)
class EventSystem:
    variables: tuple[object, ...]
    events: tuple[Event, ...]

    def __post_init__(self):
        # the only boxes variables read: interval unions on uniform ones, value sets of 0..k-1 on finite ones
        n = len(self.variables)
        for ev in self.events:
            for j in ev.vbl:
                if not 1 <= j <= n:
                    raise InputError(f"event variable {j} out of range")
            for j, allowed in ev.allowed or ():
                var = self.variables[j - 1]
                if isinstance(allowed, IntervalUnion):
                    if not isinstance(var, Uniform01):
                        raise InputError("interval sets require a uniform01 variable")
                elif not isinstance(allowed, ValueSet):
                    raise InputError(f"unknown allowed set {type(allowed).__name__}")
                elif not isinstance(var, FiniteVariable):
                    raise InputError("value sets require a finite variable")
                elif not all(0 <= v < len(var.masses) for v in allowed.values):
                    raise InputError(f"values {sorted(allowed.values)} outside 0..{len(var.masses) - 1}")

    @property
    def m(self) -> int:
        return len(self.events)

    def holds(self, i: int, assignment: Mapping[int, object]) -> bool:
        return self.events[i - 1].holds(assignment)

    def bipartite(self) -> BipartiteEventVariableGraph:
        edges = frozenset(
            (i, j) for i, ev in enumerate(self.events, 1) for j in ev.vbl
        )
        return BipartiteEventVariableGraph(self.m, len(self.variables), edges)

    @cached_property
    def dependency_graph(self) -> DependencyGraph:
        """Events adjacent iff they share a variable. Built on first use and
        kept in the instance's __dict__, like DependencyGraph.closed_masks: it
        is freed with the system and plays no part in ==, hash or repr."""
        return base_graph(self.bipartite())

    @cached_property
    def integer_form(self) -> "IntegerForm":
        """The system compiled for the engine. Built on first use and kept
        like dependency_graph: out of ==, hash and repr, pickled along."""
        return IntegerForm.compile(self)

    def event_probability(self, i: int) -> Fraction:
        return pair_intersection(self, i, i)

    def _exhaustive_probability(self, which: tuple[int, ...]) -> Fraction:
        """Joint probability of the given events by summing over all finite
        outcome tuples; every involved variable must be finite."""
        vbls = sorted({j for i in which for j in self.events[i - 1].vbl})
        domains = []
        size = 1
        for j in vbls:
            var = self.variables[j - 1]
            if isinstance(var, Uniform01):
                raise InputError("exhaustive probability needs finite variables")
            domains.append(range(len(var.masses)))
            size *= len(var.masses)
            if size > MAX_OUTCOMES:
                raise CapExceeded(f"outcome space beyond {MAX_OUTCOMES}")
        total = Fraction(0)
        for combo in product(*domains):
            assignment = dict(zip(vbls, combo))
            if all(self.holds(i, assignment) for i in which):
                weight = Fraction(1)
                for j, v in assignment.items():
                    weight *= self.variables[j - 1].masses[v]
                total += weight
        return total


@dataclass(frozen=True)
class IntegerForm:
    """An event system on integer draws k, the sample being k / 2^64.

    An elementary event reads a variable only through the cell its draw lies
    in, the cells of a variable being cut by every end (its ends()) of every
    allowed set on it.

    - points[j-1]: the sorted ends strictly inside (0, 2^64) of the allowed
      draws of the events on variable j; draw k lies in cell
      bisect_right(points, k).
    - tests[i-1]: for an elementary event, one (j, cells) per variable, bit c
      of cells being set iff the event allows the draws of cell c; the event
      holds iff cells >> cell & 1 on each of its variables. None for a
      predicate event, which is tested by Event.holds on the decoded values.
    - var_events[j-1]: the events on variable j as a mask, bit i-1 standing
      for event i, like the engine's violated events. A resampling changes
      only the events on the variables it redraws.
    """

    points: tuple[tuple[int, ...], ...]
    tests: tuple[tuple[tuple[int, int], ...] | None, ...]
    var_events: tuple[int, ...]

    @staticmethod
    def compile(system: "EventSystem") -> "IntegerForm":
        variables = system.variables
        bounds = [
            None if ev.allowed is None else [(j, variables[j - 1].ends(s)) for j, s in ev.allowed]
            for ev in system.events
        ]
        ends: list[set[int]] = [set() for _ in variables]
        var_events = [0] * len(variables)
        for i, (ev, test) in enumerate(zip(system.events, bounds)):
            for j in ev.vbl:
                var_events[j - 1] |= 1 << i
            for j, b in test or ():
                ends[j - 1].update(b)
        points = tuple(tuple(sorted(x for x in e if 0 < x < SCALE)) for e in ends)
        tests = tuple(
            None if test is None else tuple((j, _cell_mask(points[j - 1], b)) for j, b in test)
            for test in bounds
        )
        return IntegerForm(points, tests, tuple(var_events))


def _cell_mask(points: tuple[int, ...], bounds: tuple[int, ...]) -> int:
    """The cells of the allowed draws. Every end of bounds inside (0, 2^64)
    is a cut point, so [lo, hi) is the cells from the one lo starts up to
    the one hi starts, 2^64 starting none: it comes after the last cell."""
    starts = [bisect_right(points, k) if k < SCALE else len(points) + 1 for k in bounds]
    mask = 0
    for lo, hi in zip(starts[::2], starts[1::2]):
        mask |= (1 << hi) - (1 << lo)
    return mask


def pair_intersection(system: EventSystem, i: int, i2: int) -> Fraction:
    """Exact Pr(A_i and A_i2); box product for elementary events (a variable
    of both events allows the intersection of their sets), exhaustive
    summation otherwise."""
    a, b = system.events[i - 1], system.events[i2 - 1]
    if a.is_elementary and b.is_elementary:
        boxes = dict(a.allowed)
        for j, s in b.allowed:
            boxes[j] = boxes[j].intersect(s) if j in boxes else s
        measures = (system.variables[j - 1].measure(s) for j, s in boxes.items())
        return prod(measures, start=Fraction(1))
    return system._exhaustive_probability((i, i2))


def measure_pair_intersections(system: EventSystem) -> dict[tuple[int, int], Fraction]:
    """Exact pairwise intersection probabilities over base-graph edges."""
    return {e: pair_intersection(system, *e) for e in sorted(system.dependency_graph.edges)}


# ---------------------------------------------------------------------------
# selection rules
#
# The engine keeps the violated events as one int, bit i-1 standing for
# event i, and its rules pick from that mask: rule(violated, history, rng).

def _rule_lowest_index(violated, history, rng):
    return (violated & -violated).bit_length()


def _rule_uniform_random(violated, history, rng):
    # the r-th violated event in increasing order, r drawn as on a sorted list
    for _ in range(rng.randrange(violated.bit_count())):
        violated &= violated - 1
    return (violated & -violated).bit_length()


def _rule_recent_neighbor(closed: tuple[int, ...]):
    """Prefer the lowest violated event adjacent (or equal) to the most
    recently resampled event that has one; falls back to lowest index.

    Only the last occurrence of each label matters, so the rule keeps the
    labels in that order and folds in the history it has not seen yet. It
    follows one run; a history shorter than the last one starts it afresh.
    """
    recent: dict[int, None] = {}
    seen = 0

    def rule(violated, history, rng):
        nonlocal seen
        if len(history) < seen:
            recent.clear()
            seen = 0
        for label in history[seen:]:
            recent.pop(label, None)
            recent[label] = None
        seen = len(history)
        for past in reversed(recent):
            near = violated & closed[past - 1]
            if near:
                return (near & -near).bit_length()
        return (violated & -violated).bit_length()

    return rule


SELECTION_RULES = ("lowest-index", "uniform-violated", "recent-neighbor")


def _mask_rule(name: str, system: EventSystem):
    if name == "lowest-index":
        return _rule_lowest_index
    if name == "uniform-violated":
        return _rule_uniform_random
    if name == "recent-neighbor":
        return _rule_recent_neighbor(system.dependency_graph.closed_masks)
    raise InputError(f"unknown selection rule {name!r}; choose from {SELECTION_RULES}")


def _list_rule(rule: Callable):
    """A caller's rule, which picks from the sorted list of violated events,
    as a rule on the mask. A pick that is not a violated event is refused."""

    def pick(violated, history, rng):
        i = rule([e + 1 for e in range(violated.bit_length()) if violated >> e & 1], history, rng)
        if type(i) is not int or i < 1 or not violated >> (i - 1) & 1:  # True is no index
            raise InputError("selection rule chose a non-violated event")
        return i

    return pick


def make_rule(name: str, system: EventSystem):
    """The named rule as a callable on the sorted list of violated events,
    the form in which run_mt takes a caller's rule."""
    rule = _mask_rule(name, system)
    return lambda violated, history, rng: rule(sum(1 << (i - 1) for i in violated), history, rng)


# ---------------------------------------------------------------------------
# runs

DEFAULT_STEP_CAP = 1_000_000


@dataclass(frozen=True)
class RunStats:
    sequence: tuple[int, ...]
    truncated: bool
    final_assignment: dict[int, object]
    per_event_counts: dict[int, int]

    @property
    def t(self) -> int:
        return len(self.sequence)


def _resample(system: EventSystem, rule: str | Callable, seed: int | str, step_cap: int):
    """The resampling loop of run_mt: (sequence, truncated, draws), draws[j]
    being variable j's last integer draw.

    Each pass redraws some variables, each draw a copy of its row's blake2b
    state fed the column, then tests once each event on a variable whose
    cell moved (on any redrawn variable, if some event is a predicate,
    which reads the values the variables decode). The first pass draws column 1 of every row, so it builds
    the initial violated mask; every later one redraws the variables of the
    event the rule picks."""
    if step_cap < 1:
        raise InputError("step_cap must be positive")
    rng = None  # seeded only for the rules that can read it
    if isinstance(rule, str):
        pick = _mask_rule(rule, system)
        if rule == "uniform-violated":
            rng = random.Random(unit_bits(seed, "rule"))
    else:
        pick = _list_rule(rule)
        rng = random.Random(unit_bits(seed, "rule"))
    form = system.integer_form
    points, tests, var_events, events = form.points, form.tests, form.var_events, system.events
    rows = ResamplingTable(system.variables, seed).rows
    from_bytes = int.from_bytes
    n = len(system.variables)
    cursor = [0] * (n + 1)
    draws = [0] * (n + 1)
    cells = [-1] * (n + 1)  # no draw lies in cell -1
    values = {} if None in tests else None
    violated = 0
    sequence: list[int] = []
    redraw = range(1, n + 1)
    while True:
        stale = 0  # the events to test, as a mask
        for j in redraw:
            cursor[j] = col = cursor[j] + 1
            h = rows[j].copy()
            h.update(b"%d" % col)
            k = draws[j] = from_bytes(h.digest(), "big")
            c = bisect_right(points[j - 1], k)
            if values is not None:
                values[j] = system.variables[j - 1].value(k)
            elif c == cells[j]:
                continue  # every event here reads variable j only through its cell
            cells[j] = c
            stale |= var_events[j - 1]
        while stale:
            bit = stale & -stale
            stale ^= bit
            e = bit.bit_length() - 1
            test = tests[e]
            if test is None:
                holds = events[e].holds(values)
            else:
                for v, allowed in test:
                    if not allowed >> cells[v] & 1:
                        holds = False
                        break
                else:
                    holds = True
            if holds:
                violated |= bit
            else:
                violated &= ~bit
        if not violated:
            return sequence, False, draws
        if len(sequence) >= step_cap:
            return sequence, True, draws
        i = pick(violated, sequence, rng)
        sequence.append(i)
        redraw = events[i - 1].vbl


def run_mt(
    system: EventSystem,
    rule: str | Callable,
    seed: int | str,
    step_cap: int = DEFAULT_STEP_CAP,
) -> RunStats:
    """Run the resampling algorithm from a seeded table.

    The initial assignment is column 1 of the table; resampling a variable
    advances that variable's cursor one column to the right. Stops when no
    event holds, or flags truncation at the step cap.

    The run keeps each variable's integer draw and the cell it lies in, and
    the violated events as one int mask. After each step it rechecks only
    the events on the variables it redrew, each once, a shift and an AND
    per variable of an elementary event; when every event is elementary, a
    variable whose draw stays in its cell changes none. The named rules
    pick from the mask; a callable rule(violated, history, rng) gets the
    sorted list of violated events and must return one of them. Values are
    decoded, each by its variable's value(k), for predicate events, and for
    final_assignment once the run ends.
    """
    sequence, truncated, draws = _resample(system, rule, seed, step_cap)
    final = {j: var.value(draws[j]) for j, var in enumerate(system.variables, 1)}
    counts: dict[int, int] = {}
    for i in sequence:
        counts[i] = counts.get(i, 0) + 1
    return RunStats(tuple(sequence), truncated, final, counts)


def witness_dag_of_run(system: EventSystem, stats: RunStats) -> WDag:
    """The wdag of a resample sequence: node k is the k-th resampling, and
    the arc rule (`ordered_arcs`) runs in time order."""
    seq, closed = stats.sequence, system.dependency_graph.closed_masks
    return WDag(tuple(seq), frozenset(ordered_arcs(seq, range(len(seq)), closed)))


def extremal_cycle_instance(length: int, threshold: Fraction = Fraction(1, 2)) -> EventSystem:
    """Cyclic system on uniform variables where event i wants variable i
    below the threshold and variable i+1 at or above it. Adjacent events are
    mutually exclusive and each has probability a*(1-a).
    """
    if length < 4:
        raise InputError("cycle instances need length >= 4")
    a = Fraction(threshold)
    if not 0 < a < 1:
        raise InputError("threshold must lie strictly inside (0,1)")
    low = IntervalUnion(((Fraction(0), a),))
    high = IntervalUnion(((a, Fraction(1)),))
    events = []
    for i in range(1, length + 1):
        nxt = i % length + 1
        events.append(Event(vbl=(i, nxt), allowed=((i, low), (nxt, high))))
    return EventSystem(tuple(Uniform01() for _ in range(length)), tuple(events))


# ---------------------------------------------------------------------------
# batch estimation

@dataclass(frozen=True)
class StepEstimate:
    mean: float
    stderr: float
    trials: int
    truncated_runs: int
    per_trial: tuple[tuple[int, int, bool], ...]


#: trials one estimate may run; per_trial holds a row for each
MAX_TRIALS = 1_000_000


def _trial_seed(seed: int | str, index: int) -> str:
    return f"{seed}/{index}"


def _run_chunk(args) -> list[tuple[int, int, bool]]:
    system, rule_name, seed, step_cap, indices = args
    out = []
    for t in indices:
        sequence, truncated, _ = _resample(system, rule_name, _trial_seed(seed, t), step_cap)
        out.append((t, len(sequence), truncated))
    return out


def estimate_expected_steps(
    system: EventSystem,
    rule: str,
    trials: int,
    seed: int | str,
    step_cap: int = DEFAULT_STEP_CAP,
    workers: int | None = None,
) -> StepEstimate:
    """Sample mean and standard error of the resample count over independent
    seeded runs. Truncated runs are excluded from the mean and reported.
    Per-trial seeds derive from (seed, index), so results do not depend on
    the worker count. The workers (LLL_WORKBENCH_THREADS by default) are at
    most the CPU count and the trials; fewer than two run in this process.
    Raises CapExceeded for more than MAX_TRIALS trials.
    """
    if trials < 1:
        raise InputError("trials must be positive")
    if trials > MAX_TRIALS:
        raise CapExceeded(f"estimates capped at {MAX_TRIALS} trials")
    if workers is None:
        threads = os.environ.get("LLL_WORKBENCH_THREADS", "1")
        try:
            workers = int(threads)
        except ValueError:
            raise InputError(f"LLL_WORKBENCH_THREADS must be an integer, not {threads!r}") from None
    workers = min(workers, os.cpu_count() or 1, trials)
    indices = range(trials)
    rows: list[tuple[int, int, bool]] = []
    if workers > 1 and all(ev.is_elementary for ev in system.events):
        chunk = max(1, trials // (workers * 8))
        jobs = [
            (system, rule, seed, step_cap, indices[k : k + chunk])
            for k in range(0, trials, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, jobs):
                rows.extend(part)
    else:
        rows = _run_chunk((system, rule, seed, step_cap, indices))
    rows.sort()
    per_trial = tuple(rows)
    counts = [t for _, t, trunc in rows if not trunc]
    truncated = sum(1 for _, _, trunc in rows if trunc)
    if not counts:
        return StepEstimate(float("nan"), float("nan"), trials, truncated, per_trial)
    mean = sum(counts) / len(counts)
    if len(counts) > 1:
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        stderr = sqrt(var / len(counts))
    else:
        stderr = float("nan")
    return StepEstimate(mean, stderr, trials, truncated, per_trial)
