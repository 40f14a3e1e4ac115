"""JSON and CSV wire formats.

Graphs: {"m": int, "edges": [[u,v],...]}; bipartite graphs: {"events": m,
"vars": n, "edges": [[i,j],...]}; probability vectors: {"p": ["1/4",...]}
accepting fraction or decimal strings, converted exactly. Event systems list
variables ({"kind": "uniform01"} or {"kind": "finite", "masses": [...]}) and
elementary events with per-variable interval unions or value sets.

One writer, `jsonable`, renders every result: a result object (a dataclass)
becomes the dict of its fields, so a field name is its wire key; shearer-check
and mt-run add one derived key each (expected_resample_bound, T). Reports are
emitted with sorted keys and rationals rendered "a/b", so byte-identical
inputs give byte-identical outputs. Three commands build a dict of their
own: gap writes its exact value as lower and upper beside the resolution
it was given, mt-estimate's JSON drops the per-trial rows, which its CSV
form lists, and lattice-gap flattens its interval bounds and adds float
summaries.

The module imports graphs and shearer only. The event-system loader (with
its allowed sets) and the estimate's csv writer import the engine in their
bodies, so a command that reads no event system does not load it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .graphs import BipartiteEventVariableGraph, DependencyGraph, InputError, Matching
from .shearer import ProbabilityVector


def parse_fraction(text) -> Fraction:
    if isinstance(text, bool):
        raise InputError("expected a rational, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            # Fraction builds 10^|e| for a decimal exponent e: refuse an e
            # whose power has more digits than int() may convert, as a
            # literal of that many digits is refused (a limit of 0 is none)
            _, marker, exponent = text.lower().rpartition("e")
            if marker and abs(int(exponent)) >= (sys.get_int_max_str_digits() or math.inf):
                raise ValueError("exponent past the int digit limit")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {text!r}") from exc
    raise InputError(f"cannot parse rational {text!r}")


def _integer(value, what: str) -> int:
    """A JSON integer as it is. A bool, a float or a string is an input
    error: int() would read 3.7 as 3 and "3" as 3."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be integers, got {value!r}")


def _list(value, what: str) -> list:
    """A JSON list as it is. A string or an object is an input error:
    iterating it would read it one character or one key at a time."""
    if isinstance(value, (list, tuple)):
        return value
    raise InputError(f"{what} must be a list, got {type(value).__name__}")


def _digits(text: str) -> bool:
    """ASCII decimal digits only: int() would also read "1_0", " +2 " and
    non-ASCII digits."""
    return text.isascii() and text.isdigit()


#: written as they are; an exact type test, so floats and subclasses (an
#: IntEnum, say) still take the checks below
_PLAIN = frozenset((str, int, bool, type(None)))


def jsonable(value) -> Any:
    """The one writer of results: a dataclass as the dict of its fields,
    rationals as "a/b", a non-finite float as None (JSON null: NaN and
    Infinity are not JSON), tuples and sorted sets as lists, dict keys as
    strings (an index set as "i,j", the empty set as "()")."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # past the interpreter's int-to-decimal digit limit
            return _rational(value)
    if isinstance(value, dict):
        return {_key_str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [jsonable(v) for v in items]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _rational(value: Fraction) -> str:
    """str(value) for a rational whose numerator or denominator has more
    digits than the interpreter writes of an int (4,300 by default): an
    exact Decimal writes its integer digits with no such limit."""
    num, den = (str(Decimal(n)) for n in value.as_integer_ratio())
    return num if den == "1" else f"{num}/{den}"


def _key_str(key) -> str:
    if isinstance(key, (tuple, frozenset)):
        return ",".join(str(part) for part in sorted(key)) if key else "()"
    return str(key)


@contextmanager
def _wire_object(kind: str):
    """Report a malformed wire object as an InputError "bad <kind> object",
    letting the loaders' own InputErrors through as they are."""
    try:
        yield
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} object: {exc}") from exc


def load_graph(data: Mapping) -> DependencyGraph:
    what = "bad graph object: m and edge endpoints"
    with _wire_object("graph"):
        edges = [tuple(_integer(x, what) for x in e) for e in _list(data.get("edges", []), "edges")]
        return DependencyGraph.from_edges(_integer(data["m"], what), edges)


def load_bipartite(data: Mapping) -> BipartiteEventVariableGraph:
    what = "bad bipartite graph object: events, vars and incidences"
    with _wire_object("bipartite graph"):
        return BipartiteEventVariableGraph(
            _integer(data["events"], what),
            _integer(data["vars"], what),
            frozenset((_integer(i, what), _integer(j, what)) for i, j in _list(data.get("edges", []), "edges")),
        )


def load_probability_vector(data) -> ProbabilityVector:
    if isinstance(data, Mapping):
        entries = data.get("p")
        if entries is None:
            raise InputError("probability object needs a 'p' list")
    elif isinstance(data, str):
        entries = [part.strip() for part in data.split(",")]
    else:
        entries = data
    if not isinstance(entries, (list, tuple)):
        raise InputError(f"probabilities must be a list, got {type(entries).__name__}")
    return ProbabilityVector(tuple(parse_fraction(x) for x in entries))


def load_matching(text: str) -> Matching:
    """Parse pairs like "1-2,3-4"."""
    pairs = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        ends = [part.strip() for part in chunk.split("-")]
        if len(ends) != 2 or not all(_digits(end) for end in ends):
            raise InputError(f"bad matching pair {chunk!r}")
        pairs.add((int(ends[0]), int(ends[1])))
    return Matching(frozenset(pairs))


def _load_allowed(spec: Mapping):
    """An allowed set; EventSystem checks it against its variable."""
    from .mt_engine import IntervalUnion, ValueSet

    if "intervals" in spec:
        intervals = _list(spec["intervals"], "intervals")
        if not all(isinstance(ends, (list, tuple)) and len(ends) == 2 for ends in intervals):
            raise InputError("each interval must be a list of two ends")
        return IntervalUnion(tuple((parse_fraction(a), parse_fraction(b)) for a, b in intervals))
    if "values" in spec:
        what = "bad event system object: values"
        return ValueSet(frozenset(_integer(v, what) for v in _list(spec["values"], "values")))
    raise InputError("allowed set needs 'intervals' or 'values'")


def load_event_system(data: Mapping):
    """An mt_engine.EventSystem from its wire object."""
    from .mt_engine import Event, EventSystem, FiniteVariable, Uniform01

    with _wire_object("event system"):
        variables = []
        for spec in data.get("variables", []):
            kind = spec.get("kind")
            if kind == "uniform01":
                variables.append(Uniform01())
            elif kind == "finite":
                variables.append(
                    FiniteVariable(tuple(parse_fraction(x) for x in _list(spec["masses"], "masses")))
                )
            else:
                raise InputError(f"unknown variable kind {kind!r}")
        events = []
        for spec in data.get("events", []):
            allowed_spec = spec.get("allowed")
            if allowed_spec is None:
                raise InputError("wire-format events must be elementary")
            allowed = []
            for var_key, aspec in allowed_spec.items():
                if not _digits(var_key):
                    raise InputError(f"bad variable key {var_key!r}")
                j = int(var_key)
                if not 1 <= j <= len(variables):
                    raise InputError(f"event references unknown variable {j}")
                allowed.append((j, _load_allowed(aspec)))
            vbl = tuple(j for j, _ in allowed)
            events.append(Event(vbl=vbl, allowed=tuple(allowed)))
        if not events:
            raise InputError("event system needs at least one event")
        return EventSystem(tuple(variables), tuple(events))


def dumps_estimate_csv(est, seed) -> str:
    """An mt_engine.StepEstimate's per-trial rows as csv in one pass: each
    trial's seed, its resample count T and whether it was truncated, under a
    header."""
    from .mt_engine import trial_seed

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("seed", "T", "truncated"))
    writer.writerows(
        (trial_seed(seed, index), t, "true" if truncated else "false")
        for index, t, truncated in est.per_trial
    )
    return buf.getvalue()


def dumps_json(payload) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def dumps_csv(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([jsonable(x) for x in row])
    return buf.getvalue()


def write_report(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
