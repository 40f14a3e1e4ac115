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
inputs give byte-identical outputs. Only two commands build a dict of their
own: mt-estimate's JSON drops the per-trial rows, which its CSV form lists,
and lattice-gap flattens its interval bounds and adds float summaries.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .graphs import BipartiteEventVariableGraph, DependencyGraph, InputError, Matching
from .mt_engine import (
    Event,
    EventSystem,
    FiniteVariable,
    IntervalUnion,
    StepEstimate,
    Uniform01,
    ValueSet,
)
from .shearer import ProbabilityVector
from .wdag import WDag


def parse_fraction(text) -> Fraction:
    if isinstance(text, bool):
        raise InputError("expected a rational, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
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


def jsonable(value) -> Any:
    """The one writer of results: a dataclass as the dict of its fields,
    rationals as "a/b", tuples and sorted sets as lists, dict keys as
    strings (an index set as "i,j", the empty set as "()")."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {_key_str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [jsonable(v) for v in items]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


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
        edges = [tuple(_integer(x, what) for x in e) for e in data.get("edges", [])]
        return DependencyGraph.from_edges(_integer(data["m"], what), edges)


def load_bipartite(data: Mapping) -> BipartiteEventVariableGraph:
    what = "bad bipartite graph object: events, vars and incidences"
    with _wire_object("bipartite graph"):
        return BipartiteEventVariableGraph(
            _integer(data["events"], what),
            _integer(data["vars"], what),
            frozenset((_integer(i, what), _integer(j, what)) for i, j in data.get("edges", [])),
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
        try:
            u, v = (int(part) for part in chunk.split("-"))
        except ValueError:
            raise InputError(f"bad matching pair {chunk!r}") from None
        pairs.add((u, v))
    return Matching(frozenset(pairs))


def _load_allowed(spec: Mapping):
    """An allowed set; EventSystem checks it against its variable."""
    if "intervals" in spec:
        return IntervalUnion(
            tuple((parse_fraction(a), parse_fraction(b)) for a, b in spec["intervals"])
        )
    if "values" in spec:
        what = "bad event system object: values"
        return ValueSet(frozenset(_integer(v, what) for v in spec["values"]))
    raise InputError("allowed set needs 'intervals' or 'values'")


def load_event_system(data: Mapping) -> EventSystem:
    with _wire_object("event system"):
        variables = []
        for spec in data.get("variables", []):
            kind = spec.get("kind")
            if kind == "uniform01":
                variables.append(Uniform01())
            elif kind == "finite":
                variables.append(
                    FiniteVariable(tuple(parse_fraction(x) for x in spec["masses"]))
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
                # decimal digits only: int() would also read "1_0" and " +2 "
                if not (var_key.isascii() and var_key.isdigit()):
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


def load_wdag(data: Mapping) -> WDag:
    what = "bad wdag object: labels and arcs"
    with _wire_object("wdag"):
        return WDag(
            tuple(_integer(x, what) for x in data["labels"]),
            frozenset((_integer(u, what), _integer(v, what)) for u, v in data.get("arcs", [])),
        )


def estimate_to_rows(est: StepEstimate, seed) -> list[list]:
    rows = [["seed", "T", "truncated"]]
    for index, t, truncated in est.per_trial:
        rows.append([f"{seed}/{index}", t, str(truncated).lower()])
    return rows


def dumps_json(payload) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def dumps_csv(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([jsonable(x) for x in row])
    return buf.getvalue()


def emit_report(payload, path: str | None, fmt: str = "json") -> str:
    """Serialize to json or csv; write to path when given. Returns the text."""
    if fmt == "json":
        text = dumps_json(payload)
    elif fmt == "csv":
        if not isinstance(payload, (list, tuple)):
            raise InputError("csv output needs a list of rows")
        text = dumps_csv(payload)
    else:
        raise InputError(f"unknown format {fmt!r}")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
    return text
