"""JSON and CSV wire formats.

Graphs: {"m": int, "edges": [[u,v],...]}; bipartite graphs: {"events": m,
"vars": n, "edges": [[i,j],...]}; probability vectors: {"p": ["1/4",...]}
accepting fraction or decimal strings, converted exactly. Event systems list
variables ({"kind": "uniform01"} or {"kind": "finite", "masses": [...]}) and
elementary events with per-variable interval unions or value sets. Reports
are emitted with sorted keys and rationals rendered "a/b", so byte-identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .graphs import BipartiteEventVariableGraph, DependencyGraph, InputError, Matching
from .mt_engine import (
    Event,
    EventSystem,
    FiniteVariable,
    IntervalUnion,
    RunStats,
    StepEstimate,
    Uniform01,
    ValueSet,
)
from .shearer import GapEstimate, ProbabilityVector, ShearerReport
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


def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def _jsonable(value) -> Any:
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, dict):
        return {_key_str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    return value


def _key_str(key) -> str:
    if isinstance(key, (tuple, frozenset)):
        return ",".join(str(part) for part in sorted(key)) if key else "()"
    return str(key)


def load_graph(data: Mapping) -> DependencyGraph:
    what = "bad graph object: m and edge endpoints"
    try:
        edges = [tuple(_integer(x, what) for x in e) for e in data.get("edges", [])]
        return DependencyGraph.from_edges(_integer(data["m"], what), edges)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph object: {exc}") from exc


def load_bipartite(data: Mapping) -> BipartiteEventVariableGraph:
    what = "bad bipartite graph object: events, vars and incidences"
    try:
        return BipartiteEventVariableGraph(
            _integer(data["events"], what),
            _integer(data["vars"], what),
            frozenset((_integer(i, what), _integer(j, what)) for i, j in data.get("edges", [])),
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad bipartite graph object: {exc}") from exc


def load_probability_vector(data) -> ProbabilityVector:
    if isinstance(data, Mapping):
        entries = data.get("p")
        if entries is None:
            raise InputError("probability object needs a 'p' list")
    elif isinstance(data, str):
        entries = [part.strip() for part in data.split(",")]
    else:
        entries = data
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


def _load_allowed(var, spec: Mapping):
    if "intervals" in spec:
        if not isinstance(var, Uniform01):
            raise InputError("interval sets require a uniform01 variable")
        return IntervalUnion(
            tuple((parse_fraction(a), parse_fraction(b)) for a, b in spec["intervals"])
        )
    if "values" in spec:
        if not isinstance(var, FiniteVariable):
            raise InputError("value sets require a finite variable")
        what = "bad event system object: values"
        values = frozenset(_integer(v, what) for v in spec["values"])
        if not all(0 <= v < len(var.masses) for v in values):
            raise InputError(f"values {sorted(values)} outside 0..{len(var.masses) - 1}")
        return ValueSet(values)
    raise InputError("allowed set needs 'intervals' or 'values'")


def load_event_system(data: Mapping) -> EventSystem:
    try:
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
                allowed.append((j, _load_allowed(variables[j - 1], aspec)))
            vbl = tuple(j for j, _ in allowed)
            events.append(Event(vbl=vbl, allowed=tuple(allowed)))
        if not events:
            raise InputError("event system needs at least one event")
        return EventSystem(tuple(variables), tuple(events))
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad event system object: {exc}") from exc


def load_wdag(data: Mapping) -> WDag:
    what = "bad wdag object: labels and arcs"
    try:
        return WDag(
            tuple(_integer(x, what) for x in data["labels"]),
            frozenset((_integer(u, what), _integer(v, what)) for u, v in data.get("arcs", [])),
        )
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad wdag object: {exc}") from exc


def wdag_to_dict(d: WDag) -> dict:
    return {"labels": list(d.labels), "arcs": [list(a) for a in sorted(d.arcs)]}


def run_stats_to_dict(stats: RunStats) -> dict:
    return {
        "T": stats.t,
        "truncated": stats.truncated,
        "sequence": list(stats.sequence),
        "final_assignment": {
            str(j): _jsonable(v) for j, v in sorted(stats.final_assignment.items())
        },
        "per_event_counts": {
            str(i): c for i, c in sorted(stats.per_event_counts.items())
        },
    }


def shearer_report_to_dict(report: ShearerReport) -> dict:
    return {
        "in_bound": report.in_bound,
        "q_values": {_key_str(k): fraction_str(v) for k, v in report.q_values.items()},
        "witness": list(report.witness) if report.witness is not None else None,
    }


def gap_to_dict(gap: GapEstimate) -> dict:
    return {
        "lower": fraction_str(gap.lower),
        "upper": fraction_str(gap.upper),
        "resolution": fraction_str(gap.resolution),
    }


def estimate_to_rows(est: StepEstimate, seed) -> list[list]:
    rows = [["seed", "T", "truncated"]]
    for index, t, truncated in est.per_trial:
        rows.append([f"{seed}/{index}", t, str(truncated).lower()])
    return rows


def dumps_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def dumps_csv(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_jsonable(x) for x in row])
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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
