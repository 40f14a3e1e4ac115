"""Command-line front end.

Subcommands: shearer-check, boundary, gap, mt-run, mt-estimate, wdag-sum,
criterion, beyond, lattice-gap, selftest. Exit codes: 0 success, 1 verdict
rejected (output still valid), 2 input error, 3 cap exceeded.

At module level the front end imports the Shearer side only (graphs,
shearer, criterion, lattices, jsonio). The engine, the wdag calculus and
the acceptance suite are imported inside the commands that run them, so the
Shearer-side commands load neither. The engine checks rule names and owns
the default step cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import jsonio
from .criterion import (
    IntersectionSetting,
    beyond_shearer_verdict,
    intersection_lll_verdict,
    lattice_gap_q,
)
from .graphs import CapExceeded, InputError, base_graph
from .jsonio import parse_fraction
from .lattices import BUILTIN_LATTICES, builtin_lattice
from .shearer import boundary_scale, gap, in_shearer_bound, resample_bound

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno}") from exc
    except RecursionError as exc:
        raise InputError(f"malformed JSON in {path}: nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text") from exc
    except ValueError as exc:  # an integer literal past the int digit limit
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _graph(args):
    bipartite = getattr(args, "bipartite", None)
    if args.graph and bipartite:
        raise InputError("give either --graph or --bipartite, not both")
    if bipartite:
        return base_graph(jsonio.load_bipartite(_read_json(bipartite)))
    if not args.graph:
        raise InputError("a --graph or --bipartite input is required")
    return jsonio.load_graph(_read_json(args.graph))


def _pvec(args):
    """--p as comma-separated rationals, or as JSON when it starts with
    '[' or '{' (a list, or the wire format's {"p": [...]})."""
    text = args.p
    if text.lstrip()[:1] in ("[", "{"):
        try:
            text = json.loads(text)
        except (ValueError, RecursionError) as exc:  # malformed, or an integer past the int digit limit
            raise InputError(f"malformed JSON in --p: {exc}") from exc
    return jsonio.load_probability_vector(text)


def _seed(text: str) -> int | str:
    """Seeds as the API takes them: ASCII -?[0-9]+ parses as int, any other
    string stays a string (int() would also read "1_0", "+7" and "٣")."""
    return int(text) if re.fullmatch(r"-?[0-9]+", text) else text


def _write(args, text: str) -> None:
    if args.out:
        jsonio.write_report(text, args.out)
    else:
        sys.stdout.write(text)


def _emit(args, payload):
    _write(args, jsonio.dumps_json(payload))


def _emit_verdict(args, verdict) -> int:
    _emit(args, verdict)
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_shearer_check(args) -> int:
    g = _graph(args)
    report = in_shearer_bound(g, _pvec(args))
    payload = jsonio.jsonable(report)
    if report.in_bound:
        payload["expected_resample_bound"] = resample_bound(report)
    _emit(args, payload)
    return EXIT_OK if report.in_bound else EXIT_REJECT


def cmd_boundary(args) -> int:
    g = _graph(args)
    _emit(args, boundary_scale(g, _pvec(args), parse_fraction(args.resolution)))
    return EXIT_OK


def cmd_gap(args) -> int:
    """The exact gap as both lower and upper, -1 for a vector in the bound,
    beside the resolution, which is checked and echoed only."""
    g, p, resolution = _graph(args), _pvec(args), parse_fraction(args.resolution)
    if resolution <= 0:
        raise InputError("resolution must be positive")
    exact = gap(g, p)
    exact = Fraction(-1) if exact is None else exact
    _emit(args, {"lower": exact, "upper": exact, "resolution": resolution})
    return EXIT_OK


def cmd_mt_run(args) -> int:
    from .mt_engine import DEFAULT_STEP_CAP, run_mt

    system = jsonio.load_event_system(_read_json(args.system))
    cap = DEFAULT_STEP_CAP if args.step_cap is None else args.step_cap
    stats = run_mt(system, args.rule, args.seed, cap)
    _emit(args, {**jsonio.jsonable(stats), "T": stats.t})
    return EXIT_OK


def cmd_mt_estimate(args) -> int:
    from .mt_engine import DEFAULT_STEP_CAP, estimate_expected_steps

    system = jsonio.load_event_system(_read_json(args.system))
    cap = DEFAULT_STEP_CAP if args.step_cap is None else args.step_cap
    est = estimate_expected_steps(system, args.rule, args.trials, args.seed, cap)
    if args.format == "csv":
        _write(args, jsonio.dumps_estimate_csv(est, args.seed))
    else:
        _emit(
            args,
            {
                "mean": est.mean,
                "stderr": est.stderr,
                "trials": est.trials,
                "truncated_runs": est.truncated_runs,
            },
        )
    return EXIT_OK


def cmd_wdag_sum(args) -> int:
    from .wdag import weight_sums

    g = _graph(args)
    sums = weight_sums(g, _pvec(args), args.node_cap)
    if args.format == "csv":
        rows = [["size", "sum", "cumulative"]]
        acc = Fraction(0)
        for size in sorted(sums.by_size):
            acc += sums.by_size[size]
            rows.append([size, sums.by_size[size], acc])
        _write(args, jsonio.dumps_csv(rows))
    else:
        _emit(args, sums)
    return EXIT_OK


def cmd_criterion(args) -> int:
    g = _graph(args)
    p = _pvec(args)
    matching = jsonio.load_matching(args.matching)
    if args.delta is not None and args.system is not None:
        raise InputError("give either --delta or --system, not both")
    if args.delta is not None:
        values = [parse_fraction(x) for x in args.delta.split(",")]
        pairs = sorted(matching.pairs)
        if len(values) != len(pairs):
            raise InputError("one delta per matching pair required")
        delta = dict(zip(pairs, values))
        source = "user"
    elif args.system is not None:
        from .mt_engine import measure_pair_intersections

        system = jsonio.load_event_system(_read_json(args.system))
        inter = measure_pair_intersections(system)
        if not matching.pairs <= inter.keys():
            u, v = min(matching.pairs - inter.keys())
            raise InputError(f"matched pair {u}-{v} is not a dependent pair of the system")
        delta = {pair: inter[pair] for pair in matching.pairs}
        source = "measured"
    else:
        raise InputError("need --delta or --system to bound pair intersections")
    setting = IntersectionSetting(g, p, matching, delta)
    return _emit_verdict(args, intersection_lll_verdict(setting, parse_fraction(args.eps), source))


def cmd_beyond(args) -> int:
    g = _graph(args)
    return _emit_verdict(args, beyond_shearer_verdict(g, _pvec(args), parse_fraction(args.eps)))


def cmd_lattice_gap(args) -> int:
    spec = builtin_lattice(args.lattice)
    expanded, _ = spec.expanded()
    report = lattice_gap_q(expanded, spec.unit, parse_fraction(args.pa))
    _emit(
        args,
        {
            "lattice": args.lattice,
            "q_lower": report.q.lo,
            "q_upper": report.q.hi,
            "q_float": float((report.q.lo + report.q.hi) / 2),
            "unit_diameter": report.unit_diameter,
            "unit_vertices": report.unit_vertices,
            "lattice_max_degree": report.lattice_max_degree,
            "overlap_functional_lower": float(report.overlap_functional.lo),
            "note": report.note,
        },
    )
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    all_ok = all(res.passed for res in results)
    lines = [
        f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.criterion} ({res.elapsed:.1f}s): {res.detail}\n"
        for res in results
    ]
    _write(args, "".join(lines) + "selftest: " + ("all passed\n" if all_ok else "FAILURES\n"))
    return EXIT_OK if all_ok else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lll-workbench",
        description="Exact Shearer-region computation and resampling workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, pvec=False, system=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if graph:
            p.add_argument("--graph", default=None, help="dependency graph JSON path")
            p.add_argument(
                "--bipartite", default=None,
                help="event-variable graph JSON path (dependency graph derived)",
            )
        if pvec:
            p.add_argument("--p", required=True, help="probabilities: '1/4,1/4' or JSON")
        if system:
            p.add_argument("--system", required=True, help="event system JSON path")

    p = sub.add_parser("shearer-check", help="membership in the Shearer region")
    common(p, graph=True, pvec=True)
    p.set_defaults(fn=cmd_shearer_check)

    p = sub.add_parser("boundary", help="bisection bracket of the boundary scale")
    common(p, graph=True, pvec=True)
    p.add_argument("--resolution", default="1/1024")
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("gap", help="the exact L1 gap")
    common(p, graph=True, pvec=True)
    p.add_argument("--resolution", default="1/256", help="checked and echoed only")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("mt-run", help="one seeded resampling run")
    common(p, system=True)
    p.add_argument("--rule", default="lowest-index")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--step-cap", type=int)
    p.set_defaults(fn=cmd_mt_run)

    p = sub.add_parser("mt-estimate", help="mean resample count over seeded runs")
    common(p, system=True)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--rule", default="lowest-index")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--step-cap", type=int)
    p.set_defaults(fn=cmd_mt_estimate)

    p = sub.add_parser("wdag-sum", help="exact pwdag weight sums by size")
    common(p, graph=True, pvec=True)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--node-cap", type=int, default=6)
    p.set_defaults(fn=cmd_wdag_sum)

    p = sub.add_parser("criterion", help="intersection-aware convergence verdict")
    common(p, graph=True, pvec=True)
    p.add_argument("--matching", required=True, help="matched pairs: '1-2,3-4'")
    p.add_argument("--delta", default=None, help="per-pair floors: '1/8,1/8'")
    p.add_argument("--system", default=None, help="measure floors from this system")
    p.add_argument("--eps", required=True)
    p.set_defaults(fn=cmd_criterion)

    p = sub.add_parser("beyond", help="beyond-region verdict from cycle slack")
    common(p, graph=True, pvec=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(fn=cmd_beyond)

    p = sub.add_parser("lattice-gap", help="gap bound for a built-in lattice")
    common(p)
    p.add_argument("--lattice", required=True, choices=tuple(BUILTIN_LATTICES))
    p.add_argument("--pa", required=True, help="symmetric boundary probability")
    p.set_defaults(fn=cmd_lattice_gap)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


# Built at the first dispatch and shared by all later ones: parse_args fills
# a fresh Namespace per call and leaves the parser as it was, and help and
# error text are formatted (at the terminal's width) when printed.
_dispatch_parser = functools.lru_cache(maxsize=1)(build_parser)


def dispatch(argv=None) -> int:
    """Run one command; may be called any number of times in a process."""
    args = _dispatch_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
