"""Command-line surface: one binary, one subcommand per reproduction task.

JSON output is deterministic: keys sorted, floats fixed to 12 significant
digits.  Graph arguments are graph6 strings; family flags build the named
graphs directly.  The ``family`` subcommand prints a bare graph6 line by
default so it composes under command substitution.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional, Sequence

from . import verify as verify_mod
from .canonical import CANONICAL_ORDER_CAP, is_isomorphic
from .cp import LONG_ODD_CYCLE_ORDER_CAP, find_long_odd_cycle, is_cp_graph
from .errors import OrderCapError, SpecGraphError
from .exact import (CHARPOLY_ORDER_CAP, are_cospectral, charpoly, charpoly_pyramid_factored,
                    charpolys, closed_form_spectrum)
from .graph6 import graph6_decode, graph6_encode, to_dot
from .graphs import FamilyKind, FamilySpec, Graph, make_family
from .numeric import eigenvalues
from .search import (EnumerationReport, cospectral_classes, enumerate_graphs, is_ds,
                     smallest_non_cp_non_ds_order)

_FAMILY_FLAGS = {
    "complete": (FamilyKind.COMPLETE, 1),
    "empty": (FamilyKind.EMPTY, 1),
    "path": (FamilyKind.PATH, 1),
    "cycle": (FamilyKind.CYCLE, 1),
    "star": (FamilyKind.STAR, 1),
    "complete_bipartite": (FamilyKind.COMPLETE_BIPARTITE, 2),
    "pyramid": (FamilyKind.PYRAMID, 2),
}


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), sort_keys=True, indent=2))


def _emit_table(payload: dict) -> None:
    for key in sorted(payload):
        value = _round_floats(payload[key])
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "table":
        _emit_table(payload)
    else:
        _emit_json(payload)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    for flag, (_, arity) in _FAMILY_FLAGS.items():
        metavar = ("N",) if arity == 1 else ("N", "K") if flag == "pyramid" else ("M", "N")
        group.add_argument(f"--{flag.replace('_', '-')}", nargs=arity, type=int,
                           metavar=metavar, default=None)


def _family_spec_from_args(args) -> Optional[FamilySpec]:
    for flag, (kind, _) in _FAMILY_FLAGS.items():
        params = getattr(args, flag, None)
        if params is not None:
            return FamilySpec(kind, tuple(params))
    return None


def _resolve_graph(args, cap: int) -> tuple[Graph, Optional[FamilySpec]]:
    """The graph argument; a family member past the order cap is not built."""
    spec = _family_spec_from_args(args)
    if spec is not None:
        if getattr(args, "graph6", None):
            raise SpecGraphError("give either a graph6 string or a family flag, not both")
        if spec.order > cap:
            raise OrderCapError(f"{args.command} supports 1 <= n <= {cap}, got {spec.order}")
        return make_family(spec), spec
    g6 = getattr(args, "graph6", None)
    if not g6:
        raise SpecGraphError("a graph6 string or a family flag is required")
    return graph6_decode(g6), None


def _cmd_family(args) -> int:
    spec = _family_spec_from_args(args)
    if spec is None:
        raise SpecGraphError("choose a family flag, e.g. --pyramid 6 3")
    g = make_family(spec)
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
    elif args.format == "json":
        _emit_json({
            "family": {"kind": spec.kind.value, "params": list(spec.params)},
            "graph6": graph6_encode(g),
            "order": g.order,
            "edges": g.edge_count,
        })
    else:
        print(graph6_encode(g))
    return 0


def _cmd_charpoly(args) -> int:
    g, spec = _resolve_graph(args, CHARPOLY_ORDER_CAP)
    payload = {
        "graph6": graph6_encode(g),
        "order": g.order,
        "coefficients": list(charpoly(g).coeffs),
    }
    if spec is not None and spec.kind is FamilyKind.PYRAMID:
        payload["factored"] = [{"coefficients": list(base), "exponent": exponent}
                               for base, exponent in charpoly_pyramid_factored(*spec.params)]
    _emit(payload, args.format)
    return 0


def _cmd_spectrum(args) -> int:
    g, spec = _resolve_graph(args, CHARPOLY_ORDER_CAP)
    numeric = eigenvalues(g)
    payload = {
        "graph6": graph6_encode(g),
        "order": g.order,
        "charpoly": list(charpoly(g).coeffs),
        "eigenvalues": list(numeric.values),
        "clustered": [[v, m] for v, m in numeric.clustered()],
    }
    if spec is not None:
        cf = closed_form_spectrum(spec)
        payload["closed_form"] = cf.to_json() if cf is not None else None
    _emit(payload, args.format)
    return 0


def _cmd_cospectral(args) -> int:
    g1 = graph6_decode(args.graph6_a)
    g2 = graph6_decode(args.graph6_b)
    payload = {
        "orders": [g1.order, g2.order],
        "cospectral": are_cospectral(g1, g2),
        "isomorphic": (
            is_isomorphic(g1, g2)
            if max(g1.order, g2.order) <= CANONICAL_ORDER_CAP else None),
    }
    _emit(payload, args.format)
    return 0


def _cmd_ds(args) -> int:
    g, _ = _resolve_graph(args, CANONICAL_ORDER_CAP)
    _emit(is_ds(g).to_json(), args.format)
    return 0


def _cmd_cp(args) -> int:
    g, _ = _resolve_graph(args, LONG_ODD_CYCLE_ORDER_CAP)
    _emit(is_cp_graph(g).to_json(), args.format)
    return 0


def _cmd_enumerate(args) -> int:
    report = cospectral_classes(args.order, workers=args.workers)
    if args.csv:
        _write_census_csv(args.csv, report)
    _emit(report.to_json(), args.format)
    return 0


def _write_census_csv(path: str, report: EnumerationReport) -> None:
    """One row per graph; a graph is DS iff its charpoly class has one member."""
    import csv

    has_mate = {g.bits for cls in report.nontrivial_classes for g in cls}
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["graph6", "charpoly", "is_ds", "is_cp"])
            graphs = enumerate_graphs(report.order)  # cached by cospectral_classes
            for g, coeffs in zip(graphs, charpolys(graphs)):
                writer.writerow([
                    graph6_encode(g),
                    " ".join(map(str, coeffs)),
                    g.bits not in has_mate,
                    is_cp_graph(g).is_cp,
                ])
    except OSError as exc:
        raise SpecGraphError(f"cannot write census CSV: {exc}") from exc


def _cmd_nu(args) -> int:
    result = smallest_non_cp_non_ds_order(args.cap)
    if result is None:
        payload = {"cap": args.cap, "nu": None, "witness": None}
    else:
        payload = {"cap": args.cap, "nu": result.order, "witness": result.to_json()}
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all()
    if args.format == "json":
        _emit_json({"checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "elapsed_s": round(r.elapsed_s, 3)} for r in results
        ], "all_passed": all(r.passed for r in results)})
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {status}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_witness_cycle(args) -> int:
    g, _ = _resolve_graph(args, LONG_ODD_CYCLE_ORDER_CAP)
    _emit({"graph6": graph6_encode(g), "long_odd_cycle": find_long_odd_cycle(g)}, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="Exact spectra, cospectrality search, and CP classification "
                    "of small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph_input=True, formats=("json", "table")):
        if graph_input:
            p.add_argument("graph6", nargs="?", default=None,
                           help="graph6 string (or use a family flag)")
            _add_family_flags(p)
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("family", help="emit a named family member as graph6")
    _add_family_flags(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    common(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("spectrum", help="exact charpoly + numeric eigenvalues")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("cospectral", help="compare two graphs")
    p.add_argument("graph6_a")
    p.add_argument("graph6_b")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_cospectral)

    p = sub.add_parser("ds", help="determined-by-spectrum verdict (exhaustive)")
    common(p)
    p.set_defaults(func=_cmd_ds)

    p = sub.add_parser("cp", help="complete-positivity verdict")
    common(p)
    p.set_defaults(func=_cmd_cp)

    p = sub.add_parser("cycle", help="find a long odd cycle if one exists")
    common(p)
    p.set_defaults(func=_cmd_witness_cycle)

    p = sub.add_parser("enumerate", help="census of one order")
    p.add_argument("order", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", default=None, help="also write per-graph census CSV")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("nu", help="smallest order that is neither CP nor DS")
    p.add_argument("--cap", type=int, default=7)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecGraphError as exc:
        print(json.dumps({"error": {
            "type": type(exc).__name__, "message": str(exc)}}, sort_keys=True))
        return 1


def entrypoint() -> None:
    """The ``specgraph`` script: main() with ResourceWarnings shown on stderr.

    Python ignores ResourceWarning by default, which would hide the warnings
    of the long sweeps (order-8 census, DS search past order 8).  They are
    shown once per place, unless the user set warning filters (-W or
    PYTHONWARNINGS).  main() itself leaves the filters alone.
    """
    if not sys.warnoptions:
        warnings.simplefilter("default", ResourceWarning)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
