"""Command-line front end.

Three subcommands: ``charpoly`` prints exact Laplacian characteristic
polynomials (optionally computing the recurrence and matrix routes side by
side), ``invariants`` prints the spectrum-determined graph invariants, and
``verify`` runs a named verification suite over a parameter grid and emits
its report.

The ``verify`` flags are derived from the suite signatures in
``verify.SUITES``: one ``--flag-name`` per parameter name, accepted only by
the suites that take it, and required where the parameter has no default.

Exit codes: 0 on success (for ``verify``, success means the suite passed),
1 when a computation ran but the check failed, 2 for usage errors,
including a graph above ``MAX_CLI_VERTICES`` and a negative bound.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import asdict
from typing import Optional

from .graph6 import Graph6Error, graph6_decode
from .graphs import Graph, make_cycle, make_dumbbell, make_path, make_theta
from .invariants import graph_invariants
from .laplacian import charpoly, laplacian
from .polynomials import IntPoly
from .recurrences import (dumbbell_charpoly_rec, path_charpoly_rec,
                          theta_charpoly_rec)
from .verify import SUITES

# Suite parameters by name, from the suite signatures.  Each one is a flag;
# suites reject flags they do not take so a typo cannot silently run the
# default grid.
_SIGNATURES = {suite: inspect.signature(runner).parameters
               for suite, runner in SUITES.items()}
_PARAMETERS = {name: param for params in _SIGNATURES.values()
               for name, param in params.items()}

_KINDS = ("dumbbell", "theta", "cycle", "path", "g6")

# Largest graph charpoly and invariants accept; Berkowitz is O(n^4) and
# takes ~0.02 s on a path of 80 vertices and ~0.6 s on one of 200 (Python
# 3.11 on a 2-vCPU VM).
MAX_CLI_VERTICES = 200


def _parse_graph_spec(parser: argparse.ArgumentParser, kind: str,
                      params: list[str]) -> tuple[Graph, Optional[IntPoly]]:
    """Build the requested graph; also return its recurrence-route charpoly
    when the kind has one."""
    arity = {"dumbbell": 3, "theta": 3, "cycle": 1, "path": 1, "g6": 1}[kind]
    if len(params) != arity:
        parser.error(f"{kind} takes {arity} parameter(s), got {len(params)}")

    def check_size(vertices: int) -> None:
        if vertices > MAX_CLI_VERTICES:
            parser.error(f"{kind} graph has {vertices} vertices; "
                         f"at most {MAX_CLI_VERTICES} are accepted")

    if kind == "g6":
        try:
            g = graph6_decode(params[0].encode("ascii"))
        except (Graph6Error, UnicodeEncodeError) as exc:
            parser.error(f"bad graph6 string: {exc}")
        check_size(g.n)
        return g, None
    try:
        values = [int(text) for text in params]
    except ValueError:
        parser.error(f"{kind} parameters must be integers, got {params!r}")
    check_size(sum(values) + (2 if kind == "theta" else 0))
    try:
        if kind == "dumbbell":
            p, k, q = values
            return make_dumbbell(p, k, q), dumbbell_charpoly_rec(p, k, q)
        if kind == "theta":
            r, s, t = values
            return make_theta(r, s, t), theta_charpoly_rec(r, s, t)
        if kind == "cycle":
            return make_cycle(values[0]), None
        return make_path(values[0]), path_charpoly_rec(values[0])
    except ValueError as exc:
        parser.error(str(exc))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text + "\n")


def _cmd_charpoly(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    g, by_recurrence = _parse_graph_spec(parser, args.kind, args.params)
    if args.check and by_recurrence is None:
        parser.error(f"--check needs a second route; none exists for '{args.kind}'")
    by_matrix = charpoly(laplacian(g))
    shown = by_recurrence if by_recurrence is not None else by_matrix
    agree = by_recurrence == by_matrix if args.check else None

    if args.format == "json":
        import json
        payload = {
            "kind": args.kind,
            "params": args.params,
            "vertices": g.n,
            "edges": g.m,
            "charpoly": {"text": str(shown), "coeffs": list(shown.coeffs)},
        }
        if args.check:
            payload["routes"] = {
                "recurrence": list(by_recurrence.coeffs),
                "matrix": list(by_matrix.coeffs),
                "agree": agree,
            }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"phi(x) = {shown}",
                 f"coeffs (ascending) = {list(shown.coeffs)}"]
        if args.check:
            lines.append(f"recurrence route = {by_recurrence}")
            lines.append(f"matrix route     = {by_matrix}")
            lines.append(f"routes agree: {'yes' if agree else 'NO'}")
        _emit("\n".join(lines), args.out)
    return 0 if agree in (None, True) else 1


def _cmd_invariants(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    g, _ = _parse_graph_spec(parser, args.kind, args.params)
    inv = graph_invariants(g)
    if args.format == "json":
        import json
        _emit(json.dumps(asdict(inv), indent=2), args.out)
    else:
        trees = inv.spanning_trees
        lines = [
            f"vertices          = {inv.vertices}",
            f"edges             = {inv.edges}",
            f"components        = {inv.components}",
            f"spanning trees    = {trees if trees is not None else 'undefined (disconnected)'}",
            f"degree square sum = {inv.degree_square_sum}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    accepted = _SIGNATURES[args.suite]
    required = [name for name, param in accepted.items()
                if param.default is inspect.Parameter.empty]
    overrides = {}
    for name in _PARAMETERS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            parser.error(f"{_flag(name)} is not a parameter of suite '{args.suite}'")
        overrides[name] = value
    for name in required:
        if name not in overrides:
            parser.error(f"suite '{args.suite}' requires {_flag(name)}")
    report = SUITES[args.suite](**overrides)
    if args.format == "json":
        _emit(report.to_json(), args.out)
        if args.out is not None:
            print(report.summary_line())
    else:
        lines = [report.summary_line()]
        for item in report.counterexamples[:20]:
            lines.append(f"  counterexample: {item}")
        if len(report.counterexamples) > 20:
            lines.append(f"  ... {len(report.counterexamples) - 20} more")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapspec",
        description="Exact Laplacian spectral checks for dumbbell and theta graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write output to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("charpoly", parents=[common],
                        help="exact Laplacian characteristic polynomial")
    cp.add_argument("kind", choices=_KINDS)
    cp.add_argument("params", nargs="*",
                    help="dumbbell P K Q | theta R S T | cycle N | path N | g6 STRING")
    cp.add_argument("--check", action="store_true",
                    help="compute recurrence and matrix routes and compare")

    inv = sub.add_parser("invariants", parents=[common],
                         help="invariants determined by the Laplacian spectrum")
    inv.add_argument("kind", choices=_KINDS)
    inv.add_argument("params", nargs="*")

    ver = sub.add_parser("verify", parents=[common],
                         help="run a verification suite; exit 0 iff it passes")
    ver.add_argument("suite", choices=sorted(SUITES))
    for name, param in _PARAMETERS.items():
        # Every suite parameter is an int bound except the cache directory,
        # whose default is None.
        kind = str if param.default is None else int
        ver.add_argument(_flag(name), dest=name, type=kind, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"charpoly": _cmd_charpoly, "invariants": _cmd_invariants,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
