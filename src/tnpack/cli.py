"""Command-line front end: solve, duality-report, generate, reduce, export-lp.

Reports are JSON on stdout (deterministic apart from the time_ms field);
diagnostics go to stderr. Exit codes: 0 verified result, 1 failed
verification, 2 unparsable input, 3 violated precondition or bad parameters,
4 size-cap refusal (including running out of memory and a search deeper
than the recursion limit).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import instances, lp
from .decomposition import make_nice, read_td  # noqa: F401  (perfbench/spans.py traces make_nice here)
from .duality import certify_tree
from .errors import ParseError, PreconditionError, SizeCapError
from .graph import Graph, RootedTree, read_graph, write_graph
from .oracles import (
    RomanFunction,
    is_roman_dominating,
    is_two_neighbour_packing,
    roman_brute,
    tnp_brute,
)
from .treewidth import solve as dp_solve

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


def _load_graph(path: str) -> Graph:
    return read_graph(Path(path).read_text())


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _instance_info(path: str, g: Graph) -> dict:
    return {"file": path, "n": g.n, "m": g.m}


def cmd_solve(args) -> int:
    if args.td is not None and args.method != "dp":
        raise PreconditionError(f"--td is read only by --method dp, not --method {args.method}")
    g = _load_graph(args.graph)
    started = time.perf_counter()
    report = {"instance": _instance_info(args.graph, g), "method": args.method}
    if args.method == "brute":
        result = tnp_brute(g)
        witness = result.witness
        verified = is_two_neighbour_packing(g, witness) and len(witness) == result.value
        report["value"] = result.value
        report["witness"] = sorted(witness)
    elif args.method == "dp":
        td = read_td(Path(args.td).read_text()) if args.td else None
        # the solver validates a given decomposition, checks its witness and
        # raises RuntimeError (exit 1) when the check fails
        result = dp_solve(g, td=td)
        verified = True
        report["value"] = result.value
        report["witness"] = sorted(result.witness)
    else:
        try:
            tree = RootedTree(g, args.root)
        except ValueError:
            # RootedTree checks the root before tree-ness; a graph that is
            # not a tree is reported as such, whatever the root
            if not (g.n >= 1 and g.m == g.n - 1 and g.is_connected()):
                raise PreconditionError("tree method needs a connected acyclic graph") from None
            raise
        cert = certify_tree(tree)
        verified = cert.verified
        report["value"] = cert.value
        report["witness"] = sorted(cert.packing)
        report["certificate"] = cert.to_dict()
    report["verified"] = verified
    report["time_ms"] = round(1000 * (time.perf_counter() - started), 3)
    if args.witness_out:
        Path(args.witness_out).write_text(
            json.dumps({"value": report["value"], "witness": report["witness"]}, sort_keys=True)
            + "\n"
        )
    _emit(report)
    return EXIT_OK if verified else EXIT_UNVERIFIED


def cmd_duality_report(args) -> int:
    g = _load_graph(args.graph)
    started = time.perf_counter()
    report = {"instance": _instance_info(args.graph, g)}
    try:
        # the constructor decides tree-ness in its one BFS
        tree = RootedTree(g, 0)
    except ValueError:
        tree = None  # empty, or not a tree: the brute-force route
    if tree is not None:
        # certify_tree has checked both witnesses against its optimum
        cert = certify_tree(tree)
        roman_value, roman_witness = cert.value, cert.rdf
        tnp_value, packing = cert.value, cert.packing
        verified = cert.verified
        report["method"] = "tree"
    else:
        roman = roman_brute(g)
        packing_result = tnp_brute(g)
        roman_value, roman_witness = roman.value, roman.witness
        tnp_value, packing = packing_result.value, packing_result.witness
        # the brute-force oracles do not check their own witnesses
        verified = (
            is_roman_dominating(g, roman_witness)
            and roman_witness.weight == roman_value
            and is_two_neighbour_packing(g, packing)
            and len(packing) == tnp_value
        )
        report["method"] = "brute"
    report.update(
        {
            "roman": roman_value,
            "tnp": tnp_value,
            "gap": roman_value - tnp_value,
            "witnesses": {"rdf": list(roman_witness.labels), "packing": sorted(packing)},
            "verified": verified,
        }
    )
    report["time_ms"] = round(1000 * (time.perf_counter() - started), 3)
    _emit(report)
    return EXIT_OK if verified else EXIT_UNVERIFIED


def _build_family(args) -> tuple[Graph, dict, dict]:
    flags, build, values = instances.FAMILIES[args.family]
    required = [flag for flag in flags if flag != "seed"]  # --seed defaults to 0
    if any(getattr(args, flag) in (None, "") for flag in required):
        names = " and ".join(f"--{flag}" for flag in required)
        verb = "is" if len(required) == 1 else "are"
        raise PreconditionError(f"{names} {verb} required for family {args.family}")
    params = {flag: getattr(args, flag) for flag in flags}
    if "parts" in params:
        try:
            params["parts"] = [int(p) for p in params["parts"].split(",")]
        except ValueError:
            raise PreconditionError(
                f"--parts takes comma-separated integers, not {params['parts']!r}"
            ) from None
    return build(**params), params, values(**params)


def _sidecar_path(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".gr":
        return path.with_suffix(".json")
    return Path(str(path) + ".json")


def cmd_generate(args) -> int:
    g, params, expected = _build_family(args)
    Path(args.output).write_text(write_graph(g))
    sidecar = {"family": args.family, "params": params, "expected": expected}
    sidecar_file = _sidecar_path(args.output)
    sidecar_file.write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    _emit(
        {
            "written": [args.output, str(sidecar_file)],
            "n": g.n,
            "m": g.m,
            "expected": expected,
        }
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    h, offset = instances.reduce_independent_set(g)
    Path(args.output).write_text(write_graph(h))
    sidecar = {
        "offset": offset,
        "original": {"file": args.graph, "n": g.n, "m": g.m},
        "reduced": {"n": h.n, "m": h.m},
    }
    sidecar_file = _sidecar_path(args.output)
    sidecar_file.write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    _emit({"written": [args.output, str(sidecar_file)], "offset": offset, "n": h.n, "m": h.m})
    return EXIT_OK


def cmd_export_lp(args) -> int:
    g = _load_graph(args.graph)
    if args.problem == "primal":
        model = lp.build_rdp_ilp(g, relax=args.relax)
    else:
        model = lp.build_tnp_dual(g, integer=not args.relax)
    text = lp.write_lp(model)
    Path(args.output).write_text(text)
    _emit(
        {
            "written": [args.output],
            "problem": args.problem,
            "relaxed": args.relax,
            "variables": len(model.variables),
            "constraints": len(model.constraints),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnpack",
        description="Exact solvers and tooling for two-neighbour packing and Roman domination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="maximum two-neighbour packing of a .gr graph")
    p_solve.add_argument("graph")
    p_solve.add_argument("--method", choices=("brute", "dp", "tree"), default="dp")
    p_solve.add_argument("--td", help="use this .td decomposition instead of the heuristic")
    p_solve.add_argument("--root", type=int, default=0, help="root vertex for --method tree")
    p_solve.add_argument("--witness-out", help="write the witness to this JSON file")
    p_solve.set_defaults(func=cmd_solve)

    p_dual = sub.add_parser(
        "duality-report", help="Roman number, packing number, and the gap between them"
    )
    p_dual.add_argument("graph")
    p_dual.set_defaults(func=cmd_duality_report)

    p_gen = sub.add_parser("generate", help="write a named-family instance plus sidecar")
    p_gen.add_argument("--family", required=True, choices=tuple(instances.FAMILIES))
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--parts", help="comma-separated part sizes, e.g. 2,3")
    p_gen.add_argument("--p", type=float, help="edge probability for random-graph")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_red = sub.add_parser(
        "reduce", help="independent-set gadget reduction of a .gr graph"
    )
    p_red.add_argument("graph")
    p_red.add_argument("-o", "--output", required=True)
    p_red.set_defaults(func=cmd_reduce)

    p_lp = sub.add_parser("export-lp", help="write the covering or packing program")
    p_lp.add_argument("graph")
    p_lp.add_argument("--problem", choices=("primal", "dual"), required=True)
    group = p_lp.add_mutually_exclusive_group()
    group.add_argument("--relax", action="store_true", help="LP relaxation")
    group.add_argument("--integer", action="store_true", help="integer program (default)")
    p_lp.add_argument("-o", "--output", required=True)
    p_lp.set_defaults(func=cmd_export_lp)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # building the subcommand tree costs far more than parsing with it, and
    # parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RecursionError:
        # a RuntimeError subclass, but an input too deep for a recursive
        # search is a size-cap refusal, not a failed verification
        print("error: search deeper than the recursion limit", file=sys.stderr)
        return EXIT_CAP
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except MemoryError:
        # an input too large for this machine is a size-cap refusal
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
