"""Command line front end.

Exit codes: 0 success, 1 domain error (a mathematically invalid request,
e.g. a permutation that is not an anti-automorphism), 2 usage error (bad
arguments or malformed files), 3 verification found violations, 141 stdout
closed before the output was written (128 + SIGPIPE, what a shell reports
for a filter that `head` stops), with nothing on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .antiauto import apply_anti, enumerate_ant, enumerate_aut_tf
from .decide import classify
from .errors import (
    CancelGraphError,
    CapacityError,
    InvalidActionError,
    InvalidAntiError,
    ParseError,
    UsageError,
)
from .fileformat import parse_graph_file, parse_permutation, serialize_graph
from .graphs import neighborhood_multiset
from .iso import find_isomorphism
from .product import direct_product

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VIOLATIONS = 3
EXIT_BROKEN_PIPE = 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cancelgraph",
        description="Neighborhood reconstruction and direct-product cancellation for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one graph (JSON)")
    p.add_argument("graph")

    p = sub.add_parser("ant", help="list all anti-automorphisms (JSON image vectors)")
    p.add_argument("graph")

    p = sub.add_parser("tf", help="list the two-fold automorphism group (JSON pairs)")
    p.add_argument("graph")

    p = sub.add_parser("galpha", help="apply an anti-automorphism, print the permuted graph")
    p.add_argument("graph")
    p.add_argument("perm", help="image vector, e.g. '3 4 5 0 1 2'")

    p = sub.add_parser("product", help="direct product of two graphs")
    p.add_argument("graph")
    p.add_argument("other")

    p = sub.add_parser("iso", help="isomorphism test with witness (JSON)")
    p.add_argument("graph")
    p.add_argument("other")

    p = sub.add_parser("nbhd", help="canonical neighborhood multiset (JSON)")
    p.add_argument("graph")

    p = sub.add_parser("verify", help="run the exhaustive verification suites (JSON report)")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--loops", action="store_true", help="verify the loops-allowed universe")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="accepted for compatibility; every suite runs in one process (must be at least 1)",
    )
    p.add_argument(
        "--bip-max", type=int, default=None, dest="bip_max",
        help="cap for the bipartite-only sweep",
    )
    p.add_argument("--force", action="store_true", help="override capacity guards")

    return parser


def _cmd_analyze(args) -> int:
    report = classify(parse_graph_file(args.graph))
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def _cmd_ant(args) -> int:
    g = parse_graph_file(args.graph)
    print(json.dumps([list(a.image) for a in enumerate_ant(g)]))
    return EXIT_OK


def _cmd_tf(args) -> int:
    g = parse_graph_file(args.graph)
    print(json.dumps([[list(p.lam.image), list(p.mu.image)] for p in enumerate_aut_tf(g)]))
    return EXIT_OK


def _cmd_galpha(args) -> int:
    g = parse_graph_file(args.graph)
    a = parse_permutation(args.perm, g.n)
    moved = apply_anti(g, a)
    sys.stdout.write(serialize_graph(moved))
    return EXIT_OK


def _cmd_product(args) -> int:
    g = parse_graph_file(args.graph)
    h = parse_graph_file(args.other)
    sys.stdout.write(serialize_graph(direct_product(g, h)))
    return EXIT_OK


def _cmd_iso(args) -> int:
    g = parse_graph_file(args.graph)
    h = parse_graph_file(args.other)
    phi = find_isomorphism(g, h)
    witness = None if phi is None else list(phi.image)
    print(json.dumps({"isomorphic": phi is not None, "witness": witness}))
    return EXIT_OK


def _cmd_nbhd(args) -> int:
    g = parse_graph_file(args.graph)
    print(json.dumps([list(entry) for entry in neighborhood_multiset(g).entries]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the one command that needs the verification layer loads it
    from .oracle import BIP_SWEEP_MAX, verify_theorems

    report = verify_theorems(
        args.max_n,
        args.loops,
        bip_max=BIP_SWEEP_MAX if args.bip_max is None else args.bip_max,
        jobs=args.jobs,
        force=args.force,
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


_COMMANDS = {
    "analyze": _cmd_analyze,
    "ant": _cmd_ant,
    "tf": _cmd_tf,
    "galpha": _cmd_galpha,
    "product": _cmd_product,
    "iso": _cmd_iso,
    "nbhd": _cmd_nbhd,
    "verify": _cmd_verify,
}


def _refusal(exc: CapacityError, args) -> str:
    """A capacity refusal with its override advice in command-line terms:
    --force where the command takes it, no advice where it does not."""
    if exc.guard is None:
        return str(exc)
    return f"{exc.guard}; pass --force" if hasattr(args, "force") else exc.guard


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        # a closed stdout shows here, inside the try, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point fd 1 at devnull so the final flush at
        # interpreter exit stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"error: {_refusal(exc, args)}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidAntiError, InvalidActionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CancelGraphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
