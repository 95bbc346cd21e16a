"""Command-line interface.

Verbs: info, verify, complete, hull, catalog, chain.  Exit codes follow the
sysexits convention where it applies: 0 the requested contract held, 1 it
was refuted, 2 it could not be decided, 64 usage, 65 bad input data, 66
unreadable input, 73 the --out file could not be written.  Output is
deterministic for a fixed invocation and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any

from . import catalog as _catalog
from . import serialize
from .constructions import (
    complete_ball_degree_d,
    complete_degree_d,
    complete_disc,
    complete_flag,
    complete_join,
    complete_stacked_ball,
    complete_stacked_sphere,
    sphere_chain,
)
from .core import Complex, pseudomanifold_check
from .errors import (
    FactorNotSphere,
    NotBall,
    NotDisc,
    NotFlag,
    NotSphere,
    NotStacked,
    NotStackedBall,
    UnknownName,
)
from .polytopal import (
    PointConfiguration,
    convex_hull,
    perturb_to_general_position,
    polytopal_complete,
)
from .recognition import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    certify_ball,
    certify_sphere,
    collapse_stacked_sphere_to_ball,
    is_flag,
    is_stacked_ball,
)

EX_OK = 0
EX_REFUTED = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66
EX_CANTCREAT = 73

_REFUTATIONS = (
    NotSphere,
    NotBall,
    NotStacked,
    NotStackedBall,
    NotFlag,
    NotDisc,
    FactorNotSphere,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="infile", metavar="PATH",
                   help="complex file (text or JSON); '-' reads stdin")
    g.add_argument("--catalog", metavar="NAME", help="built-in example name")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _budget(text: str) -> int:
    """--budget: a non-negative int, with int's message for a non-integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _choices(text: str) -> list[int]:
    """--choices: comma-separated ints; anything else is bad input data."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--choices expects comma-separated integers, got {text!r}"
        ) from None


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="combisphere",
                     description="exact combinatorial spheres and balls")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[], help="summarize a complex")
    _add_input_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="certify or refute a property")
    p.add_argument("kind", choices=["sphere", "ball", "stacked-ball",
                                    "stacked-sphere", "flag", "pseudomanifold"])
    _add_input_flags(p)
    _add_search_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("complete",
                       help="extend the input into a sphere on the same vertices")
    p.add_argument("kind", choices=["join", "degree", "flag", "stacked-ball",
                                    "stacked-sphere", "ball-degree", "disc",
                                    "polytopal"])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="infile", metavar="PATH")
    g.add_argument("--catalog", metavar="NAME")
    g.add_argument("--points", metavar="PATH",
                   help="point configuration JSON (polytopal only)")
    p.add_argument("--factor", action="append", default=[], metavar="SRC",
                   help="join factor, a file path or catalog name; repeatable")
    p.add_argument("--choices", metavar="V1,V2,...",
                   help="per-factor pivot vertices for join")
    p.add_argument("--vertex", type=int, metavar="V",
                   help="vertex choice (v for degree/flag/polytopal, u for ball-degree)")
    p.add_argument("--apex", type=int, metavar="U",
                   help="apex choice (u) where the construction takes one")
    p.add_argument("--trust", action="store_true",
                   help="skip re-certifying the inputs")
    _add_search_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("hull", help="exact convex hull of rational points")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", metavar="PATH", help="point JSON; '-' reads stdin")
    g.add_argument("--catalog", metavar="NAME")
    p.add_argument("--perturb", action="store_true",
                   help="nudge into general position instead of extracting the hull")
    p.add_argument("--target", metavar="SRC",
                   help="hull complex to preserve while perturbing")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)

    p = sub.add_parser("catalog", help="list or show built-in examples")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="entry name for show")
    _add_output_flags(p)

    p = sub.add_parser("chain",
                       help="iterate stacked-sphere completion up to the standard sphere")
    _add_input_flags(p)
    _add_output_flags(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on the first call, then kept for the
    process.  build_parser() stays fresh for callers who extend theirs."""
    return build_parser()


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _catalog_entry(name: str, points: bool) -> Complex | PointConfiguration:
    """The point configuration of a catalog entry if points, else its complex."""
    entry = _catalog.get(name)
    found = entry.points if points else entry.complex
    if found is None:
        kind = "not a" if points else "a"
        raise ValueError(f"catalog entry {name!r} is {kind} point configuration")
    return found


def _load_complex(args: argparse.Namespace) -> Complex:
    """Only complete takes --points besides --in and --catalog, as the input
    that its polytopal kind reads in place of a complex."""
    if args.catalog is not None:
        return _catalog_entry(args.catalog, points=False)
    if args.infile is None:
        raise ValueError(f"complete {args.kind} needs --in or --catalog")
    return serialize.parse_complex(_read(args.infile))


def _load_points(args: argparse.Namespace) -> PointConfiguration:
    if args.catalog is not None:
        return _catalog_entry(args.catalog, points=True)
    if args.points is None:
        raise ValueError(f"complete {args.kind} needs --points or --catalog")
    return serialize.parse_points(_read(args.points))


def _resolve_source(source: str) -> Complex:
    """A factor or target: an existing file wins, otherwise the catalog."""
    if source == "-" or os.path.exists(source):
        return serialize.parse_complex(_read(source))
    return _catalog_entry(source, points=False)


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out is not None and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb handlers; each returns (output text, exit code)
# ---------------------------------------------------------------------------


def _do_info(args: argparse.Namespace) -> tuple[str, int]:
    X = _load_complex(args)
    # counted once, and before the ridge map and facet graph are built and kept
    f_vector = X.f_vector
    report = pseudomanifold_check(X)
    obj: dict[str, Any] = {
        "dim": X.dim,
        "n_vertices": X.n_vertices,
        "n_facets": X.n_facets,
        "f_vector": list(f_vector),
        "euler_characteristic": sum((-1) ** j * fj for j, fj in enumerate(f_vector)),
        "pseudomanifold": report.is_pseudomanifold,
        "closed": report.closed,
    }
    if args.json:
        return serialize.dumps(obj), EX_OK
    lines = [
        f"dim: {obj['dim']}",
        f"vertices: {obj['n_vertices']}",
        f"facets: {obj['n_facets']}",
        f"f-vector: {' '.join(str(k) for k in obj['f_vector'])}",
        f"euler characteristic: {obj['euler_characteristic']}",
        f"pseudomanifold: {'yes' if obj['pseudomanifold'] else 'no'}",
        f"closed: {'yes' if obj['closed'] else 'no'}",
    ]
    return "\n".join(lines) + "\n", EX_OK


def _verdict_output(verdict, args: argparse.Namespace) -> tuple[str, int]:
    code = {"certified": EX_OK, "refuted": EX_REFUTED, "unknown": EX_UNKNOWN}[
        verdict.status
    ]
    if args.json:
        return serialize.dumps(serialize.verdict_to_json_obj(verdict)), code
    return f"{verdict.status}: {verdict.reason}\n", code


def _bool_output(held: bool, reason: str, args: argparse.Namespace,
                 key: str) -> tuple[str, int]:
    code = EX_OK if held else EX_REFUTED
    if args.json:
        return serialize.dumps({key: held, "reason": reason}), code
    return f"{'yes' if held else 'no'}: {reason}\n", code


def _do_verify(args: argparse.Namespace) -> tuple[str, int]:
    X = _load_complex(args)
    if args.kind == "sphere":
        return _verdict_output(
            certify_sphere(X, budget=args.budget, seed=args.seed), args
        )
    if args.kind == "ball":
        return _verdict_output(
            certify_ball(X, budget=args.budget, seed=args.seed), args
        )
    if args.kind == "stacked-ball":
        report = is_stacked_ball(X)
        return _bool_output(report.stacked, report.reason or "stacked ball",
                            args, "stacked")
    if args.kind == "stacked-sphere":
        try:
            collapse_stacked_sphere_to_ball(X)
        except NotStacked as exc:
            return _bool_output(False, str(exc), args, "stacked")
        return _bool_output(True, "collapses to a stacked ball", args, "stacked")
    if args.kind == "flag":
        held = is_flag(X)
        return _bool_output(held, "every clique of the edge graph is a face"
                            if held else "not flag", args, "flag")
    report = pseudomanifold_check(X)
    reason = ("closed" if report.closed else "with boundary") \
        if report.is_pseudomanifold else "not a pseudomanifold"
    return _bool_output(report.is_pseudomanifold, reason, args, "pseudomanifold")


# the choice flags each complete kind reads; any other one given is refused
_CHOICE_FLAGS = {
    "join": ("factor", "choices"),
    "degree": ("vertex", "apex"),
    "flag": ("vertex", "apex"),
    "ball-degree": ("vertex",),
    "polytopal": ("vertex",),
}


def _completion_output(result, args: argparse.Namespace) -> tuple[str, int]:
    if args.json:
        return serialize.dumps(serialize.completion_to_json_obj(result)), EX_OK
    return serialize.complex_to_text(result.sphere), EX_OK


def _do_complete(args: argparse.Namespace) -> tuple[str, int]:
    for flag in ("factor", "choices", "vertex", "apex"):
        unread = flag not in _CHOICE_FLAGS.get(args.kind, ())
        if unread and getattr(args, flag) not in (None, []):
            raise ValueError(f"complete {args.kind} does not take --{flag}")
    kw = {"trust": args.trust, "budget": args.budget, "seed": args.seed}
    if args.kind == "polytopal":
        result = polytopal_complete(_load_points(args), args.vertex)
        return _completion_output(result, args)
    X = _load_complex(args)
    if args.kind == "join":
        if len(args.factor) < 2:
            raise ValueError("complete join needs at least two --factor")
        factors = [_resolve_source(source) for source in args.factor]
        choices = _choices(args.choices) if args.choices is not None else None
        result = complete_join(X, factors, choices, **kw)
    elif args.kind == "degree":
        result = complete_degree_d(X, args.vertex, args.apex, **kw)
    elif args.kind == "flag":
        result = complete_flag(X, args.vertex, args.apex, **kw)
    elif args.kind == "stacked-ball":
        result = complete_stacked_ball(X)
    elif args.kind == "stacked-sphere":
        result = complete_stacked_sphere(X)
    elif args.kind == "ball-degree":
        result = complete_ball_degree_d(X, args.vertex, **kw)
    else:
        result = complete_disc(X, **kw)
    return _completion_output(result, args)


def _do_hull(args: argparse.Namespace) -> tuple[str, int]:
    if args.target is not None and not args.perturb:
        raise ValueError("--target needs --perturb")
    pc = _load_points(args)
    if args.perturb:
        if args.target is None:
            raise ValueError("--perturb needs --target")
        target = _resolve_source(args.target)
        moved = perturb_to_general_position(pc, target, seed=args.seed)
        return serialize.points_to_json(moved), EX_OK
    hull = convex_hull(pc)
    if args.json:
        obj = {
            "facets": [
                {
                    "vertices": list(f.vertices),
                    "normal": [str(c) for c in f.normal],
                    "offset": str(f.offset),
                }
                for f in hull.facets
            ],
            "boundary": serialize.complex_to_json_obj(hull.boundary_complex),
        }
        return serialize.dumps(obj), EX_OK
    return serialize.complex_to_text(hull.boundary_complex), EX_OK


def _do_catalog(args: argparse.Namespace) -> tuple[str, int]:
    if args.action == "list":
        names = _catalog.available()
        if args.json:
            return serialize.dumps(list(names)), EX_OK
        return "".join(name + "\n" for name in names), EX_OK
    if not args.name:
        raise ValueError("catalog show needs a name")
    entry = _catalog.get(args.name)
    if args.json:
        obj: dict[str, Any] = {
            "name": entry.name,
            "provenance": entry.provenance,
            "expected_properties": [list(p) for p in entry.expected_properties],
        }
        if entry.complex is not None:
            obj["complex"] = serialize.complex_to_json_obj(entry.complex)
        if entry.points is not None:
            obj["points"] = serialize.points_to_json_obj(entry.points)
        return serialize.dumps(obj), EX_OK
    if entry.complex is not None:
        header = f"# {entry.name}\n# {entry.provenance}\n"
        return header + serialize.complex_to_text(entry.complex), EX_OK
    return serialize.points_to_json(entry.points), EX_OK


def _do_chain(args: argparse.Namespace) -> tuple[str, int]:
    X = _load_complex(args)
    chain = sphere_chain(X)
    if args.json:
        return serialize.dumps(
            {"chain": [serialize.complex_to_json_obj(step) for step in chain]}
        ), EX_OK
    blocks = []
    for i, step in enumerate(chain):
        blocks.append(f"# step {i}: dim {step.dim}, {step.n_facets} facets\n"
                      + serialize.complex_to_text(step))
    return "\n".join(blocks), EX_OK


_HANDLERS = {
    "info": _do_info,
    "verify": _do_verify,
    "complete": _do_complete,
    "hull": _do_hull,
    "catalog": _do_catalog,
    "chain": _do_chain,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, code = _HANDLERS[args.verb](args)
    except _REFUTATIONS as exc:
        sys.stderr.write(f"combisphere: {exc}\n")
        return EX_REFUTED
    except (UnknownName, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        sys.stderr.write(f"combisphere: {message}\n")
        return EX_DATA
    except OSError as exc:
        sys.stderr.write(f"combisphere: {exc}\n")
        return EX_NOINPUT
    try:
        _emit(text, args)
    except OSError as exc:
        sys.stderr.write(f"combisphere: {exc}\n")
        return EX_CANTCREAT
    return code


if __name__ == "__main__":
    sys.exit(main())
