"""Command-line interface.

Verbs: info, verify, complete, hull, catalog, chain.  Exit codes follow the
sysexits convention where it applies: 0 the requested contract held, 1 it
was refuted, 2 it could not be decided, 64 usage, 65 bad input data, 66
unreadable input, 73 the --out file could not be written.  Output is
deterministic for a fixed invocation and seed.  An option that a verify or
complete kind does not read (see _READS) exits 65, and one left out takes the
library's default.
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
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_budget)
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
    p.add_argument("--factor", action="append", metavar="SRC",
                   help="join factor, a file path or catalog name; repeatable")
    p.add_argument("--choices", metavar="V1,V2,...",
                   help="per-factor pivot vertices")
    p.add_argument("--vertex", type=int, metavar="V",
                   help="vertex choice: the v, or for a ball the u, of the construction")
    p.add_argument("--apex", type=int, metavar="U",
                   help="apex choice (u) where the construction takes one")
    p.add_argument("--trust", action="store_true", default=None,
                   help="skip re-certifying the inputs")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_budget)
    _add_output_flags(p)

    p = sub.add_parser("hull", help="exact convex hull of rational points")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", metavar="PATH", help="point JSON; '-' reads stdin")
    g.add_argument("--catalog", metavar="NAME")
    p.add_argument("--perturb", action="store_true",
                   help="nudge into general position instead of extracting the hull")
    p.add_argument("--target", metavar="SRC",
                   help="hull complex to preserve while perturbing")
    p.add_argument("--seed", type=int)
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
    # counted once; the count builds the ridge map that the check then reads
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


# per verify and complete kind, each option it reads and the library keyword
# that the option becomes; a kind not listed reads none
_SEARCH = {"budget": "budget", "seed": "seed"}
_CERTIFYING = {"trust": "trust", **_SEARCH}
_READS: dict[tuple[str, str], dict[str, str]] = {
    ("verify", "sphere"): _SEARCH,
    ("verify", "ball"): _SEARCH,
    ("complete", "join"): {"factor": "factors", "choices": "v_choices", **_CERTIFYING},
    ("complete", "degree"): {"vertex": "v", "apex": "u", **_CERTIFYING},
    ("complete", "flag"): {"vertex": "v", "apex": "u", **_CERTIFYING},
    ("complete", "ball-degree"): {"vertex": "u", **_CERTIFYING},
    ("complete", "disc"): _CERTIFYING,
    ("complete", "polytopal"): {"vertex": "v"},
}
# every option of verify and complete besides input and output, in the order checked
_OPTIONS = ("factor", "choices", "vertex", "apex", "trust", "budget", "seed")


def _given(args: argparse.Namespace) -> dict[str, Any]:
    """The library keywords of the options given; refuses one the kind does not read."""
    reads = _READS.get((args.verb, args.kind), {})
    given = [flag for flag in _OPTIONS if getattr(args, flag, None) is not None]
    for flag in given:
        if flag not in reads:
            raise ValueError(f"{args.verb} {args.kind} does not take --{flag}")
    return {reads[flag]: getattr(args, flag) for flag in given}


def _verdict_output(verdict, args: argparse.Namespace) -> tuple[str, int]:
    codes = {"certified": EX_OK, "refuted": EX_REFUTED, "unknown": EX_UNKNOWN}
    code = codes[verdict.status]
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
    kw = _given(args)
    X = _load_complex(args)
    if args.kind in ("sphere", "ball"):
        certify = certify_sphere if args.kind == "sphere" else certify_ball
        return _verdict_output(certify(X, **kw), args)
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


def _completion_output(result, args: argparse.Namespace) -> tuple[str, int]:
    if args.json:
        return serialize.dumps(serialize.completion_to_json_obj(result)), EX_OK
    return serialize.complex_to_text(result.sphere), EX_OK


def _do_complete(args: argparse.Namespace) -> tuple[str, int]:
    kw = _given(args)
    # named at call time: perfbench's tracer wraps module attributes, not table entries
    complete = {
        "join": complete_join,
        "degree": complete_degree_d,
        "flag": complete_flag,
        "stacked-ball": complete_stacked_ball,
        "stacked-sphere": complete_stacked_sphere,
        "ball-degree": complete_ball_degree_d,
        "disc": complete_disc,
        "polytopal": polytopal_complete,
    }[args.kind]
    X = _load_points(args) if args.kind == "polytopal" else _load_complex(args)
    if args.kind == "join":
        if len(kw.get("factors", ())) < 2:
            raise ValueError("complete join needs at least two --factor")
        kw["factors"] = [_resolve_source(source) for source in kw["factors"]]
        if "v_choices" in kw:
            kw["v_choices"] = _choices(kw["v_choices"])
    return _completion_output(complete(X, **kw), args)


def _do_hull(args: argparse.Namespace) -> tuple[str, int]:
    for flag in ("target", "seed"):
        if getattr(args, flag) is not None and not args.perturb:
            raise ValueError(f"--{flag} needs --perturb")
    pc = _load_points(args)
    if args.perturb:
        if args.target is None:
            raise ValueError("--perturb needs --target")
        target = _resolve_source(args.target)
        kw = {} if args.seed is None else {"seed": args.seed}
        moved = perturb_to_general_position(pc, target, **kw)
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
    blocks = (f"# step {i}: dim {step.dim}, {step.n_facets} facets\n"
              + serialize.complex_to_text(step) for i, step in enumerate(chain))
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
