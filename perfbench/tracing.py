"""Traced mode: spans around calls into each layer's public functions.

The tracer replaces each listed function in its defining module and in
every ``combisphere`` module that holds it under any name, and wraps the
``Complex.has_face`` and ``Complex.faces_of_size`` methods.  Each call
records a span (function, start, end, parent span, item id, detail) in
memory; self time is the span minus the time covered by its wrapped
children, so private helpers are charged to their public caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

LAYERS = {
    "core": ("from_facets", "link", "anti_star", "join", "complement", "boundary",
             "dual_graph", "pseudomanifold_check", "euler_characteristic",
             "is_subcomplex", "one_point_suspension", "bistellar_move",
             "generalized_bistellar_move", "Complex.has_face", "Complex.faces_of_size"),
    "recognition": ("certify_sphere", "certify_ball", "is_stacked_ball",
                    "collapse_stacked_sphere_to_ball", "is_flag", "is_standard", "degree"),
    "constructions": ("complete_join", "complete_degree_d", "complete_flag",
                      "complete_stacked_ball", "complete_stacked_sphere",
                      "complete_ball_degree_d", "complete_disc", "sphere_chain"),
    "polytopal": ("convex_hull", "general_position_check",
                  "perturb_to_general_position", "polytopal_complete"),
    "serialize": ("parse_complex", "parse_points", "complex_to_text", "points_to_json", "dumps"),
    "cli": ("main",),
    "catalog": ("get",),
}
RAISING_LAYERS = ("core", "recognition", "constructions", "polytopal", "serialize")
CERTIFY = ("recognition.certify_sphere", "recognition.certify_ball")


def _certify_detail(args, verdict):
    return [verdict.status, len(verdict.trace)]


def _orientations(args, in_general_position):
    pc = args[0]
    return math.comb(len(pc), pc.dim + 1) if in_general_position else 0


# The part of a result that the derived metrics need, by function.
DETAILS = {
    "recognition.certify_sphere": _certify_detail,
    "recognition.certify_ball": _certify_detail,
    "polytopal.convex_hull": lambda args, hull: len(args[0]),
    "polytopal.general_position_check": _orientations,
    "cli.main": lambda args, code: code,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
        if layer == "recognition":
            units["recognition.certified_moves"] = "count"
            units["recognition.unknown_verdicts"] = "count"
            units["recognition.s_per_certified_move"] = "s/move"
        if layer == "polytopal":
            units["polytopal.convex_hull.s_per_point"] = "s/point"
            units["polytopal.general_position_check.s_per_orientation"] = "s/det"
        if layer == "cli":
            units["cli.nonzero_exits"] = "count"
    for layer in RAISING_LAYERS:
        units[f"{layer}.raised"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span index, time covered by children]
        self.item: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        describe = DETAILS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if exc is None:
                    detail = describe(args, result) if describe else None
                elif isinstance(exc, SystemExit):
                    detail = exc.code
                else:
                    # an exception passing up through several spans counts once
                    first = not getattr(exc, "_perfbench_counted", False)
                    exc._perfbench_counted = True
                    detail = {"raised": type(exc).__name__, "first": first, "layer": layer}
                tracer.spans[frame[0]] = (fid, start, end, parent, tracer.item,
                                          end - start - frame[1], detail)

        return wrapper

    def install(self) -> None:
        # import every layer first, so that no module copies a wrapper at import
        homes = {layer: importlib.import_module(f"combisphere.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if key == "combisphere" or key.startswith("combisphere.")]
        for layer, functions in LAYERS.items():
            home = homes[layer]
            for fn_name in functions:
                if fn_name.startswith("Complex."):
                    method = fn_name.split(".", 1)[1]
                    owner = home.Complex
                    original = owner.__dict__.get(method)
                    if original is not None:
                        self._patch(owner, method, self._wrap(f"{layer}.{fn_name}", original))
                    continue
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span."""
        spans = self.spans
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for fid, _, _, _, _, own, _ in spans:
            calls[fid] += 1
            self_s[fid] += own
        out = {name: 0 for name in metric_units()}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] += calls[fid]
            out[f"{name}.self_s"] += self_s[fid]

        certify_ids = {fid for fid, name in enumerate(self.names) if name in CERTIFY}
        moves = certified_time = unknown = 0
        for fid, start, end, parent, _, _, detail in spans:
            if fid not in certify_ids or not isinstance(detail, list):
                continue
            if self._under(parent, certify_ids):
                continue
            status, length = detail
            if status == "certified" and length:
                moves += length
                certified_time += end - start
            unknown += status == "unknown"
        out["recognition.certified_moves"] = moves
        out["recognition.unknown_verdicts"] = unknown
        out["recognition.s_per_certified_move"] = certified_time / moves if moves else 0

        hull_time = points = gp_time = orientations = exits = 0
        for fid, start, end, _, _, _, detail in spans:
            name = self.names[fid]
            if name == "polytopal.convex_hull" and isinstance(detail, int):
                hull_time += end - start
                points += detail
            elif name == "polytopal.general_position_check" and detail:
                gp_time += end - start
                orientations += detail
            elif name == "cli.main" and detail != 0:
                exits += 1
        out["polytopal.convex_hull.s_per_point"] = hull_time / points if points else 0
        out["polytopal.general_position_check.s_per_orientation"] = (
            gp_time / orientations if orientations else 0)
        out["cli.nonzero_exits"] = exits
        for span in spans:
            detail = span[6]
            if isinstance(detail, dict) and detail["first"] and detail["layer"] in RAISING_LAYERS:
                out[f"{detail['layer']}.raised"] += 1
        return out

    def _under(self, parent: int, fids: set[int]) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0] in fids:
                return True
            parent = span[3]
        return False

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines, after a header line naming the functions."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.names,
                                 "fields": ["function", "start", "end", "parent",
                                            "item", "self_s", "detail"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
