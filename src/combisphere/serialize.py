"""Reading and writing complexes, point sets, verdicts, and completions.

Two complex formats, both deterministic:
- plain text, one facet per line, vertices space-separated, lines in
  canonical order, '#' starts a comment;
- JSON {"dim": d, "facets": [[...], ...]} with facets in canonical order.

Point sets are JSON only: {"dim": d, "points": {"label": ["num/den", ...]}}
with exact rational strings and labels in numeric order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .core import Complex, from_facets
from .polytopal import PointConfiguration

if TYPE_CHECKING:  # imported for type names only; avoids cycles at runtime
    from .constructions import CompletionResult
    from .recognition import Verdict


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def complex_to_text(X: Complex) -> str:
    return "".join(" ".join(str(v) for v in f) + "\n" for f in X.facets)


def complex_from_text(text: str) -> Complex:
    facets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            facets.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
    return from_facets(facets)


def complex_to_json_obj(X: Complex) -> dict[str, Any]:
    return {"dim": X.dim, "facets": [list(f) for f in X.facets]}


def complex_from_json_obj(obj: Any) -> Complex:
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ValueError("complex JSON must be an object with a 'facets' key")
    X = from_facets(tuple(f) for f in obj["facets"])
    if "dim" in obj and obj["dim"] != X.dim:
        raise ValueError(f"stated dim {obj['dim']} but facets have dim {X.dim}")
    return X


def complex_to_json(X: Complex) -> str:
    return dumps(complex_to_json_obj(X))


def parse_complex(text: str) -> Complex:
    """Accept either format, sniffing on the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return complex_from_json_obj(json.loads(text))
    return complex_from_text(text)


# ---------------------------------------------------------------------------
# point configurations
# ---------------------------------------------------------------------------


def points_to_json_obj(pc: PointConfiguration) -> dict[str, Any]:
    return {
        "dim": pc.dim,
        "points": {str(label): [str(c) for c in vec] for label, vec in pc.points},
    }


def points_from_json_obj(obj: Any) -> PointConfiguration:
    if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
        raise ValueError("point JSON must be an object with 'dim' and 'points'")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"bad dimension {dim!r}")
    coords: dict[int, tuple[Fraction, ...]] = {}
    for key, row in obj["points"].items():
        try:
            label = int(key)
        except ValueError:
            raise ValueError(f"point label {key!r} is not an integer") from None
        coords[label] = tuple(Fraction(str(c)) for c in row)
    return PointConfiguration.from_dict(dim, coords)


def points_to_json(pc: PointConfiguration) -> str:
    return dumps(points_to_json_obj(pc))


def parse_points(text: str) -> PointConfiguration:
    return points_from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# verdicts and completions
# ---------------------------------------------------------------------------


def verdict_to_json_obj(verdict: "Verdict") -> dict[str, Any]:
    return {
        "status": verdict.status,
        "reason": verdict.reason,
        "trace": [[list(a), list(b)] for a, b in verdict.trace],
    }


def completion_to_json_obj(result: "CompletionResult") -> dict[str, Any]:
    obj: dict[str, Any] = {
        "sphere": complex_to_json_obj(result.sphere),
        "contains_input": result.embedding_check,
        "trace": list(result.trace),
    }
    if result.witness_points is not None:
        obj["witness_points"] = points_to_json_obj(result.witness_points)
    return obj
