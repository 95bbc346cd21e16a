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
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any

from .constructions import CompletionResult
from .core import Complex, from_facets
from .polytopal import PointConfiguration
from .recognition import Verdict


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _loads(text: str) -> Any:
    """json.loads, with nesting too deep for the parser and an object that
    repeats a key reported as bad data."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def complex_to_text(X: Complex) -> str:
    return "".join(" ".join(str(v) for v in f) + "\n" for f in X._facet_tuples)


def complex_from_text(text: str) -> Complex:
    lines = text.splitlines()
    uncommented = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    rows = list(filter(None, map(str.split, uncommented)))
    try:
        tokens = iter(list(map(int, chain.from_iterable(rows))))
    except ValueError:
        # the token that failed is on some line, so the search always breaks
        for lineno, raw in enumerate(lines, start=1):  # name the first bad line
            try:
                list(map(int, raw.partition("#")[0].split()))
            except ValueError:
                break
        raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
    widths = list(map(len, rows))
    if len(set(widths)) == 1:  # the usual pure file: zip regroups fastest
        return from_facets(zip(*[tokens] * widths[0]))
    return from_facets(map(islice, repeat(tokens), widths))


def complex_to_json_obj(X: Complex) -> dict[str, Any]:
    return {"dim": X.dim, "facets": [list(f) for f in X._facet_tuples]}


def _dim(obj: dict[str, Any]) -> int:
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"bad dimension {dim!r}")
    return dim


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def complex_from_json_obj(obj: Any) -> Complex:
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ValueError("complex JSON must be an object with a 'facets' key")
    facets = _list(obj["facets"], "'facets'")
    if not {list}.issuperset(map(type, facets)):
        # a label in an earlier facet is refused before a later non-list
        facets = (tuple(_list(f, "a facet")) for f in facets)
    X = from_facets(facets)
    if "dim" in obj and _dim(obj) != X.dim:
        raise ValueError(f"stated dim {obj['dim']} but facets have dim {X.dim}")
    return X


def complex_to_json(X: Complex) -> str:
    return dumps(complex_to_json_obj(X))


def parse_complex(text: str) -> Complex:
    """Accept either format, sniffing on the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return complex_from_json_obj(_loads(text))
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
    dim = _dim(obj)
    if dim < 1:
        raise ValueError(f"bad dimension {dim!r}")
    if not isinstance(obj["points"], dict):
        raise ValueError("'points' must be an object from labels to coordinate rows")
    coords: dict[int, tuple[Fraction, ...]] = {}
    for key, row in obj["points"].items():
        try:
            label = int(key)
        except ValueError:
            raise ValueError(f"point label {key!r} is not an integer") from None
        if label in coords:
            raise ValueError(f"point label {key!r} repeats the label {label}")
        coords[label] = tuple(_coordinate(c, key) for c in _list(row, f"point {key}"))
    return PointConfiguration.from_dict(dim, coords)


def _coordinate(value: Any, key: str) -> Fraction:
    """Fraction(str(value)), refusing a zero denominator and an exponent past
    Python's int string-digit limit, which Fraction would expand for minutes."""
    text = str(value)
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()  # 0 when unlimited
    try:
        huge = bool(e and limit) and abs(int(exponent)) > limit
    except ValueError:  # not an exponent; Fraction says what is wrong
        huge = False
    if huge:
        raise ValueError(f"point {key}: the exponent of {text!r} exceeds {limit}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"point {key}: {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"point {key}: {exc}") from None


def points_to_json(pc: PointConfiguration) -> str:
    return dumps(points_to_json_obj(pc))


def parse_points(text: str) -> PointConfiguration:
    return points_from_json_obj(_loads(text))


# ---------------------------------------------------------------------------
# verdicts and completions
# ---------------------------------------------------------------------------


def verdict_to_json_obj(verdict: Verdict) -> dict[str, Any]:
    return {
        "status": verdict.status,
        "reason": verdict.reason,
        "trace": [[list(a), list(b)] for a, b in verdict.trace],
    }


def completion_to_json_obj(result: CompletionResult) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "sphere": complex_to_json_obj(result.sphere),
        "contains_input": result.embedding_check,
        "trace": list(result.trace),
    }
    if result.witness_points is not None:
        obj["witness_points"] = points_to_json_obj(result.witness_points)
    return obj
