"""Built-in named complexes and point configurations.

Two facet lists are hand-entered golden data, stored in canonical order and
guarded by checksum tests: the Gruenbaum-Sreedharan sphere and Barnette's
sphere, the two classical non-polytopal 3-spheres on 8 vertices.  Everything
else is derived from them through library operations or generated
parametrically.  One table, `_TABLE`, holds every entry.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Complex, from_facets, join, one_point_suspension
from .errors import UnknownName
from .polytopal import PointConfiguration

# Gruenbaum and Sreedharan (1967), "An enumeration of simplicial 4-polytopes
# with 8 vertices": the neighbourly non-polytopal 3-sphere.
_GS_M38 = (
    (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 4, 8), (1, 2, 6, 7), (1, 2, 6, 8),
    (1, 3, 4, 7), (1, 4, 7, 8), (1, 5, 6, 7), (1, 5, 6, 8), (1, 5, 7, 8),
    (2, 3, 4, 5), (2, 3, 5, 8), (2, 3, 6, 7), (2, 3, 6, 8), (2, 4, 5, 8),
    (3, 4, 5, 6), (3, 4, 6, 7), (3, 5, 6, 8), (4, 5, 6, 7), (4, 5, 7, 8),
)

# The 3-ball that replaces the star of vertex 8 inside the sphere above.
_GS_BALL_C = ((1, 2, 4, 5), (1, 2, 5, 6), (1, 4, 5, 7), (2, 3, 5, 6))

# The anti-star of vertex 8 in the sphere above (all facets avoiding 8).
_GS_BALL_D = (
    (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 6, 7), (1, 3, 4, 7), (1, 5, 6, 7),
    (2, 3, 4, 5), (2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7), (4, 5, 6, 7),
)

# Barnette (1970), "Diagrams and Schlegel diagrams": the non-neighbourly
# non-polytopal 3-sphere on 8 vertices.
_BARNETTE = (
    (1, 2, 3, 4), (1, 2, 3, 8), (1, 2, 4, 8), (1, 3, 4, 7), (1, 3, 6, 7),
    (1, 3, 6, 8), (1, 4, 5, 6), (1, 4, 5, 7), (1, 4, 6, 8), (1, 5, 6, 7),
    (2, 3, 4, 7), (2, 3, 5, 6), (2, 3, 5, 8), (2, 3, 6, 7), (2, 4, 5, 7),
    (2, 4, 5, 8), (2, 5, 6, 7), (3, 5, 6, 8), (4, 5, 6, 8),
)

_GS_CITE = (
    "Gruenbaum and Sreedharan, An enumeration of simplicial 4-polytopes "
    "with 8 vertices, J. Combin. Theory 2 (1967)"
)
_BARNETTE_CITE = (
    "Barnette, Diagrams and Schlegel diagrams, in Combinatorial Structures "
    "and their Applications (Gordon and Breach, 1970)"
)


@dataclass(frozen=True)
class NamedExample:
    name: str
    complex: Complex | None
    provenance: str
    expected_properties: tuple[tuple[str, object], ...]
    points: PointConfiguration | None = None


def standard_ball(d: int) -> Complex:
    """Closure of a single d-simplex on vertices 1..d+1."""
    if d < 0:
        raise UnknownName(f"standard_ball needs d >= 0, got {d}")
    return from_facets([tuple(range(1, d + 2))])


def standard_sphere(d: int) -> Complex:
    """Boundary of a (d+1)-simplex: the minimal d-sphere, on 1..d+2."""
    if d < 0:
        raise UnknownName(f"standard_sphere needs d >= 0, got {d}")
    labels = tuple(range(1, d + 3))
    return from_facets(
        [labels[:i] + labels[i + 1 :] for i in range(len(labels))]
    )


def cycle(n: int) -> Complex:
    """The n-cycle 1-2-...-n-1 as a 1-sphere."""
    if n < 3:
        raise UnknownName(f"cycle needs n >= 3, got {n}")
    return from_facets(
        [(i, i + 1) for i in range(1, n)] + [(1, n)]
    )


def cross_polytope(k: int) -> Complex:
    """Boundary of the k-dimensional cross-polytope on vertices 1..2k.

    Vertices 2i-1 and 2i are the antipodal pair in coordinate i; facets pick
    one vertex from each pair, 2^k in all.
    """
    if k < 1:
        raise UnknownName(f"cross_polytope needs k >= 1, got {k}")
    facets: list[tuple[int, ...]] = [()]
    for i in range(1, k + 1):
        facets = [f + (v,) for f in facets for v in (2 * i - 1, 2 * i)]
    return from_facets(facets)


def octahedron() -> Complex:
    return cross_polytope(3)


def cyclic_polytope_points(n: int, d: int = 3) -> PointConfiguration:
    """n points on the moment curve t -> (t, t^2, ..., t^d), t = 1..n."""
    if d < 1:
        raise UnknownName(f"cyclic_polytope_points needs d >= 1, got {d}")
    if n < d + 1:
        raise UnknownName(
            f"cyclic_polytope_points needs n >= d + 1 = {d + 1}, got {n}"
        )
    return PointConfiguration.from_dict(
        d, {t: tuple(Fraction(t) ** j for j in range(1, d + 1)) for t in range(1, n + 1)}
    )


def _barnette_join() -> Complex:
    two_points = from_facets([(7,), (8,)])
    triangle_a = from_facets([(1, 2), (2, 5), (1, 5)])
    triangle_b = from_facets([(3, 4), (4, 6), (3, 6)])
    return join(join(two_points, triangle_a), triangle_b)


# The catalog in listing order: name -> (builder, provenance, stated properties).
# A builder's parameters are the entry's arguments, with their defaults.  The
# stated properties are golden data, a function of the same arguments: dim,
# n_vertices, n_facets and euler_characteristic of a complex, or dim and
# n_points of a point configuration.  Builders call library operations inside
# their bodies only, so that a traced run sees those calls.
_TABLE = {
    "barnette": (lambda: from_facets(_BARNETTE), _BARNETTE_CITE, lambda: (3, 8, 19, 0)),
    "barnette_join": (
        _barnette_join,
        "join of a 0-sphere on {7,8} with two 3-cycles on {1,2,5} and "
        "{3,4,6}; a 4-sphere on 8 vertices containing barnette",
        lambda: (4, 8, 18, 2),
    ),
    "example43_ball": (
        lambda: from_facets(_GS_BALL_D + ((1, 2, 4, 8),)),
        "gs_ball_D with the single facet 1248 glued on; an 8-vertex "
        "3-ball whose completion through its degree-3 vertex 8 "
        "reproduces gs_m38",
        lambda: (3, 8, 11, 1),
    ),
    "gs_ball_C": (lambda: from_facets(_GS_BALL_C), _GS_CITE, lambda: (3, 7, 4, 1)),
    "gs_ball_D": (lambda: from_facets(_GS_BALL_D), _GS_CITE, lambda: (3, 7, 10, 1)),
    "gs_m38": (lambda: from_facets(_GS_M38), _GS_CITE, lambda: (3, 8, 20, 0)),
    "gs_s37": (
        lambda: from_facets(_GS_BALL_C + _GS_BALL_D),
        "union of the two 3-balls gs_ball_C and gs_ball_D along their "
        "common boundary; a polytopal 3-sphere on 7 vertices",
        lambda: (3, 7, 14, 0),
    ),
    "gs_s48": (
        lambda: one_point_suspension(_build("gs_s37").complex, 7, 8),
        "one-point suspension of gs_s37 over (7, 8); a polytopal "
        "4-sphere on 8 vertices containing gs_m38",
        lambda: (4, 8, 20, 2),
    ),
    "octahedron": (
        octahedron, "boundary of the 3-dimensional cross-polytope", lambda: (2, 6, 8, 2)
    ),
    "cross_polytope": (
        cross_polytope,
        "boundary of the k-dimensional cross-polytope",
        lambda k: (k - 1, 2 * k, 2**k, 1 + (-1) ** (k - 1)),
    ),
    "cycle": (cycle, "polygon boundary", lambda n: (1, n, n, 0)),
    "cyclic_polytope_points": (
        cyclic_polytope_points,
        "moment curve t -> (t, t^2, ..., t^d) at t = 1..n",
        lambda n, d: (d, n),
    ),
    "standard_ball": (standard_ball, "closure of a simplex", lambda d: (d, d + 1, 1, 1)),
    "standard_sphere": (
        standard_sphere,
        "boundary of a simplex",
        lambda d: (d, d + 2, d + 2, 1 + (-1) ** d),
    ),
}
_COMPLEX_PROPERTIES = ("dim", "n_vertices", "n_facets", "euler_characteristic")
_POINT_PROPERTIES = ("dim", "n_points")
# Bound on every argument and on the stated size of an entry: facets times
# facet size for a complex, points times dimension for points.
_BOUND = 2**16

_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


@lru_cache(maxsize=32)
def _build(base: str, *args: int) -> NamedExample:
    """Build the entry of row `base` of the table at `args`; the 32 entries
    last used are kept, with the maps their complexes derive, and no more."""
    build, provenance, stated = _TABLE[base]
    signature = inspect.signature(build)
    names = tuple(signature.parameters)
    required = sum(p.default is p.empty for p in signature.parameters.values())
    if not required <= len(args) <= len(names):
        if not names:
            expected = "no arguments"
        elif required == len(names):
            expected = f"{required} integer argument(s), got {len(args)}"
        else:
            short, full = ", ".join(names[:required]), ", ".join(names)
            expected = f"({short}) or ({full}) integer arguments"
        raise UnknownName(f"{base} takes {expected}")
    bound = signature.bind(*args)
    bound.apply_defaults()
    args = bound.args
    name = f"{base}({','.join(map(str, args))})" if names else base
    too_large = UnknownName(f"{name} exceeds the catalog's size bound of {_BOUND}")
    if any(abs(a) > _BOUND for a in args):  # before stated() forms 2**k
        raise too_large
    facts = stated(*args)
    width, count = facts[:2] if len(facts) == 2 else (facts[0] + 1, facts[2])
    if width * count > _BOUND:
        raise too_large
    built = build(*args)
    if isinstance(built, PointConfiguration):
        properties = tuple(zip(_POINT_PROPERTIES, facts))
        return NamedExample(name, None, provenance, properties, points=built)
    properties = tuple(zip(_COMPLEX_PROPERTIES, facts))
    return NamedExample(name, built, provenance, properties)


@lru_cache(maxsize=None)
def available() -> tuple[str, ...]:
    """Every name get() accepts; a parametric entry is listed with its parameters."""
    listed = []
    for base, (build, _, _) in _TABLE.items():
        names = inspect.signature(build).parameters
        listed.append(f"{base}({','.join(names)})" if names else base)
    return tuple(listed)


def get(name: str) -> NamedExample:
    """Look up a catalog entry, e.g. 'gs_m38' or 'standard_sphere(2)'."""
    match = _NAME_RE.match(name.strip())
    if match is None:
        raise UnknownName(f"malformed catalog name {name!r}")
    base, arg_text = match.groups()
    args: tuple[int, ...] = ()
    if arg_text is not None and arg_text.strip():
        parts = [p.strip() for p in arg_text.split(",")]
        if "" in parts:
            raise UnknownName(f"malformed catalog name {name!r}")
        try:
            args = tuple(int(p) for p in parts)
        except ValueError:
            raise UnknownName(f"non-integer arguments in {name!r}") from None
    if base not in _TABLE:
        raise UnknownName(f"no catalog entry named {base!r}")
    return _build(base, *args)
