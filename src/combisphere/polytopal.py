"""Exact rational geometry: convex hulls, general position, perturbation.

All arithmetic is over fractions.Fraction; there are no epsilons anywhere.
Hull extraction is incremental beneath-beyond with exact sidedness
predicates.  Boundary-complex extraction requires general position: any
exact tie met during insertion raises NotSimplicial rather than guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Complex, Simplex, anti_star, is_subcomplex, one_point_suspension
from .errors import (
    DegenerateSpan,
    GeometryError,
    IntermediateClaimFailed,
    NotGeneralPosition,
    NotSimplicial,
    PerturbationBudgetExhausted,
    TooFewPoints,
    TooFewVertices,
    VertexNotPresent,
)

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointConfiguration:
    """Labeled exact rational points in R^dim.  Immutable."""

    dim: int
    points: tuple[tuple[int, Vector], ...]  # sorted by label

    @classmethod
    def from_dict(
        cls, dim: int, coords: Mapping[int, Sequence[Fraction | int | str]]
    ) -> "PointConfiguration":
        rows: list[tuple[int, Vector]] = []
        for label in sorted(coords):
            if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                raise GeometryError(f"labels must be positive integers, got {label!r}")
            vec = tuple(Fraction(c) for c in coords[label])
            if len(vec) != dim:
                raise GeometryError(
                    f"point {label} has {len(vec)} coordinates, expected {dim}"
                )
            rows.append((label, vec))
        if not rows:
            raise TooFewPoints("no points")
        return cls(dim, tuple(rows))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.points)

    def coords(self, label: int) -> Vector:
        for lab, vec in self.points:
            if lab == label:
                return vec
        raise VertexNotPresent(f"no point labeled {label}")

    def as_dict(self) -> dict[int, Vector]:
        return dict(self.points)

    def drop(self, label: int) -> "PointConfiguration":
        if label not in self.labels:
            raise VertexNotPresent(f"no point labeled {label}")
        return PointConfiguration(
            self.dim, tuple((l, v) for l, v in self.points if l != label)
        )

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class HullFacet:
    """A hull facet: its vertex labels and an outward supporting functional.

    normal . x <= offset for every configuration point, with equality exactly
    on the facet.  The functional is scaled to primitive integers, so equal
    facets always serialize identically.
    """

    vertices: Simplex
    normal: Vector
    offset: Fraction


@dataclass(frozen=True)
class HullResult:
    facets: tuple[HullFacet, ...]
    boundary_complex: Complex


# ---------------------------------------------------------------------------
# exact linear algebra on Fractions
# ---------------------------------------------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _orientation(points: Sequence[Vector]) -> Fraction:
    """Signed volume form of d+1 points in R^d (zero iff affinely dependent)."""
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return _det(rows)


def _dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _hyperplane(points: Sequence[Vector]) -> tuple[Vector, Fraction] | None:
    """Normal and offset of the hyperplane through d points in R^d, or None."""
    d = len(points[0])
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[k] for k in range(d) if k != j] for row in rows]
        entry = _det(minor) if minor else Fraction(1)
        normal.append(entry if j % 2 == 0 else -entry)
    if all(c == 0 for c in normal):
        return None
    nvec = tuple(normal)
    return nvec, _dot(nvec, base)


def _primitive(normal: Vector, offset: Fraction) -> tuple[Vector, Fraction]:
    from math import gcd

    denominators = [c.denominator for c in normal] + [offset.denominator]
    lcm = 1
    for q in denominators:
        lcm = lcm * q // gcd(lcm, q)
    ints = [int(c * lcm) for c in normal] + [int(offset * lcm)]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])


# ---------------------------------------------------------------------------
# general position and hulls
# ---------------------------------------------------------------------------


def general_position_check(pc: PointConfiguration) -> bool:
    """No d + 1 points on a common hyperplane."""
    d = pc.dim
    if len(pc) < d + 1:
        raise TooFewPoints(f"need at least {d + 1} points, have {len(pc)}")
    coords = pc.as_dict()
    for subset in itertools.combinations(pc.labels, d + 1):
        if _orientation([coords[s] for s in subset]) == 0:
            return False
    return True


def _rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _affine_basis(pc: PointConfiguration) -> list[int]:
    """Greedy scan (ascending labels) for d + 1 affinely independent points."""
    coords = pc.as_dict()
    basis: list[int] = []
    for label in pc.labels:
        if not basis:
            basis.append(label)
            continue
        candidate = basis + [label]
        diffs = [
            [c - b for c, b in zip(coords[p], coords[candidate[0]])]
            for p in candidate[1:]
        ]
        if _rank(diffs) == len(candidate) - 1:
            basis.append(label)
        if len(basis) == pc.dim + 1:
            return basis
    raise DegenerateSpan(
        f"points affinely span only {len(basis) - 1} dimensions, need {pc.dim}"
    )


@dataclass
class _Facet:
    vertices: frozenset[int]
    normal: Vector
    offset: Fraction


def convex_hull(pc: PointConfiguration) -> HullResult:
    """Incremental beneath-beyond hull with exact predicates.

    Points are inserted in ascending label order.  Strictly interior points
    are skipped; a point exactly on a current facet hyperplane is a general
    position violation and raises NotSimplicial.
    """
    d = pc.dim
    if len(pc) < d + 1:
        raise TooFewPoints(f"need at least {d + 1} points, have {len(pc)}")
    coords = pc.as_dict()
    basis = _affine_basis(pc)
    ref = tuple(
        sum((coords[b][j] for b in basis), Fraction(0)) / (d + 1) for j in range(d)
    )

    def oriented(vertex_labels: Iterable[int]) -> _Facet:
        labels = frozenset(vertex_labels)
        plane = _hyperplane([coords[v] for v in sorted(labels)])
        if plane is None:
            raise NotSimplicial(
                f"facet candidate {tuple(sorted(labels))} is affinely degenerate"
            )
        normal, offset = plane
        side = _dot(normal, ref) - offset
        if side == 0:
            raise NotSimplicial(
                f"interior reference lies on the hyperplane of "
                f"{tuple(sorted(labels))}"
            )
        if side > 0:
            normal = tuple(-c for c in normal)
            offset = -offset
        return _Facet(labels, normal, offset)

    facets: list[_Facet] = [
        oriented(set(basis) - {skip}) for skip in basis
    ]
    for label in pc.labels:
        if label in basis:
            continue
        x = coords[label]
        beyond: list[_Facet] = []
        for f in facets:
            side = _dot(f.normal, x) - f.offset
            if side > 0:
                beyond.append(f)
            elif side == 0:
                raise NotSimplicial(
                    f"point {label} lies on the hyperplane of facet "
                    f"{tuple(sorted(f.vertices))}; not in general position"
                )
        if not beyond:
            continue  # interior of the current hull, hence never a vertex
        beyond_set = {id(f) for f in beyond}
        ridge_owner: dict[frozenset[int], list[_Facet]] = {}
        for f in facets:
            for v in f.vertices:
                ridge_owner.setdefault(f.vertices - {v}, []).append(f)
        new_facets: list[_Facet] = []
        for ridge, owners in ridge_owner.items():
            flags = [id(o) in beyond_set for o in owners]
            if any(flags) and not all(flags):
                new_facets.append(oriented(ridge | {label}))
        facets = [f for f in facets if id(f) not in beyond_set] + new_facets
    hull_facets = []
    for f in sorted(facets, key=lambda f: tuple(sorted(f.vertices))):
        normal, offset = _primitive(f.normal, f.offset)
        hull_facets.append(
            HullFacet(Simplex._raw(tuple(sorted(f.vertices))), normal, offset)
        )
    complex_ = Complex._from_vertex_sets(f.vertices for f in facets)
    return HullResult(tuple(hull_facets), complex_)


# ---------------------------------------------------------------------------
# perturbation with combinatorial-type preservation
# ---------------------------------------------------------------------------


def _realizes(
    coords: Mapping[int, Vector], target: Complex
) -> bool:
    """True when target is exactly the hull boundary complex of the points.

    Checks that every facet hyperplane of the target has all remaining points
    strictly beneath it.  Since the target is a pseudomanifold without
    boundary and the hull boundary is too, facet-wise support pins the whole
    complex without computing a hull, degenerate interim coplanarities and
    all.
    """
    if set(coords) != set(target.vertex_set):
        return False
    labels = sorted(coords)
    for facet in target.facets:
        plane = _hyperplane([coords[v] for v in facet])
        if plane is None:
            return False
        normal, offset = plane
        sign = 0
        for label in labels:
            if label in facet:
                continue
            side = _dot(normal, coords[label]) - offset
            if side == 0:
                return False
            if sign == 0:
                sign = 1 if side > 0 else -1
            elif (side > 0) != (sign > 0):
                return False
    return True


def perturb_to_general_position(
    pc: PointConfiguration,
    combinatorial_type: Complex,
    seed: int = 0,
    max_attempts: int = 64,
) -> PointConfiguration:
    """Nudge points into general position without changing the hull complex.

    The first facet's vertices stay fixed; every other point in ascending
    label order tries the zero displacement first, then random rational
    displacements of halving magnitude, accepting the first candidate that
    keeps the processed prefix in general position and the whole
    configuration realizing the target complex.
    """
    d = pc.dim
    if len(pc) < d + 1:
        raise TooFewPoints(f"need at least {d + 1} points, have {len(pc)}")
    anchor = combinatorial_type.facets[0]
    coords = dict(pc.as_dict())
    if len(anchor) != d:
        raise DegenerateSpan(
            f"target facets have {len(anchor)} vertices, expected {d}"
        )
    if _hyperplane([coords[v] for v in anchor]) is None:
        raise DegenerateSpan(
            f"anchor facet {tuple(anchor)} is affinely degenerate"
        )
    rng = random.Random(seed)
    processed: list[int] = list(anchor)
    rest = [label for label in pc.labels if label not in set(anchor)]
    for label in rest:
        original = coords[label]
        accepted = False
        for attempt in range(max_attempts):
            if attempt == 0:
                candidate = original
            else:
                scale = Fraction(1, 2**attempt)
                candidate = tuple(
                    c + scale * Fraction(rng.randint(-8, 8), 8) for c in original
                )
            coords[label] = candidate
            if _prefix_general_position(coords, processed, label, d) and _realizes(
                coords, combinatorial_type
            ):
                accepted = True
                break
        if not accepted:
            coords[label] = original
            raise PerturbationBudgetExhausted(
                f"no displacement of point {label} within {max_attempts} attempts "
                f"keeps the hull combinatorics"
            )
        processed.append(label)
    return PointConfiguration.from_dict(d, coords)


def _prefix_general_position(
    coords: Mapping[int, Vector], processed: list[int], label: int, d: int
) -> bool:
    pool = processed
    if len(pool) < d:
        return True
    for subset in itertools.combinations(pool, d):
        if _orientation([coords[s] for s in subset] + [coords[label]]) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# polytopal completion
# ---------------------------------------------------------------------------


def polytopal_complete(
    pc: PointConfiguration, v: int | None = None
) -> "CompletionResult":
    """Complete the boundary complex of a simplicial polytope.

    Drop the chosen vertex, take the hull boundary of the rest (which must
    contain the vertex's anti-star), and suspend it back over (u, v) with u
    the smallest remaining hull vertex.  The reduced coordinates witness the
    intermediate sphere.
    """
    from .constructions import _finish

    d = pc.dim
    n = len(pc)
    if n < d + 2:
        raise TooFewVertices(f"need at least {d + 2} points, have {n}")
    if not general_position_check(pc):
        raise NotGeneralPosition(
            "points are not in general position; perturb them first"
        )
    if v is None:
        v = min(pc.labels)
    if v not in pc.labels:
        raise VertexNotPresent(f"no point labeled {v}")
    hull = convex_hull(pc)
    sphere_in = hull.boundary_complex
    if sphere_in.vertex_set != frozenset(pc.labels):
        raise GeometryError(
            "every point must be a hull vertex; interior points present"
        )
    trace = [f"hull boundary: {sphere_in.n_facets} facets on {n} vertices"]
    reduced_pc = pc.drop(v)
    reduced_hull = convex_hull(reduced_pc)
    reduced = reduced_hull.boundary_complex
    trace.append(
        f"dropped vertex {v}; reduced hull boundary has {reduced.n_facets} facets"
    )
    if not is_subcomplex(anti_star(sphere_in, v), reduced):
        raise IntermediateClaimFailed(
            f"the anti-star of {v} is not contained in the reduced hull boundary"
        )
    trace.append(f"verified the anti-star of {v} lies in the reduced boundary")
    u = min(reduced.vertices)
    sphere = one_point_suspension(reduced, u, v)
    trace.append(f"one-point suspension (u={u}, v={v})")
    return replace(_finish(sphere_in, sphere, trace), witness_points=reduced_pc)
