"""Exact rational geometry: convex hulls, general position, perturbation.

Coordinates come in and supporting functionals go out as fractions.Fraction;
there are no epsilons and no floating point anywhere.  The predicates run
fraction-free: each point's denominators are cleared once into homogeneous
integer coordinates, and a Bareiss elimination over Python ints decides
affine independence and yields the hyperplane functionals of the initial
simplex.  Hull extraction is incremental beneath-beyond with exact sidedness
predicates; each later facet's functional is rotated about its horizon ridge
from the two facets that met there.  Boundary-complex extraction requires
general position: any exact tie met during insertion raises NotSimplicial
rather than guessing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .constructions import CompletionResult, _suspend_and_finish, _vertex_floor
from .core import Complex, Simplex, _as_simplices, anti_star, is_subcomplex
from .errors import (
    DegenerateSpan,
    EmptyInput,
    GeometryError,
    IntermediateClaimFailed,
    NotGeneralPosition,
    NotSimplicial,
    PerturbationBudgetExhausted,
    TooFewPoints,
    VertexNotPresent,
)

Vector = tuple[Fraction, ...]
Row = tuple[int, ...]
Echelon = list[tuple[list[int], int]]  # reduced rows with their pivot columns


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

    @cached_property
    def _rows(self) -> dict[int, Row]:
        """Homogeneous integer coordinates of every point, by label."""
        return {label: _homogeneous(vec) for label, vec in self.points}

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
# fraction-free linear algebra on homogeneous integer rows
# ---------------------------------------------------------------------------


def _homogeneous(vec: Vector) -> Row:
    """(L, L*x) with L > 0 the least common denominator of x.

    A functional a . (1, x) keeps its sign when the row is scaled by L, so
    every orientation and sidedness sign can be read off these rows.
    """
    L = lcm(*(c.denominator for c in vec))
    return (L, *(c.numerator * (L // c.denominator) for c in vec))


def _extend(echelon: Echelon, row: Row) -> bool:
    """Reduce a row against the echelon and append it unless it vanishes.

    This is one row of a fraction-free elimination (Bareiss 1968): step j
    scales by pivot j and divides exactly by pivot j - 1, so every entry
    stays an integer minor.  Each kept row pivots on its first nonzero
    column, which the later rows then clear.  False means the row depends
    on the echelon's rows.
    """
    prev = 1
    for top, col in echelon:
        p, a = top[col], row[col]
        row = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    for col, x in enumerate(row):
        if x:
            echelon.append((row, col))
            return True
    return False


def _all_independent(rows: Sequence[Row], size: int, echelon: Echelon) -> bool:
    """True when the echelon's rows plus any rows, up to size, are independent.

    On homogeneous rows of d + 1 points this is a nonzero orientation.
    Combinations are walked depth first, so they share the elimination of
    their common prefix and each costs one more row reduction.
    """
    need = size - len(echelon)
    if need == 0:
        return True
    for i in range(len(rows) - need + 1):
        if not _extend(echelon, rows[i]):
            return False
        ok = _all_independent(rows[i + 1:], size, echelon)
        echelon.pop()
        if not ok:
            return False
    return True


def _functional(rows: Sequence[Row]) -> Row | None:
    """A primitive integer a with a . h = 0 on the d rows, or None if dependent.

    The d points span the hyperplane a[0] + a[1:] . x = 0.  Back substitution
    from the last pivot placed at the free column is Cramer's rule on the
    pivot columns, so every division is exact.
    """
    echelon: Echelon = []
    if not all(_extend(echelon, row) for row in rows):
        return None
    pivots = {col for _, col in echelon}
    a = [0] * len(rows[0])
    free = next(j for j in range(len(a)) if j not in pivots)
    last_row, last_col = echelon[-1]
    a[free] = last_row[last_col]  # the pivot columns' determinant, up to sign
    for row, col in reversed(echelon):
        a[col] = -_side(row, a) // row[col]
    g = gcd(*a)
    return tuple(c // g for c in a)


def _side(a: Row, h: Row) -> int:
    return sum(map(mul, a, h))


def _primitive(a: Row) -> tuple[Vector, Fraction]:
    """normal . x <= offset from a primitive outward homogeneous functional a.

    a . (L, L*x) = L * (a[0] + a[1:] . x) with L > 0, so (a[1:], -a[0]) is a
    positive multiple of every rational form of the functional, and being
    primitive it is the unique primitive integer one.
    """
    return tuple(map(Fraction, a[1:])), Fraction(-a[0])


# ---------------------------------------------------------------------------
# general position and hulls
# ---------------------------------------------------------------------------


def _point_floor(pc: PointConfiguration) -> None:
    if len(pc) < pc.dim + 1:
        raise TooFewPoints(f"need at least {pc.dim + 1} points, have {len(pc)}")


def general_position_check(pc: PointConfiguration) -> bool:
    """No d + 1 points on a common hyperplane."""
    _point_floor(pc)
    return _all_independent(list(pc._rows.values()), pc.dim + 1, [])


def _affine_basis(pc: PointConfiguration) -> list[int]:
    """Greedy scan (ascending labels) for d + 1 affinely independent points."""
    rows = pc._rows
    basis = [pc.labels[0]]
    echelon: Echelon = [(list(rows[basis[0]]), 0)]  # pivots on L > 0
    for label in pc.labels[1:]:
        if _extend(echelon, rows[label]):
            basis.append(label)
        if len(basis) == pc.dim + 1:
            return basis
    raise DegenerateSpan(
        f"points affinely span only {len(basis) - 1} dimensions, need {pc.dim}"
    )


@dataclass(eq=False)
class _Facet:
    vertices: frozenset[int]
    functional: Row  # primitive, negative strictly beneath, at the interior reference
    side: int = 0  # functional at the point being inserted, set by the scan


def convex_hull(pc: PointConfiguration) -> HullResult:
    """Incremental beneath-beyond hull with exact predicates.

    Points are inserted in ascending label order.  Strictly interior points
    are skipped; a point exactly on a current facet hyperplane is a general
    position violation and raises NotSimplicial naming the smallest such
    facet of the hull so far, compared as sorted labels.  Elimination gives the
    hyperplanes of the initial simplex only: every later facet is a horizon
    ridge plus the new point, and its functional is rotated about that ridge
    from the functionals of the two facets that met there.  In dimension 0
    the hull is a single point with no boundary complex, and DegenerateSpan
    is raised whatever the number of points.
    """
    d = pc.dim
    if d < 1:
        raise DegenerateSpan(
            "points in dimension 0 have no hull boundary; "
            "convex_hull needs dimension >= 1"
        )
    _point_floor(pc)
    rows = pc._rows
    basis = _affine_basis(pc)
    # the basis centroid, as a positive multiple of its homogeneous row
    common = lcm(*(rows[b][0] for b in basis))
    ref = tuple(
        map(sum, zip(*([c * (common // rows[b][0]) for c in rows[b]] for b in basis)))
    )
    ridge_owner: dict[frozenset[int], list[_Facet]] = {}  # kept up to date

    def added(labels: frozenset[int], a: Row) -> _Facet:
        facet = _Facet(labels, a)
        for v in labels:
            ridge_owner.setdefault(labels - {v}, []).append(facet)
        return facet

    def oriented(vertex_labels: Iterable[int]) -> _Facet:
        # d of the affinely independent basis points, so a is never None, and
        # ref, their centroid, lies strictly beneath the hyperplane
        labels = frozenset(vertex_labels)
        a = _functional([rows[v] for v in sorted(labels)])
        if _side(a, ref) > 0:
            a = tuple(-c for c in a)
        return added(labels, a)

    def rotated(labels: frozenset[int], gone: _Facet, kept: _Facet) -> _Facet:
        # Both old functionals vanish on the ridge, and a also vanishes at x.
        # a < 0 at ref, since s_gone > 0 > s_kept and both old ones are < 0
        # there; so it is already outward, and it is never zero.
        s_gone, s_kept = gone.side, kept.side
        a = [s_gone * k - s_kept * g for k, g in zip(kept.functional, gone.functional)]
        g = gcd(*a)
        return added(labels, tuple(c // g for c in a))

    facets: list[_Facet] = [
        oriented(set(basis) - {skip}) for skip in basis
    ]
    for label in pc.labels:
        if label in basis:
            continue
        x = rows[label]
        for f in facets:
            f.side = _side(f.functional, x)
        ties = [tuple(sorted(f.vertices)) for f in facets if f.side == 0]
        if ties:
            raise NotSimplicial(
                f"point {label} lies on the hyperplane of facet "
                f"{min(ties)}; not in general position"
            )
        beyond = [f for f in facets if f.side > 0]
        if not beyond:
            continue  # interior of the current hull, hence never a vertex
        beyond_set = set(beyond)
        horizon: list[tuple[frozenset[int], _Facet, _Facet]] = []
        for f in beyond:
            for v in f.vertices:
                ridge = f.vertices - {v}
                owners = ridge_owner[ridge]
                owners.remove(f)
                if not owners:
                    del ridge_owner[ridge]
                    continue
                kept = owners[0]
                if kept not in beyond_set:
                    horizon.append((ridge, f, kept))
        facets = [f for f in facets if f not in beyond_set]
        facets += [rotated(r | {label}, gone, kept) for r, gone, kept in horizon]
    facets.sort(key=lambda f: sorted(f.vertices))
    rows = [tuple(sorted(f.vertices)) for f in facets]
    hull_facets = tuple(
        HullFacet(vertices, *_primitive(f.functional))
        for f, vertices in zip(facets, _as_simplices(rows))
    )
    return HullResult(hull_facets, Complex._from_rows(rows))


# ---------------------------------------------------------------------------
# perturbation with combinatorial-type preservation
# ---------------------------------------------------------------------------


def _realizes(rows: Mapping[int, Row], target: Complex) -> bool:
    """True when target is exactly the hull boundary complex of the points.

    Checks that every facet hyperplane of the target has all remaining points
    strictly beneath it.  Since the target is a pseudomanifold without
    boundary and the hull boundary is too, facet-wise support pins the whole
    complex without computing a hull, degenerate interim coplanarities and
    all.
    """
    if set(rows) != set(target.vertex_set):
        return False
    for facet in target._facet_tuples:
        a = _functional([rows[v] for v in facet])
        if a is None:
            return False
        sides = [_side(a, h) for label, h in rows.items() if label not in facet]
        if not (all(s > 0 for s in sides) or all(s < 0 for s in sides)):
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
    configuration realizing the target complex.  The point labels must be
    exactly the target's vertices.
    """
    d = pc.dim
    _point_floor(pc)
    if combinatorial_type.is_empty:
        raise EmptyInput("the target complex is empty")
    anchor = combinatorial_type._facet_tuples[0]
    coords = dict(pc.as_dict())
    rows = dict(pc._rows)
    if len(anchor) != d:
        raise DegenerateSpan(
            f"target facets have {len(anchor)} vertices, expected {d}"
        )
    for v in combinatorial_type.vertices:
        if v not in rows:
            raise VertexNotPresent(f"no point labeled {v}")
    stray = set(rows) - combinatorial_type.vertex_set
    if stray:
        raise VertexNotPresent(f"point {min(stray)} is not a vertex of the target")
    if not _all_independent([rows[v] for v in anchor], d, []):
        raise DegenerateSpan(
            f"anchor facet {anchor} is affinely degenerate"
        )
    rng = random.Random(seed)
    processed: list[int] = list(anchor)
    rest = [label for label in pc.labels if label not in set(anchor)]
    for label in rest:
        original = coords[label]
        prefix = [rows[s] for s in processed]
        for attempt in range(max_attempts):
            if attempt == 0:
                candidate = original
            else:
                scale = Fraction(1, 2**attempt)
                candidate = tuple(
                    c + scale * Fraction(rng.randint(-8, 8), 8) for c in original
                )
            coords[label] = candidate
            rows[label] = _homogeneous(candidate)
            moved: Echelon = [(list(rows[label]), 0)]  # pivots on L > 0
            if _all_independent(prefix, d + 1, moved) and _realizes(
                rows, combinatorial_type
            ):
                break
        else:
            raise PerturbationBudgetExhausted(
                f"no displacement of point {label} within {max_attempts} attempts "
                f"keeps the hull combinatorics"
            )
        processed.append(label)
    return PointConfiguration.from_dict(d, coords)


# ---------------------------------------------------------------------------
# polytopal completion
# ---------------------------------------------------------------------------


def polytopal_complete(
    pc: PointConfiguration, v: int | None = None
) -> CompletionResult:
    """Complete the boundary complex of a simplicial polytope.

    Drop the chosen vertex, take the hull boundary of the rest (which must
    contain the vertex's anti-star), and suspend it back over (u, v) with u
    the smallest remaining hull vertex.  The reduced coordinates witness the
    intermediate sphere.
    """
    d = pc.dim
    n = len(pc)
    _vertex_floor(n, d, "points")
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
    result = _suspend_and_finish(sphere_in, reduced, u, v, trace)
    return replace(result, witness_points=reduced_pc)
