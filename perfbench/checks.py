"""Independent checkers for the benchmark's outputs.

None of this imports the library.  Complexes are plain sets of frozensets,
flips are applied from the definition of a bistellar move, hull facets are
checked against the Gale evenness condition and against every point, and
stackedness is decided by a brute-force search over gluing orders.  Each
checker returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

def fsets(facets) -> set[frozenset]:
    return {frozenset(f) for f in facets}


def vertices(faces) -> set[int]:
    return set().union(*faces) if faces else set()


def ridge_counts(faces) -> Counter:
    return Counter(f - {v} for f in faces for v in f)


def closed_pseudomanifold_problem(faces) -> str | None:
    """Pure, every ridge in exactly two facets, facet graph connected."""
    if not faces:
        return "empty complex"
    sizes = {len(f) for f in faces}
    if len(sizes) != 1:
        return "not pure"
    if sizes == {1}:
        return None if len(faces) == 2 else "0-dimensional but not two points"
    counts = ridge_counts(faces)
    bad = [r for r, c in counts.items() if c != 2]
    if bad:
        return f"ridge {sorted(bad[0])} lies in {counts[bad[0]]} facets"
    owners: dict[frozenset, list[frozenset]] = {}
    for f in faces:
        for v in f:
            owners.setdefault(f - {v}, []).append(f)
    start = next(iter(faces))
    seen = {start}
    stack = [start]
    while stack:
        f = stack.pop()
        for v in f:
            for g in owners[f - {v}]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return None if len(seen) == len(faces) else "facet graph disconnected"


def is_simplex_boundary(faces) -> bool:
    if not faces:
        return False
    k = len(next(iter(faces)))
    return len(vertices(faces)) == k + 1 and len(faces) == k + 1


def is_face(face: frozenset, faces) -> bool:
    return any(face <= f for f in faces)


def flip(faces: set[frozenset], a, b) -> set[frozenset]:
    """The bistellar move (A, B): A is a face whose star is exactly A * dB,
    B is not a face; replace A * dB by dA * B.  Raises ValueError when a
    precondition fails."""
    A, B = frozenset(a), frozenset(b)
    if len(A) != len(a) or len(B) != len(b) or A & B:
        raise ValueError(f"bad move {a} -> {b}")
    d = len(next(iter(faces))) - 1
    if len(A) + len(B) != d + 2:
        raise ValueError(f"|A| + |B| != dim + 2 for {a} -> {b}")
    star = {f for f in faces if A <= f}
    if star != {A | (B - {x}) for x in B}:
        raise ValueError(f"star of {sorted(A)} is not A * boundary({sorted(B)})")
    if is_face(B, faces):
        raise ValueError(f"{sorted(B)} is already a face")
    return (faces - star) | {(A - {x}) | B for x in A}


def replay_problem(faces: set[frozenset], trace) -> str | None:
    """Replay a certificate and require the boundary of a simplex at the end."""
    cur = set(faces)
    for step, (a, b) in enumerate(trace):
        try:
            cur = flip(cur, a, b)
        except ValueError as exc:
            return f"move {step}: {exc}"
    return None if is_simplex_boundary(cur) else "trace does not end at a simplex boundary"


def capped(faces: set[frozenset]) -> set[frozenset]:
    """A ball plus the cone over its boundary from the next free label."""
    apex = max(vertices(faces)) + 1
    counts = ridge_counts(faces)
    return set(faces) | {r | {apex} for r, c in counts.items() if c == 1}


def face_counts(faces) -> Counter:
    """Number of nonempty faces of each size."""
    out = Counter()
    for k in range(1, max(len(f) for f in faces) + 1):
        out[k] = len({c for f in faces for c in itertools.combinations(sorted(f), k)})
    return out


def euler(faces) -> int:
    return sum((-1) ** (k - 1) * n for k, n in face_counts(faces).items())


# ---------------------------------------------------------------------------
# stacked balls
# ---------------------------------------------------------------------------


def brute_stacked(facets) -> bool:
    """Is there an order that glues each facet along a ridge currently in
    exactly one facet, bringing exactly one fresh vertex?"""
    faces = [frozenset(f) for f in facets]
    m = len(faces)
    if m == 0 or len({len(f) for f in faces}) != 1 or len(faces[0]) < 2:
        return False
    if len(set(faces)) != m:
        return False
    full = (1 << m) - 1
    dead: set[int] = set()

    def grow(mask: int, verts: frozenset) -> bool:
        if mask == full:
            return True
        if mask in dead:
            return False
        used = [faces[i] for i in range(m) if mask >> i & 1]
        for j in range(m):
            if mask >> j & 1:
                continue
            fresh = faces[j] - verts
            if len(fresh) != 1:
                continue
            ridge = faces[j] - fresh
            if sum(1 for f in used if ridge <= f) != 1:
                continue
            if grow(mask | 1 << j, verts | fresh):
                return True
        dead.add(mask)
        return False

    return any(grow(1 << i, faces[i]) for i in range(m))


def peeling_problem(facets, order, attachments) -> str | None:
    """Replay a stacking witness: order[0] first, then order[i] glued along
    attachments[i-1] = (ridge, apex)."""
    faces = fsets(facets)
    if len(order) != len(faces) or fsets(order) != faces:
        return "witness order is not a permutation of the facets"
    if len(attachments) != len(order) - 1:
        return "witness has the wrong number of attachments"
    built = [frozenset(order[0])]
    verts = set(order[0])
    for f, (ridge, apex) in zip(order[1:], attachments):
        f, ridge = frozenset(f), frozenset(ridge)
        if f != ridge | {apex} or apex in ridge:
            return f"facet {sorted(f)} is not ridge {sorted(ridge)} plus apex {apex}"
        if apex in verts:
            return f"apex {apex} is not fresh"
        if sum(1 for g in built if ridge <= g) != 1:
            return f"ridge {sorted(ridge)} is not a free boundary ridge"
        built.append(f)
        verts.add(apex)
    return None


# ---------------------------------------------------------------------------
# completions
# ---------------------------------------------------------------------------


def completion_problem(input_facets, sphere_facets, dim_step: int) -> str | None:
    """Containment, equal vertex sets, closed pseudomanifold, dimension."""
    source, sphere = fsets(input_facets), fsets(sphere_facets)
    if vertices(source) != vertices(sphere):
        return "vertex sets differ"
    if any(not is_face(f, sphere) for f in source):
        return "the sphere does not contain the input"
    want = len(next(iter(source))) + dim_step
    if any(len(f) != want for f in sphere):
        return f"sphere facets do not have {want} vertices"
    return closed_pseudomanifold_problem(sphere)


def chain_problem(chain) -> str | None:
    steps = [fsets(c) for c in chain]
    for prev, nxt in zip(steps, steps[1:]):
        problem = completion_problem(prev, nxt, 1)
        if problem:
            return problem
    return None if is_simplex_boundary(steps[-1]) else "chain does not end at a simplex boundary"


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------


def gale_facets(n: int, d: int) -> set[tuple[int, ...]]:
    """Facets of the cyclic polytope C(n, d) by Gale's evenness condition:
    every two non-members are separated by an even number of members."""
    out = set()
    for S in itertools.combinations(range(1, n + 1), d):
        inside = set(S)
        gaps = [x for x in range(1, n + 1) if x not in inside]
        if all(
            sum(1 for s in S if i < s < j) % 2 == 0
            for i, j in zip(gaps, gaps[1:])
        ):
            out.add(S)
    return out


def hull_problem(points: dict[int, tuple], facets) -> str | None:
    """facets: (vertex labels, normal, offset) with exact entries.  Each
    functional must be primitive integral, hold every point at or below the
    offset with equality exactly on the facet, and the facets must close up
    into a pseudomanifold on the hull vertices."""
    pts = {k: tuple(Fraction(c) for c in v) for k, v in points.items()}
    dim = len(next(iter(pts.values())))
    for labels, normal, offset in facets:
        normal = tuple(Fraction(c) for c in normal)
        offset = Fraction(offset)
        if len(labels) != dim or len(normal) != dim:
            return f"facet {labels} has the wrong size"
        ints = [*normal, offset]
        if any(c.denominator != 1 for c in ints):
            return f"facet {labels} functional is not integral"
        if math.gcd(*(int(c) for c in ints)) != 1:
            return f"facet {labels} functional is not primitive"
        for label, x in pts.items():
            value = sum(a * b for a, b in zip(normal, x))
            if value > offset:
                return f"point {label} lies beyond facet {labels}"
            if (value == offset) != (label in labels):
                return f"point {label} has the wrong incidence with facet {labels}"
    return closed_pseudomanifold_problem(fsets(f[0] for f in facets))


def orientation(points) -> Fraction:
    """Determinant of the difference vectors (d + 1 points in R^d)."""
    base = points[0]
    m = [[Fraction(c) - Fraction(b) for c, b in zip(p, base)] for p in points[1:]]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def general_position(points: dict[int, tuple]) -> bool:
    dim = len(next(iter(points.values())))
    return all(
        orientation([points[k] for k in subset]) != 0
        for subset in itertools.combinations(sorted(points), dim + 1)
    )


def realizes_problem(points: dict[int, tuple], target_facets) -> str | None:
    """Every target facet spans a hyperplane with all other points strictly
    on one side; for a closed target this pins the hull boundary."""
    if set(points) != vertices(fsets(target_facets)):
        return "labels differ from the target vertices"
    for facet in target_facets:
        base = [points[v] for v in facet]
        dets = [orientation(base + [points[k]]) for k in points if k not in facet]
        if any(x == 0 for x in dets) or len({x > 0 for x in dets}) != 1:
            return f"facet {tuple(facet)} is not a supporting hyperplane"
    return None
