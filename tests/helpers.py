"""Independent oracles and seeded generators used across the test suite.

Oracles here deliberately avoid the library's own face machinery: facet
enumeration, face counting, and the stacking search are written from the
definitions so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from combisphere import Complex, from_facets
from combisphere.core import Simplex, generalized_bistellar_move, pseudomanifold_check
from combisphere.errors import NotStacked
from combisphere.polytopal import PointConfiguration
from combisphere.recognition import is_standard

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def gale_evenness_facets(n: int, d: int) -> set[tuple[int, ...]]:
    """Facets of the cyclic polytope C(n, d) on labels 1..n.

    A d-subset S is a facet iff every pair of labels outside S has an even
    number of S-elements strictly between them.
    """
    facets = set()
    for S in itertools.combinations(range(1, n + 1), d):
        inside = set(S)
        ok = True
        outside = [x for x in range(1, n + 1) if x not in inside]
        for i, j in itertools.combinations(outside, 2):
            between = sum(1 for s in S if i < s < j)
            if between % 2:
                ok = False
                break
        if ok:
            facets.add(S)
    return facets


def face_polynomial(facets: list[tuple[int, ...]]) -> dict[int, int]:
    """Coefficients {face size: count}, counting the empty face once."""
    faces: set[tuple[int, ...]] = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    counts = Counter(len(f) for f in faces)
    return {0: 1, **counts}


def poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, ca in p.items():
        for b, cb in q.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return out


def brute_stacked_ball(facets: list[tuple[int, ...]]) -> bool:
    """Search all gluing orders: does some order build these facets by
    repeatedly attaching a facet with one fresh vertex along a ridge that is
    currently in exactly one facet?"""
    m = len(facets)
    if m == 0:
        return False
    fsets = [frozenset(f) for f in facets]
    d = len(facets[0]) - 1
    if any(len(f) != d + 1 for f in fsets):
        return False
    full = (1 << m) - 1
    seen: set[int] = set()

    def grow(mask: int, verts: frozenset[int]) -> bool:
        if mask == full:
            return True
        if mask in seen:
            return False
        seen.add(mask)
        used = [fsets[i] for i in range(m) if mask >> i & 1]
        for j in range(m):
            if mask >> j & 1:
                continue
            fresh = fsets[j] - verts
            if len(fresh) != 1:
                continue
            ridge = fsets[j] - fresh
            owners = sum(1 for f in used if ridge <= f)
            if owners != 1:
                continue
            if grow(mask | (1 << j), verts | fresh):
                return True
        return False

    return any(grow(1 << i, fsets[i]) for i in range(m))


# ---------------------------------------------------------------------------
# reference walk: the rescanning code that the incremental move index in
# recognition replaced, kept to compare traces against
# ---------------------------------------------------------------------------


def _reference_reduction_moves(X: Complex) -> list[tuple[Simplex, Simplex]]:
    """Legal moves (A, B) that do not introduce a vertex, in canonical order."""
    d = X.dim
    moves: list[tuple[Simplex, Simplex]] = []
    for size_a in range(1, d + 1):
        size_b = d + 2 - size_a
        for a_set in sorted(X.faces_of_size(size_a), key=sorted):
            cofacets = [fs for fs in X._fsets if a_set <= fs]
            if len(cofacets) != size_b:
                continue
            link_facets = {fs - a_set for fs in cofacets}
            union: frozenset[int] = frozenset().union(*link_facets)
            if len(union) != size_b:
                continue
            if {union - {b} for b in union} != link_facets:
                continue
            if X.has_face(union):
                continue
            moves.append(
                (Simplex._raw(tuple(sorted(a_set))), Simplex._raw(tuple(sorted(union))))
            )
    return moves


def _reference_apply_move(X: Complex, A: Simplex, B: Simplex) -> Complex:
    a_set, b_set = frozenset(A), frozenset(B)
    new_facets = [fs for fs in X._fsets if not a_set <= fs]
    new_facets.extend((a_set - {a}) | b_set for a in A)
    return Complex._from_vertex_sets(new_facets)


def reference_greedy_reduce(X: Complex, budget: int, seed: int):
    """The bistellar walk as it was before the incremental move index: every
    step rescans every face against every facet and rebuilds the complex.
    Returns (reached the standard sphere, trace), like
    ``recognition._greedy_reduce``."""
    rng = random.Random(seed)
    cur = X
    trace = []
    prev = None
    while len(trace) < budget:
        std = is_standard(cur)
        if std.sphere:
            return True, tuple(trace)
        moves = _reference_reduction_moves(cur)
        if prev is not None and len(moves) > 1:
            undo = (prev[1], prev[0])
            moves = [m for m in moves if m != undo] or [undo]
        if not moves:
            return False, tuple(trace)
        best_key = None
        pool = []
        for A, B in moves:
            key = (len(A) - len(B), -1 if len(A) == 1 else 0)
            if best_key is None or key < best_key:
                best_key = key
                pool = [(A, B)]
            elif key == best_key:
                pool.append((A, B))
        choice = pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
        cur = _reference_apply_move(cur, *choice)
        trace.append((tuple(choice[0]), tuple(choice[1])))
        prev = choice
    if is_standard(cur).sphere:
        return True, tuple(trace)
    return False, tuple(trace)


def reference_collapse_stacked_sphere_to_ball(S: Complex) -> Complex:
    """``collapse_stacked_sphere_to_ball`` as it was before the incremental
    move index: the smallest collapsible vertex is found by rescanning."""
    report = pseudomanifold_check(S)
    if not (report.is_pseudomanifold and report.closed) or S.dim < 1:
        raise NotStacked("input is not a closed pseudomanifold of dimension >= 1")
    cur = S
    steps: list[tuple[int, Simplex]] = []
    while not is_standard(cur).sphere:
        found = None
        for v in cur.vertices:
            link_facets = [fs - {v} for fs in cur._fsets if v in fs]
            union: frozenset[int] = frozenset().union(*link_facets)
            if len(union) != cur.dim + 1:
                continue
            if {union - {x} for x in union} != set(link_facets):
                continue
            if cur.has_face(union):
                continue
            found = (v, Simplex._raw(tuple(sorted(union))))
            break
        if found is None:
            raise NotStacked(
                "no vertex link is the boundary of a missing simplex; not stacked"
            )
        v, sigma = found
        steps.append((v, sigma))
        cur = _reference_apply_move(cur, Simplex._raw((v,)), sigma)
    ball_facets = [frozenset(cur.vertices)]
    for v, sigma in reversed(steps):
        ball_facets.append(frozenset(sigma) | {v})
    return Complex._from_vertex_sets(ball_facets)


# ---------------------------------------------------------------------------
# fixed fixtures
# ---------------------------------------------------------------------------


def moebius_torus() -> Complex:
    """The 7-vertex torus: orbits of two triangles under i -> i + 1 (mod 7)."""
    facets = []
    for base in ((0, 1, 3), (0, 2, 3)):
        for shift in range(7):
            facets.append(tuple(sorted((v + shift) % 7 + 1 for v in base)))
    return from_facets(facets)


def octahedron_points() -> PointConfiguration:
    return PointConfiguration.from_dict(3, {
        1: (1, 0, 0), 2: (-1, 0, 0),
        3: (0, 1, 0), 4: (0, -1, 0),
        5: (0, 0, 1), 6: (0, 0, -1),
    })


def cube_points() -> PointConfiguration:
    coords = {}
    for i, signs in enumerate(itertools.product((1, -1), repeat=3), start=1):
        coords[i] = signs
    return PointConfiguration.from_dict(3, coords)


def apply_trace(X: Complex, trace) -> Complex:
    for a, b in trace:
        X = generalized_bistellar_move(X, a, b)
    return X


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def random_stacked_ball(rng: random.Random, dim: int, n_vertices: int) -> Complex:
    """Grow a stacked dim-ball: keep gluing a fresh vertex onto a random
    boundary ridge."""
    assert n_vertices >= dim + 1
    labels = list(range(1, n_vertices + 1))
    rng.shuffle(labels)
    first = frozenset(labels[: dim + 1])
    facets = [first]
    ridge_count: Counter[frozenset[int]] = Counter(
        first - {v} for v in first
    )
    for label in labels[dim + 1 :]:
        boundary_ridges = [r for r, c in ridge_count.items() if c == 1]
        ridge = rng.choice(sorted(boundary_ridges, key=sorted))
        new = ridge | {label}
        facets.append(new)
        for v in new:
            ridge_count[new - {v}] += 1
    return from_facets(tuple(f) for f in facets)


def random_stacked_sphere(rng: random.Random, dim: int, n_vertices: int) -> Complex:
    from combisphere import boundary

    return boundary(random_stacked_ball(rng, dim + 1, n_vertices))


def random_disc(rng: random.Random, n_vertices: int) -> Complex:
    """A 2-ball grown by ear moves: either a fresh vertex coned over a
    boundary edge, or a triangle filled across two consecutive boundary
    edges whose skip pair is not yet an edge."""
    assert n_vertices >= 3
    facets: list[tuple[int, int, int]] = [(1, 2, 3)]
    cycle = [1, 2, 3]
    edges = {frozenset((1, 2)), frozenset((2, 3)), frozenset((1, 3))}
    next_label = 4
    while next_label <= n_vertices:
        if len(cycle) >= 4 and rng.random() < 0.35:
            # fill an ear without a new vertex when some position allows it
            k = len(cycle)
            starts = list(range(k))
            rng.shuffle(starts)
            for i in starts:
                a, b, c = cycle[i], cycle[(i + 1) % k], cycle[(i + 2) % k]
                if frozenset((a, c)) in edges:
                    continue
                facets.append(tuple(sorted((a, b, c))))
                edges.add(frozenset((a, c)))
                cycle.pop((i + 1) % k)
                break
            else:
                i = rng.randrange(len(cycle))
                _cone_edge(facets, cycle, edges, i, next_label)
                next_label += 1
        else:
            i = rng.randrange(len(cycle))
            _cone_edge(facets, cycle, edges, i, next_label)
            next_label += 1
    return from_facets(facets)


def _cone_edge(facets, cycle, edges, i, label) -> None:
    a, b = cycle[i], cycle[(i + 1) % len(cycle)]
    facets.append(tuple(sorted((a, b, label))))
    edges.add(frozenset((a, label)))
    edges.add(frozenset((b, label)))
    cycle.insert(i + 1, label)


def random_flag_2sphere(rng: random.Random, n_vertices: int) -> Complex:
    """Subdivide octahedron edges whose two flanking apexes are non-adjacent;
    each such subdivision preserves both flagness and the sphere."""
    assert n_vertices >= 6
    facets = {
        frozenset(f)
        for f in itertools.product((1, 2), (3, 4), (5, 6))
    }
    next_label = 7
    while next_label <= n_vertices:
        edges = sorted(
            {e for f in facets for e in itertools.combinations(sorted(f), 2)}
        )
        rng.shuffle(edges)
        for u, v in edges:
            cofacets = [f for f in facets if {u, v} <= f]
            (a,) = cofacets[0] - {u, v}
            (b,) = cofacets[1] - {u, v}
            if any({a, b} <= f for f in facets):
                continue
            facets -= set(cofacets)
            w = next_label
            facets |= {
                frozenset((u, w, a)), frozenset((w, v, a)),
                frozenset((u, w, b)), frozenset((w, v, b)),
            }
            break
        else:
            raise AssertionError("no subdividable edge found")
        next_label += 1
    return from_facets(tuple(sorted(f)) for f in facets)


def random_closed_pseudomanifold(rng: random.Random) -> Complex:
    """A grab bag of closed pseudomanifolds for invariant tests."""
    from combisphere import get, join

    kind = rng.randrange(5)
    if kind == 0:
        return get(f"cycle({rng.randint(3, 9)})").complex
    if kind == 1:
        return random_stacked_sphere(rng, rng.randint(1, 3), rng.randint(6, 12))
    if kind == 2:
        return get(f"cross_polytope({rng.randint(2, 4)})").complex
    if kind == 3:
        return moebius_torus()
    a = get(f"cycle({rng.randint(3, 5)})").complex
    k = rng.randint(3, 5)
    shift = max(a.vertices)
    b = from_facets(
        [(i + shift, i % k + 1 + shift) for i in range(1, k + 1)]
    )
    return join(a, b)


def enumerate_pure_complexes(labels: tuple[int, ...]):
    """Every pure complex whose facets are equal-size subsets of labels."""
    for size in range(1, len(labels) + 1):
        subsets = list(itertools.combinations(labels, size))
        for r in range(1, len(subsets) + 1):
            for family in itertools.combinations(subsets, r):
                yield family
