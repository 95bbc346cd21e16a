"""Independent oracles and seeded generators used across the test suite.

Oracles here deliberately avoid the library's own face machinery: facet
enumeration, face counting, and the stacking search are written from the
definitions so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import pytest

from combisphere import Complex, from_facets, recognition, serialize
from combisphere.constructions import (
    _certify_input,
    _cone,
    _degree_d_vertex,
    _finish,
    _meet_inside,
    _union,
)
from combisphere.core import (
    DualGraph,
    PseudomanifoldReport,
    Simplex,
    _is_connected,
    _pm_failure,
    anti_star,
    boundary,
    euler_characteristic,
    generalized_bistellar_move,
    link,
    pseudomanifold_check,
)
from combisphere.errors import (
    DegenerateSpan,
    DuplicateVertexInFacet,
    EmptyInput,
    IntermediateClaimFailed,
    InvalidVertexLabel,
    LinkNotStandardSphere,
    MovePreconditionFailed,
    NonPure,
    NonPureResult,
    NotClosedPseudomanifold,
    NotDisc,
    NotProperSubcomplex,
    NotSimplicial,
    NotStacked,
    PerturbationBudgetExhausted,
    RidgeInThreeFacets,
    SigmaAlreadyFace,
    TooFewPoints,
    TooFewVertices,
    VertexNotPresent,
)
from combisphere.polytopal import HullFacet, HullResult, PointConfiguration
from combisphere.recognition import (
    CERTIFIED,
    REFUTED,
    UNKNOWN,
    StackedBallReport,
    StackingSequence,
    Verdict,
    certify_sphere,
    is_standard,
)

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


def _unchecked(vertices: Iterable[int]) -> Simplex:
    """A Simplex of sorted valid labels, built without the checks under test."""
    return tuple.__new__(Simplex, vertices)


def reference_simplex(vertices: Iterable) -> Simplex:
    """Simplex validation in two passes: every label is checked in input
    order, then the sorted labels are checked for a repeat."""
    vs = list(vertices)
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidVertexLabel(
                f"vertex labels must be positive integers, got {v!r}"
            )
    vs.sort()
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"duplicate vertex {a} in facet {vs}")
    return _unchecked(vs)


def reference_from_facets(facet_list: Iterable[Iterable]) -> Complex:
    """``from_facets`` one facet at a time: each facet validated by
    ``reference_simplex`` as it is read, then the facets sorted from a set."""
    facets = list(map(reference_simplex, facet_list))
    if not facets:
        raise EmptyInput("a complex needs at least one facet")
    canonical = tuple(sorted(set(facets)))
    if len(set(map(len, canonical))) > 1:
        raise NonPure("facets of differing dimension")
    if not canonical[0]:
        raise EmptyInput("a facet needs at least one vertex")
    return Complex(tuple(map(tuple, canonical)), _canonical=True)


def reference_parse_complex(text: str) -> Complex:
    """``parse_complex`` reading the text format one line at a time and a
    JSON facet list one facet at a time, on ``reference_from_facets``."""
    if not text.lstrip().startswith("{"):
        facets: list[tuple[int, ...]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                facets.append(tuple(map(int, line.split())))
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
        return reference_from_facets(facets)
    obj = serialize._loads(text)
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ValueError("complex JSON must be an object with a 'facets' key")

    def listed(value, what):
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list, got {value!r}")
        return value

    facets = listed(obj["facets"], "'facets'")
    X = reference_from_facets(tuple(listed(f, "a facet")) for f in facets)
    if "dim" in obj:
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"bad dimension {dim!r}")
        if dim != X.dim:
            raise ValueError(f"stated dim {obj['dim']} but facets have dim {X.dim}")
    return X


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


def reference_is_stacked_ball(X: Complex) -> StackedBallReport:
    """The leaf peel that is_stacked_ball ran before it read the facet
    graph: its own adjacency sets, vertex counts, and a sorted scan for the
    first leaf owning a private vertex.  Reports are compared against it."""
    if X.is_empty or X.dim < 1:
        return StackedBallReport(False, reason="needs dimension >= 1")
    d = X.dim
    # two facets share at most one ridge, so each 2-owner ridge is one edge.
    # Built here, not copied from _facet_graph(): that ran 1.09-1.13x slower
    adj: dict[Simplex, set[Simplex]] = {f: set() for f in X.facets}
    n_edges = 0
    for pair in X._ridge_map().values():
        if len(pair) > 2:
            return StackedBallReport(
                False, reason="a ridge lies in three or more facets"
            )
        if len(pair) == 2:
            n_edges += 1
            a, b = pair
            adj[a].add(b)
            adj[b].add(a)
    if n_edges != X.n_facets - 1 or not _is_connected(adj, set(X.facets)):
        return StackedBallReport(
            False, reason="facet-adjacency graph is not a tree"
        )
    if X.n_vertices != X.n_facets + d:
        return StackedBallReport(
            False,
            reason=f"f_0 = {X.n_vertices} != f_top + dim = {X.n_facets + d}",
        )
    # peel leaves that own a private vertex; reversing gives the gluing order
    remaining = set(X.facets)
    vertex_count: dict[int, int] = {}
    for f in X.facets:
        for v in f:
            vertex_count[v] = vertex_count.get(v, 0) + 1
    peeled: list[tuple[Simplex, Simplex, int]] = []
    while len(remaining) > 1:
        pick = None
        for f in sorted(remaining):
            if len(adj[f]) != 1:
                continue
            private = [v for v in f if vertex_count[v] == 1]
            if private:
                pick = (f, private[0])
                break
        assert pick is not None, "peel stalled on a tree with matching counts"
        f, apex = pick
        ridge = _unchecked(v for v in f if v != apex)
        peeled.append((f, ridge, apex))
        remaining.remove(f)
        neighbor = adj[f].pop()
        adj[neighbor].discard(f)
        for v in f:
            vertex_count[v] -= 1
    (first,) = remaining
    order = [first]
    attachments: list[tuple[Simplex, int]] = []
    for f, ridge, apex in reversed(peeled):
        order.append(f)
        attachments.append((ridge, apex))
    return StackedBallReport(
        True, witness=StackingSequence(tuple(order), tuple(attachments))
    )


# ---------------------------------------------------------------------------
# reference walk: the rescanning code that the incremental move index in
# recognition replaced, kept to compare traces against
# ---------------------------------------------------------------------------


def _reference_reduction_moves(X: Complex) -> list[tuple[Simplex, Simplex]]:
    """Legal moves (A, B) that do not introduce a vertex, in canonical order.
    The cofacets of each face are gathered from the subsets of every facet."""
    d = X.dim
    facets = set(map(frozenset, X.facets))
    cofacets: dict[frozenset[int], list[frozenset[int]]] = {}
    for fs in facets:
        for size_a in range(1, d + 1):
            for a in itertools.combinations(fs, size_a):
                cofacets.setdefault(frozenset(a), []).append(fs)
    moves: list[tuple[Simplex, Simplex]] = []
    for size_a in range(1, d + 1):
        size_b = d + 2 - size_a
        faces = (a for a in cofacets if len(a) == size_a)
        for a_set in sorted(faces, key=sorted):
            if len(cofacets[a_set]) != size_b:
                continue
            link_facets = {fs - a_set for fs in cofacets[a_set]}
            union: frozenset[int] = frozenset().union(*link_facets)
            if len(union) != size_b:
                continue
            if {union - {b} for b in union} != link_facets:
                continue
            if union in cofacets or union in facets:
                continue
            moves.append(
                (_unchecked(sorted(a_set)), _unchecked(sorted(union)))
            )
    return moves


def _reference_apply_move(X: Complex, A: Simplex, B: Simplex) -> Complex:
    a_set, b_set = frozenset(A), frozenset(B)
    new_facets = [fs for fs in map(frozenset, X.facets) if not a_set <= fs]
    new_facets.extend((a_set - {a}) | b_set for a in A)
    return Complex._from_vertex_sets(new_facets)


def _reference_flip(facets: frozenset, A: Simplex, B: Simplex) -> frozenset:
    """The facet set after the move (A, B), as a frozenset of frozensets."""
    a_set, b_set = frozenset(A), frozenset(B)
    kept = (fs for fs in facets if not a_set <= fs)
    return frozenset(kept).union((a_set - {a}) | b_set for a in A)


# the walk re-chooses from the ninth revisit of a facet set on
_REFERENCE_REVISITS = 8


def reference_greedy_reduce(X: Complex, budget: int, rng: random.Random):
    """The bistellar walk as it was before the incremental move index: every
    step rescans every face against every facet and rebuilds the complex.
    Returns (reached the standard sphere, trace): the result of
    ``recognition._Walk(X, budget, rng).run()`` and its trace.

    Facet sets are kept as they are, frozensets of frozensets, with no
    hashing into keys.  A pick that leads to a facet set seen before is a
    revisit; from the ninth revisit on, the step picks again among the legal
    moves, the undo included, that lead to an unseen facet set and have the
    smallest |A| among those, and the walk stops when there is none."""
    def pick(pool):
        return pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]

    cur = X
    trace = []
    prev = None
    state = frozenset(map(frozenset, X.facets))
    seen = {state}
    revisits = 0
    while len(trace) < budget:
        std = is_standard(cur)
        if std.sphere:
            return True, tuple(trace)
        legal = _reference_reduction_moves(cur)
        moves = legal
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
        choice = pick(pool)
        if _reference_flip(state, *choice) in seen:
            revisits += 1
            if revisits > _REFERENCE_REVISITS:
                fresh = [m for m in legal if _reference_flip(state, *m) not in seen]
                if not fresh:
                    return False, tuple(trace)
                smallest = min(len(A) for A, _ in fresh)
                choice = pick([m for m in fresh if len(m[0]) == smallest])
        state = _reference_flip(state, *choice)
        seen.add(state)
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
            link_facets = [fs - {v} for fs in map(frozenset, cur.facets) if v in fs]
            union: frozenset[int] = frozenset().union(*link_facets)
            if len(union) != cur.dim + 1:
                continue
            if {union - {x} for x in union} != set(link_facets):
                continue
            if cur.has_face(union):
                continue
            found = (v, _unchecked(sorted(union)))
            break
        if found is None:
            raise NotStacked(
                "no vertex link is the boundary of a missing simplex; not stacked"
            )
        v, sigma = found
        steps.append((v, sigma))
        cur = _reference_apply_move(cur, _unchecked((v,)), sigma)
    ball_facets = [frozenset(cur.vertices)]
    for v, sigma in reversed(steps):
        ball_facets.append(frozenset(sigma) | {v})
    return Complex._from_vertex_sets(ball_facets)


def reference_is_flag(X: Complex) -> bool:
    """is_flag from the definition: X is not the boundary of a simplex, and
    every vertex set of 3 to dim + 2 vertices whose pairs are all edges lies
    in a facet.  Every such set is tried; nothing is grown."""
    facets = [frozenset(f) for f in X.facets]
    if not facets:
        return False
    dim = len(facets[0]) - 1
    vertices = sorted(frozenset().union(*facets))
    if len(vertices) == len(facets) == dim + 2:
        return False
    edges = {frozenset(e) for f in facets for e in itertools.combinations(f, 2)}
    for k in range(3, dim + 3):
        for clique in itertools.combinations(vertices, k):
            pairs = itertools.combinations(clique, 2)
            if all(frozenset(e) in edges for e in pairs) and not any(
                f.issuperset(clique) for f in facets
            ):
                return False
    return True


def reference_link_screen(X: Complex, sizes: Iterable[int] = (1,)) -> Verdict | None:
    """The vertex-link screen that ``certify_sphere`` runs in dimension >= 3
    before its walk, as it was before it read the move index: every link is
    built and checked with ``pseudomanifold_check`` and
    ``euler_characteristic``.  Returns the refutation of the first failing
    vertex, or None when every link passes.

    Given sizes, it screens the faces with those numbers of vertices, by size
    and then in sorted order, as ``certify_sphere``'s face screen does; the
    link of a face is built as a chain of vertex links."""
    d = X.dim
    for k in sizes:
        faces = sorted(tuple(sorted(f)) for f in _reference_faces(X) if len(f) == k)
        for F in faces:
            L = X
            for v in F:
                L = link(L, v)
            name = f"vertex {F[0]}" if k == 1 else f"face {F}"
            lreport = pseudomanifold_check(L)
            if not (lreport.is_pseudomanifold and lreport.closed):
                return Verdict(
                    REFUTED, f"link of {name} is not a closed pseudomanifold"
                )
            lchi = euler_characteristic(L)
            lexpected = 1 + (-1) ** (d - k)
            if lchi != lexpected:
                return Verdict(
                    REFUTED,
                    f"link of {name} has Euler characteristic {lchi} != {lexpected}",
                )
    return None


def reference_screens(X: Complex) -> Verdict | None:
    """What ``certify_sphere`` checked on a closed pseudomanifold of
    dimension >= 3 before it walked at all: the Euler characteristic, from
    the face counts, then ``reference_link_screen``.  Returns the first
    refutation, or None."""
    counts = face_polynomial(list(X.facets))
    chi = sum((-1) ** (k - 1) * c for k, c in counts.items() if k)
    expected = 1 + (-1) ** X.dim
    if chi != expected:
        return Verdict(REFUTED, f"Euler characteristic {chi} != {expected}")
    return reference_link_screen(X)


def reference_certify_sphere(X: Complex, budget: int, seed: int) -> Verdict:
    """``certify_sphere`` on complexes of dimension 2 and up, as it was when
    a failed walk certified every vertex link again, with the full budget
    and recursively: the gates, the screens, the rescanning walk, then each
    link, built by ``reference_link``.  An Unknown reason says whether the
    walk spent its budget or stopped with moves left."""
    refutation = reference_sphere_gates(X) or reference_screens(X)
    if refutation is not None:
        return refutation
    d = X.dim
    if d == 2:
        return Verdict(
            CERTIFIED,
            "exact (dim 2): closed surface with Euler characteristic 2 and cycle links",
        )
    ok, trace = reference_greedy_reduce(X, budget, random.Random(seed))
    if ok:
        return Verdict(
            CERTIFIED,
            f"reduced to the standard {d}-sphere in {len(trace)} bistellar moves",
            trace,
        )
    unknown_links = []
    for v in X.vertices:
        sub = reference_certify_sphere(reference_link(X, v), budget, seed)
        if sub.is_refuted:
            return Verdict(REFUTED, f"link of vertex {v} refuted: {sub.reason}")
        if sub.is_unknown:
            unknown_links.append(v)
    detail = f"; links unresolved at {unknown_links}" if unknown_links else ""
    if len(trace) < budget:
        return Verdict(
            UNKNOWN,
            f"bistellar reduction stopped after {len(trace)} moves: "
            f"no legal move to an unseen facet set{detail}",
        )
    return Verdict(
        UNKNOWN, f"bistellar reduction budget exhausted ({budget} moves){detail}"
    )


def reference_certify_ball(X: Complex, budget: int, seed: int) -> Verdict:
    """``certify_ball`` as it was when it walked the boundary with the full
    budget before it walked the capped complex, both through the library's
    ``certify_sphere``, so that it could make twice budget moves."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if X.is_empty:
        return Verdict(REFUTED, "the empty complex is not a ball")
    if X.n_facets == 1:
        return Verdict(CERTIFIED, "standard ball: the closure of one simplex")
    if X.dim == 0:
        return Verdict(REFUTED, "a 0-ball is a single point")
    failure = _pm_failure(X)
    if failure is not None:
        return Verdict(REFUTED, failure)
    bd = boundary(X)
    if bd.is_empty:
        return Verdict(REFUTED, "no boundary: a closed pseudomanifold is not a ball")
    bd_verdict = certify_sphere(bd, budget, seed)
    if bd_verdict.is_refuted:
        return Verdict(REFUTED, f"boundary is not a sphere: {bd_verdict.reason}")
    apex = max(X.vertices) + 1
    capped = Complex._from_vertex_sets(
        list(X.facets) + [f + (apex,) for f in bd.facets]
    )
    capped_verdict = certify_sphere(capped, budget, seed)
    if capped_verdict.is_certified:
        return Verdict(
            CERTIFIED,
            f"capping the boundary with vertex {apex} gives a sphere: "
            f"{capped_verdict.reason}",
            capped_verdict.trace,
        )
    if capped_verdict.is_refuted:
        return Verdict(
            REFUTED, f"capped complex is not a sphere: {capped_verdict.reason}"
        )
    return Verdict(UNKNOWN, f"capped complex unresolved: {capped_verdict.reason}")


# ---------------------------------------------------------------------------
# reference core: the frozenset-keyed ridge map, the breadth-first searches
# and the set comparisons of links that core and recognition ran before
# these checks were shared.  The bodies are unchanged; only the names are
# prefixed, and the copies call each other.  Outcomes, exception types and
# messages are compared against them.
# ---------------------------------------------------------------------------


def _reference_ridge_map(X: Complex) -> dict[frozenset[int], list[int]]:
    """Ridge -> indices of owning facets."""
    ridges: dict[frozenset[int], list[int]] = {}
    for i, fs in enumerate(map(frozenset, X.facets)):
        for v in X.facets[i]:
            r = fs - {v}
            ridges.setdefault(r, []).append(i)
    return ridges


def reference_boundary(X: Complex) -> Complex:
    """Ridges lying in exactly one facet.  May be empty (closed input)."""
    if X.dim < 1:
        raise NonPure("boundary requires dimension >= 1")
    ridges = _reference_ridge_map(X)
    for r, owners in ridges.items():
        if len(owners) > 2:
            raise RidgeInThreeFacets(
                f"ridge {tuple(sorted(r))} lies in {len(owners)} facets"
            )
    out = [r for r, owners in ridges.items() if len(owners) == 1]
    if not out:
        return Complex((), _canonical=True)
    return Complex._from_vertex_sets(out)


def reference_dual_graph(X: Complex) -> DualGraph:
    """Facet adjacency along shared ridges, with the ridge index."""
    ridges = _reference_ridge_map(X)
    adj: dict[Simplex, set[Simplex]] = {f: set() for f in X.facets}
    edges: set[tuple[Simplex, Simplex]] = set()
    ridge_index: dict[Simplex, tuple[Simplex, ...]] = {}
    for r, owners in sorted(ridges.items(), key=lambda kv: tuple(sorted(kv[0]))):
        owner_facets = tuple(X.facets[i] for i in owners)
        ridge_index[_unchecked(sorted(r))] = owner_facets
        for a, b in itertools.combinations(owner_facets, 2):
            lo, hi = (a, b) if a <= b else (b, a)
            edges.add((lo, hi))
            adj[a].add(b)
            adj[b].add(a)
    return DualGraph(
        X.facets,
        tuple(sorted(edges)),
        ridge_index,
        {f: tuple(sorted(adj[f])) for f in X.facets},
    )


def reference_dual_graph_is_connected(g: DualGraph) -> bool:
    """``DualGraph.is_connected`` as it was, a breadth-first search, reading
    the adjacency through ``neighbors``."""
    if not g.nodes:
        return False
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        nxt = []
        for f in frontier:
            for h in g.neighbors(f):
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen) == len(g.nodes)


def reference_pseudomanifold_check(X: Complex) -> PseudomanifoldReport:
    """Every ridge in at most two facets and the dual graph connected; closed
    when every ridge is in exactly two."""
    if X.is_empty:
        return PseudomanifoldReport(False, False)
    ridges = _reference_ridge_map(X)
    counts = [len(owners) for owners in ridges.values()]
    if any(c > 2 for c in counts):
        return PseudomanifoldReport(False, False)
    # connectivity over ridge-sharing, without building the full graph
    adj: dict[int, list[int]] = {i: [] for i in range(len(X.facets))}
    for owners in ridges.values():
        if len(owners) == 2:
            a, b = owners
            adj[a].append(b)
            adj[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    is_pm = len(seen) == len(X.facets)
    return PseudomanifoldReport(is_pm, is_pm and all(c == 2 for c in counts))


def reference_bistellar_move(X: Complex, v: int, sigma: Iterable[int]) -> Complex:
    """Remove the star of v and fill with sigma; the inverse of a vertex split.

    Requires link(X, v) to equal the boundary of sigma and sigma itself not to
    be a face.  The result is a closed pseudomanifold on vertex_set(X) minus v.
    """
    sig = Simplex(sigma)
    report = reference_pseudomanifold_check(X)
    if not (report.is_pseudomanifold and report.closed):
        raise NotClosedPseudomanifold("bistellar moves need a closed pseudomanifold")
    if v not in X.vertex_set:
        raise VertexNotPresent(f"vertex {v} not in the complex")
    sig_set = frozenset(sig)
    link_facets = {fs - {v} for fs in map(frozenset, X.facets) if v in fs}
    sigma_boundary = {sig_set - {x} for x in sig}
    if link_facets != sigma_boundary:
        raise LinkNotStandardSphere(
            f"link of {v} is not the boundary of {tuple(sig)}"
        )
    if X.has_face(sig_set):
        raise SigmaAlreadyFace(f"{tuple(sig)} is already a face")
    keep = [f for f, fs in zip(X.facets, map(frozenset, X.facets)) if v not in fs]
    keep.append(sig)
    return Complex._from_vertex_sets(keep)


def reference_generalized_bistellar_move(
    X: Complex, a_face: Iterable[int], b_face: Iterable[int]
) -> Complex:
    """Exchange the star of face A for the complementary configuration on B.

    Requires A a nonempty face whose link is exactly the boundary of B, B not
    a face, and |A| + |B| = dim + 2.  With |B| = 1 this subdivides the facet A
    with a fresh vertex; with |A| = 1 it is the vertex collapse of
    bistellar_move.
    The move is an involution: applying (B, A) afterwards restores X.
    """
    A = Simplex(a_face)
    B = Simplex(b_face)
    report = reference_pseudomanifold_check(X)
    if not (report.is_pseudomanifold and report.closed):
        raise MovePreconditionFailed("moves need a closed pseudomanifold")
    if len(A) + len(B) != X.dim + 2:
        raise MovePreconditionFailed(
            f"|A| + |B| = {len(A) + len(B)} != dim + 2 = {X.dim + 2}"
        )
    if not A:
        raise MovePreconditionFailed("A must be a nonempty face")
    a_set, b_set = frozenset(A), frozenset(B)
    if not X.has_face(a_set):
        raise MovePreconditionFailed(f"{tuple(A)} is not a face")
    if X.has_face(b_set):
        raise MovePreconditionFailed(f"{tuple(B)} is already a face")
    cofacets = [fs for fs in map(frozenset, X.facets) if a_set <= fs]
    actual_link = {fs - a_set for fs in cofacets}
    expected_link = {b_set - {b} for b in B}
    if actual_link != expected_link or len(cofacets) != len(B):
        raise MovePreconditionFailed(
            f"link of {tuple(A)} is not the boundary of {tuple(B)}"
        )
    new_facets = [fs for fs in map(frozenset, X.facets) if not a_set <= fs]
    new_facets.extend((a_set - {a}) | b_set for a in A)
    return Complex._from_vertex_sets(new_facets)


# ---------------------------------------------------------------------------
# reference incidence queries: the facet scans that core, recognition and
# constructions ran before Complex kept a vertex -> facets star map.  The
# bodies read map(frozenset, X.facets) where they read the frozenset copies
# Complex used to keep; otherwise they are unchanged.
# ---------------------------------------------------------------------------


def reference_has_face(X: Complex, face: Iterable[int]) -> bool:
    fs = frozenset(face)
    return any(fs <= f for f in map(frozenset, X.facets))


def reference_link(X: Complex, v: int) -> Complex:
    """The link of vertex v: facets are sigma minus v over facets containing v."""
    if v not in X.vertex_set:
        raise VertexNotPresent(f"vertex {v} not in the complex")
    if X.dim == 0:
        raise NonPureResult("link of a vertex in a 0-complex is empty")
    return Complex._from_vertex_sets(
        fs - {v} for fs in map(frozenset, X.facets) if v in fs
    )


def reference_anti_star(X: Complex, v: int) -> Complex:
    """All faces avoiding v.  Must be pure of full dimension to be a Complex."""
    if v not in X.vertex_set:
        raise VertexNotPresent(f"vertex {v} not in the complex")
    keep = [f for f, fs in zip(X.facets, map(frozenset, X.facets)) if v not in fs]
    if not keep:
        raise NonPureResult(
            f"every facet contains {v}; the anti-star drops a dimension"
        )
    keep_sets = [frozenset(f) for f in keep]
    for fs in map(frozenset, X.facets):
        if v in fs:
            rest = fs - {v}
            if not any(rest <= ks for ks in keep_sets):
                raise NonPureResult(
                    f"face {tuple(sorted(rest))} is maximal in the anti-star "
                    f"but has dimension {len(rest) - 1} < {X.dim}"
                )
    return Complex._from_vertex_sets(keep)


def reference_degree(X: Complex, v: int) -> int:
    """Number of edges through v."""
    if v not in X.vertex_set:
        raise VertexNotPresent(f"vertex {v} not in the complex")
    neighbors: set[int] = set()
    for fs in map(frozenset, X.facets):
        if v in fs:
            neighbors |= fs
    return len(neighbors) - 1


def reference_is_subcomplex(A: Complex, X: Complex) -> bool:
    """True when every facet of A is a face of X."""
    if A.is_empty:
        return True
    return all(
        any(a <= f for f in map(frozenset, X.facets))
        for a in map(frozenset, A.facets)
    )


def reference_complement(X: Complex, Y: Complex) -> Complex:
    """Facets of X that are not facets of Y; Y must be a proper facet subset."""
    if Y.is_empty or X.is_empty:
        raise NotProperSubcomplex("complement needs nonempty complexes")
    if Y.dim != X.dim:
        raise NotProperSubcomplex(
            f"dimension mismatch: {Y.dim} != {X.dim}"
        )
    x_family = frozenset(map(frozenset, X.facets))
    y_family = frozenset(map(frozenset, Y.facets))
    if not y_family <= x_family:
        raise NotProperSubcomplex("some facet of the second complex is not a facet of the first")
    if y_family == x_family:
        raise NotProperSubcomplex("the complexes are equal; the complement is empty")
    return Complex._from_vertex_sets(
        f for f, fs in zip(X.facets, map(frozenset, X.facets)) if fs not in y_family
    )


def _reference_faces(X: Complex) -> set[frozenset[int]]:
    return {
        frozenset(c)
        for f in X.facets
        for k in range(1, len(f) + 1)
        for c in itertools.combinations(f, k)
    }


def reference_meet_inside(P: Complex, Q: Complex, R: Complex) -> bool:
    """Whether every face that P and Q share is a face of R: the common
    faces, listed by enumerating every face of P, then tested against R."""
    common = {f for f in _reference_faces(P) if reference_has_face(Q, f)}
    return all(reference_has_face(R, f) for f in common)


def _reference_is_single_cycle(L: Complex) -> bool:
    if L.is_empty or L.dim != 1:
        return False
    report = reference_pseudomanifold_check(L)
    return report.is_pseudomanifold and report.closed


def reference_surface_link_loop(X: Complex) -> Verdict | None:
    """The vertex-link loop that ``certify_sphere`` ran in dimension 2 after
    its gates: the refutation of the first vertex whose link is not a single
    cycle, or None."""
    for v in X.vertices:
        if not _reference_is_single_cycle(link(X, v)):
            return Verdict(REFUTED, f"link of vertex {v} is not a single cycle")
    return None


def reference_certify_surface(X: Complex) -> Verdict:
    """``certify_sphere`` on a 2-complex as it was: the pseudomanifold,
    boundary and Euler gates, then the vertex-link loop.  The gates are
    spelled out here on the reference ridge map, with the old reasons."""
    assert X.dim == 2
    report = reference_pseudomanifold_check(X)
    if not report.is_pseudomanifold:
        for r, owners in _reference_ridge_map(X).items():
            if len(owners) > 2:
                return Verdict(
                    REFUTED,
                    f"not a pseudomanifold: ridge {tuple(sorted(r))} "
                    f"lies in {len(owners)} facets",
                )
        return Verdict(
            REFUTED, "not a pseudomanifold: the facet-adjacency graph is disconnected"
        )
    if not report.closed:
        bd = reference_boundary(X)
        return Verdict(
            REFUTED,
            f"has boundary: ridge {tuple(bd.facets[0])} lies in exactly one facet",
        )
    chi = euler_characteristic(X)
    if chi != 2:
        return Verdict(REFUTED, f"Euler characteristic {chi} != 2")
    return reference_surface_link_loop(X) or Verdict(
        CERTIFIED,
        "exact (dim 2): closed surface with Euler characteristic 2 and cycle links",
    )


# ---------------------------------------------------------------------------
# reference gates and pool: the pseudomanifold and closedness gates that
# certify_sphere ran before it read them off the move index, and the move pool
# as it was before legality was settled lazily.  The bodies are unchanged;
# only the names are prefixed, and the copies call each other and the
# reference core above.
# ---------------------------------------------------------------------------


def _reference_ordered_ridge_map(X: Complex) -> dict[tuple[int, ...], list[Simplex]]:
    """Ridge -> owning facets, in facet order.  Ridges are sorted tuples."""
    ridges: dict[tuple[int, ...], list[Simplex]] = {}
    for f in X.facets:
        for i in range(len(f)):
            ridges.setdefault(f[:i] + f[i + 1 :], []).append(f)
    return ridges


def reference_pm_failure_reason(X: Complex) -> str:
    for r, owners in _reference_ordered_ridge_map(X).items():
        if len(owners) > 2:
            return f"not a pseudomanifold: ridge {r} lies in {len(owners)} facets"
    return "not a pseudomanifold: the facet-adjacency graph is disconnected"


def reference_sphere_gates(X: Complex) -> Verdict | None:
    """The refutation by ``certify_sphere``'s pseudomanifold or closedness
    gate, or None when X is a closed pseudomanifold."""
    report = reference_pseudomanifold_check(X)
    if not report.is_pseudomanifold:
        return Verdict(REFUTED, reference_pm_failure_reason(X))
    if not report.closed:
        bd = reference_boundary(X)
        return Verdict(
            REFUTED,
            f"has boundary: ridge {tuple(bd.facets[0])} lies in exactly one facet",
        )
    return None


def reference_pool(index, max_a, undo=None) -> list:
    """``_MoveIndex.pool`` as it was when every size was kept settled: the
    sizes up to max_a are settled in full first.  The undo move is left out
    only when some other move, of any of those sizes, is legal."""
    for k in range(1, max_a + 1):
        index.settle(k)
    legal = [[A for A, B in index.legal(k)] for k in range(1, max_a + 1)]
    skip = None
    if (
        undo is not None
        # no size holds an A with dim + 1 vertices
        and len(undo[0]) <= index.dim
        and index._shapes[len(undo[0])].get(undo[0]) == undo[1]
        and sum(map(len, legal)) > 1
    ):
        skip = undo[0]
    for k, faces in enumerate(legal, 1):
        faces = [A for A in faces if A != skip]
        if faces:
            return [(A, index._shapes[k][A]) for A in faces]
    return []


# ---------------------------------------------------------------------------
# reference ball completion: complete_ball_degree_d as it was when it checked
# that the link of u is one simplex and that u is on the boundary.  The body
# is unchanged; only the name is prefixed.  Spheres, traces, exception types
# and messages are compared against it.
# ---------------------------------------------------------------------------


def reference_complete_ball_degree_d(
    B: Complex,
    u: int | None = None,
    *,
    trust: bool = False,
    budget: int = 10000,
    seed: int = 0,
):
    trace: list[str] = []
    _certify_input(B, "ball", trust, budget, seed, trace)
    d = B.dim
    n = B.n_vertices
    if n < d + 2:
        raise TooFewVertices(f"need at least {d + 2} vertices, have {n}")
    u = _degree_d_vertex(B, u, d)
    u_link = link(B, u)
    if u_link.n_facets != 1:
        raise IntermediateClaimFailed(
            f"link of {u} is not the closure of one simplex"
        )
    tau = u_link.facets[0]
    M = boundary(B)
    if u not in M.vertex_set:
        raise IntermediateClaimFailed(f"vertex {u} is not on the boundary")
    # u lies only in the facet u * tau, so each ridge of it through u has
    # one owner and the boundary link of u is always the boundary of tau
    trace.append(
        f"vertex {u} has degree {d}; boundary link is the boundary of {tuple(tau)}"
    )
    cap = _cone(u, anti_star(M, u))
    if not _meet_inside(cap, B, M):
        raise IntermediateClaimFailed("cap and ball meet outside the boundary")
    trace.append("verified cap intersects the ball exactly in the boundary")
    sphere = _union(B, cap)
    return _finish(B, sphere, trace)


# ---------------------------------------------------------------------------
# reference disc completion: complete_disc as it was when it built a complex
# and its boundary for every ear.  The bodies are unchanged; only the names
# are prefixed, and the copies call each other.  Spheres, traces, exception
# types and messages are compared against them.
# ---------------------------------------------------------------------------


def reference_complete_disc(
    B: Complex, *, trust: bool = False, budget: int = 10000, seed: int = 0
):
    if B.dim != 2:
        raise NotDisc(f"dimension {B.dim} != 2")
    if B.n_vertices < 4:
        raise TooFewVertices(f"need at least 4 vertices, have {B.n_vertices}")
    trace: list[str] = []
    _certify_input(B, "disc", trust, budget, seed, trace)
    cur = B
    while True:
        cycle = _reference_boundary_cycle(cur)
        m = len(cycle)
        if m == 3:
            cap = frozenset(cycle)
            if cur.has_face(cap):
                raise IntermediateClaimFailed(
                    f"boundary triangle {tuple(sorted(cap))} is already a face"
                )
            cur = Complex._from_vertex_sets(list(cur.facets) + [cap])
            trace.append(f"capped the final triangle {tuple(sorted(cap))}")
            break
        filled = False
        for i in range(m):
            prev, here, nxt = cycle[i - 1], cycle[i], cycle[(i + 1) % m]
            if not cur.has_face({prev, nxt}):
                cur = Complex._from_vertex_sets(
                    list(cur.facets) + [frozenset((prev, here, nxt))]
                )
                trace.append(
                    f"filled ear at {here} with ({prev},{here},{nxt}); "
                    f"boundary {m} -> {m - 1}"
                )
                filled = True
                break
        if not filled:
            raise IntermediateClaimFailed(
                "every skip pair on the boundary is an edge; cannot fill an ear"
            )
    final = certify_sphere(cur, budget, seed)
    if not final.is_certified:
        raise IntermediateClaimFailed(f"filled disc is not a 2-sphere: {final.reason}")
    return _finish(B, cur, trace)


def _reference_boundary_cycle(D: Complex) -> list[int]:
    """Boundary of a disc as a vertex cycle, canonically rooted and oriented."""
    bd = boundary(D)
    adjacency: dict[int, list[int]] = {}
    for a, b in bd.facets:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if not adjacency or any(len(nbrs) != 2 for nbrs in adjacency.values()):
        raise IntermediateClaimFailed("boundary is not a single cycle")
    start = min(adjacency)
    second = min(adjacency[start])
    cycle = [start, second]
    while True:
        a, b = cycle[-2], cycle[-1]
        nxt = adjacency[b][0] if adjacency[b][0] != a else adjacency[b][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adjacency):
        raise IntermediateClaimFailed("boundary is not a single cycle")
    return cycle


# ---------------------------------------------------------------------------
# reference geometry: the Fraction Gaussian elimination, hyperplanes, hull,
# general-position test and perturbation that polytopal ran before its
# predicates moved to homogeneous integer rows.  The bodies are unchanged;
# only the names are prefixed, and the copies call each other.  Outcomes,
# exception types and messages are compared against them.
# ---------------------------------------------------------------------------


def reference_det(rows: list[list[Fraction]]) -> Fraction:
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


def _reference_orientation(points) -> Fraction:
    """Signed volume form of d+1 points in R^d (zero iff affinely dependent)."""
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return reference_det(rows)


def _reference_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def reference_hyperplane(points):
    """Normal and offset of the hyperplane through d points in R^d, or None."""
    d = len(points[0])
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[k] for k in range(d) if k != j] for row in rows]
        entry = reference_det(minor) if minor else Fraction(1)
        normal.append(entry if j % 2 == 0 else -entry)
    if all(c == 0 for c in normal):
        return None
    nvec = tuple(normal)
    return nvec, _reference_dot(nvec, base)


def _reference_primitive(normal, offset):
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


def reference_general_position_check(pc: PointConfiguration) -> bool:
    """No d + 1 points on a common hyperplane."""
    d = pc.dim
    if len(pc) < d + 1:
        raise TooFewPoints(f"need at least {d + 1} points, have {len(pc)}")
    coords = pc.as_dict()
    for subset in itertools.combinations(pc.labels, d + 1):
        if _reference_orientation([coords[s] for s in subset]) == 0:
            return False
    return True


def reference_rank(rows: list[list[Fraction]]) -> int:
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


def _reference_affine_basis(pc: PointConfiguration) -> list[int]:
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
        if reference_rank(diffs) == len(candidate) - 1:
            basis.append(label)
        if len(basis) == pc.dim + 1:
            return basis
    raise DegenerateSpan(
        f"points affinely span only {len(basis) - 1} dimensions, need {pc.dim}"
    )


@dataclass
class _ReferenceFacet:
    vertices: frozenset[int]
    normal: tuple[Fraction, ...]
    offset: Fraction


def reference_convex_hull(pc: PointConfiguration) -> HullResult:
    """Incremental beneath-beyond hull with exact predicates.

    Points are inserted in ascending label order.  Strictly interior points
    are skipped; a point exactly on a current facet hyperplane is a general
    position violation and raises NotSimplicial.
    """
    d = pc.dim
    if len(pc) < d + 1:
        raise TooFewPoints(f"need at least {d + 1} points, have {len(pc)}")
    coords = pc.as_dict()
    basis = _reference_affine_basis(pc)
    ref = tuple(
        sum((coords[b][j] for b in basis), Fraction(0)) / (d + 1) for j in range(d)
    )

    def oriented(vertex_labels: Iterable[int]) -> _ReferenceFacet:
        labels = frozenset(vertex_labels)
        plane = reference_hyperplane([coords[v] for v in sorted(labels)])
        if plane is None:
            raise NotSimplicial(
                f"facet candidate {tuple(sorted(labels))} is affinely degenerate"
            )
        normal, offset = plane
        side = _reference_dot(normal, ref) - offset
        if side == 0:
            raise NotSimplicial(
                f"interior reference lies on the hyperplane of "
                f"{tuple(sorted(labels))}"
            )
        if side > 0:
            normal = tuple(-c for c in normal)
            offset = -offset
        return _ReferenceFacet(labels, normal, offset)

    facets: list[_ReferenceFacet] = [
        oriented(set(basis) - {skip}) for skip in basis
    ]
    for label in pc.labels:
        if label in basis:
            continue
        x = coords[label]
        beyond: list[_ReferenceFacet] = []
        ties: list[tuple[int, ...]] = []
        for f in facets:
            side = _reference_dot(f.normal, x) - f.offset
            if side > 0:
                beyond.append(f)
            elif side == 0:
                ties.append(tuple(sorted(f.vertices)))
        if ties:  # the smallest tied facet, so the list's order never matters
            raise NotSimplicial(
                f"point {label} lies on the hyperplane of facet "
                f"{min(ties)}; not in general position"
            )
        if not beyond:
            continue  # interior of the current hull, hence never a vertex
        beyond_set = {id(f) for f in beyond}
        ridge_owner: dict[frozenset[int], list[_ReferenceFacet]] = {}
        for f in facets:
            for v in f.vertices:
                ridge_owner.setdefault(f.vertices - {v}, []).append(f)
        new_facets: list[_ReferenceFacet] = []
        for ridge, owners in ridge_owner.items():
            flags = [id(o) in beyond_set for o in owners]
            if any(flags) and not all(flags):
                new_facets.append(oriented(ridge | {label}))
        facets = [f for f in facets if id(f) not in beyond_set] + new_facets
    hull_facets = []
    for f in sorted(facets, key=lambda f: tuple(sorted(f.vertices))):
        normal, offset = _reference_primitive(f.normal, f.offset)
        hull_facets.append(
            HullFacet(_unchecked(sorted(f.vertices)), normal, offset)
        )
    complex_ = Complex._from_vertex_sets(f.vertices for f in facets)
    return HullResult(tuple(hull_facets), complex_)


def reference_realizes(coords, target: Complex) -> bool:
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
        plane = reference_hyperplane([coords[v] for v in facet])
        if plane is None:
            return False
        normal, offset = plane
        sign = 0
        for label in labels:
            if label in facet:
                continue
            side = _reference_dot(normal, coords[label]) - offset
            if side == 0:
                return False
            if sign == 0:
                sign = 1 if side > 0 else -1
            elif (side > 0) != (sign > 0):
                return False
    return True


def reference_perturb_to_general_position(
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
    if combinatorial_type.is_empty:
        raise EmptyInput("the target complex is empty")
    anchor = combinatorial_type.facets[0]
    coords = dict(pc.as_dict())
    if len(anchor) != d:
        raise DegenerateSpan(
            f"target facets have {len(anchor)} vertices, expected {d}"
        )
    if reference_hyperplane([coords[v] for v in anchor]) is None:
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
            if _reference_prefix_general_position(
                coords, processed, label, d
            ) and reference_realizes(coords, combinatorial_type):
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


def _reference_prefix_general_position(coords, processed, label, d) -> bool:
    pool = processed
    if len(pool) < d:
        return True
    for subset in itertools.combinations(pool, d):
        if _reference_orientation([coords[s] for s in subset] + [coords[label]]) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# fixed fixtures
# ---------------------------------------------------------------------------


def record_ridge_map_builds(monkeypatch, name: str = "_ridge_map") -> dict:
    """Wrap ``Complex._ridge_map``, or the cached map ``name`` such as
    ``_facet_graph``, and record each build of the map: a call on a complex
    that returns a map it had not returned before.  The returned dict maps
    (id(X), id(map)) to (X, map), in order of build, and keeps both alive so
    that no id is reused while it is read."""
    built: dict = {}
    build = getattr(Complex, name)

    def recorded(X):
        found = build(X)
        built.setdefault((id(X), id(found)), (X, found))
        return found

    monkeypatch.setattr(Complex, name, recorded)
    return built


@contextlib.contextmanager
def _counted_flips():
    """Counts the _MoveIndex.flip calls made inside; yields a one-element
    list that holds the count."""
    count = [0]
    flip = recognition._MoveIndex.flip

    def counted(index, *move):
        count[0] += 1
        flip(index, *move)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(recognition._MoveIndex, "flip", counted)
        yield count


def moebius_torus() -> Complex:
    """The 7-vertex torus: orbits of two triangles under i -> i + 1 (mod 7)."""
    facets = []
    for base in ((0, 1, 3), (0, 2, 3)):
        for shift in range(7):
            facets.append(tuple(sorted((v + shift) % 7 + 1 for v in base)))
    return from_facets(facets)


def staircase_product(X: Complex, Y: Complex) -> Complex:
    """The staircase triangulation of |X| x |Y|, built from the facet lists.

    Over each pair of facets s, t, one simplex per monotone lattice path
    through the vertex grid s x t.  Every facet is sorted, so the paths of
    two pairs agree on their common faces.  The vertex (a, b) is labeled
    (a - 1) * m + b, with m the largest vertex of Y.
    """
    m = max(Y.vertices)
    facets = []
    for s, t in itertools.product(X.facets, Y.facets):
        p, q = len(s) - 1, len(t) - 1
        for ups in itertools.combinations(range(p + q), p):
            i = j = 0
            path = [(s[0], t[0])]
            for step in range(p + q):
                i, j = (i + 1, j) if step in ups else (i, j + 1)
                path.append((s[i], t[j]))
            facets.append([(a - 1) * m + b for a, b in path])
    return from_facets(facets)


def barycentric_subdivision(X: Complex) -> Complex:
    """The barycentric subdivision of X, built from the facet list.

    One vertex per nonempty face, labeled by the face's 1-based position in
    the sorted list of all faces (each a sorted tuple), and one facet per
    ordering of each facet's vertices: the chain of its prefixes.  It is
    always flag.
    """
    faces = sorted({
        face
        for f in X.facets
        for k in range(1, len(f) + 1)
        for face in itertools.combinations(f, k)
    })
    label = {face: i for i, face in enumerate(faces, 1)}
    return from_facets(
        [label[tuple(sorted(order[:k]))] for k in range(1, len(order) + 1)]
        for f in X.facets
        for order in itertools.permutations(f)
    )


def pinched_coned_solid_torus(apex: int, pinch: int) -> Complex:
    """A closed 3-pseudomanifold with the Euler characteristic of a 3-sphere
    and two bad vertex links, on the labels 1..20.

    A solid torus, a ring of six triangular prisms cut into three tetrahedra
    each, is closed by a cone with vertex ``apex`` over its boundary torus:
    the link of ``apex`` is that torus, with Euler characteristic 0.  Two
    vertex-disjoint tetrahedra are each subdivided by an interior vertex, and
    the two new vertices are identified as ``pinch``: its link is two
    disjoint tetrahedron boundaries, not a pseudomanifold, with Euler
    characteristic 4.  The cone raises chi by one and the pinch lowers it by
    one, so chi = 0.
    """
    free = iter(v for v in range(1, 21) if v not in (apex, pinch))
    ring = [[next(free) for _ in range(3)] for _ in range(6)]
    tets = []
    for i in range(6):
        (x, y, z), (x1, y1, z1) = ring[i], ring[(i + 1) % 6]
        tets += [(x, y, z, x1), (y, z, x1, y1), (z, x1, y1, z1)]
    ridges = Counter(
        r for t in tets for r in itertools.combinations(sorted(t), 3)
    )
    facets = [t for t in tets if t not in (tets[0], tets[9])]
    facets += [r + (apex,) for r, c in ridges.items() if c == 1]
    for t in (tets[0], tets[9]):
        facets += [r + (pinch,) for r in itertools.combinations(t, 3)]
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


def replays_to_standard_sphere(X: Complex, trace) -> bool:
    """Whether each move (A, B) of trace is legal on X's facets as the walk
    has left them, by the definition of a bistellar move (the facets through
    A are exactly A * dB, and B is not a face), and the last leaves the
    boundary of a simplex.  Facets are frozensets; no library code runs."""
    facets = frozenset(map(frozenset, X.facets))
    for A, B in trace:
        a_set, b_set = frozenset(A), frozenset(B)
        star = {fs for fs in facets if a_set <= fs}
        if a_set & b_set or star != {a_set | (b_set - {b}) for b in b_set}:
            return False
        if any(b_set <= fs for fs in facets):
            return False
        facets = _reference_flip(facets, A, B)
    return len(facets) == len(frozenset().union(*facets)) == X.dim + 2


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
