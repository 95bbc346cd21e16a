"""Recognition: standard/stacked/flag detection and sphere/ball certification.

Sphere certification is exact through dimension 2 (classification of
surfaces).  In higher dimensions it is a three-valued procedure: Refuted
verdicts always carry a concrete failed invariant, Certified verdicts carry a
replayable bistellar reduction trace, and everything else is Unknown.  A
bigger budget can only turn Unknown into Certified, never the reverse.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    Complex,
    Simplex,
    _ridge_map,
    boundary,
    euler_characteristic,
    link,
    pseudomanifold_check,
)
from .errors import NotStacked, VertexNotPresent

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

DEFAULT_BUDGET = 10000
DEFAULT_SEED = 0

MovePair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certification: status, human-checkable reason, move trace."""

    status: str
    reason: str
    trace: tuple[MovePair, ...] = ()

    @property
    def is_certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


@dataclass(frozen=True)
class StackingSequence:
    """Witness order sigma_1..sigma_m; attachments give (ridge, fresh apex) per step."""

    facets: tuple[Simplex, ...]
    attachments: tuple[tuple[Simplex, int], ...]  # aligned with facets[1:]


@dataclass(frozen=True)
class StackedBallReport:
    stacked: bool
    witness: StackingSequence | None = None
    reason: str = ""


class StandardReport:
    """is_standard result: .ball and .sphere flags."""

    __slots__ = ("ball", "sphere")

    def __init__(self, ball: bool, sphere: bool):
        self.ball = ball
        self.sphere = sphere


def is_standard(X: Complex) -> StandardReport:
    """Standard ball: the closure of one simplex.  Standard sphere: its boundary."""
    if X.is_empty:
        return StandardReport(False, False)
    ball = X.n_facets == 1
    sphere = (
        X.n_vertices == X.dim + 2 and X.n_facets == X.dim + 2
    )
    return StandardReport(ball, sphere)


def degree(X: Complex, v: int) -> int:
    """Number of edges through v."""
    if v not in X.vertex_set:
        raise VertexNotPresent(f"vertex {v} not in the complex")
    neighbors: set[int] = set()
    for fs in X._fsets:
        if v in fs:
            neighbors |= fs
    return len(neighbors) - 1


# ---------------------------------------------------------------------------
# sphere certification
# ---------------------------------------------------------------------------


def _is_single_cycle(L: Complex) -> bool:
    if L.is_empty or L.dim != 1:
        return False
    report = pseudomanifold_check(L)
    return report.is_pseudomanifold and report.closed


class _MoveIndex:
    """The facets of a closed pseudomanifold, with the cofacets of its faces.

    Built once per walk and updated in place by each flip.  A flip changes
    only the star of the face it acts on, so only the subfaces of the facets
    it removes and adds are looked at again.  Faces and facets are sorted
    tuples.

    Faces with 1..max_a vertices are indexed, and the legal moves are those
    with |A| <= max_a.  The full walk needs max_a = dim, which also indexes
    every B it must test for faceness; the vertex collapse needs only
    max_a = 1, where every B has dim + 1 vertices and is looked up among the
    facets.
    """

    __slots__ = ("dim", "facets", "_sizes", "_cofacets", "_shape")

    def __init__(self, X: Complex, max_a: int):
        self.dim = X.dim
        self.facets: set[tuple[int, ...]] = set()
        self._sizes = range(1, max_a + 1)
        # _cofacets[k]: each face with k vertices -> the facets containing it;
        # a face that is gone has no key.
        self._cofacets: list[dict[tuple[int, ...], set[tuple[int, ...]]]] = [
            {} for _ in range(max_a + 1)
        ]
        # A -> B for each link-shaped face A: its cofacets are exactly A * dB.
        self._shape: dict[tuple[int, ...], tuple[int, ...]] = {}
        for f in X.facets:
            self._add(tuple(f))
        for faces in self._cofacets[1:]:
            for face in faces:
                self._reshape(face)

    def _add(self, facet: tuple[int, ...]) -> None:
        self.facets.add(facet)
        for k in self._sizes:
            faces = self._cofacets[k]
            for face in itertools.combinations(facet, k):
                owners = faces.get(face)
                if owners is None:
                    faces[face] = {facet}
                else:
                    owners.add(facet)

    def _remove(self, facet: tuple[int, ...]) -> None:
        self.facets.remove(facet)
        for k in self._sizes:
            faces = self._cofacets[k]
            for face in itertools.combinations(facet, k):
                owners = faces[face]
                owners.remove(facet)
                if not owners:
                    del faces[face]

    def _reshape(self, face: tuple[int, ...]) -> None:
        owners = self._cofacets[len(face)].get(face)
        # The cofacets are A * dB exactly when there are dim + 2 - |A| of them
        # and they span dim + 2 vertices: each is A plus a different
        # (|B| - 1)-subset of the |B| vertices outside A, and there are only
        # |B| such subsets.
        if owners is not None and len(owners) == self.dim + 2 - len(face):
            spanned = set().union(*owners)
            if len(spanned) == self.dim + 2:
                self._shape[face] = tuple(sorted(spanned.difference(face)))
                return
        self._shape.pop(face, None)

    def has_face(self, face: tuple[int, ...]) -> bool:
        if len(face) == self.dim + 1:
            return face in self.facets
        return face in self._cofacets[len(face)]

    def is_standard_sphere(self) -> bool:
        return len(self._cofacets[1]) == len(self.facets) == self.dim + 2

    def legal_moves(self) -> list[MovePair]:
        """Legal moves (A, B) that do not introduce a vertex, sorted by (|A|, A).

        B can become a face through a flip that leaves the star of A alone,
        so faceness is read afresh on every call.
        """
        moves = [(A, B) for A, B in self._shape.items() if not self.has_face(B)]
        moves.sort(key=lambda move: (len(move[0]), move[0]))
        return moves

    def flip(self, A: tuple[int, ...], B: tuple[int, ...]) -> None:
        """Replace the |B| facets of A * dB by the |A| facets of dA * B."""
        gone = list(self._cofacets[len(A)][A])
        born = [tuple(sorted(A[:i] + A[i + 1 :] + B)) for i in range(len(A))]
        for f in gone:
            self._remove(f)
        for f in born:
            self._add(f)
        touched: set[tuple[int, ...]] = set()
        for f in gone + born:
            for k in self._sizes:
                touched.update(itertools.combinations(f, k))
        for face in touched:
            self._reshape(face)


def _greedy_reduce(
    X: Complex, budget: int, seed: int
) -> tuple[bool, tuple[MovePair, ...]]:
    """Walk the flip graph toward the boundary of a simplex.

    The walk keeps a _MoveIndex of the current complex: the cofacets of every
    face, and the faces whose link is the boundary of a simplex.  Each flip
    updates it only around the facets it removes and adds, so a step costs
    the size of two stars, not a rescan of every face against every facet.

    Choice rule: immediately undoing the previous move is avoided unless it
    is the only legal move.  The pool is the remaining legal moves with the
    smallest |A| (the largest drop in facet count, vertex collapses first),
    sorted by A; a seeded RNG picks from it when it holds more than one.  The
    same seed and a larger budget replay the identical prefix, so Certified
    verdicts are budget-monotone.
    """
    rng = random.Random(seed)
    index = _MoveIndex(X, X.dim)
    trace: list[MovePair] = []
    prev: MovePair | None = None
    while len(trace) < budget:
        if index.is_standard_sphere():
            return True, tuple(trace)
        moves = index.legal_moves()
        if prev is not None and len(moves) > 1:
            undo = (prev[1], prev[0])
            moves = [m for m in moves if m != undo]
        if not moves:
            return False, tuple(trace)
        size = len(moves[0][0])
        pool = [m for m in moves if len(m[0]) == size]
        choice = pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
        index.flip(*choice)
        trace.append(choice)
        prev = choice
    return index.is_standard_sphere(), tuple(trace)


def certify_sphere(
    X: Complex, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> Verdict:
    """Three-valued sphere certification.

    Layered: pseudomanifold and Euler-characteristic gates refute cheaply;
    dimensions 0..2 are decided exactly; from dimension 3 on, a greedy
    bistellar reduction proves spheres, and when it stalls the vertex links
    are certified recursively to hunt for a refutation.
    """
    if X.is_empty:
        return Verdict(REFUTED, "the empty complex is not a sphere")
    d = X.dim
    report = pseudomanifold_check(X)
    if not report.is_pseudomanifold:
        return Verdict(REFUTED, _pm_failure_reason(X))
    if not report.closed:
        bd = boundary(X)
        return Verdict(
            REFUTED,
            f"has boundary: ridge {tuple(bd.facets[0])} lies in exactly one facet",
        )
    chi = euler_characteristic(X)
    expected = 1 + (-1) ** d
    if chi != expected:
        return Verdict(REFUTED, f"Euler characteristic {chi} != {expected}")
    if d == 0:
        return Verdict(CERTIFIED, "exact (dim 0): two points")
    if d == 1:
        return Verdict(
            CERTIFIED, "exact (dim 1): connected closed 1-pseudomanifold is one cycle"
        )
    if d == 2:
        for v in X.vertices:
            if not _is_single_cycle(link(X, v)):
                return Verdict(
                    REFUTED, f"link of vertex {v} is not a single cycle"
                )
        return Verdict(
            CERTIFIED,
            "exact (dim 2): closed surface with Euler characteristic 2 and cycle links",
        )
    # d >= 3: cheap link screen before spending the budget
    for v in X.vertices:
        L = link(X, v)
        lreport = pseudomanifold_check(L)
        if not (lreport.is_pseudomanifold and lreport.closed):
            return Verdict(
                REFUTED, f"link of vertex {v} is not a closed pseudomanifold"
            )
        lchi = euler_characteristic(L)
        lexpected = 1 + (-1) ** (d - 1)
        if lchi != lexpected:
            return Verdict(
                REFUTED,
                f"link of vertex {v} has Euler characteristic {lchi} != {lexpected}",
            )
    ok, trace = _greedy_reduce(X, budget, seed)
    if ok:
        return Verdict(
            CERTIFIED,
            f"reduced to the standard {d}-sphere in {len(trace)} bistellar moves",
            trace,
        )
    unknown_links = []
    for v in X.vertices:
        sub = certify_sphere(link(X, v), budget, seed)
        if sub.is_refuted:
            return Verdict(REFUTED, f"link of vertex {v} refuted: {sub.reason}")
        if sub.is_unknown:
            unknown_links.append(v)
    detail = f"; links unresolved at {unknown_links}" if unknown_links else ""
    return Verdict(
        UNKNOWN, f"bistellar reduction budget exhausted ({budget} moves){detail}"
    )


def _pm_failure_reason(X: Complex) -> str:
    for r, owners in _ridge_map(X).items():
        if len(owners) > 2:
            return (
                f"not a pseudomanifold: ridge {tuple(sorted(r))} "
                f"lies in {len(owners)} facets"
            )
    return "not a pseudomanifold: the facet-adjacency graph is disconnected"


def certify_ball(
    X: Complex, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> Verdict:
    """Certify a combinatorial ball by capping the boundary with a fresh cone.

    X is a ball exactly when X plus a cone over its boundary is a sphere: the
    cone apex's anti-star in the capped complex is X itself.  Verdicts inherit
    exactness from certify_sphere (dimension 2 inputs are decided exactly).
    """
    if X.is_empty:
        return Verdict(REFUTED, "the empty complex is not a ball")
    if X.n_facets == 1:
        return Verdict(CERTIFIED, "standard ball: the closure of one simplex")
    if X.dim == 0:
        return Verdict(REFUTED, "a 0-ball is a single point")
    report = pseudomanifold_check(X)
    if not report.is_pseudomanifold:
        return Verdict(REFUTED, _pm_failure_reason(X))
    if report.closed:
        return Verdict(REFUTED, "no boundary: a closed pseudomanifold is not a ball")
    bd = boundary(X)
    bd_verdict = certify_sphere(bd, budget, seed)
    if bd_verdict.is_refuted:
        return Verdict(REFUTED, f"boundary is not a sphere: {bd_verdict.reason}")
    apex = max(X.vertices) + 1
    capped = Complex._from_vertex_sets(
        list(X._fsets) + [fs | {apex} for fs in bd._fsets]
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
# stacked balls and spheres
# ---------------------------------------------------------------------------


def _is_connected(adj: dict[Simplex, set[Simplex]], root: Simplex) -> bool:
    seen = {root}
    stack = [root]
    while stack:
        for g in adj[stack.pop()]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return len(seen) == len(adj)


def is_stacked_ball(X: Complex) -> StackedBallReport:
    """Stacked exactly when the facet-adjacency graph is a tree and
    f_0 = f_top + dim; a witness stacking order is produced by peeling."""
    if X.is_empty or X.dim < 1:
        return StackedBallReport(False, reason="needs dimension >= 1")
    d = X.dim
    owners: dict[tuple[int, ...], list[Simplex]] = {}
    for f in X.facets:
        for i in range(d + 1):
            owners.setdefault(f[:i] + f[i + 1 :], []).append(f)
    # two facets share at most one ridge, so each 2-owner ridge is one edge
    adj: dict[Simplex, set[Simplex]] = {f: set() for f in X.facets}
    n_edges = 0
    for pair in owners.values():
        if len(pair) > 2:
            return StackedBallReport(
                False, reason="a ridge lies in three or more facets"
            )
        if len(pair) == 2:
            n_edges += 1
            a, b = pair
            adj[a].add(b)
            adj[b].add(a)
    if n_edges != X.n_facets - 1 or not _is_connected(adj, X.facets[0]):
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
        ridge = Simplex._raw(tuple(v for v in f if v != apex))
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


def collapse_stacked_sphere_to_ball(S: Complex) -> Complex:
    """Build a stacked ball whose boundary is S, on the same vertex set.

    Repeatedly collapses a vertex whose link is the boundary of a missing
    simplex; reversing the collapses glues the ball back together.  Raises
    NotStacked when no collapsible vertex exists and S is not standard.
    """
    report = pseudomanifold_check(S)
    if not (report.is_pseudomanifold and report.closed) or S.dim < 1:
        raise NotStacked("input is not a closed pseudomanifold of dimension >= 1")
    index = _MoveIndex(S, 1)
    steps: list[MovePair] = []
    while not index.is_standard_sphere():
        moves = index.legal_moves()
        if not moves:
            raise NotStacked(
                "no vertex link is the boundary of a missing simplex; not stacked"
            )
        steps.append(moves[0])
        index.flip(*moves[0])
    ball_facets = [frozenset().union(*index.facets)]
    for (v,), sigma in reversed(steps):
        ball_facets.append(frozenset(sigma) | {v})
    return Complex._from_vertex_sets(ball_facets)


# ---------------------------------------------------------------------------
# flag complexes
# ---------------------------------------------------------------------------


def is_flag(S: Complex) -> bool:
    """Not standard, and every clique of the 1-skeleton is a face.

    Cliques are grown size by size; the first clique that is not a face
    settles the question, and faces are capped at dim + 1 vertices, so the
    growth always terminates quickly.
    """
    if S.is_empty:
        return False
    if is_standard(S).sphere:
        return False
    edges = S.faces_of_size(2)
    adjacency: dict[int, set[int]] = {v: set() for v in S.vertices}
    for e in edges:
        a, b = sorted(e)
        adjacency[a].add(b)
        adjacency[b].add(a)
    cliques: set[frozenset[int]] = set(edges)
    while cliques:
        grown: set[frozenset[int]] = set()
        for c in cliques:
            top = max(c)
            candidates = set.intersection(*(adjacency[v] for v in c))
            for w in candidates:
                if w > top:
                    grown.add(c | {w})
        for c in grown:
            if not S.has_face(c):
                return False
        cliques = grown
    return True
