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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Collection, Iterable, NamedTuple

from .core import (
    Complex,
    Simplex,
    _as_simplices,
    _born,
    _is_connected,
    _link_shape,
    _pm_failure,
    boundary,
    pseudomanifold_check,
)
from .errors import NotStacked

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

DEFAULT_BUDGET = 10000
DEFAULT_SEED = 0

MovePair = tuple[tuple[int, ...], tuple[int, ...]]
_EXACT = (
    "exact (dim 0): two points",
    "exact (dim 1): connected closed 1-pseudomanifold is one cycle",
    "exact (dim 2): closed surface with Euler characteristic 2 and cycle links",
)


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


class StandardReport(NamedTuple):
    """is_standard result: .ball and .sphere flags."""

    ball: bool
    sphere: bool


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
    return len(set().union(*X._star(v))) - 1


# ---------------------------------------------------------------------------
# sphere certification
# ---------------------------------------------------------------------------

# the walk re-chooses from the (_REVISITS + 1)-th revisit of a facet set on
_REVISITS = 8


def _zobrist(facets: Iterable[tuple[int, ...]]) -> int:
    """The XOR of the 64-bit facet hashes.  A tuple of ints hashes the same
    in every process, so keys, and the walks they steer, replay."""
    key = 0
    for facet in facets:
        key ^= hash(facet)
    return key & 0xFFFFFFFFFFFFFFFF


class _MoveIndex:
    """The facets of a pure complex, with the cofacets of the faces its moves
    need and the link-shaped faces; moves with |A| > 1 are sought only on a
    closed pseudomanifold.  It finds and applies moves only; the sphere
    screens read the complex itself.

    Built once per certification and updated in place by each flip.  A flip
    changes only the star of the face it acts on, so only the subfaces of the
    facets it removes and adds are looked at again, in one pass per size,
    and only the faces of A u B are reshaped.  Faces and facets are sorted
    tuples.  A move has |A| <= dim; only pool bounds |A| further, as the
    vertex collapse does with max_a = 1.

    Only the face sizes a reader uses are indexed.  Size 1 is indexed at
    once: is_standard_sphere and the vertex moves read it.  The first
    settle(k) indexes size k and its partner size dim + 2 - k, the size of
    the B of its moves (the facets for k = 1), unless they are indexed
    already, so that legal(k) can ask whether each B is a face.  On stacked
    spheres pool settles only size 1, so no size in 2..dim is ever indexed.

    The cofacets of an indexed size are exact after every flip; the shapes
    are settled lazily, one size |A| at a time.  _shapes[k] maps each
    link-shaped face A with k vertices to its B.  A flip of (A, B) adds the
    k-faces of A u B to _dirty[k] for each settled size k: the facets it
    removes and adds are A u B less one vertex, so these are exactly the
    k-faces whose cofacets change.  settle(k) reshapes the dirty faces
    (every k-face the first time).  The shape of A depends only on the
    cofacets of A, so a settled size is exact.
    """

    __slots__ = ("dim", "facets", "_cofacets", "_shapes", "_dirty")

    def __init__(self, X: Complex):
        self.dim = X.dim
        self.facets: set[tuple[int, ...]] = set(X._facet_tuples)
        # _cofacets[k], for each indexed size k: each face with k vertices ->
        # the facets containing it; a face that is gone has no key.
        self._cofacets: dict[int, dict[tuple[int, ...], set[tuple[int, ...]]]] = {}
        # _shapes[k]: A -> B for each link-shaped face A with k vertices: its
        # cofacets are exactly A * dB.
        self._shapes: list[dict[tuple[int, ...], tuple[int, ...]]] = [
            {} for _ in range(X.dim + 1)
        ]
        # _dirty[k], for each settled size k: the k-faces that may have new shapes
        self._dirty: dict[int, set[tuple[int, ...]]] = {}
        self.index(1)

    def index(self, k: int) -> None:
        """Fill the cofacets of the faces with k vertices."""
        faces: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for facet in self.facets:
            for face in itertools.combinations(facet, k):
                owners = faces.get(face)
                if owners is None:
                    faces[face] = {facet}
                else:
                    owners.add(facet)
        self._cofacets[k] = faces

    def settle(self, k: int) -> None:
        """Bring the shapes with |A| = k up to date."""
        n = self.dim + 2 - k
        faces: Iterable[tuple[int, ...]] | None = self._dirty.get(k)
        if faces is None:
            for j in (k, n):
                if j <= self.dim and j not in self._cofacets:
                    self.index(j)
            faces = self._cofacets[k]
        self._dirty[k] = set()
        cofacets, shapes = self._cofacets[k], self._shapes[k]
        for face in faces:
            owners = cofacets.get(face, ())
            # a link-shaped face has exactly n cofacets
            shape = _link_shape(owners, face, self.dim) if len(owners) == n else None
            if shape is None:
                shapes.pop(face, None)
            else:
                shapes[face] = shape

    def legal(self, k: int) -> list[MovePair]:
        """The legal moves (A, B) with |A| = k, sorted by A: A is link-shaped
        and B is not a face.  Size k must be settled."""
        has_face = self.has_face
        moves = [(A, B) for A, B in self._shapes[k].items() if not has_face(B)]
        return sorted(moves, key=itemgetter(0))  # by A alone: pairs compare slower

    def has_face(self, face: tuple[int, ...]) -> bool:
        if len(face) == self.dim + 1:
            return face in self.facets
        return face in self._cofacets[len(face)]

    def is_standard_sphere(self) -> bool:
        return len(self._cofacets[1]) == len(self.facets) == self.dim + 2

    def pool(self, undo: MovePair | None = None, max_a: int = 0) -> list[MovePair]:
        """The legal moves (A, B) with the smallest |A|, sorted by A; |A| is at
        most max_a if that is given, and at most dim otherwise.

        A legal move brings in no vertex: A is link-shaped and B is not a
        face.  The move undo is left out unless it is the only legal move.
        Sizes are settled in ascending order; a larger size is settled only
        while every legal move found so far is undo.
        """
        undone = False
        for k in range(1, (max_a or self.dim) + 1):
            self.settle(k)
            legal = self.legal(k)
            if undo in legal:
                legal.remove(undo)
                undone = True
            if legal:
                return legal
        return [undo] if undone else []

    def flip(
        self, A: tuple[int, ...], B: tuple[int, ...],
        born: list[tuple[int, ...]] | None = None,
    ) -> None:
        """Replace the |B| facets of A * dB by the |A| facets of dA * B,
        born, which a keyed walk has listed already."""
        gone = tuple(self._cofacets[len(A)][A])
        if born is None:
            born = _born(A, B)
        self.facets.difference_update(gone)
        self.facets.update(born)
        for k, faces in self._cofacets.items():
            for f in born:
                for face in itertools.combinations(f, k):
                    owners = faces.get(face)
                    if owners is None:
                        faces[face] = {f}
                    else:
                        owners.add(f)
            for f in gone:
                for face in itertools.combinations(f, k):
                    owners = faces[face]
                    owners.remove(f)
                    if not owners:
                        del faces[face]
        AB = tuple(sorted(A + B))
        for k, dirty in self._dirty.items():
            dirty.update(itertools.combinations(AB, k))


class _Walk:
    """A walk toward the boundary of a simplex: the _MoveIndex it flips in
    place, the caller's RNG, the budget, the trace and the undo move.

    A step costs one pass over the subfaces of the facets the flip removes
    and adds, for each size indexed so far, then reshaping the faces of
    A u B, for the sizes |A| that pool settles, plus filtering and sorting
    the shapes of one size into the pool.
    While vertex collapses are legal that is |A| = 1 alone; a walk of vertex
    collapses indexes only the vertices, and no step rescans every face
    against every facet.

    Choice rule: immediately undoing the previous move is avoided unless it
    is the only legal move.  The pool is the remaining legal moves with the
    smallest |A| (the largest drop in facet count, vertex collapses first),
    sorted by A; the RNG picks from it when it holds more than one, and
    without an RNG the first move is taken.

    Revisits: from its first run without max_a on, the walk keys its facet
    sets by _zobrist and keeps the keys it has seen.  A move (A, B) changes
    the key by the facets of A * dB and dA * B, so each move is keyed
    before its flip.  A pick that leads to a seen key is a revisit, and
    from the (_REVISITS + 1)-th on the step re-chooses: for |A| = 1, 2, ...,
    the legal moves whose key is unseen, the undo included, sorted by A,
    and the RNG's pick among those of the first size that has any.  If no
    size has one, the walk stops.  A walk with at most _REVISITS revisits
    makes the choices and RNG calls of the plain rule.  The same seed and a
    larger budget replay the identical prefix, so Certified verdicts are
    budget-monotone.  A collapse-only run keeps no key: a vertex collapse
    lowers the vertex count and no move raises it, so no earlier facet set
    comes back.
    """

    __slots__ = ("index", "rng", "budget", "trace", "undo", "key", "seen", "revisits")

    def __init__(self, X: Complex, budget: int, rng: random.Random | None):
        self.index = _MoveIndex(X)
        self.rng = rng
        self.budget = budget
        self.trace: list[MovePair] = []
        self.undo: MovePair | None = None
        self.key: int | None = None  # None until the first run without max_a
        self.seen: set[int] = set()
        self.revisits = 0

    def run(self, max_a: int = 0) -> bool:
        """Flip until the standard sphere (True), or until no legal move with
        |A| <= max_a (any |A| if max_a is 0) is left within the budget, or,
        once the walk re-chooses, none to an unseen facet set."""
        index = self.index
        if not max_a and self.key is None:
            self.key = _zobrist(index.facets)
            self.seen.add(self.key)
        while not index.is_standard_sphere():
            pool = index.pool(self.undo, max_a) if len(self.trace) < self.budget else []
            if not pool:
                return False
            choice = self._pick(pool)
            born = None
            if self.key is not None:
                key, born = self._after(choice)
                if key in self.seen:
                    self.revisits += 1
                    if self.revisits > _REVISITS:
                        unseen = self._unseen()
                        if unseen is None:
                            return False
                        choice, (key, born) = unseen
                self.key = key
                self.seen.add(key)
            index.flip(*choice, born)
            self.trace.append(choice)
            self.undo = (choice[1], choice[0])
        return True

    def _pick(self, pool: list[Any]) -> Any:
        rng = self.rng
        return pool[rng.randrange(len(pool))] if rng and len(pool) > 1 else pool[0]

    def _after(self, move: MovePair) -> tuple[int, list[tuple[int, ...]]]:
        """The key after move, and the facets it adds."""
        A, B = move
        gone, born = self.index._cofacets[len(A)][A], _born(A, B)
        return self.key ^ _zobrist(gone) ^ _zobrist(born), born

    def _unseen(self) -> tuple[MovePair, tuple[int, list[tuple[int, ...]]]] | None:
        """The re-choice: a legal move to an unseen facet set, with what
        _after gives for it."""
        index = self.index
        for k in range(1, index.dim + 1):
            index.settle(k)
            keyed = []
            for move in index.legal(k):
                after = self._after(move)
                if after[0] not in self.seen:
                    keyed.append((move, after))
            if keyed:
                return self._pick(keyed)
        return None


@dataclass
class _Screens:
    """Checks chi(X) and the face links of a closed pseudomanifold X: lk F
    must be connected across the ridges through F, with the chi of a
    (dim X - |F|)-sphere, to which each face tau through F adds
    (-1)^(|tau| - |F| - 1).  The screens read X's stars, ridge map and
    facet graph, which no flip of the walk touches.
    """

    X: Complex

    @cached_property
    def faces(self) -> list[Collection[Any]]:
        # faces[k]: the k-vertex faces, ints for k = 1 and tuples after (dim >= 2)
        X = self.X
        faces: list[Collection[Any]] = [(), X.vertices]
        faces.extend(X._face_tuples(k) for k in range(2, X.dim))
        return faces + [X._ridge_map().keys(), X._facet_tuples]

    def stalled(self) -> Verdict | None:
        """The refutation by chi(X) or, from dimension 3 on, a vertex link."""
        chi = -sum((-1) ** k * len(faces) for k, faces in enumerate(self.faces))
        expected = 1 + (-1) ** self.X.dim
        if chi != expected:
            return Verdict(REFUTED, f"Euler characteristic {chi} != {expected}")
        return self.links(range(1, 2)) if self.X.dim >= 3 else None

    def links(self, sizes: range) -> Verdict | None:
        """The first failing link of a face with a size in sizes, or None."""
        X, faces = self.X, self.faces
        d, across = X.dim, X._facet_graph()
        for k in sizes:
            # per k-face, the faces through it with an even and an odd size
            through: tuple[Counter[Any], Counter[Any]] = (Counter(), Counter())
            for m in range(k + 1, d + 2):
                combos = (itertools.combinations(f, k) for f in faces[m])
                subsets = faces[m] if k == 1 else combos
                through[m % 2].update(itertools.chain.from_iterable(subsets))
            expected = 1 + (-1) ** (d - k)
            kind = "vertex" if k == 1 else "face"
            for F in sorted(faces[k]):
                # facets through F meet in a ridge through F iff they are adjacent
                star = X._facets_containing((F,) if k == 1 else F)  # a fresh set
                connected = _is_connected(across, star)
                lchi = (-1) ** (k + 1) * (through[0][F] - through[1][F])
                if not connected or lchi != expected:
                    chi = f"has Euler characteristic {lchi} != {expected}"
                    why = chi if connected else "is not a closed pseudomanifold"
                    return Verdict(REFUTED, f"link of {kind} {F} {why}")
        return None


def _check_budget(budget: int) -> None:
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise TypeError(f"budget must be an int, got {budget!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def certify_sphere(
    X: Complex, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> Verdict:
    """Three-valued sphere certification; a negative budget raises ValueError.

    Layered: pseudomanifold and Euler-characteristic gates refute cheaply;
    dimensions 0..2 are decided exactly; from dimension 3 on, a greedy
    bistellar reduction proves spheres, and when it fails the face links
    are screened for a refutation.

    From dimension 3 on, vertex collapses run first, on any pure X: each
    swaps a star v * dB for B, a ball for a ball with the same boundary, so
    a complex they reduce to the boundary of a simplex is a PL sphere, which
    no check refutes, and X's ridge map and facet graph are never built.  If
    they stall, the gates name a ridge in three or more facets (_pm_failure),
    then a disconnected facet graph, then the smallest ridge in one facet (in
    dimension 0, the empty face).  _Screens then checks chi(X) in dimension
    2; from dimension 3 on, chi(X) and the vertex links, and the faces with
    2..d - 2 vertices only after a failed walk.  So a refused input keeps
    its first failing gate, at a cost of at most one pass of collapses.

    The face screen refutes what certifying each vertex link, recursively,
    would: a link that certifies is a PL sphere, whose links are spheres,
    and links of dimension <= 2 that pass the gates are decided by chi.  A
    vertex v of a connected closed 2-pseudomanifold links c_v cycles; one
    vertex per cycle gives a closed connected surface N with chi(N) =
    chi(X) + sum(c_v - 1) <= 2, so chi(X) = 2 forces every c_v = 1, and the
    faces with d - 1 vertices, whose links are such cycles, need no check.
    """
    _check_budget(budget)
    if X.is_empty:
        return Verdict(REFUTED, "the empty complex is not a sphere")
    d = X.dim
    # d >= 3: vertex collapses first, the gates and screens only if they stall
    walk = _Walk(X, budget, random.Random(seed)) if d >= 3 else None
    if walk is None or not walk.run(max_a=1):
        failure = _pm_failure(X)
        if failure is not None:
            return Verdict(REFUTED, failure)
        open_ridges = [r for r, owners in X._ridge_map().items() if len(owners) == 1]
        if open_ridges:
            why = f"has boundary: ridge {min(open_ridges)} lies in exactly one facet"
            return Verdict(REFUTED, why)
        screens = _Screens(X)
        if walk is None:
            # past the gates, two points and a cycle are spheres: chi checks surfaces
            return (d == 2 and screens.stalled()) or Verdict(CERTIFIED, _EXACT[d])
        refutation = screens.stalled()
        if refutation is not None:
            return refutation
        if not walk.run():
            # the vertex links were screened when collapses stalled
            moves = len(walk.trace)
            reason = (
                f"bistellar reduction budget exhausted ({budget} moves)"
                if moves >= budget
                else f"bistellar reduction stopped after {moves} moves: "
                "no legal move to an unseen facet set"
            )
            return screens.links(range(2, d - 1)) or Verdict(UNKNOWN, reason)
    trace = tuple(walk.trace)
    return Verdict(
        CERTIFIED,
        f"reduced to the standard {d}-sphere in {len(trace)} bistellar moves",
        trace,
    )


def certify_ball(
    X: Complex, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> Verdict:
    """Certify a combinatorial ball by capping the boundary with a fresh cone.

    X is a ball exactly when X plus a cone over its boundary is a sphere: the
    cone apex's anti-star in the capped complex is X itself, and the
    anti-star of a vertex in a PL sphere is a PL ball.  Verdicts inherit
    exactness from certify_sphere (dimension 2 inputs are decided exactly).
    A negative budget raises ValueError.

    Only the capped complex is walked, with the whole budget: if it is
    certified, so is the apex's link, the boundary.  Otherwise the boundary
    is certified with budget 0, which refutes it as any budget would.
    """
    _check_budget(budget)
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
    apex = max(X.vertices) + 1
    capped = Complex._from_vertex_sets(
        [*X._facet_tuples, *(f + (apex,) for f in bd._facet_tuples)]
    )
    capped_verdict = certify_sphere(capped, budget, seed)
    if capped_verdict.is_certified:
        return Verdict(
            CERTIFIED,
            f"capping the boundary with vertex {apex} gives a sphere: "
            f"{capped_verdict.reason}",
            capped_verdict.trace,
        )
    bd_verdict = certify_sphere(bd, 0, seed)
    if bd_verdict.is_refuted:
        return Verdict(REFUTED, f"boundary is not a sphere: {bd_verdict.reason}")
    if capped_verdict.is_refuted:
        return Verdict(
            REFUTED, f"capped complex is not a sphere: {capped_verdict.reason}"
        )
    return Verdict(UNKNOWN, f"capped complex unresolved: {capped_verdict.reason}")


# ---------------------------------------------------------------------------
# stacked balls and spheres
# ---------------------------------------------------------------------------


def is_stacked_ball(X: Complex) -> StackedBallReport:
    """Stacked exactly when no ridge lies in three facets, the facet graph is
    a tree and f_0 = f_top + dim.

    The witness comes from peeling the smallest current leaf first;
    reversed, the peel is the gluing order.  Each leaf's apex, its one
    vertex off the ridge it shares, lies in no other facet: removing the
    leaf from a tree of m facets leaves a tree of m - 1, any connected
    gluing order covers that with at most m - 1 + dim vertices, and
    f_0 = m + dim forces the apex out.
    """
    facets = X._facet_tuples
    if not facets or len(facets[0]) < 2:
        return StackedBallReport(False, reason="needs dimension >= 1")
    ridges = X._ridge_map()
    if max(map(len, ridges.values())) > 2:
        return StackedBallReport(False, reason="a ridge lies in three or more facets")
    m, d = len(facets), len(facets[0]) - 1
    # with no ridge in three facets, the m * (dim + 1) facet-ridge incidences
    # count each ridge once and each ridge in two facets, an edge, twice
    n_edges = m * (d + 1) - len(ridges)
    if n_edges != m - 1 or not _is_connected(X._facet_graph(), set(facets)):
        return StackedBallReport(False, reason="facet-adjacency graph is not a tree")
    if X.n_vertices != m + d:
        return StackedBallReport(
            False, reason=f"f_0 = {X.n_vertices} != f_top + dim = {m + d}"
        )
    graph = X._facet_graph()
    degree = {f: len(neighbors) for f, neighbors in graph.items()}
    leaves = [f for f in facets if degree[f] == 1]  # sorted, so a heap
    neighbor = facets[0]  # in the end the one facet left, the witness's first
    peeled: list[tuple[int, ...]] = []
    glued: list[tuple[int, ...]] = []  # the ridge each leaf shares
    apexes: list[int] = []
    for _ in range(m - 1):
        leaf = heappop(leaves)
        degree[leaf] = 0
        for neighbor in graph[leaf]:  # the one not yet peeled
            if degree[neighbor]:
                break
        for i, apex in enumerate(leaf):  # the vertex off the shared ridge
            if apex not in neighbor:
                break
        peeled.append(leaf)
        glued.append(leaf[:i] + leaf[i + 1 :])
        apexes.append(apex)
        degree[neighbor] -= 1
        if degree[neighbor] == 1:
            heappush(leaves, neighbor)
    typed = _as_simplices([neighbor, *reversed(peeled), *reversed(glued)])
    attachments = tuple(zip(typed[m:], reversed(apexes)))
    return StackedBallReport(True, witness=StackingSequence(typed[:m], attachments))


def collapse_stacked_sphere_to_ball(S: Complex) -> Complex:
    """Build a stacked ball whose boundary is S, on the same vertex set.

    Repeatedly collapses a vertex whose link is the boundary of a missing
    simplex, the first legal one, through a _Walk without an RNG; reversing
    the collapses glues the ball back together.  Raises NotStacked when no
    collapsible vertex exists and S is not standard.  The collapses run
    before S is checked to be a closed pseudomanifold: if they reach the
    standard sphere, S is one, and otherwise the check picks the message.
    """
    not_closed = "input is not a closed pseudomanifold of dimension >= 1"
    if S.dim < 1:
        raise NotStacked(not_closed)
    walk = _Walk(S, S.n_vertices, None)  # each collapse removes a vertex
    if not walk.run(max_a=1):
        raise NotStacked(
            "no vertex link is the boundary of a missing simplex; not stacked"
            if pseudomanifold_check(S).closed else not_closed
        )
    ball_facets = [frozenset().union(*walk.index.facets)]
    for (v,), sigma in reversed(walk.trace):
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
    adjacency = {v: set().union(*S._star(v)) - {v} for v in S.vertices}
    cliques: set[frozenset[int]] = set(S.faces_of_size(2))
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
