"""Pure simplicial complexes: facet-level data model and primitive operations.

Vertex labels are positive integers.  A complex is stored by its facet set in
canonical order (each facet strictly increasing, facets sorted
lexicographically), so equal complexes serialize to identical bytes.  All
values are immutable; every operation returns a fresh ``Complex``.  What a
``Complex`` derives from its facets, the star map, the ridge map and the
facet graph across its 2-owner ridges among them, it builds once, on first
use.

Inside the package a facet is a plain tuple of ints: the builders here store
those, and the other modules read them through ``Complex._facet_tuples``.
A ``Simplex`` is made only for a public value, such as ``Complex.facets``
(built on first read and kept), a ``DualGraph`` or a stacking witness, by
``_as_simplices``, which skips the checks that the stored facets have passed.

The empty complex exists only as the boundary of a closed pseudomanifold.  No
constructor accepts an empty facet list or an empty facet, and no other
operation returns one.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import (
    DuplicateVertexInFacet,
    EmptyInput,
    FreshVertexCollision,
    InvalidVertexLabel,
    LinkNotStandardSphere,
    MovePreconditionFailed,
    NonPure,
    NonPureResult,
    NotClosedPseudomanifold,
    NotProperSubcomplex,
    RidgeInThreeFacets,
    SigmaAlreadyFace,
    VertexNotPresent,
    VertexSetsOverlap,
)


class Simplex(tuple):
    """A face: strictly increasing tuple of positive integer vertex labels."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]) -> "Simplex":
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
        return tuple.__new__(cls, vs)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def __repr__(self) -> str:
        return f"Simplex({tuple(self)})"


_INT = frozenset((int,))


def _as_simplices(rows: Iterable[tuple[int, ...]]) -> tuple[Simplex, ...]:
    """A Simplex for each row, a strictly increasing tuple of valid labels,
    without checking it again."""
    return tuple(map(tuple.__new__, itertools.repeat(Simplex), rows))


class Complex:
    """A pure simplicial complex, identified with its canonical facet tuple.

    The vertices and three maps are derived on first use: the star map
    (vertex -> the facets through it), the ridge map (ridge -> the facets
    owning it, keyed facet by facet in ``itertools.combinations`` order) and
    the facet graph (facet -> the facets across its ridges in exactly two
    facets).  All three name a facet by the same plain tuple, the one stored
    in ``_facets`` and read by other modules as ``_facet_tuples``; only
    ``facets`` gives Simplex values, made on first read.  Queries for the
    facets containing a vertex or a face intersect vertex stars; the boundary,
    the pseudomanifold checks and the sphere screens read the ridge map and
    the facet graph, and ``_crowded_ridge`` names their bad ridge in the
    older order, by dropped vertex.  Readers must not mutate them.
    """

    __slots__ = (
        "_facets", "_simplices", "_stars", "_ridges", "_graph", "_vertices",
        "_vertex_set",
    )

    def __init__(self, facets: tuple[tuple[int, ...], ...], *, _canonical: bool = False):
        if not _canonical:
            raise TypeError("use from_facets() or the module operations")
        self._facets = facets
        self._simplices: tuple[Simplex, ...] | None = None
        self._stars: dict[int, set[tuple[int, ...]]] | None = None
        self._ridges: dict[tuple[int, ...], list[tuple[int, ...]]] | None = None
        self._graph: dict[tuple[int, ...], list[tuple[int, ...]]] | None = None
        self._vertices: tuple[int, ...] | None = None
        self._vertex_set: frozenset[int] | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[int, ...]]) -> "Complex":
        """The complex of rows, plain tuples of valid labels, each sorted."""
        # sorted, then deduplicated: sorted input then sorts in linear time
        facets = tuple(dict.fromkeys(sorted(rows)))
        if len(set(map(len, facets))) > 1:
            raise NonPure("facets of differing dimension")
        return cls(facets, _canonical=True)

    @classmethod
    def _from_vertex_sets(cls, vertex_sets: Iterable[Iterable[int]]) -> "Complex":
        return cls._from_rows(map(tuple, map(sorted, vertex_sets)))

    # -- basic queries ----------------------------------------------------------

    @property
    def facets(self) -> tuple[Simplex, ...]:
        if self._simplices is None:
            self._simplices = _as_simplices(self._facets)
        return self._simplices

    @property
    def _facet_tuples(self) -> tuple[tuple[int, ...], ...]:
        """The facets as stored: plain sorted tuples, in canonical order."""
        return self._facets

    @property
    def is_empty(self) -> bool:
        return not self._facets

    @property
    def dim(self) -> int:
        return len(self._facets[0]) - 1 if self._facets else -1

    @property
    def n_facets(self) -> int:
        return len(self._facets)

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted(set().union(*self._facets)))
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        if self._vertex_set is None:
            self._vertex_set = frozenset(self.vertices)
        return self._vertex_set

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _face_tuples(self, k: int) -> set[tuple[int, ...]]:
        """The faces with k >= 0 vertices as sorted tuples, in a fresh set.
        Facets are sorted, so distinct vertex combinations are distinct faces."""
        combos = map(itertools.combinations, self._facets, itertools.repeat(k))
        return set(itertools.chain.from_iterable(combos))

    def faces_of_size(self, k: int) -> frozenset[frozenset[int]]:
        """All faces with exactly k vertices, as frozensets."""
        if k < 0 or k > self.dim + 1:
            return frozenset()
        return frozenset(map(frozenset, self._face_tuples(k)))

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Face counts by size 1..dim + 1: the vertices, sizes 2..dim - 1 from
        the facets, from dimension 2 the ridge map (built and kept), the facets."""
        d = self.dim
        if d < 2:
            return (self.n_vertices, self.n_facets)[: d + 1]
        middle = (len(self._face_tuples(k)) for k in range(2, d))
        return (self.n_vertices, *middle, len(self._ridge_map()), self.n_facets)

    def has_face(self, face: Iterable[int]) -> bool:
        return bool(self._facets_containing(face))

    def _star_map(self) -> dict[int, set[tuple[int, ...]]]:
        """Vertex -> the facets through it."""
        if self._stars is None:
            self._stars = defaultdict(set)
            for f in self._facets:
                for u in f:
                    self._stars[u].add(f)
        return self._stars

    def _star(self, v: int) -> set[tuple[int, ...]]:
        """The facets through v; VertexNotPresent for a non-vertex."""
        star = self._star_map().get(v)
        if star is None:
            raise VertexNotPresent(f"vertex {v} not in the complex")
        return star

    def _facets_containing(self, face: Iterable[int]) -> set[tuple[int, ...]]:
        """The facets containing face: the intersection of its vertex stars,
        each step walking the smaller set.  Every facet for the empty face.
        The set is fresh, never a star, so callers may consume it."""
        star = self._star_map().get
        stars = [star(v) or set() for v in face]
        if not stars:
            return set(self._facets)
        return stars[0].intersection(*stars[1:])

    def _ridge_map(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Ridge -> owning facets, in facet order.  Ridges are sorted tuples,
        first met with the facets in canonical order, each facet's ridges in
        ``itertools.combinations`` order (``_crowded_ridge`` names one)."""
        if self._ridges is None:
            self._ridges = {}
            d = self.dim
            for f in self._facets:
                for r in itertools.combinations(f, d):
                    self._ridges.setdefault(r, []).append(f)
        return self._ridges

    def _facet_graph(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Facet -> the facets across its ridges that lie in exactly two facets."""
        if self._graph is None:
            self._graph = {f: [] for f in self._facets}
            for owners in self._ridge_map().values():
                if len(owners) == 2:
                    a, b = owners
                    self._graph[a].append(b)
                    self._graph[b].append(a)
        return self._graph

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Complex(empty)"
        return f"Complex(dim={self.dim}, facets={len(self._facets)})"


class PseudomanifoldReport(NamedTuple):
    is_pseudomanifold: bool
    closed: bool


class DualGraph:
    """Facet-adjacency graph: nodes are facets, edges join facets sharing a ridge."""

    __slots__ = ("nodes", "edges", "ridge_index", "_adj")

    def __init__(self, nodes, edges, ridge_index, adj):
        self.nodes: tuple[Simplex, ...] = nodes
        self.edges: tuple[tuple[Simplex, Simplex], ...] = edges
        self.ridge_index: dict[Simplex, tuple[Simplex, ...]] = ridge_index
        self._adj: dict[Simplex, tuple[Simplex, ...]] = adj

    def neighbors(self, facet: Simplex) -> tuple[Simplex, ...]:
        return self._adj[facet]

    def degree(self, facet: Simplex) -> int:
        return len(self._adj[facet])

    def max_ridge_multiplicity(self) -> int:
        if not self.ridge_index:
            return 0
        return max(len(owners) for owners in self.ridge_index.values())

    def is_connected(self) -> bool:
        return bool(self.nodes) and _is_connected(self._adj, set(self.nodes))

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.nodes) - 1


# ---------------------------------------------------------------------------
# construction and primitive operations
# ---------------------------------------------------------------------------


def from_facets(facet_list: Iterable[Iterable[int]]) -> Complex:
    """Build a pure complex from a facet list.

    Validates labels (positive integers, no duplicates inside a facet), that
    no facet is empty, and purity; duplicate facets collapse.  The facet
    order of the input is irrelevant: the result is canonical.  The first bad
    facet in input order is named, even before a later one that cannot be read.
    """
    rows: list[tuple] = []
    try:
        rows.extend(map(tuple, facet_list))
    except Exception:  # re-raised once the facets read before it are checked
        list(map(Simplex, rows))
        raise
    labels = list(itertools.chain.from_iterable(rows))
    # plain positive ints, distinct in each facet, pass in whole-list passes;
    # Simplex checks anything else one facet at a time, naming the first
    plain = _INT.issuperset(map(type, labels)) and (not labels or min(labels) > 0)
    facets = list(map(tuple, map(sorted, map(set, rows)))) if plain else []
    # a set drops a repeated label; without plain labels, labels is not empty
    if sum(map(len, facets)) != len(labels):
        facets = list(map(tuple, map(Simplex, rows)))
    if not facets:
        raise EmptyInput("a complex needs at least one facet")
    X = Complex._from_rows(facets)
    if not X._facets[0]:  # pure, so every facet is empty
        raise EmptyInput("a facet needs at least one vertex")
    return X


def link(X: Complex, v: int) -> Complex:
    """The link of vertex v: facets are sigma minus v over facets containing v."""
    star = X._star(v)
    if X.dim == 0:
        raise NonPureResult("link of a vertex in a 0-complex is empty")
    return Complex._from_rows(tuple([u for u in f if u != v]) for f in star)


def anti_star(X: Complex, v: int) -> Complex:
    """All faces avoiding v.  Must be pure of full dimension to be a Complex:
    no face f - v of a facet f through v may lie only in facets through v."""
    star = X._star(v)
    if len(star) == X.n_facets:
        raise NonPureResult(
            f"every facet contains {v}; the anti-star drops a dimension"
        )
    for f in sorted(star):
        rest = tuple(u for u in f if u != v)
        if all(v in g for g in X._facets_containing(rest)):
            raise NonPureResult(
                f"face {rest} is maximal in the anti-star "
                f"but has dimension {len(rest) - 1} < {X.dim}"
            )
    return Complex._from_rows(f for f in X._facets if v not in f)


def join(X: Complex, Y: Complex) -> Complex:
    """Simplicial join: facets are unions of facet pairs.  Vertex sets must be disjoint."""
    if X.is_empty or Y.is_empty:
        raise EmptyInput("join factors must be nonempty")
    overlap = X.vertex_set & Y.vertex_set
    if overlap:
        raise VertexSetsOverlap(f"factors share vertices {sorted(overlap)}")
    return Complex._from_vertex_sets(a + b for a in X._facets for b in Y._facets)


def complement(X: Complex, Y: Complex) -> Complex:
    """Facets of X that are not facets of Y; Y must be a proper facet subset."""
    if Y.is_empty or X.is_empty:
        raise NotProperSubcomplex("complement needs nonempty complexes")
    if Y.dim != X.dim:
        raise NotProperSubcomplex(
            f"dimension mismatch: {Y.dim} != {X.dim}"
        )
    drop = set(Y._facets)
    if not drop.issubset(X._facets):
        raise NotProperSubcomplex("some facet of the second complex is not a facet of the first")
    if len(drop) == X.n_facets:
        raise NotProperSubcomplex("the complexes are equal; the complement is empty")
    return Complex._from_rows(f for f in X._facets if f not in drop)


def _is_connected(
    adj: Mapping[tuple[int, ...], Iterable[tuple[int, ...]]],
    unseen: set[tuple[int, ...]],
) -> bool:
    """Whether the nonempty set of facets unseen is connected through its
    own members in adj.  It consumes unseen, so pass a set of your own."""
    stack = [unseen.pop()]
    while stack:
        for g in adj[stack.pop()]:
            if g in unseen:
                unseen.remove(g)
                stack.append(g)
    return not unseen


def _link_shape(
    cofacets: Collection[Iterable[int]], face: Collection[int], dim: int
) -> tuple[int, ...] | None:
    """The face B whose boundary is the link of A, or None.

    The cofacets of A are A * dB exactly when there are dim + 2 - |A| of them
    and they span dim + 2 vertices: each is A plus a different
    (|B| - 1)-subset of the |B| vertices outside A, and there are only |B|
    such subsets.  A facet's link {()} bounds every single vertex, so it
    names no B and gives None.
    """
    if len(cofacets) != dim + 2 - len(face):
        return None
    spanned = set().union(*cofacets)
    if len(spanned) != dim + 2:
        return None
    return tuple(sorted(spanned.difference(face)))


def _born(A: tuple[int, ...], B: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The facets of dA * B, which the move (A, B) adds."""
    return [tuple(sorted(A[:i] + A[i + 1 :] + B)) for i in range(len(A))]


def _flip(X: Complex, A: tuple[int, ...], B: tuple[int, ...]) -> Complex:
    """Replace the facets of A * dB by the facets of dA * B."""
    gone = X._facets_containing(A)
    keep = [f for f in X._facets if f not in gone]
    keep.extend(_born(A, B))
    return Complex._from_rows(keep)


def boundary(X: Complex) -> Complex:
    """Ridges lying in exactly one facet.  May be empty (closed input)."""
    if X.dim < 1:
        raise NonPure("boundary requires dimension >= 1")
    crowded = _crowded_ridge(X)
    if crowded is not None:
        raise RidgeInThreeFacets(crowded)
    ridges = X._ridge_map()
    return Complex._from_rows(r for r, owners in ridges.items() if len(owners) == 1)


def dual_graph(X: Complex) -> DualGraph:
    """Facet adjacency along shared ridges, with the ridge index."""
    ridges = X._ridge_map()
    typed = dict(zip(X._facets, X.facets))  # each stored facet -> its Simplex
    adj: dict[Simplex, set[Simplex]] = {f: set() for f in X.facets}
    edges: set[tuple[Simplex, Simplex]] = set()
    ridge_index: dict[Simplex, tuple[Simplex, ...]] = {}
    order = sorted(ridges)
    for r, ridge in zip(order, _as_simplices(order)):
        owner_facets = tuple(map(typed.__getitem__, ridges[r]))
        ridge_index[ridge] = owner_facets
        for a, b in itertools.combinations(owner_facets, 2):
            edges.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
    return DualGraph(
        X.facets,
        tuple(sorted(edges)),
        ridge_index,
        {f: tuple(sorted(adj[f])) for f in X.facets},
    )


def pseudomanifold_check(X: Complex) -> PseudomanifoldReport:
    """Every ridge in at most two facets and the dual graph connected; closed
    when every ridge is in exactly two."""
    if X.is_empty or _pm_failure(X) is not None:
        return PseudomanifoldReport(False, False)
    # no ridge has three owners, so closed when none has one
    return PseudomanifoldReport(True, min(map(len, X._ridge_map().values())) == 2)


def _crowded_ridge(X: Complex) -> str | None:
    """"ridge R lies in N facets" for the first ridge of the nonempty X in
    three or more facets, or None.  First by its first facet in canonical
    order, then by the earliest dropped vertex, which leaves the largest ridge."""
    ridges = X._ridge_map()
    if max(map(len, ridges.values())) < 3:
        return None
    crowded = [r for r, owners in ridges.items() if len(owners) > 2]
    first = min(ridges[r][0] for r in crowded)
    ridge = max(r for r in crowded if ridges[r][0] == first)
    return f"ridge {ridge} lies in {len(ridges[ridge])} facets"


def _pm_failure(X: Complex) -> str | None:
    """Why the nonempty X is not a pseudomanifold, or None: the ridge named
    by ``_crowded_ridge`` or, with none, a disconnected facet graph."""
    crowded = _crowded_ridge(X)
    if crowded is not None:
        return f"not a pseudomanifold: {crowded}"
    if not _is_connected(X._facet_graph(), set(X._facets)):
        return "not a pseudomanifold: the facet-adjacency graph is disconnected"
    return None


def euler_characteristic(X: Complex) -> int:
    return sum((-1) ** j * fj for j, fj in enumerate(X.f_vector))


def is_subcomplex(A: Complex, X: Complex) -> bool:
    """True when every facet of A is a face of X."""
    return all(X._facets_containing(a) for a in A._facets)


def one_point_suspension(X: Complex, u: int, v: int) -> Complex:
    """Cone the anti-star of u with u and cone all of X with a fresh vertex v.

    Requires X to be a pseudomanifold without boundary; u a vertex, v fresh.
    The result is one dimension higher, on vertex_set(X) plus v, and contains
    every subcomplex of X through u's side unchanged.
    """
    if not pseudomanifold_check(X).closed:
        raise NotClosedPseudomanifold(
            "one-point suspension needs a pseudomanifold without boundary"
        )
    X._star(u)  # refuses a non-vertex
    Simplex((v,))  # refuses a label that is not a positive int
    if v in X.vertex_set:
        raise FreshVertexCollision(f"vertex {v} is already present")
    ast = anti_star(X, u)
    new_facets = [f + (u,) for f in ast._facets]
    new_facets.extend(f + (v,) for f in X._facets)
    return Complex._from_vertex_sets(new_facets)


def bistellar_move(X: Complex, v: int, sigma: Iterable[int]) -> Complex:
    """Remove the star of v and fill with sigma; the inverse of a vertex split.

    Requires link(X, v) to equal the boundary of sigma and sigma itself not to
    be a face.  The result is a closed pseudomanifold on vertex_set(X) minus v.
    """
    sig = Simplex(sigma)
    if not pseudomanifold_check(X).closed:
        raise NotClosedPseudomanifold("bistellar moves need a closed pseudomanifold")
    star = X._star(v)
    # in dimension 0 the link {()} of v bounds every single vertex
    if not (X.dim == 0 and len(sig) == 1) and _link_shape(star, (v,), X.dim) != sig:
        raise LinkNotStandardSphere(
            f"link of {v} is not the boundary of {tuple(sig)}"
        )
    if X.has_face(sig):
        raise SigmaAlreadyFace(f"{tuple(sig)} is already a face")
    return _flip(X, (v,), sig)


def generalized_bistellar_move(
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
    if not pseudomanifold_check(X).closed:
        raise MovePreconditionFailed("moves need a closed pseudomanifold")
    if len(A) + len(B) != X.dim + 2:
        raise MovePreconditionFailed(
            f"|A| + |B| = {len(A) + len(B)} != dim + 2 = {X.dim + 2}"
        )
    if not A:
        raise MovePreconditionFailed("A must be a nonempty face")
    cofacets = X._facets_containing(A)
    if not cofacets:
        raise MovePreconditionFailed(f"{tuple(A)} is not a face")
    if X.has_face(B):
        raise MovePreconditionFailed(f"{tuple(B)} is already a face")
    # with |B| = 1 the face A is a facet, whose link {()} bounds every vertex
    if len(B) > 1 and _link_shape(cofacets, A, X.dim) != B:
        raise MovePreconditionFailed(
            f"link of {tuple(A)} is not the boundary of {tuple(B)}"
        )
    return _flip(X, A, B)
