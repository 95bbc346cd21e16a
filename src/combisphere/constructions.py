"""Completions: extend a sphere or ball to a sphere on the same vertex set.

Every operation returns a CompletionResult whose sphere contains the input as
a subcomplex and uses exactly the input's vertices.  Sphere completions raise
the dimension by one; ball completions keep it.  Inputs are re-certified by
default (trust=True skips); a refuted input raises, an unresolved
certification is noted in the trace and the construction proceeds.  The
certifications of one call share its budget: each may spend the moves the
earlier ones left, and none are left after an unresolved one.

All free choices default to the smallest available label so runs are
reproducible; explicit choices override.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import (
    Complex,
    anti_star,
    bistellar_move,
    boundary,
    complement,
    is_subcomplex,
    join,
    link,
    one_point_suspension,
    pseudomanifold_check,
)
from .errors import (
    DimensionTooLow,
    FactorJoinMismatch,
    FactorNotSphere,
    IntermediateClaimFailed,
    NoDegreeDVertex,
    NotBall,
    NotDisc,
    NotFlag,
    NotSphere,
    NotStackedBall,
    SigmaAlreadyFace,
    TooFewVertices,
    VertexNotPresent,
)
from .recognition import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    _check_budget,
    certify_ball,
    certify_sphere,
    collapse_stacked_sphere_to_ball,
    degree,
    is_flag,
    is_stacked_ball,
    is_standard,
)

if TYPE_CHECKING:
    from .polytopal import PointConfiguration


@dataclass(frozen=True)
class CompletionResult:
    """A completed sphere with its containment check and construction log."""

    sphere: Complex
    embedding_check: bool
    trace: tuple[str, ...]
    witness_points: "PointConfiguration | None" = None


def _union(X: Complex, Y: Complex) -> Complex:
    return Complex._from_rows(itertools.chain(X._facet_tuples, Y._facet_tuples))


def _cone(apex: int, X: Complex) -> Complex:
    return Complex._from_vertex_sets(f + (apex,) for f in X._facet_tuples)


def _finish(
    input_complex: Complex, sphere: Complex, trace: list[str]
) -> CompletionResult:
    if not is_subcomplex(input_complex, sphere):
        raise IntermediateClaimFailed("the completed sphere does not contain the input")
    if sphere.vertex_set != input_complex.vertex_set:
        raise IntermediateClaimFailed(
            "the completed sphere does not reuse exactly the input vertices"
        )
    trace.append(
        f"done: dim {sphere.dim}, {sphere.n_facets} facets on "
        f"{sphere.n_vertices} vertices"
    )
    return CompletionResult(sphere, True, tuple(trace))


def _suspend_and_finish(
    input_complex: Complex, T: Complex, u: int, v: int, trace: list[str]
) -> CompletionResult:
    """Finish with the one-point suspension of T over (u, v)."""
    sphere = one_point_suspension(T, u, v)
    trace.append(f"one-point suspension (u={u}, v={v})")
    return _finish(input_complex, sphere, trace)


_INPUT_CHECKS = {
    "sphere": (NotSphere, "certification"),
    "ball": (NotBall, "ball certification"),
    "disc": (NotDisc, "disc certification"),
}


def _certify(
    X: Complex, kind: str, budget: int, seed: int, trace: list[str],
    step: str, refusal: tuple[type[Exception], str],
) -> int:
    """Certify X as a sphere, or as a ball for any other kind, within budget:
    raise on a refutation, log the status after step, and return the moves
    left that a later certification may spend."""
    # named at call time: perfbench's tracer wraps module attributes, not table entries
    certify = certify_sphere if kind == "sphere" else certify_ball
    verdict = certify(X, budget, seed)
    if verdict.is_refuted:
        error, claim = refusal
        raise error(f"{claim}: {verdict.reason}")
    trace.append(f"{step} {verdict.status}")
    return budget - len(verdict.trace) if verdict.is_certified else 0


def _certify_input(
    X: Complex, kind: str, trust: bool, budget: int, seed: int, trace: list[str]
) -> int:
    """Certify X unless trusted, and return the moves left of budget."""
    _check_budget(budget)
    if trust:
        trace.append("input: certification skipped (trusted)")
        return budget
    error, label = _INPUT_CHECKS[kind]
    return _certify(X, kind, budget, seed, trace, f"input: {label}",
                    (error, f"input is not a {kind}"))


def _vertex_floor(n: int, d: int, what: str = "vertices") -> None:
    """Refuse a completion to dimension d on fewer than d + 2 vertices."""
    if n < d + 2:
        raise TooFewVertices(f"need at least {d + 2} {what}, have {n}")


def _degree_d_vertex(X: Complex, v: int | None, d: int) -> int:
    """v, or the smallest vertex of degree d when v is None; NoDegreeDVertex
    when v has another degree or no vertex has degree d."""
    if v is None:
        for cand in X.vertices:
            if degree(X, cand) == d:
                return cand
        raise NoDegreeDVertex(f"no vertex of degree {d}")
    found = degree(X, v)
    if found != d:
        raise NoDegreeDVertex(f"vertex {v} has degree {found} != {d}")
    return v


def _joined(*parts: Complex) -> Complex:
    """The join of the parts, taken left to right."""
    return functools.reduce(join, parts)


def _meet_inside(P: Complex, Q: Complex, R: Complex) -> bool:
    """Whether every face that P and Q share is a face of R.

    The shared faces are the subsets of the intersections p & q of a facet p
    of P and a facet q of Q, and R is closed under taking subsets, so it is
    enough that R has p & q for each pair that shares a vertex.  Those pairs
    are read off Q's vertex stars.
    """
    return all(
        R.has_face([u for u in q if u in p])
        for p in P._facet_tuples
        for q in set().union(*(Q._star_map().get(u, ()) for u in p))
    )


# ---------------------------------------------------------------------------
# sphere completions (output dimension = input dimension + 1)
# ---------------------------------------------------------------------------


def complete_join(
    S: Complex,
    factors: Sequence[Complex],
    v_choices: Sequence[int] | None = None,
    *,
    trust: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> CompletionResult:
    """Complete a join of at least two spheres.

    Cone the chosen vertex's anti-star inside the first factor and join with
    the remaining factors; do the same inside the second factor; the union of
    the two resulting balls is a sphere one dimension up, on the same
    vertices, containing the join.
    """
    _check_budget(budget)
    if len(factors) < 2:
        raise FactorJoinMismatch("need at least two join factors")
    trace: list[str] = []
    if _joined(*factors) != S:
        raise FactorJoinMismatch("the join of the factors does not equal the input")
    trace.append(f"verified input = join of {len(factors)} factors")
    if not trust:
        for i, f in enumerate(factors):
            budget = _certify(f, "sphere", budget, seed, trace,
                              f"factor {i}: certification",
                              (FactorNotSphere, f"factor {i} is not a sphere"))
    else:
        trace.append("factor certification skipped (trusted)")
    if v_choices is None:
        v_choices = [min(f.vertices) for f in factors]
    if len(v_choices) != len(factors):
        raise FactorJoinMismatch("one chosen vertex per factor is required")
    for vi, f in zip(v_choices, factors):
        if vi not in f.vertex_set:
            raise VertexNotPresent(f"chosen vertex {vi} is not in its factor")
    v1, v2 = v_choices[0], v_choices[1]
    b1 = _joined(_cone(v1, anti_star(factors[0], v1)), *factors[1:])
    b2 = _joined(factors[0], _cone(v2, anti_star(factors[1], v2)), *factors[2:])
    trace.append(
        f"coned vertex {v1} in factor 0 and vertex {v2} in factor 1; "
        f"union of the two balls"
    )
    sphere = _union(b1, b2)
    return _finish(S, sphere, trace)


def complete_degree_d(
    S: Complex,
    v: int | None = None,
    u: int | None = None,
    *,
    trust: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> CompletionResult:
    """Complete a sphere with a vertex of minimal degree.

    Collapse the degree-(dim+1) vertex v by a bistellar move, then suspend the
    smaller sphere over (u, v).  The suspension restores v, so the result
    contains the input.
    """
    trace: list[str] = []
    _certify_input(S, "sphere", trust, budget, seed, trace)
    d = S.dim + 1
    _vertex_floor(S.n_vertices, d)
    v = _degree_d_vertex(S, v, d)
    sigma = tuple(sorted(link(S, v).vertex_set))
    try:
        collapsed = bistellar_move(S, v, sigma)
    except SigmaAlreadyFace as exc:
        raise IntermediateClaimFailed(
            f"collapse target {sigma} is already a face"
        ) from exc
    trace.append(f"collapsed vertex {v} onto {sigma}")
    if u is None:
        u = min(collapsed.vertices)
    return _suspend_and_finish(S, collapsed, u, v, trace)


def complete_flag(
    S: Complex,
    v: int | None = None,
    u: int | None = None,
    *,
    trust: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> CompletionResult:
    """Complete a flag sphere.

    Glue the anti-star of v to a cone over the anti-star of u inside the link
    of v.  Flagness makes the two balls meet exactly along that link, so the
    union is a sphere of the same dimension missing v; suspending over (u, v)
    finishes the job.
    """
    trace: list[str] = []
    budget = _certify_input(S, "sphere", trust, budget, seed, trace)
    if not is_flag(S):
        raise NotFlag("input is not a flag sphere")
    if v is None:
        v = min(S.vertices)
    L = link(S, v)
    if u is None:
        u = min(L.vertices)
    if u not in L.vertex_set:
        raise VertexNotPresent(f"vertex {u} is not adjacent to {v}")
    d2 = anti_star(S, v)
    d3 = _cone(u, anti_star(L, u))
    if not (is_subcomplex(L, d2) and is_subcomplex(L, d3)):
        raise IntermediateClaimFailed("the link of v is not contained in both balls")
    if not _meet_inside(d3, d2, L):
        raise IntermediateClaimFailed(
            "the two balls meet outside the link of v; flagness violated"
        )
    trace.append(f"verified ball intersection equals the link of {v}")
    s2 = _union(d2, d3)
    _certify(s2, "sphere", budget, seed, trace,
             f"glued sphere without {v}: certification",
             (IntermediateClaimFailed, "the glued complex is not a sphere"))
    return _suspend_and_finish(S, s2, u, v, trace)


# ---------------------------------------------------------------------------
# stacked completions
# ---------------------------------------------------------------------------


def complete_stacked_ball(B: Complex) -> CompletionResult:
    """Boundary of the cone over everything but the last glued facet.

    The stacking witness is exact (dual tree plus vertex count), so no
    separate certification is needed.  The last facet's apex is the cone
    vertex; the input sits inside the resulting stacked sphere of the same
    dimension.
    """
    report = is_stacked_ball(B)
    if not report.stacked:
        raise NotStackedBall(report.reason)
    d = B.dim
    if d < 2:
        raise DimensionTooLow("needs dimension >= 2")
    _vertex_floor(B.n_vertices, d)
    witness = report.witness
    assert witness is not None
    last = witness.facets[-1]
    apex = witness.attachments[-1][1]
    trace = [
        f"stacking witness with {len(witness.facets)} facets; "
        f"last facet {tuple(last)} has fresh apex {apex}"
    ]
    rest = complement(B, Complex._from_rows([tuple(last)]))
    coned = _cone(apex, rest)
    inner = is_stacked_ball(coned)
    if not inner.stacked:
        raise IntermediateClaimFailed(
            f"cone over the peeled ball is not stacked: {inner.reason}"
        )
    trace.append(f"coned the peeled ball with {apex}; cone is stacked")
    sphere = boundary(coned)
    return _finish(B, sphere, trace)


def complete_stacked_sphere(S: Complex) -> CompletionResult:
    """Collapse the stacked sphere to a ball it bounds, then complete the ball."""
    ball = collapse_stacked_sphere_to_ball(S)
    _vertex_floor(S.n_vertices, S.dim + 1)
    trace = [
        f"collapsed to a stacked {ball.dim}-ball with {ball.n_facets} facets"
    ]
    inner = complete_stacked_ball(ball)
    trace.extend(inner.trace[:-1])
    return _finish(S, inner.sphere, trace)


def sphere_chain(X: Complex) -> list[Complex]:
    """Iterate complete_stacked_sphere up to the standard sphere on all vertices.

    Returns the chain starting at X itself; each element contains the previous
    one and the last has dimension n - 2.  The loop ends: each step raises
    the dimension by one on the same n vertices, and a closed pseudomanifold
    of dimension n - 2 on n vertices is the boundary of the simplex.
    """
    chain: list[Complex] = [X]
    while not is_standard(chain[-1]).sphere:
        chain.append(complete_stacked_sphere(chain[-1]).sphere)
    return chain


# ---------------------------------------------------------------------------
# ball completions (output dimension = input dimension)
# ---------------------------------------------------------------------------


def complete_ball_degree_d(
    B: Complex,
    u: int | None = None,
    *,
    trust: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> CompletionResult:
    """Complete a ball with a boundary vertex of minimal degree.

    u of degree dim has a single-facet link, so its link inside the boundary
    sphere is a standard sphere; coning u over its boundary anti-star yields a
    second ball meeting B exactly in the boundary, and the union is a sphere
    of the same dimension on the same vertices.
    """
    trace: list[str] = []
    _certify_input(B, "ball", trust, budget, seed, trace)
    d = B.dim
    _vertex_floor(B.n_vertices, d)
    u = _degree_d_vertex(B, u, d)
    # u has exactly d neighbours and every facet through u holds d of them,
    # so u lies only in the facet u * tau.  Each ridge of it through u has
    # one owner, so u is on the boundary and its boundary link is dtau
    (tau,) = link(B, u)._facet_tuples
    M = boundary(B)
    trace.append(
        f"vertex {u} has degree {d}; boundary link is the boundary of {tau}"
    )
    cap = _cone(u, anti_star(M, u))
    if not _meet_inside(cap, B, M):
        raise IntermediateClaimFailed("cap and ball meet outside the boundary")
    trace.append("verified cap intersects the ball exactly in the boundary")
    sphere = _union(B, cap)
    return _finish(B, sphere, trace)


def complete_disc(
    B: Complex,
    *,
    trust: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> CompletionResult:
    """Fill ears of a 2-ball until its boundary is a triangle, then cap it.

    Each fill picks the first boundary position (cycle labeled from its
    smallest vertex toward that vertex's smaller neighbor) whose skip pair is
    a non-edge; the boundary cycle shrinks by exactly one vertex per step.
    A fill takes the middle vertex off the boundary, so no ear can be the
    final triangle, and its skip pair stays adjacent on the cycle, so only
    the edges of B are ever tested.  The sphere is built once, at the end.
    """
    if B.dim != 2:
        raise NotDisc(f"dimension {B.dim} != 2")
    _vertex_floor(B.n_vertices, 2)
    trace: list[str] = []
    _certify_input(B, "disc", trust, budget, seed, trace)
    cycle = _boundary_cycle(B)
    filled: list[tuple[int, ...]] = []
    while len(cycle) > 3:
        m = len(cycle)
        for i in range(m):
            prev, here, nxt = cycle[i - 1], cycle[i], cycle[(i + 1) % m]
            if not B.has_face((prev, nxt)):
                break
        else:
            raise IntermediateClaimFailed(
                "every skip pair on the boundary is an edge; cannot fill an ear"
            )
        filled.append((prev, here, nxt))
        trace.append(
            f"filled ear at {here} with ({prev},{here},{nxt}); boundary {m} -> {m - 1}"
        )
        cycle = _rooted(cycle[:i] + cycle[i + 1 :])
    cap = tuple(sorted(cycle))
    if B.has_face(cap):
        raise IntermediateClaimFailed(f"boundary triangle {cap} is already a face")
    trace.append(f"capped the final triangle {cap}")
    sphere = Complex._from_vertex_sets([*B._facet_tuples, *filled, cap])
    final = certify_sphere(sphere, 0, seed)  # exact in dimension 2, so no moves
    if not final.is_certified:
        raise IntermediateClaimFailed(f"filled disc is not a 2-sphere: {final.reason}")
    return _finish(B, sphere, trace)


def _rooted(cycle: list[int]) -> list[int]:
    """The vertex cycle from its smallest vertex toward that vertex's smaller
    neighbor."""
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    return cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]


def _boundary_cycle(D: Complex) -> list[int]:
    """Boundary of a disc as a vertex cycle, canonically rooted and oriented."""
    bd = boundary(D)
    # a closed connected 1-pseudomanifold is one cycle
    if not pseudomanifold_check(bd).closed:
        raise IntermediateClaimFailed("boundary is not a single cycle")
    start = bd.vertices[0]
    cycle = [start, min(set().union(*bd._star(start)) - {start})]
    while True:
        (nxt,) = set().union(*bd._star(cycle[-1])) - {cycle[-2], cycle[-1]}
        if nxt == start:
            return cycle
        cycle.append(nxt)
