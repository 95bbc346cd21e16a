"""The fixed public surface: exported names and the exception hierarchy.

Simplifications behind the API may move code between modules, but every
name below must stay importable from ``combisphere`` and every exception
class must keep its name and base.
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combisphere
from combisphere import (
    Simplex,
    anti_star,
    bistellar_move,
    boundary,
    collapse_stacked_sphere_to_ball,
    complement,
    complete_flag,
    complete_join,
    complete_stacked_ball,
    complete_stacked_sphere,
    convex_hull,
    dual_graph,
    errors,
    from_facets,
    generalized_bistellar_move,
    get,
    is_stacked_ball,
    join,
    link,
    one_point_suspension,
    perturb_to_general_position,
    polytopal_complete,
)
from helpers import octahedron_points, random_stacked_ball, random_stacked_sphere

PUBLIC_NAMES = [
    "Complex",
    "CompletionResult",
    "ComplexError",
    "DualGraph",
    "GeometryError",
    "HullFacet",
    "HullResult",
    "NamedExample",
    "PointConfiguration",
    "PseudomanifoldReport",
    "Simplex",
    "StackedBallReport",
    "StackingSequence",
    "UnknownName",
    "Verdict",
    "anti_star",
    "available",
    "bistellar_move",
    "boundary",
    "certify_ball",
    "certify_sphere",
    "collapse_stacked_sphere_to_ball",
    "complement",
    "complete_ball_degree_d",
    "complete_degree_d",
    "complete_disc",
    "complete_flag",
    "complete_join",
    "complete_stacked_ball",
    "complete_stacked_sphere",
    "convex_hull",
    "degree",
    "dual_graph",
    "euler_characteristic",
    "from_facets",
    "general_position_check",
    "generalized_bistellar_move",
    "get",
    "is_flag",
    "is_stacked_ball",
    "is_standard",
    "is_subcomplex",
    "join",
    "link",
    "one_point_suspension",
    "perturb_to_general_position",
    "polytopal_complete",
    "pseudomanifold_check",
    "sphere_chain",
]

ERROR_BASES = {
    "ComplexError": "ValueError",
    "EmptyInput": "ComplexError",
    "NonPure": "ComplexError",
    "DuplicateVertexInFacet": "ComplexError",
    "InvalidVertexLabel": "ComplexError",
    "VertexNotPresent": "ComplexError",
    "NonPureResult": "ComplexError",
    "VertexSetsOverlap": "ComplexError",
    "NotProperSubcomplex": "ComplexError",
    "RidgeInThreeFacets": "ComplexError",
    "FreshVertexCollision": "ComplexError",
    "NotClosedPseudomanifold": "ComplexError",
    "LinkNotStandardSphere": "ComplexError",
    "SigmaAlreadyFace": "ComplexError",
    "MovePreconditionFailed": "ComplexError",
    "NotSphere": "ComplexError",
    "NotBall": "ComplexError",
    "NotStacked": "ComplexError",
    "NotStackedBall": "ComplexError",
    "FactorJoinMismatch": "ComplexError",
    "FactorNotSphere": "ComplexError",
    "NoDegreeDVertex": "ComplexError",
    "TooFewVertices": "ComplexError",
    "DimensionTooLow": "ComplexError",
    "NotFlag": "ComplexError",
    "NotDisc": "ComplexError",
    "IntermediateClaimFailed": "ComplexError",
    "GeometryError": "ValueError",
    "TooFewPoints": "GeometryError",
    "DegenerateSpan": "GeometryError",
    "NotSimplicial": "GeometryError",
    "NotGeneralPosition": "GeometryError",
    "PerturbationBudgetExhausted": "GeometryError",
    "UnknownName": "KeyError",
}


def test_all_is_pinned():
    assert combisphere.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(combisphere, name) is not None, name


def test_error_classes_and_bases_are_pinned():
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__
    }
    assert {name: cls.__bases__[0].__name__ for name, cls in classes.items()} == (
        ERROR_BASES
    )
    assert all(len(cls.__bases__) == 1 for cls in classes.values())


# ---------------------------------------------------------------------------
# every face in a public value is a Simplex
# ---------------------------------------------------------------------------


def _all_simplices(faces) -> bool:
    faces = list(faces)
    return bool(faces) and all(type(f) is Simplex for f in faces)


def _check_complex(X) -> None:
    assert _all_simplices(X.facets)
    assert X.facets is X.facets  # built once, on first read
    # the same facet set read back through the public constructor
    again = from_facets(X.facets)
    assert again == X and hash(again) == hash(X)
    assert again.facets == X.facets


def _check_dual_graph(X) -> None:
    g = dual_graph(X)
    assert _all_simplices(g.nodes)
    assert g.nodes == X.facets
    for a, b in g.edges:
        assert type(a) is Simplex and type(b) is Simplex
    assert _all_simplices(g.ridge_index)
    for owners in g.ridge_index.values():
        assert _all_simplices(owners)
    for f in g.nodes:
        assert all(type(n) is Simplex for n in g.neighbors(f))


def _check_witness(report) -> None:
    assert report.stacked
    w = report.witness
    assert _all_simplices(w.facets)
    ridges = [ridge for ridge, _ in w.attachments]
    assert all(type(r) is Simplex for r in ridges)
    assert all(type(apex) is int for _, apex in w.attachments)


class TestPublicFacesAreSimplices:
    """Complexes store plain tuples; what the library hands out is Simplex."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_stacked_balls_and_spheres(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        B = random_stacked_ball(rng, d, rng.randint(d + 2, d + 8))
        S = random_stacked_sphere(rng, d, rng.randint(d + 3, d + 8))
        for X in (B, S, boundary(B), link(S, S.vertices[0]), anti_star(S, S.vertices[-1])):
            _check_complex(X)
            _check_dual_graph(X)
        _check_witness(is_stacked_ball(B))
        _check_witness(is_stacked_ball(collapse_stacked_sphere_to_ball(S)))
        if d >= 2:
            _check_complex(complete_stacked_ball(B).sphere)
        _check_complex(complete_stacked_sphere(S).sphere)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cross_polytopes_and_joins(self, k):
        X = get(f"cross_polytope({k})").complex
        top = max(X.vertices)
        C = from_facets([(top + 1, top + 2), (top + 2, top + 3), (top + 1, top + 3)])
        J = join(X, C)
        for Y in (X, J, one_point_suspension(X, 1, top + 1),
                  complement(X, from_facets([X.facets[0]]))):
            _check_complex(Y)
            _check_dual_graph(Y)
        _check_complex(complete_flag(X).sphere)
        _check_complex(complete_join(J, [X, C]).sphere)
        A, B = X.facets[0], (top + 4,)
        subdivided = generalized_bistellar_move(X, A, B)
        _check_complex(subdivided)
        _check_complex(bistellar_move(subdivided, top + 4, A))
        # the same facet set built by the public constructor and by two moves
        assert generalized_bistellar_move(subdivided, B, A) == X

    @pytest.mark.parametrize("points", [
        lambda: perturb_to_general_position(
            octahedron_points(), get("octahedron").complex, seed=0
        ),
        lambda: get("cyclic_polytope_points(7,3)").points,
        lambda: get("cyclic_polytope_points(8,4)").points,
    ], ids=["octahedron", "cyclic(7,3)", "cyclic(8,4)"])
    def test_hulls(self, points):
        hull = convex_hull(points())
        assert _all_simplices(f.vertices for f in hull.facets)
        _check_complex(hull.boundary_complex)
        _check_complex(polytopal_complete(points()).sphere)

    def test_a_link_and_a_boundary_of_one_facet_set_are_equal(self):
        L = link(boundary(from_facets([(1, 2, 3, 4, 5)])), 5)
        bd = boundary(from_facets([(1, 2, 3, 4)]))
        assert L == bd and hash(L) == hash(bd)
        assert L.facets == bd.facets and _all_simplices(L.facets + bd.facets)
