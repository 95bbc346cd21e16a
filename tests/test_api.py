"""The fixed public surface: exported names and the exception hierarchy.

Simplifications behind the API may move code between modules, but every
name below must stay importable from ``combisphere`` and every exception
class must keep its name and base.
"""

import inspect

import combisphere
from combisphere import errors

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
