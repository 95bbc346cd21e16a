"""Exception hierarchy.

Everything combinatorial derives from ComplexError (a ValueError), everything
coordinate-geometric from GeometryError.  Callers that do not care about the
precise failure can catch the base classes; tests pin the exact types.
"""

from __future__ import annotations


class ComplexError(ValueError):
    """Base class for errors raised by combinatorial operations."""


# --- construction / validation ---------------------------------------------

class EmptyInput(ComplexError):
    """No facets, or a facet with no vertices, were supplied."""


class NonPure(ComplexError):
    """Facets of differing dimension."""


class DuplicateVertexInFacet(ComplexError):
    """A facet lists the same vertex twice."""


class InvalidVertexLabel(ComplexError):
    """Vertex labels must be positive integers."""


# --- operation preconditions ------------------------------------------------

class VertexNotPresent(ComplexError):
    """The named vertex is not a vertex of the complex."""


class NonPureResult(ComplexError):
    """The anti-star is not pure of full dimension."""


class VertexSetsOverlap(ComplexError):
    """Join factors must have disjoint vertex sets."""


class NotProperSubcomplex(ComplexError):
    """Complement requires a proper, pure, same-dimension facet subset."""


class RidgeInThreeFacets(ComplexError):
    """A ridge lies in three or more facets; boundary is undefined."""


class FreshVertexCollision(ComplexError):
    """The suspension vertex must be fresh (not already a vertex)."""


class NotClosedPseudomanifold(ComplexError):
    """The operation needs a pseudomanifold without boundary."""


class LinkNotStandardSphere(ComplexError):
    """The vertex link is not the boundary of the given simplex."""


class SigmaAlreadyFace(ComplexError):
    """The target simplex of a bistellar move is already a face."""


class MovePreconditionFailed(ComplexError):
    """A generalized bistellar move precondition does not hold."""


# --- recognition / constructions --------------------------------------------

class NotSphere(ComplexError):
    """Input re-certification refuted the claimed sphere."""


class NotBall(ComplexError):
    """Input re-certification refuted the claimed ball."""


class NotStacked(ComplexError):
    """The sphere has no collapsible vertex and is not standard."""


class NotStackedBall(ComplexError):
    """The ball fails the stacked criterion (dual tree + vertex count)."""


class FactorJoinMismatch(ComplexError):
    """The join of the given factors does not equal the input complex."""


class FactorNotSphere(ComplexError):
    """A join factor failed sphere certification."""


class NoDegreeDVertex(ComplexError):
    """No vertex of the required minimal degree exists."""


class TooFewVertices(ComplexError):
    """The construction needs at least d + 2 vertices."""


class DimensionTooLow(ComplexError):
    """The construction is not defined in this dimension."""


class NotFlag(ComplexError):
    """The complex is not a flag sphere."""


class NotDisc(ComplexError):
    """The complex is not a combinatorial 2-ball."""


class IntermediateClaimFailed(ComplexError):
    """A verified intermediate claim of a construction does not hold."""


# --- exact geometry -----------------------------------------------------------

class GeometryError(ValueError):
    """Base class for errors raised by exact-coordinate operations."""


class TooFewPoints(GeometryError):
    """Fewer than d + 1 points."""


class DegenerateSpan(GeometryError):
    """The points do not affinely span the ambient space, or the space has
    dimension 0, where a hull has no boundary."""


class NotSimplicial(GeometryError):
    """The hull has a non-simplicial facet (general position violated)."""


class NotGeneralPosition(GeometryError):
    """The configuration is not in general position."""


class PerturbationBudgetExhausted(GeometryError):
    """No acceptable displacement was found within the attempt budget."""


# --- catalog -------------------------------------------------------------------

class UnknownName(KeyError):
    """The catalog has no entry with that name."""
