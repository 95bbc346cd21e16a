import enum
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combisphere import (
    Complex,
    Simplex,
    anti_star,
    bistellar_move,
    boundary,
    complement,
    degree,
    dual_graph,
    euler_characteristic,
    from_facets,
    generalized_bistellar_move,
    get,
    is_subcomplex,
    join,
    link,
    one_point_suspension,
    pseudomanifold_check,
)
from combisphere.core import _pm_failure
from combisphere.errors import (
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
from helpers import (
    _reference_reduction_moves,
    face_polynomial,
    moebius_torus,
    poly_mul,
    random_closed_pseudomanifold,
    random_disc,
    random_stacked_ball,
    random_stacked_sphere,
    record_ridge_map_builds,
    reference_anti_star,
    reference_bistellar_move,
    reference_boundary,
    reference_complement,
    reference_degree,
    reference_dual_graph,
    reference_dual_graph_is_connected,
    reference_from_facets,
    reference_generalized_bistellar_move,
    reference_has_face,
    reference_is_subcomplex,
    reference_link,
    reference_pm_failure_reason,
    reference_pseudomanifold_check,
    reference_simplex,
)


class _Label(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    NINE = 9


# label soups: plain ints (zero, negative and past 64 bits included), and
# labels that are not plain ints, some equal to one
_INTS = st.one_of(st.integers(-2, 9), st.integers(2**64, 2**64 + 3),
                  st.integers(max_value=-(2**64)))
_NOT_INTS = st.one_of(
    st.booleans(), st.integers(0, 9).map(float), st.sampled_from(["1", "x", ""]),
    st.none(), st.sampled_from(list(_Label)),
)
_SOUPS = st.one_of(st.lists(_INTS, max_size=7),
                   st.lists(st.one_of(_INTS, _NOT_INTS), max_size=7))


def _typed_outcome(call, *args):
    """(type, value, element types) of the result, or (class, message).  The
    value of a Complex is its facets, and their labels' types are compared."""
    try:
        result = call(*args)
    except Exception as exc:  # compared in full below
        return type(exc), str(exc)
    if isinstance(result, Complex):
        facets = result.facets
        return type(result), facets, tuple(tuple(map(type, f)) for f in facets)
    return type(result), tuple(result), tuple(map(type, result))


def _readings(case):
    """The facet list of a drawn case, read fresh: its facets as lists,
    tuples or generators, inside a list or a generator."""
    facets, kinds, outer = case
    read = [f if kind is None else kind(f) for f, kind in zip(facets, kinds)]
    return iter(read) if outer is iter else read


@st.composite
def facet_cases(draw):
    """Facet lists that mix valid facets of one width with ragged, repeating,
    empty and badly labelled ones, in drawn, canonical, reversed or shuffled
    order, maybe with a facet that cannot be read."""
    width = draw(st.integers(0, 4))
    valid = st.lists(st.integers(1, 8), min_size=width, max_size=width, unique=True)
    facets = draw(st.lists(valid, max_size=8))
    for _ in range(draw(st.integers(0, 2))):  # ragged or badly labelled ones
        spoiled = draw(st.one_of(st.lists(st.integers(1, 8), max_size=5), _SOUPS))
        facets.insert(draw(st.integers(0, len(facets))), spoiled)
    order = draw(st.sampled_from(["drawn", "canonical", "reversed", "shuffled"]))
    if order == "canonical" and all(type(v) is int for f in facets for v in f):
        facets = sorted(map(sorted, facets))
    elif order == "reversed":
        facets = facets[::-1]
    elif order == "shuffled":
        facets = draw(st.permutations(facets))
    facets = list(facets)
    facets += draw(st.lists(st.sampled_from(facets), max_size=2)) if facets else []
    kinds = draw(st.lists(st.sampled_from([list, tuple, iter]),
                          min_size=len(facets), max_size=len(facets)))
    if draw(st.integers(0, 3)) == 0:  # a facet that cannot be read, read as is
        at = draw(st.integers(0, len(facets)))
        facets.insert(at, draw(st.sampled_from([5, None, 1.5])))
        kinds.insert(at, None)
    return facets, kinds, draw(st.sampled_from([list, iter]))


class TestSimplex:
    @settings(max_examples=600, deadline=None)
    @given(labels=_SOUPS, as_generator=st.booleans())
    @example(labels=[0, -1], as_generator=False)
    @example(labels=[3, 0, 3], as_generator=False)
    @example(labels=[5, 3, 5, 1], as_generator=True)
    @example(labels=[_Label.TWO, 1], as_generator=False)
    @example(labels=[1, _Label.ZERO], as_generator=False)
    @example(labels=[2, 2.0], as_generator=False)
    @example(labels=[True, 2], as_generator=False)
    @example(labels=[], as_generator=True)
    def test_matches_the_two_pass_reference(self, labels, as_generator):
        source = (lambda: iter(labels)) if as_generator else (lambda: list(labels))
        assert _typed_outcome(Simplex, source()) == _typed_outcome(
            reference_simplex, source()
        )

    def test_sorts_vertices(self):
        assert Simplex((3, 1, 2)) == (1, 2, 3)
        assert Simplex((3, 1, 2)).dim == 2

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateVertexInFacet):
            Simplex((1, 2, 2))

    @pytest.mark.parametrize("bad", [0, -1, "2", 1.5, True])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(InvalidVertexLabel):
            Simplex((1, bad) if bad != 1 else (bad,))

    def test_repr_names_the_sorted_labels(self):
        assert repr(Simplex((3, 1, 2))) == "Simplex((1, 2, 3))"


class TestComplexConstruction:
    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            from_facets([])

    def test_empty_facet_rejected(self):
        for facets in ([()], [(), ()]):
            with pytest.raises(EmptyInput, match="a facet needs at least one vertex"):
                from_facets(facets)
        # beside a nonempty facet, an empty one has another dimension
        for facets in ([(1, 2), ()], [(), (1,)]):
            with pytest.raises(NonPure):
                from_facets(facets)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(NonPure):
            from_facets([(1, 2, 3), (4, 5)])

    @pytest.mark.parametrize("facets, error, message", [
        ([(1, 2), (0, 3), (4, 4), (5, "6")], InvalidVertexLabel,
         "vertex labels must be positive integers, got 0"),
        ([(1, 2), (4, 3, 4), (0, 3), (1, 1)], DuplicateVertexInFacet,
         "duplicate vertex 4 in facet [3, 4, 4]"),
        ([(2, 1), (3, 2.0), (True,)], InvalidVertexLabel,
         "vertex labels must be positive integers, got 2.0"),
    ])
    def test_the_first_bad_facet_is_named(self, facets, error, message):
        with pytest.raises(error) as exc:
            from_facets(facets)
        assert str(exc.value) == message

    @settings(max_examples=600, deadline=None)
    @given(case=facet_cases())
    # generator facets, the second with label 0, before one that is not iterable
    @example(case=([[2, 1], [1, 0], 5], [iter, iter, None], iter))
    @example(case=([[1, 0], 5, [True]], [list, None, list], list))
    # IntEnum labels equal to plain ones: the first facet read is kept
    @example(case=([[_Label.TWO, 1], [1, 2], [_Label.NINE, 3]], [list] * 3, list))
    @example(case=([[1, 2], [_Label.ONE, _Label.TWO]], [iter, tuple], iter))
    @example(case=([[True, 2], [0, 2], [-1, 2]], [list] * 3, list))
    @example(case=([[3, 1, 3], [2, 2]], [tuple, list], list))
    @example(case=([[], [1, 2], []], [list] * 3, list))
    @example(case=([[], []], [iter, list], iter))
    @example(case=([[2, 3], [1, 2], [2, 3], [1, 3]], [list] * 4, list))
    @example(case=([], [], iter))
    def test_matches_the_one_facet_at_a_time_reference(self, case):
        assert _typed_outcome(from_facets, _readings(case)) == _typed_outcome(
            reference_from_facets, _readings(case)
        )

    def test_duplicates_collapse(self):
        X = from_facets([(2, 1), (1, 2)])
        assert X.n_facets == 1

    def test_canonical_facet_order(self):
        X = from_facets([(2, 3), (1, 2), (1, 3)])
        assert X.facets == ((1, 2), (1, 3), (2, 3))

    def test_direct_constructor_guard(self):
        with pytest.raises(TypeError):
            Complex((Simplex((1, 2)),))

    def test_equality_ignores_input_order(self):
        a = from_facets([(1, 2), (2, 3)])
        b = from_facets([(3, 2), (2, 1)])
        assert a == b and hash(a) == hash(b)

    def test_a_complex_never_equals_its_facet_tuple(self):
        X = from_facets([(1, 2), (2, 3)])
        assert X.__eq__(X.facets) is NotImplemented
        assert X != X.facets and X != ((1, 2), (2, 3))

    def test_repr(self):
        assert repr(from_facets([(1, 2, 3), (2, 3, 4)])) == "Complex(dim=2, facets=2)"
        assert repr(boundary(get("octahedron").complex)) == "Complex(empty)"

    def test_basic_queries(self):
        X = from_facets([(1, 2, 3), (2, 3, 4)])
        assert X.dim == 2
        assert X.vertices == (1, 2, 3, 4)
        assert X.n_vertices == 4
        assert X.f_vector == (4, 5, 2)
        assert X.has_face((2, 3)) and X.has_face((4,))
        assert not X.has_face((1, 4))
        assert not X.is_empty
        assert X.faces_of_size(-1) == X.faces_of_size(X.dim + 2) == frozenset()


class TestLink:
    def test_m38_link_of_8_matches_printed_triangles(self):
        m38 = get("gs_m38").complex
        expected = from_facets(
            [(1, 5, 7), (1, 5, 6), (3, 5, 6), (2, 3, 5), (2, 4, 5),
             (4, 5, 7), (1, 4, 7), (1, 2, 4), (1, 2, 6), (2, 3, 6)]
        )
        assert link(m38, 8) == expected

    def test_vertex_absent(self):
        with pytest.raises(VertexNotPresent, match="^vertex 9 not in the complex$"):
            link(from_facets([(1, 2)]), 9)

    def test_link_in_points_is_degenerate(self):
        with pytest.raises(NonPureResult):
            link(from_facets([(1,), (2,)]), 1)

    def test_link_in_edge(self):
        assert link(from_facets([(1, 2)]), 1) == from_facets([(2,)])


class TestAntiStar:
    def test_octahedron(self):
        octa = get("octahedron").complex
        assert anti_star(octa, 1) == from_facets(
            [(2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6)]
        )

    def test_m38_anti_star_is_ball_d(self):
        assert anti_star(get("gs_m38").complex, 8) == get("gs_ball_D").complex

    def test_single_facet_drops_dimension(self):
        with pytest.raises(NonPureResult):
            anti_star(from_facets([(1, 2, 3)]), 1)

    def test_vertex_absent(self):
        with pytest.raises(VertexNotPresent, match="^vertex 7 not in the complex$"):
            anti_star(get("octahedron").complex, 7)


class TestJoin:
    def test_two_point_spheres_make_a_cycle(self):
        a = from_facets([(1,), (2,)])
        b = from_facets([(3,), (4,)])
        assert join(a, b) == from_facets([(1, 3), (1, 4), (2, 3), (2, 4)])

    def test_overlapping_vertices_rejected(self):
        with pytest.raises(VertexSetsOverlap):
            join(from_facets([(1, 2)]), from_facets([(2, 3)]))

    def test_empty_factor_rejected(self):
        empty, cycle = boundary(get("octahedron").complex), get("cycle(4)").complex
        for factors in ((empty, cycle), (cycle, empty)):
            with pytest.raises(EmptyInput, match="^join factors must be nonempty$"):
                join(*factors)

    def test_face_polynomial_is_multiplicative_sampled(self):
        rng = random.Random(7)
        for _ in range(20):
            X = random_stacked_sphere(rng, rng.randint(1, 2), rng.randint(4, 7))
            shift = max(X.vertices)
            k = rng.randint(3, 5)
            Y = from_facets(
                [(shift + i, shift + i % k + 1) for i in range(1, k + 1)]
            )
            left = face_polynomial([tuple(f) for f in join(X, Y).facets])
            right = poly_mul(
                face_polynomial([tuple(f) for f in X.facets]),
                face_polynomial([tuple(f) for f in Y.facets]),
            )
            assert left == right


class TestComplement:
    def test_m38_minus_ball_d_is_star_of_8(self):
        m38 = get("gs_m38").complex
        D = get("gs_ball_D").complex
        rest = complement(m38, D)
        assert rest.n_facets == 10
        assert all(8 in f for f in rest.facets)

    def test_equal_complex_rejected(self):
        X = from_facets([(1, 2, 3)])
        with pytest.raises(NotProperSubcomplex):
            complement(X, X)

    def test_non_subcomplex_rejected(self):
        with pytest.raises(NotProperSubcomplex):
            complement(from_facets([(1, 2, 3), (2, 3, 4)]), from_facets([(1, 2, 4)]))


class TestBoundary:
    def test_gs_balls_share_boundary(self):
        C = get("gs_ball_C").complex
        D = get("gs_ball_D").complex
        m38 = get("gs_m38").complex
        assert boundary(C) == boundary(D) == link(m38, 8)

    def test_closed_complex_has_empty_boundary(self):
        b = boundary(get("octahedron").complex)
        assert b.is_empty and b.n_facets == 0 and b.dim == -1

    def test_triple_ridge_rejected(self):
        with pytest.raises(RidgeInThreeFacets):
            boundary(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))

    def test_points_have_no_boundary_operator(self):
        with pytest.raises(NonPure):
            boundary(from_facets([(1,), (2,)]))

    def test_simplex_boundary(self):
        assert boundary(from_facets([(1, 2, 3, 4)])) == from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )


class TestPseudomanifold:
    def test_m38_closed(self):
        assert pseudomanifold_check(get("gs_m38").complex) == (True, True)

    def test_ball_not_closed(self):
        assert pseudomanifold_check(from_facets([(1, 2, 3), (2, 3, 4)])) == (
            True,
            False,
        )

    def test_triple_ridge_fails(self):
        report = pseudomanifold_check(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))
        assert not report.is_pseudomanifold

    def test_disconnected_dual_graph_fails(self):
        report = pseudomanifold_check(from_facets([(1, 2, 3), (4, 5, 6)]))
        assert not report.is_pseudomanifold

    def test_torus_closed(self):
        assert pseudomanifold_check(moebius_torus()) == (True, True)


class TestDualGraph:
    def test_m38_is_4_regular(self):
        g = dual_graph(get("gs_m38").complex)
        assert len(g.nodes) == 20
        assert all(g.degree(f) == 4 for f in g.nodes)
        assert g.is_connected() and not g.is_tree()
        assert g.max_ridge_multiplicity() == 2

    def test_path_of_two_facets_is_tree(self):
        g = dual_graph(from_facets([(1, 2, 3), (2, 3, 4)]))
        assert g.is_tree()
        assert g.ridge_index[Simplex((2, 3))] == tuple(g.nodes)
        assert g.ridge_index[Simplex((1, 2))] == (Simplex((1, 2, 3)),)


def _random_pure_complex(rng: random.Random) -> Complex:
    """Random facets of one size on a few labels: usually not a
    pseudomanifold, with ridges in three or more facets."""
    size = rng.randint(1, 6)
    labels = range(1, size + rng.randint(1, 3) + 1)
    return from_facets(rng.sample(labels, size) for _ in range(rng.randint(1, 12)))


def _shifted_cycle(n: int, shift: int) -> Complex:
    return from_facets((i + shift, i % n + 1 + shift) for i in range(1, n + 1))


class TestEulerCharacteristic:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16),
           kind=st.sampled_from(["stacked sphere", "pseudomanifold", "join", "pure"]),
           ridges_first=st.booleans())
    def test_f_vector_counts_every_face(self, seed, kind, ridges_first):
        rng = random.Random(seed)
        if kind == "stacked sphere":
            d = rng.randint(0, 5)
            facets = random_stacked_sphere(rng, d, rng.randint(d + 3, d + 9)).facets
        elif kind == "pseudomanifold":
            facets = random_closed_pseudomanifold(rng).facets
        elif kind == "join":
            a = random_stacked_sphere(rng, rng.randint(0, 2), rng.randint(4, 7))
            facets = join(a, _shifted_cycle(rng.randint(3, 5), 20)).facets
        else:
            facets = _random_pure_complex(rng).facets
        X = from_facets(facets)
        if ridges_first:
            X._ridge_map()
        poly = face_polynomial(list(facets))
        expected = tuple(poly[k] for k in range(1, X.dim + 2))
        assert X.f_vector == expected
        assert euler_characteristic(X) == sum(
            (-1) ** (k - 1) * c for k, c in poly.items() if k
        )

    def test_the_empty_complex_has_no_faces(self):
        X = boundary(get("cross_polytope(3)").complex)
        assert X.is_empty
        assert X.f_vector == ()
        assert euler_characteristic(X) == 0

    def test_the_count_keeps_the_ridge_map(self, monkeypatch):
        X = random_stacked_sphere(random.Random(4), 3, 12)
        built = record_ridge_map_builds(monkeypatch)
        assert X.f_vector == (12, 38, 52, 26)
        assert pseudomanifold_check(X).closed
        assert len(built) == 1

    def test_known_values(self):
        assert euler_characteristic(get("gs_m38").complex) == 0
        assert euler_characteristic(get("octahedron").complex) == 2
        assert euler_characteristic(moebius_torus()) == 0
        assert euler_characteristic(from_facets([(1, 2, 3, 4)])) == 1
        for d in range(5):
            assert euler_characteristic(get(f"standard_sphere({d})").complex) == 1 + (
                -1
            ) ** d


class TestIsSubcomplex:
    def test_faces_count(self):
        X = from_facets([(1, 2, 3)])
        assert is_subcomplex(from_facets([(1, 2), (2, 3)]), X)
        assert is_subcomplex(from_facets([(3,)]), X)
        assert not is_subcomplex(from_facets([(1, 4)]), X)
        assert not is_subcomplex(from_facets([(1, 2, 3), (2, 3, 4)]), X)


class TestOnePointSuspension:
    def test_zero_sphere_becomes_triangle(self):
        S0 = from_facets([(1,), (2,)])
        assert one_point_suspension(S0, 1, 3) == from_facets(
            [(1, 2), (1, 3), (2, 3)]
        )

    def test_euler_identity_on_random_closed_pseudomanifolds(self):
        rng = random.Random(11)
        for _ in range(25):
            X = random_closed_pseudomanifold(rng)
            u = min(X.vertices)
            v = max(X.vertices) + 1
            S = one_point_suspension(X, u, v)
            assert euler_characteristic(S) == 2 - euler_characteristic(X)
            assert is_subcomplex(X, S)
            assert S.vertex_set == X.vertex_set | {v}

    def test_requires_closed_pseudomanifold(self):
        for u in (1, 9):  # checked before the pivot
            with pytest.raises(NotClosedPseudomanifold):
                one_point_suspension(from_facets([(1, 2, 3), (2, 3, 4)]), u, 9)

    def test_pivot_must_be_present(self):
        for v in (10, 1):  # checked before the fresh vertex
            with pytest.raises(VertexNotPresent, match="^vertex 9 not in the complex$"):
                one_point_suspension(get("octahedron").complex, 9, v)

    def test_fresh_vertex_must_be_fresh(self):
        with pytest.raises(FreshVertexCollision):
            one_point_suspension(get("octahedron").complex, 1, 2)

    def test_fresh_vertex_must_be_valid(self):
        with pytest.raises(InvalidVertexLabel):
            one_point_suspension(get("octahedron").complex, 1, 0)


class TestBistellarMove:
    def test_collapse_degree_d_vertex(self):
        S = boundary(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))
        assert bistellar_move(S, 1, (2, 3, 4)) == from_facets(
            [(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]
        )

    def test_link_mismatch_rejected(self):
        S = boundary(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))
        with pytest.raises(LinkNotStandardSphere):
            bistellar_move(S, 2, (1, 3, 4))

    def test_sigma_already_present_rejected(self):
        S4 = get("standard_sphere(2)").complex
        with pytest.raises(SigmaAlreadyFace):
            bistellar_move(S4, 4, (1, 2, 3))

    def test_requires_closed_pseudomanifold(self):
        for v in (1, 9):  # checked before the vertex
            with pytest.raises(NotClosedPseudomanifold):
                bistellar_move(from_facets([(1, 2, 3), (2, 3, 4)]), v, (2, 3))

    def test_vertex_absent(self):
        with pytest.raises(VertexNotPresent, match="^vertex 9 not in the complex$"):
            bistellar_move(get("octahedron").complex, 9, (1, 2, 3))


class TestGeneralizedBistellarMove:
    def test_zero_move_subdivides_a_facet(self):
        S4 = get("standard_sphere(2)").complex
        out = generalized_bistellar_move(S4, (1, 2, 3), (5,))
        assert out == from_facets(
            [(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)]
        )
        assert out.n_vertices == 5 and out.n_facets == 6

    def test_moves_invert(self):
        S4 = get("standard_sphere(2)").complex
        out = generalized_bistellar_move(S4, (1, 2, 3), (5,))
        assert generalized_bistellar_move(out, (5,), (1, 2, 3)) == S4

    def test_edge_flip_on_octahedron(self):
        octa = get("octahedron").complex
        out = generalized_bistellar_move(octa, (1, 3), (5, 6))
        assert out == from_facets(
            [(1, 4, 5), (1, 4, 6), (2, 3, 5), (2, 3, 6),
             (2, 4, 5), (2, 4, 6), (1, 5, 6), (3, 5, 6)]
        )
        assert generalized_bistellar_move(out, (5, 6), (1, 3)) == octa

    def test_size_mismatch_rejected(self):
        octa = get("octahedron").complex
        with pytest.raises(MovePreconditionFailed):
            generalized_bistellar_move(octa, (1,), (7,))

    def test_b_already_a_face_rejected(self):
        octa = get("octahedron").complex
        with pytest.raises(MovePreconditionFailed):
            generalized_bistellar_move(octa, (1, 3), (2, 4))

    def test_wrong_link_rejected(self):
        S = boundary(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))
        with pytest.raises(MovePreconditionFailed):
            generalized_bistellar_move(S, (2,), (1, 3, 4))

    @pytest.mark.parametrize("name, B", [
        ("standard_sphere(2)", (1, 2, 3, 4)),
        ("cycle(3)", (1, 2, 3)),
    ])
    def test_empty_a_rejected(self, name, B):
        # the empty face lies in every facet, so the move would empty X
        with pytest.raises(MovePreconditionFailed, match="A must be a nonempty face"):
            generalized_bistellar_move(get(name).complex, (), B)


# ---------------------------------------------------------------------------
# the shared ridge map, connectivity walk and link-shape test against the
# frozenset-keyed copies kept in helpers
# ---------------------------------------------------------------------------


def _shifted(X, shift):
    return from_facets([tuple(v + shift for v in f) for f in X.facets])


def _sample_complex(kind, rng):
    if kind == "closed":
        return random_closed_pseudomanifold(rng)
    if kind == "cross":
        return get(f"cross_polytope({rng.randint(1, 4)})").complex
    if kind == "stacked sphere":
        return random_stacked_sphere(rng, rng.randint(1, 3), rng.randint(5, 10))
    if kind == "standard":
        return get(f"standard_sphere({rng.randint(0, 3)})").complex
    if kind == "points":
        return from_facets([(v,) for v in range(1, rng.randint(2, 4))])
    if kind == "ball":
        d = rng.randint(1, 3)
        return random_stacked_ball(rng, d, rng.randint(d + 1, d + 6))
    if kind == "disc":
        return random_disc(rng, rng.randint(3, 9))
    if kind == "disjoint":
        a = random_stacked_sphere(rng, 2, rng.randint(4, 7))
        return from_facets(a.facets + _shifted(a, max(a.vertices)).facets)
    # a sphere with facets hung on some of its ridges, each then in three
    S = random_stacked_sphere(rng, 2, rng.randint(4, 7))
    fresh = max(S.vertices) + 1
    hung = [
        (*rng.choice(S.facets)[:2], fresh + i) for i in range(rng.randint(1, 3))
    ]
    return from_facets(S.facets + tuple(hung))


KINDS = ["closed", "cross", "stacked sphere", "standard", "points", "ball",
         "disc", "disjoint", "triple ridge"]
# closed pseudomanifolds are drawn more often: only they reach the link tests
CLOSED_KINDS = ["closed", "cross", "stacked sphere", "standard"]


@st.composite
def complexes(draw):
    kind = draw(st.sampled_from(KINDS + CLOSED_KINDS * 2))
    return _sample_complex(kind, random.Random(draw(st.integers(0, 2**16))))


def _vertex_lists(X, size):
    """Lists of labels of X or fresh ones: `size` of them, or any number,
    and now and then one invalid label or a repeated one."""
    n = max(X.vertices)
    sizes = st.just(size) if size is not None else st.integers(0, X.dim + 3)
    valid = sizes.flatmap(
        lambda k: st.lists(st.integers(1, n + 2), min_size=k, max_size=k, unique=True)
    )
    spoiled = st.tuples(valid, st.sampled_from([0, -1, True, 1.5, "2", n])).map(
        lambda lb: [*lb[0], lb[1]]
    )
    return st.one_of(valid, valid, valid, spoiled)


def _faces(X):
    return sorted(
        tuple(sorted(f)) for k in range(1, X.dim + 2) for f in X.faces_of_size(k)
    )


def _span_outside(X, A):
    """The vertices outside A of the facets containing A: the B of a legal
    move (A, B) when A is link-shaped."""
    spanned = set().union(*(f for f in X.facets if set(A) <= set(f)))
    return tuple(sorted(spanned - set(A)))


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result, getattr(result, "facets", None)


class TestSharedChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(X=complexes(), data=st.data())
    def test_generalized_bistellar_move(self, X, data):
        A = data.draw(st.one_of(
            st.sampled_from(_faces(X)), st.sampled_from(_faces(X)),
            _vertex_lists(X, None),
        ))
        size_b = X.dim + 2 - len(A)
        candidates = [
            st.just((max(X.vertices) + 1,)),
            st.sampled_from(_faces(X)),
            _vertex_lists(X, max(size_b, 0)),
            _vertex_lists(X, None),
        ]
        if all(type(v) is int for v in A):
            span = _span_outside(X, A)
            candidates += [st.just(span)] * 3
            if span:  # one vertex of B swapped for another label
                candidates.append(_vertex_lists(X, 1).map(lambda w: [*span[1:], *w]))
        B = data.draw(st.one_of(candidates))
        legal = _reference_reduction_moves(X)
        if legal and data.draw(st.booleans()):
            A, B = data.draw(st.sampled_from(legal))
        assert _outcome(generalized_bistellar_move, X, A, B) == _outcome(
            reference_generalized_bistellar_move, X, A, B
        )

    @settings(max_examples=300, deadline=None)
    @given(X=complexes(), data=st.data())
    def test_bistellar_move(self, X, data):
        n = max(X.vertices)
        v = data.draw(st.one_of(
            st.sampled_from(X.vertices), st.sampled_from(X.vertices),
            st.integers(n + 1, n + 2), st.sampled_from([0, -1, True, "1"]),
        ))
        candidates = [
            st.just((n + 1,)),
            st.sampled_from(_faces(X)),
            _vertex_lists(X, X.dim + 1),
            _vertex_lists(X, None),
        ]
        if v in X.vertex_set:
            span = _span_outside(X, (v,))
            candidates += [st.just(span)] * 3
            candidates.append(_vertex_lists(X, 1).map(lambda w: [*span[1:], *w]))
        sigma = data.draw(st.one_of(candidates))
        legal = [(A, B) for A, B in _reference_reduction_moves(X) if len(A) == 1]
        if legal and data.draw(st.booleans()):
            (v,), sigma = data.draw(st.sampled_from(legal))
        assert _outcome(bistellar_move, X, v, sigma) == _outcome(
            reference_bistellar_move, X, v, sigma
        )

    @settings(max_examples=150, deadline=None)
    @given(X=complexes())
    # (1, 2, 3) holds two crowded ridges: (2, 3), its first by dropped vertex,
    # and (1, 2), its first in itertools.combinations order
    @example(X=from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5), (2, 3, 6), (2, 3, 7)]))
    # crowded ridges first met in different facets: (1, 2) in (1, 2, 5),
    # the larger (3, 4) only later, in (1, 3, 4)
    @example(X=from_facets([(1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 3, 4), (2, 3, 4),
                            (3, 4, 5)]))
    # the same in dimension 3, with the first crowded ridge met last of its facet's
    @example(X=from_facets([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 7),
                            (1, 2, 4, 8), (2, 3, 4, 9), (2, 3, 4, 10)]))
    def test_ridge_map_users(self, X):
        report = reference_pseudomanifold_check(X)
        expected = None if report.is_pseudomanifold else reference_pm_failure_reason(X)
        assert _pm_failure(X) == expected
        # the facet graph: X's facets, each -> the facets across its 2-owner ridges
        across = {f: [] for f in X.facets}
        for owners in reference_dual_graph(X).ridge_index.values():
            if len(owners) == 2:
                a, b = owners
                across[a].append(b)
                across[b].append(a)
        graph = X._facet_graph()
        assert list(graph) == list(X.facets)
        assert {f: sorted(g) for f, g in graph.items()} == {
            f: sorted(g) for f, g in across.items()
        }
        # X has built and kept its ridge map and facet graph by now: its
        # answers are those of a fresh copy, which builds them for each reader
        def fresh():
            return Complex._from_rows(X._facet_tuples)

        assert pseudomanifold_check(X) == pseudomanifold_check(fresh()) == report
        assert _outcome(boundary, X) == _outcome(boundary, fresh()) == _outcome(
            reference_boundary, X
        )
        complexes_to_check = [X, fresh()]
        if X.dim >= 1 and report.closed:
            complexes_to_check.append(boundary(X))  # the empty complex
        for Y in complexes_to_check:
            g, ref = dual_graph(Y), reference_dual_graph(Y)
            assert g.nodes == ref.nodes
            assert g.edges == ref.edges
            assert list(g.ridge_index.items()) == list(ref.ridge_index.items())
            assert [g.neighbors(f) for f in g.nodes] == [
                ref.neighbors(f) for f in ref.nodes
            ]
            assert g.is_connected() == reference_dual_graph_is_connected(ref)
            assert g.max_ridge_multiplicity() == ref.max_ridge_multiplicity()

    def test_moves_in_dimension_zero(self):
        S0 = from_facets([(1,), (2,)])
        for move, ref, args in [
            (bistellar_move, reference_bistellar_move, (1, (3,))),
            (bistellar_move, reference_bistellar_move, (1, (2,))),
            (bistellar_move, reference_bistellar_move, (1, (1,))),
            (bistellar_move, reference_bistellar_move, (1, (3, 4))),
            (bistellar_move, reference_bistellar_move, (1, ())),
            (generalized_bistellar_move, reference_generalized_bistellar_move,
             ((1,), (3,))),
            (generalized_bistellar_move, reference_generalized_bistellar_move,
             ((), (1, 2))),
        ]:
            assert _outcome(move, S0, *args) == _outcome(ref, S0, *args)
        assert bistellar_move(S0, 1, (3,)) == from_facets([(2,), (3,)])
        with pytest.raises(MovePreconditionFailed, match="A must be a nonempty face"):
            generalized_bistellar_move(S0, (), (1, 2))

    def test_ridges_print_as_plain_tuples(self):
        from combisphere import certify_sphere

        X = from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        with pytest.raises(RidgeInThreeFacets) as exc:
            boundary(X)
        assert str(exc.value) == "ridge (1, 2) lies in 3 facets"
        assert certify_sphere(X).reason == (
            "not a pseudomanifold: ridge (1, 2) lies in 3 facets"
        )


# ---------------------------------------------------------------------------
# the star-map incidence queries against the facet scans they replaced
# ---------------------------------------------------------------------------


@st.composite
def pure_complexes(draw):
    """Random pure complexes of dimension 0..4 on a few vertices."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(d + 1, d + 5))
    facets = draw(st.lists(
        st.sets(st.integers(1, n), min_size=d + 1, max_size=d + 1),
        min_size=1, max_size=12,
    ))
    return from_facets(facets)


def _labels(X):
    """A vertex of X most of the time, otherwise a label it does not use."""
    n = max(X.vertices)
    return st.one_of(
        st.sampled_from(X.vertices), st.sampled_from(X.vertices),
        st.integers(n + 1, n + 3),
    )


def _subfaces(X):
    """A face of X, the empty face, or any set of labels up to two past X's."""
    n = max(X.vertices)
    return st.one_of(
        st.sampled_from(X.facets).flatmap(lambda f: st.sets(st.sampled_from(f))),
        st.just(()),
        st.sets(st.integers(1, n + 2), max_size=X.dim + 2),
    )


class TestStarQueriesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(X=pure_complexes(), data=st.data())
    def test_vertex_queries(self, X, data):
        v = data.draw(_labels(X))
        assert _outcome(link, X, v) == _outcome(reference_link, X, v)
        assert _outcome(anti_star, X, v) == _outcome(reference_anti_star, X, v)
        assert _outcome(degree, X, v) == _outcome(reference_degree, X, v)

    @settings(max_examples=300, deadline=None)
    @given(X=pure_complexes(), data=st.data())
    def test_has_face(self, X, data):
        face = data.draw(_subfaces(X))
        assert X.has_face(face) == reference_has_face(X, face)
        assert X.has_face(iter(face)) == reference_has_face(X, face)

    @settings(max_examples=300, deadline=None)
    @given(X=pure_complexes(), data=st.data())
    def test_facet_queries_are_fresh_sets_of_the_facets(self, X, data):
        face = data.draw(_subfaces(X))
        stars = {v: set(X._star(v)) for v in X.vertices}
        found = X._facets_containing(face)
        assert found == {f for f in X.facets if set(face) <= set(f)}
        # the stars, ridge map and facet graph share one object per facet
        assert {id(f) for f in found} <= {id(f) for f in X._facet_tuples}
        found.clear()  # a reader may consume the set; no star loses a facet
        assert {v: X._star(v) for v in X.vertices} == stars

    @settings(max_examples=300, deadline=None)
    @given(X=pure_complexes(), data=st.data())
    def test_two_complex_queries(self, X, data):
        n = max(X.vertices)
        faces_of_x = st.integers(1, X.dim + 1).flatmap(
            lambda k: st.lists(st.sampled_from(sorted(map(sorted, X.faces_of_size(k)))),
                               min_size=1)
        )
        Y = data.draw(st.one_of(
            st.lists(st.sampled_from(X.facets), min_size=1).map(from_facets),
            faces_of_x.map(from_facets),
            pure_complexes(),
            st.just(from_facets([(n + 1,)])),
        ))
        for A, B in [(X, Y), (Y, X)]:
            assert is_subcomplex(A, B) == reference_is_subcomplex(A, B)
            assert _outcome(complement, A, B) == _outcome(reference_complement, A, B)
        assert (X == Y) == (set(X.facets) == set(Y.facets))
        if X == Y:
            assert hash(X) == hash(Y)

    def test_empty_complex(self):
        X = from_facets([(1, 2), (2, 3)])
        empty = boundary(from_facets([(1, 2), (2, 3), (1, 3)]))
        assert X.has_face(()) and not empty.has_face(())
        assert is_subcomplex(empty, X) and reference_is_subcomplex(empty, X)
        assert not is_subcomplex(X, empty) and not reference_is_subcomplex(X, empty)
        assert _outcome(complement, X, empty) == _outcome(reference_complement, X, empty)

