import ast
import itertools
import random
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combisphere import (
    anti_star,
    boundary,
    certify_sphere,
    convex_hull,
    from_facets,
    general_position_check,
    get,
    is_subcomplex,
    perturb_to_general_position,
    polytopal,
    polytopal_complete,
    pseudomanifold_check,
)
from combisphere.errors import (
    DegenerateSpan,
    EmptyInput,
    GeometryError,
    NotGeneralPosition,
    NotSimplicial,
    PerturbationBudgetExhausted,
    TooFewPoints,
    TooFewVertices,
    VertexNotPresent,
)
from combisphere.polytopal import (
    PointConfiguration,
    _all_independent,
    _functional,
    _homogeneous,
    _primitive,
    _realizes,
)
from helpers import (
    _reference_affine_basis,
    _reference_primitive,
    cube_points,
    gale_evenness_facets,
    octahedron_points,
    reference_convex_hull,
    reference_det,
    reference_general_position_check,
    reference_hyperplane,
    reference_perturb_to_general_position,
    reference_rank,
    reference_realizes,
)


DIM0_HULL = (
    "points in dimension 0 have no hull boundary; convex_hull needs dimension >= 1"
)


def _tetra_points():
    return PointConfiguration.from_dict(3, {
        1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0), 4: (0, 0, 4),
    })


class TestPointConfiguration:
    def test_coercion_and_queries(self):
        pc = PointConfiguration.from_dict(2, {2: ("1/2", 3), 1: (0, "7")})
        assert pc.labels == (1, 2)
        assert pc.coords(2) == (Fraction(1, 2), Fraction(3))
        assert pc.drop(1).labels == (2,)
        assert len(pc) == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(GeometryError):
            PointConfiguration.from_dict(1, {0: (1,)})

    def test_rejects_wrong_arity(self):
        with pytest.raises(GeometryError):
            PointConfiguration.from_dict(2, {1: (1, 2, 3)})

    def test_rejects_empty(self):
        with pytest.raises(TooFewPoints):
            PointConfiguration.from_dict(2, {})

    def test_drop_missing_label(self):
        with pytest.raises(VertexNotPresent):
            _tetra_points().drop(9)

    def test_coords_of_a_missing_label(self):
        with pytest.raises(VertexNotPresent, match="^no point labeled 9$"):
            _tetra_points().coords(9)


class TestGeneralPosition:
    def test_moment_curve_is_generic(self):
        for n in (4, 6, 8):
            assert general_position_check(get(f"cyclic_polytope_points({n},3)").points)

    def test_octahedron_is_not(self):
        assert not general_position_check(octahedron_points())

    def test_cube_is_not(self):
        assert not general_position_check(cube_points())

    def test_needs_enough_points(self):
        pc = PointConfiguration.from_dict(3, {1: (0, 0, 0), 2: (1, 0, 0)})
        with pytest.raises(TooFewPoints, match="^need at least 4 points, have 2$"):
            general_position_check(pc)


class TestConvexHull:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_cyclic_polytopes_match_gale_evenness(self, n):
        pts = get(f"cyclic_polytope_points({n},3)").points
        hull = convex_hull(pts)
        assert {tuple(f.vertices) for f in hull.facets} == gale_evenness_facets(n, 3)

    def test_simplex(self):
        hull = convex_hull(_tetra_points())
        assert hull.boundary_complex == from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )

    def test_interior_points_are_skipped(self):
        pc = PointConfiguration.from_dict(3, {
            1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0), 4: (0, 0, 4),
            5: (1, 1, 1),
        })
        hull = convex_hull(pc)
        assert hull.boundary_complex.vertex_set == frozenset({1, 2, 3, 4})

    def test_degenerate_input_refused(self):
        with pytest.raises(NotSimplicial):
            convex_hull(octahedron_points())

    def test_flat_input_refused(self):
        pc = PointConfiguration.from_dict(3, {
            i: (i, 2 * i, 3 * i) for i in range(1, 6)
        })
        with pytest.raises(DegenerateSpan):
            convex_hull(pc)

    def test_needs_enough_points(self):
        with pytest.raises(TooFewPoints, match="^need at least 4 points, have 1$"):
            convex_hull(PointConfiguration.from_dict(3, {1: (0, 0, 0)}))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_zero_has_no_hull(self, n):
        pc = PointConfiguration.from_dict(0, {label: () for label in range(1, n + 1)})
        with pytest.raises(DegenerateSpan) as exc:
            convex_hull(pc)
        assert str(exc.value) == DIM0_HULL

    def test_supporting_functionals_are_exact_and_primitive(self):
        pts = get("cyclic_polytope_points(7,3)").points
        coords = pts.as_dict()
        hull = convex_hull(pts)
        for facet in hull.facets:
            ints = [c for c in facet.normal] + [facet.offset]
            assert all(c.denominator == 1 for c in ints)
            g = 0
            for c in ints:
                g = gcd(g, abs(int(c)))
            assert g == 1
            for label in pts.labels:
                value = sum(
                    c * x for c, x in zip(facet.normal, coords[label])
                )
                if label in facet.vertices:
                    assert value == facet.offset
                else:
                    assert value < facet.offset

    def test_segment_hull(self):
        pc = PointConfiguration.from_dict(1, {1: (0,), 2: (7,), 3: (3,)})
        hull = convex_hull(pc)
        assert hull.boundary_complex == from_facets([(1,), (2,)])

    @pytest.mark.parametrize("name", ["cyclic-30-4", "integer-cloud-60"])
    def test_elimination_only_for_the_initial_simplex(self, monkeypatch, name):
        # every later facet is rotated about its horizon ridge
        if name == "cyclic-30-4":
            pc = get("cyclic_polytope_points(30,4)").points
        else:
            rng = random.Random(60)
            pc = PointConfiguration.from_dict(3, {
                label: tuple(rng.randint(-1000, 1000) for _ in range(3))
                for label in range(1, 61)
            })
        eliminated = []
        functional = polytopal._functional

        def counted(rows):
            eliminated.append(rows)
            return functional(rows)

        monkeypatch.setattr(polytopal, "_functional", counted)
        hull = convex_hull(pc)
        assert len(hull.facets) > 30
        assert len(eliminated) == pc.dim + 1

    def test_random_planar_hulls_are_circles(self):
        rng = random.Random(2)
        for _ in range(5):
            coords = {}
            label = 1
            while label <= 9:
                x = Fraction(rng.randint(-100, 100), rng.randint(1, 9))
                y = Fraction(rng.randint(-100, 100), rng.randint(1, 9))
                coords[label] = (x, y)
                label += 1
            pc = PointConfiguration.from_dict(2, coords)
            if not general_position_check(pc):
                continue
            hull = convex_hull(pc)
            report = pseudomanifold_check(hull.boundary_complex)
            assert hull.boundary_complex.dim == 1
            assert report.is_pseudomanifold and report.closed


class TestPerturbation:
    def test_octahedron_keeps_its_hull(self):
        octa = get("octahedron").complex
        moved = perturb_to_general_position(octahedron_points(), octa, seed=0)
        assert general_position_check(moved)
        assert convex_hull(moved).boundary_complex == octa

    def test_anchor_facet_points_stay_fixed(self):
        octa = get("octahedron").complex
        original = octahedron_points()
        moved = perturb_to_general_position(original, octa, seed=0)
        for label in octa.facets[0]:
            assert moved.coords(label) == original.coords(label)

    def test_deterministic(self):
        octa = get("octahedron").complex
        a = perturb_to_general_position(octahedron_points(), octa, seed=3)
        b = perturb_to_general_position(octahedron_points(), octa, seed=3)
        assert a == b

    def test_needs_enough_points(self):
        pts = PointConfiguration.from_dict(3, {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0)})
        with pytest.raises(TooFewPoints, match="^need at least 4 points, have 3$"):
            perturb_to_general_position(pts, get("octahedron").complex)

    @pytest.mark.parametrize("perturb", [
        perturb_to_general_position, reference_perturb_to_general_position,
    ], ids=["library", "reference"])
    def test_empty_target(self, perturb):
        target = boundary(get("standard_sphere(2)").complex)
        with pytest.raises(EmptyInput, match="^the target complex is empty$"):
            perturb(get("cyclic_polytope_points(6,3)").points, target)

    def test_generic_input_is_untouched(self):
        pts = get("cyclic_polytope_points(6,3)").points
        target = convex_hull(pts).boundary_complex
        assert perturb_to_general_position(pts, target, seed=9) == pts

    def test_impossible_target_exhausts_the_budget(self):
        # same octahedron geometry, but the target complex pairs the
        # antipodes wrongly: its first facet 123 holds two antipodal points,
        # and the anchor keeps them fixed, so points 5 and 6 stay strictly
        # on opposite sides of that facet's hyperplane forever
        target = from_facets(
            [(a, b, c) for a in (1, 6) for b in (2, 4) for c in (3, 5)]
        )
        assert target.facets[0] == (1, 2, 3)
        with pytest.raises(PerturbationBudgetExhausted):
            perturb_to_general_position(octahedron_points(), target, seed=0)

    @pytest.mark.parametrize("facets, label", [
        # the anchor facet itself holds labels with no point
        ([(7, 8, 9), (7, 8, 10), (7, 9, 10), (8, 9, 10)], 7),
        # the anchor is fine, a later facet is not
        ([(1, 2, 3), (1, 2, 9), (1, 3, 9), (2, 3, 9)], 9),
    ])
    def test_target_vertex_without_a_point(self, facets, label):
        pts = get("cyclic_polytope_points(6,3)").points
        with pytest.raises(VertexNotPresent, match=f"^no point labeled {label}$"):
            perturb_to_general_position(pts, from_facets(facets), seed=0)

    def test_a_facet_spanning_no_plane_is_not_realized(self):
        # the target's facet 123 lies on a line, so it has no hyperplane
        pc = PointConfiguration.from_dict(3, {
            1: (0, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (0, 0, 4),
        })
        target = from_facets(itertools.combinations(range(1, 5), 3))
        assert _realizes(pc._rows, target) is False
        assert reference_realizes(pc.as_dict(), target) is False

    def test_a_degenerate_anchor_is_refused(self):
        # the anchor, the target's first facet 123, lies on a line
        pc = PointConfiguration.from_dict(3, {
            1: (0, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (0, 0, 4),
        })
        target = from_facets(itertools.combinations(range(1, 5), 3))
        with pytest.raises(
            DegenerateSpan, match=r"^anchor facet \(1, 2, 3\) is affinely degenerate$"
        ):
            perturb_to_general_position(pc, target, seed=0)

    def test_point_that_is_not_a_target_vertex(self):
        # point 7 has no place on the hull of the six points before it
        pts = get("cyclic_polytope_points(7,3)").points
        target = convex_hull(get("cyclic_polytope_points(6,3)").points).boundary_complex
        with pytest.raises(VertexNotPresent, match="^point 7 is not a vertex of the target$"):
            perturb_to_general_position(pts, target, seed=0)


class TestPolytopalComplete:
    def test_cyclic_polytope(self):
        pts = get("cyclic_polytope_points(6,3)").points
        S = convex_hull(pts).boundary_complex
        result = polytopal_complete(pts, 1)
        assert is_subcomplex(S, result.sphere)
        assert result.sphere.vertex_set == S.vertex_set
        assert result.sphere.dim == S.dim + 1 == 3
        assert certify_sphere(result.sphere).is_certified
        assert result.witness_points is not None
        assert result.witness_points.labels == (2, 3, 4, 5, 6)
        reduced = convex_hull(result.witness_points).boundary_complex
        assert is_subcomplex(anti_star(S, 1), reduced)

    def test_default_vertex_is_smallest(self):
        pts = get("cyclic_polytope_points(6,3)").points
        assert polytopal_complete(pts) == polytopal_complete(pts, 1)

    def test_perturbed_octahedron(self):
        octa = get("octahedron").complex
        moved = perturb_to_general_position(octahedron_points(), octa, seed=0)
        result = polytopal_complete(moved, 6)
        assert is_subcomplex(octa, result.sphere)
        assert result.sphere.vertex_set == octa.vertex_set
        assert certify_sphere(result.sphere).is_certified

    def test_degenerate_points_rejected(self):
        with pytest.raises(NotGeneralPosition):
            polytopal_complete(octahedron_points(), 1)

    def test_interior_point_rejected(self):
        pc = PointConfiguration.from_dict(3, {
            1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0), 4: (0, 0, 4),
            5: (1, 1, 1),
        })
        with pytest.raises(GeometryError, match="interior"):
            polytopal_complete(pc, 1)

    def test_needs_enough_points(self):
        with pytest.raises(TooFewVertices):
            polytopal_complete(_tetra_points(), 1)

    def test_missing_vertex(self):
        pts = get("cyclic_polytope_points(6,3)").points
        with pytest.raises(VertexNotPresent):
            polytopal_complete(pts, 99)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

# negative, non-integer and mixed-denominator coordinates
coordinates = st.fractions(min_value=-12, max_value=12, max_denominator=9)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _reference_perturbation(pc, target, *args):
    """The reference perturbation's outcome, where point labels and target
    vertices agree.  Where they differ, the reference raised a bare KeyError
    on a missing anchor point or tried every displacement in vain; the
    library names the smallest label at fault."""
    if len(pc) > pc.dim and target.dim == pc.dim - 1:  # the size checks passed
        missing = sorted(target.vertex_set.difference(pc.labels))
        if missing:
            return VertexNotPresent, f"no point labeled {missing[0]}"
        stray = sorted(set(pc.labels).difference(target.vertex_set))
        if stray:
            return VertexNotPresent, f"point {stray[0]} is not a vertex of the target"
    return _outcome(reference_perturb_to_general_position, pc, target, *args)


def _affine_combination(draw, points):
    """A point on the affine hull of the given points, rational weights."""
    weights = [draw(coordinates) for _ in points[1:]]
    weights.insert(0, 1 - sum(weights, Fraction(0)))
    return tuple(
        sum((w * p[c] for w, p in zip(weights, points)), Fraction(0))
        for c in range(len(points[0]))
    )


@st.composite
def point_lists(draw, d, n, plants=2):
    """n points in R^d with planted repeats and affinely dependent subsets."""
    points = [tuple(draw(coordinates) for _ in range(d)) for _ in range(n)]
    for _ in range(draw(st.integers(0, plants))):
        i = draw(st.integers(0, n - 1))
        if n < 3 or draw(st.booleans()):
            points[i] = points[draw(st.integers(0, n - 1))]
        else:
            k = draw(st.integers(2, max(2, min(d, n - 1))))
            others = [j for j in range(n) if j != i]
            chosen = draw(st.lists(st.sampled_from(others), min_size=k, max_size=k,
                                   unique=True))
            points[i] = _affine_combination(draw, [points[j] for j in chosen])
    return points


@st.composite
def configurations(draw, min_dim=1, max_dim=5, plants=2, more=None):
    """d + 1 to d + 4 points in R^d, or 2d + 4 to `more` points if given."""
    d = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(d + 1, d + 4) if more is None else st.integers(2 * d + 4, more))
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    points = draw(point_lists(d, n, plants))
    return PointConfiguration.from_dict(d, dict(zip(labels, points)))


class TestIntegerKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_independence_and_hyperplanes(self, data):
        d = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, d + 1))
        points = data.draw(point_lists(d, k))
        rows = [_homogeneous(p) for p in points]
        for p, row in zip(points, rows):
            assert row[0] > 0
            assert tuple(Fraction(c, row[0]) for c in row[1:]) == p
        diffs = [[c - b for c, b in zip(p, points[0])] for p in points[1:]]
        independent = reference_rank(diffs) == k - 1
        assert _all_independent(rows, k, []) == independent
        if k == d + 1:
            assert independent == (reference_det(diffs) != 0)
        if k == d:
            a, plane = _functional(rows), reference_hyperplane(points)
            assert (a is None) == (plane is None)
            if a is not None:
                normal, offset = _reference_primitive(*plane)
                negated = tuple(-c for c in normal), -offset
                assert _primitive(a) in ((normal, offset), negated)

    @settings(max_examples=150, deadline=None)
    @given(pc=configurations())
    def test_hulls_and_general_position(self, pc):
        assert _outcome(convex_hull, pc) == _outcome(reference_convex_hull, pc)
        assert _outcome(general_position_check, pc) == _outcome(
            reference_general_position_check, pc
        )
        v = pc.labels[0]
        assert pc.drop(v)._rows == PointConfiguration(pc.dim, pc.drop(v).points)._rows

    @settings(max_examples=120, deadline=None)
    @given(pc=configurations(plants=0), data=st.data())
    def test_point_on_a_facet_hyperplane(self, pc, data):
        # A point on the affine hull of part of a hull facet lies on that
        # facet's hyperplane (and, for part of a ridge, on two or more), so
        # NotSimplicial must pick one tie: the smallest facet.
        status, hull = _outcome(reference_convex_hull, pc)
        assume(status == "ok")
        facet = data.draw(st.sampled_from(hull.facets)).vertices
        part = data.draw(st.lists(st.sampled_from(facet), min_size=1,
                                  max_size=len(facet), unique=True))
        x = _affine_combination(data.draw, [pc.coords(v) for v in part])
        label = data.draw(st.one_of(
            st.integers(max(pc.labels) + 1, max(pc.labels) + 3),
            st.integers(1, 45).filter(lambda l: l not in pc.labels),
        ))
        planted = PointConfiguration.from_dict(pc.dim, {**pc.as_dict(), label: x})
        assert _outcome(convex_hull, planted) == _outcome(reference_convex_hull, planted)
        assert _outcome(general_position_check, planted) == _outcome(
            reference_general_position_check, planted
        )

    @settings(max_examples=120, deadline=None)
    @given(pc=configurations(min_dim=2, plants=0), data=st.data())
    def test_a_tie_names_the_smallest_facet_holding_the_point(self, pc, data):
        # points planted on sub-faces of hull facets tie with every facet
        # through the sub-face; the named facet is the smallest of those on
        # the hull of the points inserted before the tied one
        status, hull = _outcome(reference_convex_hull, pc)
        assume(status == "ok")
        coords = pc.as_dict()
        for label in data.draw(st.lists(st.integers(1, 45), min_size=1,
                                        max_size=3, unique=True)):
            facet = data.draw(st.sampled_from(hull.facets)).vertices
            part = data.draw(st.lists(st.sampled_from(facet), min_size=1,
                                      max_size=len(facet) - 1, unique=True))
            coords[label] = _affine_combination(
                data.draw, [pc.coords(v) for v in part])
        planted = PointConfiguration.from_dict(pc.dim, coords)
        status, message = _outcome(convex_hull, planted)
        assume(status is NotSimplicial)
        match = re.fullmatch(r"point (\d+) lies on the hyperplane of facet "
                             r"(\(.*\)); not in general position", message)
        point, named = int(match[1]), ast.literal_eval(match[2])
        basis = _reference_affine_basis(planted)
        before = {l: c for l, c in coords.items() if l < point or l in basis}
        inserted = reference_convex_hull(PointConfiguration.from_dict(pc.dim, before))
        x = coords[point]
        holding = [tuple(f.vertices) for f in inserted.facets
                   if sum(map(mul, f.normal, x)) == f.offset]
        assert named == min(holding)

    @settings(max_examples=25, deadline=None)
    @given(pc=configurations(min_dim=2, plants=0, more=20), data=st.data())
    def test_long_rotation_chains(self, pc, data):
        # many points per hull, so a facet's functional is rotated many times
        expected = _outcome(reference_convex_hull, pc)
        assert _outcome(convex_hull, pc) == expected
        if expected[0] == "ok" and data.draw(st.booleans()):
            facet = data.draw(st.sampled_from(expected[1].facets)).vertices
            x = _affine_combination(data.draw, [pc.coords(v) for v in facet])
            label = data.draw(st.integers(1, 70).filter(lambda l: l not in pc.labels))
            planted = PointConfiguration.from_dict(pc.dim, {**pc.as_dict(), label: x})
            assert _outcome(convex_hull, planted) == _outcome(
                reference_convex_hull, planted
            )

    @settings(max_examples=80, deadline=None)
    @given(pc=configurations(max_dim=4), other=configurations(max_dim=4),
           data=st.data())
    def test_realizes_and_perturbation(self, pc, other, data):
        # targets: the hull complex of a generic configuration on the same
        # labels, or of some other configuration
        generic = PointConfiguration.from_dict(pc.dim, {
            label: tuple(data.draw(coordinates) for _ in range(pc.dim))
            for label in pc.labels
        })
        for source in (generic, other):
            status, hull = _outcome(reference_convex_hull, source)
            if status != "ok":
                continue
            target = hull.boundary_complex
            if target.dim == pc.dim - 1:  # facets of d vertices, as perturbation checks
                assert _realizes(pc._rows, target) == reference_realizes(
                    pc.as_dict(), target
                )
            seed = data.draw(st.integers(0, 1 << 16))
            attempts = data.draw(st.integers(1, 6))
            assert _outcome(
                perturb_to_general_position, pc, target, seed, attempts
            ) == _reference_perturbation(pc, target, seed, attempts)

    @pytest.mark.parametrize("points", [
        octahedron_points(), cube_points(),
        PointConfiguration.from_dict(3, {
            i: c for i, c in enumerate(itertools.product(range(3), repeat=3), 1)
        }),
        PointConfiguration.from_dict(2, {
            1: ("1/2", "-1/3"), 2: (5, "7/4"), 3: ("-5/6", 2), 4: ("1/2", "-1/3"),
        }),
        PointConfiguration.from_dict(0, {1: ()}),
        PointConfiguration.from_dict(0, {1: (), 2: ()}),
    ], ids=["octahedron", "cube", "grid", "repeated-rational", "dim0-one", "dim0-two"])
    def test_fixed_degenerate_inputs(self, points):
        if points.dim == 0:
            # the reference raised DegenerateSpan or IndexError, by the count
            assert _outcome(convex_hull, points) == (DegenerateSpan, DIM0_HULL)
        else:
            assert _outcome(convex_hull, points) == _outcome(
                reference_convex_hull, points
            )
        octa = get("octahedron").complex
        for seed in range(3):
            assert _outcome(perturb_to_general_position, points, octa, seed) == (
                _reference_perturbation(points, octa, seed)
            )
