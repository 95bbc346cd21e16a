import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combisphere import (
    boundary,
    certify_ball,
    certify_sphere,
    complete_ball_degree_d,
    complete_degree_d,
    complete_disc,
    complete_flag,
    complete_join,
    complete_stacked_ball,
    complete_stacked_sphere,
    degree,
    from_facets,
    get,
    is_standard,
    is_subcomplex,
    join,
    link,
    sphere_chain,
)
from combisphere.errors import (
    DimensionTooLow,
    FactorJoinMismatch,
    FactorNotSphere,
    IntermediateClaimFailed,
    NoDegreeDVertex,
    NotBall,
    NotDisc,
    NotFlag,
    NotSphere,
    NotStacked,
    NotStackedBall,
    TooFewVertices,
    VertexNotPresent,
)
from combisphere import constructions
from combisphere.constructions import _meet_inside
from helpers import (
    _counted_flips,
    barycentric_subdivision,
    moebius_torus,
    random_closed_pseudomanifold,
    random_disc,
    random_flag_2sphere,
    random_stacked_ball,
    random_stacked_sphere,
    record_ridge_map_builds,
    reference_complete_ball_degree_d,
    reference_complete_disc,
    reference_meet_inside,
)

S0_12 = [(1,), (2,)]
S0_34 = [(3,), (4,)]
STANDARD_2_SPHERE = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def _check_contract(X, result, expect_dim):
    assert is_subcomplex(X, result.sphere)
    assert result.sphere.vertex_set == X.vertex_set
    assert result.sphere.dim == expect_dim
    assert result.embedding_check
    assert result.trace and result.trace[-1].startswith("done:")


class TestCompleteJoin:
    def test_four_cycle_of_two_zero_spheres(self):
        S = join(from_facets(S0_12), from_facets(S0_34))
        result = complete_join(S, [from_facets(S0_12), from_facets(S0_34)])
        assert result.sphere == from_facets(STANDARD_2_SPHERE)
        _check_contract(S, result, 2)

    def test_octahedron_three_factors(self):
        factors = [from_facets([(1,), (2,)]), from_facets([(3,), (4,)]),
                   from_facets([(5,), (6,)])]
        octa = get("octahedron").complex
        result = complete_join(octa, factors)
        _check_contract(octa, result, 3)
        assert certify_sphere(result.sphere).is_certified

    def test_cycle_times_zero_sphere(self):
        cyc = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        s0 = from_facets([(5,), (6,)])
        S = join(cyc, s0)
        result = complete_join(S, [cyc, s0])
        _check_contract(S, result, 3)
        assert certify_sphere(result.sphere).is_certified

    def test_explicit_pivot_choices(self):
        cyc = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        s0 = from_facets([(5,), (6,)])
        S = join(cyc, s0)
        a = complete_join(S, [cyc, s0], [1, 5])
        b = complete_join(S, [cyc, s0], [2, 5])
        assert a.sphere != b.sphere
        for r, pivot in ((a, 1), (b, 2)):
            assert is_subcomplex(S, r.sphere)
            assert any(f"vertex {pivot} in factor 0" in line for line in r.trace)

    def test_pivot_must_live_in_its_factor(self):
        S = join(from_facets(S0_12), from_facets(S0_34))
        with pytest.raises(VertexNotPresent):
            complete_join(S, [from_facets(S0_12), from_facets(S0_34)], [3, 3])

    def test_join_mismatch_rejected(self):
        S = get("octahedron").complex
        with pytest.raises(FactorJoinMismatch):
            complete_join(S, [from_facets(S0_12), from_facets(S0_34)])

    def test_single_factor_rejected(self):
        S = join(from_facets(S0_12), from_facets(S0_34))
        with pytest.raises(FactorJoinMismatch):
            complete_join(S, [S])

    def test_one_choice_for_two_factors_rejected(self):
        factors = [from_facets(S0_12), from_facets(S0_34)]
        with pytest.raises(FactorJoinMismatch,
                           match="^one chosen vertex per factor is required$"):
            complete_join(join(*factors), factors, v_choices=[1])

    def test_trust_skips_factor_certification(self):
        factors = [from_facets(S0_12), from_facets(S0_34)]
        result = complete_join(join(*factors), factors, trust=True)
        assert result.trace[1] == "factor certification skipped (trusted)"

    def test_ball_factor_rejected(self):
        ball = from_facets([(1, 2)])
        s0 = from_facets([(3,), (4,)])
        with pytest.raises(FactorNotSphere):
            complete_join(join(ball, s0), [ball, s0])


class TestCompleteDegreeD:
    def test_four_cycle(self):
        S = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        result = complete_degree_d(S)
        assert result.sphere == from_facets(STANDARD_2_SPHERE)
        _check_contract(S, result, 2)

    def test_explicit_vertex_and_apex(self):
        S = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        result = complete_degree_d(S, v=4, u=3)
        _check_contract(S, result, 2)
        assert result.sphere == from_facets(STANDARD_2_SPHERE)

    def test_stacked_spheres_have_degree_d_vertices(self):
        rng = random.Random(6)
        for _ in range(10):
            d = rng.randint(1, 3)
            S = random_stacked_sphere(rng, d, rng.randint(d + 4, d + 8))
            result = complete_degree_d(S)
            _check_contract(S, result, d + 1)
            assert certify_sphere(result.sphere).is_certified

    def test_no_low_degree_vertex(self):
        with pytest.raises(NoDegreeDVertex):
            complete_degree_d(get("octahedron").complex)

    def test_wrong_explicit_vertex(self):
        S = random_stacked_sphere(random.Random(0), 2, 8)
        top = max(S.vertices, key=lambda v: len([f for f in S.facets if v in f]))
        with pytest.raises(NoDegreeDVertex):
            complete_degree_d(S, v=top)

    def test_minimal_sphere_too_small(self):
        with pytest.raises(TooFewVertices):
            complete_degree_d(get("standard_sphere(2)").complex)

    def test_non_sphere_rejected(self):
        with pytest.raises(NotSphere):
            complete_degree_d(moebius_torus())

    def test_trust_skips_certification(self):
        S = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        result = complete_degree_d(S, trust=True)
        assert result.trace[0].endswith("skipped (trusted)")

    def test_unknown_input_proceeds_with_note(self):
        S = random_stacked_sphere(random.Random(5), 3, 9)
        result = complete_degree_d(S, budget=0)
        assert result.trace[0] == "input: certification unknown"
        _check_contract(S, result, 4)


class TestCompleteFlag:
    def test_octahedron_frozen(self):
        octa = get("octahedron").complex
        result = complete_flag(octa)
        assert result.sphere == from_facets(
            [(2, 3, 4, 5), (2, 3, 4, 6), (1, 2, 3, 5), (1, 2, 3, 6),
             (1, 2, 4, 5), (1, 2, 4, 6), (1, 3, 4, 5), (1, 3, 4, 6)]
        )
        _check_contract(octa, result, 3)

    def test_cross_polytope_4(self):
        S = get("cross_polytope(4)").complex
        result = complete_flag(S)
        _check_contract(S, result, 4)
        assert certify_sphere(result.sphere).is_certified

    def test_random_flag_spheres(self):
        rng = random.Random(12)
        for _ in range(6):
            S = random_flag_2sphere(rng, rng.randint(6, 10))
            result = complete_flag(S)
            _check_contract(S, result, 3)
            assert certify_sphere(result.sphere).is_certified

    def test_barycentric_subdivision_of_cross_polytope_4(self):
        # flag, with one vertex per face of cp4: 80 vertices, 384 facets
        S = barycentric_subdivision(get("cross_polytope(4)").complex)
        result = complete_flag(S)
        _check_contract(S, result, 4)
        assert result.sphere.n_facets == 704
        assert result.trace[2] == "glued sphere without 1: certification certified"

    @pytest.mark.parametrize("name", ["cross_polytope(6)", "C4*C4*C4"])
    def test_hard_flag_spheres_are_certified_before_and_after_gluing(self, name):
        # the bistellar walk cycled on both until it re-chose after revisits
        if name == "C4*C4*C4":
            c4 = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
            S = join(join(c4, _shifted(c4, 4)), _shifted(c4, 8))
        else:
            S = get(name).complex
        result = complete_flag(S)
        _check_contract(S, result, S.dim + 1)
        assert result.trace[0] == "input: certification certified"
        assert result.trace[2] == "glued sphere without 1: certification certified"

    def test_non_flag_rejected(self):
        S = random_stacked_sphere(random.Random(2), 2, 7)
        with pytest.raises(NotFlag):
            complete_flag(S)

    def test_a_missing_tetrahedron_is_not_flag(self):
        # all its triangles are faces; growing cliques past triangles finds
        # the missing tetrahedron before the gluing could fail
        S = join(get("standard_sphere(2)").complex, from_facets([(5,), (6,)]))
        with pytest.raises(NotFlag):
            complete_flag(S)

    def test_apex_must_be_a_neighbour(self):
        # 1 and 2 are antipodal in cp4
        with pytest.raises(VertexNotPresent, match="^vertex 2 is not adjacent to 1$"):
            complete_flag(get("cross_polytope(4)").complex, v=1, u=2)

    def test_non_sphere_rejected(self):
        with pytest.raises(NotSphere):
            complete_flag(moebius_torus())


class TestCompleteStackedBall:
    def test_two_tetrahedra_frozen(self):
        B = from_facets([(1, 2, 3, 4), (2, 3, 4, 5)])
        result = complete_stacked_ball(B)
        assert result.sphere == get("standard_sphere(3)").complex
        _check_contract(B, result, 3)

    def test_three_triangles_frozen(self):
        B = from_facets([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        result = complete_stacked_ball(B)
        assert result.sphere == from_facets(
            [(1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 5), (1, 4, 5), (3, 4, 5)]
        )
        _check_contract(B, result, 2)

    def test_random_stacked_balls(self):
        rng = random.Random(8)
        for _ in range(10):
            d = rng.randint(2, 5)
            B = random_stacked_ball(rng, d, rng.randint(d + 2, d + 9))
            result = complete_stacked_ball(B)
            _check_contract(B, result, d)

    def test_non_stacked_rejected(self):
        with pytest.raises(NotStackedBall):
            complete_stacked_ball(from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5),
                                               (1, 4, 5)]))

    def test_paths_are_too_flat(self):
        with pytest.raises(DimensionTooLow):
            complete_stacked_ball(from_facets([(1, 2), (2, 3)]))

    def test_single_simplex_too_small(self):
        with pytest.raises(TooFewVertices):
            complete_stacked_ball(from_facets([(1, 2, 3)]))


# inputs that are not closed pseudomanifolds, none of which a chain completes
NOT_CLOSED = [
    from_facets([(1, 2, 3), (1, 3, 4)]),
    from_facets([(1, 2, 3), (1, 3, 4), (1, 4, 5)]),
    from_facets([(1, 2, 3)]),
    get("standard_ball(3)").complex,
    from_facets([(1, 2, 3), (4, 5, 6)]),
]
NOT_CLOSED_IDS = ["4-vertex disc", "5-vertex disc", "triangle", "standard 3-ball",
                  "two triangles"]


class TestCompleteStackedSphere:
    def test_bipyramid_frozen(self):
        S = boundary(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))
        result = complete_stacked_sphere(S)
        assert result.sphere == get("standard_sphere(3)").complex
        _check_contract(S, result, 3)

    def test_random_stacked_spheres(self):
        rng = random.Random(14)
        for _ in range(10):
            d = rng.randint(1, 4)
            S = random_stacked_sphere(rng, d, rng.randint(d + 3, d + 9))
            result = complete_stacked_sphere(S)
            _check_contract(S, result, d + 1)

    def test_non_stacked_rejected(self):
        with pytest.raises(NotStacked):
            complete_stacked_sphere(get("octahedron").complex)

    def test_minimal_sphere_too_small(self):
        with pytest.raises(TooFewVertices, match="^need at least 5 vertices, have 4$"):
            complete_stacked_sphere(get("standard_sphere(2)").complex)

    def test_zero_sphere_is_refused_before_the_vertex_count(self):
        message = "^input is not a closed pseudomanifold of dimension >= 1$"
        with pytest.raises(NotStacked, match=message):
            complete_stacked_sphere(get("standard_sphere(0)").complex)

    @pytest.mark.parametrize("complete", [complete_stacked_sphere, sphere_chain])
    @pytest.mark.parametrize("X", NOT_CLOSED, ids=NOT_CLOSED_IDS)
    def test_not_closed_is_not_stacked(self, complete, X):
        message = "^input is not a closed pseudomanifold of dimension >= 1$"
        with pytest.raises(NotStacked, match=message):
            complete(X)


class TestSphereChain:
    def test_five_cycle_reaches_standard(self):
        chain = sphere_chain(get("cycle(5)").complex)
        assert [c.dim for c in chain] == [1, 2, 3]
        assert chain[0] == get("cycle(5)").complex
        assert is_standard(chain[-1]).sphere
        for small, big in zip(chain, chain[1:]):
            assert is_subcomplex(small, big)
            assert small.vertex_set == big.vertex_set

    def test_standard_input_is_a_singleton_chain(self):
        for d in (0, 2):
            S = get(f"standard_sphere({d})").complex
            assert sphere_chain(S) == [S]

    def test_random_chains(self):
        rng = random.Random(20)
        for _ in range(5):
            S = random_stacked_sphere(rng, 1, rng.randint(5, 8))
            chain = sphere_chain(S)
            assert is_standard(chain[-1]).sphere
            assert chain[-1].dim == S.n_vertices - 2

    def test_step_that_loses_the_input_is_refused(self, monkeypatch):
        # complete_stacked_sphere's finishing check is what guards each step.
        def elsewhere(ball):
            sphere = get("standard_sphere(2)").complex
            return constructions.CompletionResult(sphere, True, ("stub",))

        monkeypatch.setattr(constructions, "complete_stacked_ball", elsewhere)
        with pytest.raises(IntermediateClaimFailed, match="does not contain the input"):
            sphere_chain(get("cycle(5)").complex)


def _ball_outcome(complete, B, u):
    try:
        result = complete(B, u, trust=True)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.sphere, result.trace


class TestCompleteBallDegreeD:
    def test_catalog_ball_rebuilds_gs_sphere(self):
        result = complete_ball_degree_d(get("example43_ball").complex, 8)
        assert result.sphere == get("gs_m38").complex
        _check_contract(get("example43_ball").complex, result, 3)

    def test_default_vertex_scan(self):
        B = from_facets([(1, 2, 3, 4), (2, 3, 4, 5)])
        result = complete_ball_degree_d(B)
        _check_contract(B, result, 3)
        assert certify_sphere(result.sphere).is_certified

    def test_path_closes_to_a_cycle(self):
        # in dimension 1 the boundary is two points, and u's link {()}
        # bounds its one neighbour
        result = complete_ball_degree_d(from_facets([(1, 2), (2, 3)]))
        assert result.sphere == from_facets([(1, 2), (1, 3), (2, 3)])
        assert result.trace == (
            "input: ball certification certified",
            "vertex 1 has degree 1; boundary link is the boundary of (2,)",
            "verified cap intersects the ball exactly in the boundary",
            "done: dim 1, 3 facets on 3 vertices",
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), extra=st.integers(1, 6))
    def test_boundary_link_of_a_degree_d_vertex_is_the_boundary_of_tau(
        self, seed, d, extra
    ):
        # u of degree d lies only in the facet u * tau, so every ridge of it
        # through u has one owner: the boundary link of u is always dtau,
        # and the completion needs no check of it
        B = random_stacked_ball(random.Random(seed), d, d + 1 + extra)
        M = boundary(B)
        for u in B.vertices:
            if degree(B, u) != d:
                continue
            (tau,) = link(B, u).facets
            boundary_link = {tuple(v for v in f if v != u) for f in M.facets if u in f}
            assert boundary_link == set(itertools.combinations(tau, d - 1))
            result = complete_ball_degree_d(B, u, trust=True)
            assert result.trace[1] == (
                f"vertex {u} has degree {d}; boundary link is the boundary of {tuple(tau)}"
            )

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 4),
        kind=st.sampled_from(
            ["any", "stacked", "stacked less one", "stacked plus"]
        ),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_trusted_pure_complexes_match_reference(self, d, kind, seed, data):
        # the link and boundary checks it dropped cannot fail: on any pure
        # complex it gives the sphere, trace or error of the old completion
        rng = random.Random(seed)
        simplices = list(itertools.combinations(range(1, d + 5), d + 1))
        if kind == "any":
            facets = rng.sample(simplices, rng.randint(1, 10))
        else:
            ball = random_stacked_ball(rng, d, d + 2 + rng.randint(0, 4))
            facets = [tuple(f) for f in ball.facets]
            if kind == "stacked less one" and len(facets) > 1:
                facets.pop(rng.randrange(len(facets)))
            elif kind == "stacked plus":
                facets.append(rng.choice(simplices))
        B = from_facets(facets)
        u = data.draw(st.sampled_from((None,) + B.vertices))
        assert _ball_outcome(complete_ball_degree_d, B, u) == _ball_outcome(
            reference_complete_ball_degree_d, B, u
        )

    def test_random_stacked_balls(self):
        rng = random.Random(27)
        for _ in range(8):
            d = rng.randint(2, 4)
            B = random_stacked_ball(rng, d, rng.randint(d + 2, d + 8))
            result = complete_ball_degree_d(B)
            _check_contract(B, result, d)
            assert certify_sphere(result.sphere).is_certified

    def test_closed_complex_rejected(self):
        with pytest.raises(NotBall):
            complete_ball_degree_d(get("gs_m38").complex)

    def test_no_degree_d_vertex(self):
        B = from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
        with pytest.raises(NoDegreeDVertex):
            complete_ball_degree_d(B)

    def test_wrong_explicit_vertex(self):
        B = from_facets([(1, 2, 3, 4), (2, 3, 4, 5)])
        with pytest.raises(NoDegreeDVertex):
            complete_ball_degree_d(B, u=2)


class TestCompleteDisc:
    def test_two_triangles_frozen(self):
        B = from_facets([(1, 2, 3), (1, 3, 4)])
        result = complete_disc(B)
        assert result.sphere == from_facets(STANDARD_2_SPHERE)
        assert any(line.startswith("filled ear") for line in result.trace)
        _check_contract(B, result, 2)

    def test_random_discs(self):
        rng = random.Random(33)
        for _ in range(12):
            B = random_disc(rng, rng.randint(4, 25))
            result = complete_disc(B)
            _check_contract(B, result, 2)
            assert certify_sphere(result.sphere).is_certified

    def test_trace_records_unit_boundary_decrements(self):
        B = random_disc(random.Random(40), 15)
        result = complete_disc(B)
        fills = [line for line in result.trace if line.startswith("filled ear")]
        sizes = []
        for line in fills:
            before, after = line.rsplit("boundary ", 1)[1].split(" -> ")
            sizes.append((int(before), int(after)))
        assert all(b == a - 1 for a, b in sizes)
        assert [a for a, _ in sizes[1:]] == [b for _, b in sizes[:-1]]

    def test_wrong_dimension_rejected(self):
        with pytest.raises(NotDisc):
            complete_disc(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))

    def test_sphere_input_rejected(self):
        with pytest.raises(NotDisc):
            complete_disc(get("octahedron").complex)

    def test_single_triangle_too_small(self):
        with pytest.raises(TooFewVertices):
            complete_disc(from_facets([(1, 2, 3)]))

    def test_trusted_closed_surface_has_no_boundary_cycle(self):
        message = "^boundary is not a single cycle$"
        with pytest.raises(IntermediateClaimFailed, match=message):
            complete_disc(get("octahedron").complex, trust=True)

    @pytest.mark.parametrize("facets", [
        [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)],
        [(1, 2, 3), (4, 5, 6)],
    ], ids=["annulus", "two triangles"])
    def test_trusted_boundary_of_two_cycles(self, facets):
        message = "^boundary is not a single cycle$"
        with pytest.raises(IntermediateClaimFailed, match=message):
            complete_disc(from_facets(facets), trust=True)


def _disc_outcome(complete, B, trust):
    try:
        result = complete(B, trust=trust)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.sphere, result.trace


class TestCompleteDiscMatchesReference:
    """complete_disc updates one boundary cycle per ear and builds the
    sphere once, where it built a complex and its boundary for every ear
    (kept in tests/helpers.py).  Spheres, traces and errors are unchanged,
    on discs and on trusted non-discs."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(
            ["disc", "disc", "holed", "two discs", "capped", "strip", "holed torus"]
        ),
        n=st.integers(4, 30),
        seed=st.integers(0, 2**16),
    )
    def test_random_inputs(self, kind, n, seed):
        rng = random.Random(seed)
        facets = [tuple(f) for f in random_disc(rng, n).facets]
        if kind == "holed":  # a disc, an annulus, or a boundary that pinches
            facets.pop(rng.randrange(len(facets)))
        elif kind == "two discs":  # disjoint, or sharing one vertex
            shift = n - rng.randint(0, 1)
            other = random_disc(rng, rng.randint(4, 12))
            facets += [tuple(v + shift for v in f) for f in other.facets]
        elif kind == "capped":  # closed: the boundary cycle is empty
            top = max(max(f) for f in facets) + 1
            facets += [tuple(r) + (top,) for r in boundary(from_facets(facets)).facets]
        elif kind == "strip":  # a Moebius strip for odd k, an annulus for even k
            k = rng.randint(5, 16)
            facets = [(i, i % k + 1, (i + 1) % k + 1) for i in range(1, k + 1)]
        elif kind == "holed torus":  # filled and capped, it is a torus
            facets = [
                tuple(a % 4 * 4 + b % 4 + 1 for a, b in ((x, y), corner, (x + 1, y + 1)))
                for x in range(4) for y in range(4) for corner in ((x + 1, y), (x, y + 1))
            ]
            for _ in range(rng.randint(1, 3)):
                facets.pop(rng.randrange(len(facets)))
        labels = sorted({v for f in facets for v in f})
        relabel = dict(zip(labels, rng.sample(range(1, 3 * len(labels)), len(labels))))
        B = from_facets([relabel[v] for v in f] for f in facets)
        trust = kind != "disc"
        assert _disc_outcome(complete_disc, B, trust) == _disc_outcome(
            reference_complete_disc, B, trust
        )


def _shifted(X, by):
    return from_facets([v + by for v in f] for f in X.facets)


def _completions():
    """Completions that certify, by name, each a call that takes the budget
    and trust keywords."""
    cp4, cp5, cp6 = (get(f"cross_polytope({k})").complex for k in (4, 5, 6))
    flag2 = random_flag_2sphere(random.Random(12), 9)
    cp4_far = _shifted(cp4, 20)
    c4 = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
    c5 = from_facets([(5, 6), (6, 7), (7, 8), (8, 9), (5, 9)])
    stacked = random_stacked_sphere(random.Random(6), 4, 12)
    ball = get("example43_ball").complex
    disc = random_disc(random.Random(2), 9)
    return {
        "flag cp4": functools.partial(complete_flag, cp4),
        "flag cp5": functools.partial(complete_flag, cp5),
        "flag cp6": functools.partial(complete_flag, cp6),
        "flag 2-sphere": functools.partial(complete_flag, flag2),
        "join cp4*cp4": functools.partial(
            complete_join, join(cp4, cp4_far), [cp4, cp4_far]
        ),
        "join C4*C5": functools.partial(complete_join, join(c4, c5), [c4, c5]),
        "degree stacked": functools.partial(complete_degree_d, stacked),
        "ball-degree example43": functools.partial(complete_ball_degree_d, ball),
        "disc": functools.partial(complete_disc, disc),
    }


class TestCompletionsShareOneBudget:
    """The certifications inside one completion share its budget: each may
    spend the moves the earlier ones left, and none after an Unknown one."""

    @pytest.mark.parametrize("budget", [0, 1, 3, 8, 100])
    def test_spends_at_most_the_budget(self, budget):
        for name, complete in _completions().items():
            with _counted_flips() as flips:
                complete(budget=budget)
            assert flips[0] <= budget, name

    @pytest.mark.parametrize("trust", [False, True])
    def test_a_negative_budget_is_refused_first(self, monkeypatch, trust):
        def unreachable(*args, **kwargs):
            raise AssertionError("certified with a refused budget")

        monkeypatch.setattr(constructions, "certify_sphere", unreachable)
        monkeypatch.setattr(constructions, "certify_ball", unreachable)
        refusals = [(-1, ValueError, "budget must be >= 0, got -1")]
        refusals += [(b, TypeError, f"budget must be an int, got {b}")
                     for b in (2.5, True, 10000.0)]
        for name, complete in _completions().items():
            for budget, error, message in refusals:
                with pytest.raises(error) as exc:
                    complete(budget=budget, trust=trust)
                assert str(exc.value) == message, name

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["stacked sphere", "pseudomanifold", "stacked ball",
                                 "flag", "join", "cross_polytope(6)"]),
           budget=st.integers(0, 40), seed=st.integers(0, 2**16))
    def test_random_inputs_spend_at_most_the_budget(self, kind, budget, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        n = rng.randint(d + 3, d + 10)
        if kind == "stacked sphere":
            call = functools.partial(certify_sphere, random_stacked_sphere(rng, d, n))
        elif kind == "pseudomanifold":
            call = functools.partial(certify_sphere, random_closed_pseudomanifold(rng))
        elif kind == "stacked ball":
            call = functools.partial(certify_ball, random_stacked_ball(rng, d, n))
        elif kind == "cross_polytope(6)":
            # the walk re-chooses from move 34 on
            call = functools.partial(certify_sphere, get(kind).complex)
        elif kind == "flag":
            call = functools.partial(
                complete_flag, get(f"cross_polytope({rng.randint(4, 6)})").complex
            )
        else:
            a, b = (get(f"cross_polytope({rng.randint(2, 4)})").complex
                    for _ in range(2))
            b = _shifted(b, 20)
            call = functools.partial(complete_join, join(a, b), [a, b])
        with _counted_flips() as flips:
            call(budget=budget, seed=seed)
        assert flips[0] <= budget

    def test_the_glued_sphere_gets_what_the_input_left(self):
        # cp4 certifies in 7 moves and its glued sphere in 3 more
        S = get("cross_polytope(4)").complex
        with _counted_flips() as flips:
            complete_flag(S)
        for budget, status in ((flips[0], "certified"), (flips[0] - 1, "unknown")):
            line = complete_flag(S, budget=budget).trace[2]
            assert line == f"glued sphere without 1: certification {status}"


class TestMeetCheckMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), pick=st.integers(0, 4))
    def test_random_ball_pairs(self, seed, pick):
        rng = random.Random(seed)
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        P = random_stacked_ball(rng, d, rng.randint(d + 1, d + 6))
        Q = random_stacked_ball(rng, e, rng.randint(e + 1, e + 6))
        R = [P, Q, boundary(P), boundary(Q),
             random_stacked_ball(rng, d, rng.randint(d + 1, d + 6))][pick]
        assert _meet_inside(P, Q, R) == reference_meet_inside(P, Q, R)


class TestOneRidgeMapPerComplex:
    """A completion builds complexes, then certifies them, caps them along
    their boundary or suspends them.  Those steps read one ridge map per
    complex: no complex builds its own twice.  A stacked sphere builds none,
    since its vertex collapses reduce it before any check reads its ridges."""

    @pytest.mark.parametrize("complete, make_input, input_builds", [
        (complete_ball_degree_d, lambda rng: get("example43_ball").complex, True),
        (complete_disc, lambda rng: random_disc(rng, 9), True),
        (complete_degree_d, lambda rng: random_stacked_sphere(rng, 3, 12), True),
        (complete_flag, lambda rng: get("cross_polytope(4)").complex, True),
        (complete_stacked_sphere, lambda rng: random_stacked_sphere(rng, 3, 12),
         False),
    ], ids=["ball_degree_d", "disc", "degree_d", "flag", "stacked_sphere"])
    def test_no_ridge_map_is_built_twice(
        self, monkeypatch, complete, make_input, input_builds
    ):
        X = make_input(random.Random(2))
        built = record_ridge_map_builds(monkeypatch)
        complete(X)
        owners = [id(Y) for Y, _ in built.values()]
        assert (id(X) in owners) == input_builds
        assert len(set(owners)) == len(owners)
