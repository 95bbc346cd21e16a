import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combisphere import (
    boundary,
    certify_ball,
    certify_sphere,
    collapse_stacked_sphere_to_ball,
    degree,
    from_facets,
    get,
    is_flag,
    is_stacked_ball,
    is_standard,
    join,
)
from combisphere import recognition
from combisphere.recognition import DEFAULT_BUDGET
from combisphere.errors import NotStacked
from helpers import (
    apply_trace,
    moebius_torus,
    random_disc,
    random_flag_2sphere,
    random_stacked_ball,
    random_stacked_sphere,
    reference_collapse_stacked_sphere_to_ball,
    reference_greedy_reduce,
)


class TestIsStandard:
    def test_single_facet_is_a_ball(self):
        r = is_standard(from_facets([(2, 5, 9)]))
        assert r.ball and not r.sphere

    def test_simplex_boundary_is_a_sphere(self):
        r = is_standard(get("standard_sphere(3)").complex)
        assert r.sphere and not r.ball

    def test_generic_complex_is_neither(self):
        r = is_standard(get("octahedron").complex)
        assert not r.ball and not r.sphere


class TestDegree:
    def test_neighbourly_sphere(self):
        m38 = get("gs_m38").complex
        assert all(degree(m38, v) == 7 for v in m38.vertices)

    def test_example43_vertex_8(self):
        assert degree(get("example43_ball").complex, 8) == 3

    def test_octahedron(self):
        octa = get("octahedron").complex
        assert [degree(octa, v) for v in octa.vertices] == [4] * 6


class TestCertifySphere:
    @pytest.mark.parametrize("d", range(6))
    def test_standard_spheres(self, d):
        v = certify_sphere(get(f"standard_sphere({d})").complex)
        assert v.is_certified

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_cycles(self, n):
        assert certify_sphere(get(f"cycle({n})").complex).is_certified

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cross_polytopes(self, k):
        assert certify_sphere(get(f"cross_polytope({k})").complex).is_certified

    def test_catalog_spheres(self):
        for name in ("gs_m38", "gs_s37", "gs_s48", "barnette", "barnette_join"):
            v = certify_sphere(get(name).complex)
            assert v.is_certified, name

    def test_certified_traces_replay_to_standard(self):
        for name in ("gs_m38", "gs_s48"):
            X = get(name).complex
            v = certify_sphere(X)
            assert is_standard(apply_trace(X, v.trace)).sphere

    def test_random_stacked_spheres(self):
        rng = random.Random(3)
        for _ in range(15):
            d = rng.randint(1, 4)
            S = random_stacked_sphere(rng, d, rng.randint(d + 3, d + 8))
            assert certify_sphere(S).is_certified

    def test_torus_refuted_on_euler_characteristic(self):
        v = certify_sphere(moebius_torus())
        assert v.is_refuted
        assert "Euler characteristic" in v.reason

    def test_ball_refuted_on_boundary(self):
        v = certify_sphere(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)]))
        assert v.is_refuted
        assert "boundary" in v.reason

    def test_disjoint_spheres_refuted(self):
        X = from_facets([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        v = certify_sphere(X)
        assert v.is_refuted

    def test_three_points_refuted(self):
        assert certify_sphere(from_facets([(1,), (2,), (3,)])).is_refuted
        assert certify_sphere(from_facets([(1,), (2,)])).is_certified

    def test_torus_times_circle_join_refuted_via_links(self):
        # 5-dimensional, chi = 0 as a 5-sphere would have, but every vertex
        # of the first factor has a torus-join link with the wrong chi
        X = join(moebius_torus(), _shifted_torus())
        v = certify_sphere(X, budget=0)
        assert v.is_refuted
        assert "link" in v.reason

    def test_unknown_on_exhausted_budget(self):
        S = random_stacked_sphere(random.Random(5), 3, 9)
        v = certify_sphere(S, budget=0)
        assert v.is_unknown
        assert "budget" in v.reason

    def test_budget_monotone(self):
        S = random_stacked_sphere(random.Random(5), 3, 9)
        assert certify_sphere(S, budget=0).is_unknown
        assert certify_sphere(S, budget=10000).is_certified

    def test_deterministic(self):
        X = get("gs_m38").complex
        assert certify_sphere(X, seed=1) == certify_sphere(X, seed=1)


def _shifted_torus():
    base = moebius_torus()
    return from_facets([tuple(v + 7 for v in f) for f in base.facets])


class TestCertifyBall:
    def test_standard_balls(self):
        for d in range(4):
            assert certify_ball(get(f"standard_ball({d})").complex).is_certified

    def test_two_tetrahedra(self):
        assert certify_ball(from_facets([(1, 2, 3, 4), (2, 3, 4, 5)])).is_certified

    def test_catalog_balls(self):
        for name in ("gs_ball_C", "gs_ball_D", "example43_ball"):
            assert certify_ball(get(name).complex).is_certified, name

    def test_random_discs(self):
        rng = random.Random(9)
        for _ in range(10):
            assert certify_ball(random_disc(rng, rng.randint(4, 12))).is_certified

    def test_closed_complex_refuted(self):
        v = certify_ball(get("gs_m38").complex)
        assert v.is_refuted
        assert "boundary" in v.reason

    def test_multiple_points_refuted(self):
        assert certify_ball(from_facets([(1,), (2,)])).is_refuted
        assert certify_ball(from_facets([(4,)])).is_certified

    def test_non_pseudomanifold_refuted(self):
        assert certify_ball(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])).is_refuted


class TestIsStackedBall:
    def test_random_stacked_balls_with_witness(self):
        rng = random.Random(17)
        for _ in range(15):
            d = rng.randint(1, 5)
            B = random_stacked_ball(rng, d, rng.randint(d + 2, d + 9))
            report = is_stacked_ball(B)
            assert report.stacked
            _check_witness(B, report.witness)

    def test_counting_identity_holds_on_witnessed_balls(self):
        rng = random.Random(23)
        for _ in range(10):
            B = random_stacked_ball(rng, 3, rng.randint(5, 14))
            assert B.n_vertices == B.n_facets + B.dim

    def test_closed_sphere_rejected(self):
        report = is_stacked_ball(get("octahedron").complex)
        assert not report.stacked and report.witness is None

    def test_cone_over_square_rejected(self):
        B = from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
        assert not is_stacked_ball(B).stacked

    def test_reasons_keep_their_order(self):
        three_owners = from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)])
        cycle = from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
        # as many shared ridges as a tree has, but two components
        cycle_and_triangle = from_facets(list(cycle.facets) + [(6, 7, 8)])
        path_on_too_few_vertices = from_facets(
            [(1, 2, 3), (2, 3, 4), (2, 4, 5), (1, 4, 5)]
        )
        reasons = [
            is_stacked_ball(X).reason
            for X in (three_owners, cycle, cycle_and_triangle, path_on_too_few_vertices)
        ]
        assert reasons == [
            "a ridge lies in three or more facets",
            "facet-adjacency graph is not a tree",
            "facet-adjacency graph is not a tree",
            "f_0 = 5 != f_top + dim = 6",
        ]

    def test_single_simplex_is_stacked(self):
        report = is_stacked_ball(from_facets([(1, 2, 3, 4)]))
        assert report.stacked
        assert report.witness.facets == ((1, 2, 3, 4),)
        assert report.witness.attachments == ()


def _check_witness(B, witness):
    assert witness is not None
    assert len(witness.attachments) == len(witness.facets) - 1
    seen = {witness.facets[0]}
    verts = set(witness.facets[0])
    for facet, (ridge, apex) in zip(witness.facets[1:], witness.attachments):
        assert apex not in verts
        assert set(ridge) | {apex} == set(facet)
        assert sum(1 for f in seen if set(ridge) <= set(f)) == 1
        seen.add(facet)
        verts.add(apex)
    assert seen == set(B.facets)


class TestCollapseStackedSphere:
    def test_round_trip_boundary(self):
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(1, 4)
            S = random_stacked_sphere(rng, d, rng.randint(d + 3, d + 9))
            ball = collapse_stacked_sphere_to_ball(S)
            assert ball.dim == S.dim + 1
            assert boundary(ball) == S
            assert is_stacked_ball(ball).stacked
            assert ball.n_vertices == ball.n_facets + ball.dim

    def test_standard_sphere_bounds_a_simplex(self):
        ball = collapse_stacked_sphere_to_ball(get("standard_sphere(2)").complex)
        assert ball == from_facets([(1, 2, 3, 4)])

    def test_torus_rejected(self):
        with pytest.raises(NotStacked):
            collapse_stacked_sphere_to_ball(moebius_torus())

    def test_octahedron_rejected(self):
        with pytest.raises(NotStacked):
            collapse_stacked_sphere_to_ball(get("octahedron").complex)

    def test_gs_sphere_rejected(self):
        with pytest.raises(NotStacked):
            collapse_stacked_sphere_to_ball(get("gs_m38").complex)


class TestIsFlag:
    def test_cross_polytopes_are_flag(self):
        for k in (2, 3, 4):
            assert is_flag(get(f"cross_polytope({k})").complex)

    def test_standard_spheres_are_not(self):
        assert not is_flag(get("standard_sphere(2)").complex)
        assert not is_flag(get("cycle(3)").complex)

    def test_long_cycles_are_flag(self):
        assert is_flag(get("cycle(4)").complex)
        assert is_flag(get("cycle(7)").complex)

    def test_empty_triangle_breaks_flagness(self):
        S = from_facets(
            [(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)]
        )
        assert not is_flag(S)

    def test_random_subdivided_octahedra_are_flag(self):
        rng = random.Random(41)
        for _ in range(8):
            S = random_flag_2sphere(rng, rng.randint(6, 10))
            assert is_flag(S)
            assert certify_sphere(S).is_certified


def _join_of_cycles(*lengths):
    X, shift = None, 0
    for k in lengths:
        C = from_facets([(shift + i, shift + i % k + 1) for i in range(1, k + 1)])
        X = C if X is None else join(X, C)
        shift += k
    return X


class TestWalkMatchesReference:
    """The incremental walk against the rescanning walk it replaced, kept in
    tests/helpers.py: same verdicts, reasons and traces, seed by seed."""

    @pytest.fixture
    def on_reference(self, monkeypatch):
        def run(fn, *args):
            with monkeypatch.context() as m:
                m.setattr(recognition, "_greedy_reduce", reference_greedy_reduce)
                return fn(*args)

        return run

    def _assert_same(self, on_reference, fn, X, seeds, budget=DEFAULT_BUDGET):
        for seed in seeds:
            assert fn(X, budget, seed) == on_reference(fn, X, budget, seed), seed

    def test_random_stacked_spheres(self, on_reference):
        rng = random.Random(57)
        for d in (3, 4, 5):
            for _ in range(3):
                S = random_stacked_sphere(rng, d, rng.randint(d + 4, d + 10))
                self._assert_same(on_reference, certify_sphere, S, (0, 1, 2))

    @pytest.mark.parametrize("name", ["cross_polytope(4)", "cross_polytope(5)",
                                      "gs_s48", "barnette_join"])
    def test_catalog_spheres(self, on_reference, name):
        self._assert_same(on_reference, certify_sphere, get(name).complex, (0, 1, 7))

    def test_cross_polytope_6_cycles_undoes_and_recurses(self, on_reference):
        X = get("cross_polytope(6)").complex
        v = certify_sphere(X, 100, 0)
        assert v.is_unknown
        assert v == on_reference(certify_sphere, X, 100, 0)

    @pytest.mark.parametrize("lengths", [(3, 4), (4, 5), (5, 6), (3, 3, 4)])
    def test_joins_of_cycles(self, on_reference, lengths):
        X = _join_of_cycles(*lengths)
        self._assert_same(on_reference, certify_sphere, X, (0, 3))

    def test_capped_stacked_balls(self, on_reference):
        rng = random.Random(61)
        for d in (2, 3, 4):
            B = random_stacked_ball(rng, d, rng.randint(d + 3, d + 8))
            self._assert_same(on_reference, certify_ball, B, (0, 5))

    def test_budget_cut_mid_walk(self, on_reference):
        X = get("gs_s48").complex
        for budget in (0, 1, 3, 8):
            self._assert_same(on_reference, certify_sphere, X, (0, 2), budget)

    def test_collapse_matches_reference(self):
        rng = random.Random(67)
        for _ in range(12):
            d = rng.randint(1, 4)
            S = random_stacked_sphere(rng, d, rng.randint(d + 2, d + 9))
            assert collapse_stacked_sphere_to_ball(S) == (
                reference_collapse_stacked_sphere_to_ball(S)
            )
        for name in ("octahedron", "gs_m38", "cross_polytope(4)"):
            S = get(name).complex
            with pytest.raises(NotStacked) as new:
                collapse_stacked_sphere_to_ball(S)
            with pytest.raises(NotStacked) as old:
                reference_collapse_stacked_sphere_to_ball(S)
            assert str(new.value) == str(old.value)

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(3, 5),
        extra=st.integers(2, 8),
        seed=st.integers(0, 2**16),
    )
    def test_traces_match_and_replay(self, dim, extra, seed):
        S = random_stacked_sphere(random.Random(seed), dim, dim + extra)
        ok, trace = recognition._greedy_reduce(S, DEFAULT_BUDGET, seed)
        assert (ok, trace) == reference_greedy_reduce(S, DEFAULT_BUDGET, seed)
        assert ok and is_standard(apply_trace(S, trace)).sphere
