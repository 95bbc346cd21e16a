import contextlib
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from combisphere import (
    anti_star,
    boundary,
    generalized_bistellar_move,
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
    link,
)
from combisphere import Complex, recognition
from combisphere.recognition import (
    CERTIFIED, DEFAULT_BUDGET, REFUTED, UNKNOWN, StackedBallReport, Verdict,
)
from combisphere.errors import NotStacked, VertexNotPresent
from helpers import (
    _counted_flips,
    _reference_ordered_ridge_map,
    _reference_reduction_moves,
    apply_trace,
    barycentric_subdivision,
    face_polynomial,
    moebius_torus,
    pinched_coned_solid_torus,
    random_disc,
    random_flag_2sphere,
    random_stacked_ball,
    random_stacked_sphere,
    record_ridge_map_builds,
    reference_certify_ball,
    reference_certify_sphere,
    reference_certify_surface,
    reference_collapse_stacked_sphere_to_ball,
    reference_greedy_reduce,
    reference_is_flag,
    reference_is_stacked_ball,
    reference_link_screen,
    reference_pool,
    reference_screens,
    reference_sphere_gates,
    reference_surface_link_loop,
    replays_to_standard_sphere,
    staircase_product,
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

    def test_empty_complex(self):
        empty = boundary(get("cross_polytope(3)").complex)
        assert tuple(is_standard(empty)) == (False, False)
        assert not is_flag(empty)
        sphere, ball = certify_sphere(empty), certify_ball(empty)
        assert (sphere.status, sphere.reason) == (
            "refuted", "the empty complex is not a sphere")
        assert (ball.status, ball.reason) == ("refuted", "the empty complex is not a ball")


class TestDegree:
    def test_neighbourly_sphere(self):
        m38 = get("gs_m38").complex
        assert all(degree(m38, v) == 7 for v in m38.vertices)

    def test_example43_vertex_8(self):
        assert degree(get("example43_ball").complex, 8) == 3

    def test_octahedron(self):
        octa = get("octahedron").complex
        assert [degree(octa, v) for v in octa.vertices] == [4] * 6

    def test_vertex_absent(self):
        with pytest.raises(VertexNotPresent, match="^vertex 9 not in the complex$"):
            degree(get("octahedron").complex, 9)


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
        expected = Verdict(REFUTED, "link of vertex 1 has Euler characteristic 0 != 2")
        assert v == expected
        assert reference_link_screen(X) == expected

    @pytest.mark.parametrize("apex, pinch, reason", [
        # the pinched vertex fails both link checks: the pseudomanifold one is named
        (20, 1, "link of vertex 1 is not a closed pseudomanifold"),
        # the first bad vertex is named, even when a later one fails the other check
        (1, 20, "link of vertex 1 has Euler characteristic 0 != 2"),
    ])
    def test_pinched_coned_solid_torus_refuted_via_links(self, apex, pinch, reason):
        X = pinched_coned_solid_torus(apex, pinch)
        # the global gates pass: a closed 3-pseudomanifold with chi = 0
        assert X.dim == 3
        assert set(_ridge_counts(X).values()) == {2}
        assert _chi(X) == 0
        assert _chi(link(X, apex)) == 0 and _chi(link(X, pinch)) == 4
        expected = Verdict(REFUTED, reason)
        assert certify_sphere(X) == expected
        assert reference_link_screen(X) == expected

    def test_unknown_on_exhausted_budget(self):
        S = random_stacked_sphere(random.Random(5), 3, 9)
        v = certify_sphere(S, budget=0)
        assert v.is_unknown
        assert "budget" in v.reason

    def test_negative_budget_raises(self):
        ball = random_stacked_ball(random.Random(5), 4, 10)
        for certify, X in ((certify_sphere, boundary(ball)), (certify_ball, ball)):
            with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
                certify(X, budget=-1)
            for budget in (2.5, True, 10000.0):
                with pytest.raises(TypeError, match=f"^budget must be an int, got {budget}$"):
                    certify(X, budget=budget)
            assert certify(X, budget=0).is_unknown

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


def _ridge_counts(X):
    counts = {}
    for f in X.facets:
        for i in range(len(f)):
            r = f[:i] + f[i + 1 :]
            counts[r] = counts.get(r, 0) + 1
    return counts


def _chi(X):
    counts = face_polynomial(list(X.facets))
    return sum((-1) ** (k - 1) * c for k, c in counts.items() if k)


def _pinch(X, rng, times):
    """Identify pairs of vertices that share no edge, up to `times` times.

    Pairs whose links are disjoint as well are preferred: identifying them
    keeps a closed pseudomanifold, with one vertex link of two cycles.
    """
    for _ in range(times):
        nbrs = {v: set() for v in X.vertices}
        for f in X.facets:
            for v in f:
                nbrs[v].update(f)
        pairs = [(a, b) for a, b in itertools.combinations(X.vertices, 2)
                 if b not in nbrs[a]]
        far = [(a, b) for a, b in pairs if not nbrs[a] & nbrs[b]]
        if not pairs:
            break
        a, b = rng.choice(far if far and rng.random() < 0.7 else pairs)
        X = from_facets(
            {tuple(sorted(b if v == a else v for v in f)) for f in X.facets}
        )
    return X


def _surface(kind, rng):
    if kind == "stacked":
        return random_stacked_sphere(rng, 2, rng.randint(4, 16))
    if kind == "torus":
        return moebius_torus()
    a = random_stacked_sphere(rng, 2, rng.randint(4, 8))
    b = random_stacked_sphere(rng, 2, rng.randint(4, 8))
    shift = max(a.vertices)
    return from_facets(a.facets + tuple(tuple(v + shift for v in f) for f in b.facets))


def _suspend(X):
    top = max(X.vertices)
    return join(X, from_facets([(top + 1,), (top + 2,)]))


def _gate_base(kind, dim, rng):
    if kind == "stacked":
        return random_stacked_sphere(rng, dim, rng.randint(dim + 2, dim + 8))
    if kind == "cross":
        return get(f"cross_polytope({dim + 1})").complex
    if kind == "torus":  # closed, not a sphere: suspension points link a torus
        X = moebius_torus()
    else:  # closed, not a sphere, with the Euler characteristic of one
        X = pinched_coned_solid_torus(rng.randint(1, 10), rng.randint(11, 20))
    while X.dim < dim:
        X = _suspend(X)
    return X


def _planted_complex(kind, dim, union, removed, planted, rng):
    """A pure dim-complex from a closed base: optionally a second copy glued
    on (disjointly, at one vertex, or along an edge, never along a ridge),
    some facets removed, facets planted on existing ridges so that they have
    three or more owners, then randomly relabelled."""
    X = _gate_base(kind, dim, rng)
    facets = [tuple(f) for f in X.facets]
    top = max(X.vertices)
    if union is not None:
        Y = _gate_base(kind, dim, rng)
        shared = {"disjoint": 0, "wedge": 1, "edge": 2}[union]
        glue = dict(zip(Y.facets[0][:shared], facets[0][:shared]))
        facets += [tuple(glue.get(v, v + top) for v in f) for f in Y.facets]
        top += max(Y.vertices)
    for _ in range(min(removed, len(facets) - 1)):
        facets.pop(rng.randrange(len(facets)))
    for _ in range(planted):
        f = rng.choice(facets)
        i = rng.randrange(dim + 1)
        ridge = f[:i] + f[i + 1 :]
        apex = rng.choice([top + 1, top + 2, rng.randint(1, top)])
        if apex not in ridge:
            facets.append(ridge + (apex,))
    labels = sorted({v for f in facets for v in f})
    relabel = dict(zip(labels, rng.sample(range(1, 3 * len(labels) + 1), len(labels))))
    return from_facets([relabel[v] for v in f] for f in facets)


_PLANTED = dict(
    kind=st.sampled_from(["stacked", "cross", "torus", "pinched"]),
    dim=st.sampled_from([3, 4]),
    union=st.sampled_from([None] * 6 + ["disjoint", "wedge", "edge"]),
    removed=st.sampled_from([0] * 4 + [1, 2, 3]),
    planted=st.sampled_from([0] * 4 + [1, 2, 3, 5]),
    seed=st.integers(0, 2**16),
)


class TestSphereGatesMatchReference:
    """certify_sphere reads its pseudomanifold and closedness gates off the
    ridge map and facet graph of X.  Their verdicts, down to the ridge each
    reason names, are those of the gates it ran before."""

    @settings(max_examples=150, deadline=None)
    @given(**_PLANTED)
    def test_planted_features(self, kind, dim, union, removed, planted, seed):
        X = _planted_complex(kind, dim, union, removed, planted, random.Random(seed))
        verdict = certify_sphere(X, budget=20)
        expected = reference_sphere_gates(X)
        if expected is not None:
            assert verdict == expected
        else:
            assert not verdict.reason.startswith(
                ("not a pseudomanifold", "has boundary")
            )

    @settings(max_examples=150, deadline=None)
    @given(**_PLANTED)
    def test_collapses_before_the_gates_are_sound(
        self, kind, dim, union, removed, planted, seed
    ):
        # the vertex collapses run before the gates, at the default budget
        # too: a complex they reduce is a PL sphere, which no gate refutes,
        # and one they do not reduce keeps its first failing gate
        X = _planted_complex(kind, dim, union, removed, planted, random.Random(seed))
        verdict = certify_sphere(X)
        expected = reference_sphere_gates(X)
        if expected is not None:
            assert verdict == expected
        if verdict.is_certified:
            assert replays_to_standard_sphere(X, verdict.trace)

    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_low_dimensions(self, dim, data):
        simplices = list(itertools.combinations(range(1, 8), dim + 1))
        facets = st.sets(st.sampled_from(simplices), min_size=1, max_size=14)
        X = from_facets(data.draw(facets))
        verdict = certify_sphere(X)
        expected = reference_sphere_gates(X)
        if expected is not None:
            assert verdict == expected
        else:
            assert not verdict.reason.startswith(
                ("not a pseudomanifold", "has boundary")
            )

    def test_points(self):
        # the empty face is the one ridge of a 0-complex
        assert certify_sphere(from_facets([(1,)])) == Verdict(
            REFUTED, "has boundary: ridge () lies in exactly one facet"
        )
        assert certify_sphere(from_facets([(1,), (2,)])) == Verdict(
            CERTIFIED, "exact (dim 0): two points"
        )
        assert certify_sphere(from_facets([(1,), (2,), (3,)])) == Verdict(
            REFUTED, "not a pseudomanifold: ridge () lies in 3 facets"
        )

    def test_the_move_index_holds_only_what_pool_settles(self, monkeypatch):
        events = []
        init, index = recognition._MoveIndex.__init__, recognition._MoveIndex.index
        settle, flip = recognition._MoveIndex.settle, recognition._MoveIndex.flip

        def recorded_init(self, X):
            events.append("init")
            init(self, X)

        def recorded_index(self, k):
            events.append(k)
            index(self, k)

        def recorded_settle(self, k):
            if k not in self._dirty:  # the first settle of size k
                events.append(("settle", k))
            settle(self, k)

        def recorded_flip(self, *move):
            events.append("flip")
            flip(self, *move)

        for name, wrapper in (("__init__", recorded_init), ("index", recorded_index),
                              ("settle", recorded_settle), ("flip", recorded_flip)):
            monkeypatch.setattr(recognition._MoveIndex, name, wrapper)
        # the vertex collapses come before the gates: a refused input indexes
        # and settles only the vertices, and collapses what it can, first
        X = _planted_complex("stacked", 4, "wedge", 0, 0, random.Random(3))
        assert certify_sphere(X).is_refuted
        assert [e for e in events if e != "flip"] == ["init", 1, ("settle", 1)]
        assert "flip" in events
        # a stacked sphere is reduced by vertex collapses alone, and only the
        # vertices are indexed
        rng = random.Random(5)
        for d in (3, 4, 5):
            events.clear()
            assert certify_sphere(random_stacked_sphere(rng, d, d + 12)).is_certified
            assert [e for e in events if e != "flip"] == ["init", 1, ("settle", 1)]
        # the first settle of size k indexes k and dim + 2 - k, unless they
        # are indexed already: cross_polytope(5) has no vertex move, and its
        # pool settles the edges with the ridges, then the triangles, then
        # the ridges, which are indexed.  Subdivided, its first move is the
        # collapse, and the same sizes follow
        cp5 = get("cross_polytope(5)").complex
        expected = ["init", 1, ("settle", 1), ("settle", 2), 2, 4, ("settle", 3), 3,
                    ("settle", 4)]
        for X, before_first_flip in (
            (cp5, 9), (_subdivided(cp5, random.Random(0))[0], 3),
        ):
            events.clear()
            assert certify_sphere(X).is_certified
            assert [e for e in events if e != "flip"] == expected
            assert events.index("flip") == before_first_flip

    def test_collapsed_inputs_build_no_map(self, monkeypatch):
        # certify_sphere and collapse_stacked_sphere_to_ball read neither map
        # of an input the vertex collapses reduce; certify_ball reads its
        # input's, for the gate and the boundary, and none of the capped sphere
        rng = random.Random(6)
        spheres = [random_stacked_sphere(rng, d, d + 12) for d in (3, 4, 5)]
        B = random_stacked_ball(rng, 3, 15)
        cross = [get(f"cross_polytope({n})").complex for n in (4, 5)]
        built = [record_ridge_map_builds(monkeypatch, name)
                 for name in ("_ridge_map", "_facet_graph")]

        def owners():
            found = [[Y for Y, _ in maps.values()] for maps in built]
            for maps in built:
                maps.clear()
            return found

        for S in spheres:
            assert certify_sphere(S).is_certified
            assert collapse_stacked_sphere_to_ball(S).dim == S.dim + 1
            assert owners() == [[], []]
        assert certify_ball(B).is_certified
        assert owners() == [[B], [B]]
        # collapses stall on a cross-polytope: the gates and screens build
        # each map once
        for X in cross:
            assert certify_sphere(X).is_certified
            assert owners() == [[X], [X]]

    def test_named_ridge_follows_ridge_map_order(self):
        # the ridges (1, 2, 3) and (1, 2, 4) each lie in three facets; the
        # name is (1, 2, 4), first by dropped position in the facet
        # (1, 2, 3, 4), though the ridge map, keyed in itertools.combinations
        # order, meets (1, 2, 3) first
        X = from_facets([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 7),
                         (1, 2, 4, 8)])
        expected = Verdict(
            REFUTED, "not a pseudomanifold: ridge (1, 2, 4) lies in 3 facets"
        )
        assert reference_sphere_gates(X) == expected
        assert certify_sphere(X) == expected

    def test_one_ridge_map_and_no_face_counts(self, monkeypatch):
        def forbidden(name):
            def guarded(X):
                raise AssertionError(f"{name} on a {X.dim}-complex")
            return guarded

        monkeypatch.setattr(recognition, "pseudomanifold_check",
                            forbidden("pseudomanifold_check"))
        # euler_characteristic counts the f-vector, and recognition no longer imports it
        monkeypatch.setattr(Complex, "f_vector", property(forbidden("f_vector")))
        assert not hasattr(recognition, "euler_characteristic")
        built = record_ridge_map_builds(monkeypatch)
        S = random_stacked_sphere(random.Random(1), 2, 9)
        for X in (
            from_facets([(1,), (2,)]),
            get("cycle(5)").complex,
            get("octahedron").complex,
            moebius_torus(),
            from_facets(tuple(9 if v == 2 else v for v in f) for f in S.facets),
            get("cross_polytope(4)").complex,
            pinched_coned_solid_torus(1, 2),
            join(moebius_torus(), _shifted_torus()),
            _planted_complex("stacked", 3, "wedge", 1, 2, random.Random(3)),
        ):
            built.clear()
            assert certify_sphere(X, budget=20).reason
            assert [Y for Y, _ in built.values()] == [X]


def _reference_low_dim_verdict(X):
    """certify_sphere through dimension 2 as it was, on _ridge_map and the
    f-vector: the gates, then chi, then the exact reason of the dimension."""
    if X.dim == 2:
        return reference_certify_surface(X)
    if X.dim == 0 and X.n_facets == 1:  # the reference boundary needs dim >= 1
        return Verdict(REFUTED, "has boundary: ridge () lies in exactly one facet")
    gates = reference_sphere_gates(X)
    if gates is not None:
        return gates
    chi, expected = _chi(X), 1 + (-1) ** X.dim
    if chi != expected:
        return Verdict(REFUTED, f"Euler characteristic {chi} != {expected}")
    if X.dim == 0:
        return Verdict(CERTIFIED, "exact (dim 0): two points")
    return Verdict(
        CERTIFIED, "exact (dim 1): connected closed 1-pseudomanifold is one cycle"
    )


class TestLowDimensionsMatchReference:
    """Dimensions 0 to 2 read their gates and chi off X's ridge map as the
    higher ones do, where they read the f-vector.  Every verdict is the one
    that gave, down to the ridge each reason names."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([0, 1, 2]),
        kind=st.sampled_from(["stacked", "cross", "torus"]),
        union=st.sampled_from([None] * 4 + ["disjoint", "wedge", "edge"]),
        removed=st.sampled_from([0] * 4 + [1, 2]),
        planted=st.sampled_from([0] * 4 + [1, 2, 3]),
        pinches=st.sampled_from([0, 0, 1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_random_complexes(self, dim, kind, union, removed, planted, pinches, seed):
        assume(kind != "torus" or dim == 2)
        rng = random.Random(seed)
        X = _planted_complex(kind, dim, union, removed, planted, rng)
        X = _pinch(X, rng, pinches)
        assert certify_sphere(X) == _reference_low_dim_verdict(X)


class TestLinkScreenMatchesReference:
    """_Screens reads X, its ridge map and its facet graph, where the
    screens built every link and counted the f-vector (kept in
    tests/helpers.py).  Both give the same first refutation, or none, for
    chi(X) and the vertex links and, called directly, for the larger faces."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross", "torus", "pinched"]),
        dim=st.sampled_from([3, 4]),
        pinches=st.sampled_from([0, 1, 1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_closed_pseudomanifolds(self, kind, dim, pinches, seed):
        rng = random.Random(seed)
        X = _pinch(_planted_complex(kind, dim, None, 0, 0, rng), rng, pinches)
        if reference_sphere_gates(X) is not None:
            return
        screens = recognition._Screens(X)
        expected = reference_screens(X)
        assert screens.stalled() == expected
        # a complex the screens refute is no sphere, so collapses stall on it
        if expected is not None:
            assert certify_sphere(X, budget=20) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross", "torus", "pinched"]),
        dim=st.sampled_from([4, 5]),
        pinches=st.sampled_from([0, 1, 1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_face_links(self, kind, dim, pinches, seed):
        rng = random.Random(seed)
        X = _pinch(_planted_complex(kind, dim, None, 0, 0, rng), rng, pinches)
        if reference_sphere_gates(X) is not None:
            return
        sizes = range(2, X.dim - 1)
        assert recognition._Screens(X).links(sizes) == reference_link_screen(X, sizes)

    def test_face_screen_names_the_first_failing_face(self):
        # chi(X) refutes torus * S0 * S0 inside certify_sphere, and so do its
        # vertex links; called alone, the face screen finds the edge that
        # the torus links
        X = join(_suspend(moebius_torus()), from_facets([(10,), (11,)]))
        assert certify_sphere(X).reason == "Euler characteristic 0 != 2"
        expected = Verdict(
            REFUTED, "link of face (8, 10) has Euler characteristic 0 != 2"
        )
        assert recognition._Screens(X).links(range(2, X.dim - 1)) == expected
        assert reference_link_screen(X, (2,)) == expected


def _cycle(n):
    return from_facets((i, i % n + 1) for i in range(1, n + 1))


def _not_a_sphere(name):
    """Closed manifolds whose homology is not a sphere's, with their facet
    counts: S2 x S1, T3, the suspension of S2 x S1 and the join of S2 x S1
    with a 3-cycle."""
    tetrahedron = from_facets(itertools.combinations(range(1, 5), 3))
    if name == "S2xC4*C3":
        X = staircase_product(tetrahedron, _cycle(4))
        top = max(X.vertices)
        return join(X, from_facets(itertools.combinations(range(top + 1, top + 4), 2)))
    if name.startswith("S2xC"):
        return staircase_product(tetrahedron, _cycle(int(name[-1])))
    if name == "T3":
        return staircase_product(staircase_product(_cycle(4), _cycle(4)), _cycle(4))
    X = staircase_product(tetrahedron, _cycle(4))
    top = max(X.vertices)
    return from_facets([*f, apex] for f in X.facets for apex in (top + 1, top + 2))


class TestManifoldsThatAreNotSpheres:
    """Closed manifolds that pass every gate and screen, so that only the
    bistellar walk decides them: it must never reach the standard sphere."""

    @pytest.mark.parametrize("name, n_facets", [
        ("S2xC3", 36), ("S2xC4", 48), ("S2xC5", 60), ("T3", 384), ("susp-S2xC4", 96),
        ("S2xC4*C3", 144),
    ])
    def test_gates_and_screens_pass_and_no_seed_certifies(self, name, n_facets):
        X = _not_a_sphere(name)
        assert X.n_facets == n_facets
        assert recognition._pm_failure(X) is None
        assert all(len(owners) == 2 for owners in X._ridge_map().values())
        screens = recognition._Screens(X)
        assert screens.stalled() is None
        assert screens.links(range(2, X.dim - 1)) is None
        for seed in range(3):
            assert not certify_sphere(X, budget=200, seed=seed).is_certified


class TestRevisitsAreReChosen:
    """From its ninth revisit of a facet set on, the walk re-chooses among
    the moves to unseen facet sets: the spheres on which it used to cycle
    certify at the default budget, and closed manifolds that are not spheres
    still do not."""

    @pytest.mark.parametrize("name", [
        "cross_polytope(6)", "C5*C5*C6", "C5*C6*C7", "cross_polytope(7)",
    ])
    def test_hard_spheres_certify_in_under_a_second(self, name):
        if name.startswith("C"):
            X = _join_of_cycles(int(name[1]), int(name[4]), int(name[7]))
        else:
            X = get(name).complex
        for seed in range(3):
            start = time.perf_counter()
            verdict = certify_sphere(X, DEFAULT_BUDGET, seed)
            elapsed = time.perf_counter() - start
            assert verdict.is_certified, seed
            assert replays_to_standard_sphere(X, verdict.trace), seed
            assert elapsed < 1.0, seed

    @pytest.mark.parametrize("name, seeds", [("S2xC4", 3), ("T3", 3), ("S2xC4*C3", 1)])
    def test_non_spheres_are_never_certified(self, name, seeds):
        X = _not_a_sphere(name)
        verdicts = [certify_sphere(X, DEFAULT_BUDGET, seed) for seed in range(seeds)]
        assert not any(v.is_certified for v in verdicts)
        if name == "T3":
            # moves are left in the budget when every legal move leads to
            # a facet set the walk has seen
            assert verdicts[0] == Verdict(
                UNKNOWN,
                "bistellar reduction stopped after 6358 moves: "
                "no legal move to an unseen facet set",
            )

    def test_a_larger_budget_replays_the_prefix(self):
        X = get("cross_polytope(6)").complex
        full = certify_sphere(X, DEFAULT_BUDGET, 0).trace
        for budget in (30, 34, 35, 50, 78):
            walk = recognition._Walk(X, budget, random.Random(0))
            assert not (walk.run(max_a=1) or walk.run())
            assert tuple(walk.trace) == full[:budget]
        assert certify_sphere(X, 79, 0).trace == full

    def test_the_walk_stops_when_every_move_leads_to_a_seen_set(self):
        # the walk's own stop, which no input in this suite reaches: moves
        # are left, but after _REVISITS revisits each one leads back
        walk = recognition._Walk(get("cross_polytope(5)").complex, 4, random.Random(0))
        assert not (walk.run(max_a=1) or walk.run())
        assert len(walk.trace) == 4 and walk.key is not None
        index = walk.index
        for k in range(1, index.dim + 1):
            index.settle(k)
            walk.seen.update(walk._after(move)[0] for move in index.legal(k))
        assert index.pool(walk.undo)
        walk.budget, walk.revisits = DEFAULT_BUDGET, recognition._REVISITS
        assert not walk.run()
        assert len(walk.trace) == 4
        assert walk.revisits == recognition._REVISITS + 1


class TestSurfaceLinksNeedNoCheck:
    """certify_sphere no longer checks vertex links in dimension 2: a closed
    connected 2-pseudomanifold with chi = 2 has only cycle links."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "torus", "two spheres"]),
        pinches=st.sampled_from([0, 1, 1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_pinched_surfaces(self, kind, pinches, seed):
        rng = random.Random(seed)
        X = _pinch(_surface(kind, rng), rng, pinches)
        verdict = certify_sphere(X)
        assert verdict == reference_certify_surface(X)
        if reference_surface_link_loop(X) is not None:
            assert verdict.is_refuted
            assert verdict.reason.startswith(
                ("not a pseudomanifold", "has boundary", "Euler characteristic")
            )

    def test_pinched_stacked_sphere_is_refuted_by_euler(self):
        # 2 and 9 have no common neighbour: the merged vertex 9 has a link
        # of two cycles, and chi drops by one
        S = random_stacked_sphere(random.Random(1), 2, 9)
        X = from_facets(tuple(9 if v == 2 else v for v in f) for f in S.facets)
        assert reference_surface_link_loop(X) == Verdict(
            REFUTED, "link of vertex 9 is not a single cycle"
        )
        assert certify_sphere(X) == Verdict(REFUTED, "Euler characteristic 1 != 2")

    def test_two_spheres_on_one_vertex_are_not_a_pseudomanifold(self):
        X = from_facets(
            list(itertools.combinations((1, 2, 3, 4), 3))
            + list(itertools.combinations((4, 5, 6, 7), 3))
        )
        assert reference_surface_link_loop(X) == Verdict(
            REFUTED, "link of vertex 4 is not a single cycle"
        )
        assert certify_sphere(X) == Verdict(
            REFUTED, "not a pseudomanifold: the facet-adjacency graph is disconnected"
        )

    def test_certified_reason_is_unchanged(self):
        assert certify_sphere(get("octahedron").complex).reason == (
            "exact (dim 2): closed surface with Euler characteristic 2 and cycle links"
        )


_ANNULUS = [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)]


def _balls():
    """Name -> complex: seeded stacked balls of dimensions 2-5, the
    anti-stars of cross-polytopes, two catalog balls, and the annulus and
    punctured torus that TestCertifyBall refutes."""
    rng = random.Random(2021)
    balls = {}
    for d in (2, 3, 4, 5):
        for n in (d + 4, d + 12):
            balls[f"stacked_ball({d}, {n})"] = random_stacked_ball(rng, d, n)
    for k in (3, 4, 5, 6):
        cp = get(f"cross_polytope({k})").complex
        balls[f"anti_star(cross_polytope({k}), 1)"] = anti_star(cp, 1)
    for name in ("example43_ball", "gs_ball_D"):
        balls[name] = get(name).complex
    balls["annulus"] = from_facets(_ANNULUS)
    balls["punctured torus"] = from_facets(moebius_torus().facets[1:])
    return balls


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

    def test_annulus_boundary_refuted(self):
        assert certify_ball(from_facets(_ANNULUS)) == Verdict(
            REFUTED,
            "boundary is not a sphere: not a pseudomanifold: "
            "the facet-adjacency graph is disconnected",
        )

    def test_punctured_torus_capped_refuted(self):
        # one facet short of the torus: a disc boundary, but a torus when capped
        punctured = from_facets(moebius_torus().facets[1:])
        assert certify_ball(punctured) == Verdict(
            REFUTED, "capped complex is not a sphere: Euler characteristic 0 != 2"
        )

    @pytest.mark.parametrize("budget", [0, 1, 3, 8, 100])
    def test_spends_at_most_the_budget(self, budget):
        # only the capped complex is walked; the boundary is walked with
        # budget 0, and only if the capped complex is not certified
        for name, X in _balls().items():
            with _counted_flips() as flips:
                certify_ball(X, budget, 0)
            assert flips[0] <= budget, name

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("budget", [0, 3, 100, DEFAULT_BUDGET])
    def test_matches_walking_the_boundary_first(self, budget, seed):
        # a certified cap certifies its apex's link, the boundary, and no
        # refutation of certify_sphere depends on its budget: the verdicts
        # are those of the boundary walk with the whole budget
        for name, X in _balls().items():
            if budget == DEFAULT_BUDGET and name == "anti_star(cross_polytope(6), 1)":
                continue  # Unknown: each side walks all 10,000 moves, 3-4 s
            assert certify_ball(X, budget, seed) == (
                reference_certify_ball(X, budget, seed)
            ), name


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

    @pytest.mark.parametrize("X", [
        from_facets([(1,), (2,)]), boundary(get("octahedron").complex),
    ], ids=["points", "empty"])
    def test_needs_dimension_one(self, X):
        assert is_stacked_ball(X) == StackedBallReport(
            False, reason="needs dimension >= 1"
        )

    def test_cone_over_square_rejected(self):
        B = from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
        assert not is_stacked_ball(B).stacked

    def test_reasons_keep_their_order(self):
        reasons = [is_stacked_ball(X).reason for X in _reason_inputs()]
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

    def test_reports_match_the_reference_peel(self):
        """Whole reports, witness order included: the completions take their
        cone apex from the witness's last step."""
        rng = random.Random(41)
        triangles = list(itertools.combinations(range(1, 8), 3))
        inputs = list(_reason_inputs())
        inputs += [from_facets([(1, 2, 3)]), from_facets([(1, 2, 3), (2, 3, 4)])]
        for _ in range(60):
            d = rng.randint(1, 5)
            inputs.append(random_stacked_ball(rng, d, rng.randint(d + 1, 40)))
        # families of 1-10 triangles on 7 labels; half of those of <= 5 stack
        for _ in range(1000):
            m = rng.randint(1, 10)
            if m <= 5 and rng.random() < 0.5:
                ball = random_stacked_ball(rng, 2, m + 2)
                image = dict(zip(ball.vertices, rng.sample(range(1, 8), m + 2)))
                inputs.append(from_facets([[image[v] for v in f] for f in ball.facets]))
            else:
                inputs.append(from_facets(rng.sample(triangles, m)))
        expected = [reference_is_stacked_ball(X) for X in inputs]
        assert sum(report.stacked for report in expected) > 300
        for X, report in zip(inputs, expected):
            assert is_stacked_ball(X) == report, X.facets


def _reason_inputs():
    """One complex failing each test of is_stacked_ball, in test order; the
    third has as many shared ridges as a tree has, but two components."""
    three_owners = from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)])
    cycle = from_facets([(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
    cycle_and_triangle = from_facets(list(cycle.facets) + [(6, 7, 8)])
    path_on_too_few_vertices = from_facets([(1, 2, 3), (2, 3, 4), (2, 4, 5), (1, 4, 5)])
    return three_owners, cycle, cycle_and_triangle, path_on_too_few_vertices


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

    def test_ball_rejected(self):
        with pytest.raises(NotStacked):
            collapse_stacked_sphere_to_ball(get("standard_ball(2)").complex)


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

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(
            ["flag2", "flag2*S0", "flag2*cycle", "cross", "stacked", "tetra*S0"]
        ),
        seed=st.integers(0, 2**16),
    )
    # every triangle of the suspended tetrahedron boundary is a face; only
    # its 4-clique, which is no face, shows that it is not flag
    @example(kind="tetra*S0", seed=0)
    def test_matches_the_brute_force_reference(self, kind, seed):
        S = _flag_candidate(kind, random.Random(seed))
        assert is_flag(S) == reference_is_flag(S)


def _flag_candidate(kind, rng):
    """A sphere of the named kind for the is_flag property: flag 2-spheres,
    their joins with S0 or a cycle, cross-polytopes, stacked spheres, whose
    missing faces are cliques, and the suspension of a tetrahedron's boundary."""
    if kind == "flag2":
        return random_flag_2sphere(rng, rng.randint(6, 10))
    if kind == "flag2*S0":
        return _suspend(random_flag_2sphere(rng, rng.randint(6, 9)))
    if kind == "flag2*cycle":
        S = random_flag_2sphere(rng, rng.randint(6, 8))
        k, top = rng.randint(3, 5), max(S.vertices)
        return join(S, from_facets((top + i, top + i % k + 1) for i in range(1, k + 1)))
    if kind == "cross":
        return get(f"cross_polytope({rng.randint(2, 5)})").complex
    if kind == "stacked":
        dim = rng.randint(1, 3)
        return random_stacked_sphere(rng, dim, rng.randint(dim + 2, dim + 7))
    return _suspend(get("standard_sphere(2)").complex)


def _join_of_cycles(*lengths):
    X, shift = None, 0
    for k in lengths:
        C = from_facets([(shift + i, shift + i % k + 1) for i in range(1, k + 1)])
        X = C if X is None else join(X, C)
        shift += k
    return X


class TestScreensOnlyWhenCollapsesStall:
    """From dimension 3 on certify_sphere makes vertex collapses before it
    counts Euler characteristics or walks the vertex links.  Spheres that
    collapses reduce are never screened; otherwise X unflipped and its ridge
    map are screened once when collapses stall, for chi and the vertex
    links, and once more, for the larger faces, if the walk fails."""

    @pytest.fixture
    def screened(self, monkeypatch):
        calls = []
        stalled, links = recognition._Screens.stalled, recognition._Screens.links

        def recorded_stalled(screens):
            ridges = screens.X._ridge_map()
            owners = {r: frozenset(map(tuple, fs)) for r, fs in ridges.items()}
            calls.append((screens.X, owners))
            return stalled(screens)

        def recorded_links(screens, sizes):
            # the ridges as the face lists hold them
            calls.append((screens.X, sorted(screens.faces[screens.X.dim]), sizes))
            return links(screens, sizes)

        monkeypatch.setattr(recognition._Screens, "stalled", recorded_stalled)
        monkeypatch.setattr(recognition._Screens, "links", recorded_links)
        return calls

    def test_collapsed_spheres_are_never_screened(self, screened):
        rng = random.Random(71)
        for d in (3, 4, 5):
            for _ in range(3):
                S = random_stacked_sphere(rng, d, rng.randint(d + 4, d + 30))
                assert certify_sphere(S).is_certified
        # the boundary of a stacked ball is a stacked sphere, and the cone
        # over it caps the ball to a sphere that collapses reduce too
        for d in (4, 5):
            B = random_stacked_ball(rng, d, rng.randint(d + 3, d + 20))
            assert certify_ball(B).is_certified
        assert screened == []

    @pytest.mark.parametrize(
        "name, budget",
        [("cross_polytope(6)", 50), ("gs_s48", DEFAULT_BUDGET),
         ("cross_polytope(5)", DEFAULT_BUDGET)],
    )
    def test_stalled_collapses_screen_once_unflipped(self, screened, name, budget):
        X = get(name).complex
        if name == "cross_polytope(5)":
            # a collapse comes first: the walk has flipped when collapses stall
            X = _subdivided(X, random.Random(0))[0]
        verdict = certify_sphere(X, budget)
        ridges = {
            r: frozenset(map(tuple, fs))
            for r, fs in _reference_ordered_ridge_map(X).items()
        }
        expected = [(X, ridges), (X, sorted(ridges), range(1, 2))]
        # cross_polytope(6) exhausts its budget, and its larger faces are
        # screened after the walk, on the same X and ridges, unflipped
        if verdict.is_unknown:
            expected.append((X, sorted(ridges), range(2, X.dim - 1)))
        assert screened == expected
        assert verdict.is_unknown == (name == "cross_polytope(6)")


@contextlib.contextmanager
def _reference_walk():
    """Replace certify_sphere's walk, _Walk, by the order it replaced: the
    screens of the complex first, then the rescanning walk of
    tests/helpers.py.  Yields the list of the walks it makes, each with its
    X and its trace."""
    calls = []
    stalled = recognition._Screens.stalled

    class ReferenceWalk:
        # its vertex collapses stall at once, so the screens always come
        # first; then the reference walks the unflipped X
        def __init__(self, X, budget, rng):
            calls.append(self)
            self.X, self.budget, self.rng, self.trace = X, budget, rng, ()

        def run(self, max_a=0):
            if max_a == 1:
                return False
            ok, self.trace = reference_greedy_reduce(self.X, self.budget, self.rng)
            return ok

    def reference_stalled(screens):
        refutation = reference_screens(screens.X)
        assert stalled(screens) == refutation
        return refutation

    with pytest.MonkeyPatch.context() as m:
        m.setattr(recognition, "_Walk", ReferenceWalk)
        m.setattr(recognition._Screens, "stalled", reference_stalled)
        yield calls


def _stellar(X, rng, times):
    """X with `times` random facets subdivided, each by a fresh vertex; on
    any pure complex, so pinched ones too."""
    facets = [tuple(f) for f in X.facets]
    for _ in range(times):
        F = facets.pop(rng.randrange(len(facets)))
        v = max(max(f) for f in facets + [F]) + 1
        facets += [F[:i] + F[i + 1 :] + (v,) for i in range(len(F))]
    return from_facets(facets)


class TestWalkMatchesReference:
    """The incremental walk, collapses first, against the rescanning walk it
    replaced with the screens run before it (kept in tests/helpers.py):
    same verdicts, reasons and traces, seed by seed."""

    @pytest.fixture
    def on_reference(self):
        called = []

        def run(fn, *args):
            with _reference_walk() as calls:
                verdict = fn(*args)
            called.extend(calls)
            return verdict

        yield run
        # a certify_sphere that walked without _Walk would be compared with
        # itself
        assert called, "the reference walk was never called"

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

    def test_cross_polytope_6_cycles_undoes_and_stays_unknown(self, on_reference):
        # from move 34 on the walk re-chooses; it is still Unknown at budget
        # 50 and certifies in 79 moves
        X = get("cross_polytope(6)").complex
        v = certify_sphere(X, 50, 0)
        assert v.is_unknown
        assert v == on_reference(certify_sphere, X, 50, 0)

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

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross", "torus", "pinched"]),
        dim=st.sampled_from([3, 4]),
        pinches=st.sampled_from([0, 0, 1, 2]),
        subdivided=st.integers(1, 3),
        budget=st.sampled_from([0, 1, 3, 30]),
        seed=st.integers(0, 2**16),
    )
    def test_subdivided_planted_complexes(
        self, kind, dim, pinches, subdivided, budget, seed
    ):
        # each subdividing vertex can be collapsed, so the screens come after
        # a collapse has dropped the ridges from the index
        rng = random.Random(seed)
        X = _pinch(_planted_complex(kind, dim, None, 0, 0, rng), rng, pinches)
        X = _stellar(X, rng, subdivided)
        with _reference_walk():
            expected = certify_sphere(X, budget, seed)
        assert certify_sphere(X, budget, seed) == expected

    def _assert_walks_match(self, X, budget, seed):
        # Unknown verdicts carry no trace, so the walks' traces are compared too
        with _reference_walk() as walks:
            expected = certify_sphere(X, budget, seed)
        verdict = certify_sphere(X, budget, seed)
        assert verdict == expected
        walk = recognition._Walk(X, budget, random.Random(seed))
        assert (walk.run(max_a=1) or walk.run()) == verdict.is_certified
        assert tuple(walk.trace) == walks[0].trace
        if verdict.is_certified:
            assert replays_to_standard_sphere(X, verdict.trace)

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(["cross_polytope(5)", "cross_polytope(6)"]),
        budget=st.integers(0, 150),
        seed=st.integers(0, 2),
    )
    # cross_polytope(6) at seed 1 certifies in 103 moves after 31 revisits
    @example(name="cross_polytope(6)", budget=150, seed=1)
    def test_revisiting_walks_match(self, name, budget, seed):
        self._assert_walks_match(get(name).complex, budget, seed)

    # these certify after 0 to 4, 0 to 2 and 5 to 8 revisits at seeds 0-2,
    # so they never re-choose
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["C4*C5*S0", "C5*C6*S0", "sd(cross_polytope(4))"])
    def test_pinned_walks_match(self, name, seed):
        self._assert_walks_match(_pinned_input(name), DEFAULT_BUDGET, seed)

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
        walk = recognition._Walk(S, DEFAULT_BUDGET, random.Random(seed))
        ok = walk.run()
        expected = reference_greedy_reduce(S, DEFAULT_BUDGET, random.Random(seed))
        assert (ok, tuple(walk.trace)) == expected
        assert ok and is_standard(apply_trace(S, walk.trace)).sphere


class TestFaceScreenMatchesRecursion:
    """After a failed walk certify_sphere screens the face links, where it
    certified every vertex link again, recursively (kept in
    tests/helpers.py).  Both refute the same inputs; where the recursion
    nests no refutation and resolves every link, they agree on the whole
    verdict.  No call spends more than budget moves."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross", "torus", "pinched"]),
        dim=st.sampled_from([3, 4, 5]),
        pinches=st.sampled_from([0, 0, 1, 2]),
        subdivided=st.integers(0, 3),
        budget=st.sampled_from([0, 1, 3, 30]),
        seed=st.integers(0, 2**16),
    )
    def test_planted_complexes(self, kind, dim, pinches, subdivided, budget, seed):
        rng = random.Random(seed)
        X = _pinch(_planted_complex(kind, dim, None, 0, 0, rng), rng, pinches)
        X = _stellar(X, rng, subdivided)
        with _counted_flips() as flips:
            verdict = certify_sphere(X, budget, seed)
        assert flips[0] <= budget
        expected = reference_certify_sphere(X, budget, seed)
        assert verdict.status == expected.status
        recursed = "refuted: " in expected.reason or "links unresolved" in expected.reason
        if not recursed:
            assert verdict == expected

    def test_cross_polytope_7_spends_at_most_the_budget(self):
        # no vertex link is walked after the walk of X
        with _counted_flips() as flips:
            verdict = certify_sphere(get("cross_polytope(7)").complex, 100)
        assert verdict == Verdict(
            UNKNOWN, "bistellar reduction budget exhausted (100 moves)"
        )
        assert flips[0] == 100


def _pinned_input(name):
    """A catalog entry; Ca*Cb*S0, the join of two cycles and a 0-sphere;
    stacked_ball(dim, n), grown from the seed 2020; or sd(name), the
    barycentric subdivision of a catalog entry."""
    if name.startswith("sd("):
        return barycentric_subdivision(get(name[3:-1]).complex)
    if name.startswith("C"):
        a, b = int(name[1]), int(name[4])
        S0 = from_facets([(a + b + 1,), (a + b + 2,)])
        return join(_join_of_cycles(a, b), S0)
    if name.startswith("stacked_ball"):
        dim, n = map(int, name[13:-1].split(", "))
        return random_stacked_ball(random.Random(2020), dim, n)
    return get(name).complex


class TestCertifiedBytesArePinned:
    """The sha256 of (status, reason, trace) of certify_sphere and
    certify_ball, recorded before the move index kept only the face sizes
    its readers use (the sd rows before the walk took its RNG from its
    caller, the cross_polytope(6) rows once it re-chose after repeated
    revisits).  Any change to a verdict, a reason or a trace shows."""

    @pytest.mark.parametrize(
        "name, budget, seed, digest",
        [
            ("cross_polytope(4)", DEFAULT_BUDGET, 0,
             "71b97eb633a8e3d69d802ebdbf731890fc0bc892dcd7fccea48f559f363a91e2"),
            ("cross_polytope(4)", DEFAULT_BUDGET, 7,
             "e0415c65ca0a8c73358bc9ad358580b0f754efe3136a8a8a51befe86680ee218"),
            ("cross_polytope(5)", DEFAULT_BUDGET, 0,
             "786ec8ef56604058682686fff61a14b7d1b08967f1425f029f1bae6432d6bfde"),
            ("cross_polytope(5)", DEFAULT_BUDGET, 7,
             "5eee3083506d53a20c17bd3fe77f470a03e5c10f94f5a5cd082076b4fe18f2b0"),
            # 79 moves, re-choosing after the ninth revisit
            ("cross_polytope(6)", 100, 0,
             "e1b10a758ef8d36be20f3d5f0ae9d9e6aa1d861534a9656b18f98b1ce84a590a"),
            ("cross_polytope(6)", 50, 0,
             "a2bf27f05bbe3f0088757010f6d292f2834e87cad0a592f06a301d39b843fde3"),
            ("C4*C5*S0", DEFAULT_BUDGET, 0,
             "64c55d5495fdb9884ade6227952ce9c04158bf254c51c88381e02fe14502624d"),
            ("C4*C5*S0", DEFAULT_BUDGET, 7,
             "8797697dda81ee285af462451c21bdf10bcbf17644e97812191245cf681e54fc"),
            ("C5*C6*S0", DEFAULT_BUDGET, 0,
             "67ce67ca167da4645afeeb88210fb84dcf27e884e33c94ef490e20088e22b0f4"),
            ("C5*C6*S0", DEFAULT_BUDGET, 7,
             "9674c580c79e6c86087d289f1a64b934739ccf8d928b881db1497d37ab252250"),
            ("gs_s48", DEFAULT_BUDGET, 0,
             "7d8e8584bdb688c1980845db59fc50dfaf6c5d03420d5e0c10c360ac2f2c2396"),
            ("gs_s48", DEFAULT_BUDGET, 7,
             "054ce2ffecb13161cb338f13c03ed164962af7598b1d8f65cfd9233d912d579a"),
            ("barnette_join", DEFAULT_BUDGET, 0,
             "252f0fd82a6f016d58b05e5fc8312e5de4f468f3e2e4fae8ec979921fdc15cc7"),
            ("barnette_join", DEFAULT_BUDGET, 7,
             "e1377688e82a98885b62173ceb3f90f25f6006e5e708dc1d44438d8f8bc73247"),
            ("stacked_ball(3, 20)", DEFAULT_BUDGET, 0,
             "df731288be01a622460efcdf04bb5c3a7d775637252b9918a2eac70832b71f1d"),
            ("stacked_ball(4, 25)", DEFAULT_BUDGET, 7,
             "ed1c48bdfb9dc88ad1dfaeaa8c606c2f43acb95d70a76d2e109a3ef6a76a7ea5"),
            # 425, 429 and 483 moves, revisiting facet sets on the way
            ("sd(cross_polytope(4))", DEFAULT_BUDGET, 0,
             "c9cd7fa79fb5afdbcc44bbae309644e93cc4f13c9efdf6386b09392878fdf4ad"),
            ("sd(cross_polytope(4))", DEFAULT_BUDGET, 1,
             "6f224d044cfc8e247b8c7534739fcf2db22ee1e29f4993b2af9c79209e051084"),
            ("sd(cross_polytope(4))", DEFAULT_BUDGET, 2,
             "70ff060a28f4774f9eff603404700e47701fd02869d3ba8e2c8270fe8492857e"),
        ],
    )
    def test_verdict_digest(self, name, budget, seed, digest):
        X = _pinned_input(name)
        certify = certify_ball if name.startswith("stacked_ball") else certify_sphere
        v = certify(X, budget, seed)
        blob = repr((v.status, v.reason, v.trace)).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, v


def _subdivided(X, rng):
    """X with a random facet subdivided by a fresh vertex v, and the move
    that undoes the subdivision.  The collapse of v is then legal, so a walk
    from here can always make its first move."""
    F = rng.choice(X.facets)
    v = max(X.vertices) + 1
    return generalized_bistellar_move(X, F, (v,)), ((v,), tuple(F))


def _walk_start(kind, dim, extra, rng):
    if kind == "stacked":
        X = random_stacked_sphere(rng, dim, dim + 1 + extra)
    else:
        X = get(f"cross_polytope({dim + 1})").complex
    return _subdivided(X, rng)


def _settle_all(index, max_a):
    for k in range(1, max_a + 1):
        index.settle(k)


def _legal_moves(index, max_a):
    return [move for k in range(1, max_a + 1) for move in index.legal(k)]


def _settled_fresh(index, max_a):
    fresh = recognition._MoveIndex(Complex._from_vertex_sets(index.facets))
    _settle_all(fresh, max_a)
    return fresh


class TestMoveIndexMatchesRebuild:
    """The index flipped in place, settled, equals an index built afresh
    from its facets and settled; pool, which settles only the sizes it
    needs, equals the pool of the fresh index under the eager rule."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross"]),
        dim=st.integers(3, 5),
        extra=st.integers(1, 7),
        vertex_moves_only=st.booleans(),
        steps=st.integers(1, 30),
        settle_every=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_random_flips_match_a_fresh_index(
        self, kind, dim, extra, vertex_moves_only, steps, settle_every, seed
    ):
        rng = random.Random(seed)
        X, _ = _walk_start(kind, dim, extra, rng)
        max_a = 1 if vertex_moves_only else X.dim
        index = recognition._MoveIndex(X)
        flips = 0
        while True:
            fresh = _settled_fresh(index, max_a)
            moves = sorted(_legal_moves(fresh, max_a))
            if flips % settle_every == 0 or flips == steps or not moves:
                _settle_all(index, max_a)
                assert index.facets == fresh.facets
                assert index._cofacets == fresh._cofacets
                assert index._shapes == fresh._shapes
                # the moves that legal(k) derives, against a rescan of
                # every face that shares no code with the index
                oracle = _reference_reduction_moves(
                    Complex._from_vertex_sets(index.facets)
                )
                assert _legal_moves(index, max_a) == [
                    (A, B) for A, B in oracle if len(A) <= max_a
                ]
            if flips == steps or not moves:
                break
            index.flip(*rng.choice(moves))
            flips += 1
        assert flips >= 1

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross"]),
        dim=st.integers(3, 5),
        extra=st.integers(1, 7),
        vertex_moves_only=st.booleans(),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    # a ridge flip makes edge moves legal, and size 2 is not settled again
    # until the third pool, after a vertex collapse
    @example(
        kind="cross", dim=3, extra=1, vertex_moves_only=False, steps=3, seed=0
    )
    def test_pool_matches_a_fresh_settled_index(
        self, kind, dim, extra, vertex_moves_only, steps, seed
    ):
        rng = random.Random(seed)
        X, undo = _walk_start(kind, dim, extra, rng)
        max_a = 1 if vertex_moves_only else X.dim
        index = recognition._MoveIndex(X)
        for _ in range(steps):
            pool = index.pool(undo, max_a)
            assert pool == reference_pool(_settled_fresh(index, max_a), max_a, undo)
            if not pool:
                break
            A, B = rng.choice(pool)
            index.flip(A, B)
            undo = (B, A)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["stacked", "cross"]),
        dim=st.integers(3, 5),
        extra=st.integers(1, 7),
        subdivide=st.booleans(),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    # the collapse of the subdividing vertex comes first, and the edge moves
    # that follow index the edges and the ridges
    @example(kind="cross", dim=4, extra=1, subdivide=True, steps=4, seed=0)
    def test_sizes_indexed_on_demand_match_a_fresh_index(
        self, kind, dim, extra, subdivide, steps, seed
    ):
        # built as certify_sphere builds it: the vertices, then whatever
        # sizes the walk comes to use
        rng = random.Random(seed)
        if subdivide:
            X, _ = _walk_start(kind, dim, extra, rng)
        elif kind == "stacked":
            X = random_stacked_sphere(rng, dim, dim + 1 + extra)
        else:
            X = get(f"cross_polytope({dim + 1})").complex
        index = recognition._MoveIndex(X)
        undo = None
        for _ in range(steps):
            fresh = _settled_fresh(index, X.dim)
            pool = index.pool(undo)
            assert pool == reference_pool(fresh, X.dim, undo)
            for k, faces in index._cofacets.items():
                assert faces == fresh._cofacets[k], k
            if not pool:
                break
            A, B = rng.choice(pool)
            index.flip(A, B)
            undo = (B, A)
        _settle_all(index, X.dim)
        fresh = _settled_fresh(index, X.dim)
        assert index._cofacets == fresh._cofacets
        assert index._shapes == fresh._shapes

    @pytest.mark.parametrize("max_a", [1, 3])
    def test_only_the_undo_is_legal_at_the_smallest_size(self, max_a):
        # the collapse of the subdividing vertex is the only vertex move of
        # a subdivided cross-polytope; only ridge flips are legal besides it
        X, undo = _subdivided(get("cross_polytope(4)").complex, random.Random(0))
        index = recognition._MoveIndex(X)
        pool = index.pool(undo, max_a)
        assert pool == reference_pool(_settled_fresh(index, max_a), max_a, undo)
        if max_a == 1:
            assert pool == [undo]
        else:
            assert pool and all(len(A) == 3 for A, B in pool)
