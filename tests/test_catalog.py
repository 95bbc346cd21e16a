import hashlib
import inspect
import re

import pytest

from combisphere import (
    anti_star,
    available,
    boundary,
    certify_ball,
    certify_sphere,
    euler_characteristic,
    from_facets,
    get,
    is_subcomplex,
    link,
    one_point_suspension,
)
from combisphere import catalog
from combisphere.cli import main
from combisphere.errors import UnknownName
from combisphere.serialize import complex_to_text
from helpers import gale_evenness_facets

# The embedded facet lists are ground truth; any edit must fail loudly here.
GOLDEN_SHA256 = {
    "gs_m38": "0c4fad965f56fb189255d15898da0a80ed95bca95c80346e5e9a46ef691d0893",
    "gs_ball_C": "2628c76c54d3d01c92aea9eb9d833da5ca7c68519bd20a7d445acb96854fa8ea",
    "gs_ball_D": "a20ba6568fec1c748e3bcd160a4321655178e6052d1dd6528fd02b67724a582c",
    "barnette": "0329f8b2142bb0d6c57ba0fea9f2bd2a0b4cff1196e89dcb4a263cb2ad24e2a7",
}


class TestGoldenData:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_checksums(self, name):
        text = complex_to_text(get(name).complex)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]

    def test_m38_starts_as_printed(self):
        facets = get("gs_m38").complex.facets
        assert facets[0] == (1, 2, 3, 4) and facets[1] == (1, 2, 3, 7)
        assert len(facets) == 20

    def test_barnette_starts_as_printed(self):
        facets = get("barnette").complex.facets
        assert facets[0] == (1, 2, 3, 4)
        assert len(facets) == 19


class TestDerivedEntries:
    def test_ball_d_is_the_anti_star(self):
        assert get("gs_ball_D").complex == anti_star(get("gs_m38").complex, 8)

    def test_s37_is_the_union_of_the_balls(self):
        C = get("gs_ball_C").complex
        D = get("gs_ball_D").complex
        union = from_facets(C.facets + D.facets)
        assert get("gs_s37").complex == union
        assert boundary(C) == boundary(D) == link(get("gs_m38").complex, 8)

    def test_s48_is_the_suspension(self):
        assert get("gs_s48").complex == one_point_suspension(
            get("gs_s37").complex, 7, 8
        )
        assert is_subcomplex(get("gs_m38").complex, get("gs_s48").complex)
        assert get("gs_s48").complex.vertex_set == get("gs_m38").complex.vertex_set

    def test_barnette_sits_inside_its_join(self):
        assert is_subcomplex(get("barnette").complex, get("barnette_join").complex)

    def test_example43_ball_is_d_plus_one_facet(self):
        D = get("gs_ball_D").complex
        B = get("example43_ball").complex
        assert B == from_facets(D.facets + ((1, 2, 4, 8),))
        assert certify_ball(B).is_certified

    def test_fixed_spheres_certify(self):
        for name in ("gs_s37", "gs_s48", "barnette_join"):
            assert certify_sphere(get(name).complex).is_certified, name


class TestExpectedProperties:
    NAMES = [
        "gs_m38", "gs_ball_C", "gs_ball_D", "gs_s37", "gs_s48",
        "barnette", "barnette_join", "example43_ball", "octahedron",
        "standard_sphere(3)", "standard_ball(2)", "cycle(6)",
        "cross_polytope(4)",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_stated_properties_hold(self, name):
        entry = get(name)
        X = entry.complex
        checks = {
            "dim": lambda: X.dim,
            "n_vertices": lambda: X.n_vertices,
            "n_facets": lambda: X.n_facets,
            "euler_characteristic": lambda: euler_characteristic(X),
        }
        for prop, expected in entry.expected_properties:
            assert checks[prop]() == expected, (name, prop)

    def test_point_entry_properties(self):
        entry = get("cyclic_polytope_points(7,3)")
        assert entry.complex is None
        props = dict(entry.expected_properties)
        assert props["dim"] == entry.points.dim == 3
        assert props["n_points"] == len(entry.points) == 7

    def test_provenance_present_everywhere(self):
        for name in self.NAMES:
            assert get(name).provenance


class TestParametricBuilders:
    def test_octahedron_is_cross_polytope_3(self):
        assert get("octahedron").complex == get("cross_polytope(3)").complex

    def test_standard_sphere_is_simplex_boundary(self):
        for d in range(4):
            S = get(f"standard_sphere({d})").complex
            B = get(f"standard_ball({d + 1})").complex
            assert S == boundary(B)

    def test_cycle_layout(self):
        assert get("cycle(4)").complex == from_facets(
            [(1, 2), (2, 3), (3, 4), (1, 4)]
        )

    def test_cross_polytope_pairs_never_meet(self):
        X = get("cross_polytope(4)").complex
        for i in (1, 2, 3, 4):
            assert not X.has_face((2 * i - 1, 2 * i))

    def test_cyclic_points_lie_on_the_moment_curve(self):
        pts = get("cyclic_polytope_points(5,3)").points
        for t in range(1, 6):
            assert pts.coords(t) == (t, t * t, t * t * t)

    def test_cyclic_points_default_dimension(self):
        assert get("cyclic_polytope_points(5)").points == get(
            "cyclic_polytope_points(5,3)"
        ).points

    def test_cyclic_hull_matches_gale_oracle(self):
        from combisphere import convex_hull

        pts = get("cyclic_polytope_points(6,3)").points
        facets = {tuple(f.vertices) for f in convex_hull(pts).facets}
        assert facets == gale_evenness_facets(6, 3)


# What get() gives for each name: the entry's name, or the UnknownName message.
# Recorded before the catalog became one table; only the three unknown names
# given arguments (last) changed, from "<base> takes no arguments".  The two
# names with an empty argument slot once resolved to cycle(5); an empty slot
# is now malformed, while empty parentheses still mean no arguments.
LOOKUP_OUTCOMES = {
    "cycle(": "malformed catalog name 'cycle('",
    "cycle)4(": "malformed catalog name 'cycle)4('",
    "cycle((4))": "malformed catalog name 'cycle((4))'",
    "cycle(4)(5)": "malformed catalog name 'cycle(4)(5)'",
    "3cycle": "malformed catalog name '3cycle'",
    "gs m38": "malformed catalog name 'gs m38'",
    "": "malformed catalog name ''",
    " ": "malformed catalog name ' '",
    "cycle(x)": "non-integer arguments in 'cycle(x)'",
    "cycle(1.5)": "non-integer arguments in 'cycle(1.5)'",
    "nope(x)": "non-integer arguments in 'nope(x)'",
    "no_such_thing": "no catalog entry named 'no_such_thing'",
    "GS_M38": "no catalog entry named 'GS_M38'",
    "_entry": "no catalog entry named '_entry'",
    "get": "no catalog entry named 'get'",
    "gs_m38(3)": "gs_m38 takes no arguments",
    "cycle(3,4)": "cycle takes 1 integer argument(s), got 2",
    "cyclic_polytope_points(1,2,3)":
        "cyclic_polytope_points takes (n) or (n, d) integer arguments",
    "cycle(2)": "cycle needs n >= 3, got 2",
    "cycle(-0)": "cycle needs n >= 3, got 0",
    "cross_polytope(0)": "cross_polytope needs k >= 1, got 0",
    "standard_sphere(-1)": "standard_sphere needs d >= 0, got -1",
    "standard_ball(-1)": "standard_ball needs d >= 0, got -1",
    "cyclic_polytope_points(3,3)":
        "cyclic_polytope_points needs n >= d + 1 = 4, got 3",
    "cyclic_polytope_points(3,0)": "cyclic_polytope_points needs d >= 1, got 0",
    "cycle()": "cycle takes 1 integer argument(s), got 0",
    "standard_sphere": "standard_sphere takes 1 integer argument(s), got 0",
    "cyclic_polytope_points()":
        "cyclic_polytope_points takes (n) or (n, d) integer arguments",
    "cyclic_polytope_points":
        "cyclic_polytope_points takes (n) or (n, d) integer arguments",
    "octahedron()": "octahedron",
    "cycle(5,)": "malformed catalog name 'cycle(5,)'",
    "cycle(,5,)": "malformed catalog name 'cycle(,5,)'",
    " cycle( 5 ) ": "cycle(5)",
    "\tgs_m38\n": "gs_m38",
    "cycle(+5)": "cycle(5)",
    "cyclic_polytope_points( 5 )": "cyclic_polytope_points(5,3)",
    "cyclic_polytope_points(5, 2)": "cyclic_polytope_points(5,2)",
    "no_such_thing(3)": "no catalog entry named 'no_such_thing'",
    "Cycle(4)": "no catalog entry named 'Cycle'",
    "nope(2)": "no catalog entry named 'nope'",
}

# One sample argument list for each parametric pattern in available().
SAMPLE_ARGUMENTS = {
    "cross_polytope(k)": "cross_polytope(3)",
    "cycle(n)": "cycle(4)",
    "cyclic_polytope_points(n,d)": "cyclic_polytope_points(5,2)",
    "standard_ball(d)": "standard_ball(2)",
    "standard_sphere(d)": "standard_sphere(2)",
}


class TestLookup:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            get("no_such_thing")

    @pytest.mark.parametrize("name", sorted(LOOKUP_OUTCOMES), ids=repr)
    def test_lookup_outcome(self, name):
        try:
            outcome = get(name).name
        except UnknownName as exc:
            outcome = exc.args[0]
        assert outcome == LOOKUP_OUTCOMES[name]

    def test_repeated_lookup_is_not_rebuilt(self):
        assert get("gs_s48").complex is get(" gs_s48 ").complex
        assert get("cycle(7)") is get("cycle(7)")

    def test_the_build_cache_is_bounded(self):
        first = get("cycle(3)")
        for n in range(4, 44):
            get(f"cycle({n})")
        assert catalog._build.cache_info().currsize <= 32
        assert get("cycle(3)") is not first
        assert get("cycle(3)") is get("cycle(3)")

    def test_malformed_names(self):
        for bad in ("cycle(", "cycle)4(", "cycle(x)", "gs_m38(3)", "cycle()"):
            with pytest.raises(UnknownName):
                get(bad)

    def test_out_of_range_arguments(self):
        for bad in ("cycle(2)", "cross_polytope(0)", "standard_sphere(-1)",
                    "cyclic_polytope_points(3,3)"):
            with pytest.raises(UnknownName):
                get(bad)

    @pytest.mark.parametrize("name", [
        "cross_polytope(13)", "cross_polytope(40)", "cross_polytope(99999999999)",
        "cycle(32769)", "cycle(-70000)", "standard_sphere(255)",
        "standard_ball(65536)", "cyclic_polytope_points(16385,4)",
    ])
    def test_oversized_entries_are_refused_unbuilt(self, monkeypatch, capsys, name):
        # the row's builder fails if called, and its stated size if formed
        # for an argument above the bound
        base = name.partition("(")[0]
        build, provenance, stated = catalog._TABLE[base]

        def unbuildable(*args):
            raise AssertionError(f"{name} was built")

        def bounded(*args):
            assert all(abs(a) <= 2**16 for a in args), "stated size of a huge argument"
            return stated(*args)

        unbuildable.__signature__ = inspect.signature(build)
        monkeypatch.setitem(catalog._TABLE, base, (unbuildable, provenance, bounded))
        message = f"{name} exceeds the catalog's size bound of 65536"
        with pytest.raises(UnknownName, match=re.escape(message)):
            get(name)
        assert main(["info", "--catalog", name]) == 65
        assert message in capsys.readouterr().err

    def test_whitespace_tolerated(self):
        assert get(" cycle( 5 ) ").complex == get("cycle(5)").complex

    def test_available_covers_all_fixed_names(self):
        names = available()
        for name in ("gs_m38", "barnette", "octahedron", "gs_s48"):
            assert name in names
        assert any(n.startswith("standard_sphere(") for n in names)

    def test_every_fixed_entry_resolves(self):
        for name in available():
            if "(" in name:
                sample = SAMPLE_ARGUMENTS[name]
                entry = get(sample)
                assert entry.name == sample
                assert (entry.complex is None) != (entry.points is None)
            else:
                entry = get(name)
                assert entry.name == name
                assert entry.complex is not None
