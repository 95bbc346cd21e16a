import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from combisphere import (
    certify_ball,
    certify_sphere,
    cli,
    complete_ball_degree_d,
    complete_flag,
    complete_stacked_sphere,
    from_facets,
    get,
    perturb_to_general_position,
)
from combisphere.cli import main
from combisphere.errors import NotStacked
from combisphere.serialize import (
    complex_to_text,
    completion_to_json_obj,
    dumps,
    parse_complex,
    parse_points,
    points_to_json,
    verdict_to_json_obj,
)
from helpers import moebius_torus, octahedron_points, random_stacked_sphere


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text(complex_to_text(moebius_torus()))
    return str(path)


@pytest.fixture
def octa_points_file(tmp_path):
    from combisphere.serialize import points_to_json

    path = tmp_path / "octa.json"
    path.write_text(points_to_json(octahedron_points()))
    return str(path)


class TestInfo:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "gs_m38")
        assert code == 0
        assert "facets: 20" in out and "closed: yes" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "gs_m38", "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["f_vector"] == [8, 28, 40, 20]
        assert obj["pseudomanifold"] and obj["closed"]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n2 3\n1 3\n"))
        code, out, _ = run(capsys, "info", "--in", "-")
        assert code == 0 and "dim: 1" in out

    @pytest.mark.parametrize("text", [
        '{"facets": 5}',
        '{"facets": [5, 6]}',
        '{"dim": true, "facets": [[1, 2]]}',
    ])
    def test_malformed_json_is_a_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "complex.json"
        path.write_text(text)
        code, out, err = run(capsys, "info", "--in", str(path))
        assert code == 65 and out == ""
        assert "Traceback" not in err
        assert err.startswith("combisphere: ") and err.count("\n") == 1


class TestVerify:
    def test_sphere_certified(self, capsys):
        code, out, _ = run(capsys, "verify", "sphere", "--catalog", "gs_m38")
        assert code == 0
        assert out.startswith("certified:")

    def test_sphere_refuted(self, capsys, torus_file):
        code, out, _ = run(capsys, "verify", "sphere", "--in", torus_file)
        assert code == 1
        assert out.startswith("refuted:")

    def test_sphere_unknown(self, capsys):
        code, out, _ = run(capsys, "verify", "sphere", "--catalog", "gs_m38",
                           "--budget", "0")
        assert code == 2
        assert out.startswith("unknown:")

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "sphere", "--catalog", "gs_s48",
                           "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["status"] == "certified"
        assert obj["trace"]

    def test_ball(self, capsys):
        code, out, _ = run(capsys, "verify", "ball", "--catalog", "gs_ball_C")
        assert code == 0
        code, _, _ = run(capsys, "verify", "ball", "--catalog", "gs_m38")
        assert code == 1

    def test_stacked_ball(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2 3 4\n2 3 4 5\n")
        code, out, _ = run(capsys, "verify", "stacked-ball", "--in", str(path))
        assert code == 0 and out.startswith("yes")
        code, _, _ = run(capsys, "verify", "stacked-ball", "--catalog",
                         "octahedron")
        assert code == 1

    def test_stacked_sphere(self, capsys):
        code, _, _ = run(capsys, "verify", "stacked-sphere", "--catalog",
                         "cycle(6)")
        assert code == 0
        code, _, _ = run(capsys, "verify", "stacked-sphere", "--catalog",
                         "octahedron")
        assert code == 1

    def test_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "flag", "--catalog", "octahedron")
        assert code == 0
        code, _, _ = run(capsys, "verify", "flag", "--catalog",
                         "standard_sphere(2)")
        assert code == 1

    def test_pseudomanifold(self, capsys, torus_file):
        code, out, _ = run(capsys, "verify", "pseudomanifold", "--in",
                           torus_file)
        assert code == 0 and "closed" in out

    def test_crowded_ridge_is_named(self, capsys, tmp_path):
        # (2, 3) and (1, 2) of the facet (1, 2, 3) each lie in three facets;
        # (2, 3), by the earliest dropped vertex, is named
        path = tmp_path / "crowded.txt"
        path.write_text("1 2 3\n1 2 4\n1 2 5\n2 3 6\n2 3 7\n")
        code, out, err = run(capsys, "verify", "pseudomanifold", "--in", str(path))
        assert (code, out, err) == (1, "no: not a pseudomanifold\n", "")
        code, out, err = run(capsys, "verify", "sphere", "--in", str(path))
        assert (code, err) == (1, "")
        assert out == "refuted: not a pseudomanifold: ridge (2, 3) lies in 3 facets\n"


class TestComplete:
    def test_ball_degree_reproduces_gs_sphere(self, capsys):
        code, out, _ = run(capsys, "complete", "ball-degree", "--catalog",
                           "example43_ball", "--vertex", "8")
        assert code == 0
        assert out == complex_to_text(get("gs_m38").complex)

    def test_join_with_factor_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n2\n")
        b.write_text("3\n4\n")
        s = tmp_path / "s.txt"
        s.write_text("1 3\n1 4\n2 3\n2 4\n")
        code, out, _ = run(capsys, "complete", "join", "--in", str(s),
                           "--factor", str(a), "--factor", str(b),
                           "--choices", "1,3")
        assert code == 0
        assert parse_complex(out) == from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )

    def test_join_needs_two_factors(self, capsys, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("1 3\n1 4\n2 3\n2 4\n")
        code, _, err = run(capsys, "complete", "join", "--in", str(s),
                           "--factor", str(s))
        assert code == 65 and "factor" in err

    def test_join_choices_must_be_integers(self, capsys):
        code, out, err = run(capsys, "complete", "join", "--catalog",
                             "barnette_join", "--factor", "standard_sphere(0)",
                             "--factor", "cycle(3)", "--choices", "1,x")
        assert code == 65 and out == ""
        assert "--choices expects comma-separated integers, got '1,x'" in err
        assert "invalid literal" not in err

    def test_degree_json(self, capsys, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("1 2\n2 3\n3 4\n1 4\n")
        code, out, _ = run(capsys, "complete", "degree", "--in", str(s),
                           "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["contains_input"] is True
        assert obj["sphere"]["dim"] == 2

    def test_flag_completion(self, capsys):
        code, out, _ = run(capsys, "complete", "flag", "--catalog",
                           "octahedron")
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_stacked_sphere_completion(self, capsys):
        code, out, _ = run(capsys, "complete", "stacked-sphere", "--catalog",
                           "cycle(5)")
        assert code == 0
        assert parse_complex(out).dim == 2

    def test_disc_too_small_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2 3\n")
        code, _, err = run(capsys, "complete", "disc", "--in", str(path))
        assert code == 65
        assert "4 vertices" in err

    def test_trusted_closed_disc_is_a_data_error(self, capsys):
        # a closed surface has no boundary cycle to fill
        code, out, err = run(capsys, "complete", "disc", "--catalog", "octahedron",
                             "--trust")
        assert (code, out) == (65, "")
        assert err == "combisphere: boundary is not a single cycle\n"

    def test_refuted_input_exits_one(self, capsys, torus_file):
        code, _, err = run(capsys, "complete", "degree", "--in", torus_file)
        assert code == 1
        assert "not a sphere" in err

    def test_polytopal(self, capsys, octa_points_file, tmp_path):
        moved = tmp_path / "moved.json"
        code, out, _ = run(capsys, "hull", "--points", octa_points_file,
                           "--perturb", "--target", "octahedron",
                           "--out", str(moved))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "complete", "polytopal", "--points",
                           str(moved), "--vertex", "6", "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["contains_input"] is True
        assert "witness_points" in obj


class TestHull:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "hull", "--catalog",
                           "cyclic_polytope_points(6,3)")
        assert code == 0
        assert parse_complex(out).n_facets == 8

    def test_json_functionals(self, capsys):
        code, out, _ = run(capsys, "hull", "--catalog",
                           "cyclic_polytope_points(5,3)", "--json")
        obj = json.loads(out)
        assert code == 0
        for facet in obj["facets"]:
            assert len(facet["vertices"]) == 3
            int(facet["offset"])  # primitive integers serialize plainly

    def test_degenerate_points_are_a_data_error(self, capsys,
                                                octa_points_file):
        code, _, err = run(capsys, "hull", "--points", octa_points_file)
        assert code == 65
        assert "general position" in err

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "points": [[1, 2]]}',
        '{"dim": 2, "points": {"1": 5, "2": [0, 1], "3": [1, 1]}}',
        '{"dim": 2, "points": {"1": "10", "2": "01", "3": "11"}}',
        '{"dim": true, "points": {"1": [1], "2": [2]}}',
    ])
    def test_malformed_points_are_a_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "points.json"
        path.write_text(text)
        code, out, err = run(capsys, "hull", "--points", str(path))
        assert code == 65 and out == ""
        assert "Traceback" not in err
        assert err.startswith("combisphere: ") and err.count("\n") == 1

    def test_perturb_needs_target(self, capsys, octa_points_file):
        code, _, err = run(capsys, "hull", "--points", octa_points_file,
                           "--perturb")
        assert code == 65 and "--target" in err

    def test_perturb_output_reparses(self, capsys, octa_points_file):
        code, out, _ = run(capsys, "hull", "--points", octa_points_file,
                           "--perturb", "--target", "octahedron")
        assert code == 0
        assert parse_points(out).labels == (1, 2, 3, 4, 5, 6)


# sha256 of repr((exit code, stdout, stderr)) for `catalog ARGV`, recorded
# before the catalog became one table.
CATALOG_SHA256 = {
    "list":
        "34009f5879ecd049bb5c49737c4804171a1b0660155b0a6483e5c610a0b5cae9",
    "list --json":
        "d5cef67d530206dfe3b24d9164efdb9791febf96208ce0ab065da4717633dac4",
    "show barnette":
        "593a56c065f2a34d4d19f0a3656531c25d3ef3d3fffa6ebfe1bcac06964c6773",
    "show barnette --json":
        "96c84fbf3b9f10408df1f15946d306806080275065424c70b86bf6666b5c0eb7",
    "show barnette_join":
        "7d8a453d1967f8b43eaebc93241ae61501a101ab7aa2fa6a1f95a7c6f4b74b46",
    "show barnette_join --json":
        "d8b4613da5ba44543f73f3f93578f4ab1e2a276fc5304aa72b61f071dce8a0df",
    "show example43_ball":
        "4d28c93934091bf09c4b272252bb5d25a66c4ff6fba7ffed6514044fa0475b64",
    "show example43_ball --json":
        "038e538ee5ac5963c0f19f92260a75ba16db21cabe043942b9d1b84ad1659960",
    "show gs_ball_C":
        "94f34a6d9a69a4eafbdfce207d7239a9e4ce7d19028484a14e18bf0ed65c30cb",
    "show gs_ball_C --json":
        "e7388c79f96b2405fcb3211ee0d1f25d8310ef2e0dc0fffc4ce33d925e3644a8",
    "show gs_ball_D":
        "02cff41af5a17ee21098e330da256329ed372e7c58183f34769a2745ecb93e79",
    "show gs_ball_D --json":
        "c9d7dde9251030ad83aef53b2834cf77f5a74ff07dde6ea717491aa14177c30f",
    "show gs_m38":
        "39aad4f42512ea94ddb7e62026dafe460bb3bc306de6ebdc6d5c66a633d1a519",
    "show gs_m38 --json":
        "ed6666db22b1ff1740ee9d3413c88f61f38ee6055bf536039cb18e33fd5419c3",
    "show gs_s37":
        "80340044226b0387c20063b1464ff7dc3e91721fa2ad543a71ddc19efb6bf5ee",
    "show gs_s37 --json":
        "3a10a9624c503a3a7da87d5c894e676aa3f8e3bf1f79536e601df7823252b607",
    "show gs_s48":
        "6448c2eee00bdac13cc184815ff63c9313c027e45a7a8470b926eb7c2863e38f",
    "show gs_s48 --json":
        "388a77189370bd1ea772b14018462fcce2b1acdc9c43c94d09d34c975abf445a",
    "show octahedron":
        "1b27472ff85849175221ff0a7ed6d5937e222d669d8b675bf5e1db40dd1ea401",
    "show octahedron --json":
        "e1246d7630263d402d3bdc9f543cfe3490d4a622b4177993bfd3b65386866b50",
    "show cross_polytope(4)":
        "b7259c193092ccb78c77f0b2ce96ef7fb8a579b019c3b2528e3b947472f0913e",
    "show cross_polytope(4) --json":
        "3a79664e44eeefc24f862ec4f714eb09a587f4182c0405029c096a11f4451e84",
    "show cyclic_polytope_points(6,3)":
        "25b18d57a09c5247b2de89f39613d1dd8a779f479624bfb652acb287bae7da09",
    "show cyclic_polytope_points(6,3) --json":
        "2518cbd99d4b24f4c5fc13ddee5e61eeff7730fbb865abb1b888366dc032a103",
    "show":
        "8e6459bdb2445b30cd87c1c8b1b9be15e8d7bd5e377da4f30ef0b975076f10ca",
    "show nope":
        "e2efef3796185772889d8d9863de89d393f0f4d279c4b474b596c203535a83b9",
}


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "gs_m38" in out.splitlines()

    def test_show_text_reparses(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "gs_s37")
        assert code == 0
        assert parse_complex(out) == get("gs_s37").complex

    def test_show_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "barnette", "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["name"] == "barnette"
        assert "Barnette" in obj["provenance"]
        assert obj["complex"]["dim"] == 3

    def test_show_points_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "show",
                           "cyclic_polytope_points(5,3)")
        assert code == 0
        assert parse_points(out).labels == (1, 2, 3, 4, 5)

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nope")
        assert code == 65 and "nope" in err

    def test_show_needs_name(self, capsys):
        code, _, err = run(capsys, "catalog", "show")
        assert code == 65

    def test_unknown_name_with_arguments(self, capsys):
        code, out, err = run(capsys, "catalog", "show", "nope(2)")
        assert (code, out) == (65, "")
        assert err == "combisphere: no catalog entry named 'nope'\n"

    def test_empty_argument_slot_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "catalog", "show", "cycle(5,)")
        assert (code, out) == (65, "")
        assert err == "combisphere: malformed catalog name 'cycle(5,)'\n"

    @pytest.mark.parametrize("argv", sorted(CATALOG_SHA256))
    def test_output_digest(self, capsys, argv):
        code, out, err = run(capsys, "catalog", *argv.split())
        digest = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
        assert digest == CATALOG_SHA256[argv]


class TestChain:
    def test_text_blocks(self, capsys):
        code, out, _ = run(capsys, "chain", "--catalog", "cycle(5)")
        assert code == 0
        assert out.count("# step") == 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, "chain", "--catalog", "cycle(5)")
        codej, outj, _ = run(capsys, "chain", "--catalog", "cycle(5)",
                             "--json")
        obj = json.loads(outj)
        assert codej == 0
        assert [step["dim"] for step in obj["chain"]] == [1, 2, 3]

    @pytest.mark.parametrize("verb", [["chain"], ["complete", "stacked-sphere"]])
    @pytest.mark.parametrize("facets", [
        "1 2 3\n1 3 4\n",
        "1 2 3\n1 3 4\n1 4 5\n",
        "1 2 3\n",
        "1 2 3 4\n",
        "1 2 3\n4 5 6\n",
    ], ids=["4-vertex disc", "5-vertex disc", "triangle", "standard 3-ball",
            "two triangles"])
    def test_not_closed_is_refuted(self, capsys, monkeypatch, verb, facets):
        monkeypatch.setattr(sys, "stdin", io.StringIO(facets))
        code, out, err = run(capsys, *verb, "--in", "-")
        assert (code, out) == (1, "")
        assert err == ("combisphere: input is not a closed pseudomanifold "
                       "of dimension >= 1\n")

    @pytest.mark.parametrize("change", ["planted facet", "removed facet"])
    def test_broken_stacked_sphere_is_refuted(self, capsys, monkeypatch, change):
        # the vertex collapses run first and stall; the closedness check then
        # names the refusal, alike in the library and both verbs
        S = random_stacked_sphere(random.Random(4), 3, 12)
        facets = [tuple(f) for f in S.facets]
        if change == "planted facet":  # its ridge lies in three facets
            facets.append(facets[0][:3] + (max(S.vertices) + 1,))
        else:
            facets.pop(len(facets) // 2)
        X = from_facets(facets)
        message = "input is not a closed pseudomanifold of dimension >= 1"
        with pytest.raises(NotStacked) as refused:
            complete_stacked_sphere(X)
        assert str(refused.value) == message
        for verb, expected in (
            (["verify", "stacked-sphere"], (1, f"no: {message}\n", "")),
            (["complete", "stacked-sphere"], (1, "", f"combisphere: {message}\n")),
        ):
            monkeypatch.setattr(sys, "stdin", io.StringIO(complex_to_text(X)))
            assert run(capsys, *verb, "--in", "-") == expected


DEEP = 100_000
DEEP_COMPLEX = '{"facets": ' + "[" * DEEP + "]" * DEEP + "}"
DEEP_POINTS = '{"dim": 1, "points": {"1": ' + "[" * DEEP + "]" * DEEP + "}}"
# "01" and "1" both parse to the label 1
COLLIDING_POINTS = '{"dim": 1, "points": {"1": ["0"], "01": ["5"], "2": ["2"]}}'
# a repeated key: json.loads alone keeps the last value and drops the first
REPEATED_POINT = '{"dim": 1, "points": {"1": ["0"], "1": ["5"], "2": ["2"]}}'
TETRAHEDRON_7_TO_10 = "7 8 9\n7 8 10\n7 9 10\n8 9 10\n"
REPEATED_FACETS = '{"dim": 1, "facets": [[1, 2], [2, 3]], "facets": [[1, 2]]}'


# the complete kinds that read a complex, not points
COMPLEX_KINDS = ("join", "degree", "flag", "stacked-ball", "stacked-sphere",
                 "ball-degree", "disc")
_ALL_CHOICES = ("factor", "choices", "vertex", "apex")
_SEARCH = ("budget", "seed")
# the options that each verify and complete kind does not read, of those its
# parser defines
UNREAD_OPTIONS = {
    ("complete", "join"): ("vertex", "apex"),
    ("complete", "degree"): ("factor", "choices"),
    ("complete", "flag"): ("factor", "choices"),
    ("complete", "ball-degree"): ("factor", "choices", "apex"),
    ("complete", "polytopal"): ("factor", "choices", "apex", "trust", *_SEARCH),
    ("complete", "stacked-ball"): (*_ALL_CHOICES, "trust", *_SEARCH),
    ("complete", "stacked-sphere"): (*_ALL_CHOICES, "trust", *_SEARCH),
    ("complete", "disc"): _ALL_CHOICES,
    ("verify", "stacked-ball"): _SEARCH,
    ("verify", "stacked-sphere"): _SEARCH,
    ("verify", "flag"): _SEARCH,
    ("verify", "pseudomanifold"): _SEARCH,
}


def _case_id(argv):
    """"disc--in" for complete disc --in ..., "verify-flag--in" for verify."""
    prefix = "" if argv[0] == "complete" else f"{argv[0]}-"
    return prefix + "".join(argv[1:3])


class TestHostileInput:
    """Input that used to escape as a traceback or be read silently wrong."""

    @staticmethod
    def _run(capsys, monkeypatch, tmp_path, text, via):
        path = tmp_path / "input.json"
        path.write_text(text)
        source = str(path)
        if via.endswith("stdin"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            source = "-"
        cycle = tmp_path / "cycle.txt"
        cycle.write_text("1 2\n2 3\n1 3\n")
        (tmp_path / "octa.json").write_text(points_to_json(octahedron_points()))
        argv = {
            "in": ["info", "--in", source],
            "in-stdin": ["info", "--in", source],
            "factor": ["complete", "join", "--in", str(cycle),
                       "--factor", source, "--factor", str(cycle)],
            "target": ["hull", "--points", str(tmp_path / "octa.json"),
                       "--perturb", "--target", source],
            "target-labels": ["hull", "--catalog", "cyclic_polytope_points(6,3)",
                              "--perturb", "--target", source],
            "points": ["hull", "--points", source],
            "points-stdin": ["hull", "--points", source],
        }[via]
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == ""
        assert "Traceback" not in err
        assert err.startswith("combisphere: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("via", ["in", "in-stdin", "factor", "target"])
    def test_deeply_nested_complex(self, capsys, monkeypatch, tmp_path, via):
        err = self._run(capsys, monkeypatch, tmp_path, DEEP_COMPLEX, via)
        assert "nested too deeply" in err

    @pytest.mark.parametrize("via", ["points", "points-stdin"])
    def test_deeply_nested_points(self, capsys, monkeypatch, tmp_path, via):
        err = self._run(capsys, monkeypatch, tmp_path, DEEP_POINTS, via)
        assert "nested too deeply" in err

    @pytest.mark.parametrize("via", ["points", "points-stdin"])
    def test_colliding_point_labels(self, capsys, monkeypatch, tmp_path, via):
        err = self._run(capsys, monkeypatch, tmp_path, COLLIDING_POINTS, via)
        assert "'01'" in err

    @pytest.mark.parametrize("via", ["points", "points-stdin"])
    def test_repeated_point_label(self, capsys, monkeypatch, tmp_path, via):
        err = self._run(capsys, monkeypatch, tmp_path, REPEATED_POINT, via)
        assert "repeats the key '1'" in err

    @pytest.mark.parametrize("via", ["in", "in-stdin"])
    def test_repeated_facets_key(self, capsys, monkeypatch, tmp_path, via):
        err = self._run(capsys, monkeypatch, tmp_path, REPEATED_FACETS, via)
        assert "repeats the key 'facets'" in err

    @pytest.mark.parametrize("coordinate, message", [
        ("1/0", "'1/0' has a zero denominator"),
        ("1e5000", f"the exponent of '1e5000' exceeds {sys.get_int_max_str_digits()}"),
    ], ids=["zero-denominator", "huge-exponent"])
    def test_unreadable_coordinate(self, capsys, monkeypatch, tmp_path,
                                   coordinate, message):
        text = f'{{"dim": 1, "points": {{"1": ["0"], "2": ["{coordinate}"]}}}}'
        err = self._run(capsys, monkeypatch, tmp_path, text, "points")
        assert err == f"combisphere: point 2: {message}\n"

    def test_coordinate_with_an_empty_exponent(self, capsys, monkeypatch, tmp_path):
        text = '{"dim": 1, "points": {"1": ["0"], "2": ["1e"]}}'
        err = self._run(capsys, monkeypatch, tmp_path, text, "points")
        assert err == "combisphere: point 2: Invalid literal for Fraction: '1e'\n"

    def test_target_vertex_without_a_point(self, capsys, monkeypatch, tmp_path):
        # the boundary of a tetrahedron on labels that no point carries
        err = self._run(capsys, monkeypatch, tmp_path, TETRAHEDRON_7_TO_10,
                        "target-labels")
        assert err == "combisphere: no point labeled 7\n"

    @pytest.mark.parametrize("argv, message", [
        (["info", "--catalog", "cyclic_polytope_points(6,3)"],
         "catalog entry 'cyclic_polytope_points(6,3)' is a point configuration"),
        (["hull", "--catalog", "cycle(5)"],
         "catalog entry 'cycle(5)' is not a point configuration"),
        (["complete", "polytopal", "--in", "t.txt"],
         "complete polytopal needs --points or --catalog"),
        *((["complete", kind, "--points", "t.txt"],
           f"complete {kind} needs --in or --catalog") for kind in COMPLEX_KINDS),
    ], ids=["complex-from-points", "points-from-complex", "polytopal-without-points",
            *(f"{kind}-from-points" for kind in COMPLEX_KINDS)])
    def test_wrong_kind_of_input(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("1 2\n2 3\n1 3\n")
        assert run(capsys, *argv) == (65, "", f"combisphere: {message}\n")

    @pytest.mark.parametrize("argv, code, message", [
        (["info", "--catalog", ""], 65, "malformed catalog name ''"),
        (["complete", "degree", "--catalog", ""], 65, "malformed catalog name ''"),
        (["hull", "--points", ""], 66, "[Errno 2] No such file or directory: ''"),
        (["complete", "join", "--catalog", "barnette_join", "--factor",
          "standard_sphere(0)", "--factor", "cycle(3)", "--choices", ""],
         65, "--choices expects comma-separated integers, got ''"),
        (["info", "--catalog", "cycle(5)", "--out", ""],
         73, "[Errno 2] No such file or directory: ''"),
        (["hull", "--catalog", "cyclic_polytope_points(6,3)", "--perturb",
          "--target", ""], 65, "malformed catalog name ''"),
    ], ids=["info-catalog", "complete-catalog", "hull-points", "join-choices",
            "info-out", "hull-target"])
    def test_empty_flag_value(self, capsys, argv, code, message):
        # a given flag is read even when empty, not taken for a missing one
        assert run(capsys, *argv) == (code, "", f"combisphere: {message}\n")

    @pytest.mark.parametrize("argv, flag", [
        (["complete", "stacked-ball", "--catalog", "gs_ball_C", "--vertex", "3"],
         "vertex"),
        (["complete", "disc", "--catalog", "gs_ball_C", "--apex", "2"], "apex"),
        (["complete", "degree", "--catalog", "gs_m38", "--choices", "1,2"], "choices"),
        (["complete", "stacked-ball", "--catalog", "gs_ball_C", "--budget", "5",
          "--trust", "--seed", "3"], "trust"),
        (["verify", "flag", "--catalog", "octahedron", "--seed", "3"], "seed"),
        # --trust takes no value
        *(([verb, kind, "--in", "/no/such/file", f"--{flag}",
            *(() if flag == "trust" else ("1",))], flag)
          for (verb, kind), flags in UNREAD_OPTIONS.items() for flag in flags),
    ], ids=lambda p: _case_id(p) if isinstance(p, list) else p)
    def test_unread_choice_flag(self, capsys, argv, flag):
        # refused before the input is read, so a missing file is not reached
        message = f"combisphere: {argv[0]} {argv[1]} does not take --{flag}\n"
        assert run(capsys, *argv) == (65, "", message)

    def test_target_without_perturb(self, capsys):
        argv = ["hull", "--catalog", "cyclic_polytope_points(6,3)",
                "--target", "octahedron"]
        assert run(capsys, *argv) == (65, "", "combisphere: --target needs --perturb\n")

    def test_seed_without_perturb(self, capsys):
        argv = ["hull", "--catalog", "cyclic_polytope_points(6,3)", "--seed", "9"]
        assert run(capsys, *argv) == (65, "", "combisphere: --seed needs --perturb\n")

    @pytest.mark.parametrize("verb", [["info"], ["verify", "sphere"],
                                      ["verify", "ball"], ["complete", "degree"]])
    def test_empty_facet(self, capsys, tmp_path, verb):
        path = tmp_path / "empty.json"
        path.write_text('{"facets": [[]]}')
        code, out, err = run(capsys, *verb, "--in", str(path))
        assert (code, out) == (65, "")
        assert err == "combisphere: a facet needs at least one vertex\n"


def _verb_parsers() -> dict:
    sub = next(a for a in cli.build_parser()._actions if a.dest == "verb")
    return sub.choices


class TestOptionTable:
    """cli._READS alone says which verify and complete kind reads which option."""

    def test_given_options_are_the_parsers(self):
        not_options = {"help", "kind", "infile", "catalog", "points", "json", "out"}
        defined = {action.dest for verb in ("verify", "complete")
                   for action in _verb_parsers()[verb]._actions}
        assert len(set(cli._OPTIONS)) == len(cli._OPTIONS)
        assert set(cli._OPTIONS) == defined - not_options

    def test_every_option_is_read_by_some_kind(self):
        assert set().union(*cli._READS.values()) == set(cli._OPTIONS)

    def test_readme_table_is_the_reads_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        _, table = readme.split("| Kind | Options it reads |\n|---|---|\n")
        rows = {}
        for line in table.split("\n\n")[0].splitlines():
            kinds, options = (cell.strip() for cell in line.strip("|").split("|"))
            flags = [] if options == "none" else [
                option.strip(" `").removeprefix("--") for option in options.split(",")]
            for kind in kinds.split(","):
                rows[tuple(kind.strip(" `").split())] = flags
        assert rows.pop(("every", "other", "kind")) == []
        assert rows == {key: list(reads) for key, reads in cli._READS.items()}

    def test_every_row_names_a_kind(self):
        parsers = _verb_parsers()
        for verb, kind in cli._READS:
            kinds = next(a for a in parsers[verb]._actions if a.dest == "kind")
            assert kind in kinds.choices

    @pytest.mark.parametrize("argv, library", [
        (["verify", "sphere", "--catalog", "gs_s48", "--json"],
         lambda: dumps(verdict_to_json_obj(certify_sphere(get("gs_s48").complex)))),
        (["verify", "ball", "--catalog", "gs_ball_D", "--json"],
         lambda: dumps(verdict_to_json_obj(certify_ball(get("gs_ball_D").complex)))),
        (["complete", "flag", "--catalog", "octahedron", "--json"],
         lambda: dumps(completion_to_json_obj(
             complete_flag(get("octahedron").complex)))),
        (["complete", "ball-degree", "--catalog", "example43_ball", "--vertex", "8",
          "--json"],
         lambda: dumps(completion_to_json_obj(
             complete_ball_degree_d(get("example43_ball").complex, 8)))),
    ], ids=["verify-sphere", "verify-ball", "complete-flag", "complete-ball-degree"])
    def test_option_left_out_takes_the_library_default(self, capsys, argv, library):
        assert run(capsys, *argv) == (0, library(), "")

    def test_hull_seed_left_out_takes_the_library_default(self, capsys,
                                                           octa_points_file):
        moved = perturb_to_general_position(octahedron_points(),
                                            get("octahedron").complex)
        argv = ["hull", "--points", octa_points_file, "--perturb", "--target",
                "octahedron"]
        assert run(capsys, *argv) == (0, points_to_json(moved), "")


class TestPlumbing:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sphere"])
        assert exc.value.code == 64

    def test_unknown_verb_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("budget, message", [
        (["--budget", "-1"], "must not be negative, got -1"),
        (["--budget=-7"], "must not be negative, got -7"),
        (["--budget", "ten"], "invalid int value: 'ten'"),
    ])
    @pytest.mark.parametrize("verb", [["verify", "sphere"], ["complete", "degree"],
                                      ["complete", "degree", "--trust"]])
    def test_bad_budget_is_64(self, capsys, verb, budget, message):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--catalog", "gs_m38", *budget])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument --budget: {message}\n")

    def test_missing_file_is_66(self, capsys):
        code, _, err = run(capsys, "info", "--in", "/no/such/file")
        assert code == 66

    def test_out_in_a_missing_directory_is_73(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "x.txt"
        code, out, err = run(capsys, "info", "--catalog", "gs_m38",
                             "--out", str(path))
        assert (code, out) == (73, "")
        assert "Traceback" not in err
        assert err.startswith("combisphere: ") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_out_naming_a_directory_is_73(self, capsys, tmp_path):
        code, out, err = run(capsys, "info", "--catalog", "gs_m38",
                             "--out", str(tmp_path))
        assert (code, out) == (73, "")
        assert "Traceback" not in err
        assert err.startswith("combisphere: ") and err.count("\n") == 1

    def test_out_flag_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "m38.txt"
        code, out, _ = run(capsys, "complete", "ball-degree", "--catalog",
                           "example43_ball", "--vertex", "8")
        code2, out2, _ = run(capsys, "complete", "ball-degree", "--catalog",
                             "example43_ball", "--vertex", "8",
                             "--out", str(path))
        assert code == code2 == 0
        assert out2 == ""
        assert path.read_text() == out

    def test_determinism(self, capsys):
        _, a, _ = run(capsys, "verify", "sphere", "--catalog", "gs_s48",
                      "--json", "--seed", "5")
        _, b, _ = run(capsys, "verify", "sphere", "--catalog", "gs_s48",
                      "--json", "--seed", "5")
        assert a == b

    def test_round_trip_of_completion_output(self, capsys):
        code, out, _ = run(capsys, "complete", "stacked-ball", "--catalog",
                           "gs_ball_C")
        assert code == 0
        sphere = parse_complex(out)
        assert sphere == from_facets(sphere.facets)

    def test_installed_entry_point(self):
        # Runs the `combisphere` script when one is installed. From a bare
        # checkout, runs the target declared in pyproject.toml through the
        # same wrapper pip writes into that script, in its own process.
        checkout = Path(__file__).resolve().parents[1]
        argv = ["verify", "sphere", "--catalog", "gs_m38"]
        script = shutil.which("combisphere")
        if script:
            command = [script, *argv]
        else:
            tomllib = pytest.importorskip("tomllib")
            pyproject = (checkout / "pyproject.toml").read_text()
            scripts = tomllib.loads(pyproject)["project"]["scripts"]
            module, attr = scripts["combisphere"].split(":")
            wrapper = (f"import sys; from {module} import {attr}; "
                       f"sys.argv[0] = 'combisphere'; sys.exit({attr}())")
            command = [sys.executable, "-c", wrapper, *argv]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(checkout / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env)
        detail = (f"exit {proc.returncode}\nstdout: {proc.stdout!r}\n"
                  f"stderr: {proc.stderr!r}")
        assert proc.returncode == 0, detail
        assert proc.stdout.startswith("certified:"), detail


def outcome(capsys, argv, out_path=None):
    """(exit code, stdout, stderr, --out file text) of one main() call; a
    usage error's SystemExit code stands in for the return value."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_text()
        out_path.unlink()
    return code, captured.out, captured.err, written


class TestParserReuse:
    """main() keeps one parser per process; reusing it must not show."""

    @pytest.fixture
    def fresh(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @pytest.fixture
    def join_files(self, tmp_path):
        paths = {}
        for name, text in [("a", "1\n2\n"), ("b", "3\n4\n"),
                           ("s", "1 3\n1 4\n2 3\n2 4\n")]:
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            paths[name] = str(path)
        return paths

    def test_parser_is_built_once(self, capsys, monkeypatch, fresh,
                                  join_files):
        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        calls = [
            ["info", "--catalog", "gs_m38"],
            ["verify", "sphere", "--catalog", "cycle(5)"],
            ["verify", "sphere"],
            ["verify", "flag", "--catalog", "octahedron", "--json"],
            ["complete", "join", "--in", join_files["s"],
             "--factor", join_files["a"], "--factor", join_files["b"]],
            ["complete", "stacked-sphere", "--catalog", "cycle(4)"],
            ["hull", "--catalog", "cyclic_polytope_points(6,3)"],
            ["catalog", "list"],
            ["catalog", "show", "cycle(4)", "--json"],
            ["chain", "--catalog", "cycle(5)"],
            ["frobnicate"],
            ["info", "--catalog", "barnette", "--json"],
        ]
        codes = [outcome(capsys, argv)[0] for argv in calls]
        assert codes == [0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 64, 0]
        assert len(builds) == 1
        assert real() is not real()

    def test_reuse_leaks_no_state(self, capsys, tmp_path, fresh, join_files):
        out_path = tmp_path / "out.txt"
        s, a, b = join_files["s"], join_files["a"], join_files["b"]
        script = [
            ["verify", "sphere"],
            ["verify", "sphere", "--catalog", "gs_m38"],
            ["complete", "join", "--in", s, "--factor", a, "--factor", b,
             "--choices", "1,3"],
            ["complete", "join", "--in", s, "--factor", a],
            ["complete", "ball-degree", "--catalog", "example43_ball",
             "--vertex", "8", "--out", str(out_path)],
            ["complete", "ball-degree", "--catalog", "example43_ball",
             "--vertex", "8"],
            ["info", "--catalog", "gs_s37", "--json"],
            ["info", "--catalog", "gs_s37"],
        ]
        shared = [outcome(capsys, argv, out_path) for argv in script]
        alone = []
        for argv in script:
            cli._parser.cache_clear()
            alone.append(outcome(capsys, argv, out_path))
        assert shared == alone
        assert shared[0][0] == 64 and shared[1][0] == 0
        assert shared[2][0] == 0
        code, out, err, _ = shared[3]
        assert (code, out) == (65, "")
        assert "needs at least two --factor" in err
        assert shared[4][1] == "" and shared[4][3] == shared[5][1]
        plain = dict(line.split(": ") for line in shared[7][1].splitlines())
        assert json.loads(shared[6][1])["n_facets"] == int(plain["facets"])
