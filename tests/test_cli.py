import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from combisphere import from_facets, get
from combisphere.cli import main
from combisphere.serialize import (
    complex_to_text,
    parse_complex,
    parse_points,
    points_to_json,
)
from helpers import moebius_torus, octahedron_points


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


DEEP = 100_000
DEEP_COMPLEX = '{"facets": ' + "[" * DEEP + "]" * DEEP + "}"
DEEP_POINTS = '{"dim": 1, "points": {"1": ' + "[" * DEEP + "]" * DEEP + "}}"
# "01" and "1" both parse to the label 1
COLLIDING_POINTS = '{"dim": 1, "points": {"1": ["0"], "01": ["5"], "2": ["2"]}}'
# a repeated key: json.loads alone keeps the last value and drops the first
REPEATED_POINT = '{"dim": 1, "points": {"1": ["0"], "1": ["5"], "2": ["2"]}}'
REPEATED_FACETS = '{"dim": 1, "facets": [[1, 2], [2, 3]], "facets": [[1, 2]]}'


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


class TestPlumbing:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sphere"])
        assert exc.value.code == 64

    def test_unknown_verb_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_file_is_66(self, capsys):
        code, _, err = run(capsys, "info", "--in", "/no/such/file")
        assert code == 66

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
