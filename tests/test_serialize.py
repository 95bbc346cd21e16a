import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combisphere import (
    certify_sphere,
    complete_disc,
    from_facets,
    get,
    polytopal_complete,
)
from combisphere.errors import EmptyInput, InvalidVertexLabel
from combisphere.serialize import (
    complex_from_json_obj,
    complex_from_text,
    complex_to_json,
    complex_to_text,
    completion_to_json_obj,
    parse_complex,
    parse_points,
    points_to_json,
    verdict_to_json_obj,
)
from helpers import octahedron_points, reference_parse_complex


class TestTextFormat:
    def test_round_trip(self):
        X = get("gs_m38").complex
        assert complex_from_text(complex_to_text(X)) == X

    def test_canonical_line_order(self):
        X = from_facets([(2, 3), (1, 2), (1, 3)])
        assert complex_to_text(X) == "1 2\n1 3\n2 3\n"

    def test_comments_and_blanks_ignored(self):
        text = "# a triangle\n\n1 2  # first edge\n2 3\n1 3\n"
        assert complex_from_text(text) == from_facets([(1, 2), (2, 3), (1, 3)])

    def test_bad_token_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            complex_from_text("1 2\n2 x\n")

    @pytest.mark.parametrize("line", [
        "2 x", "1 2.0", "3 ++4", "1 " + "9" * (sys.get_int_max_str_digits() + 1),
    ], ids=["word", "float", "sign", "past-digit-limit"])
    def test_bad_token_message(self, line):
        with pytest.raises(ValueError) as exc:
            complex_from_text(f"# header\n1 2\n{line}  # note\n")
        assert str(exc.value) == f"line 3: expected integers, got {line + '  # note'!r}"

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyInput):
            complex_from_text("# nothing here\n")


class TestJsonFormat:
    def test_round_trip(self):
        X = get("barnette").complex
        obj = json.loads(complex_to_json(X))
        assert obj["dim"] == 3
        assert complex_from_json_obj(obj) == X

    def test_dim_cross_checked(self):
        with pytest.raises(ValueError, match="dim"):
            complex_from_json_obj({"dim": 2, "facets": [[1, 2]]})

    def test_missing_facets_rejected(self):
        with pytest.raises(ValueError):
            complex_from_json_obj({"dim": 2})

    @pytest.mark.parametrize("obj, message", [
        ({"facets": 5}, "'facets' must be a list, got 5"),
        ({"facets": [5, 6]}, "a facet must be a list, got 5"),
        ({"facets": "12"}, "'facets' must be a list, got '12'"),
        ({"facets": [[1, 2]], "dim": True}, "bad dimension True"),
        ({"facets": [[1, 2]], "dim": "1"}, "bad dimension '1'"),
    ])
    def test_malformed_shapes_rejected(self, obj, message):
        with pytest.raises(ValueError) as exc:
            complex_from_json_obj(obj)
        assert str(exc.value) == message

    def test_sniffing(self):
        X = get("octahedron").complex
        assert parse_complex(complex_to_json(X)) == X
        assert parse_complex(complex_to_text(X)) == X


def _parsed(parse, text):
    """The facets parse reads from text, or (class, message)."""
    try:
        return parse(text).facets
    except Exception as exc:  # compared in full
        return type(exc), str(exc)


# tokens int() reads, and some it reads as labels from_facets refuses or
# does not read at all: a sign, digit groups, Unicode digits, a word, a
# float and a string past the int string-digit limit
_TOKENS = st.one_of(
    st.integers(1, 9).map(str), st.integers(1, 9).map(str),
    st.sampled_from(["+3", "1_0", "\u0663", "\uff15", "0", "-2", "x", "2.0",
                     "9" * (sys.get_int_max_str_digits() + 1)]),
)
_SPACES = st.sampled_from([" ", "  ", "\t", " \x0c "])
_ENDS = st.sampled_from(["\n", "\r\n", "\x0c", "\n\n"])


@st.composite
def complex_texts(draw):
    """Facet files with comments, blank lines, assorted line ends and
    separators, rows of one width or ragged, and now and then a bad token."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(1, 9), min_size=width, max_size=width, unique=True)
    rows = draw(st.lists(st.one_of(row.map(lambda r: list(map(str, r))),
                                   st.lists(_TOKENS, max_size=5)), max_size=8))
    lines = []
    for tokens in rows:
        line = draw(_SPACES).join(tokens)
        if draw(st.booleans()):
            line += draw(st.sampled_from(["", " # note", "# 1 x"]))
        lines.append(line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    ends = draw(st.lists(_ENDS, min_size=len(lines), max_size=len(lines)))
    return "".join(map("".join, zip(lines, ends)))


_JSON_LABELS = st.one_of(st.integers(1, 9), st.integers(1, 9),
                         st.sampled_from([0, -1, True, 1.5, "2", None]))


@st.composite
def complex_jsons(draw):
    """Facet lists as JSON: facets of one width or ragged, bad labels, and
    facets that are not lists, with a right, wrong or bad stated dim."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(1, 9), min_size=width, max_size=width, unique=True)
    facet = st.one_of(row, row, st.lists(_JSON_LABELS, max_size=5),
                      st.sampled_from([5, "12", None, {"a": 1}]))
    obj = {"facets": draw(st.lists(facet, max_size=8))}
    if draw(st.booleans()):
        obj["dim"] = draw(st.sampled_from([width - 1, width, True, "1"]))
    return json.dumps(obj)


class TestParsersMatchTheLineAtATimeReference:
    @settings(max_examples=400, deadline=None)
    @given(text=complex_texts())
    @example(text="# header\r\n1 2\r\n\r\n2 3 # c\x0c1\t3\n")
    @example(text="+3 1_0\n\u0663 10\n")
    @example(text="1 2\n2 3\n3 x\n4 y\n")
    @example(text="1 2 3\n1 2\n0 4\n")
    @example(text="1 2\n1 " + "9" * (sys.get_int_max_str_digits() + 1) + "\n")
    @example(text="\n# only a comment\n")
    def test_text(self, text):
        assert _parsed(parse_complex, text) == _parsed(reference_parse_complex, text)

    @settings(max_examples=300, deadline=None)
    @given(text=complex_jsons())
    @example(text='{"facets": [[1, 0], 5]}')
    @example(text='{"facets": [[2, 1], [1, 2], [3, 1]], "dim": 1}')
    @example(text='{"facets": [[1, 2], [3]]}')
    def test_json(self, text):
        assert _parsed(parse_complex, text) == _parsed(reference_parse_complex, text)

    def test_a_bad_label_before_a_non_list_facet_is_named(self):
        with pytest.raises(InvalidVertexLabel) as exc:
            parse_complex('{"facets": [[1, 2], [1, 0], 5]}')
        assert str(exc.value) == "vertex labels must be positive integers, got 0"


class TestPointsFormat:
    def test_round_trip_exact(self):
        pc = octahedron_points()
        assert parse_points(points_to_json(pc)) == pc

    def test_fractions_serialized_as_strings(self):
        pts = get("cyclic_polytope_points(4,3)").points
        obj = json.loads(points_to_json(pts))
        assert obj["points"]["2"] == ["2", "4", "8"]

    def test_labels_in_numeric_order(self):
        text = points_to_json(octahedron_points())
        keys = list(json.loads(text)["points"])
        assert keys == [str(k) for k in range(1, 7)]

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            parse_points('{"dim": 1, "points": {"a": ["1"]}}')

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            parse_points('{"points": {}}')
        with pytest.raises(ValueError):
            parse_points('{"dim": 0, "points": {"1": []}}')


    @pytest.mark.parametrize("text, message", [
        ('{"dim": 1, "points": [[1, 2]]}',
         "'points' must be an object from labels to coordinate rows"),
        ('{"dim": 1, "points": {"1": 5}}', "point 1 must be a list, got 5"),
        ('{"dim": 2, "points": {"1": "10", "2": "01", "3": "11"}}',
         "point 1 must be a list, got '10'"),
        ('{"dim": true, "points": {"1": ["1"], "2": ["2"]}}', "bad dimension True"),
    ])
    def test_malformed_shapes_rejected(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_points(text)
        assert str(exc.value) == message


class TestReportObjects:
    def test_verdict_shape(self):
        v = certify_sphere(get("gs_m38").complex)
        obj = verdict_to_json_obj(v)
        assert set(obj) == {"status", "reason", "trace"}
        assert obj["status"] == "certified"
        assert all(
            isinstance(pair, list) and len(pair) == 2 for pair in obj["trace"]
        )

    def test_completion_shape(self):
        result = complete_disc(from_facets([(1, 2, 3), (1, 3, 4)]))
        obj = completion_to_json_obj(result)
        assert set(obj) == {"sphere", "contains_input", "trace"}
        assert obj["contains_input"] is True
        assert complex_from_json_obj(obj["sphere"]) == result.sphere

    def test_completion_with_witness_points(self):
        from combisphere import perturb_to_general_position

        octa = get("octahedron").complex
        moved = perturb_to_general_position(octahedron_points(), octa, seed=0)
        result = polytopal_complete(moved, 6)
        obj = completion_to_json_obj(result)
        assert "witness_points" in obj
        assert parse_points(json.dumps(obj["witness_points"])) == \
            result.witness_points
