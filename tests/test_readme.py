"""README examples stay true: the Python example runs through doctest, and
two CLI transcripts match what cli.main prints, byte for byte."""

import doctest
import re
from pathlib import Path

import pytest

from combisphere.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)


def test_python_example():
    (example,) = _fenced("python")
    test = doctest.DocTestParser().get_doctest(example, {}, "README", "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize("command", ["info --catalog gs_m38",
                                     "verify sphere --catalog gs_s48"])
def test_cli_transcript(capsys, command):
    prompt = f"$ combisphere {command}\n"
    (session,) = [block for block in _fenced("sh") if prompt in block]
    start = session.index(prompt) + len(prompt)
    expected = session[start : session.index("\n\n", start) + 1]
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected
