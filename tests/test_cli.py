"""The .gea grammar, command dispatch, exit codes, and JSON stability."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geadim import catalog, cli, congruence as cg, core
from geadim.errors import (
    ConflictingEquation,
    InternalInvariant,
    ParseError,
    UnknownElement,
)

B4_DOC = """\
# boolean 2x2
elements: 0 a b 1
zero: 0
sum: a + b = 1
relation merge: {a b}
relation eq:
"""

C3_DOC = """\
elements: 0 1 2
zero: 0
sum: 1 + 1 = 2
relation eq:
"""

T3_DOC = """\
elements: 0 a b
zero: 0
relation eq:
"""


def run(argv):
    buf = io.StringIO()
    code = cli.run_command(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, text in (("b4", B4_DOC), ("c3", C3_DOC), ("t3", T3_DOC)):
        p = tmp_path / f"{name}.gea"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_parse_document():
    doc = cli.parse_gea_file(B4_DOC)
    assert doc.elements == ["0", "a", "b", "1"]
    assert doc.zero == "0"
    assert doc.equations == [("a", "b", "1")]
    assert doc.relations == {"merge": [["a", "b"]], "eq": []}
    E, rels = doc.build()
    assert E.n == 4 and set(rels) == {"merge", "eq"}


def test_parse_errors():
    with pytest.raises(ParseError):
        cli.parse_gea_file("elements: 0 a\n")  # missing zero
    with pytest.raises(ParseError):
        cli.parse_gea_file("zero: 0\nelements: 0\nwhat: ever\n")
    with pytest.raises(ParseError) as err:
        cli.parse_gea_file("elements: 0 a\nzero: 0\nsum: a +\n")
    assert err.value.line == 3
    with pytest.raises(UnknownElement):
        cli.parse_gea_file("elements: 0 a\nzero: 0\nsum: a + b = a\n")
    with pytest.raises(ConflictingEquation):
        cli.parse_gea_file(
            "elements: 0 a b c d\nzero: 0\nsum: a + b = c\nsum: a + b = d\n"
        )


def test_element_count_is_bounded(tmp_path):
    names = ["0"] + [f"e{i}" for i in range(1, core.MAX_ELEMENTS)]
    doc = cli.parse_gea_file(f"elements: {' '.join(names)}\nzero: 0\n")
    assert len(doc.elements) == core.MAX_ELEMENTS
    p = tmp_path / "big.gea"
    p.write_text(f"zero: 0\nelements: {' '.join(names)} extra\n",
                 encoding="utf-8")
    code, text = run(["check", str(p)])
    assert code == 2
    assert text == f"error: line 2, col 1: more than {core.MAX_ELEMENTS} elements\n"


def _loaded_by_fresh_import(module):
    """Whether a fresh ``import geadim.cli`` loads ``module``."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = f"import sys, geadim.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout in ("True\n", "False\n")
    return done.stdout == "True\n"


def test_import_does_not_load_numpy():
    assert not _loaded_by_fresh_import("numpy")


def test_import_does_not_load_multiprocessing():
    # only a command run with --jobs above 1 forks workers
    assert not _loaded_by_fresh_import("multiprocessing")


def test_check_command(docs):
    code, text = run(["check", docs["c3"]])
    assert code == 0 and "valid model" in text
    code, _ = run(["check", "/nonexistent/x.gea"])
    assert code == 2


def test_check_invalid_model(tmp_path):
    p = tmp_path / "bad.gea"
    p.write_text("elements: 0 a\nzero: 0\nsum: a + a = a\n", encoding="utf-8")
    code, text = run(["check", str(p)])
    assert code == 1 and "GEA4" in text


@pytest.mark.parametrize("command", [
    ["check"],
    ["exocenter"],
    ["hull", "--relation", "eq"],
    ["sk", "--relation", "eq"],
    ["decompose", "--relation", "eq"],
])
def test_non_utf8_file_is_a_parse_error(command, tmp_path):
    p = tmp_path / "bad.gea"
    p.write_bytes(b"elements: 0 a\nzero: 0\n\xff\xfe\n")
    code, text = run(command + [str(p)])
    assert code == 2
    assert text == "error: line 3, col 1: not valid UTF-8\n"


def test_sk_command(docs):
    code, text = run(["sk", docs["t3"], "--relation", "eq"])
    assert code == 1
    assert "SK4a" in text and "'a', 'b'" in text.replace('"', "'")
    code, _ = run(["sk", docs["b4"], "--relation", "merge"])
    assert code == 0
    code, _ = run(["sk", docs["b4"], "--relation", "missing"])
    assert code == 2


def test_decompose_command_json(docs):
    code, text = run(["decompose", docs["b4"], "--relation", "merge", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["command"] == "decompose"
    assert payload["results"]["type"] == "I_F"
    assert payload["results"]["unit"] == "1"
    code, text = run(["decompose", docs["c3"], "--relation", "eq", "--json"])
    payload = json.loads(text)
    assert payload["results"]["type"] == "I_F"
    assert payload["results"]["unit"] == "2"


def test_decompose_rejects_non_der(docs):
    code, text = run(["decompose", docs["t3"], "--relation", "eq"])
    assert code == 1 and "SK4a" in text


def test_hull_and_exocenter_commands(docs):
    code, text = run(["hull", docs["b4"], "--relation", "merge"])
    assert code == 0 and "eta[" in text
    code, text = run(["exocenter", docs["b4"], "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["results"]["size"] == 4
    assert payload["results"]["center"] == ["0", "a", "b", "1"]


def test_witnesses_use_names_not_indices(docs):
    code, text = run(["sk", docs["t3"], "--relation", "eq", "--json"])
    payload = json.loads(text)
    flat = json.dumps(payload["witnesses"])
    assert "a" in flat and "b" in flat


def test_catalog_command(docs, tmp_path):
    out = tmp_path / "cat.jsonl"
    code, text = run(["catalog", "--max-size", "3", "--out", str(out)])
    assert code == 0 and out.exists()
    assert len(out.read_text().splitlines()) == 1 + 4  # header + entries


def test_verify_command_and_json_stability():
    code1, text1 = run(["verify", "--max-size", "3", "--json"])
    code2, text2 = run(["verify", "--max-size", "3", "--json"])
    assert code1 == code2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["results"]["status"] == "ok"


def test_verify_parallel_matches_serial():
    _, serial = run(["verify", "--max-size", "4", "--json"])
    _, parallel = run(["verify", "--max-size", "4", "--jobs", "2", "--json"])
    assert serial == parallel


def test_verify_filter_and_invert():
    code, text = run(
        ["verify", "--max-size", "3", "--theorems", "core-order-laws"]
    )
    assert code == 0
    code, text = run(
        ["verify", "--max-size", "3", "--theorems", "core-order-laws",
         "--invert", "core-order-laws"]
    )
    assert code == 1 and "inverted-check" in text
    code, _ = run(["verify", "--max-size", "3", "--theorems", "no-such"])
    assert code == 2


def test_search_command():
    code, text = run(
        ["search", "--property", "trivially-false", "--max-size", "3"]
    )
    assert code == 0 and "exhausted" in text
    code, text = run(
        ["search", "--property", "divisible-hull-with-monads", "--max-size", "3"]
    )
    assert code == 1
    code, _ = run(["search", "--property", "bogus", "--max-size", "3"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--max-size", "0"],
    ["verify", "--max-size", "3", "--jobs", "0"],
    ["verify", "--max-size", "3", "--jobs", "-1"],
    ["catalog", "--max-size", "0", "--out", "unused.jsonl"],
    ["catalog", "--max-size", "3", "--out", "unused.jsonl", "--jobs", "0"],
    ["search", "--property", "trivially-false", "--max-size", "-2"],
])
def test_counts_below_one_are_input_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = run(argv)
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: --")
    assert "must be at least 1" in text
    assert not (tmp_path / "unused.jsonl").exists()


def _cut(data):
    return data[:-40]


def _foreign(data):
    return b"just some notes\nnot a catalog\n"


def _empty(data):
    return b"\n"


@pytest.mark.parametrize("damage", [_cut, _foreign, _empty])
def test_catalog_resume_rejects_damaged_file(damage, tmp_path):
    out = tmp_path / "cat.jsonl"
    code, _ = run(["catalog", "--max-size", "4", "--out", str(out)])
    assert code == 0
    out.write_bytes(damage(out.read_bytes()))
    before = out.read_bytes()
    code, text = run(
        ["catalog", "--max-size", "4", "--out", str(out), "--resume"]
    )
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: ")
    assert out.read_bytes() == before  # never appended to


def test_verify_reports_a_failure_in_the_catalog_build(monkeypatch):
    """The catalog build runs the checks of the splitting-algebra,
    induced-hull-contract and type-decomposition properties, so a failure
    there must end ``verify`` with an error rather than pass unseen."""
    real = cg.induced_hull

    def failing(E, R, sigma):
        if any(len(c) > 1 for c in R.classes):  # the first merging relation
            raise InternalInvariant("induced hull broken for the test")
        return real(E, R, sigma)

    monkeypatch.setattr(cg, "induced_hull", failing)
    monkeypatch.setattr(
        catalog, "cached_entries", lambda n: tuple(catalog.enumerate_geas(n))
    )
    buf = io.StringIO()
    code = cli.run_command(["verify", "--max-size", "4", "--json"], out=buf)
    lines = buf.getvalue().splitlines()
    assert code != 0
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "induced hull broken" in lines[0]
    assert "Traceback" not in buf.getvalue()
