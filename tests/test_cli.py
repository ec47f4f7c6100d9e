"""The .gea grammar, command dispatch, exit codes, and JSON stability."""

import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_geadim
from geadim import catalog, cli, congruence as cg, core, errors, hull, theorems
from geadim import dimension as dm
from geadim.exocenter import ExoSet, exocenter
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


# Documents whose directive lines are malformed: (text, line, col, message).
# A missing line or a zero outside the elements is reported at line 0, col 0.
BAD_DIRECTIVES = [
    ("elements: 0 a\nzero: 0\n: oops\n", 3, 1, "empty directive"),
    ("elements: 0 a b 1\nzero: 0\nsum: a + b = 1\nelements: 0 a b\n", 4, 1,
     "repeated 'elements:' line"),
    ("elements: 0 a\nzero: 0\nzero: a\n", 3, 1, "repeated 'zero:' line"),
    ("elements: 0 a b\nzero: 0\nrelation r: {a b}\nrelation r:\n", 4, 1,
     "repeated 'relation r:' line"),
    ("elements: 0 a\nzero: 0\n  oops\n", 3, 3, "expected 'directive: ...'"),
    ("elements:\nzero: 0\n", 1, 1, "empty element list"),
    ("elements: 0 a-b\nzero: 0\n", 1, 1, "bad identifier 'a-b'"),
    ("elements: 0 a a\nzero: 0\n", 1, 1, "duplicate element names"),
    ("elements: 0 a\nzero: 0-\n", 2, 1, "bad identifier '0-'"),
    ("sum: a + a = b\nelements: 0 a b\nzero: 0\n", 1, 1,
     "'elements:' must come first"),
    ("elements: 0 a\nzero: 0\nrelation r-s: {a}\n", 3, 1,
     "bad relation name 'r-s'"),
    ("relation r: {a}\nelements: 0 a\nzero: 0\n", 1, 1,
     "'elements:' must come first"),
    ("elements: 0 a\nzero: 0\nrelation r: {a} junk\n", 3, 1,
     "unexpected text 'junk'"),
    ("zero: 0\n", 0, 0, "missing 'elements:' line"),
    ("elements: 0 a\n", 0, 0, "missing 'zero:' line"),
    ("elements: 0 a\nzero: b\n", 0, 0, "zero 'b' is not an element"),
]


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
    with pytest.raises(UnknownElement, match="line 3: 'b'"):
        cli.parse_gea_file("elements: 0 a\nzero: 0\nrelation r: {a b}\n")
    with pytest.raises(ConflictingEquation):
        cli.parse_gea_file(
            "elements: 0 a b c d\nzero: 0\nsum: a + b = c\nsum: a + b = d\n"
        )
    for text, line, col, message in BAD_DIRECTIVES:
        with pytest.raises(ParseError) as err:
            cli.parse_gea_file(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value).endswith(message)


@pytest.mark.parametrize("text,line,col,message", BAD_DIRECTIVES,
                         ids=["empty", "elements-twice", "zero-twice",
                              "relation-twice", "no-colon", "no-elements",
                              "bad-element", "duplicate-elements", "bad-zero",
                              "sum-first", "bad-relation-name", "relation-first",
                              "relation-junk", "missing-elements", "missing-zero",
                              "zero-not-element"])
def test_bad_directive_is_an_input_error(text, line, col, message, tmp_path):
    p = tmp_path / "bad.gea"
    p.write_text(text, encoding="utf-8")
    code, out = run(["check", str(p)])
    assert code == 2
    assert out == f"error: line {line}, col {col}: {message}\n"


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


def test_each_submodule_imports_on_its_own():
    # a bare package stands in for geadim, so its __init__ does not import
    # the other submodules first; an import cycle fails here
    pkg = Path(__file__).resolve().parent.parent / "src" / "geadim"
    names = sorted(p.stem for p in pkg.glob("*.py")
                   if p.stem not in ("__init__", "__main__"))
    assert "hull" in names and "exocenter" in names
    for name in names:
        probe = ("import importlib, sys, types; "
                 "pkg = types.ModuleType('geadim'); "
                 f"pkg.__path__ = [{str(pkg)!r}]; sys.modules['geadim'] = pkg; "
                 f"importlib.import_module('geadim.{name}')")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (name, done.stderr)


def test_import_does_not_load_multiprocessing():
    # only a command run with --jobs above 1 forks workers
    assert not _loaded_by_fresh_import("multiprocessing")


_NEW_MODULES_OF_COMMANDS = """\
import sys
before = set(sys.modules)  # site hooks may load third-party modules first
import io, tempfile
from pathlib import Path
from geadim import cli
with tempfile.TemporaryDirectory() as tmp:
    for argv in (["verify", "--max-size", "4", "--jobs", "2"],
                 ["catalog", "--max-size", "3", "--out", str(Path(tmp) / "c.jsonl")],
                 ["search", "--property", "non-type-i-dgea", "--max-size", "4"]):
        assert cli.run_command(argv, out=io.StringIO()) == 0, argv
# multiprocessing registers __main__ once more as __mp_main__
known = sys.stdlib_module_names | {"geadim", "__mp_main__"}
print(sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] not in known))
"""


def test_commands_load_only_the_standard_library():
    """The package has no runtime dependency: the commands load no module
    outside ``geadim`` and the standard library."""
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES_OF_COMMANDS],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


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


@pytest.mark.parametrize("command", ["sk", "hull"])
def test_sk_and_hull_report_the_violations_of_their_properties(
        command, docs, monkeypatch):
    argv = [command, docs["b4"], "--relation", "merge", "--json"]
    code, text = run(argv)
    payload = json.loads(text)
    assert code == 0 and payload["witnesses"] == []
    assert payload["results"]["cross_checks"] == [
        p.name for p in theorems.REGISTRY.values()
        if p.scope == "relation" and not p.review_only]
    monkeypatch.setattr(cg, "is_hereditary", lambda R, S: False)
    code, text = run(argv)
    payload = json.loads(text)
    assert code == 1
    assert {w["property"] for w in payload["witnesses"]} == {
        "splitting-algebra", "invariance-characterizations"}
    assert payload["witnesses"][0] == {
        "property": "splitting-algebra",
        "detail": "splitting characterizations disagree for (0, 0, 0, 0)"}
    assert ("\n  VIOLATION splitting-algebra: splitting characterizations "
            "disagree for (0, 0, 0, 0)\n") in payload["text"]


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


def test_json_is_an_option_of_each_command_only():
    """``--json`` before the command name is no option of ``geadim``: it is
    rejected as an input error rather than ignored."""
    code, text = run(["--json", "verify", "--max-size", "3"])
    assert (code, text) == (2, "error: unrecognized arguments: --json\n")
    code, text = run(["verify", "--max-size", "3", "--json"])
    assert code == 0 and json.loads(text)["command"] == "verify"


def test_verify_parallel_matches_serial():
    _, serial = run(["verify", "--max-size", "4", "--json"])
    _, parallel = run(["verify", "--max-size", "4", "--jobs", "2", "--json"])
    assert serial == parallel


def test_verify_jobs_asks_for_at_most_one_worker_per_cpu(monkeypatch):
    """``--jobs`` above the CPU count still sizes the pool at the CPU
    count.  The pool is a fake that records its size and maps in this
    process, so no worker is started."""
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    _, many = run(["verify", "--max-size", "3", "--jobs", "1000", "--json"])
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
    _, serial = run(["verify", "--max-size", "3", "--jobs", "1", "--json"])
    assert many == serial


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
    code, text = run(["verify", "--max-size", "3", "--invert", "no-such"])
    assert (code, text) == (2, "error: unknown theorem: no-such\n")
    # inverting a property that is not selected would change nothing
    code, text = run(
        ["verify", "--max-size", "3", "--theorems", "core-order-laws",
         "--invert", "td-largest-map"]
    )
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: ")


def test_verify_report_is_its_results(monkeypatch):
    """The ``verify`` envelope of a violating run: its text is its
    ``results`` rendered, and its witnesses are the properties' violations
    in name order, not in the order the properties are registered."""
    forced = theorems.REGISTRY["center-characterizations"]
    monkeypatch.setitem(theorems.REGISTRY, forced.name,
                        dataclasses.replace(forced, fn=lambda E: ["forced"]))
    code, out = run(["verify", "--max-size", "3", "--theorems",
                     "exocenter-boolean-laws,center-characterizations",
                     "--invert", "exocenter-boolean-laws", "--json"])
    assert code == 1
    env = json.loads(out)
    results = env["results"]
    assert results["status"] == "violations"
    assert env["text"] == theorems.suite_text(3, results)
    assert env["text"].endswith("\nstatus: violations")
    props = results["properties"]
    assert list(props) == ["center-characterizations", "exocenter-boolean-laws"]
    assert all(p["violations"] for p in props.values())
    assert env["witnesses"] == (props["center-characterizations"]["violations"]
                                + props["exocenter-boolean-laws"]["violations"])


def test_verify_reports_an_exocenter_that_is_not_boolean(monkeypatch):
    """``exocenter-boolean-laws`` fires on an exocenter without its zero
    map: every model but the one-element one violates it."""
    monkeypatch.setattr(theorems, "exocenter",
                        lambda E: ExoSet(E, [tuple(range(E.n))]))
    code, out = run(["verify", "--max-size", "3", "--theorems",
                     "exocenter-boolean-laws", "--json"])
    assert code == 1
    env = json.loads(out)
    violations = env["results"]["properties"]["exocenter-boolean-laws"]["violations"]
    assert [v["n"] for v in violations] == [2, 3, 3]
    assert all(v["detail"] == "exocenter is not a boolean algebra"
               for v in violations)
    assert env["witnesses"] == violations


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
    ["search", "--property", "trivially-false", "--max-size", "-2"],
])
def test_counts_below_one_are_input_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = run(argv)
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: --")
    assert "must be at least 1" in text
    assert not (tmp_path / "unused.jsonl").exists()


def test_catalog_takes_no_jobs(tmp_path):
    """The catalog is written afresh in one process: ``--jobs`` and
    ``--resume`` are unknown options, refused before any file is made."""
    out = tmp_path / "models.jsonl"
    for extra in (["--jobs", "2"], ["--resume"]):
        code, text = run(["catalog", "--max-size", "3", "--out", str(out),
                          *extra])
        assert (code, text) == (
            2, f"error: unrecognized arguments: {' '.join(extra)}\n")
        assert list(tmp_path.iterdir()) == []


def test_help_is_written_to_out(capsys):
    code, text = run(["verify", "--help"])
    assert code == 0 and text.startswith("usage: geadim verify")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv, start", [
    (["verify", "--max-size", "x"],
     "error: argument --max-size: invalid int value: 'x'\n"),
    (["verify"], "error: the following arguments are required: --max-size\n"),
    # how argparse lists the choices differs between Python versions
    (["bogus"], "error: argument command: invalid choice: 'bogus' "),
], ids=["not-an-int", "missing", "unknown-command"])
def test_bad_flag_values_are_one_line_errors(argv, start, capsys):
    code, text = run(argv)
    assert code == 2 and text.startswith(start) and text.count("\n") == 1
    assert capsys.readouterr() == ("", "")


def _errors_with_fields():
    """One instance of every ``GeadimError`` class, with its fields."""
    fields = {
        errors.AxiomViolation: ("GEA2", (1, 2, 3)),
        errors.NotHullDetermining: ("HD1", "misses 0"),
        errors.ParseError: (3, 7, "bad identifier '?'"),
    }
    classes = [errors.GeadimError]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return [cls(*fields.get(cls, ("a message",))) for cls in classes]


def test_every_error_survives_pickling():
    """An error raised in a pool worker reaches the parent pickled."""
    made = _errors_with_fields()
    assert len(made) == len({type(e) for e in made}) == 16
    for exc in made:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert vars(back) == vars(exc) and str(back) == str(exc)


# makes every size-4 model of ``verify`` raise a structured error
_RAISE_ON_SIZE_4 = """\
from geadim import catalog
from geadim.errors import AxiomViolation

real = catalog.congruences


def congruences(E):
    if E.n == 4:
        raise AxiomViolation("GEA2", (1, 2, 3))
    return real(E)


catalog.congruences = congruences
"""


def test_a_structured_error_in_a_worker_ends_the_command(tmp_path):
    """A worker's ``AxiomViolation`` ends ``verify --jobs 2`` as it ends
    ``--jobs 1``: exit code 2 and the same one-line error."""
    (tmp_path / "sitecustomize.py").write_text(_RAISE_ON_SIZE_4)
    outputs = set()
    for jobs in ("1", "2"):
        code, text = run_geadim(["verify", "--max-size", "4", "--jobs", jobs],
                                timeout=60, path=[tmp_path])
        assert code == 2
        outputs.add(text)
    assert outputs == {"error: GEA2 fails at (1, 2, 3)\n"}


def _render_gea(E):
    """``E`` as a ``.gea`` document: its names, its zero (element 0) and one
    line per defined sum of two nonzero elements."""
    names = E.names
    lines = [f"elements: {' '.join(names)}", f"zero: {names[0]}"]
    for a in range(1, E.n):
        for b in range(a, E.n):
            if E.sum[a][b] >= 0:
                lines.append(f"sum: {names[a]} + {names[b]} = {names[E.sum[a][b]]}")
    return "\n".join(lines) + "\n"


def test_rendered_catalog_models_parse_back():
    """Every catalog model up to size 6, rendered as a ``.gea`` document,
    parses back to the same names and sum table."""
    keys = list(catalog._catalog_tables(6))
    assert len(keys) == 56
    for key in keys:
        E = catalog.model(key)
        back, relations = cli.parse_gea_file(_render_gea(E)).build()
        assert (back.names, back.sum, relations) == (E.names, E.sum, {})


@pytest.mark.parametrize("names", ["", "core-order-laws,,exocenter-oracle"])
def test_empty_theorem_names_are_input_errors(names, monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "model", lambda *args: built.append(args))
    code, text = run(["verify", "--max-size", "3", "--theorems", names])
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: --theorems ")
    assert built == []


def test_catalog_rejects_a_directory_before_building(monkeypatch, tmp_path):
    built = []
    for name in ("_catalog_tables", "build_entry"):
        monkeypatch.setattr(catalog, name, lambda *args: built.append(args))
    out = tmp_path / "models"
    out.mkdir()
    code, text = run(["catalog", "--max-size", "2", "--out", str(out)])
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: ")
    assert "Is a directory" in text
    assert built == [] and list(tmp_path.iterdir()) == [out]
    assert not (tmp_path / "models.part").exists()
    assert list(out.iterdir()) == []


def test_verify_reports_a_failure_in_the_catalog_build(monkeypatch):
    """A congruence's ``Dgea`` is built before any property runs, so a
    value that cannot be computed there must end ``verify`` with an error
    rather than pass unseen, also when the build runs in a worker."""
    real = cg.induced_hull

    def failing(sigma):
        if len(sigma) < len(exocenter(sigma.E)):  # a relation that merges
            raise InternalInvariant("induced hull broken for the test")
        return real(sigma)

    monkeypatch.setattr(cg, "induced_hull", failing)
    for jobs in ("1", "2"):
        buf = io.StringIO()
        code = cli.run_command(
            ["verify", "--max-size", "4", "--jobs", jobs, "--json"], out=buf
        )
        lines = buf.getvalue().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "induced hull broken" in lines[0]
        assert "Traceback" not in buf.getvalue()


def test_verify_reports_a_raising_property_as_one_violation(monkeypatch):
    """A property whose library call raises ``InternalInvariant`` gets one
    violation per instance carrying the message, from the runner."""

    def broken(E):
        raise InternalInvariant("center broken for the test")

    monkeypatch.setattr(theorems, "center", broken)  # the property's binding
    code, text = run(["verify", "--max-size", "3", "--theorems",
                      "center-characterizations", "--json"])
    results = json.loads(text)["results"]
    violations = results["properties"]["center-characterizations"]["violations"]
    assert code == 1 and results["models"] == len(violations) > 0
    assert {v["detail"] for v in violations} == {"center broken for the test"}


def test_verify_reports_a_summand_that_is_no_dimension_relation(monkeypatch):
    """A summand whose relation fails SK4a' is a violation of the
    restriction contract at its splitting map, not an error that ends
    the run."""
    real = dm.Dgea.summand

    def failing(self, pi):
        sub = real(self, pi)
        if sub is not self:
            sub.sk4a_prime = ("0", "0")
        return sub

    monkeypatch.setattr(dm.Dgea, "summand", failing)
    code, text = run(["verify", "--max-size", "4", "--theorems",
                      "summand-restriction-contract", "--json"])
    results = json.loads(text)["results"]
    violations = results["properties"]["summand-restriction-contract"]["violations"]
    assert code == 1 and len(violations) == 8
    assert {v["detail"].rsplit(" for ", 1)[0] for v in violations} == {
        "summand is not a dimension relation: relation fails SK4a'"}


def test_verify_reports_a_broken_derived_part_as_violations(monkeypatch):
    """A broken reading of a ``Dgea``'s simple elements is reported as
    violations of the property that compares the readings, not as an
    error."""
    monkeypatch.setattr(hull, "is_monad", lambda H, e: False)
    code, text = run(["verify", "--max-size", "4", "--json"])
    assert code == 1
    assert not any(line.startswith("error:") for line in text.splitlines())
    properties = json.loads(text)["results"]["properties"]
    details = [v["detail"] for v in properties["simple-element-criteria"]["violations"]]
    assert details and all(d.startswith("simple-element conditions disagree at ")
                           for d in details)


def test_verify_reports_a_broken_splitting_reading_as_violations(monkeypatch):
    """No set is hereditary: the splitting algebra reads only the
    definition, so every ``Dgea`` is built, and the broken reading is
    reported by the properties that read heredity, not as an error."""
    monkeypatch.setattr(cg, "is_hereditary", lambda R, S: False)
    code, text = run(["verify", "--max-size", "5", "--json"])
    assert code == 1
    properties = json.loads(text)["results"]["properties"]
    assert {name for name, p in properties.items() if p["violations"]} == {
        "invariance-characterizations", "kf-std-sets", "splitting-algebra",
        "type-decomposition"}
    details = {v["detail"] for v in properties["splitting-algebra"]["violations"]}
    assert details and all(d.startswith("splitting characterizations disagree for ")
                           for d in details)


def test_verify_reports_a_broken_type_determining_reading_once(monkeypatch):
    """No set is type-determining, so no largest hull map: the properties
    that read that map skip the set, and ``kf-std-sets`` alone reports it."""
    monkeypatch.setattr(hull, "td_sets", lambda H, T: hull.TdReport(False, False, None))
    code, text = run(["verify", "--max-size", "4", "--json"])
    assert code == 1
    properties = json.loads(text)["results"]["properties"]
    assert {name: sorted({v["detail"] for v in p["violations"]})
            for name, p in properties.items() if p["violations"]} == {
        "kf-std-sets": ["finite invariant set is not type-determining",
                        "finite set is not strongly type-determining",
                        "simple set is not strongly type-determining"]}


def test_decompose_reports_the_violations_of_its_properties(docs, monkeypatch):
    # read off the model, every summand claims all three types
    monkeypatch.setattr(dm.Dgea, "summand_types",
                        lambda self, m: (True, True, True))
    code, text = run(["decompose", docs["b4"], "--relation", "eq", "--json"])
    assert code == 1
    payload = json.loads(text)
    assert "type-criteria-summands" in payload["results"]["cross_checks"]
    assert "all-finite-models-type-one" not in payload["results"]["cross_checks"]
    assert {w["property"] for w in payload["witnesses"]} == {
        "type-criteria-summands", "type-decomposition"}
    assert {"property": "type-criteria-summands",
            "detail": "summand types read off the model disagree with its "
                      "own for (0, 1, 2, 3)"} in payload["witnesses"]
    assert "VIOLATION type-decomposition: second type triple" in payload["text"]


def test_verify_over_the_limit_builds_no_model(monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "model", lambda *args: built.append(args))
    code, text = run(["verify", "--max-size", "10", "--json"])
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: ")
    assert "exceeds the configured limit" in text
    assert built == []


@pytest.mark.parametrize("argv", [
    ["search", "--property", "trivially-false", "--max-size", "10"],
    ["catalog", "--max-size", "9", "--out", "models.cat"],
])
def test_catalog_commands_share_the_size_limit(argv, monkeypatch, tmp_path):
    built = []
    # search builds each model, the catalog writer each entry
    for name in ("model", "build_entry"):
        monkeypatch.setattr(catalog, name, lambda *args: built.append(args))
    monkeypatch.chdir(tmp_path)
    code, text = run(argv)
    assert code == 2
    assert text.count("\n") == 1 and text.startswith("error: ")
    assert "exceeds the configured limit" in text
    assert built == [] and list(tmp_path.iterdir()) == []


# Each fixture with one non-congruence added, for the golden outputs below.
GOLDEN_DOCS = {
    "b4": B4_DOC + "relation bad: {a 1}\n",
    "c3": C3_DOC + "relation bad: {1 2}\n",
    "t3": T3_DOC + "relation bad: {a b}\n",
}
GOLDEN_RELATIONS = {"b4": ("merge", "eq", "bad"), "c3": ("eq", "bad"),
                    "t3": ("eq", "bad")}


# The catalog-wide commands, run from the test's directory so that the
# catalog path in ``inputs`` is the same on every run.
GOLDEN_CATALOG_ARGVS = [
    ["catalog", "--max-size", "3", "--out", "cat.jsonl"],
    ["verify", "--max-size", "3"],
    ["verify", "--max-size", "3", "--theorems", "core-order-laws,td-largest-map",
     "--invert", "core-order-laws"],
    ["search", "--property", "sk-and-not-der", "--max-size", "4"],
    ["search", "--property", "divisible-hull-with-monads", "--max-size", "4"],
]


def _golden_outputs(tmp_path):
    """(case, exit code and output) of every small report command on the
    golden fixtures, with the directory of the fixture files cut from the
    output, and of the catalog-wide commands, each in text and in --json
    form."""
    for name, text in GOLDEN_DOCS.items():
        path = tmp_path / f"{name}.gea"
        path.write_text(text, encoding="utf-8")
        argvs = [[cmd, str(path)] for cmd in ("check", "exocenter")]
        argvs += [
            [cmd, str(path), "--relation", rel]
            for cmd in ("sk", "hull", "decompose")
            for rel in GOLDEN_RELATIONS[name]
        ]
        for argv in argvs:
            for extra in ([], ["--json"]):
                code, out = run(argv + extra)
                case = " ".join([argv[0], name] + argv[2:] + extra)
                yield case, f"{code}\n{out}".replace(f"{tmp_path}{os.sep}", "")
    for argv in GOLDEN_CATALOG_ARGVS:
        for extra in ([], ["--json"]):
            code, out = run(argv + extra)
            yield " ".join(argv + extra), f"{code}\n{out}"


# sha256 of each case's exit code and output
GOLDEN_SHA256 = {
    "check b4":
        "215d244c98e60ced7e2d398d69bb384733f115b2876951880b575c0de5690095",
    "check b4 --json":
        "d821d731fe9823533dbba8ad694c6eeb08a0abf51c03ee50623f178d4b79456f",
    "exocenter b4":
        "a34cee929cb0a5c8cb0a67109e9003456aaff40215639f3beba11f14f2d0d03f",
    "exocenter b4 --json":
        "33cd067a21fdadd8c3641d1d66675bf3b4e5ec7b579c224d71d089bd8c54dc67",
    "sk b4 --relation merge":
        "ada81f1c956625ea31310c4c783106dd920bfa3e25ee75e7e8022499d0767b08",
    "sk b4 --relation merge --json":
        "dca74aaba8dd254c409ba6d3e1af380fbc470e5df9d0542fb6e6ff4458e45d57",
    "sk b4 --relation eq":
        "53437d364a38cf1417bf02ef2afd06339e6624ef0d9e9e1867f6718b54cc13e3",
    "sk b4 --relation eq --json":
        "028b6f8d0604351c4e196290ef1542b8903d971c7ce786f89c6ee87a1f862d5d",
    "sk b4 --relation bad":
        "02f5ddbbe73956b2dd7df00172cf0dfab12e2a86c22be666b722a59d34a0cfb2",
    "sk b4 --relation bad --json":
        "8b8f0082a8215689ae08530c1e02d76a659207c53748084270f0a7c03f258f32",
    "hull b4 --relation merge":
        "d085f4ccc908d24c1af55124dbdd4730b64e27a43be93d890e4136c760f20358",
    "hull b4 --relation merge --json":
        "346f3770f7a75e4727ab2caced8da318b5caa3614ca87158c3720513fae96641",
    "hull b4 --relation eq":
        "e54be7315f1ca690fecd48e3bbbf9631a8492541c77ca25154ecb74df2dbc507",
    "hull b4 --relation eq --json":
        "b81beec49e2b5c1b413fad9ec5445a5664e6b91078fee6012dd221e640b2c2fc",
    "hull b4 --relation bad":
        "1553868ba79f0a4e034400b0d9865dd20d30d90cbaa214475dea8b863f8bc7b4",
    "hull b4 --relation bad --json":
        "fbd95e890908c3f13b46e8b5f6d4954e14d2568ff2f3f81d599a0cf4ceb49233",
    "decompose b4 --relation merge":
        "e71967e60dd34676ab73a9de36ee763ce27824a78027a301de633316deb0638f",
    "decompose b4 --relation merge --json":
        "05e7ffcdb8f20aaf57efb5cc88f58ac908a30b62ba96d811266b1336f06994df",
    "decompose b4 --relation eq":
        "e71967e60dd34676ab73a9de36ee763ce27824a78027a301de633316deb0638f",
    "decompose b4 --relation eq --json":
        "b5a4ca2744b957be2ff43482c4afc97795f9eb044745686758fa82af3ec025ab",
    "decompose b4 --relation bad":
        "62b6c7e8d2c6c587afef5846e7df6f16468b25c03a4015316c6a8819e0cf4c72",
    "decompose b4 --relation bad --json":
        "9cd283f40b81c46f51fa3d489b93241788b8b93dbda917ffff022fca14a2caf2",
    "check c3":
        "742d5690452c621a6a473ec4e43494a2710e56760f2c30c1192d23c2a89e242a",
    "check c3 --json":
        "82c218ca05abf3065d1208c9b51ada105d4871adccda4f6ab3daa00cd473b6ba",
    "exocenter c3":
        "24f587252a14d021c3672d205218e284fde1492fa4e7aa393b26d6ec3e3d8243",
    "exocenter c3 --json":
        "455d47b9938026f216dce0d67ac0aed4809aa54c7ea86515dc1e2e10be57e889",
    "sk c3 --relation eq":
        "53437d364a38cf1417bf02ef2afd06339e6624ef0d9e9e1867f6718b54cc13e3",
    "sk c3 --relation eq --json":
        "cd7caf7e29885ee16ddb69619a4a26c887179afd6af2e897459eb2ee96172a39",
    "sk c3 --relation bad":
        "a7c799c7309b818cf8d51710b8626dba3174c08b5a734bac7f6058a82c2d11b4",
    "sk c3 --relation bad --json":
        "53ab4da07df80f16431526a6cc4bf29ce9ef3032425834b8fa4f6d52d643a981",
    "hull c3 --relation eq":
        "d76dd891e89bd66ffd1d446369c5b5a577ba6813200489fb1a89dd687e12e09b",
    "hull c3 --relation eq --json":
        "70d2b3b08365247a2ee9758a47c309e91ee21e1f10dc474935d966d778374f30",
    "hull c3 --relation bad":
        "8401d43a74263282894ecc168eb415d58f666be35e23c23739e2dcee7a7cd418",
    "hull c3 --relation bad --json":
        "5156f64db710d83cb45f767c728bb7cce53e15ed3e48a225faaca064c68037e9",
    "decompose c3 --relation eq":
        "4aa07d16575a0ffc4adc9c3340ce29f01961c697096449e13a478a15eb76d08d",
    "decompose c3 --relation eq --json":
        "abd7027d81a4f5038f3f77f5df7c6518a35f0412335961ad7ca8d1d114887d5f",
    "decompose c3 --relation bad":
        "62b6c7e8d2c6c587afef5846e7df6f16468b25c03a4015316c6a8819e0cf4c72",
    "decompose c3 --relation bad --json":
        "8af3d0883756cf716d83330984afe739e70a7f925015bda1f514e009f6c4afc0",
    "check t3":
        "3bd807a79afb0c91f70e6f0fbd5fb08287cd2ddd7a816f97c8a895d3ff699615",
    "check t3 --json":
        "26dc63f4f72397ee95186cf8a9960cb2d431b38a8b7971e3fd19e9742d23c95e",
    "exocenter t3":
        "efbbf8ffed65b059a5749f679bb3f3f7c7f2fd4646ce8bc5697573bfb4946fc1",
    "exocenter t3 --json":
        "77a8e4a08115229cdeb0a157b60984498aa2e2e71bba6476ffae9e02b2e7abad",
    "sk t3 --relation eq":
        "304ac131ce22cc652ffaa71c41147015a4ed9d55824310bcdb18008829ca47e6",
    "sk t3 --relation eq --json":
        "1d7224a9ea433605d57eb0ce70dc1f4d40a52d80216a76279c67381bfca253d2",
    "sk t3 --relation bad":
        "974fd0b9488b9206c5a08e67e318bd4d563bad3e40c1e6a9ae7cf00227bdc242",
    "sk t3 --relation bad --json":
        "2411a5ae0b9b03afaf461831700b3a1e961b848ebf4d86b0a6344081b8846094",
    "hull t3 --relation eq":
        "015158c6be4a8c51ea22970ead04257933a4cde2ec962db02958605fa8b9ddf5",
    "hull t3 --relation eq --json":
        "f98fb3ee9193d50507b011855012cd4d3fd517994926f83ffe3ad606cf10b628",
    "hull t3 --relation bad":
        "47f2e5e693c2a4f07a7335eae707bbedd48156b952287b5181784808011f7bd5",
    "hull t3 --relation bad --json":
        "644a53b7982428222c607e6907967ab5884021f997c1516d8fb59b5f23518e9a",
    "decompose t3 --relation eq":
        "44d90ed0cbb63b1bf4375b89d80ebce8649666fd00269541b32127e34bca8169",
    "decompose t3 --relation eq --json":
        "39ad90af999791dcdac6b8a2954693ffa85ef7f9c810f5ab4c1625e103ca249e",
    "decompose t3 --relation bad":
        "d986e3e9cd1925d269572cff1b14cf081e41b2a3f682e3eeead8fe5450cab5f1",
    "decompose t3 --relation bad --json":
        "c3a33049cfc711c821a9916aaef00075c6fab04f39508c93afd915e8fcae9b4f",
    "catalog --max-size 3 --out cat.jsonl":
        "47020ba0de96cdd5eef876e0309886d468e7ff68b3ac04e8263dc2fa481ccfed",
    "catalog --max-size 3 --out cat.jsonl --json":
        "809572cabd6a2c75d2dd6b46244fde62ede2d834047c1f60324e4d7da6fd339a",
    "verify --max-size 3":
        "145bbf7c8e78033666649992fda90c793aadf1091cc56114b0c1eb3ef7dfa799",
    "verify --max-size 3 --json":
        "01e69611d11dbbf07d3ad554ee1e6a3cc828270b94e078525ab81e9824f87ce4",
    "verify --max-size 3 --theorems core-order-laws,td-largest-map --invert core-order-laws":
        "ec1ef81cf7a98d8c17a172c757156d8d6d981e9fce0395dac6ba7285b6ad4851",
    "verify --max-size 3 --theorems core-order-laws,td-largest-map --invert core-order-laws --json":
        "32939a8ada78ebc827ce70bfdd44d325c5a27235c6328fccc1ff497a73f3efb9",
    "search --property sk-and-not-der --max-size 4":
        "cd43442dbf0fcf330712c8cf96971d38e5b9a399a9212cd35429edb02afa75c4",
    "search --property sk-and-not-der --max-size 4 --json":
        "a62f781e2e2a5a13226109d83b8f1054c12f4ddd3b857e719a0e6316076b4cf0",
    "search --property divisible-hull-with-monads --max-size 4":
        "dc5d221fc0c42bddf068490aab168f0f62e8428fdbca37f3c5098b9bf81c909e",
    "search --property divisible-hull-with-monads --max-size 4 --json":
        "c89889392d74c77d9b32e20672694fdae9977e6bbc151834b6bfcb02af875d8d",
}


def test_small_commands_match_their_golden_outputs(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)

    got = {
        case: hashlib.sha256(blob.encode("utf-8")).hexdigest()
        for case, blob in _golden_outputs(tmp_path)
    }
    assert got == GOLDEN_SHA256
