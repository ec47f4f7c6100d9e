"""Line reach of the package under a test run, as an opt-in pytest plugin.

Run it from the repository root with the plugin loaded by ``-p``::

    PYTHONPATH=src:tests python -m pytest -p line_reach

It traces every line of ``src/geadim`` that runs in the pytest process,
in its main thread and in the threads it starts (``sys.settrace`` and
``threading.settrace``), and after the run writes, per module, the lines
that never ran.  The lines of a module are those at which a code object
compiled from its source starts an instruction (``co_lines``), def and
class lines included.  Lines that run only in another process, a pool
worker of ``verify --jobs 2`` or a ``run_geadim`` subprocess, are not
traced and count as unreached.  Tracing makes the run several times
slower.

The run fails when more than ``CEILING`` lines are unreached, so the
list cannot grow unnoticed.  The ceiling is the count of the whole
tier-1 run on Python 3.11; other versions compile some lines
differently, and a partial run leaves more lines unreached.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geadim"

# the most unreached lines the tier-1 run may leave on Python 3.11; lower
# it when tests reach more lines
CEILING = 105

_reached = set()  # (real path of the module, line number)
_ours = {}  # code filename -> its real path when it is a package module


def _path_of(filename):
    if filename not in _ours:
        path = os.path.realpath(filename)
        _ours[filename] = path if Path(path).parent == PACKAGE else None
    return _ours[filename]


def _trace(frame, event, arg):
    path = _path_of(frame.f_code.co_filename)
    if path is None:
        return None

    def local(frame, event, arg):
        _reached.add((path, frame.f_lineno))
        return local

    return local(frame, event, arg)


def _lines(code):
    """Every line at which ``code`` or a code object nested in it starts
    an instruction."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _lines(const)
    return out


def _ranges(lines):
    """``lines`` as comma-separated runs, e.g. ``3, 7-9``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


_report = []  # the summary lines, written after the run


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = _lines(compile(source, str(path), "exec"))
        missed = {n for n in lines if (str(path), n) not in _reached}
        total += len(lines)
        unreached += len(missed)
        if missed:
            _report.append(f"{path.name}: {len(missed)} of {len(lines)} "
                           f"unreached: {_ranges(missed)}")
    _report.append(f"{total - unreached} of {total} lines reached, "
                   f"{unreached} unreached (ceiling {CEILING}); "
                   "pool workers and subprocesses are not traced")
    if unreached > CEILING:
        _report.append(f"FAILED: {unreached} unreached lines exceed the "
                       f"ceiling of {CEILING}")
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line reach")
    for line in _report:
        terminalreporter.write_line(line)
