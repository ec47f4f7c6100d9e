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
"""

import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geadim"

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


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("line reach")
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = _lines(compile(source, str(path), "exec"))
        missed = {n for n in lines if (str(path), n) not in _reached}
        total += len(lines)
        unreached += len(missed)
        if missed:
            write(f"{path.name}: {len(missed)} of {len(lines)} unreached: {_ranges(missed)}")
    write(f"{total - unreached} of {total} lines reached, {unreached} unreached; "
          "pool workers and subprocesses are not traced")
