import os
import signal
import subprocess
import sys
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

ACCEPTANCE_LINES = []


# labeled tables of each size n = 1..8, counted with the unpruned DFS
LABELED_COUNTS = (1, 1, 3, 19, 173, 2551, 51517, 1629727)


def degree_sorted(rows):
    """Row degrees k_e (the nonzero f with e + f defined) are
    non-decreasing over e = 1..n-1."""
    n = len(rows)
    k = [sum(v >= 0 for v in rows[e][1:]) for e in range(1, n)]
    return k == sorted(k)


def table_rows(flat, n):
    """The n-element table whose ``core.table_bytes`` are ``flat``, as
    list rows."""
    entries = array("b", flat)
    return [list(entries[i:i + n]) for i in range(0, n * n, n)]


def run_geadim(argv, timeout=60, path=()):
    """Run ``python -m geadim ARGV`` in a subprocess, with the directories
    ``path`` and then ``src`` on PYTHONPATH; returns its exit code and its
    stdout and stderr together.

    The subprocess leads a process group of its own, so when it outlives
    ``timeout`` seconds the whole group, forked pool workers included, is
    killed and ``subprocess.TimeoutExpired`` raised.  A ``sitecustomize``
    module in one of ``path`` runs before the command: a test can patch
    the package there.
    """
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(map(str, (*path, SRC))))
    with subprocess.Popen([sys.executable, "-m", "geadim", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return proc.returncode, out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
