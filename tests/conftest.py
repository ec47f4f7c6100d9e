import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
