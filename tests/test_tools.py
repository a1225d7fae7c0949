"""The row contracts of tools/cli_matrix.py and tools/design_sweep.py.

Each tool's broken() is fed printed lines, with no subprocess: the lines in
tests/data, which are the two tools' stdout at commit aabd456 (Python
3.11.7, numpy 2.4.6, x86-64 with AVX-512), must pass, and each line broken
one way must be named.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    """tools/<name>.py, loaded by path, and its lines in tests/data."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(ROOT, "tests", "data", f"{name}.txt"), encoding="utf-8") as fh:
        return tool, fh.read().splitlines()


@pytest.fixture(scope="module")
def matrix():
    tool, lines = load_tool("cli_matrix")
    return tool, tool.commands("channel.csv", "sq.csv", "partition.cfg"), lines


@pytest.fixture(scope="module")
def sweep():
    tool, lines = load_tool("design_sweep")
    return tool, tool.channels(), lines


def edited(lines, start, old, new):
    """lines with old replaced by new in the one line that starts with start."""
    hits = [i for i, line in enumerate(lines) if line.startswith(start)]
    assert len(hits) == 1 and old in lines[hits[0]]
    out = list(lines)
    out[hits[0]] = out[hits[0]].replace(old, new)
    return out


def test_matrix_rows_keep_their_contracts(matrix):
    tool, table, lines = matrix
    assert [name for name, _, _ in table] == [line.split()[0] for line in lines]
    assert list(tool.broken(table, lines)) == []


@pytest.mark.parametrize("row, old, new, problem", [
    ("shape-file-grid-flag", "exit=1", "exit=0", "exit=0, declared exit=1"),
    ("partition-equal-bandwidth-n6", "shaping.csv=", "shaping.csv=0",
     "shaping.csv differs from row shape's"),
    ("partition-out-of-regime-tilted", "stderr=", "stderr=0",
     "stderr differs from row shape-out-of-regime-tilted's"),
    ("simulate-unstable", "exit=0", "exit=0 measured_vs_predicted_db=0.5",
     "writes measured_vs_* entries, declared none"),
])
def test_matrix_names_a_broken_row(matrix, row, old, new, problem):
    tool, table, lines = matrix
    got = list(tool.broken(table, edited(lines, f"{row} ", old, new)))
    assert got == [f"{row}: {problem}"]


def test_sweep_lines_keep_their_contracts(sweep):
    tool, table, lines = sweep
    assert list(tool.broken(table, lines)) == []


@pytest.mark.parametrize("point, result, declared", [
    ("wireline osr=16 order=8", "zeros: 0x1.0p+0,0x0.0p+0 poles: 0x0.0p+0,0x0.0p+0 "
     "rms_db=1.000000000 peak=1.500000000", "infeasible"),
    ("dsm osr=12 order=4", "infeasible: order-4 NTF cannot express the target", "feasible"),
])
def test_sweep_names_a_broken_point(sweep, point, result, declared):
    tool, table, lines = sweep
    line = next(line for line in lines if line.startswith(f"{point} "))
    got = list(tool.broken(table, edited(lines, f"{point} ", line, f"{point} {result}")))
    assert got == [f"{point}: declared {declared}"]
