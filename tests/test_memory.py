"""Memory peaks of the forest solve on a 100k-vertex random tree, read from
its .gr text as the command line reads it.

The tracemalloc peak counts Python objects and numpy buffers alike. The
bounds sit between the lean pass and the one it replaced: per-node int64
signature keys and parse buffers alive next to the adjacency put the solve
near 55 MB and read_graph at about 2.2 times the graph it returns.
"""

from __future__ import annotations

import tracemalloc

import pytest

from tnpack.graph import read_graph, write_graph
from tnpack.instances import random_tree
from tnpack.treewidth import solve


@pytest.fixture(scope="module")
def tree_text():
    return write_graph(random_tree(100_000, seed=19000))


def traced(fn):
    """``(result, current bytes, peak bytes)`` of one call under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_forest_solve_peak(tree_text):
    # warm the process-wide caches, which a bound per solve should not count
    solve(read_graph(write_graph(random_tree(2_000, seed=19001))))
    result, _, peak = traced(lambda: solve(read_graph(tree_text)).value)
    assert result > 0
    assert peak < 46 * 10**6


def test_read_graph_peak_near_its_graph(tree_text):
    g, size, peak = traced(lambda: read_graph(tree_text))
    assert g.n == 100_000 and g.m == 99_999
    assert peak <= 1.5 * size
