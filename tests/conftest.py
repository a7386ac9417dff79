"""Shared seeded corpora used across module tests and the acceptance suite."""

from __future__ import annotations

import pytest

import tnpack.treewidth as tw
from tnpack.decomposition import NiceTreeDecomposition, decompose_heuristic, decompose_tree
from tnpack.graph import Graph
from tnpack.instances import (
    complete,
    complete_multipartite,
    cycle,
    empty,
    k_c4,
    path,
    random_graph,
    random_tree,
    star,
)


def zero_gap_grid_8() -> Graph:
    """8-vertex non-tree graph without a universal vertex whose Roman and
    packing numbers agree (both 4); regression fixture."""
    return Graph(
        8,
        [
            (0, 1), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7),
            (1, 4), (2, 5), (3, 6),
            (0, 4), (1, 5), (2, 6), (3, 7),
        ],
    )


def zero_gap_mesh_14() -> Graph:
    """14-vertex companion fixture with both numbers equal to 8."""
    return Graph(
        14,
        [
            (0, 3), (3, 7), (7, 11), (11, 8), (8, 12), (12, 9), (9, 13),
            (13, 10), (10, 6), (6, 9), (9, 5), (5, 8), (8, 4), (4, 1),
            (1, 5), (5, 2), (2, 6), (0, 4), (4, 7),
        ],
    )


def nice_tables(g: Graph, ntd: NiceTreeDecomposition) -> tw.DPTables:
    """compute_tables on make_nice's form ``ntd``, rooted where ntd is
    rooted: node t of the result is node t of ntd, every chain has at most
    one step, and the one-vertex root needs no drain."""
    rooting = tw.root_decomposition
    tw.root_decomposition = lambda td: (ntd.root, ntd.parent, ntd.children, ntd.order)
    try:
        return tw.compute_tables(g, ntd.to_tree_decomposition())
    finally:
        tw.root_decomposition = rooting


def build_small_suite() -> list[tuple[str, Graph]]:
    """Mixed graphs with n <= 12: the corpus for oracle property tests."""
    suite: list[tuple[str, Graph]] = []
    for n in range(1, 8):
        suite.append((f"path{n}", path(n)))
    for n in range(3, 8):
        suite.append((f"cycle{n}", cycle(n)))
    for n in (1, 2, 4, 5):
        suite.append((f"complete{n}", complete(n)))
    suite.append(("empty4", empty(4)))
    suite.append(("star4", star(4)))
    suite.append(("k33", complete_multipartite([3, 3])))
    suite.append(("k24", complete_multipartite([2, 4])))
    suite.append(("k123", complete_multipartite([1, 2, 3])))
    suite.append(("2c4", k_c4(2).graph))
    suite.append(("zero_gap_8", zero_gap_grid_8()))
    for i, (n, p) in enumerate(
        [(4, 0.4), (5, 0.3), (6, 0.3), (7, 0.25), (8, 0.25), (8, 0.5),
         (9, 0.2), (10, 0.2), (10, 0.35), (11, 0.18), (12, 0.15), (12, 0.3)]
    ):
        suite.append((f"random{n}_{i}", random_graph(n, p, seed=2400 + i)))
    for i, n in enumerate((5, 8, 10, 12)):
        suite.append((f"tree{n}_{i}", random_tree(n, seed=2600 + i)))
    return suite


def build_tree_suite() -> list[Graph]:
    """500 seeded random trees with n <= 40."""
    return [random_tree(1 + (i * 7919) % 40, seed=90000 + i) for i in range(500)]


def build_dp_suite() -> list[Graph]:
    """200 seeded random graphs with n <= 18 whose heuristic width is <= 4."""
    kept: list[Graph] = []
    seed = 0
    while len(kept) < 200:
        seed += 1
        n = 2 + seed % 17
        p = min(1.0, (1.2 + (seed % 5) * 0.35) / n)
        g = random_graph(n, p, seed=52000 + seed)
        base = decompose_tree(g) if g.is_forest() else decompose_heuristic(g)
        if base.width <= 4:
            kept.append(g)
    return kept


@pytest.fixture(scope="session")
def small_suite():
    return build_small_suite()


@pytest.fixture(scope="session")
def tree_suite():
    return build_tree_suite()


@pytest.fixture(scope="session")
def dp_suite():
    return build_dp_suite()
