"""The one children derivation (graph._children_of) against the ones it
replaced.

The references below are those derivations, kept as the specification:
root_decomposition's depth-first search, which built each node's children
as it went, and RootedTree's derivations of ``children`` from ``adj`` and of
``child_arcs()`` from ``graph.arcs()``. root_decomposition now roots with
Graph._bfs and takes its children from the parent array, so its
``(root, parent, children)`` must equal the reference's, and its ``order``
must be a children-first ordering of exactly the unpruned nodes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from tnpack.decomposition import (
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    read_td,
    root_decomposition,
    root_forest,
)
from tnpack.graph import Graph, RootedTree, _children_of, disjoint_union
from tnpack.instances import path, random_tree, star


def reference_root_decomposition(td: TreeDecomposition):
    """(root, parent, children, order) from the stack search that
    root_decomposition made before it used Graph._bfs: the same pruning and
    root rule, children in tree.adj order, and order the reverse of a
    depth-first preorder."""
    adj = td.tree.adj
    count = td.tree.n
    bags = td.bags
    degree = list(map(len, adj))
    alive = None
    if not all(bags):
        alive = [True] * count
        queue = [t for t in range(count) if degree[t] <= 1 and not bags[t]]
        alive_count = count
        while queue:
            t = queue.pop()
            if not alive[t] or alive_count == 1:
                continue
            alive[t] = False
            alive_count -= 1
            for s in adj[t]:
                if alive[s]:
                    degree[s] -= 1
                    if degree[s] <= 1 and not bags[s]:
                        queue.append(s)
        for t in range(count):
            if not alive[t]:
                degree[t] = -1
    root = degree.index(max(degree))
    parent = [-1] * count
    children: list[tuple[int, ...]] = [()] * count
    preorder: list[int] = []
    stack = [root]
    while stack:
        t = stack.pop()
        preorder.append(t)
        kids = adj[t]
        p = parent[t]
        if p >= 0:
            if len(kids) == 1:  # a leaf: its one neighbour is its parent
                continue
            i = kids.index(p)
            kids = kids[:i] + kids[i + 1 :]
        if alive is not None:
            kids = tuple(s for s in kids if alive[s])
        children[t] = kids
        for s in kids:
            parent[s] = t
        stack.extend(reversed(kids))
    preorder.reverse()
    return root, parent, children, preorder


def reference_children(g: Graph, parent) -> tuple[tuple[int, ...], ...]:
    """Each vertex's children as RootedTree derived them from ``adj``."""
    return tuple(
        tuple([u for u in nbrs if parent[u] == v]) for v, nbrs in enumerate(g.adj)
    )


def reference_child_arcs(g: Graph, parent) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of graph.arcs() that point from a parent to its child."""
    src, dst = g.arcs()
    down = np.asarray(parent, dtype=np.int64)[dst] == src
    return dst[down], src[down]


def assert_rooting_matches_reference(td: TreeDecomposition) -> None:
    root, parent, children, order = root_decomposition(td)
    want = reference_root_decomposition(td)
    assert (root, parent, children) == want[:3]
    # exactly the unpruned nodes, each after all of its children
    assert sorted(order) == sorted(want[3])
    assert order[-1] == root
    position = {t: i for i, t in enumerate(order)}
    assert all(position[c] < position[t] for t in order for c in children[t])


def test_min_fill_decompositions(dp_suite):
    for g in dp_suite:
        assert_rooting_matches_reference(decompose_heuristic(g))


# empty-bag leaves, chains of empty bags hanging off a bag or between two,
# and trees whose bags are all empty: the pruning path
HAND_MADE_TD = [
    "s td 3 2 2\nb 1 1 2\nb 2\nb 3\n1 2\n1 3\n",
    "s td 4 2 3\nb 1 1 2\nb 2\nb 3\nb 4\n1 2\n2 3\n3 4\n",
    "s td 5 2 3\nb 1\nb 2 1 2\nb 3\nb 4 2 3\nb 5\n1 2\n2 3\n3 4\n4 5\n",
    "s td 6 2 4\nb 1 1 2\nb 2\nb 3\nb 4 3 4\nb 5\nb 6\n1 2\n2 3\n3 4\n4 5\n1 6\n",
    "s td 7 2 2\nb 1\nb 2\nb 3 1 2\nb 4\nb 5\nb 6\nb 7\n1 3\n2 3\n3 4\n4 5\n5 6\n4 7\n",
    "s td 1 0 0\nb 1\n",
    "s td 4 0 0\nb 1\nb 2\nb 3\nb 4\n1 2\n1 3\n1 4\n",
    "s td 5 0 1\nb 1\nb 2\nb 3\nb 4\nb 5\n1 2\n2 3\n3 4\n4 5\n",
]


@pytest.mark.parametrize("text", HAND_MADE_TD)
def test_hand_made_decompositions_with_empty_bags(text):
    td = read_td(text)
    assert not all(td.bags)
    assert_rooting_matches_reference(td)


def test_seeded_trees_of_sparse_bags():
    rng = random.Random(17000)
    for seed in range(300):
        count = rng.randint(1, 40)
        n = rng.randint(0, 6)
        bags = [
            {rng.randrange(n) for _ in range(rng.randint(0, 2))} if n and rng.random() < 0.4 else set()
            for _ in range(count)
        ]
        td = TreeDecomposition(n, random_tree(count, seed=17000 + seed), bags)
        assert_rooting_matches_reference(td)


def test_long_path_decomposition():
    assert_rooting_matches_reference(decompose_tree(path(100_000)))


def forest_with_isolated_vertices() -> Graph:
    parts = [star(40), Graph(3), random_tree(60, seed=17100), Graph(1), path(30), random_tree(25, seed=17101)]
    return disjoint_union(parts)[0]


def test_root_forest_children(tree_suite):
    for g in list(tree_suite[::10]) + [forest_with_isolated_vertices()]:
        _, parent, children, _, _, _ = root_forest(g)
        want = reference_children(decompose_tree(g).tree, parent.tolist())
        assert tuple(children) == want


def test_rooted_tree_matches_reference(tree_suite):
    for g in tree_suite[::5]:
        for root in sorted({0, g.n // 3, g.n // 2, g.n - 1}):
            tree = RootedTree(g, root)
            assert tree.children == reference_children(g, tree.parent)
            kids, par = tree.child_arcs()
            want_kids, want_par = reference_child_arcs(g, tree.parent)
            assert kids.tolist() == want_kids.tolist()
            assert par.tolist() == want_par.tolist()
            assert kids.dtype == par.dtype == np.int64


@pytest.mark.parametrize("starts", ["all", "first"])
def test_parent_array_with_several_roots(starts):
    # every component's root has parent -1, and so does every vertex a
    # search from vertex 0 alone leaves unreached
    g = forest_with_isolated_vertices()
    parent = g._bfs(range(g.n) if starts == "all" else (0,))[1]
    assert parent.count(-1) > 2
    kids, par, children = _children_of(np.array(parent, dtype=np.int64))
    assert tuple(children) == reference_children(g, parent)
    want_kids, want_par = reference_child_arcs(g, parent)
    assert kids.tolist() == want_kids.tolist()
    assert par.tolist() == want_par.tolist()


def test_no_children():
    for parent in ([], [-1], [-1, -1, -1]):
        kids, par, children = _children_of(np.array(parent, dtype=np.int64))
        assert len(kids) == len(par) == 0
        assert list(children) == [()] * len(parent)
