"""solve on a forest evaluates root_forest's rooting of it: one bag per vertex
from one breadth-first search, with no TreeDecomposition, no re-rooting and
no second search. The same bags as a TreeDecomposition (decompose_tree)
must give the same rooting, value, witness and step count."""

import pytest

import tnpack.decomposition as decomposition
import tnpack.treewidth as tw
from tnpack.decomposition import (
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    root_decomposition,
    root_forest,
    validate,
)
from tnpack.graph import Graph, disjoint_union
from tnpack.instances import cycle, path, random_tree, star


def isolated_forest() -> Graph:
    parts = [random_tree(12, seed=38000), Graph(2), path(5), Graph(1), star(3)]
    return disjoint_union(parts)[0]


def test_forest_corpus_invariants(tree_suite, dp_suite):
    corpus = (
        list(tree_suite)
        + [g for g in dp_suite if g.is_forest()]
        + [path(n) for n in range(1, 41)]
        + [star(n) for n in range(1, 21)]
        + [isolated_forest()]
    )
    assert sum(g.m < g.n - 1 for g in corpus) >= 2  # disconnected ones too
    for g in corpus:
        td = decompose_tree(g)
        assert validate(g, td) == []
        assert td.width <= 1
        root, parent, children, order, vertices, sizes = root_forest(g)
        assert root_decomposition(td)[:3] == (root, parent.tolist(), children)
        assert root == 0
        assert list(order) == list(range(g.n - 1, -1, -1))
        assert [sorted(b) for b in td.bags] == [
            row[:size] for row, size in zip(vertices.tolist(), sizes.tolist())
        ]
        got = tw.solve(g)
        want = tw.solve(g, td=td)
        assert (got.value, got.witness, got.steps) == (want.value, want.witness, want.steps)


def test_search_starts_at_lowest_vertex_of_maximum_degree():
    # vertices 2 and 5 both have degree 3: node 0 is vertex 2 alone, and the
    # roots of the other components (vertices 4 and 8) hang below it
    g = Graph(9, [(0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (5, 7)])
    _, parent, children, _, vertices, sizes = root_forest(g)
    assert vertices[0].tolist() == [2, 9] and sizes[0] == 1
    assert [vertices[k].tolist() for k in children[0]] == [[0, 2], [1, 2], [2, 3], [4, 9], [8, 9]]
    assert parent.tolist() == [-1, 0, 0, 0, 0, 4, 5, 5, 0]


@pytest.mark.parametrize("name", ["tree", "forest", "single"])
def test_forest_solve_builds_no_decomposition(name, monkeypatch):
    graphs = {"tree": random_tree(300, seed=38100), "forest": isolated_forest(), "single": Graph(1)}
    g = graphs[name]
    want = tw.solve(g, td=decompose_tree(g))

    def refuse(*args, **kwargs):
        raise AssertionError("decomposition built on the forest path")

    monkeypatch.setattr(decomposition, "decompose_tree", refuse)
    monkeypatch.setattr(tw, "decompose_tree", refuse)
    monkeypatch.setattr(decomposition, "root_decomposition", refuse)
    monkeypatch.setattr(tw, "root_decomposition", refuse)
    monkeypatch.setattr(TreeDecomposition, "__init__", refuse)
    monkeypatch.setattr(TreeDecomposition, "_trusted", staticmethod(refuse))
    got = tw.solve(g)
    assert (got.value, got.witness, got.steps) == (want.value, want.witness, want.steps)


def counting_bfs(monkeypatch) -> list:
    calls = []
    search = Graph._bfs

    def counted(self, starts):
        calls.append(self.n)
        return search(self, starts)

    monkeypatch.setattr(Graph, "_bfs", counted)
    return calls


@pytest.mark.parametrize("name", ["tree", "forest", "path"])
def test_one_search_per_forest_solve(name, monkeypatch):
    g = {"tree": random_tree(500, seed=38200), "forest": isolated_forest(), "path": path(40)}[name]
    calls = counting_bfs(monkeypatch)
    tw.solve(g)
    assert calls == [g.n]


def test_non_forest_below_n_edges_goes_to_min_fill(monkeypatch):
    g = disjoint_union([cycle(5), Graph(3), path(2)])[0]
    assert g.m < g.n and not g.is_forest()
    want = tw.solve(g, td=decompose_heuristic(g))
    built = []

    def heuristic(h):
        built.append(h)
        return decompose_heuristic(h)

    monkeypatch.setattr(tw, "decompose_heuristic", heuristic)
    calls = counting_bfs(monkeypatch)
    got = tw.solve(g)
    assert built == [g]
    assert (got.value, got.witness, got.steps) == (want.value, want.witness, want.steps)
    # only the forest test searches the graph
    assert calls == [g.n]


def test_cycle_rejected_before_any_search(monkeypatch):
    calls = counting_bfs(monkeypatch)
    with pytest.raises(ValueError, match="cycle"):
        root_forest(cycle(6))
    assert calls == []
