"""RootedTree against the BFS it replaced, and the parts of a tree request
that never need each vertex's children."""

from __future__ import annotations

import io
from collections import deque
from contextlib import redirect_stdout

import numpy as np
import pytest

from tnpack import cli
from tnpack.duality import certify_tree
from tnpack.graph import Graph, RootedTree, write_graph
from tnpack.instances import path, random_tree, star


def reference_rooting(g: Graph, root: int):
    """(parent, children, postorder) from a queue-and-seen-list BFS that
    keeps a children list per vertex."""
    parent = [-1] * g.n
    children: list[list[int]] = [[] for _ in range(g.n)]
    order = []
    seen = [False] * g.n
    seen[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                children[v].append(u)
                queue.append(u)
    return tuple(parent), tuple(map(tuple, children)), tuple(reversed(order))


def assert_matches_reference(g: Graph, root: int) -> None:
    tree = RootedTree(g, root)
    parent, children, postorder = reference_rooting(g, root)
    assert tree.parent == parent
    assert tree.postorder == postorder
    assert tree.children == children


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_trees_at_three_roots(self, seed):
        n = 1 + (seed * 37) % 90
        g = random_tree(n, seed=700 + seed)
        for root in sorted({0, n // 2, n - 1}):
            assert_matches_reference(g, root)

    def test_tree_suite_at_three_roots(self, tree_suite):
        for g in tree_suite[::10]:
            for root in sorted({0, g.n // 2, g.n - 1}):
                assert_matches_reference(g, root)

    def test_long_path(self):
        g = path(100_000)
        for root in (0, 50_000):
            assert_matches_reference(g, root)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_stars(self, n):
        g = star(n)
        for root in sorted({0, n - 1}):
            assert_matches_reference(g, root)


class TestDerivedArrays:
    def test_children_built_once_and_read_only(self):
        tree = RootedTree(random_tree(30, seed=5), 4)
        assert tree.children is tree.children
        with pytest.raises(AttributeError):
            tree.children = ()

    def test_child_arcs_group_children_by_parent(self):
        tree = RootedTree(random_tree(200, seed=6), 17)
        kids, par = tree.child_arcs()
        assert tree.child_arcs() is tree.child_arcs()
        assert not kids.flags.writeable and not par.flags.writeable
        expected = [(c, v) for v in range(tree.n) for c in tree.children[v]]
        assert list(zip(kids.tolist(), par.tolist())) == expected
        assert kids.dtype == par.dtype == np.int64


@pytest.fixture
def no_children(monkeypatch):
    """Make any read of RootedTree.children fail the test."""

    def refuse(self):
        pytest.fail("RootedTree.children was built")

    monkeypatch.setattr(RootedTree, "children", property(refuse))


def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class TestChildrenNeverBuilt:
    def test_certify_tree(self, tree_suite, no_children):
        for g in tree_suite[::25]:
            assert certify_tree(RootedTree(g, g.n // 2)).verified
        tree = RootedTree(random_tree(20_000, seed=3), 0)
        assert certify_tree(tree).verified
        assert tree._children is None

    def test_tree_requests(self, tmp_path, no_children):
        f = tmp_path / "t.gr"
        f.write_text(write_graph(random_tree(500, seed=12)))
        for argv in (["solve", str(f), "--method", "tree", "--root", "7"], ["duality-report", str(f)]):
            code, out = run(*argv)
            assert code == 0 and '"verified": true' in out


class TestTreeRouteErrors:
    """The tree route's exit codes and messages, as before the rooting
    changed."""

    @pytest.mark.parametrize(
        "graph, root, message",
        [
            (path(6), "99", "error: root 99 out of range for n=6\n"),
            (path(6), "-1", "error: root -1 out of range for n=6\n"),
            (Graph(4, [(0, 1), (1, 2), (0, 2)]), "0", "error: tree method needs a connected acyclic graph\n"),
            (Graph(4, [(0, 1), (1, 2), (0, 2)]), "9", "error: tree method needs a connected acyclic graph\n"),
            (Graph(0), "0", "error: tree method needs a connected acyclic graph\n"),
        ],
    )
    def test_solve_tree_errors(self, tmp_path, capsys, graph, root, message):
        f = tmp_path / "g.gr"
        f.write_text(write_graph(graph))
        code = cli.main(["solve", str(f), "--method", "tree", "--root", root])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", message)

    def test_rooting_errors_in_order(self):
        with pytest.raises(ValueError, match="cannot root an empty graph"):
            RootedTree(Graph(0), 5)
        with pytest.raises(ValueError, match="root 5 out of range for n=3"):
            RootedTree(Graph(3, [(0, 1), (1, 2), (0, 2)]), 5)
        with pytest.raises(ValueError, match="not a tree"):
            RootedTree(Graph(4, [(0, 1), (1, 2), (0, 2)]), 3)


def test_one_parse_and_one_rooting_per_tree_request(tmp_path, monkeypatch):
    """The benchmark's graph.read_graph and graph.rooted_tree spans wrap
    these two names in tnpack.cli; each tree request calls each once."""
    calls = {"read_graph": 0, "RootedTree": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    f = tmp_path / "t.gr"
    f.write_text(write_graph(random_tree(300, seed=4)))
    for argv in (["solve", str(f), "--method", "tree"], ["duality-report", str(f)]):
        for name in calls:
            calls[name] = 0
        code, _ = run(*argv)
        assert code == 0
        assert calls == {"read_graph": 1, "RootedTree": 1}, argv
