import tracemalloc

import pytest

from tnpack.errors import ParseError
from tnpack.graph import (
    Graph,
    RootedTree,
    closed_neighbourhood,
    delete_edge,
    disjoint_union,
    induced_subgraph,
    read_graph,
    write_graph,
)
from tnpack.instances import complete, cycle, path, random_graph, random_tree


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.adj[0] == (1, 2)
        for u in range(4):
            for v in g.adj[u]:
                assert u in g.adj[v]
        assert g.m == 3
        assert sum(len(a) for a in g.adj) == 2 * g.m


class TestClosedNeighbourhood:
    def test_path_middle(self):
        assert closed_neighbourhood(path(3), 1) == {0, 1, 2}

    def test_isolated_vertex(self):
        assert closed_neighbourhood(Graph(3, [(0, 1)]), 2) == {2}

    def test_complete_graph(self):
        assert closed_neighbourhood(complete(4), 2) == {0, 1, 2, 3}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_neighbourhood(path(3), 3)

    def test_size_is_degree_plus_one(self, small_suite):
        for _, g in small_suite:
            for v in range(g.n):
                assert len(closed_neighbourhood(g, v)) == g.degree(v) + 1


class TestInducedSubgraph:
    def test_two_adjacent_in_cycle(self):
        sub, idmap = induced_subgraph(cycle(4), {0, 1})
        assert sub.n == 2 and sub.m == 1
        assert idmap == {0: 0, 1: 1}

    def test_identity(self):
        g = cycle(5)
        sub, idmap = induced_subgraph(g, range(5))
        assert sub == g
        assert idmap == {v: v for v in range(5)}

    def test_alternating_cycle_vertices(self):
        # C5 on {0,2,4}: the only edge among them is (4, 0)
        sub, idmap = induced_subgraph(cycle(5), {0, 2, 4})
        assert sub.n == 3
        assert sub.edges() == [(idmap[0], idmap[4])]


class TestDeleteEdge:
    def test_triangle_becomes_path(self):
        g = delete_edge(complete(3), 0, 1)
        assert g.m == 2
        assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]

    def test_single_edge_removed(self):
        g = delete_edge(path(2), 0, 1)
        assert g.m == 0

    def test_cycle_becomes_path(self):
        g = delete_edge(cycle(4), 3, 0)
        assert g.m == 3
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_missing_edge(self):
        with pytest.raises(ValueError, match="not present"):
            delete_edge(path(3), 0, 2)

    def test_delete_then_readd_restores(self, small_suite):
        for _, g in small_suite:
            for u, v in g.edges()[:3]:
                restored = Graph(g.n, delete_edge(g, u, v).edges() + [(u, v)])
                assert restored == g


class TestDisjointUnion:
    def test_two_singletons(self):
        g, offsets = disjoint_union([Graph(1), Graph(1)])
        assert g.n == 2 and g.m == 0 and offsets == [0, 1]

    def test_three_cycles(self):
        g, offsets = disjoint_union([cycle(4)] * 3)
        assert g.n == 12 and g.m == 12
        assert offsets == [0, 4, 8]

    def test_path_plus_path(self):
        g, _ = disjoint_union([path(2), path(3)])
        assert g.n == 5 and g.m == 3


class TestGrFormat:
    def test_single_edge(self):
        g = read_graph("p tw 2 1\n1 2\n")
        assert g.n == 2 and g.m == 1

    def test_edgeless(self):
        g = read_graph("p tw 3 0\n")
        assert g.n == 3 and g.m == 0

    def test_comments_ignored(self):
        with_comments = read_graph("c hello\np tw 3 2\nc mid\n1 2\n2 3\nc end\n")
        without = read_graph("p tw 3 2\n1 2\n2 3\n")
        assert with_comments == without

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p tw x 1\n1 2\n", "non-integer"),
            ("p ds 2 1\n1 2\n", "malformed header"),
            ("p tw 2 1\n1 3\n", "out of range"),
            ("p tw 2 2\n1 2\n1 2\n", "duplicate edge"),
            ("p tw 2 1\n1 1\n", "self-loop"),
            ("1 2\n", "before header"),
            ("", "missing"),
            ("p tw 3 2\n1 2\n", "declares 2 edges"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_graph(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            read_graph("c x\np tw 2 1\n1 3\n")

    def test_round_trip_random(self):
        graphs = [random_graph(1 + (i * 13) % 50, 0.2, seed=4000 + i) for i in range(100)]
        graphs += [random_tree(1 + (i * 17) % 60, seed=4200 + i) for i in range(40)]
        for g in graphs:
            h = read_graph(write_graph(g))
            # Graph.__eq__ ignores m, so compare the fields one by one
            assert (h.n, h.m, h.adj) == (g.n, g.m, g.adj)

    def test_lying_header_allocates_nothing_of_size_n(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="declares 1 edges but 0 found"):
                read_graph("p tw 2000000 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestRootedTree:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="not a tree"):
            RootedTree(cycle(3))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not a tree"):
            RootedTree(Graph(4, [(0, 1), (2, 3)]))

    def test_rejects_tree_edge_count_with_cycle(self):
        # triangle plus an isolated vertex: m == n - 1, yet not a tree
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        for root in range(4):
            with pytest.raises(ValueError, match="not a tree"):
                RootedTree(g, root)

    def test_root_checked_before_tree_shape(self):
        with pytest.raises(ValueError, match="out of range"):
            RootedTree(cycle(3), 5)

    def test_parent_and_postorder(self):
        t = RootedTree(path(5), root=2)
        assert t.parent[2] == -1
        assert t.parent[1] == 2 and t.parent[3] == 2
        seen = set()
        for v in t.postorder:
            for c in t.children[v]:
                assert c in seen
            seen.add(v)
        assert seen == set(range(5))
