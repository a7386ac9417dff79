import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnpack.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,
    read_td,
    validate,
    write_td,
)
from tnpack.errors import ParseError, PreconditionError
from tnpack.graph import Graph
from tnpack.instances import complete, cycle, path, random_graph, random_tree, star


class TestValidate:
    def test_single_bag(self):
        td = TreeDecomposition(3, Graph(1), [{0, 1, 2}])
        assert validate(complete(3), td) == []
        assert td.width == 2

    def test_path_decomposition(self):
        td = TreeDecomposition(3, Graph(2, [(0, 1)]), [{0, 1}, {1, 2}])
        assert validate(path(3), td) == []
        assert td.width == 1

    def test_uncovered_edge(self):
        td = TreeDecomposition(3, Graph(2, [(0, 1)]), [{0, 1}, {2}])
        violations = validate(path(3), td)
        assert [(v.condition, v.offender) for v in violations] == [(2, (1, 2))]

    def test_uncovered_vertex(self):
        td = TreeDecomposition(3, Graph(1), [{0, 1}])
        assert any(v.condition == 1 and v.offender == (2,) for v in validate(Graph(3), td))

    def test_disconnected_occurrence(self):
        td = TreeDecomposition(2, Graph(3, [(0, 1), (1, 2)]), [{0}, {1}, {0}])
        assert any(v.condition == 3 for v in validate(Graph(2, [(0, 1)]), td))


class TestConstructorChecks:
    # decompose_tree and decompose_heuristic skip these checks; the public
    # constructor, which read_td also uses, keeps every one
    @pytest.mark.parametrize(
        "n,tree,bags,fragment",
        [
            (2, Graph(2, [(0, 1)]), [{0, 1}], "one bag per tree node"),
            (1, Graph(0), [], "at least one node"),
            (2, Graph(3, [(0, 1)]), [{0}, {1}, {0, 1}], "not a tree"),
            (2, Graph(4, [(0, 1), (1, 2), (0, 2)]), [{0}, {1}, {0, 1}, {1}], "not a tree"),
            (2, Graph(2, [(0, 1)]), [{0, 1}, {1, 2}], "out of range for n=2"),
        ],
    )
    def test_rejects(self, n, tree, bags, fragment):
        with pytest.raises(ValueError, match=fragment):
            TreeDecomposition(n, tree, bags)

    def test_built_decompositions_pass_them(self):
        for i in range(30):
            g = random_graph(6 + i % 9, 0.3, seed=6300 + i)
            built = [decompose_heuristic(g)]
            if g.is_forest():
                built.append(decompose_tree(g))
            for td in built:
                checked = TreeDecomposition(td.n, td.tree, td.bags)
                assert checked.bags == td.bags
                assert all(type(bag) is frozenset for bag in td.bags)
                assert validate(g, td) == []


class TestDecomposeTree:
    def test_path4(self):
        td = decompose_tree(path(4))
        assert td.width == 1
        assert sorted(sorted(b) for b in td.bags) == [[0, 1], [1, 2], [2, 3]]
        assert validate(path(4), td) == []

    def test_single_vertex(self):
        td = decompose_tree(Graph(1))
        assert td.bags == (frozenset({0}),) and td.width == 0

    def test_star(self):
        td = decompose_tree(star(4))
        assert td.tree.n == 4
        assert all(0 in bag for bag in td.bags)
        assert validate(star(4), td) == []

    def test_forest_with_isolated_vertices(self):
        g = Graph(6, [(0, 1), (3, 4)])
        td = decompose_tree(g)
        assert validate(g, td) == []

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            decompose_tree(cycle(4))

    def test_random_trees_width_one(self):
        for i in range(25):
            n = 1 + (i * 37) % 200
            g = random_tree(n, seed=6000 + i)
            td = decompose_tree(g)
            assert validate(g, td) == []
            assert td.width == (1 if g.m else 0)


def reference_decompose_tree(g: Graph) -> TreeDecomposition:
    """decompose_tree as it was with a separate is_forest pass, kept as the
    reference for the forest test folded into its search."""
    if g.n == 0:
        raise ValueError("empty graph has no tree decomposition")
    if not g.is_forest():
        raise ValueError("input graph contains a cycle")
    bags = []
    td_edges = []
    anchors = []
    seen = [False] * g.n
    discovery_bag = [-1] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        if not g.adj[start]:
            bags.append((start,))
            anchors.append(len(bags) - 1)
            continue
        anchor = -1
        stack = [start]
        while stack:
            v = stack.pop()
            for u in reversed(g.adj[v]):
                if seen[u]:
                    continue
                seen[u] = True
                bags.append((v, u))
                node = len(bags) - 1
                discovery_bag[u] = node
                if v == start:
                    if anchor < 0:
                        anchor = node
                    else:
                        td_edges.append((node, anchor))
                else:
                    td_edges.append((node, discovery_bag[v]))
                stack.append(u)
        anchors.append(anchor)
    td_edges.extend((anchors[i], anchors[i + 1]) for i in range(len(anchors) - 1))
    return TreeDecomposition(g.n, Graph(len(bags), td_edges), bags)


def disjoint_union(*graphs: Graph, seed: int = 0) -> Graph:
    """The graphs side by side, vertices relabelled by a seeded shuffle."""
    import random

    n = sum(h.n for h in graphs)
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = []
    base = 0
    for h in graphs:
        edges += [(label[base + u], label[base + v]) for u, v in h.edges()]
        base += h.n
    return Graph(n, edges)


def forest_check_corpus() -> list[Graph]:
    graphs = [cycle(n) for n in range(3, 12)]
    for i in range(30):
        trees = [random_tree(1 + (i * 7 + j * 13) % 25, seed=7100 + 5 * i + j) for j in range(3)]
        isolated = [Graph(1)] * (i % 4)
        graphs.append(disjoint_union(*trees, *isolated, seed=i))
        # one cyclic component among trees and isolated vertices, with
        # m <= n - 1 overall
        graphs.append(disjoint_union(*trees, cycle(3 + i % 5), *isolated, Graph(i % 6), seed=i))
    graphs += [Graph(5), Graph(6, [(0, 1), (3, 4)]), Graph(5, [(0, 1), (1, 2), (0, 2)])]
    return graphs


class TestDecomposeTreeMatchesReference:
    def test_bags_edges_and_errors(self):
        corpus = forest_check_corpus()
        assert sum(g.is_forest() for g in corpus) >= 30
        assert sum(not g.is_forest() and g.m < g.n for g in corpus) >= 30
        for g in corpus:
            try:
                want = reference_decompose_tree(g)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    decompose_tree(g)
                assert str(got.value) == str(exc)
                continue
            td = decompose_tree(g)
            assert td.bags == want.bags
            assert (td.tree.n, td.tree.m, td.tree.adj) == (want.tree.n, want.tree.m, want.tree.adj)


class TestDecomposeHeuristic:
    def test_tree_width_one(self):
        td = decompose_heuristic(random_tree(30, seed=1))
        assert td.width == 1

    def test_cycles_width_two(self):
        for n in range(3, 11):
            g = cycle(n)
            td = decompose_heuristic(g)
            assert validate(g, td) == []
            assert td.width == 2

    def test_complete_graph(self):
        assert decompose_heuristic(complete(5)).width == 4

    def test_random_graphs_valid(self):
        for i in range(200):
            n = 1 + (i * 29) % 30
            g = random_graph(n, 0.2 if i % 2 else 0.45, seed=6200 + i)
            td = decompose_heuristic(g)
            assert validate(g, td) == [], i

    def test_deterministic(self):
        g = random_graph(12, 0.3, seed=99)
        a = decompose_heuristic(g)
        b = decompose_heuristic(g)
        assert a.bags == b.bags and a.tree == b.tree


def _kind_counts(ntd):
    counts = {LEAF: 0, INTRODUCE: 0, FORGET: 0, JOIN: 0}
    for k in ntd.kinds:
        counts[k] += 1
    return counts


class TestMakeNice:
    def test_single_vertex(self):
        g = Graph(1)
        ntd = make_nice(decompose_tree(g), g)
        assert ntd.node_count == 1
        assert ntd.kinds[ntd.root] == LEAF

    def test_path3_chain(self):
        g = path(3)
        ntd = make_nice(decompose_tree(g), g)
        assert ntd.structural_violations() == []
        assert validate(g, ntd.to_tree_decomposition()) == []
        counts = _kind_counts(ntd)
        assert counts[LEAF] == 1 and counts[JOIN] == 0
        assert counts[INTRODUCE] >= 1 and counts[FORGET] >= 1
        assert len(ntd.bags[ntd.root]) == 1

    def test_cycle6_bounds(self):
        g = cycle(6)
        ntd = make_nice(decompose_heuristic(g), g)
        assert ntd.width == 2
        assert ntd.node_count <= 60
        assert ntd.structural_violations() == []

    def test_width_preserved_and_valid(self, small_suite):
        for name, g in small_suite:
            if g.n == 0:
                continue
            td = decompose_tree(g) if g.is_forest() else decompose_heuristic(g)
            ntd = make_nice(td, g)
            assert ntd.width == td.width, name
            assert ntd.structural_violations() == [], name
            assert validate(g, ntd.to_tree_decomposition()) == [], name

    def test_node_count_linear(self, small_suite):
        for name, g in small_suite:
            td = decompose_tree(g) if g.is_forest() else decompose_heuristic(g)
            ntd = make_nice(td, g)
            bound = 4 * (td.width + 1) * td.tree.n + g.n + 8
            assert ntd.node_count <= bound, name

    def test_tree_node_count_linear_in_n(self):
        for i, n in enumerate((50, 120, 200)):
            g = random_tree(n, seed=6400 + i)
            ntd = make_nice(decompose_tree(g), g)
            assert ntd.node_count <= 6 * n

    def test_per_vertex_kind_balance(self, small_suite):
        # every vertex is forgotten exactly once (except the root survivor)
        # and entered once more than it is duplicated at joins
        for name, g in small_suite:
            if g.n == 0:
                continue
            td = decompose_tree(g) if g.is_forest() else decompose_heuristic(g)
            ntd = make_nice(td, g)
            enters = [0] * g.n
            forgets = [0] * g.n
            joins = [0] * g.n
            for t in range(ntd.node_count):
                kind = ntd.kinds[t]
                if kind == LEAF:
                    enters[ntd.payloads[t]] += 1
                elif kind == INTRODUCE:
                    enters[ntd.payloads[t]] += 1
                elif kind == FORGET:
                    forgets[ntd.payloads[t]] += 1
                else:
                    for v in ntd.bags[t]:
                        joins[v] += 1
            root_bag = set(ntd.bags[ntd.root])
            for v in range(g.n):
                assert forgets[v] == (0 if v in root_bag else 1), (name, v)
                assert enters[v] == joins[v] + 1, (name, v)

    def test_rejects_invalid_decomposition(self):
        g = path(3)
        bad = TreeDecomposition(3, Graph(2, [(0, 1)]), [{0, 1}, {2}])
        with pytest.raises(PreconditionError, match="condition"):
            make_nice(bad, g)

    def test_empty_bags_pruned(self):
        g = Graph(2, [])
        td = TreeDecomposition(2, Graph(3, [(0, 1), (1, 2)]), [{0}, set(), {1}])
        ntd = make_nice(td, g)
        assert ntd.structural_violations() == []
        assert validate(g, ntd.to_tree_decomposition()) == []


class TestTdFormat:
    def test_single_bag_example(self):
        td = read_td("s td 1 3 3\nb 1 1 2 3\n")
        assert td.bags == (frozenset({0, 1, 2}),)
        assert validate(complete(3), td) == []

    def test_round_trip(self):
        td = decompose_tree(path(5))
        again = read_td(write_td(td))
        assert again.bags == td.bags
        assert again.tree == td.tree
        assert again.n == td.n

    def test_write_stable(self):
        td = decompose_heuristic(cycle(7))
        assert write_td(td) == write_td(td)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("s td 1 1 3\nb 1 9\n", "out of range"),
            ("s td 2 1 3\nb 1 1\n", "2 bags but 1"),
            ("s td 1 1 3\nb 1 1\nb 1 2\n", "duplicate bag"),
            ("s td 1 2 3\nb 1 1\n", "max bag size"),
            ("b 1 1\n", "before header"),
            ("s td 2 1 2\nb 1 1\nb 2 2\n", "not a tree"),
            ("s td 1 1 1\nb 1 1\ns td 1 1 1\n", "duplicate header"),
            ("s td 0 0 0\n", "at least one bag"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_td(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            read_td("s td 1 1 3\nb 1 9\n")

    def test_empty_bag_line(self):
        td = read_td("s td 2 1 1\nb 1 1\nb 2\n1 2\n")
        assert td.bags == (frozenset({0}), frozenset())


def assert_round_trip(td):
    again = read_td(write_td(td))
    assert (again.n, again.tree, again.bags) == (td.n, td.tree, td.bags)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**16))
def test_td_round_trip_of_built_decompositions(n, p, seed):
    g = random_graph(n, p, seed)
    assert_round_trip(decompose_heuristic(g))
    if g.is_forest():
        assert_round_trip(decompose_tree(g))


@st.composite
def hand_built_decompositions(draw):
    """A random tree of 1-8 bags over 0-6 vertices. Bags may be empty, and
    the bags need not decompose any graph."""
    count = draw(st.integers(1, 8))
    n = draw(st.integers(0, 6))
    tree = random_tree(count, seed=draw(st.integers(0, 2**16)))
    members = st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n)
    return TreeDecomposition(n, tree, draw(st.lists(members, min_size=count, max_size=count)))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(hand_built_decompositions())
def test_td_round_trip_of_hand_built_decompositions(td):
    assert_round_trip(td)


def reference_disconnected_vertices(td: TreeDecomposition) -> list[int]:
    """Vertices whose bags do not form a subtree, by one search per vertex."""
    found = []
    for v in range(td.n):
        occ = [t for t, bag in enumerate(td.bags) if v in bag]
        if len(occ) <= 1:
            continue
        seen = {occ[0]}
        stack = [occ[0]]
        while stack:
            t = stack.pop()
            for s in td.tree.adj[t]:
                if v in td.bags[s] and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if len(seen) != len(occ):
            found.append(v)
    return found


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(hand_built_decompositions())
def test_connectivity_condition_matches_per_vertex_search(td):
    violations = validate(Graph(td.n), td)
    got = [v.offender[0] for v in violations if v.condition == 3]
    assert got == reference_disconnected_vertices(td)
