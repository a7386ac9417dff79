"""Graph._bfs and its readers against the traversals they replaced.

The references below are those traversals, kept as the specification: the
stack searches of is_forest and is_connected, and the deque BFS that fixed
roman_brute's branching order, together with a roman_brute driven by it.
RootedTree is pinned against its own reference in test_rooting.py.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnpack.graph import Graph, disjoint_union
from tnpack.instances import complete, cycle, empty, k_c4, path, random_graph, random_tree, star
from tnpack.oracles import RomanFunction, SolveResult, roman_brute


def reference_is_forest(g: Graph) -> bool:
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        count = 1
        edges_in_component = 0
        stack = [start]
        while stack:
            v = stack.pop()
            edges_in_component += len(g.adj[v])
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        if edges_in_component != 2 * (count - 1):
            return False
    return True


def reference_is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                reached += 1
                stack.append(u)
    return reached == g.n


def reference_bfs(g: Graph, starts) -> tuple[list[int], list[int]]:
    """(order, parent) of a deque BFS from each start not yet seen; parent
    is -1 at every start searched from and at every unreached vertex."""
    order = []
    parent = [-1] * g.n
    seen = [False] * g.n
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    queue.append(u)
    return order, parent


def reference_roman_brute(g: Graph) -> SolveResult:
    """roman_brute as it was, branching in the reference BFS order."""
    n = g.n
    if n == 0:
        return SolveResult(0, RomanFunction(()), 0)
    order = reference_bfs(g, range(n))[0]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    finalized_at: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        last = max([pos[u]] + [pos[w] for w in g.adj[u]])
        finalized_at[last].append(u)
    labels = [0] * n
    best_weight = 3 * n + 1
    best = None
    steps = 0

    def search(i: int, weight: int) -> None:
        nonlocal best_weight, best, steps
        steps += 1
        if weight >= best_weight:
            return
        if i == n:
            best_weight = weight
            best = tuple(labels)
            return
        v = order[i]
        for value in (0, 1, 2):
            if weight + value >= best_weight:
                break
            labels[v] = value
            ok = True
            for u in finalized_at[i]:
                if labels[u] == 0 and not any(labels[w] == 2 for w in g.adj[u]):
                    ok = False
                    break
            if ok:
                search(i + 1, weight + value)
        labels[v] = 0

    search(0, 0)
    return SolveResult(best_weight, RomanFunction(best), steps)


def assert_matches_reference(g: Graph) -> None:
    assert g._bfs(range(g.n)) == reference_bfs(g, range(g.n))
    if g.n:
        assert g._bfs((0,)) == reference_bfs(g, (0,))
        last = g.n - 1
        assert g._bfs((last, 0, last)) == reference_bfs(g, (last, 0, last))
    assert g.is_forest() is reference_is_forest(g)
    assert g.is_connected() is reference_is_connected(g)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # at most 2n edges, so forests and disconnected graphs are common
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return Graph(n, chosen)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_random_graphs_match_references(g):
    assert_matches_reference(g)


def forests_with_isolated_vertices() -> list[Graph]:
    return [
        disjoint_union([random_tree(1 + (7 * i) % 12, seed=300 + i), empty(1 + i % 3),
                        random_tree(2 + i % 5, seed=400 + i)])[0]
        for i in range(20)
    ] + [empty(5), disjoint_union([star(4), empty(2), path(3)])[0]]


def disconnected_graphs_with_cycles() -> list[Graph]:
    return [
        disjoint_union([random_tree(3 + i % 6, seed=500 + i), cycle(3 + i % 4), empty(1 + i % 2),
                        random_graph(6, 0.4, seed=600 + i)])[0]
        for i in range(20)
    ] + [disjoint_union([complete(4), empty(3)])[0], k_c4(3).graph]


@pytest.mark.parametrize(
    "corpus", [forests_with_isolated_vertices, disconnected_graphs_with_cycles]
)
def test_named_corpora_match_references(corpus):
    graphs = corpus()
    for g in graphs:
        assert_matches_reference(g)
    forests = sum(g.is_forest() for g in graphs)
    assert forests == (len(graphs) if corpus is forests_with_isolated_vertices else 0)
    assert not any(g.is_connected() for g in graphs)


def test_dp_suite_matches_references(dp_suite):
    for g in dp_suite:
        assert_matches_reference(g)


def test_search_roots_and_unreached_vertices_have_no_parent():
    g, _ = disjoint_union([path(3), cycle(4), empty(1)])
    order, parent = g._bfs((5,))
    assert order == [5, 4, 6, 3]
    assert parent == [-1, -1, -1, 4, 5, -1, 5, -1]
    order, parent = g._bfs(range(g.n))
    assert order == [0, 1, 2, 3, 4, 6, 5, 7]
    assert [v for v in range(g.n) if parent[v] < 0] == [0, 3, 7]


def test_roman_brute_matches_the_reference_order(small_suite):
    checked = 0
    for name, g in small_suite:
        if g.n > 10:
            continue
        assert roman_brute(g) == reference_roman_brute(g), name
        checked += 1
    assert checked == 35
