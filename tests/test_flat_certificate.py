"""The certificate path's numpy checks and flat tree DP against the
pure-Python versions they replaced, kept here as references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnpack.duality import (
    _INF,
    _ONE,
    _TWO,
    _ZERO_COVERED,
    _ZERO_NEEDS_PARENT,
    NormalizationViolation,
    _packing,
    check_normalized_rdf,
    roman_tree_dp,
)
from tnpack.graph import Graph, RootedTree
from tnpack.instances import empty, path, random_graph, random_tree, star
from tnpack.oracles import (
    RomanFunction,
    SolveResult,
    is_roman_dominating,
    is_two_neighbour_packing,
)
from conftest import build_small_suite


def reference_is_two_neighbour_packing(g: Graph, a) -> bool:
    chosen = set(a)
    for v in chosen:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for v in range(g.n):
        count = 1 if v in chosen else 0
        for u in g.adj[v]:
            if u in chosen:
                count += 1
                if count > 2:
                    return False
    return True


def reference_is_roman_dominating(g: Graph, f: RomanFunction) -> bool:
    labels = f.labels
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for n={g.n}")
    for v in range(g.n):
        if labels[v] == 0 and not any(labels[u] == 2 for u in g.adj[v]):
            return False
    return True


def reference_roman_tree_dp(tree: RootedTree) -> SolveResult:
    g = tree.graph
    n = g.n
    cost = [(0, 0, 0, 0)] * n
    for v in tree.postorder:
        kids = tree.children[v]
        two = 2
        one = 1
        free_sum = 0
        best_upgrade = _INF
        for c in kids:
            cc = cost[c]
            self_satisfied = min(cc[_TWO], cc[_ONE], cc[_ZERO_COVERED])
            two += min(self_satisfied, cc[_ZERO_NEEDS_PARENT])
            one += self_satisfied
            free_sum += self_satisfied
            best_upgrade = min(best_upgrade, cc[_TWO] - self_satisfied)
        zero_covered = free_sum + best_upgrade if kids else _INF
        cost[v] = (
            min(two, _INF),
            min(one, _INF),
            min(zero_covered, _INF),
            min(free_sum, _INF),
        )
    root_costs = cost[tree.root][:3]
    value = min(root_costs)
    labels = [0] * n
    state_of = {tree.root: root_costs.index(value)}
    for v in tree.postorder[::-1]:
        state = state_of[v]
        labels[v] = (2, 1, 0, 0)[state]
        kids = tree.children[v]
        if not kids:
            continue
        forced = -1
        if state == _ZERO_COVERED:
            best_delta = _INF
            for c in kids:
                cc = cost[c]
                delta = cc[_TWO] - min(cc[_TWO], cc[_ONE], cc[_ZERO_COVERED])
                if delta < best_delta:
                    best_delta = delta
                    forced = c
        for c in kids:
            cc = cost[c]
            if c == forced:
                state_of[c] = _TWO
                continue
            options = (
                (cc[_TWO], _TWO),
                (cc[_ONE], _ONE),
                (cc[_ZERO_COVERED], _ZERO_COVERED),
            )
            if state == _TWO:
                options += ((cc[_ZERO_NEEDS_PARENT], _ZERO_NEEDS_PARENT),)
            state_of[c] = min(options)[1]
    f = RomanFunction(tuple(labels))
    if f.weight != value or not reference_is_roman_dominating(g, f):
        raise RuntimeError("tree DP produced an inconsistent labelling")
    return SolveResult(value, f, n)


def reference_two_cover(g: Graph, labels) -> list[int]:
    two_cover = [0] * g.n
    for v in range(g.n):
        if labels[v] == 2:
            two_cover[v] += 1
            for u in g.adj[v]:
                two_cover[u] += 1
    return two_cover


def reference_check_normalized_rdf(tree: RootedTree, f: RomanFunction) -> list[NormalizationViolation]:
    g = tree.graph
    labels = f.labels
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for n={g.n}")
    two_cover = reference_two_cover(g, labels)

    def externals(v):
        return [
            u for u in (v, *g.adj[v]) if two_cover[u] == 1 and labels[u] != 2
        ]

    violations = []
    for v in range(g.n):
        below = (v, *tree.children[v])
        ones = sum(1 for u in below if labels[u] == 1)
        if ones > 1:
            violations.append(NormalizationViolation(1, v))
        if labels[v] == 2:
            private_children = [u for u in tree.children[v] if two_cover[u] == 1]
            privates = len(private_children) + (1 if two_cover[v] == 1 else 0)
            if privates < 2:
                violations.append(NormalizationViolation(2, v))
            elif two_cover[v] == 1 and len(private_children) == 1:
                u = private_children[0]
                if any(labels[x] == 1 for x in tree.children[u]):
                    violations.append(NormalizationViolation(4, v))
        elif labels[v] == 0:
            marked = 0
            for u in below:
                if labels[u] == 1:
                    marked += 1
                elif labels[u] == 2 and len(externals(u)) == 1:
                    marked += 1
            if marked > 1:
                violations.append(NormalizationViolation(3, v))
            elif two_cover[v] == 1 and any(labels[u] == 1 for u in tree.children[v]):
                z = next((u for u in tree.children[v] if labels[u] == 2), -1)
                if z >= 0 and two_cover[z] == 1:
                    z_private_children = [
                        c for c in tree.children[z] if two_cover[c] == 1
                    ]
                    if len(z_private_children) == 1:
                        violations.append(NormalizationViolation(5, v))
    return violations


def reference_packing(tree: RootedTree, f: RomanFunction) -> frozenset:
    g = tree.graph
    labels = f.labels
    two_cover = reference_two_cover(g, labels)
    chosen = {v for v in range(g.n) if labels[v] == 1}
    for v in range(g.n):
        if labels[v] != 2:
            continue
        candidates = [u for u in tree.children[v] if two_cover[u] == 1]
        if two_cover[v] == 1:
            candidates.append(v)
        for u in candidates[:2]:
            if u in chosen:
                raise RuntimeError(f"vertex {u} selected twice while building the packing")
            chosen.add(u)
    return frozenset(chosen)


def outcome(fn, *args):
    """The result of fn, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_dp_matches(tree: RootedTree) -> None:
    got = roman_tree_dp(tree)
    want = reference_roman_tree_dp(tree)
    assert (got.value, got.witness, got.steps) == (want.value, want.witness, want.steps)


class TestFlatTreeDp:
    def test_seeded_trees_three_roots(self):
        for i in range(40):
            g = random_tree(1 + (i * 11) % 60, seed=8100 + i)
            for root in sorted({0, g.n // 2, g.n - 1}):
                assert_dp_matches(RootedTree(g, root))

    def test_paths(self):
        for n in range(1, 41):
            for root in sorted({0, n // 2, n - 1}):
                assert_dp_matches(RootedTree(path(n), root))

    def test_stars(self):
        for n in range(1, 21):
            for root in sorted({0, n - 1}):
                assert_dp_matches(RootedTree(star(n), root))

    def test_large_tree(self):
        assert_dp_matches(RootedTree(random_tree(20_000, seed=8200), 7))


@st.composite
def rooted_labellings(draw):
    n = draw(st.integers(1, 40))
    g = random_tree(n, seed=draw(st.integers(0, 10_000)))
    root = draw(st.integers(0, n - 1))
    # 0-heavy labellings reach the rarer properties (3) to (5) more often
    labels = draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=n, max_size=n))
    return RootedTree(g, root), RomanFunction(tuple(labels))


class TestMaskChecks:
    def test_violation_lists_and_packings_match(self):
        hit = set()

        @settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @given(rooted_labellings())
        def check(case):
            tree, f = case
            got = check_normalized_rdf(tree, f)
            assert got == reference_check_normalized_rdf(tree, f)
            hit.update(v.property_id for v in got)
            assert outcome(_packing, tree, f) == outcome(reference_packing, tree, f)
            assert is_roman_dominating(tree.graph, f) == reference_is_roman_dominating(
                tree.graph, f
            )

        check()
        assert hit == {1, 2, 3, 4, 5}

    def test_certificate_witnesses_pass(self, tree_suite):
        for g in tree_suite[:100]:
            tree = RootedTree(g, g.n // 2)
            f = roman_tree_dp(tree).witness
            assert check_normalized_rdf(tree, f) == reference_check_normalized_rdf(tree, f)

    def test_wrong_length_labelling(self):
        tree = RootedTree(path(3))
        with pytest.raises(ValueError, match="labelling has 2 entries for n=3"):
            check_normalized_rdf(tree, RomanFunction((0, 2)))


def non_tree_graphs() -> list[Graph]:
    graphs = [g for _, g in build_small_suite()]
    graphs += [Graph(0), empty(1), empty(5), Graph(6, [(0, 1), (1, 2), (2, 0), (4, 5)])]
    graphs += [random_graph(3 + i % 15, 0.25, seed=8300 + i) for i in range(30)]
    return graphs


class TestCheckersOnGraphs:
    def test_packing_checker_matches(self):
        rng = np.random.default_rng(8400)
        for g in non_tree_graphs():
            for _ in range(6):
                a = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False).tolist() if g.n else []
                assert is_two_neighbour_packing(g, a) == reference_is_two_neighbour_packing(g, a)
                # duplicates count once
                assert is_two_neighbour_packing(g, a + a) == reference_is_two_neighbour_packing(g, a)

    def test_roman_checker_matches(self):
        rng = np.random.default_rng(8500)
        for g in non_tree_graphs():
            for _ in range(6):
                f = RomanFunction(tuple(rng.integers(0, 3, size=g.n).tolist()))
                assert is_roman_dominating(g, f) == reference_is_roman_dominating(g, f)

    def test_isolated_vertices(self):
        g = Graph(4, [(0, 1)])
        assert not is_roman_dominating(g, RomanFunction((2, 0, 0, 1)))
        assert is_roman_dominating(g, RomanFunction((2, 0, 1, 1)))
        assert is_two_neighbour_packing(g, {0, 1, 2, 3})
        assert not is_two_neighbour_packing(Graph(3, [(0, 1), (1, 2)]), {0, 1, 2})

    @pytest.mark.parametrize("a", [{-1}, {3}, {0, 7}, {10**30}, [2, -4, 2]])
    def test_packing_range_errors(self, a):
        g = path(3)
        assert outcome(is_two_neighbour_packing, g, a) == outcome(
            reference_is_two_neighbour_packing, g, a
        )
        with pytest.raises(ValueError, match="out of range for n=3"):
            is_two_neighbour_packing(g, a)

    def test_roman_length_errors(self):
        for g, labels in ((path(3), (2, 0)), (Graph(0), (1,)), (empty(2), (1, 1, 1))):
            f = RomanFunction(labels)
            assert outcome(is_roman_dominating, g, f) == outcome(
                reference_is_roman_dominating, g, f
            )
            assert outcome(is_roman_dominating, g, f)[0] is ValueError

    def test_empty_graph(self):
        assert is_two_neighbour_packing(Graph(0), ())
        assert is_roman_dominating(Graph(0), RomanFunction(()))


class TestArcs:
    def test_arcs_in_adj_order(self):
        g = random_graph(12, 0.4, seed=8600)
        src, dst = g.arcs()
        assert src.dtype == dst.dtype == np.int64
        assert list(zip(src.tolist(), dst.tolist())) == [
            (v, u) for v in range(g.n) for u in g.adj[v]
        ]

    def test_cached_and_read_only(self):
        g = path(5)
        arcs = g.arcs()
        assert g.arcs() is arcs
        for array in arcs:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 3

    def test_equality_and_hash_ignore_the_cache(self):
        g = random_graph(10, 0.3, seed=8700)
        h = Graph(g.n, g.edges())
        g.arcs()
        assert g == h and hash(g) == hash(h)
        assert g != path(10)
        assert hash(g) == hash((g.n, g.adj))
