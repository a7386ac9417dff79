import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tnpack.treewidth as tw
from tnpack.decomposition import (
    JOIN,
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,
)
from tnpack.errors import PreconditionError
from tnpack.graph import Graph, induced_subgraph
from tnpack.instances import cycle, path, random_graph, random_tree, star
from tnpack.oracles import is_two_neighbour_packing, tnp_brute
from tnpack.treewidth import NEG, solve, trace_entry

from conftest import nice_tables
from test_transition_programs import (
    all_symmetric_masks,
    random_shape,
    reference_join_rule,
    seeded_masks,
)


def encode_state(bag, chosen, counts) -> int:
    """Index of the state with chosen-set ``chosen`` and neighbour counts
    ``counts`` (a mapping over the bag) in the table of a node with ``bag``."""
    index = 0
    for pos, v in enumerate(sorted(bag)):
        c = counts[v]
        if v in chosen:
            if c not in (1, 2):
                raise ValueError(f"chosen vertex {v} needs count 1 or 2, got {c}")
            digit = 2 + c
        else:
            if c not in (0, 1, 2):
                raise ValueError(f"count {c} for vertex {v} out of range")
            digit = c
        index += digit * 5**pos
    return index


def decode_state(bag, index) -> tuple[frozenset, dict[int, int]]:
    """Inverse of encode_state: (chosen subset, per-vertex neighbour count)."""
    chosen = set()
    counts = {}
    for v in sorted(bag):
        digit = index % 5
        index //= 5
        if digit >= 3:
            chosen.add(v)
            counts[v] = digit - 2
        else:
            counts[v] = digit
    return frozenset(chosen), counts


def td_for(g):
    return decompose_tree(g) if g.is_forest() else decompose_heuristic(g)


def nice_for(g):
    return make_nice(td_for(g), g)


class TestStateEncoding:
    def test_round_trip(self):
        bag = (2, 5, 9)
        for index in range(125):
            chosen, counts = decode_state(bag, index)
            assert encode_state(bag, chosen, counts) == index

    def test_chosen_needs_positive_count(self):
        with pytest.raises(ValueError):
            encode_state((3,), {3}, {3: 0})


class TestLeafRule:
    def test_exact_table(self):
        g = path(4)
        ntd = nice_for(g)
        leaf = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 0)
        table = nice_tables(g, ntd)[leaf]
        v = ntd.payloads[leaf]
        bag = ntd.bags[leaf]
        assert table[encode_state(bag, frozenset(), {v: 0})] == 0
        assert table[encode_state(bag, {v}, {v: 1})] == 1
        assert table[encode_state(bag, {v}, {v: 2})] == NEG
        assert table[encode_state(bag, frozenset(), {v: 1})] == NEG
        assert table[encode_state(bag, frozenset(), {v: 2})] == NEG


class TestForgetRule:
    def test_all_infeasible_child_stays_infeasible(self):
        g = path(2)
        ntd = nice_for(g)
        forget = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 2)
        child_bag = ntd.bags[ntd.children[forget][0]]
        dead = np.full(5 ** len(child_bag), -np.inf)
        out = tw._forget_rule(dead, child_bag.index(ntd.payloads[forget]))
        assert len(out) == 5 ** len(ntd.bags[forget])
        assert all(x == -np.inf for x in out)

    def test_takes_maximum_over_extensions(self):
        g = path(2)
        ntd = nice_for(g)
        tables = nice_tables(g, ntd)
        forget = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 2)
        child = ntd.children[forget][0]
        v = ntd.payloads[forget]
        bag = ntd.bags[forget]
        cbag = ntd.bags[child]
        table = tables[forget]
        # keeping the surviving vertex chosen with count 2 means both path
        # vertices were taken (best packing of P2), value 2
        u = bag[0]
        assert table[encode_state(bag, {u}, {u: 2})] == 2
        assert table[encode_state(bag, {u}, {u: 1})] == 1
        # cross-check against the definition: max over the child extensions
        for index, value in enumerate(table):
            chosen, counts = decode_state(bag, index)
            best = NEG
            for child_index, child_value in enumerate(tables[child]):
                if child_value == NEG:
                    continue
                c_chosen, c_counts = decode_state(cbag, child_index)
                if c_chosen - {v} == set(chosen) and all(
                    c_counts[w] == counts[w] for w in bag
                ):
                    best = max(best, child_value)
            assert value == best


class TestIntroduceRule:
    def test_isolated_in_bag_adds_one(self):
        # two isolated vertices sharing one bag: the introduced vertex has no
        # neighbours inside it
        g = Graph(2, [])
        ntd = make_nice(TreeDecomposition(2, Graph(1), [{0, 1}]), g)
        intro = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 1)
        child = ntd.children[intro][0]
        tables = nice_tables(g, ntd)
        v = ntd.payloads[intro]
        bag = ntd.bags[intro]
        u = next(x for x in bag if x != v)
        table = tables[intro]
        assert (
            table[encode_state(bag, {v, u}, {v: 1, u: 1})]
            == tables[child][encode_state(ntd.bags[child], {u}, {u: 1})] + 1
        )

    def test_count_mismatch_is_infeasible(self):
        g = path(2)
        ntd = nice_for(g)
        intro = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 1)
        tables = nice_tables(g, ntd)
        v = ntd.payloads[intro]
        bag = ntd.bags[intro]
        u = next(x for x in bag if x != v)
        table = tables[intro]
        # v chosen next to chosen u: each sees two chosen, so f(v)=1 is wrong
        assert table[encode_state(bag, {v, u}, {v: 1, u: 1})] == NEG
        assert table[encode_state(bag, {v, u}, {v: 2, u: 2})] == 2

    def test_unchosen_copies_child_value(self):
        g = path(2)
        ntd = nice_for(g)
        intro = next(t for t in range(ntd.node_count) if ntd.kinds[t] == 1)
        child = ntd.children[intro][0]
        tables = nice_tables(g, ntd)
        v = ntd.payloads[intro]
        bag = ntd.bags[intro]
        u = next(x for x in bag if x != v)
        assert (
            tables[intro][encode_state(bag, {u}, {u: 1, v: 1})]
            == tables[child][encode_state(ntd.bags[child], {u}, {u: 1})]
        )


class TestJoinRule:
    def test_star_join_single_vertex_bag(self):
        # a star's decomposition joins on the centre
        g = star(3)
        ntd = nice_for(g)
        joins = [t for t in range(ntd.node_count) if ntd.kinds[t] == JOIN]
        assert joins
        tables = nice_tables(g, ntd)
        t = joins[0]
        left, right = ntd.children[t]
        bag = ntd.bags[t]
        if len(bag) == 1:
            v = bag[0]
            # chosen centre with one chosen neighbour overall: the split must
            # assign the neighbour to exactly one side
            idx = encode_state(bag, {v}, {v: 2})
            lt, rt = tables[left], tables[right]
            i11 = encode_state(bag, {v}, {v: 1})
            i12 = encode_state(bag, {v}, {v: 2})
            expected = max(
                (
                    a + b - 1
                    for a, b in (
                        (lt[i11], rt[i12]),
                        (lt[i12], rt[i11]),
                    )
                    if a >= 0 and b >= 0
                ),
                default=NEG,
            )
            assert tables[t][idx] == expected

    def test_join_of_empty_packings(self):
        g = star(2)
        ntd = nice_for(g)
        joins = [t for t in range(ntd.node_count) if ntd.kinds[t] == JOIN]
        tables = nice_tables(g, ntd)
        for t in joins:
            left, right = ntd.children[t]
            bag = ntd.bags[t]
            empty_idx = encode_state(bag, frozenset(), {v: 0 for v in bag})
            assert (
                tables[t][empty_idx]
                == tables[left][empty_idx] + tables[right][empty_idx]
            )

    def test_join_rule_matches_reference(self):
        # the one numpy join rule against plain Python over the per-state
        # oracle splits, on random gapped child shapes
        rng = random.Random(2024)
        signatures = [(size, m) for size in (1, 2, 3) for m in all_symmetric_masks(size)]
        signatures += [(4, m) for m in seeded_masks(4, 6, 4104)]
        signatures += [(5, m) for m in seeded_masks(5, 3, 5105)]
        for size, adj_masks in signatures:
            for _ in range(3):
                lt, rt = random_shape(rng, size), random_shape(rng, size)
                got, _ = tw._join_rule(lt, rt, size, adj_masks)
                assert got.dtype == np.float64
                assert got.tolist() == reference_join_rule(lt, rt, size, adj_masks)


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


class TestSolve:
    def test_path6(self):
        assert solve(path(6)).value == 4

    def test_wide_bags_within_memory(self):
        # the 5x40 grid's min-fill decomposition joins 6-vertex bags; a join
        # that lists every split of every state peaks near 100 MB here
        g = grid(5, 40)
        assert decompose_heuristic(g).width == 5
        tracemalloc.start()
        try:
            result = solve(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a MILP solver agrees on 86
        assert result.value == len(result.witness) == 86
        assert is_two_neighbour_packing(g, result.witness)
        assert peak < 64 * 10**6

    def test_cycle9(self):
        g = cycle(9)
        assert decompose_heuristic(g).width == 2
        assert solve(g).value == 6

    def test_matches_brute_on_low_width_graphs(self, dp_suite):
        for g in dp_suite[:60]:
            result = solve(g)
            assert result.value == tnp_brute(g).value
            assert is_two_neighbour_packing(g, result.witness)
            assert len(result.witness) == result.value

    def test_root_readoff_covers_all_entries(self, dp_suite):
        for g in dp_suite[:10]:
            if g.n == 0:
                continue
            ntd = nice_for(g)
            tables = nice_tables(g, ntd)
            root = tables[ntd.root]
            finite = [x for x in root if x >= 0]
            assert max(root) == max(finite)

    def test_rejects_mismatched_decomposition(self):
        with pytest.raises(PreconditionError, match="n="):
            solve(path(5), td=td_for(path(4)))

    def test_rejects_foreign_decomposition(self):
        # a valid decomposition of a different 4-vertex graph misses an edge
        with pytest.raises(PreconditionError, match="invalid"):
            solve(cycle(4), td=td_for(path(4)))

    def test_restores_collector_state(self):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                assert solve(random_tree(40, seed=3)).value > 0
                assert gc.isenabled() is enabled
                with pytest.raises(PreconditionError, match="n="):
                    solve(path(5), td=td_for(path(4)))
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_accepts_user_decomposition(self):
        g = cycle(5)
        assert solve(g, td=decompose_heuristic(g)).value == 3

    def test_empty_graph(self):
        assert solve(Graph(0)).value == 0

    def test_empty_graph_rejects_foreign_decomposition(self):
        td = TreeDecomposition(3, Graph(1), [set()])
        with pytest.raises(PreconditionError, match="n=3, graph has n=0"):
            solve(Graph(0), td=td)

    def test_trees_match_closed_form(self):
        for n in (1, 2, 7, 30, 100):
            assert solve(path(n)).value == (2 * n + 2) // 3


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.4), st.integers(0, 2**16))
def test_solve_equals_brute_on_random_graphs(n, p, seed):
    g = random_graph(n, p, seed)
    # wider bags make join programs too costly for a unit test
    assume(td_for(g).width <= 4)
    result = solve(g)
    assert result.value == tnp_brute(g).value
    assert len(result.witness) == result.value
    assert is_two_neighbour_packing(g, result.witness)


class TestTableSoundness:
    def test_sampled_entries_realize_their_state(self, dp_suite):
        for g in dp_suite[:8]:
            if g.n < 2:
                continue
            ntd = nice_for(g)
            tables = nice_tables(g, ntd)
            for t in range(0, ntd.node_count, max(1, ntd.node_count // 5)):
                bag = ntd.bags[t]
                table = tables[t]
                finite = [i for i, x in enumerate(table) if x >= 0]
                for index in finite[:4]:
                    witness = trace_entry(tables, t, index)
                    chosen, counts = decode_state(bag, index)
                    assert witness & set(bag) == chosen
                    assert len(witness) == table[index]
                    for v in bag:
                        have = sum(1 for u in (v, *g.adj[v]) if u in witness)
                        assert have == counts[v]
                    # the witness is a packing of the subtree-induced graph
                    seen = set()
                    stack = [t]
                    while stack:
                        node = stack.pop()
                        seen.update(ntd.bags[node])
                        stack.extend(ntd.children[node])
                    sub, idmap = induced_subgraph(g, seen)
                    assert is_two_neighbour_packing(
                        sub, {idmap[v] for v in witness}
                    )


class TestScaling:
    def test_long_path_values(self):
        n = 20000
        result = solve(path(n))
        assert result.value == (2 * n + 2) // 3

    def test_high_degree_vertex_stays_linear(self):
        # signature masks test adjacency on the shorter adjacency tuple;
        # scanning the centre's 20k neighbours at every bag is quadratic
        # (about 25 s on a 2-vCPU host)
        import time

        n = 20000
        for centre in (0, n - 1):
            g = Graph(n, [(centre, v) for v in range(n) if v != centre])
            started = time.perf_counter()
            assert solve(g).value == 2
            assert time.perf_counter() - started < 5.0

    def test_random_trees_match_brute(self):
        for i in range(40):
            n = 1 + (i * 13) % 18
            g = random_tree(n, seed=8800 + i)
            assert solve(g).value == tnp_brute(g).value
