"""The hash-consed evaluator against the per-node evaluator it replaced.

``reference_compute_tables`` (with the join rule and the mask helpers it
called) and ``reference_trace_entry`` are the per-node table evaluation and
the trace from before shapes and offsets, kept as written then apart from
names, module prefixes and where their transition programs come from: the
introduce programs and join splits are the per-state oracles of
test_transition_programs, not the solver's programs, and the reference
rules are plain Python over them. Every materialized table and every
witness of the evaluator must equal theirs.
"""

from functools import lru_cache

import pytest

import tnpack.decomposition as decomposition
import tnpack.treewidth as tw
from tnpack.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,
)
from tnpack.graph import Graph, disjoint_union
from tnpack.instances import cycle, k_c4, path, random_tree
from tnpack.treewidth import NEG

from conftest import nice_tables
from test_transition_programs import oracle_intro_program, oracle_join_states

# -- reference: the per-node evaluator ----------------------------------------


def reference_nbr_mask(bag, v, nbrs) -> int:
    mask = 0
    q = 0
    for u in bag:
        if u != v:
            if u in nbrs:
                mask |= 1 << q
            q += 1
    return mask


def reference_join_adj_masks(ntd: NiceTreeDecomposition, t: int, g: Graph) -> tuple[int, ...]:
    bag = ntd.bags[t]
    masks = []
    for u in bag:
        m = 0
        nbrs = set(g.adj[u])
        for q, w in enumerate(bag):
            if w != u and w in nbrs:
                m |= 1 << q
        masks.append(m)
    return tuple(masks)


def reference_dp_join(
    ntd: NiceTreeDecomposition,
    t: int,
    left_table: list[int],
    right_table: list[int],
    g: Graph,
) -> list[int]:
    """Join table: best sum of child entries over all count splits, minus the
    double-counted |B|."""
    if ntd.kinds[t] != JOIN:
        raise ValueError(f"node {t} is not a join node")
    bag = ntd.bags[t]
    size = len(bag)
    states = oracle_join_states(size, reference_join_adj_masks(ntd, t, g))
    new = [NEG] * tw._POW5[size]
    for s, (card, pairs) in enumerate(states):
        best = NEG
        for s1, s2 in pairs:
            a = left_table[s1]
            if a < 0:
                continue
            b = right_table[s2]
            if b >= 0 and a + b > best:
                best = a + b
        if best >= 0:
            new[s] = best - card
    return new


def reference_compute_tables(g: Graph, ntd: NiceTreeDecomposition) -> list[list[int]]:
    """Evaluate the whole decomposition bottom-up; one table per node.

    Forget and introduce dominate long chains, so their transitions are
    inlined here; joins go through reference_dp_join.
    """
    tables: list[list[int] | None] = [None] * ntd.node_count
    kinds = ntd.kinds
    bags = ntd.bags
    payloads = ntd.payloads
    children = ntd.children
    adj = g.adj
    pow5 = tw._POW5
    for t in ntd.order:
        kind = kinds[t]
        if kind == FORGET:
            child = children[t][0]
            cb = bags[child]
            pos = cb.index(payloads[t])
            low = pow5[pos]
            ct = tables[child]
            # max() over NEG entries is NEG. When the dropped digit is the
            # lowest or the highest, the child entries with digit d form one
            # slice in parent-state order, and the parent table is the
            # elementwise max of the five slices.
            if pos == 0:
                tables[t] = list(map(max, ct[0::5], ct[1::5], ct[2::5], ct[3::5], ct[4::5]))
            elif pos == len(cb) - 1:
                tables[t] = list(
                    map(max, ct[:low], ct[low : 2 * low], ct[2 * low : 3 * low],
                        ct[3 * low : 4 * low], ct[4 * low :])
                )
            else:
                # the five extensions of a parent state sit on an
                # arithmetic slice of the child table
                high = 5 * low
                tables[t] = [
                    max(ct[h * high + l : h * high + l + high : low])
                    for h in range(pow5[len(cb) - 1] // low)
                    for l in range(low)
                ]
        elif kind == INTRODUCE:
            bag = bags[t]
            v = payloads[t]
            nbrs = adj[v]
            mask = 0
            q = 0
            for u in bag:
                if u != v:
                    if u in nbrs:
                        mask |= 1 << q
                    q += 1
            cidx, add = oracle_intro_program(len(bag), bag.index(v), mask)
            ct = tables[children[t][0]]
            new = [NEG] * pow5[len(bag)]
            for s, c in enumerate(cidx):
                if c >= 0 and ct[c] >= 0:
                    new[s] = ct[c] + add[s]
            tables[t] = new
        elif kind == LEAF:
            tables[t] = [0, NEG, NEG, 1, NEG]
        else:
            left, right = children[t]
            tables[t] = reference_dp_join(ntd, t, tables[left], tables[right], g)
    return tables  # type: ignore[return-value]


def reference_trace_entry(
    g: Graph, ntd: NiceTreeDecomposition, tables: list[list[int]], node: int, state: int
) -> frozenset:
    """Packing realizing a finite table entry, rebuilt by re-deriving each
    decision top-down; deterministic (first candidate in canonical order)."""
    if tables[node][state] < 0:
        raise ValueError(f"entry {state} at node {node} is infeasible")
    chosen: set[int] = set()
    kinds = ntd.kinds
    bags = ntd.bags
    payloads = ntd.payloads
    children = ntd.children
    adj = g.adj
    stack = [(node, state)]
    while stack:
        t, s = stack.pop()
        # forget and introduce nodes have one child, so the trace follows
        # each chain without going through the stack
        while True:
            kind = kinds[t]
            if kind == LEAF:
                if s == 3:
                    chosen.add(payloads[t])
                break
            if kind == FORGET:
                child = children[t][0]
                pos = bags[child].index(payloads[t])
                low = tw._POW5[pos]
                base = (s // low) * (5 * low) + s % low
                value = tables[t][s]
                ct = tables[child]
                for d in range(5):
                    c = base + d * low
                    if ct[c] == value:
                        break
                else:
                    raise RuntimeError("inconsistent forget table")
                t, s = child, c
                continue
            if kind == INTRODUCE:
                bag = bags[t]
                v = payloads[t]
                cidx, add = oracle_intro_program(
                    len(bag), bag.index(v), reference_nbr_mask(bag, v, adj[v])
                )
                c = cidx[s]
                if c < 0:
                    raise RuntimeError("inconsistent introduce table")
                if add[s]:
                    chosen.add(v)
                t, s = children[t][0], c
                continue
            left, right = children[t]
            value = tables[t][s]
            card, pairs = oracle_join_states(len(bags[t]), reference_join_adj_masks(ntd, t, g))[s]
            for s1, s2 in pairs:
                a = tables[left][s1]
                b = tables[right][s2]
                if a >= 0 and b >= 0 and a + b - card == value:
                    stack.append((left, s1))
                    stack.append((right, s2))
                    break
            else:
                raise RuntimeError("inconsistent join table")
            break
    return frozenset(chosen)


def reference_solve(g: Graph, ntd: NiceTreeDecomposition):
    tables = reference_compute_tables(g, ntd)
    root_table = tables[ntd.root]
    value = max(root_table)
    state = root_table.index(value)
    return tables, value, reference_trace_entry(g, ntd, tables, ntd.root, state)


# -- equality -------------------------------------------------------------------


def plain_for(g: Graph) -> TreeDecomposition:
    try:
        return decompose_tree(g)
    except ValueError:
        return decompose_heuristic(g)


def nice_for(g: Graph) -> NiceTreeDecomposition:
    return make_nice(plain_for(g), g)


def assert_matches_reference(g: Graph) -> None:
    if g.n == 0:
        return
    ntd = nice_for(g)
    want_tables, want_value, want_witness = reference_solve(g, ntd)
    tables = nice_tables(g, ntd)
    assert len(tables) == ntd.node_count
    assert [tables[t] for t in range(ntd.node_count)] == want_tables
    result = tw.solve(g)
    assert (result.value, result.witness) == (want_value, want_witness)


# sizes of the 40 seeded trees, up to n = 2000
TREE_SIZES = [1 + (i * 211) % 2000 for i in range(39)] + [2000]


def test_dp_suite(dp_suite):
    for g in dp_suite:
        assert_matches_reference(g)


@pytest.mark.parametrize("index", range(40))
def test_seeded_trees(index):
    assert_matches_reference(random_tree(TREE_SIZES[index], seed=31000 + index))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_c4(k):
    assert_matches_reference(k_c4(k).graph)


@pytest.mark.parametrize("n", range(3, 15))
def test_cycles(n):
    assert_matches_reference(cycle(n))


def test_every_traced_entry_matches(dp_suite):
    # the trace from any feasible entry of any node, not only the root
    for g in dp_suite[:40]:
        if g.n == 0:
            continue
        ntd = nice_for(g)
        want = reference_compute_tables(g, ntd)
        tables = nice_tables(g, ntd)
        for t in range(0, ntd.node_count, 3):
            for s in [i for i, x in enumerate(want[t]) if x >= 0][:6]:
                assert tw.trace_entry(tables, t, s) == reference_trace_entry(
                    g, ntd, want, t, s
                )


def test_signature_masks_match(dp_suite):
    # on a nice decomposition every chain has at most one step, so each
    # introduce and join transition key comes straight from the signature
    # pass and must hold the reference masks of its node
    graphs = [g for g in dp_suite if g.n] + [random_tree(300, seed=33000), cycle(9)]
    for g in graphs:
        ntd = nice_for(g)
        tables = nice_tables(g, ntd)
        for t in range(ntd.node_count):
            bag = ntd.bags[t]
            kind = ntd.kinds[t]
            if kind == JOIN:
                first, second = ntd.children[t]
                assert tables.joins[first] == -1
                tid = tables.joins[second]
                assert tables.transitions[tid][0][1] == reference_join_adj_masks(ntd, t, g)
            elif kind in (INTRODUCE, FORGET):
                child = ntd.children[t][0]
                (tid,) = tables.chains[tables.up_chain[child]][1]
                key = tables.transitions[tid][0]
                v = ntd.payloads[t]
                if kind == INTRODUCE:
                    want = (INTRODUCE, len(bag), bag.index(v), reference_nbr_mask(bag, v, g.adj[v]))
                else:
                    want = (FORGET, ntd.bags[child].index(v))
                assert key[:-1] == want


def test_each_distinct_transition_once():
    g = random_tree(20000, seed=32000)
    td = decompose_tree(g)
    tables = tw.compute_tables(g, td)
    keys = [record[0] for record in tables.transitions]
    assert len(set(keys)) == len(keys)
    # one chain per (signature, child shape): each signature has its own
    # cached template, and a chain starts from the child shape of its first
    # step (or ends on it, with no steps)
    starts = {
        (id(template), tables.transitions[tids[0]][0][-1] if tids else sid)
        for template, tids, sid, _ in tables.chains
    }
    assert len(starts) == len(tables.chains)
    assert len(tables.chains) <= 0.05 * td.tree.n
    assert len(tables.shapes) <= len(tables.transitions)


def test_chain_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(tw, "_chain_template", lru_cache(maxsize=3)(tw._chain_template.__wrapped__))
    for g in (cycle(7), k_c4(2).graph, random_tree(50, seed=37000)):
        want = reference_solve(g, nice_for(g))[1:]
        result = tw.solve(g)
        assert (result.value, result.witness) == want
        assert tw._chain_template.cache_info().currsize <= 3


# -- plain decompositions against their nice form ------------------------------


def assert_plain_matches_nice(g: Graph, td: TreeDecomposition) -> None:
    """solve on the plain decomposition gives the value and witness of the
    reference evaluator on make_nice's form of it, after as many
    transitions as that form has nodes."""
    ntd = make_nice(td, g)
    _, want_value, want_witness = reference_solve(g, ntd)
    result = tw.solve(g, td=td)
    assert (result.value, result.witness) == (want_value, want_witness)
    assert result.steps == ntd.node_count


def test_plain_matches_nice_on_dp_suite(dp_suite):
    for g in dp_suite:
        if g.n:
            assert_plain_matches_nice(g, decompose_tree(g) if g.is_forest() else decompose_heuristic(g))


@pytest.mark.parametrize("index", range(40))
def test_plain_matches_nice_on_seeded_trees(index):
    g = random_tree(TREE_SIZES[index] // 4 + 1, seed=34000 + index)
    assert_plain_matches_nice(g, decompose_tree(g))


@pytest.mark.parametrize("isolated", range(4))
def test_plain_matches_nice_on_forests(isolated):
    parts = [random_tree(30, seed=35000 + isolated), random_tree(9, seed=35100), Graph(isolated)]
    g = disjoint_union(parts)[0]
    assert_plain_matches_nice(g, decompose_tree(g))


def internal_empty_bag_case() -> tuple[Graph, TreeDecomposition]:
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    tree = Graph(7, [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (4, 6)])
    return g, TreeDecomposition(7, tree, [set(), {0, 1}, {1, 2}, {3, 4}, {5, 6}, set(), {6}])


def one_vertex_root_case() -> tuple[Graph, TreeDecomposition]:
    tree = Graph(3, [(0, 1), (0, 2)])
    return path(3), TreeDecomposition(3, tree, [{1}, {0, 1}, {1, 2}])


def wide_root_case() -> tuple[Graph, TreeDecomposition]:
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
    tree = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    return g, TreeDecomposition(5, tree, [{0, 1, 2}, {0, 1}, {0, 2}, {0, 3}, {3, 4}])


def test_plain_matches_nice_with_internal_empty_bag():
    # node 0 has an empty bag and, once the empty leaf 5 is pruned, three
    # children: it is the root, and its sides meet in a join cascade
    g, td = internal_empty_bag_case()
    root, _, children, _ = decomposition.root_decomposition(td)
    assert root == 0 and len(children[0]) == 3
    assert_plain_matches_nice(g, td)


def test_plain_matches_nice_with_one_vertex_root():
    g, td = one_vertex_root_case()
    root = decomposition.root_decomposition(td)[0]
    assert len(td.bags[root]) == 1
    assert_plain_matches_nice(g, td)


def test_plain_matches_nice_with_wide_root():
    g, td = wide_root_case()
    assert decomposition.root_decomposition(td)[0] == 0
    assert_plain_matches_nice(g, td)


def test_plain_matches_nice_on_20k_tree():
    g = random_tree(20000, seed=36000)
    td = decompose_tree(g)
    # a nice root needs no drain: its table's first maximum is the answer
    tables = nice_tables(g, make_nice(td, g))
    top = tables.shape(tables.root)
    best = int(top.argmax())
    want = (
        int(top[best]) + tables.offsets[tables.root],
        tw.trace_entry(tables, tables.root, best),
        tables.steps,
    )
    result = tw.solve(g, td=td)
    assert (result.value, result.witness, result.steps) == want


def test_solve_builds_no_nice_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("make_nice called")

    g = k_c4(2).graph
    want = reference_solve(g, nice_for(g))[1:]
    monkeypatch.setattr(tw, "make_nice", refuse)
    monkeypatch.setattr(decomposition, "make_nice", refuse)
    result = tw.solve(g)
    assert (result.value, result.witness) == want
    assert tw.solve(g, td=decompose_heuristic(g)).value == want[0]


def test_shapes_hold_zero_at_state_zero(dp_suite):
    for g in dp_suite[:40]:
        if g.n == 0:
            continue
        tables = nice_tables(g, nice_for(g))
        assert all(shape[0] == 0 for shape in tables.shapes)
        assert len({shape.tobytes() for shape in tables.shapes}) == len(tables.shapes)


def test_infeasible_trace_entry_rejected():
    g = cycle(5)
    ntd = nice_for(g)
    tables = nice_tables(g, ntd)
    t = next(t for t in range(ntd.node_count) if NEG in tables[t])
    with pytest.raises(ValueError, match="infeasible"):
        tw.trace_entry(tables, t, tables[t].index(NEG))


@pytest.mark.parametrize("state", [-1, 25])
def test_trace_entry_state_out_of_range_rejected(state):
    # node 1 of path(4)'s decomposition has two vertices: states 0..24
    g = path(4)
    tables = tw.compute_tables(g, decompose_tree(g))
    assert len(tables.shape(1)) == 25
    with pytest.raises(ValueError, match="outside range"):
        tw.trace_entry(tables, 1, state)


@pytest.mark.parametrize("node", [-1, 4])
def test_trace_entry_node_out_of_range_rejected(node):
    # path(4)'s decomposition has nodes 0..3; -1 must not wrap around to 3
    g = path(4)
    tables = tw.compute_tables(g, decompose_tree(g))
    assert len(tables) == 4
    with pytest.raises(ValueError, match="outside range"):
        tw.trace_entry(tables, node, 0)


# -- every chain starts from the empty table ------------------------------------


def test_no_transition_is_a_leaf(dp_suite):
    for g in dp_suite:
        if g.n == 0:
            continue
        for tables in (tw.compute_tables(g, plain_for(g)), nice_tables(g, nice_for(g))):
            assert all(key[0] != LEAF for key, _, _ in tables.transitions)


def test_leaf_chains_start_from_the_empty_table(dp_suite):
    for g in dp_suite:
        if g.n == 0:
            continue
        td = plain_for(g)
        tables = tw.compute_tables(g, td)
        assert tables.shapes[0].tolist() == [0.0]
        for t, cid in enumerate(tables.leaf_chain):
            if cid < 0:
                continue
            _, tids, _, _ = tables.chains[cid]
            # one introduce per bag vertex, the first into shape 0
            assert len(tids) == len(td.bags[t])
            assert all(tables.transitions[tid][0][0] == INTRODUCE for tid in tids)
            assert tables.transitions[tids[0]][0][-1] == 0


def test_lone_empty_bag_is_the_empty_table():
    tables = tw.compute_tables(Graph(0), TreeDecomposition(0, Graph(1), [set()]))
    assert (tables[0], tables.steps) == ([0], 0)
    assert tw.trace_entry(tables, 0, 0) == frozenset()


def test_leaves_and_disjoint_edges_share_the_empty_introduce():
    g = Graph(4, [(0, 1), (2, 3)])
    td = decompose_heuristic(g)
    _, parent, children, order = decomposition.root_decomposition(td)
    tables = tw.compute_tables(g, td)
    tid = [key for key, _, _ in tables.transitions].index((INTRODUCE, 1, 0, 0, 0))
    leaves = [t for t in order if not children[t]]
    disjoint = [t for t in order if parent[t] >= 0 and not td.bags[t] & td.bags[parent[t]]]
    assert len(leaves) == 2 and len(disjoint) == 1
    for t in leaves:
        assert tables.chains[tables.leaf_chain[t]][1][0] == tid
    for t in disjoint:
        # the edge forgets the whole bag, then introduces into shape 0
        tids = tables.chains[tables.up_chain[t]][1]
        assert tids[len(td.bags[t])] == tid


@pytest.mark.parametrize(
    "case, size", [(internal_empty_bag_case, 0), (one_vertex_root_case, 1), (wide_root_case, 3)]
)
def test_one_drain_for_every_root_size(case, size):
    g, td = case()
    tables = tw.compute_tables(g, td)
    assert len(td.bags[tables.root]) == size
    template, _, sid, _ = tables.chains[tables.up_chain[tables.root]]
    # every vertex above the lowest is forgotten; a root of at most one
    # vertex keeps its bag
    assert template[0] == ((FORGET, 1),) * (size - 1)
    assert len(tables.shapes[sid]) == 5 ** min(size, 1)
