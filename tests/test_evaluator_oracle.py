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

import pytest

import tnpack.treewidth as tw
from tnpack.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,
)
from tnpack.graph import Graph
from tnpack.instances import cycle, k_c4, random_tree
from tnpack.treewidth import NEG

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


def nice_for(g: Graph) -> NiceTreeDecomposition:
    try:
        base = decompose_tree(g)
    except ValueError:
        base = decompose_heuristic(g)
    return make_nice(base, g, pre_validated=True)


def assert_matches_reference(g: Graph) -> None:
    if g.n == 0:
        return
    ntd = nice_for(g)
    want_tables, want_value, want_witness = reference_solve(g, ntd)
    tables = tw.compute_tables(g, ntd)
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
        tables = tw.compute_tables(g, ntd)
        for t in range(0, ntd.node_count, 3):
            for s in [i for i, x in enumerate(want[t]) if x >= 0][:6]:
                assert tw.trace_entry(g, ntd, tables, t, s) == reference_trace_entry(
                    g, ntd, want, t, s
                )


def test_signature_masks_match(dp_suite):
    graphs = [g for g in dp_suite if g.n] + [random_tree(300, seed=33000), cycle(9)]
    for g in graphs:
        ntd = nice_for(g)
        for t in range(ntd.node_count):
            bag = ntd.bags[t]
            if ntd.kinds[t] == JOIN:
                assert tw._join_adj_masks(ntd, t, g) == reference_join_adj_masks(ntd, t, g)
            elif ntd.kinds[t] == INTRODUCE:
                v = ntd.payloads[t]
                assert tw._nbr_mask(bag, v, g.adj) == reference_nbr_mask(bag, v, g.adj[v])


def test_each_distinct_transition_once():
    g = random_tree(20000, seed=32000)
    ntd = nice_for(g)
    tables = tw.compute_tables(g, ntd)
    assert len(set(tables.node_transition)) == len(tables.transitions)
    assert len(tables.transitions) <= 0.05 * ntd.node_count
    assert len(tables.shapes) <= len(tables.transitions)


def test_shapes_hold_zero_at_state_zero(dp_suite):
    for g in dp_suite[:40]:
        if g.n == 0:
            continue
        tables = tw.compute_tables(g, nice_for(g))
        assert all(shape[0] == 0 for shape in tables.shapes)
        assert len({shape.tobytes() for shape in tables.shapes}) == len(tables.shapes)


def test_infeasible_trace_entry_rejected():
    g = cycle(5)
    ntd = nice_for(g)
    tables = tw.compute_tables(g, ntd)
    t = next(t for t in range(ntd.node_count) if NEG in tables[t])
    with pytest.raises(ValueError, match="infeasible"):
        tw.trace_entry(g, ntd, tables, t, tables[t].index(NEG))
