"""The vectorized transition programs and rules against the per-state
enumeration they replaced, and witnesses pinned across the rewrites."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnpack.treewidth as tw
from tnpack.decomposition import JOIN, TreeDecomposition, decompose_heuristic, make_nice
from tnpack.graph import Graph, disjoint_union
from tnpack.instances import k_c4, random_graph, star

from conftest import nice_tables


# -- reference oracle: one state at a time, in plain Python ------------------

GAP = float("-inf")  # an infeasible entry of a shape


def state_digits(s, size):
    digits = []
    for _ in range(size):
        digits.append(s % 5)
        s //= 5
    return digits


@functools.cache
def oracle_intro_program(size, pos, nbr_mask):
    """Per parent state: child state (NEG if infeasible) and 1 if the new
    vertex is chosen."""
    table = 5**size
    cidx = [tw.NEG] * table
    add = [0] * table
    for s in range(table):
        digits = state_digits(s, size)
        d = digits[pos]
        rest = digits[:pos] + digits[pos + 1 :]
        in_b = d >= 3
        count_v = d - 2 if in_b else d
        nb = (1 if in_b else 0) + sum(
            1 for q, dq in enumerate(rest) if (nbr_mask >> q) & 1 and dq >= 3
        )
        if count_v != nb:
            continue
        child_digits = list(rest)
        if in_b:
            ok = True
            for q, dq in enumerate(rest):
                if (nbr_mask >> q) & 1:
                    if dq in (0, 3):
                        ok = False
                        break
                    child_digits[q] = dq - 1
            if not ok:
                continue
        c = 0
        for q in range(size - 2, -1, -1):
            c = c * 5 + child_digits[q]
        cidx[s] = c
        add[s] = 1 if in_b else 0
    return cidx, add


def oracle_join_splits(s, size, adj_masks):
    """|B| and all (left, right) splits of state s, in canonical order."""
    digits = state_digits(s, size)
    b_mask = 0
    for q, d in enumerate(digits):
        if d >= 3:
            b_mask |= 1 << q
    options = []
    for q, d in enumerate(digits):
        in_b = d >= 3
        count = d - 2 if in_b else d
        target = count + (1 if in_b else 0) + (adj_masks[q] & b_mask).bit_count()
        lo = 1 if in_b else 0
        opts = []
        for f1 in range(lo, 3):
            f2 = target - f1
            if lo <= f2 <= 2:
                opts.append((f1 + 2 if in_b else f1, f2 + 2 if in_b else f2))
        if not opts:
            return b_mask.bit_count(), []
        options.append(opts)
    pairs = [(0, 0)]
    for q, opts in enumerate(options):
        mul = 5**q
        pairs = [(s1 + d1 * mul, s2 + d2 * mul) for s1, s2 in pairs for d1, d2 in opts]
    return b_mask.bit_count(), pairs


@functools.cache
def oracle_join_states(size, adj_masks):
    """oracle_join_splits of every state of one signature."""
    return tuple(oracle_join_splits(s, size, adj_masks) for s in range(5**size))


def reference_join_rule(lt, rt, size, adj_masks):
    """The join rule in plain Python over the oracle's per-state splits:
    gapped child shapes in, a gapped table out."""
    new = [GAP] * 5**size
    for s, (card, pairs) in enumerate(oracle_join_states(size, adj_masks)):
        best = GAP
        for s1, s2 in pairs:
            if lt[s1] != GAP and rt[s2] != GAP:
                best = max(best, lt[s1] + rt[s2])
        if best != GAP:
            new[s] = best - card
    return new


def oracle_join_picks(lt, rt, size, adj_masks):
    """Per state, the first of the oracle's splits that attains the
    reference join entry, or None where the entry is infeasible."""
    picks = []
    table = reference_join_rule(lt, rt, size, adj_masks)
    for s, (card, pairs) in enumerate(oracle_join_states(size, adj_masks)):
        attaining = (p for p in pairs if lt[p[0]] + rt[p[1]] - card == table[s])
        picks.append(None if table[s] == GAP else next(attaining))
    return picks


def reference_forget_rule(ct, size, pos):
    """The forget rule in plain Python: per parent state, the best of the
    five child entries with a digit inserted at ``pos``."""
    low = 5**pos
    return [
        max(ct[(p // low) * 5 * low + d * low + p % low] for d in range(5))
        for p in range(5 ** (size - 1))
    ]


def reference_introduce_rule(ct, size, pos, nbr_mask):
    """The introduce rule in plain Python over the oracle program."""
    cidx, add = oracle_intro_program(size, pos, nbr_mask)
    return [GAP if c < 0 or ct[c] == GAP else ct[c] + a for c, a in zip(cidx, add)]


def random_shape(rng, size):
    """A gapped child shape: 0 at state 0, else -inf or a small value."""
    entries = [0] + [rng.choice((GAP, GAP, 0, 1, 2, 3)) for _ in range(5**size - 1)]
    return np.array(entries, dtype=np.float64)


def symmetric_masks(size, edges):
    masks = [0] * size
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def all_symmetric_masks(size):
    slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for pick in range(1 << len(slots)):
        yield symmetric_masks(size, [e for k, e in enumerate(slots) if (pick >> k) & 1])


def seeded_masks(size, count, seed):
    rng = random.Random(seed)
    slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for _ in range(count):
        yield symmetric_masks(size, [e for e in slots if rng.random() < 0.5])


# -- program and rule equivalence ----------------------------------------------


@pytest.fixture
def fresh_caches():
    tw._intro_entry.cache_clear()
    tw._join_fields.cache_clear()
    tw._join_bounds.cache_clear()


def assert_join_matches(size, adj_masks, lt, rt):
    """The join rule's table and recorded picks against the reference rule
    and the oracle's first attaining split of every state."""
    table, picks = tw._join_rule(lt, rt, size, adj_masks)
    assert table.dtype == np.float64
    assert table.tolist() == reference_join_rule(lt, rt, size, adj_masks)
    # picks hold state indices in 16 bits while every state fits
    assert picks.dtype == np.int16
    got = [None if left < 0 else (left, right) for left, right in picks.T.tolist()]
    assert got == oracle_join_picks(lt, rt, size, adj_masks)


def assert_join_signature(size, adj_masks, rng):
    """assert_join_matches on shapes with every state feasible and tied
    (each pick is then the oracle's first split of its state), and on
    random gapped shapes."""
    full = np.zeros(5**size)
    assert_join_matches(size, adj_masks, full, full)
    for _ in range(3):
        assert_join_matches(size, adj_masks, random_shape(rng, size), random_shape(rng, size))


def test_intro_program_every_signature(fresh_caches):
    checked = 0
    for size in range(1, 6):
        for pos in range(size):
            for mask in range(1 << (size - 1)):
                gather, add = tw._intro_entry(size, pos, mask)
                cidx, flags = oracle_intro_program(size, pos, mask)
                assert gather.tolist() == [max(c, 0) for c in cidx]
                assert add.tolist() == [GAP if c < 0 else f for c, f in zip(cidx, flags)]
                checked += 1
    assert checked == 129


# named for the join programs they first checked: the rule must cover
# exactly the splits those programs listed, the oracle's
@pytest.mark.parametrize("size", [1, 2, 3])
def test_join_program_every_symmetric_adjacency(size, fresh_caches):
    rng = random.Random(size)
    for adj_masks in all_symmetric_masks(size):
        assert_join_signature(size, adj_masks, rng)


@pytest.mark.parametrize("size,count,seed", [(4, 6, 4004), (5, 3, 5005)])
def test_join_program_seeded_adjacencies(size, count, seed, fresh_caches):
    rng = random.Random(seed)
    for adj_masks in seeded_masks(size, count, seed):
        assert_join_signature(size, adj_masks, rng)


def draw_shape(draw, size):
    """A gapped shape over a bag of ``size`` vertices, drawn as a seed and a
    share of infeasible states, which keeps large shapes cheap to generate."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gaps = draw(st.floats(0.0, 1.0))
    entries = [0] + [GAP if rng.random() < gaps else rng.randrange(5) for _ in range(5**size - 1)]
    return np.array(entries, dtype=np.float64)


@st.composite
def join_inputs(draw):
    """A join signature of 1-4 vertices and two gapped child shapes."""
    size = draw(st.integers(1, 4))
    slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    adj_masks = symmetric_masks(size, [e for e in slots if draw(st.booleans())])
    return size, adj_masks, draw_shape(draw, size), draw_shape(draw, size)


@st.composite
def forget_inputs(draw):
    """A child bag of 1-5 vertices, the position of the forgotten vertex and
    a gapped child shape."""
    size = draw(st.integers(1, 5))
    return size, draw(st.integers(0, size - 1)), draw_shape(draw, size)


@st.composite
def introduce_inputs(draw):
    """A bag of 1-5 vertices, the position of the introduced vertex, its
    neighbour mask over the other positions and a gapped child shape."""
    size = draw(st.integers(1, 5))
    pos = draw(st.integers(0, size - 1))
    mask = draw(st.integers(0, (1 << (size - 1)) - 1))
    return size, pos, mask, draw_shape(draw, size - 1)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(join_inputs())
def test_join_rule_equals_reference(inputs):
    assert_join_matches(*inputs)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(forget_inputs())
def test_forget_rule_equals_reference(inputs):
    size, pos, ct = inputs
    assert tw._forget_rule(ct, pos).tolist() == reference_forget_rule(ct, size, pos)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(introduce_inputs())
def test_introduce_rule_equals_reference(inputs):
    size, pos, mask, ct = inputs
    got = tw._introduce_rule(ct, size, pos, mask)
    assert got.tolist() == reference_introduce_rule(ct, size, pos, mask)


# -- witnesses ---------------------------------------------------------------


def centre_bag_star3():
    """star(3) with a decomposition whose centre bag is {0}: joins on one
    vertex."""
    tree = Graph(4, [(0, 1), (0, 2), (0, 3)])
    return TreeDecomposition(4, tree, [{0}, {0, 1}, {0, 2}, {0, 3}])


SIX = Graph(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 5)]
)

# four width-4 graphs side by side: 7 distinct 5-vertex join signatures
FOUR_WIDTH4 = disjoint_union([random_graph(13, 0.3, seed) for seed in (4, 5, 6, 8)])[0]

# witnesses of the per-state program builders, recorded before the rewrite
# (star3's solve evaluates its one-bag-per-vertex rooting, which is the
# centre-bag decomposition, so it shares that witness; four-width-4's was
# recorded before join programs were cached by bytes, and kept through the
# cache's eviction and removal)
PINNED = [
    ("star3", star(3), None, [2, 3]),
    ("star3-centre-bag", star(3), centre_bag_star3(), [2, 3]),
    ("six", SIX, None, [3, 4, 5]),
    ("kc4-3", k_c4(3).graph, None, [0, 3, 5, 6, 9, 10]),
    (
        "four-width-4",
        FOUR_WIDTH4,
        None,
        [0, 3, 8, 10, 12, 13, 14, 18, 19, 21, 27, 32, 34, 37, 38, 39, 40, 42, 47, 49, 51],
    ),
    ("random-13", random_graph(13, 0.3, 4), None, [0, 3, 8, 10, 12]),
]


def join_bag_sizes(ntd):
    return {len(ntd.bags[t]) for t in range(ntd.node_count) if ntd.kinds[t] == JOIN}


def test_pinned_witnesses_cover_join_sizes():
    sizes = set()
    for _, g, td, _ in PINNED:
        if td is None:
            td = decompose_heuristic(g)
        sizes |= join_bag_sizes(make_nice(td, g))
    assert {1, 2, 3, 4, 5} <= sizes
    assert decompose_heuristic(PINNED[-1][1]).width == 4


@pytest.mark.parametrize("name,g,td,witness", PINNED, ids=[p[0] for p in PINNED])
def test_witness_unchanged(name, g, td, witness, fresh_caches):
    assert sorted(tw.solve(g, td=td).witness) == witness


def test_trace_takes_first_optimal_split(fresh_caches, monkeypatch):
    # every finite entry of every join traces to the same packing as with
    # each join split found by scanning the oracle's split list for the
    # first that attains the entry
    g = PINNED[-1][1]
    ntd = make_nice(decompose_heuristic(g), g)
    tables = nice_tables(g, ntd)
    entries = [
        (t, s)
        for t in range(ntd.node_count)
        if ntd.kinds[t] == JOIN
        for s in [i for i, x in enumerate(tables[t]) if x >= 0][:25]
    ]
    assert {len(ntd.bags[t]) for t, _ in entries} >= {4, 5}
    actual = [tw.trace_entry(tables, t, s) for t, s in entries]
    pick = tw._pick
    scanned = []

    def oracle_pick(record, shapes, s):
        key, sid, _ = record
        if key[0] != JOIN:
            return pick(record, shapes, s)
        _, adj_masks, left, right = key
        card, pairs = oracle_join_splits(s, len(adj_masks), adj_masks)
        target = shapes[sid][s] + card
        scanned.append(key)
        return next((s1, s2) for s1, s2 in pairs if shapes[left][s1] + shapes[right][s2] == target)

    monkeypatch.setattr(tw, "_pick", oracle_pick)
    expected = [tw.trace_entry(tables, t, s) for t, s in entries]
    assert len(scanned) >= len(entries)
    assert actual == expected
