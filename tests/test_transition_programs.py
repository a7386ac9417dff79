"""The vectorized transition-program builders against the per-state
enumeration they replaced, and witnesses pinned across the rewrite."""

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


def oracle_join_program(size, adj_masks):
    idx1, idx2, target = [], [], []
    bcard = [0] * 5**size
    for s in range(5**size):
        card, pairs = oracle_join_splits(s, size, adj_masks)
        bcard[s] = card
        for s1, s2 in pairs:
            idx1.append(s1)
            idx2.append(s2)
            target.append(s)
    tgt = np.asarray(target, dtype=np.int64)
    order = np.argsort(tgt, kind="stable")
    sorted_tgt = tgt[order]
    starts = np.flatnonzero(np.r_[True, sorted_tgt[1:] != sorted_tgt[:-1]])
    return (
        np.asarray(idx1, dtype=np.int64)[order],
        np.asarray(idx2, dtype=np.int64)[order],
        starts,
        sorted_tgt[starts],
        bcard,
    )


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


# -- program equivalence ------------------------------------------------------


@pytest.fixture
def fresh_caches(monkeypatch):
    tw._intro_entry.cache_clear()
    monkeypatch.setattr(tw, "_join_cache", {})
    monkeypatch.setattr(tw, "_join_cache_bytes", 0)


def assert_join_matches(size, adj_masks):
    expected = oracle_join_program(size, adj_masks)
    built = tw._build_join_program(size, adj_masks)
    for want, got in zip(expected[:4], built[:4]):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert built[4] == expected[4]
    # the join rule and the trace read the cached program, which stores
    # state indices in 16 bits
    cached = tw._join_program(size, adj_masks)
    assert [a.dtype for a in cached] == [np.int16, np.int16, np.intp, np.int16, np.int8]
    for want, got in zip(built, cached):
        assert np.array_equal(got, want)
    for s in range(5**size):
        assert tw._join_pairs(size, adj_masks, s) == oracle_join_splits(s, size, adj_masks)


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


@pytest.mark.parametrize("size", [1, 2, 3])
def test_join_program_every_symmetric_adjacency(size, fresh_caches):
    for adj_masks in all_symmetric_masks(size):
        assert_join_matches(size, adj_masks)


@pytest.mark.parametrize("size,count,seed", [(4, 6, 4004), (5, 3, 5005)])
def test_join_program_seeded_adjacencies(size, count, seed, fresh_caches):
    for adj_masks in seeded_masks(size, count, seed):
        assert_join_matches(size, adj_masks)


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
    size, adj_masks, lt, rt = inputs
    got = tw._join_rule(lt, rt, size, adj_masks)
    assert got.tolist() == reference_join_rule(lt, rt, size, adj_masks)


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

# witnesses of the per-state program builders, recorded before the rewrite
PINNED = [
    ("star3", star(3), None, [1, 2]),
    ("star3-centre-bag", star(3), centre_bag_star3(), [2, 3]),
    ("six", SIX, None, [3, 4, 5]),
    ("kc4-3", k_c4(3).graph, None, [0, 3, 5, 6, 9, 10]),
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
    # the oracle's split lists
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
    monkeypatch.setattr(
        tw, "_join_pairs", lambda size, adj_masks, s: oracle_join_splits(s, size, adj_masks)
    )
    expected = [tw.trace_entry(tables, t, s) for t, s in entries]
    assert actual == expected


# -- the join program cache ----------------------------------------------------

# 40 distinct 5-vertex signatures: more wide joins than one batch of small
# graphs brings, which the former 32-program cache could not hold
FORTY = list(dict.fromkeys(seeded_masks(5, 60, 5405)))[:40]

# four width-4 graphs side by side: 7 distinct 5-vertex join signatures, and
# the witness the solver returned before the join cache was bounded by bytes
EVICTION_GRAPH = disjoint_union([random_graph(13, 0.3, seed) for seed in (4, 5, 6, 8)])[0]
EVICTION_WITNESS = [0, 3, 8, 10, 12, 13, 14, 18, 19, 21, 27, 32, 34, 37, 38, 39, 40, 42, 47, 49, 51]


def count_builds(monkeypatch):
    """Every (size, adj_masks) passed to _build_join_program from now on."""
    calls = []
    build = tw._build_join_program

    def counting(size, adj_masks):
        calls.append((size, adj_masks))
        return build(size, adj_masks)

    monkeypatch.setattr(tw, "_build_join_program", counting)
    return calls


@pytest.fixture
def three_program_budget(fresh_caches, monkeypatch):
    """An empty join cache bounded at the bytes of three 5-vertex programs."""
    budget = 3 * tw._program_bytes(tw._join_program(5, FORTY[0]))
    monkeypatch.setattr(tw, "_join_cache", {})
    monkeypatch.setattr(tw, "_join_cache_bytes", 0)
    monkeypatch.setattr(tw, "_JOIN_CACHE_BYTES", budget)
    return budget


def test_join_cache_builds_each_signature_once(fresh_caches, monkeypatch):
    builds = count_builds(monkeypatch)
    assert len(FORTY) == 40
    rng = random.Random(5)
    lt, rt = random_shape(rng, 5), random_shape(rng, 5)
    first = [tw._join_rule(lt, rt, 5, m).tolist() for m in FORTY]
    second = [tw._join_rule(lt, rt, 5, m).tolist() for m in FORTY]
    assert first == second
    assert builds == [(5, m) for m in FORTY]


def test_join_cache_stays_within_budget(three_program_budget):
    rng = random.Random(6)
    lt, rt = random_shape(rng, 5), random_shape(rng, 5)
    for m in FORTY[:12]:
        tw._join_rule(lt, rt, 5, m)
        held = [tw._program_bytes(p) for p in tw._join_cache.values()]
        assert tw._join_cache_bytes == sum(held) <= three_program_budget
        assert (5, m) in tw._join_cache
    assert len(tw._join_cache) >= 2


def test_trace_after_eviction_keeps_witness(three_program_budget, monkeypatch):
    builds = count_builds(monkeypatch)
    result = tw.solve(EVICTION_GRAPH)
    # the trace rebuilt programs that the table evaluation had evicted
    assert len(builds) > len(set(builds))
    assert sorted(result.witness) == EVICTION_WITNESS
