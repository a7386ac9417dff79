"""Dynamic program computing a maximum two-neighbour packing over a nice
tree decomposition.

Per bag vertex a state records whether the vertex is chosen and how many
chosen vertices its closed neighbourhood contains so far; the admissible
combinations are (out,0), (out,1), (out,2), (in,1), (in,2), encoded as digits
0..4 of a base-5 index over the sorted bag. A node's table maps each of the
5**|bag| states to the best partial packing size, or to -1 (NEG) when the
state is infeasible.

Taken up to an additive constant, the tables of a decomposition fall into
few distinct shapes (a 100k-vertex random tree has about 310k nodes and a
few hundred shapes), so the evaluator stores a shape id and an offset per
node. A shape is a table shifted so that state 0 holds 0; state 0 (every
bag vertex unchosen with count 0, the empty packing) is always feasible.
Shapes mark infeasible states with -inf, which no shift can reach. A
transition is a node kind, its signature and its child shape ids; each
distinct transition is evaluated once per solve by the one rule of its kind,
and the result is interned by content. Leaf, introduce and join rules keep
state 0 at 0; a forget output is shifted back, and the shift goes into the
node's offset. ``tables[t]`` on the result of compute_tables materializes
node t's full table.

Every join is evaluated with numpy from one program per (bag size,
adjacency) signature: all (left state, right state) splits of every state,
grouped by state in canonical order. The trace reads the same program.

Witnesses are reconstructed by one root-to-leaves trace. Its choices (the
lowest forget digit, the first optimal join split in canonical order) do not
depend on offsets, so each is derived once per (transition, state) from the
shapes.
"""

from __future__ import annotations

import gc

import numpy as np

from .decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,
    validate,
)
from .errors import PreconditionError
from .graph import Graph
from .oracles import SolveResult, is_two_neighbour_packing

NEG = -1  # infeasible entry of a materialized table
# infeasible entry of a shape: below every entry, so max() needs no guard;
# the rules keep this one object in every infeasible slot and test it by
# identity before adding
_GAP = float("-inf")

_POW5 = tuple(5 ** i for i in range(28))

_LEAF_SHAPE = (0, _GAP, _GAP, 1, _GAP)
_LEAF_KEY = (LEAF,)

# transition programs are built with numpy digit arithmetic and cached by
# structural signature across solves. Introduce programs are small and kept
# without bound. Join programs hold every split of every state (about 66k
# for a 5-vertex bag), so their cache is a FIFO bounded by the bytes of its
# arrays: 64 MiB holds about 220 five-vertex programs, more than the
# distinct wide joins of a batch of small graphs. The newest program is kept
# even when it alone exceeds the budget.
_intro_cache: dict = {}
_join_cache: dict = {}
_join_cache_bytes = 0
_JOIN_CACHE_BYTES = 64 << 20


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
        index += digit * _POW5[pos]
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


def _digit_array(size: int) -> np.ndarray:
    """(5**size, size) array of every state's base-5 digits, position q in
    column q."""
    states = np.arange(_POW5[size], dtype=np.int64)
    return states[:, None] // np.asarray(_POW5[:size], dtype=np.int64) % 5


def _intro_entry(size: int, pos: int, nbr_mask: int):
    """Cached introduce program for one signature: ``(cidx, add, steps)``.

    ``cidx`` and ``add`` are indexed by parent state (see _intro_program);
    ``steps`` lists ``(parent state, child state, add)`` for the feasible
    parent states only, which is all the table evaluation needs.
    """
    key = (size, pos, nbr_mask)
    cached = _intro_cache.get(key)
    if cached is not None:
        return cached
    digits = _digit_array(size)
    d = digits[:, pos]
    rest = np.delete(digits, pos, axis=1)
    nbr = np.array([(nbr_mask >> q) & 1 for q in range(size - 1)], dtype=bool)
    in_b = d >= 3
    feasible = np.where(in_b, d - 2, d) == in_b + (rest[:, nbr] >= 3).sum(axis=1)
    # a chosen new vertex raises each neighbour's count by one, so the
    # neighbour's child digit is one lower and must not drop below its floor
    feasible &= ~in_b | ~((rest[:, nbr] == 0) | (rest[:, nbr] == 3)).any(axis=1)
    child = (rest - np.outer(in_b, nbr)) @ np.asarray(_POW5[: size - 1], dtype=np.int64)
    cidx = np.where(feasible, child, NEG).tolist()
    add = (in_b & feasible).astype(np.int64).tolist()
    steps = [(s, c, a) for s, (c, a) in enumerate(zip(cidx, add)) if c >= 0]
    cached = (cidx, add, steps)
    _intro_cache[key] = cached
    return cached


def _intro_program(size: int, pos: int, nbr_mask: int) -> tuple[list[int], list[int]]:
    """Per parent state: child state index (or -1 if infeasible) and the +1
    flag for the introduced vertex being chosen.

    ``nbr_mask`` marks which child-bag positions are neighbours of the new
    vertex; their counts are one lower in the child state.
    """
    cidx, add, _ = _intro_entry(size, pos, nbr_mask)
    return cidx, add


def _join_triples(chosen: bool, k: int) -> np.ndarray:
    """(parent, left, right) digits at one join position, as the rows of a
    3 x m array, for a vertex with ``k`` chosen bag neighbours.

    The two side counts add up to the parent count plus the ones both sides
    see: the vertex itself if chosen and its k chosen neighbours. Each side
    keeps the vertex's floor (1 if chosen, else 0). Rows are in (parent
    digit, left digit) order, the canonical split order."""
    lo = 1 if chosen else 0
    off = 2 if chosen else 0
    rows = [
        (c + off, f1 + off, c + lo + k - f1 + off)
        for c in range(lo, 3)
        for f1 in range(lo, 3)
        if lo <= c + lo + k - f1 <= 2
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


def _build_join_program(size: int, adj_masks: tuple[int, ...]):
    """Every (left state, right state) split of every join state, grouped by
    parent state in canonical order: (idx1, idx2, starts, states, bcard).

    For a fixed chosen set B each position has a fixed short list of digit
    triples; their product over positions, with position 0 varying slowest,
    lists B's splits in canonical order, and a stable sort by parent state
    merges the 2**size blocks."""
    triples = [[_join_triples(chosen, k) for k in range(size)] for chosen in (False, True)]
    blocks = []
    for b_mask in range(1 << size):
        split = np.zeros((3, 1), dtype=np.int64)
        for q in range(size):
            digits = triples[(b_mask >> q) & 1][(adj_masks[q] & b_mask).bit_count()]
            split = (split[:, :, None] + digits[:, None, :] * _POW5[q]).reshape(3, -1)
        blocks.append(split)
    tgt, idx1, idx2 = np.concatenate(blocks, axis=1)
    # a stable sort on 16-bit keys is a radix sort
    key = tgt.astype(np.uint16) if _POW5[size] <= 1 << 16 else tgt
    order = np.argsort(key, kind="stable")
    sorted_tgt = tgt[order]
    starts = np.flatnonzero(np.r_[True, sorted_tgt[1:] != sorted_tgt[:-1]])
    bcard = (_digit_array(size) >= 3).sum(axis=1).tolist()
    return idx1[order], idx2[order], starts, sorted_tgt[starts], bcard


def _join_program(size: int, adj_masks: tuple[int, ...]):
    """The cached program of _build_join_program with compact arrays: state
    indices as int16 while every state fits (bags of up to 6 vertices),
    int32 above, and |B| per state as int8."""
    global _join_cache_bytes
    key = (size, adj_masks)
    prog = _join_cache.get(key)
    if prog is None:
        idx1, idx2, starts, states, bcard = _build_join_program(size, adj_masks)
        dtype = np.int16 if _POW5[size] <= 1 << 15 else np.int32
        prog = (
            idx1.astype(dtype),
            idx2.astype(dtype),
            starts,
            states.astype(dtype),
            np.asarray(bcard, dtype=np.int8),
        )
        nbytes = _program_bytes(prog)
        while _join_cache and _join_cache_bytes + nbytes > _JOIN_CACHE_BYTES:
            _join_cache_bytes -= _program_bytes(_join_cache.pop(next(iter(_join_cache))))
        _join_cache[key] = prog
        _join_cache_bytes += nbytes
    return prog


def _program_bytes(prog) -> int:
    return sum(a.nbytes for a in prog)


def _join_pairs(size: int, adj_masks: tuple[int, ...], s: int):
    """|B| and the canonical (left state, right state) splits of state ``s``,
    read from the program the join rule evaluates."""
    idx1, idx2, starts, states, bcard = _join_program(size, adj_masks)
    card = int(bcard[s])
    i = int(np.searchsorted(states, s))
    if i == len(states) or states[i] != s:
        return card, []
    hi = starts[i + 1] if i + 1 < len(starts) else len(idx1)
    lo = starts[i]
    return card, list(zip(idx1[lo:hi].tolist(), idx2[lo:hi].tolist()))


def _bag_position(bag, v) -> int:
    try:
        return bag.index(v)
    except ValueError:
        raise ValueError(f"vertex {v} not in bag {bag}") from None


def _nbr_mask(bag, v, adj) -> int:
    """Bit q set when the q-th vertex of ``bag`` other than ``v`` is a
    neighbour of ``v``: the neighbour mask of an introduce signature.

    Each test scans the shorter of the two adjacency tuples, so a vertex of
    high degree costs no more per bag than a leaf."""
    nbrs = adj[v]
    mask = 0
    q = 0
    for u in bag:
        if u != v:
            if (u in nbrs) if len(nbrs) <= len(adj[u]) else (v in adj[u]):
                mask |= 1 << q
            q += 1
    return mask


def _intro_signature(ntd: NiceTreeDecomposition, t: int, g: Graph):
    bag = ntd.bags[t]
    v = ntd.payloads[t]
    return len(bag), _bag_position(bag, v), _nbr_mask(bag, v, g.adj)


def _join_adj_masks(ntd: NiceTreeDecomposition, t: int, g: Graph) -> tuple[int, ...]:
    """Per bag position, the mask of its neighbours' positions in the bag;
    each pair is tested once, on the shorter adjacency tuple."""
    bag = ntd.bags[t]
    adj = g.adj
    masks = [0] * len(bag)
    for i, u in enumerate(bag):
        nbrs = adj[u]
        for j in range(i + 1, len(bag)):
            w = bag[j]
            if (w in nbrs) if len(nbrs) <= len(adj[w]) else (u in adj[w]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def _forget_rule(ct, pos: int) -> list:
    """Forget: per parent state, the best of the five child entries that
    extend it by a digit at ``pos``."""
    low = _POW5[pos]
    if pos == 0:
        return list(map(max, ct[0::5], ct[1::5], ct[2::5], ct[3::5], ct[4::5]))
    high = 5 * low
    if high == len(ct):
        # the highest digit: the child entries with digit d form one slice in
        # parent-state order
        return list(
            map(max, ct[:low], ct[low : 2 * low], ct[2 * low : 3 * low],
                ct[3 * low : 4 * low], ct[4 * low :])
        )
    # the five extensions of a parent state sit on an arithmetic slice
    return [
        max(ct[h * high + l : h * high + l + high : low])
        for h in range(len(ct) // high)
        for l in range(low)
    ]


def _introduce_rule(ct, size: int, steps) -> list:
    """Introduce: each feasible parent state carries its child entry over,
    plus one when the new vertex is chosen."""
    gap = _GAP
    new = [gap] * _POW5[size]
    for s, c, a in steps:
        val = ct[c]
        if val is not gap:
            new[s] = val + a
    return new


def _join_rule(lt, rt, size: int, adj_masks: tuple[int, ...]) -> list:
    """Join: per state, the best sum of child entries over all count splits,
    minus the double-counted |B|."""
    idx1, idx2, starts, states, bcard = _join_program(size, adj_masks)
    gap = _GAP
    new = [gap] * _POW5[size]
    # state 0 always has the split (0, 0), so the program is never empty
    sums = np.asarray(lt, dtype=np.float64)[idx1] + np.asarray(rt, dtype=np.float64)[idx2]
    best = np.maximum.reduceat(sums, starts)
    feasible = best > gap
    hit = states[feasible]
    for s, val in zip(hit.tolist(), (best[feasible] - bcard[hit]).astype(np.int64).tolist()):
        new[s] = val
    return new


def _gapped(table) -> list:
    """A materialized table with -inf in place of NEG."""
    return [x if x >= 0 else _GAP for x in table]


def _materialize(shape, offset: int) -> list[int]:
    gap = _GAP
    return [NEG if x is gap else x + offset for x in shape]


def dp_leaf(ntd: NiceTreeDecomposition, t: int) -> list[int]:
    """Leaf table: empty packing, or the bag vertex alone with count 1."""
    if ntd.kinds[t] != LEAF:
        raise ValueError(f"node {t} is not a leaf")
    return _materialize(_LEAF_SHAPE, 0)


def dp_forget(ntd: NiceTreeDecomposition, t: int, child_table: list[int]) -> list[int]:
    """Forget table: per state, the best child entry over the five extensions
    of the dropped vertex."""
    if ntd.kinds[t] != FORGET:
        raise ValueError(f"node {t} is not a forget node")
    child_bag = ntd.bags[ntd.children[t][0]]
    pos = _bag_position(child_bag, ntd.payloads[t])
    return _materialize(_forget_rule(_gapped(child_table), pos), 0)


def dp_introduce(ntd: NiceTreeDecomposition, t: int, child_table: list[int], g: Graph) -> list[int]:
    """Introduce table: states whose count at the new vertex disagrees with its
    chosen bag neighbours are infeasible; otherwise the child entry carries
    over, plus one when the new vertex is chosen (its chosen neighbours' child
    counts are then one lower)."""
    if ntd.kinds[t] != INTRODUCE:
        raise ValueError(f"node {t} is not an introduce node")
    size, pos, mask = _intro_signature(ntd, t, g)
    steps = _intro_entry(size, pos, mask)[2]
    return _materialize(_introduce_rule(_gapped(child_table), size, steps), 0)


def dp_join(
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
    size = len(ntd.bags[t])
    new = _join_rule(
        _gapped(left_table), _gapped(right_table), size, _join_adj_masks(ntd, t, g)
    )
    return _materialize(new, 0)


def _transition(key: tuple, size: int, shapes: list, shape_ids: dict) -> tuple:
    """Evaluate one transition on its child shapes: ``(key, shape id, shift,
    introduce program or None)``, where the node's table is its shape plus
    the children's offsets plus ``shift``."""
    kind = key[0]
    shift = 0
    program = None
    if kind == FORGET:
        _, pos, child = key
        out = _forget_rule(shapes[child], pos)
        shift = out[0]
        if shift:
            gap = _GAP
            out = [x if x is gap else x - shift for x in out]
    elif kind == INTRODUCE:
        _, pos, mask, child = key
        program = _intro_entry(size, pos, mask)
        out = _introduce_rule(shapes[child], size, program[2])
    elif kind == LEAF:
        out = _LEAF_SHAPE
    else:
        _, adj_masks, left, right = key
        out = _join_rule(shapes[left], shapes[right], size, adj_masks)
    shape = tuple(out)
    # setdefault hashes the shape once, found or not
    sid = shape_ids.setdefault(shape, len(shapes))
    if sid == len(shapes):
        shapes.append(shape)
    return key, sid, shift, program


class DPTables:
    """What compute_tables returns: per node a transition id, a shape id
    and an offset; ``tables[t]`` materializes node t's table."""

    __slots__ = ("shapes", "transitions", "node_transition", "node_shape", "offsets")

    def __init__(self, shapes, transitions, node_transition, node_shape, offsets):
        self.shapes = shapes
        self.transitions = transitions
        self.node_transition = node_transition
        self.node_shape = node_shape
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, t: int) -> list[int]:
        return _materialize(self.shape(t), self.offsets[t])

    def shape(self, t: int) -> tuple:
        return self.shapes[self.node_shape[t]]


def compute_tables(g: Graph, ntd: NiceTreeDecomposition) -> DPTables:
    """Evaluate the whole decomposition bottom-up, each distinct transition
    once."""
    count = ntd.node_count
    node_transition = [0] * count
    node_shape = [0] * count
    offsets = [0] * count
    shapes: list[tuple] = []
    shape_ids: dict[tuple, int] = {}
    transitions: list[tuple] = []
    transition_ids: dict[tuple, int] = {}
    kinds = ntd.kinds
    bags = ntd.bags
    payloads = ntd.payloads
    children = ntd.children
    adj = g.adj
    for t in ntd.order:
        kind = kinds[t]
        if kind == FORGET:
            child = children[t][0]
            key = (FORGET, bags[child].index(payloads[t]), node_shape[child])
            offset = offsets[child]
        elif kind == INTRODUCE:
            bag = bags[t]
            v = payloads[t]
            # _nbr_mask, inlined: introduce nodes make up half of a chain
            nbrs = adj[v]
            degree = len(nbrs)
            mask = 0
            q = 0
            for u in bag:
                if u != v:
                    if (u in nbrs) if degree <= len(adj[u]) else (v in adj[u]):
                        mask |= 1 << q
                    q += 1
            child = children[t][0]
            key = (INTRODUCE, bag.index(v), mask, node_shape[child])
            offset = offsets[child]
        elif kind == LEAF:
            key = _LEAF_KEY
            offset = 0
        else:
            left, right = children[t]
            key = (JOIN, _join_adj_masks(ntd, t, g), node_shape[left], node_shape[right])
            offset = offsets[left] + offsets[right]
        tid = transition_ids.setdefault(key, len(transitions))
        if tid == len(transitions):
            transitions.append(_transition(key, len(bags[t]), shapes, shape_ids))
        record = transitions[tid]
        node_transition[t] = tid
        node_shape[t] = record[1]
        offsets[t] = offset + record[2]
    return DPTables(shapes, transitions, node_transition, node_shape, offsets)


def _pick(record: tuple, shapes: list, s: int):
    """The trace's choice at a forget or join transition in state ``s``: the
    child state with the lowest dropped digit, or the first (left, right)
    split in canonical order, that attains the entry."""
    key, sid, shift, _ = record
    value = shapes[sid][s]
    if key[0] == FORGET:
        _, pos, child = key
        ct = shapes[child]
        target = value + shift
        low = _POW5[pos]
        base = (s // low) * (5 * low) + s % low
        for c in range(base, base + 5 * low, low):
            if ct[c] == target:
                return c
        raise RuntimeError("inconsistent forget table")
    _, adj_masks, left, right = key
    lt = shapes[left]
    rt = shapes[right]
    card, pairs = _join_pairs(len(adj_masks), adj_masks, s)
    for s1, s2 in pairs:
        if lt[s1] + rt[s2] - card == value:
            return s1, s2
    raise RuntimeError("inconsistent join table")


def trace_entry(
    g: Graph, ntd: NiceTreeDecomposition, tables: DPTables, node: int, state: int
) -> frozenset:
    """Packing realizing a finite table entry, rebuilt top-down with one
    derived choice per (transition, state); deterministic (first candidate
    in canonical order)."""
    shapes = tables.shapes
    if shapes[tables.node_shape[node]][state] is _GAP:
        raise ValueError(f"entry {state} at node {node} is infeasible")
    chosen: set[int] = set()
    kinds = ntd.kinds
    payloads = ntd.payloads
    children = ntd.children
    transitions = tables.transitions
    node_transition = tables.node_transition
    picks: dict[tuple[int, int], object] = {}
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
            tid = node_transition[t]
            if kind == INTRODUCE:
                cidx, add, _ = transitions[tid][3]
                c = cidx[s]
                if c < 0:
                    raise RuntimeError("inconsistent introduce table")
                if add[s]:
                    chosen.add(payloads[t])
                t, s = children[t][0], c
                continue
            pick = picks.get((tid, s))
            if pick is None:
                pick = picks[tid, s] = _pick(transitions[tid], shapes, s)
            if kind == FORGET:
                t, s = children[t][0], pick
                continue
            left, right = children[t]
            stack.append((left, pick[0]))
            stack.append((right, pick[1]))
            break
    return frozenset(chosen)


def solve(
    g: Graph,
    ntd: NiceTreeDecomposition | None = None,
    td: TreeDecomposition | None = None,
) -> SolveResult:
    """Maximum two-neighbour packing via the decomposition dynamic program.

    Without a decomposition one is built (exact for forests, min-fill
    otherwise). A caller-supplied decomposition is validated first. The
    returned witness is always re-checked against the packing definition.
    """
    if g.n == 0:
        return SolveResult(0, frozenset(), 0)
    # pausing the cyclic collector is safe (nothing here forms cycles) and
    # saves a sizeable fraction on instances with hundreds of thousands of
    # nodes
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if ntd is None:
            if td is not None:
                ntd = make_nice(td, g)  # make_nice validates
            else:
                try:
                    base = decompose_tree(g)
                except ValueError:  # not a forest
                    base = decompose_heuristic(g)
                ntd = make_nice(base, g, pre_validated=True)
        else:
            if ntd.n != g.n:
                raise PreconditionError(
                    f"decomposition is over n={ntd.n}, graph has n={g.n}"
                )
            problems = ntd.structural_violations()
            if not problems:
                problems = [str(v) for v in validate(g, ntd.to_tree_decomposition())]
            if problems:
                raise PreconditionError(f"invalid nice decomposition: {problems[0]}")
        tables = compute_tables(g, ntd)
        root_shape = tables.shape(ntd.root)
        # state 0 of every shape holds 0, so the maximum is finite
        best = max(root_shape)
        state = root_shape.index(best)
        value = best + tables.offsets[ntd.root]
        witness = trace_entry(g, ntd, tables, ntd.root, state)
        node_count = ntd.node_count
    finally:
        # free the tables and the decomposition while the collector is
        # still off, so that its first sweep does not walk them
        tables = root_shape = ntd = base = None
        if gc_was_enabled:
            gc.enable()
    if len(witness) != value or not is_two_neighbour_packing(g, witness):
        raise RuntimeError("dynamic program produced an invalid witness")
    return SolveResult(value, witness, node_count)
