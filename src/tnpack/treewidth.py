"""Dynamic program computing a maximum two-neighbour packing over a tree
decomposition.

Per bag vertex a state records whether the vertex is chosen and how many
chosen vertices its closed neighbourhood contains so far; the admissible
combinations are (out,0), (out,1), (out,2), (in,1), (in,2), encoded as digits
0..4 of a base-5 index over the sorted bag. A node's table maps each of the
5**|bag| states to the best partial packing size, or to -1 (NEG) when the
state is infeasible.

The program runs on the decomposition's own bags in one pass. Nice form
(leaf/introduce/forget/join) is the proof device, not a structure the
program builds or reads: each bag-to-bag edge is one chain of the forget
and introduce transitions make_nice would put there, a childless bag
introduces its vertices into the empty table, a bag's sides are joined in
child order, and the root is drained to its lowest vertex. A chain is keyed
by its edge signature (sizes, which vertices the bags share, the parent's
adjacency), computed for every edge in one numpy pass, and by its child
shape; a 100k-vertex random tree has 99,999 bags but only a few hundred
distinct chains.

Taken up to an additive constant, the tables of a decomposition fall into
few distinct shapes, so the evaluator stores a shape id and an offset per
node. A shape is a table shifted so that state 0 holds 0; state 0 (every
bag vertex unchosen with count 0, the empty packing) is always feasible.
A shape is one contiguous float64 array with -inf at infeasible states:
-inf is below every entry and stays -inf under every sum and shift, so no
rule tests for it. A transition is a node kind, its signature and its child
shape ids; each distinct transition is evaluated once per solve by the one
numpy rule of its kind, and the result is interned by its bytes. Shape 0
is the empty table, the one entry 0 of an empty bag. Introduce and join
rules keep state 0 at 0; a forget output is shifted back, and the shift
goes into the node's offset. ``tables[t]`` on the result of
compute_tables materializes node t's full table.

Introduce and join rules read programs cached per signature. An introduce
program is one gather of child states plus one add, -inf where the parent
state is infeasible. A join program lists all (left state, right state)
splits of every state, grouped by state in canonical order.

Witnesses are reconstructed by one root-to-leaves trace that reads the same
programs. Its choices (the child state of an introduce, the lowest forget
digit, the first optimal join split in canonical order) do not depend on
offsets, so each is derived once per (transition, state) from the shapes,
and each chain is replayed once per (chain, state), last step first.
"""

from __future__ import annotations

import gc
from functools import cache, lru_cache
from itertools import chain

import numpy as np

from .decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    TreeDecomposition,
    check_decomposition,
    decompose_heuristic,
    decompose_tree,
    make_nice,  # noqa: F401  (perfbench/spans.py traces it here; solve does not call it)
    root_decomposition,
)
from .graph import Graph
from .oracles import SolveResult, is_two_neighbour_packing

NEG = -1  # infeasible entry of a materialized table

_POW5 = tuple(5 ** i for i in range(28))

# transition programs are built with numpy digit arithmetic and cached by
# structural signature across solves. Introduce programs are small and kept
# without bound. Join programs hold every split of every state (about 66k
# for a 5-vertex bag) and range from a few bytes to tens of MB, so their
# cache is a FIFO bounded by the bytes of its arrays, not by a count:
# 64 MiB holds about 220 five-vertex programs, more than the distinct wide
# joins of a batch of small graphs. The newest program is kept even when
# it alone exceeds the budget.
_join_cache: dict = {}
_join_cache_bytes = 0
_JOIN_CACHE_BYTES = 64 << 20


def _digit_array(size: int) -> np.ndarray:
    """(5**size, size) array of every state's base-5 digits, position q in
    column q."""
    states = np.arange(_POW5[size], dtype=np.int64)
    return states[:, None] // np.asarray(_POW5[:size], dtype=np.int64) % 5


@cache
def _intro_entry(size: int, pos: int, nbr_mask: int):
    """Cached introduce program for one signature: ``(gather, add)``.

    Per parent state, ``gather`` holds the child state (0 where the parent
    state is infeasible) and ``add`` holds 1 if the new vertex is chosen,
    0 if not, and -inf if the parent state is infeasible. ``nbr_mask``
    marks which child-bag positions are neighbours of the new vertex.
    """
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
    return np.where(feasible, child, 0), np.where(feasible, in_b, -np.inf)


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
    i = int(states.searchsorted(s))
    if i == len(states) or states[i] != s:
        return card, []
    hi = starts[i + 1] if i + 1 < len(starts) else len(idx1)
    lo = starts[i]
    return card, list(zip(idx1[lo:hi].tolist(), idx2[lo:hi].tolist()))


def _forget_rule(ct: np.ndarray, pos: int) -> np.ndarray:
    """Forget: per parent state, the best of the five child entries that
    extend it by a digit at ``pos``."""
    return np.maximum.reduce(ct.reshape(-1, 5, _POW5[pos]), axis=1).ravel()


def _introduce_rule(ct: np.ndarray, size: int, pos: int, nbr_mask: int) -> np.ndarray:
    """Introduce: each feasible parent state carries its child entry over,
    plus one when the new vertex is chosen (its chosen neighbours' child
    counts are then one lower); every other state is infeasible."""
    gather, add = _intro_entry(size, pos, nbr_mask)
    return ct[gather] + add


def _join_rule(
    lt: np.ndarray, rt: np.ndarray, size: int, adj_masks: tuple[int, ...]
) -> np.ndarray:
    """Join: per state, the best sum of child entries over all count splits,
    minus the double-counted |B|."""
    idx1, idx2, starts, states, bcard = _join_program(size, adj_masks)
    new = np.empty(_POW5[size])
    new.fill(-np.inf)
    # state 0 always has the split (0, 0), so the program is never empty
    new[states] = np.maximum.reduceat(lt[idx1] + rt[idx2], starts) - bcard[states]
    return new


def _transition(key: tuple, shapes: list, shape_ids: dict) -> tuple:
    """Evaluate one transition on its child shapes: ``(key, shape id,
    shift)``, where the node's table is its shape plus the children's
    offsets plus ``shift``."""
    kind = key[0]
    shift = 0
    if kind == FORGET:
        _, pos, child = key
        out = _forget_rule(shapes[child], pos)
        shift = int(out[0])
        if shift:
            out -= shift
    elif kind == INTRODUCE:
        _, size, pos, mask, child = key
        out = _introduce_rule(shapes[child], size, pos, mask)
    else:
        _, adj_masks, left, right = key
        out = _join_rule(shapes[left], shapes[right], len(adj_masks), adj_masks)
    # setdefault hashes the bytes once, found or not
    sid = shape_ids.setdefault(out.tobytes(), len(shapes))
    if sid == len(shapes):
        shapes.append(out)
    return key, sid, shift


class DPTables:
    """What compute_tables returns.

    Per node of the rooted decomposition: a shape id and an offset, the
    chain that carries its table to its parent's bag (the root's chain
    drains the root bag to its lowest vertex, and is empty when that bag
    has at most one vertex), the chain that introduces a childless node's
    vertices into the empty table (shape 0), and the join cascade of a node
    with several children.
    ``tables[t]`` materializes node t's table.
    """

    __slots__ = (
        "shapes",
        "transitions",
        "chains",
        "node_shape",
        "offsets",
        "root",
        "children",
        "vertices",
        "up_chain",
        "leaf_chain",
        "joins",
        "steps",
    )

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, t: int) -> list[int]:
        shape = self.shape(t)
        table = np.where(shape == -np.inf, NEG, shape + self.offsets[t])
        return table.astype(np.int64).tolist()

    def shape(self, t: int) -> np.ndarray:
        return self.shapes[self.node_shape[t]]


# chain steps per edge signature, cached across solves like the introduce
# programs. A solve brings few distinct signatures, but a process that
# solves many graphs meets many, so the cache is an LRU of bounded length.
@lru_cache(maxsize=1 << 14)
def _chain_template(sig: bytes) -> tuple:
    """The forget/introduce steps that turn a child bag into its parent's:
    ``(prefixes, positions, parent adjacency masks)``.

    ``sig`` holds the int64 fields (child size, child-in-parent mask,
    parent-in-child mask, parent size, parent adjacency masks padded with
    zeros). The child's vertices that leave are forgotten first, lowest
    first, then the parent's new vertices are introduced, lowest first.
    Each prefix is a transition key without its child shape id;
    ``positions`` holds the parent position of each introduced vertex and
    -1 for a forget."""
    size, kept, present, parent_size, *adj_masks = np.frombuffer(sig, np.int64).tolist()
    adj_masks = tuple(adj_masks[:parent_size])
    prefixes = []
    positions = []
    for i in range(size):
        if not kept >> i & 1:
            prefixes.append((FORGET, i - len(prefixes)))
            positions.append(-1)
    for j, mask in enumerate(adj_masks):
        if present >> j & 1:
            continue
        # bit q of the introduce mask is the q-th present vertex
        nbr = 0
        q = 0
        for k in range(parent_size):
            if present >> k & 1:
                nbr |= (mask >> k & 1) << q
                q += 1
        below = present & ((1 << j) - 1)
        prefixes.append((INTRODUCE, q + 1, below.bit_count(), nbr))
        positions.append(j)
        present |= 1 << j
    return tuple(prefixes), tuple(positions), adj_masks


@cache
def _positions(width: int):
    """Per bag width: the positions, their bits, the weights that turn a
    (width x width) table of equal child and parent positions into the
    child-in-parent and parent-in-child masks, and the dtype of one
    signature row as a single bytes value."""
    positions = np.arange(width, dtype=np.int64)
    bits = 1 << positions
    # a vertex sits at one position of each bag, so summing weights over the
    # equal pairs sets one bit per shared vertex
    weights = np.stack((np.repeat(bits, width), np.tile(bits, width)), axis=1)
    row = np.dtype((np.void, 8 * (4 + width)))
    return positions, bits, weights, row


def _edge_keys(g: Graph) -> np.ndarray:
    """Sorted keys u * (n + 1) + v of every adjacent ordered pair (u, v) of
    g.arcs(), then a sentinel above every key of two vertices or padding n."""
    n = g.n
    src, dst = g.arcs()
    keys = np.empty(len(src) + 1, dtype=np.int64)
    np.multiply(src, n + 1, out=keys[:-1])
    keys[:-1] += dst
    keys[-1] = (n + 1) ** 2
    return keys


def _signatures(g: Graph, bags, parent) -> tuple:
    """Every chain signature of a rooted decomposition in one numpy pass.

    A node's edge signature describes the chain from its bag to its
    parent's; its leaf signature describes the chain that introduces its
    vertices into the empty table, as an edge from an empty bag. Bags are
    padded with n to one (nodes x width) array and sorted per row, and bag
    adjacency comes from one searchsorted over the graph's edge keys. A
    signature is one row of int64 fields (see _chain_template), keyed by
    its bytes. Returns the sorted padded bags and each node's edge and leaf
    signature.
    """
    count = len(bags)
    n = g.n
    sizes = np.fromiter(map(len, bags), np.int64, count)
    width = int(np.maximum.reduce(sizes))
    positions, bits, weights, row = _positions(width)
    valid = positions < sizes[:, None]
    vertices = np.empty((count, width), dtype=np.int64)
    vertices.fill(n)
    vertices[valid] = np.fromiter(chain.from_iterable(bags), np.int64)
    vertices.sort(axis=1)
    keys = _edge_keys(g)
    # the keys of every ordered pair of bag positions; padding matches none
    pair_keys = vertices[:, :, None] * (n + 1) + vertices[:, None, :]
    adjacent = keys[keys.searchsorted(pair_keys)] == pair_keys
    # rows[0] holds the edge signatures, rows[1] the leaf signatures
    rows = np.empty((2, count, 4 + width), dtype=np.int64)
    rows[1, :, :3] = 0
    rows[1, :, 3] = sizes
    rows[1, :, 4:] = adjacent @ bits
    # parent -1 (the root, a pruned node) reads the last bag: an edge
    # signature compute_tables never looks up
    ups = np.fromiter(parent, np.int64, count)
    same = vertices[:, :, None] == vertices[ups][:, None, :]
    same &= valid[:, :, None]
    rows[0, :, 0] = sizes
    rows[0, :, 1:3] = same.reshape(count, -1) @ weights
    rows[0, :, 3:] = rows[1, ups, 3:]
    sig_keys = rows.view(row).ravel().tolist()
    return vertices, sig_keys[:count], sig_keys[count:]


def _run_chain(template, sid, transitions, transition_ids, shapes, shape_ids) -> tuple:
    """Apply a chain's steps to shape ``sid``, each distinct step once per
    solve: ``(template, step transition ids, shape id, total shift)``."""
    tids = []
    shift = 0
    for prefix in template[0]:
        key = prefix + (sid,)
        tid = transition_ids.setdefault(key, len(transitions))
        if tid == len(transitions):
            transitions.append(_transition(key, shapes, shape_ids))
        _, sid, step_shift = transitions[tid]
        shift += step_shift
        tids.append(tid)
    return template, tuple(tids), sid, shift


def compute_tables(g: Graph, td: TreeDecomposition) -> DPTables:
    """Evaluate a decomposition bottom-up in one pass over its bags.

    The decomposition is rooted by root_decomposition. Each bag-to-bag edge
    is one chain, evaluated once per (signature, child shape); a childless
    bag introduces its vertices into the empty table, the sides of a bag
    with several children are joined in child order, and the root is
    drained to its lowest vertex. These are the transitions of make_nice's
    nice form, without building it.
    """
    root, parent, children, order = root_decomposition(td)
    bags = td.bags
    vertices, up_sig, leaf_sig = _signatures(g, bags, parent)
    count = len(parent)
    node_shape = [0] * count
    offsets = [0] * count
    up_chain = [-1] * count
    leaf_chain = [-1] * count
    joins: dict[int, list[int]] = {}
    empty = np.zeros(1)
    shapes = [empty]
    shape_ids = {empty.tobytes(): 0}
    transitions: list[tuple] = []
    transition_ids: dict[tuple, int] = {}
    chains: list[tuple] = []
    chain_ids: dict[tuple[bytes, int], int] = {}
    steps = 0
    for t in order:
        kids = children[t]
        if not kids:
            key = (leaf_sig[t], 0)
            cid = chain_ids.get(key)
            if cid is None:
                cid = chain_ids[key] = len(chains)
                chains.append(
                    _run_chain(_chain_template(key[0]), 0, transitions, transition_ids, shapes, shape_ids)
                )
            leaf_chain[t] = cid
            _, tids, node_shape[t], offsets[t] = chains[cid]
            steps += len(tids)
            continue
        cascade = None
        sid = -1
        for c in kids:
            key = (up_sig[c], node_shape[c])
            cid = chain_ids.get(key)
            if cid is None:
                cid = chain_ids[key] = len(chains)
                chains.append(
                    _run_chain(_chain_template(key[0]), key[1], transitions, transition_ids, shapes, shape_ids)
                )
            up_chain[c] = cid
            template, tids, side, shift = chains[cid]
            steps += len(tids)
            if sid < 0:
                sid = side
                offset = offsets[c] + shift
                continue
            # every edge signature holds its parent's adjacency masks
            jkey = (JOIN, template[2], sid, side)
            tid = transition_ids.setdefault(jkey, len(transitions))
            if tid == len(transitions):
                transitions.append(_transition(jkey, shapes, shape_ids))
            if cascade is None:
                cascade = joins[t] = []
            cascade.append(tid)
            sid = transitions[tid][1]
            offset += offsets[c] + shift
            steps += 1
        node_shape[t] = sid
        offsets[t] = offset
    # forget all but the lowest vertex: no step for a root of at most one
    size = len(bags[root])
    one = min(size, 1)
    drain = _chain_template(np.array([size, one, one, one, 0], dtype=np.int64).tobytes())
    up_chain[root] = len(chains)
    chains.append(_run_chain(drain, node_shape[root], transitions, transition_ids, shapes, shape_ids))
    steps += len(drain[0])
    tables = DPTables()
    tables.shapes = shapes
    tables.transitions = transitions
    tables.chains = chains
    tables.node_shape = node_shape
    tables.offsets = offsets
    tables.root = root
    tables.children = children
    tables.vertices = vertices
    tables.up_chain = up_chain
    tables.leaf_chain = leaf_chain
    tables.joins = joins
    tables.steps = steps
    return tables


def _pick(record: tuple, shapes: list, s: int):
    """The trace's choice at a transition in state ``s``: for an introduce,
    the child state and whether the new vertex is chosen; for a forget, the
    child state with the lowest dropped digit that attains the entry; for a
    join, the first (left, right) split in canonical order that attains it."""
    key, sid, shift = record
    kind = key[0]
    if kind == INTRODUCE:
        _, size, pos, mask, _ = key
        gather, add = _intro_entry(size, pos, mask)
        if add[s] == -np.inf:
            raise RuntimeError("inconsistent introduce table")
        return int(gather[s]), add[s] > 0
    value = shapes[sid][s]
    if kind == FORGET:
        _, pos, child = key
        low = _POW5[pos]
        base = (s // low) * (5 * low) + s % low
        entries = shapes[child][base : base + 5 * low : low].tolist()
        try:
            return base + entries.index(value + shift) * low
        except ValueError:
            raise RuntimeError("inconsistent forget table") from None
    _, adj_masks, left, right = key
    lt = shapes[left]
    rt = shapes[right]
    card, pairs = _join_pairs(len(adj_masks), adj_masks, s)
    target = value + card
    for s1, s2 in pairs:
        if lt[s1] + rt[s2] == target:
            return s1, s2
    raise RuntimeError("inconsistent join table")


def _replay(tables: DPTables, cid: int, state: int, picks: dict, replays: dict) -> tuple:
    """Chain ``cid`` traced back from ``state`` at its end: ``(start state,
    parent positions of the chosen introduced vertices)``, from the picks of
    its steps, last step first."""
    (_, positions, _), tids, _, _ = tables.chains[cid]
    transitions = tables.transitions
    shapes = tables.shapes
    chosen = []
    s = state
    for i in range(len(tids) - 1, -1, -1):
        tid = tids[i]
        pick = picks.get((tid, s))
        if pick is None:
            pick = picks[tid, s] = _pick(transitions[tid], shapes, s)
        if positions[i] < 0:
            s = pick
        else:
            s, taken = pick
            if taken:
                chosen.append(positions[i])
    result = replays[cid, state] = (s, tuple(chosen))
    return result


def trace_entry(tables: DPTables, node: int, state: int) -> frozenset:
    """Packing realizing a finite entry of node ``node``'s table, rebuilt
    top-down from the tables compute_tables returned. Every choice is
    derived once per (transition, state) and every chain replayed once per
    (chain, state); the choices are deterministic (first candidate in
    canonical order)."""
    shapes = tables.shapes
    shape = shapes[tables.node_shape[node]]
    if not 0 <= state < len(shape):
        raise ValueError(f"state {state} at node {node} is outside range({len(shape)})")
    if shape[state] == -np.inf:
        raise ValueError(f"entry {state} at node {node} is infeasible")
    children = tables.children
    up_chain = tables.up_chain
    leaf_chain = tables.leaf_chain
    joins = tables.joins
    transitions = tables.transitions
    width = tables.vertices.shape[1]
    picks: dict[tuple[int, int], object] = {}
    replays: dict[tuple[int, int], tuple] = {}
    # chosen vertices as flat indices into tables.vertices
    chosen: list[int] = []
    stack = [(node, state)]
    while stack:
        t, s = stack.pop()
        # a node with one child hands its state down without the stack
        while True:
            kids = children[t]
            if not kids:
                cid = leaf_chain[t]
                _, positions = replays.get((cid, s)) or _replay(tables, cid, s, picks, replays)
                if positions:
                    chosen += [t * width + j for j in positions]
                break
            if len(kids) > 1:
                cascade = joins[t]
                for i in range(len(cascade) - 1, -1, -1):
                    tid = cascade[i]
                    pick = picks.get((tid, s))
                    if pick is None:
                        pick = picks[tid, s] = _pick(transitions[tid], shapes, s)
                    s, right = pick
                    c = kids[i + 1]
                    cid = up_chain[c]
                    right, positions = replays.get((cid, right)) or _replay(
                        tables, cid, right, picks, replays
                    )
                    if positions:
                        chosen += [t * width + j for j in positions]
                    stack.append((c, right))
            c = kids[0]
            cid = up_chain[c]
            s, positions = replays.get((cid, s)) or _replay(tables, cid, s, picks, replays)
            if positions:
                chosen += [t * width + j for j in positions]
            t = c
    return frozenset(tables.vertices.ravel()[chosen].tolist())


def solve(g: Graph, td: TreeDecomposition | None = None) -> SolveResult:
    """Maximum two-neighbour packing via the decomposition dynamic program.

    Without a decomposition one is built (exact for forests, min-fill
    otherwise). A caller-supplied decomposition is validated first. The
    returned witness is always re-checked against the packing definition.
    """
    # pausing the cyclic collector is safe (nothing here forms cycles) and
    # saves a sizeable fraction on instances with hundreds of thousands of
    # nodes
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if td is not None:
            check_decomposition(g, td)
        if g.n == 0:
            return SolveResult(0, frozenset(), 0)
        if td is None:
            try:
                td = decompose_tree(g)
            except ValueError:  # not a forest
                td = decompose_heuristic(g)
        tables = compute_tables(g, td)
        root = tables.root
        drain = tables.up_chain[root]
        _, _, sid, shift = tables.chains[drain]
        top = tables.shapes[sid]
        # state 0 of every shape holds 0, so the maximum is finite
        best = int(top.argmax())
        value = int(top[best]) + tables.offsets[root] + shift
        state = _replay(tables, drain, best, {}, {})[0]
        witness = trace_entry(tables, root, state)
        steps = tables.steps
    finally:
        # free the tables and the decomposition while the collector is
        # still off, so that its first sweep does not walk them
        tables = top = td = None
        if gc_was_enabled:
            gc.enable()
    if len(witness) != value or not is_two_neighbour_packing(g, witness):
        raise RuntimeError("dynamic program produced an invalid witness")
    return SolveResult(value, witness, steps)
