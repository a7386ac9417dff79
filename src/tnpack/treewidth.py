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
adjacency) and by its child shape. The signatures of every edge come from
one numpy pass as rows of fields in the smallest unsigned dtype that holds
2**width (uint8 up to 7-vertex bags), each kept as its row's bytes. A
forest needs no decomposition step: solve evaluates root_forest's rooting
of it, one bag per vertex in breadth-first search order holding the vertex
and its search parent, so a 100k-vertex random tree has 100,000 bags but
only a few hundred distinct chains. Any other decomposition is rooted by
root_decomposition and its bags sorted into the same padded array.

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

An introduce rule reads a program cached per signature: one gather of
child states plus one add, -inf where the parent state is infeasible. The
join reads only the finite entries of its two child shapes. A left and a
right state with the same chosen set B split a parent state exactly when
every position's parent count, the sum of the side counts minus the ones
both sides see, is in range; the parent index is then linear in the two
child indices. The rule keeps the best pair per parent state and records
it, the first optimal split in canonical order (left digits, position 0
most significant), so its work grows with the finite child entries, not
with 9**|bag| splits, and it holds nothing across solves.

Witnesses are reconstructed by one root-to-leaves trace. Its choices (the
child state of an introduce, the lowest forget digit, the join split its
rule recorded) do not depend on offsets, so each is derived once per
(transition, state), and each chain is replayed once per (chain, state),
last step first.
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
    decompose_tree,  # noqa: F401  (perfbench/spans.py traces it here; solve does not call it)
    make_nice,  # noqa: F401  (perfbench/spans.py traces it here; solve does not call it)
    root_decomposition,
    root_forest,
)
from .graph import Graph
from .oracles import SolveResult, is_two_neighbour_packing

NEG = -1  # infeasible entry of a materialized table

_POW5 = tuple(5 ** i for i in range(28))

# introduce programs and the join's field tables are built with numpy digit
# arithmetic and cached by structural signature across solves, without
# bound: an introduce program is two arrays over the bag's states, a join
# field table one small array per state or per chosen set. The join itself
# keeps nothing across solves; its work grows with the finite child
# entries it reads.


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


def _state_dtype(size: int):
    """Signed dtype of the state indices of a bag of ``size`` vertices: 16
    bits while every state fits (bags of up to 6 vertices), 32 above."""
    return np.int16 if _POW5[size] <= 1 << 15 else np.int32


@cache
def _join_fields(size: int):
    """Per bag size, the fields of every state the join reads: ``(mask,
    card, counts, rank)``.

    ``mask`` is the chosen set B as a bit mask, ``card`` is |B|, column q of
    ``counts`` is position q's count (0-2), and ``rank`` is the state's
    place in canonical split order, its digits reversed so that position 0
    is the most significant. Built one digit column at a time, in compact
    dtypes."""
    states = _POW5[size]
    dtype = _state_dtype(size)
    mask = np.zeros(states, dtype=np.min_scalar_type((1 << size) - 1))
    card = np.zeros(states, dtype=np.int8)
    counts = np.empty((states, size), dtype=np.int8)
    rank = np.zeros(states, dtype=dtype)
    for q in range(size):
        digit = np.tile(np.repeat(np.arange(5, dtype=np.int8), _POW5[q]), _POW5[size - 1 - q])
        chosen = digit >= 3
        mask |= chosen.astype(mask.dtype) << q
        card += chosen
        counts[:, q] = digit - 2 * chosen
        rank += digit.astype(dtype) * dtype(_POW5[size - 1 - q])
    return mask, card, counts, rank


@cache
def _join_bounds(adj_masks: tuple[int, ...]):
    """Per chosen set B of a join signature: ``(lower, upper, shift)``.

    A vertex at position q with floor lo (1 if chosen, else 0) and k chosen
    bag neighbours has parent count f1 + f2 - lo - k from side counts f1
    and f2: both sides see the vertex itself if chosen and its k chosen
    neighbours. That count lies in [lo, 2] exactly when f1 + f2 lies in
    [lower, upper] = [2 lo + k, 2 + lo + k]. The parent digit is then
    d1 + d2 - 3 lo - k, so the parent state is s1 + s2 - shift[B]."""
    size = len(adj_masks)
    bits = 1 << np.arange(size)
    chosen = (np.arange(1 << size)[:, None] & bits) > 0
    adjacent = (np.asarray(adj_masks, dtype=np.int64)[:, None] & bits) > 0
    k = chosen.astype(np.int8) @ adjacent.T.astype(np.int8)
    lo = chosen.astype(np.int8)
    shift = (3 * lo + k).astype(np.int64) @ np.asarray(_POW5[:size], dtype=np.int64)
    return 2 * lo + k, 2 + lo + k, shift


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


def _join_rule(lt: np.ndarray, rt: np.ndarray, size: int, adj_masks: tuple[int, ...]):
    """Join: per state, the best sum of child entries over all count splits,
    minus the double-counted |B|, and the split that attains it first in
    canonical order: ``(table, picks)``, with the left and right child
    states of each feasible state in the two rows of ``picks`` (-1 where
    the state is infeasible).

    Only finite child entries are read: a left and a right state with the
    same chosen set form a split of one parent state exactly when every
    position's parent count is in range (see _join_bounds)."""
    mask, card, counts, rank = _join_fields(size)
    lower, upper, shift = _join_bounds(adj_masks)
    s1 = np.flatnonzero(lt != -np.inf)
    s2 = np.flatnonzero(rt != -np.inf)
    i1, i2 = np.nonzero(mask[s1][:, None] == mask[s2])
    s1 = s1[i1]
    s2 = s2[i2]
    b = mask[s1]
    total = counts[s1] + counts[s2]
    keep = ((lower[b] <= total) & (total <= upper[b])).all(axis=1)
    s1 = s1[keep]
    s2 = s2[keep]
    parent = s1 + s2 - shift[b[keep]]
    value = lt[s1] + rt[s2]
    # per parent state the best value first, ties in canonical order;
    # state 0 always has the split (0, 0), so no table is empty
    order = np.lexsort((rank[s1], -value, parent))
    ordered = parent[order]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    first = order[head]
    states = parent[first]
    new = np.full(_POW5[size], -np.inf)
    new[states] = value[first] - card[states]
    picks = np.full((2, _POW5[size]), -1, dtype=_state_dtype(size))
    picks[0, states] = s1[first]
    picks[1, states] = s2[first]
    return new, picks


def _transition(key: tuple, shapes: list, shape_ids: dict) -> tuple:
    """Evaluate one transition on its child shapes: ``(key, shape id,
    shift)`` for a forget or introduce, where the node's table is its shape
    plus the children's offsets plus ``shift``, and ``(key, shape id,
    picks)`` for a join, which never shifts and records the trace's split
    of every feasible state (see _join_rule)."""
    kind = key[0]
    # the forget's shift or the join's picks
    extra = 0
    if kind == FORGET:
        _, pos, child = key
        out = _forget_rule(shapes[child], pos)
        extra = int(out[0])
        if extra:
            out -= extra
    elif kind == INTRODUCE:
        _, size, pos, mask, child = key
        out = _introduce_rule(shapes[child], size, pos, mask)
    else:
        _, adj_masks, left, right = key
        out, extra = _join_rule(shapes[left], shapes[right], len(adj_masks), adj_masks)
    # setdefault hashes the bytes once, found or not
    sid = shape_ids.setdefault(out.tobytes(), len(shapes))
    if sid == len(shapes):
        shapes.append(out)
    return key, sid, extra


class DPTables:
    """What compute_tables returns.

    Per node of the rooted decomposition: a shape id and an offset, the
    chain that carries its table to its parent's bag (the root's chain
    drains the root bag to its lowest vertex, and is empty when that bag
    has at most one vertex), the chain that introduces a childless node's
    vertices into the empty table (shape 0), and the join that merges its
    side into its parent's earlier sides (-1 for a first child and for the
    root): a node with several children joins them in child order.
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
def _chain_template(sig: bytes, itemsize: int) -> tuple:
    """The forget/introduce steps that turn a child bag into its parent's:
    ``(prefixes, positions, parent adjacency masks)``.

    ``sig`` holds unsigned fields of ``itemsize`` bytes each (child size,
    child-in-parent mask, parent-in-child mask, parent size, parent
    adjacency masks padded with zeros); the same fields at another item
    size are another key with the same steps. The child's vertices that
    leave are forgotten first, lowest first, then the parent's new vertices
    are introduced, lowest first. Each prefix is a transition key without
    its child shape id; ``positions`` holds the parent position of each
    introduced vertex and -1 for a forget."""
    size, kept, present, parent_size, *adj_masks = np.frombuffer(sig, f"u{itemsize}").tolist()
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
    """Per bag width: the positions; the weights that turn a (width x width)
    table of equal child and parent positions into the child-in-parent and
    parent-in-child masks; the position pairs i < j as two index arrays,
    with the matrix that turns a row of adjacent pairs into the positions'
    adjacency masks; the dtype of a signature field, the smallest unsigned
    one that holds 2**width (uint8 up to 7-vertex bags); and the dtype of
    one signature row as a single bytes value."""
    positions = np.arange(width, dtype=np.int64)
    bits = 1 << positions
    # a vertex sits at one position of each bag, so summing weights over the
    # equal pairs sets one bit per shared vertex
    weights = np.stack((np.repeat(bits, width), np.tile(bits, width)), axis=1)
    first, second = np.triu_indices(width, 1)
    pairs = np.arange(len(first))
    pair_bits = np.zeros((len(first), width), dtype=np.int64)
    pair_bits[pairs, first] = bits[second]
    pair_bits[pairs, second] = bits[first]
    field = np.min_scalar_type(1 << width)
    row = np.dtype((np.void, field.itemsize * (4 + width)))
    return positions, weights, first, second, pair_bits, field, row


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


def _signatures(g: Graph, vertices: np.ndarray, sizes: np.ndarray, parent) -> tuple:
    """Every chain signature of a rooted decomposition in one numpy pass.

    A node's edge signature describes the chain from its bag to its
    parent's; its leaf signature describes the chain that introduces its
    vertices into the empty table, as an edge from an empty bag. The bags
    come as one (nodes x width) array, each row sorted and padded with n,
    and bag adjacency comes from one searchsorted over the graph's edge
    keys. A signature is one row of unsigned fields of the smallest item
    size that holds the bag masks (see _chain_template), keyed by its
    bytes, so that 100,000 nodes of a tree hold 100,000 short keys. Returns
    each node's edge and leaf signature and the item size.
    """
    count, width = vertices.shape
    n = g.n
    positions, weights, first, second, pair_bits, field, row = _positions(width)
    valid = positions < sizes[:, None]
    keys = _edge_keys(g)
    # the keys of every pair of bag positions i < j; padding matches none
    pair_keys = vertices[:, first] * (n + 1) + vertices[:, second]
    adjacent = keys[keys.searchsorted(pair_keys)] == pair_keys
    # rows[0] holds the edge signatures, rows[1] the leaf signatures
    rows = np.empty((2, count, 4 + width), dtype=field)
    rows[1, :, :3] = 0
    rows[1, :, 3] = sizes
    rows[1, :, 4:] = adjacent @ pair_bits
    # parent -1 (the root, a pruned node) reads the last bag: an edge
    # signature the evaluator never looks up
    ups = np.asarray(parent, dtype=np.int64)
    same = vertices[:, :, None] == vertices[ups][:, None, :]
    same &= valid[:, :, None]
    rows[0, :, 0] = sizes
    rows[0, :, 1:3] = same.reshape(count, -1) @ weights
    rows[0, :, 3:] = rows[1, ups, 3:]
    # free the working arrays first: the per-node keys are this pass's peak
    del valid, keys, pair_keys, adjacent, ups, same
    sig_keys = rows.view(row).ravel().tolist()
    return sig_keys[:count], sig_keys[count:], field.itemsize


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

    The decomposition is rooted by root_decomposition, its bags are sorted
    into one array padded with n, and _evaluate runs the transitions of
    make_nice's nice form on them, without building it.
    """
    root, parent, children, order = root_decomposition(td)
    bags = td.bags
    count = len(bags)
    sizes = np.fromiter(map(len, bags), np.int64, count)
    width = int(np.maximum.reduce(sizes))
    vertices = np.empty((count, width), dtype=np.int64)
    vertices.fill(g.n)
    valid = np.arange(width) < sizes[:, None]
    vertices[valid] = np.fromiter(chain.from_iterable(bags), np.int64)
    vertices.sort(axis=1)
    return _evaluate(g, root, parent, children, order, vertices, sizes)


def _evaluate(g: Graph, root: int, parent, children, order, vertices, sizes) -> DPTables:
    """The one evaluator: a rooted decomposition (as root_decomposition or
    root_forest returns it) and its bags as sorted rows padded with n,
    evaluated bottom-up over ``order``.

    Each bag-to-bag edge is one chain, evaluated once per (signature, child
    shape); a childless bag introduces its vertices into the empty table,
    the sides of a bag with several children are joined in child order, and
    the root is drained to its lowest vertex.
    """
    up_sig, leaf_sig, itemsize = _signatures(g, vertices, sizes, parent)
    count = len(parent)
    node_shape = [0] * count
    offsets = [0] * count
    up_chain = [-1] * count
    leaf_chain = [-1] * count
    joins = [-1] * count
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
                template = _chain_template(key[0], itemsize)
                chains.append(_run_chain(template, 0, transitions, transition_ids, shapes, shape_ids))
            leaf_chain[t] = cid
            _, tids, node_shape[t], offsets[t] = chains[cid]
            steps += len(tids)
            continue
        sid = -1
        for c in kids:
            key = (up_sig[c], node_shape[c])
            cid = chain_ids.get(key)
            if cid is None:
                cid = chain_ids[key] = len(chains)
                template = _chain_template(key[0], itemsize)
                chains.append(
                    _run_chain(template, key[1], transitions, transition_ids, shapes, shape_ids)
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
            joins[c] = tid
            sid = transitions[tid][1]
            offset += offsets[c] + shift
            steps += 1
        node_shape[t] = sid
        offsets[t] = offset
    # forget all but the lowest vertex: no step for a root of at most one
    size = int(sizes[root])
    one = min(size, 1)
    sig = np.array([size, one, one, one, 0], f"u{itemsize}").tobytes()
    drain = _chain_template(sig, itemsize)
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
    join, the (left, right) split its rule recorded, the first in canonical
    order that attains the entry."""
    key, sid, extra = record
    kind = key[0]
    if kind == JOIN:
        left, right = extra[:, s].tolist()
        if left < 0:
            raise RuntimeError("inconsistent join table")
        return left, right
    if kind == INTRODUCE:
        _, size, pos, mask, _ = key
        gather, add = _intro_entry(size, pos, mask)
        if add[s] == -np.inf:
            raise RuntimeError("inconsistent introduce table")
        return int(gather[s]), add[s] > 0
    _, pos, child = key
    low = _POW5[pos]
    base = (s // low) * (5 * low) + s % low
    entries = shapes[child][base : base + 5 * low : low].tolist()
    try:
        return base + entries.index(shapes[sid][s] + extra) * low
    except ValueError:
        raise RuntimeError("inconsistent forget table") from None


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
    if not 0 <= node < len(tables):
        raise ValueError(f"node {node} is outside range({len(tables)})")
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
                for i in range(len(kids) - 1, 0, -1):
                    c = kids[i]
                    tid = joins[c]
                    pick = picks.get((tid, s))
                    if pick is None:
                        pick = picks[tid, s] = _pick(transitions[tid], shapes, s)
                    s, right = pick
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
    # drop the flat indices before the set is built, the trace's peak
    packing = tables.vertices.ravel()[chosen]
    chosen = None
    return frozenset(packing.tolist())


def solve(g: Graph, td: TreeDecomposition | None = None) -> SolveResult:
    """Maximum two-neighbour packing via the decomposition dynamic program.

    Without a decomposition a forest is evaluated on root_forest's rooting
    of itself, and any other graph on its min-fill decomposition. A
    caller-supplied decomposition is validated first. The returned witness
    is always re-checked against the packing definition.
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
        if td is not None:
            tables = compute_tables(g, td)
        else:
            try:
                rooting = root_forest(g)
            except ValueError:  # not a forest
                tables = compute_tables(g, decompose_heuristic(g))
            else:
                tables = _evaluate(g, *rooting)
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
        tables = top = td = rooting = None
        if gc_was_enabled:
            gc.enable()
    if len(witness) != value or not is_two_neighbour_packing(g, witness):
        raise RuntimeError("dynamic program produced an invalid witness")
    return SolveResult(value, witness, steps)
