"""Dynamic program computing a maximum two-neighbour packing over a nice
tree decomposition.

Per bag vertex a state records whether the vertex is chosen and how many
chosen vertices its closed neighbourhood contains so far; the admissible
combinations are (out,0), (out,1), (out,2), (in,1), (in,2), encoded as digits
0..4 of a base-5 index over the sorted bag. A node's table is a dense list of
length 5**|bag| holding the best partial packing size per state, with -1 as
the infeasible sentinel (every feasible entry is >= 0, and all arithmetic is
guarded so the sentinel never mixes into sums).

Witnesses are reconstructed by one root-to-leaves trace that re-derives each
argmax from the stored tables, which is equivalent to storing back-pointers
but keeps the tables plain integer arrays.
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

NEG = -1  # infeasible; strictly below any packing size

_POW5 = tuple(5 ** i for i in range(28))

# transition programs are built with numpy digit arithmetic and cached by
# structural signature, not by node, so long chains (paths) reuse one
# program; the numpy join cache is a FIFO capped since its arrays are large
# (a 5-vertex bag's program holds tens of thousands of splits)
_forget_cache: dict = {}
_intro_cache: dict = {}
_join_py_cache: dict = {}
_join_np_cache: dict = {}
_JOIN_NP_CACHE_MAX = 32
# joins over tables of this many entries or more are evaluated with numpy:
# 5**4 = 625, so bags of 5+ vertices; smaller bags keep per-state split lists
_JOIN_NUMPY_MIN_SIZE = 626


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


def _forget_program(child_size: int, pos: int) -> list[int]:
    """Map from child state index to parent state index (digit at pos dropped)."""
    key = (child_size, pos)
    prog = _forget_cache.get(key)
    if prog is None:
        low = _POW5[pos]
        high = _POW5[pos + 1]
        prog = [(c // high) * low + c % low for c in range(_POW5[child_size])]
        _forget_cache[key] = prog
    return prog


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


def _join_py_program(size: int, adj_masks: tuple[int, ...]):
    """Per state: (|B|, list of (left state, right state) splits)."""
    key = (size, adj_masks)
    prog = _join_py_cache.get(key)
    if prog is None:
        idx1, idx2, starts, states, bcard = _build_join_program(size, adj_masks)
        prog = [(card, []) for card in bcard]
        pairs = list(zip(idx1.tolist(), idx2.tolist()))
        bounds = starts.tolist() + [len(pairs)]
        for i, s in enumerate(states.tolist()):
            prog[s] = (bcard[s], pairs[bounds[i] : bounds[i + 1]])
        _join_py_cache[key] = prog
    return prog


def _join_np_program(size: int, adj_masks: tuple[int, ...]):
    key = (size, adj_masks)
    prog = _join_np_cache.get(key)
    if prog is None:
        if len(_join_np_cache) >= _JOIN_NP_CACHE_MAX:
            _join_np_cache.pop(next(iter(_join_np_cache)))
        prog = _build_join_program(size, adj_masks)
        _join_np_cache[key] = prog
    return prog


def _join_pairs(size: int, adj_masks: tuple[int, ...], s: int):
    """|B| and the canonical (left state, right state) splits of state ``s``,
    read from the program the evaluator uses for this join."""
    if _POW5[size] < _JOIN_NUMPY_MIN_SIZE:
        return _join_py_program(size, adj_masks)[s]
    idx1, idx2, starts, states, bcard = _join_np_program(size, adj_masks)
    i = int(np.searchsorted(states, s))
    if i == len(states) or states[i] != s:
        return bcard[s], []
    hi = starts[i + 1] if i + 1 < len(starts) else len(idx1)
    lo = starts[i]
    return bcard[s], list(zip(idx1[lo:hi].tolist(), idx2[lo:hi].tolist()))


def _bag_position(bag, v) -> int:
    try:
        return bag.index(v)
    except ValueError:
        raise ValueError(f"vertex {v} not in bag {bag}") from None


def _nbr_mask(bag, v, nbrs) -> int:
    """Bit q set when the q-th vertex of ``bag`` other than ``v`` is in
    ``nbrs``: the neighbour mask of an introduce signature."""
    mask = 0
    q = 0
    for u in bag:
        if u != v:
            if u in nbrs:
                mask |= 1 << q
            q += 1
    return mask


def _intro_signature(ntd: NiceTreeDecomposition, t: int, g: Graph):
    bag = ntd.bags[t]
    v = ntd.payloads[t]
    return len(bag), _bag_position(bag, v), _nbr_mask(bag, v, g.adj[v])


def _join_adj_masks(ntd: NiceTreeDecomposition, t: int, g: Graph) -> tuple[int, ...]:
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


def dp_leaf(ntd: NiceTreeDecomposition, t: int) -> list[int]:
    """Leaf table: empty packing, or the bag vertex alone with count 1."""
    if ntd.kinds[t] != LEAF:
        raise ValueError(f"node {t} is not a leaf")
    return [0, NEG, NEG, 1, NEG]


def dp_forget(ntd: NiceTreeDecomposition, t: int, child_table: list[int]) -> list[int]:
    """Forget table: per state, the best child entry over the five extensions
    of the dropped vertex."""
    if ntd.kinds[t] != FORGET:
        raise ValueError(f"node {t} is not a forget node")
    child = ntd.children[t][0]
    child_bag = ntd.bags[child]
    prog = _forget_program(len(child_bag), _bag_position(child_bag, ntd.payloads[t]))
    new = [NEG] * _POW5[len(ntd.bags[t])]
    for c, val in enumerate(child_table):
        if val >= 0:
            s = prog[c]
            if val > new[s]:
                new[s] = val
    return new


def dp_introduce(ntd: NiceTreeDecomposition, t: int, child_table: list[int], g: Graph) -> list[int]:
    """Introduce table: states whose count at the new vertex disagrees with its
    chosen bag neighbours are infeasible; otherwise the child entry carries
    over, plus one when the new vertex is chosen (its chosen neighbours' child
    counts are then one lower)."""
    if ntd.kinds[t] != INTRODUCE:
        raise ValueError(f"node {t} is not an introduce node")
    size, pos, mask = _intro_signature(ntd, t, g)
    cidx, add = _intro_program(size, pos, mask)
    new = [NEG] * _POW5[size]
    for s in range(_POW5[size]):
        c = cidx[s]
        if c >= 0:
            val = child_table[c]
            if val >= 0:
                new[s] = val + add[s]
    return new


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
    bag = ntd.bags[t]
    size = len(bag)
    adj_masks = _join_adj_masks(ntd, t, g)
    table = _POW5[size]
    if table >= _JOIN_NUMPY_MIN_SIZE:
        idx1, idx2, starts, states, bcard = _join_np_program(size, adj_masks)
        left = np.asarray(left_table, dtype=np.int64)
        right = np.asarray(right_table, dtype=np.int64)
        a = left[idx1]
        b = right[idx2]
        sums = a + b
        sums[(a < 0) | (b < 0)] = -(1 << 40)
        best = np.maximum.reduceat(sums, starts) if len(sums) else np.empty(0, dtype=np.int64)
        new = [NEG] * table
        for s, val in zip(states.tolist(), best.tolist()):
            if val >= 0:
                new[s] = val - bcard[s]
        return new
    prog = _join_py_program(size, adj_masks)
    new = [NEG] * table
    for s in range(table):
        card, pairs = prog[s]
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


def compute_tables(g: Graph, ntd: NiceTreeDecomposition) -> list[list[int]]:
    """Evaluate the whole decomposition bottom-up; one table per node.

    Forget and introduce dominate long chains, so their transitions are
    inlined here; joins go through dp_join.
    """
    tables: list[list[int] | None] = [None] * ntd.node_count
    kinds = ntd.kinds
    bags = ntd.bags
    payloads = ntd.payloads
    children = ntd.children
    adj = g.adj
    pow5 = _POW5
    intro_cache = _intro_cache
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
            key = (len(bag), bag.index(v), mask)
            steps = (intro_cache.get(key) or _intro_entry(*key))[2]
            ct = tables[children[t][0]]
            new = [NEG] * pow5[len(bag)]
            for s, c, a in steps:
                val = ct[c]
                if val >= 0:
                    new[s] = val + a
            tables[t] = new
        elif kind == LEAF:
            tables[t] = [0, NEG, NEG, 1, NEG]
        else:
            left, right = children[t]
            tables[t] = dp_join(ntd, t, tables[left], tables[right], g)
    return tables  # type: ignore[return-value]


def trace_entry(
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
                pos = _bag_position(bags[child], payloads[t])
                low = _POW5[pos]
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
                cidx, add, _ = _intro_entry(
                    len(bag), _bag_position(bag, v), _nbr_mask(bag, v, adj[v])
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
            card, pairs = _join_pairs(len(bags[t]), _join_adj_masks(ntd, t, g), s)
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
        root_table = tables[ntd.root]
        value = max(root_table)
        if value < 0:
            raise RuntimeError("root table has no feasible entry")
        state = root_table.index(value)
        witness = trace_entry(g, ntd, tables, ntd.root, state)
        node_count = ntd.node_count
    finally:
        # free the tables and the decomposition while the collector is
        # still off, so that its first sweep does not walk them
        tables = root_table = ntd = base = None
        if gc_was_enabled:
            gc.enable()
    if len(witness) != value or not is_two_neighbour_packing(g, witness):
        raise RuntimeError("dynamic program produced an invalid witness")
    return SolveResult(value, witness, node_count)
