"""Simple undirected graphs with dense 0-based vertex ids, plus PACE-style .gr I/O.

Graphs are immutable after construction: every mutating operation returns a
new Graph. Adjacency lists are kept sorted so that neighbourhood queries and
file output are deterministic.
"""

from __future__ import annotations

import gc
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError

VertexSet = frozenset  # membership over 0..n-1; len() is the cached cardinality


class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    # _arcs caches arcs(); it is derived from adj, so equality and hashing
    # ignore it
    __slots__ = ("n", "m", "adj", "_arcs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        self.n = n
        self.m = m
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._arcs = None

    @staticmethod
    def _trusted(n: int, adj: tuple[tuple[int, ...], ...], m: int) -> "Graph":
        # internal fast path: adjacency must already be sorted, symmetric,
        # loop-free and duplicate-free
        g = Graph.__new__(Graph)
        g.n = n
        g.m = m
        g.adj = adj
        g._arcs = None
        return g

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2m ordered adjacent pairs as read-only int64 arrays (src, dst),
        in adj order: src ascending, each vertex's neighbours sorted.

        Built on first use and kept (read_graph seeds them from its parse),
        so every whole-graph check on this graph shares one pair of arrays.
        """
        if self._arcs is None:
            degrees = np.fromiter(map(len, self.adj), np.int64, self.n)
            src = np.arange(self.n, dtype=np.int64).repeat(degrees)
            dst = np.fromiter(chain.from_iterable(self.adj), np.int64, 2 * self.m)
            src.setflags(write=False)
            dst.setflags(write=False)
            self._arcs = (src, dst)
        return self._arcs

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def neighbour_masks(self) -> list[int]:
        """Closed neighbourhoods as bitmasks; used by brute-force solvers."""
        masks = []
        for v in range(self.n):
            mask = 1 << v
            for u in self.adj[v]:
                mask |= 1 << u
            masks.append(mask)
        return masks

    def _bfs(self, starts: Iterable[int]) -> tuple[list[int], list[int]]:
        """Breadth-first search from each start not yet reached, in the given
        order. Returns (order, parent): the vertices in the order they were
        reached, and each vertex's parent, -1 at every search root and at
        every vertex no search reached. Neighbours are visited in adj order.
        """
        adj = self.adj
        parent = [-1] * self.n
        order: list[int] = []
        roots = []
        for s in starts:
            if parent[s] >= 0:
                continue
            parent[s] = s  # marks the root as reached until every search ends
            queue = [s]
            for v in queue:  # the queue grows as it is read
                for u in adj[v]:
                    if parent[u] < 0:
                        parent[u] = v
                        queue.append(u)
            order += queue
            roots.append(s)
        for s in roots:
            parent[s] = -1
        return order, parent

    def is_forest(self) -> bool:
        """True iff the graph is acyclic: a forest has n minus one edge per
        component, and each component has one search root."""
        return self.m == self.n - self._bfs(range(self.n))[1].count(-1)

    def is_connected(self) -> bool:
        return self.n == 0 or len(self._bfs((0,))[0]) == self.n

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def closed_neighbourhood(g: Graph, v: int) -> VertexSet:
    """N[v] = N(v) plus v itself."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return frozenset(g.adj[v]) | {v}


def induced_subgraph(g: Graph, w: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the vertex set w, relabelled to contiguous ids.

    Returns the subgraph and the old-id -> new-id map; new ids follow the
    sorted order of w.
    """
    members = sorted(set(w))
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    idmap = {old: new for new, old in enumerate(members)}
    edges = []
    for old in members:
        for u in g.adj[old]:
            if old < u and u in idmap:
                edges.append((idmap[old], idmap[u]))
    return Graph(len(members), edges), idmap


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the edge (u, v) removed; the edge must exist."""
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    key = (u, v) if u < v else (v, u)
    return Graph(g.n, [e for e in g.edges() if e != key])


def disjoint_union(graphs: Sequence[Graph]) -> tuple[Graph, list[int]]:
    """Disjoint union; returns the union and the id offset of each component."""
    offsets = []
    total = 0
    edges = []
    for g in graphs:
        offsets.append(total)
        edges.extend((total + u, total + v) for u, v in g.edges())
        total += g.n
    return Graph(total, edges), offsets


def _children_of(parent: np.ndarray):
    """The children of a rooted forest given by an int64 parent array, with
    -1 at every root and at every node left out: ``(kids, par, children)``.

    ``kids`` and ``par`` are the parent-to-child arcs as int64 arrays,
    grouped by parent in increasing order and in id order within a parent:
    one sort of the distinct keys parent * n + id. ``children`` yields each
    node's children as a tuple, built from the arcs as it is read. A
    breadth-first search reaches a node's children in ``adj`` order, which
    is increasing, so this is the order of the search's own parent array.
    """
    n = len(parent)
    keys = parent * n + np.arange(n)
    keys.sort()
    par, kids = np.divmod(keys, n)
    # node p's children are kids[bounds[p]:bounds[p + 1]]; the roots come first
    bounds = par.searchsorted(np.arange(n + 1)).tolist()
    flat = tuple(kids.tolist())
    first = bounds[0]
    return kids[first:], par[first:], map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:]))


class RootedTree:
    """A tree graph with a designated root, a parent array and a post-order.

    Raises ValueError, in this order, for an empty graph, a root out of
    range, and a graph that is not a tree. Tree-ness is decided by
    m == n - 1 and by the rooting BFS reaching all n vertices, so the
    constructor makes one traversal. ``children`` and ``child_arcs()`` are
    derived from the parent array on first use and kept.
    """

    __slots__ = ("graph", "root", "parent", "postorder", "_children", "_child_arcs")

    def __init__(self, graph: Graph, root: int = 0):
        if graph.n == 0:
            raise ValueError("cannot root an empty graph")
        if not 0 <= root < graph.n:
            raise ValueError(f"root {root} out of range for n={graph.n}")
        if graph.m != graph.n - 1:
            raise ValueError("input graph is not a tree")
        order, parent = graph._bfs((root,))
        # with m == n - 1 edges, reaching every vertex means connected and acyclic
        if len(order) != graph.n:
            raise ValueError("input graph is not a tree")
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        # children appear before parents when the BFS order is reversed
        self.postorder = tuple(reversed(order))
        self._children = None
        self._child_arcs = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's children in increasing order."""
        if self._children is None:
            parent = np.fromiter(self.parent, np.int64, self.graph.n)
            self._children = tuple(_children_of(parent)[2])
        return self._children

    def child_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every non-root vertex and its parent as read-only int64 arrays
        (child, parent), grouped by parent in increasing order and in child
        order within a parent. Built on first use and kept."""
        if self._child_arcs is None:
            parent = np.fromiter(self.parent, np.int64, self.graph.n)
            kids, par, _ = _children_of(parent)
            kids.setflags(write=False)
            par.setflags(write=False)
            self._child_arcs = (kids, par)
        return self._child_arcs

    def __repr__(self):
        return f"RootedTree(n={self.graph.n}, root={self.root})"


# byte classes of the bulk .gr parse; a byte of class _OTHER makes its line
# irregular
_DIGIT, _BLANK, _BREAK, _OTHER = 0, 1, 2, 3
_BYTE_CODE = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CODE[list(b"0123456789")] = _DIGIT
_BYTE_CODE[list(b" \t")] = _BLANK
_BYTE_CODE[ord("\n")] = _BREAK
# a longer run of digits could overflow int64, so its line goes through int()
_MAX_DIGITS = 18
_ID_LIMIT = 10**_MAX_DIGITS  # above every id of a regular line
# the largest vertex count whose arc keys (see read_graph) fit int64; its
# adjacency alone would take over 24 GB
_MAX_N = 3 * 10**9


def read_graph(text: str) -> Graph:
    """Parse a PACE-style .gr file: 'p tw n m' header, 1-indexed edge lines.

    Checks, each raising ParseError: one well-formed header before any edge
    line, well-formed integer edge lines, vertex ids in 1..n, no self-loops,
    no duplicate edges, and an edge count equal to the header's. The error
    raised is the one for the lowest offending line. These are all the
    checks Graph's constructor makes, so the graph is built from the checked
    edges without repeating them; nothing of size n is allocated before the
    edge count has been checked, and a vertex count too large to index
    raises MemoryError after that.

    The parse works in bulk. Lines are those of str.splitlines(). A regular
    line, two runs of at most 18 ASCII digits with spaces or tabs around
    them, is found and converted by numpy over the joined text; only the
    other lines (the header, comments, blank lines, and anything else that
    int() or str.split() read differently) are examined one at a time. One
    sort of the 2m arc keys orders the adjacency and shows whether any edge
    repeats; the sorted arcs seed arcs(). Once every check has passed, the
    text, its lines and the parse's arrays are released before the
    adjacency tuples are built, so they do not add to the peak.
    """
    lines = text.splitlines()
    regular, index, ids = _regular_edges(lines)

    n = None
    m_declared = 0
    header = None  # line index of the header
    error = None  # the first ParseError among the irregular lines
    extra = []  # (line index, u, v) of the irregular edge lines
    outsized = 0  # irregular edge lines with an id of more than 18 digits
    seen = set()  # keys of the irregular edge lines
    for i in (~regular).nonzero()[0].tolist():
        lineno = i + 1
        line = lines[i].strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                error = ParseError("duplicate header", lineno)
                break
            if len(parts) != 4 or parts[1] != "tw":
                error = ParseError(f"malformed header {line!r}, expected 'p tw n m'", lineno)
                break
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                error = ParseError(f"non-integer header fields in {line!r}", lineno)
                break
            if n < 0 or m_declared < 0:
                error = ParseError("negative counts in header", lineno)
                break
            header = i
            continue
        if n is None:
            error = ParseError("edge line before header", lineno)
            break
        if len(parts) != 2:
            error = ParseError(f"malformed edge line {line!r}", lineno)
            break
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            error = ParseError(f"non-integer edge line {line!r}", lineno)
            break
        if not (1 <= u <= n and 1 <= v <= n):
            error = ParseError(f"vertex id out of range in {line!r} (n={n})", lineno)
            break
        if u == v:
            error = ParseError(f"self-loop at vertex {u}", lineno)
            break
        key = (u, v) if u < v else (v, u)
        if key in seen:
            error = ParseError(f"duplicate edge ({u}, {v})", lineno)
            break
        seen.add(key)
        if max(u, v) < _ID_LIMIT:
            extra.append((i, u, v))
        else:
            # repeats no regular line; n > _MAX_N fails at the build below
            outsized += 1

    limit = len(lines) if header is None else header
    if error is not None:
        limit = min(limit, error.line - 1)
    if len(index) and index[0] < limit:
        raise ParseError("edge line before header", int(index[0]) + 1)
    if header is None:
        raise error or ParseError("missing 'p tw n m' header")
    if extra:  # into line order; each passed every check but repeats
        rows = np.array(extra, dtype=np.int64)
        at = index.searchsorted(rows[:, 0])
        index = np.insert(index, at, rows[:, 0])
        ids = np.insert(ids, at, rows[:, 1:], axis=0)
    # both arcs of every edge as sorted keys u * base + v of the ids clipped
    # to 0..base: all in base + 1..base**2 - 1 when every id is in 1..n, and
    # repeated for a self-loop or a repeated edge. Ids above _MAX_N (when
    # n is) fail this test too, so _edge_error has the last word.
    base = min(n, _MAX_N) + 1
    clipped = np.minimum(ids, base)
    keys = (clipped * base + clipped[:, ::-1]).ravel()
    keys.sort()
    if (
        len(keys) and (keys[0] <= base or keys[-1] >= base * base)
        or (keys[1:] == keys[:-1]).any()
    ):
        bad = _edge_error(lines, index, ids, n)
        if bad is not None and (error is None or bad.line < error.line):
            error = bad
    if error is not None:
        raise error
    m = len(ids) + outsized
    if m != m_declared:
        raise ParseError(f"header declares {m_declared} edges but {m} found")
    if n > _MAX_N:
        raise MemoryError(f"{n} vertices cannot be indexed")
    # every check has passed: the line buffers go before the adjacency is
    # built, which holds one int object per arc
    del text, lines, regular, index, ids, clipped, extra, seen
    keys -= base + 1
    src, dst = np.divmod(keys, base)  # 0-based, in adj order
    del keys
    ends = np.bincount(src, minlength=n).cumsum().tolist()
    flat = tuple(dst.tolist())
    # n tuples of ints form no cycles; the cyclic collector is paused while
    # they are made, as it would otherwise sweep them again and again
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        adj = tuple(map(flat.__getitem__, map(slice, [0, *ends[:-1]], ends)))
    finally:
        if gc_was_enabled:
            gc.enable()
    g = Graph._trusted(n, adj, m)
    src.setflags(write=False)
    dst.setflags(write=False)
    g._arcs = (src, dst)
    return g


def _regular_edges(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find and convert the regular lines: blanks (space, tab) around two
    runs of at most 18 ASCII digits. Returns the mask of regular lines, the
    index of each regular line, and its two ids as one row of an int64
    array."""
    # a break before the first line and after the last ends every run
    data = np.frombuffer(
        "\n".join(["", *lines, ""]).encode("utf-8", "surrogatepass"), np.uint8
    )
    code = _BYTE_CODE.take(data)
    line_ends = (code == _BREAK).nonzero()[0][1:]  # line i ends there
    digit = code == _DIGIT
    # each run of digits as the offset before it and the offset of its last digit
    changes = (digit[1:] != digit[:-1]).nonzero()[0]
    last = changes[1::2]
    run_line = line_ends.searchsorted(last)
    regular = np.bincount(run_line, minlength=len(lines)) == 2
    regular[line_ends.searchsorted((code == _OTHER).nonzero()[0])] = False
    width = last - changes[0::2]
    if len(width) and width.max() > _MAX_DIGITS:
        regular[run_line[width > _MAX_DIGITS]] = False
    index = regular.nonzero()[0]
    text = " ".join(compress(lines, regular.tolist()))
    ids = np.fromstring(text, dtype=np.int64, sep=" ").reshape(len(index), 2)
    return regular, index, ids


def _edge_error(lines: list[str], index: np.ndarray, ids: np.ndarray, n: int):
    """The ParseError of the first bad edge line, or None: an id out of
    range, a self-loop, or a repeat of an earlier line's edge, checked in
    that order on each line. ``ids`` holds the edges in line order and
    ``index`` their line indices."""
    u, v = ids[:, 0], ids[:, 1]
    top = min(n, _ID_LIMIT)
    bad = ((u < 1) | (u > top) | (v < 1) | (v > top) | (u == v)).nonzero()[0]
    first_bad = int(bad[0]) if len(bad) else len(ids)
    # a stable sort keeps the copies of an arc in line order, so the later
    # copy of each adjacent pair is a repeat
    src, dst = ids.ravel(), ids[:, ::-1].ravel()
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    repeats = order[1:][(src[1:] == src[:-1]) & (dst[1:] == dst[:-1])]
    first_repeat = int(repeats.min()) // 2 if len(repeats) else len(ids)
    k = min(first_bad, first_repeat)
    if k == len(ids):
        return None
    i = int(index[k])
    a, b = ids[k].tolist()
    if k == first_bad and (1 <= a <= n and 1 <= b <= n):
        return ParseError(f"self-loop at vertex {a}", i + 1)
    if k == first_bad:
        line = lines[i].strip()
        return ParseError(f"vertex id out of range in {line!r} (n={n})", i + 1)
    return ParseError(f"duplicate edge ({a}, {b})", i + 1)


def write_graph(g: Graph) -> str:
    """Serialize to the .gr format; inverse of read_graph up to edge order."""
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
