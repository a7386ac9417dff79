"""Simple undirected graphs with dense 0-based vertex ids, plus PACE-style .gr I/O.

Graphs are immutable after construction: every mutating operation returns a
new Graph. Adjacency lists are kept sorted so that neighbourhood queries and
file output are deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
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

        Built on first use and kept, so every whole-graph check on this graph
        shares one pair of arrays.
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

    def is_forest(self) -> bool:
        """True iff the graph is acyclic."""
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            count = 1
            edges_in_component = 0
            stack = [start]
            while stack:
                v = stack.pop()
                edges_in_component += len(self.adj[v])
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        count += 1
                        stack.append(u)
            if edges_in_component != 2 * (count - 1):
                return False
        return True

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    reached += 1
                    stack.append(u)
        return reached == self.n

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


class RootedTree:
    """A tree graph with a designated root, parent/children arrays and post-order.

    Raises ValueError, in this order, for an empty graph, a root out of
    range, and a graph that is not a tree. Tree-ness is decided by
    m == n - 1 and by the rooting BFS reaching all n vertices, so the
    constructor makes one traversal.
    """

    __slots__ = ("graph", "root", "parent", "children", "postorder")

    def __init__(self, graph: Graph, root: int = 0):
        if graph.n == 0:
            raise ValueError("cannot root an empty graph")
        if not 0 <= root < graph.n:
            raise ValueError(f"root {root} out of range for n={graph.n}")
        if graph.m != graph.n - 1:
            raise ValueError("input graph is not a tree")
        parent = [-1] * graph.n
        children: list[list[int]] = [[] for _ in range(graph.n)]
        order = []
        seen = [False] * graph.n
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in graph.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    children[v].append(u)
                    queue.append(u)
        # with m == n - 1 edges, reaching every vertex means connected and acyclic
        if len(order) != graph.n:
            raise ValueError("input graph is not a tree")
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        # children appear before parents when the BFS order is reversed
        self.postorder = tuple(reversed(order))

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self):
        return f"RootedTree(n={self.graph.n}, root={self.root})"


def read_graph(text: str) -> Graph:
    """Parse a PACE-style .gr file: 'p tw n m' header, 1-indexed edge lines.

    Checks, each raising ParseError: one well-formed header before any edge
    line, well-formed integer edge lines, vertex ids in 1..n, no self-loops,
    no duplicate edges, and an edge count equal to the header's. These are
    all the checks Graph's constructor makes, so the graph is built from the
    checked edges without repeating them; nothing of size n is allocated
    before the edge count has been checked.
    """
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(f"malformed header {line!r}, expected 'p tw n m'", lineno)
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", lineno) from None
            if n < 0 or m_declared < 0:
                raise ParseError("negative counts in header", lineno)
        else:
            if n is None:
                raise ParseError("edge line before header", lineno)
            if len(parts) != 2:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer edge line {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range in {line!r} (n={n})", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            seen.add(key)
            edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError("missing 'p tw n m' header")
    if len(edges) != m_declared:
        raise ParseError(f"header declares {m_declared} edges but {len(edges)} found")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph._trusted(n, tuple(tuple(sorted(a)) for a in adj), len(edges))


def write_graph(g: Graph) -> str:
    """Serialize to the .gr format; inverse of read_graph up to edge order."""
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
