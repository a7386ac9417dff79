"""Tree decompositions: construction, validation, normalization, PACE .td I/O.

Two constructions are provided: an exact width-<=1 decomposition for forests,
one bag per vertex from one breadth-first search (``root_forest`` returns it
rooted, as the dynamic program reads it; ``decompose_tree`` returns it as a
TreeDecomposition), and a min-fill elimination heuristic for general graphs
(an upper bound on the tree-width, not necessarily optimal). ``make_nice``
rewrites any valid decomposition into the leaf/introduce/forget/join normal
form; it is a standalone utility, since the dynamic program evaluates those
transitions on the plain decomposition without building it. Every rooting
here comes from Graph's one breadth-first search, and each node's children
from its parent array.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, PreconditionError
from .graph import Graph, _children_of

LEAF = 0
INTRODUCE = 1
FORGET = 2
JOIN = 3

KIND_NAMES = ("leaf", "introduce", "forget", "join")


@dataclass(frozen=True)
class TdViolation:
    """A failed decomposition condition: 1 coverage, 2 edges, 3 connectivity."""

    condition: int
    offender: tuple

    def __str__(self):
        what = {1: "uncovered vertex", 2: "uncovered edge", 3: "disconnected occurrence of vertex"}
        return f"condition ({self.condition}): {what[self.condition]} {self.offender}"


class TreeDecomposition:
    """A tree of bags over a graph on n vertices."""

    __slots__ = ("n", "tree", "bags")

    def __init__(self, n: int, tree: Graph, bags):
        bags = tuple(frozenset(b) for b in bags)
        if tree.n != len(bags) or tree.n == 0:
            raise ValueError("need one bag per tree node and at least one node")
        if tree.m != tree.n - 1 or not tree.is_connected():
            raise ValueError("decomposition tree is not a tree")
        for i, bag in enumerate(bags):
            for v in bag:
                if not 0 <= v < n:
                    raise ValueError(f"bag {i} contains vertex {v}, out of range for n={n}")
        self.n = n
        self.tree = tree
        self.bags = bags

    @staticmethod
    def _trusted(n: int, tree: Graph, bags) -> "TreeDecomposition":
        # internal fast path for decompositions built here: the tree must be a
        # tree with one node per bag and every bag vertex in range(n)
        td = TreeDecomposition.__new__(TreeDecomposition)
        td.n = n
        td.tree = tree
        td.bags = tuple(map(frozenset, bags))
        return td

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def __repr__(self):
        return f"TreeDecomposition(n={self.n}, nodes={self.tree.n}, width={self.width})"


def validate(g: Graph, td: TreeDecomposition) -> list[TdViolation]:
    """Check the three decomposition conditions; empty list means valid."""
    violations = []
    nodes_of: list[list[int]] = [[] for _ in range(g.n)]
    for t, bag in enumerate(td.bags):
        for v in bag:
            nodes_of[v].append(t)
    for v in range(g.n):
        if not nodes_of[v]:
            violations.append(TdViolation(1, (v,)))
    for u, v in g.edges():
        small, other = (u, v) if len(nodes_of[u]) <= len(nodes_of[v]) else (v, u)
        if not any(other in td.bags[t] for t in nodes_of[small]):
            violations.append(TdViolation(2, (u, v)))
    # the bags holding v form a forest in the bag tree, which is one piece
    # iff it has one more bag than tree edges whose two bags both hold v
    pieces = list(map(len, nodes_of))
    for s, t in td.tree.edges():
        for v in td.bags[s] & td.bags[t]:
            pieces[v] -= 1
    violations += [TdViolation(3, (v,)) for v in range(g.n) if pieces[v] > 1]
    return violations


def root_forest(g: Graph):
    """A forest's own width-<=1 decomposition, rooted, from one breadth-first
    search: ``(root, parent, children, order, vertices, sizes)``, the
    rooting of root_decomposition plus the bags as the dynamic program
    reads them.

    The search starts at the lowest-numbered vertex of maximum degree and
    then at every vertex in id order, so it reaches every component. Node k
    is the k-th vertex reached; its bag is that vertex and its search
    parent, or the vertex alone at a search root. The bag tree is the search
    forest with every other component's root hung below node 0, the root.
    ``parent`` is an int64 array (-1 at the root), each node's children are
    the later nodes whose parent it is, in node order, ``order`` runs from
    node n - 1 down to node 0, and ``vertices`` holds the bags as the sorted
    rows of an (n x 2) int64 array padded with n, ``sizes`` their sizes.
    Node 0 has the most neighbours in the bag tree and is the lowest such
    node, so root_decomposition roots decompose_tree's result the same way.
    Raises ValueError unless g is a forest: one with n minus one edge per
    search root.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no tree decomposition")
    if g.m >= n:  # more edges than a forest on n vertices can have
        raise ValueError("input graph contains a cycle")
    degrees = list(map(len, g.adj))
    reached, up = g._bfs(chain((degrees.index(max(degrees)),), range(n)))
    if g.m != n - up.count(-1):
        raise ValueError("input graph contains a cycle")
    vertex = np.array(reached, dtype=np.int64)
    above = np.array(up, dtype=np.int64)[vertex]
    is_root = above < 0
    node = np.empty(n, dtype=np.int64)
    node[vertex] = np.arange(n)
    parent = node[above]
    parent[is_root] = 0  # every other search root hangs below node 0
    parent[0] = -1
    other = np.where(is_root, n, above)
    vertices = np.empty((n, 2), dtype=np.int64)
    np.minimum(vertex, other, out=vertices[:, 0])
    np.maximum(vertex, other, out=vertices[:, 1])
    children = list(_children_of(parent)[2])
    return 0, parent, children, range(n - 1, -1, -1), vertices, 2 - is_root


def decompose_tree(g: Graph) -> TreeDecomposition:
    """Exact decomposition of a forest: the bags and bag tree of
    root_forest, one bag per vertex in breadth-first search order from the
    lowest-numbered vertex of maximum degree. Width is 1, or 0 for an
    edgeless graph. Raises ValueError unless g is a forest."""
    _, parent, children, _, vertices, sizes = root_forest(g)
    adj = tuple(
        (p, *kids) if p >= 0 else kids for p, kids in zip(parent.tolist(), children)
    )
    bags = [row[:size] for row, size in zip(vertices.tolist(), sizes.tolist())]
    return TreeDecomposition._trusted(g.n, Graph._trusted(g.n, adj, g.n - 1), bags)


def decompose_heuristic(g: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering; ties broken by degree, then vertex id.

    Always valid; the width is an upper bound on the tree-width. Output is
    deterministic for a given graph.
    """
    if g.n == 0:
        raise ValueError("empty graph has no tree decomposition")
    n = g.n
    nbr = [set(g.adj[v]) for v in range(n)]
    mask = [0] * n
    for v in range(n):
        for u in g.adj[v]:
            mask[v] |= 1 << u
    alive = [True] * n
    elim_pos = [-1] * n
    bags: list[frozenset] = []
    bag_neighbours: list[list[int]] = []
    for step in range(n):
        best = None
        for v in range(n):
            if not alive[v]:
                continue
            deg = len(nbr[v])
            fill = 0
            mv = mask[v]
            for u in nbr[v]:
                fill += (mv & ~mask[u] & ~(1 << u)).bit_count()
            key = (fill // 2, deg, v)
            if best is None or key < best:
                best = key
                pick = v
        neighbours = sorted(nbr[pick])
        bags.append(frozenset((pick, *neighbours)))
        bag_neighbours.append(neighbours)
        elim_pos[pick] = step
        for u in neighbours:
            for w in neighbours:
                if w > u and w not in nbr[u]:
                    nbr[u].add(w)
                    nbr[w].add(u)
                    mask[u] |= 1 << w
                    mask[w] |= 1 << u
            nbr[u].discard(pick)
            mask[u] &= ~(1 << pick)
        alive[pick] = False
    td_edges = []
    for step in range(n - 1):
        rest = bag_neighbours[step]
        if rest:
            parent = min(elim_pos[u] for u in rest)
        else:
            parent = step + 1
        td_edges.append((step, parent))
    return TreeDecomposition._trusted(n, Graph(n, td_edges), bags)


class NiceTreeDecomposition:
    """Rooted decomposition whose nodes are leaf/introduce/forget/join.

    ``order`` lists node ids children-first, so a single forward pass over it
    evaluates any bottom-up recurrence. Bags are stored as sorted tuples.
    """

    __slots__ = ("n", "kinds", "payloads", "bags", "children", "parent", "root", "order")

    def __init__(self, n, kinds, payloads, bags, children, root):
        count = len(kinds)
        self.n = n
        self.kinds = tuple(kinds)
        self.payloads = tuple(payloads)
        self.bags = tuple(map(tuple, bags))
        self.children = tuple(map(tuple, children))
        self.root = root
        parent = [-1] * count
        order = [root]
        for t in order:  # the list grows as it is read
            kids = self.children[t]
            for c in kids:
                parent[c] = t
            order += kids
        order.reverse()
        self.parent = tuple(parent)
        self.order = tuple(order)
        if len(order) != count:
            raise ValueError("node tree is not connected from the root")

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def to_tree_decomposition(self) -> TreeDecomposition:
        edges = [(t, p) for t, p in enumerate(self.parent) if p >= 0]
        return TreeDecomposition(self.n, Graph(self.node_count, edges), self.bags)

    def structural_violations(self) -> list[str]:
        """Check the per-kind bag and arity rules; empty list means well-formed."""
        problems = []
        for t in range(self.node_count):
            kind = self.kinds[t]
            kids = self.children[t]
            bag = set(self.bags[t])
            if kind == LEAF:
                if kids or len(bag) != 1:
                    problems.append(f"node {t}: bad leaf")
            elif kind == FORGET:
                v = self.payloads[t]
                if len(kids) != 1 or bag != set(self.bags[kids[0]]) - {v} or v not in self.bags[kids[0]]:
                    problems.append(f"node {t}: bad forget of {v}")
            elif kind == INTRODUCE:
                v = self.payloads[t]
                if len(kids) != 1 or bag != set(self.bags[kids[0]]) | {v} or v in self.bags[kids[0]]:
                    problems.append(f"node {t}: bad introduce of {v}")
            elif kind == JOIN:
                if len(kids) != 2 or any(set(self.bags[c]) != bag for c in kids):
                    problems.append(f"node {t}: bad join")
            else:
                problems.append(f"node {t}: unknown kind {kind}")
        return problems

    def __repr__(self):
        return (
            f"NiceTreeDecomposition(n={self.n}, nodes={self.node_count}, width={self.width})"
        )


class _NiceBuilder:
    def __init__(self, n):
        self.n = n
        self.kinds: list[int] = []
        self.payloads: list[int] = []
        self.bags: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []

    def add(self, kind, payload, bag: tuple, children: tuple) -> int:
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.bags.append(bag)
        self.children.append(children)
        return len(self.kinds) - 1

    def leaf_chain(self, bag) -> int:
        ordered = sorted(bag)
        node = self.add(LEAF, ordered[0], (ordered[0],), ())
        for i in range(1, len(ordered)):
            node = self.add(INTRODUCE, ordered[i], tuple(ordered[: i + 1]), (node,))
        return node

    def chain(self, node: int, source, target) -> int:
        """Forget/introduce chain transforming sorted bag ``source`` into
        sorted bag ``target``."""
        if source == target:
            return node
        current = list(source)
        for v in source:
            if v not in target:
                current.remove(v)
                node = self.add(FORGET, v, tuple(current), (node,))
        for v in target:
            if v not in source:
                insort(current, v)
                node = self.add(INTRODUCE, v, tuple(current), (node,))
        return node

    def finish(self, root) -> NiceTreeDecomposition:
        return NiceTreeDecomposition(
            self.n, self.kinds, self.payloads, self.bags, self.children, root
        )


def check_decomposition(g: Graph, td: TreeDecomposition) -> None:
    """Raise PreconditionError unless ``td`` is a valid decomposition of g."""
    if td.n != g.n:
        raise PreconditionError(f"decomposition is over n={td.n}, graph has n={g.n}")
    problems = validate(g, td)
    if problems:
        raise PreconditionError(
            f"invalid decomposition: {'; '.join(str(p) for p in problems[:3])}"
        )


def root_decomposition(td: TreeDecomposition):
    """The rooting make_nice and compute_tables share: ``(root, parent,
    children, order)``.

    Empty-bag leaves are pruned until none is left (one node always stays),
    so that every remaining leaf has a vertex to start from. The root is
    the lowest-numbered remaining node of maximum remaining degree, the
    tree is rooted there by one breadth-first search, each node's children
    are in increasing order, and ``order`` lists the remaining nodes
    children-first: the reverse of the search order. A pruned node has
    parent -1, no children, and is not in ``order``.
    """
    adj = td.tree.adj
    count = td.tree.n
    bags = td.bags
    degree = list(map(len, adj))
    alive = None
    if not all(bags):
        alive = [True] * count
        queue = [t for t in range(count) if degree[t] <= 1 and not bags[t]]
        alive_count = count
        while queue:
            t = queue.pop()
            if not alive[t] or alive_count == 1:
                continue
            alive[t] = False
            alive_count -= 1
            for s in adj[t]:
                if alive[s]:
                    degree[s] -= 1
                    if degree[s] <= 1 and not bags[s]:
                        queue.append(s)
        # degree[t] now counts the alive neighbours of every alive t
        for t in range(count):
            if not alive[t]:
                degree[t] = -1
    root = degree.index(max(degree))
    order, parent = td.tree._bfs((root,))
    if alive is not None:
        # the remaining nodes form a subtree around the root, so a pruned
        # node only ever parents pruned nodes
        parent = [p if a else -1 for p, a in zip(parent, alive)]
        order = [t for t in order if alive[t]]
    order.reverse()
    children = list(_children_of(np.array(parent, dtype=np.int64))[2])
    return root, parent, children, order


def make_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Turn a valid decomposition into nice form of the same width.

    The decomposition tree is rooted by root_decomposition, a node with
    several children becomes a join cascade over them in child order,
    differing adjacent bags are bridged by forget/introduce chains, a
    childless bag starts with a leaf of its lowest vertex, and the root bag
    is drained by forgets until its lowest vertex remains. Node count stays
    linear in (width+1) * nodes.
    """
    check_decomposition(g, td)
    if g.n == 0:
        raise ValueError("empty graph has no nice tree decomposition")
    sorted_bags = [tuple(sorted(b)) for b in td.bags]
    root, _, children, order = root_decomposition(td)
    builder = _NiceBuilder(g.n)
    built: dict[int, int] = {}
    for t in order:
        bag = sorted_bags[t]
        node = -1
        for s in children[t]:
            side = builder.chain(built[s], sorted_bags[s], bag)
            node = side if node < 0 else builder.add(JOIN, -1, bag, (node, side))
        built[t] = node if node >= 0 else builder.leaf_chain(bag)
    top = built[root]
    ordered = sorted_bags[root]
    current = list(ordered)
    for v in ordered[1:]:
        current.remove(v)
        top = builder.add(FORGET, v, tuple(current), (top,))
    return builder.finish(top)


def read_td(text: str) -> TreeDecomposition:
    """Parse a PACE-style .td file: 's td N width+1 n' header, 'b' bag lines
    (1-indexed), then N-1 tree edge lines."""
    header = None
    bags: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"malformed header {line!r}, expected 's td N width+1 n'", lineno)
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", lineno) from None
        elif parts[0] == "b":
            if header is None:
                raise ParseError("bag line before header", lineno)
            try:
                idx = int(parts[1])
                members = [int(x) for x in parts[2:]]
            except (IndexError, ValueError):
                raise ParseError(f"malformed bag line {line!r}", lineno) from None
            if not 1 <= idx <= header[0]:
                raise ParseError(f"bag id {idx} out of range (header declares {header[0]})", lineno)
            if idx in bags:
                raise ParseError(f"duplicate bag id {idx}", lineno)
            for v in members:
                if not 1 <= v <= header[2]:
                    raise ParseError(f"bag vertex {v} out of range (n={header[2]})", lineno)
            bags[idx] = frozenset(v - 1 for v in members)
        else:
            if header is None:
                raise ParseError("edge line before header", lineno)
            if len(parts) != 2:
                raise ParseError(f"malformed tree edge line {line!r}", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer tree edge line {line!r}", lineno) from None
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ParseError(f"tree edge ({a}, {b}) out of range", lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError("missing 's td N width+1 n' header")
    num_bags, declared_size, n = header
    if num_bags < 1:
        raise ParseError("decomposition needs at least one bag")
    if len(bags) != num_bags:
        raise ParseError(f"header declares {num_bags} bags but {len(bags)} defined")
    bag_list = [bags[i + 1] for i in range(num_bags)]
    actual = max(len(b) for b in bag_list)
    if actual != declared_size:
        raise ParseError(f"header declares max bag size {declared_size} but bags reach {actual}")
    try:
        tree = Graph(num_bags, edges)
    except ValueError as exc:
        raise ParseError(f"bad decomposition tree: {exc}") from None
    try:
        return TreeDecomposition(n, tree, bag_list)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_td(td: TreeDecomposition) -> str:
    """Serialize to the .td format; inverse of read_td up to bag member order."""
    lines = [f"s td {td.tree.n} {max(len(b) for b in td.bags)} {td.n}"]
    for i, bag in enumerate(td.bags):
        members = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {members}".rstrip())
    lines.extend(f"{u + 1} {v + 1}" for u, v in td.tree.edges())
    return "\n".join(lines) + "\n"
