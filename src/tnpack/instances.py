"""Generators for the analyzed graph families, seeded random instances, and
the independent-set reduction gadget.

``FAMILIES`` is the one table of the families ``tnpack generate`` writes:
each name maps to its parameters (the command's flags), its builder, and a
function of the same parameters giving the sidecar's known values, which
``expected_values`` looks up without building a graph.

Seeded generators draw from splitmix64 so any implementation, in any
language, reproduces identical instances from the same seed: 64-bit state
advances by 0x9E3779B97F4A7C15 and is finalized with two xor-multiply rounds;
bounded integers are taken modulo the bound and unit floats as the top 53
bits over 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil

from .graph import Graph, VertexSet, disjoint_union
from .oracles import SolveResult, closed_form, is_two_neighbour_packing

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Minimal portable PRNG; deterministic for a given 64-bit seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class LabeledInstance:
    """A generated graph together with its known optimal values or bounds."""

    graph: Graph
    family: str
    params: dict = field(default_factory=dict)
    tnp: int | None = None
    roman: int | None = None
    roman_lower: int | None = None


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def empty(n: int) -> Graph:
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    return Graph(n, [])


def complete_multipartite(parts) -> Graph:
    """Complete multipartite graph; parts occupy contiguous id ranges."""
    sizes = [int(p) for p in parts]
    if not sizes or any(p < 1 for p in sizes):
        raise ValueError("part sizes must be positive")
    bounds = [0]
    for p in sizes:
        bounds.append(bounds[-1] + p)
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            edges.extend(
                (u, v)
                for u in range(bounds[a], bounds[a + 1])
                for v in range(bounds[b], bounds[b + 1])
            )
    return Graph(bounds[-1], edges)


def star(n: int) -> Graph:
    """K_{1,n}: centre 0 joined to n leaves."""
    if n < 1:
        raise ValueError("star needs n >= 1 leaves")
    return complete_multipartite([1, n])


def _complete_values(n: int) -> dict:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return dict.fromkeys(("tnp", "roman"), 1 if n == 1 else 2)


def _empty_values(n: int) -> dict:
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    return {"tnp": n, "roman": n}


def _gap_values(n: int) -> dict:
    if n < 3:
        raise ValueError("gap family needs n >= 3")
    return {"tnp": 2, "roman_lower": ceil(2 * n / 3)}


def _kc4_values(k: int) -> dict:
    if k < 1:
        raise ValueError("need k >= 1 copies")
    return {"tnp": 2 * k, "roman": 3 * k}


def gap_family(n: int) -> LabeledInstance:
    """Connected family whose packing number stays 2 while the Roman number
    grows like 2n/3: an independent part of n vertices plus a clique with one
    vertex per 3-subset, each adjacent to exactly its triple.
    """
    labels = _gap_values(n)
    triples = list(combinations(range(n), 3))
    m = len(triples)
    edges = list((n + a, n + b) for a, b in combinations(range(m), 2))
    for j, triple in enumerate(triples):
        edges.extend((v, n + j) for v in triple)
    return LabeledInstance(Graph(n + m, edges), family="gap", params={"n": n}, **labels)


def k_c4(k: int) -> LabeledInstance:
    """Disjoint union of k four-cycles; the duality gap is exactly k."""
    labels = _kc4_values(k)
    union, _ = disjoint_union([cycle(4)] * k)
    return LabeledInstance(union, family="kc4", params={"k": k}, **labels)


def no_packing_of_size_three(g: Graph) -> bool:
    """True iff every 3-subset of vertices has three members inside some
    closed neighbourhood; together with any feasible pair this pins the
    packing number to 2 without enumerating all subsets."""
    masks = g.neighbour_masks()
    for a, b, c in combinations(range(g.n), 3):
        picked = (1 << a) | (1 << b) | (1 << c)
        if not any((m & picked) == picked for m in masks):
            return False
    return True


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree decoded from a random Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = SplitMix64(seed)
    seq = [rng.next_below(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Per-pair coin flips in (i, j) order, i < j."""
    if n < 1:
        raise ValueError("graph needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = SplitMix64(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.next_unit() < p
    ]
    return Graph(n, edges)


def reduce_independent_set(g: Graph) -> tuple[Graph, int]:
    """Gadget reduction: a packing of the output graph exceeding 3|E| by k
    yields an independent set of size k in the input.

    Every edge (u, v) is subdivided by a vertex that also carries a pendant
    vertex and a pendant path of three vertices; gadget blocks of five sit
    after the original ids, in edge order. Returns the graph and the offset
    3|E|.
    """
    n = g.n
    edges = []
    for j, (u, v) in enumerate(g.edges()):
        b = n + 5 * j
        edges.extend(
            [(u, b), (v, b), (b, b + 1), (b, b + 2), (b + 2, b + 3), (b + 2, b + 4)]
        )
    return Graph(n + 5 * g.m, edges), 3 * g.m


def extract_independent_set(g: Graph, packing) -> VertexSet:
    """Pull an independent set of g out of a packing of the reduction gadget.

    Normalizes the packing edge by edge (prefer the two deep pendant vertices
    over the subdivision side; break surviving original edges toward the
    pendant neighbour of the subdivision vertex), then intersects with the
    original vertices.
    """
    h, _ = reduce_independent_set(g)
    chosen = set(packing)
    if not is_two_neighbour_packing(h, chosen):
        raise ValueError("input is not a two-neighbour packing of the gadget graph")
    original_edges = g.edges()
    n = g.n
    for j in range(g.m):
        b = n + 5 * j
        chosen.discard(b)
        chosen.discard(b + 2)
        chosen.add(b + 3)
        chosen.add(b + 4)
    changed = True
    while changed:
        changed = False
        for j, (u, v) in enumerate(original_edges):
            if u in chosen and v in chosen:
                chosen.discard(u)
                chosen.add(n + 5 * j + 1)
                changed = True
    if not is_two_neighbour_packing(h, chosen):
        raise RuntimeError("packing normalization broke feasibility")
    result = frozenset(v for v in chosen if v < n)
    for u, v in original_edges:
        if u in result and v in result:
            raise RuntimeError("extraction left an edge inside the result")
    return result


def independent_set_brute(g: Graph) -> SolveResult:
    """Maximum independent set by include/exclude search in vertex order."""
    n = g.n
    adj = g.adj
    current: list[int] = []
    best_size = -1
    best: tuple[int, ...] = ()
    chosen = [False] * n
    steps = 0

    def search(v: int) -> None:
        nonlocal best_size, best, steps
        steps += 1
        if v == n:
            if len(current) > best_size:
                best_size = len(current)
                best = tuple(current)
            return
        if len(current) + (n - v) <= best_size:
            return
        if not any(chosen[u] for u in adj[v]):
            chosen[v] = True
            current.append(v)
            search(v + 1)
            current.pop()
            chosen[v] = False
        search(v + 1)

    search(0)
    return SolveResult(best_size, frozenset(best), steps)


def _closed(family: str, param) -> dict:
    tnp, roman = closed_form(family, param)
    return {"tnp": tnp, "roman": roman}


# name -> (parameters, which are generate's flags; builder; known values),
# in generate's --family order; builder and values take the parameters by name
FAMILIES = {
    "path": (("n",), path, lambda n: _closed("path", n)),
    "cycle": (("n",), cycle, lambda n: _closed("cycle", n)),
    "complete": (("n",), complete, _complete_values),
    "empty": (("n",), empty, _empty_values),
    "star": (("n",), star, lambda n: _closed("multipartite", [1, n])),
    "multipartite": (("parts",), complete_multipartite, lambda parts: _closed("multipartite", parts)),
    "gap": (("n",), lambda n: gap_family(n).graph, _gap_values),
    "kc4": (("k",), lambda k: k_c4(k).graph, _kc4_values),
    "random-tree": (("n", "seed"), random_tree, lambda n, seed: {}),
    "random-graph": (("n", "p", "seed"), random_graph, lambda n, p, seed: {}),
}


def expected_values(family: str, params: dict) -> dict:
    """Known optimal values (or bounds) for a generated family, as stored in
    sidecar files next to generated instances: the family's FAMILIES entry
    computes them from the parameters alone, building no graph. A family
    that is not in the table has none."""
    entry = FAMILIES.get(family)
    return entry[2](**params) if entry else {}
