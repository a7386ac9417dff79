"""Brute-force reference solvers and checkers for packing and Roman domination.

These are deliberately simple exhaustive searches; they are the ground truth
the treewidth solver and the tree duality pipeline are tested against. All
witnesses are deterministic: branching follows a fixed vertex order and the
first optimum found is kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import SizeCapError
from .graph import Graph

TNP_CAP_ENV = "TNPACK_TNP_CAP"
ROMAN_CAP_ENV = "TNPACK_ROMAN_CAP"
DOMINATION_CAP_ENV = "TNPACK_DOMINATION_CAP"

TNP_CAP_DEFAULT = 24
ROMAN_CAP_DEFAULT = 14
DOMINATION_CAP_DEFAULT = 20


@dataclass(frozen=True)
class RomanFunction:
    """A labelling V -> {0,1,2}; Roman-dominating iff every 0 has a 2-neighbour."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(x not in (0, 1, 2) for x in self.labels):
            raise ValueError("labels must be 0, 1, or 2")

    @property
    def weight(self) -> int:
        return sum(self.labels)


@dataclass(frozen=True)
class SolveResult:
    """Optimal value plus a verified witness and the search effort spent."""

    value: int
    witness: object
    steps: int = 0


@dataclass(frozen=True)
class RdfViolation:
    """One failed structural property of a minimum-weight Roman function."""

    rule: str
    vertices: tuple[int, ...]


def _resolve_cap(cap: int | None, env: str, default: int) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(env)
    return int(raw) if raw else default


def _check_cap(n: int, cap: int | None, env: str, default: int, what: str) -> None:
    limit = _resolve_cap(cap, env, default)
    if n > limit:
        raise SizeCapError(
            f"{what} refuses n={n} > cap {limit} (override via the cap argument or {env})"
        )


def is_two_neighbour_packing(g: Graph, a) -> bool:
    """True iff every closed neighbourhood contains at most two vertices of a.

    One count over g.arcs(): each vertex's chosen neighbours plus itself.
    """
    chosen = set(a)
    if chosen and (min(chosen) < 0 or max(chosen) >= g.n):
        v = next(v for v in chosen if not 0 <= v < g.n)
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    mask = np.zeros(g.n, dtype=bool)
    mask[np.fromiter(chosen, np.int64, len(chosen))] = True
    src, dst = g.arcs()
    count = np.bincount(src[mask[dst]], minlength=g.n)
    count += mask
    return not (count > 2).any()


def is_roman_dominating(g: Graph, f: RomanFunction) -> bool:
    """True iff every vertex labelled 0 has a neighbour labelled 2.

    One count over g.arcs(): each vertex's 2-labelled neighbours.
    """
    labels = f.labels
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for n={g.n}")
    lab = np.fromiter(labels, np.int8, g.n)
    src, dst = g.arcs()
    covered = np.bincount(src[lab[dst] == 2], minlength=g.n)
    return not ((lab == 0) & (covered == 0)).any()


def tnp_brute(g: Graph, cap: int | None = None) -> SolveResult:
    """Maximum two-neighbour packing by exhaustive search with counter pruning.

    Vertices are branched in increasing id order (include before exclude), so
    the witness is the lexicographically first optimum.
    """
    n = g.n
    _check_cap(n, cap, TNP_CAP_ENV, TNP_CAP_DEFAULT, "tnp_brute")
    closed = [(v, *g.adj[v]) for v in range(n)]
    counts = [0] * n
    current: list[int] = []
    best_size = -1
    best: tuple[int, ...] = ()
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
        if all(counts[u] < 2 for u in closed[v]):
            for u in closed[v]:
                counts[u] += 1
            current.append(v)
            search(v + 1)
            current.pop()
            for u in closed[v]:
                counts[u] -= 1
        search(v + 1)

    search(0)
    return SolveResult(best_size, frozenset(best), steps)


def roman_brute(g: Graph, cap: int | None = None) -> SolveResult:
    """Minimum-weight Roman dominating function over all 3^n labellings.

    Branches in BFS order trying labels 0, 1, 2; a branch dies as soon as some
    vertex's closed neighbourhood is fully labelled, the vertex got 0 and no
    neighbour got 2. Weight-bound pruning keeps the first optimum found.
    """
    n = g.n
    _check_cap(n, cap, ROMAN_CAP_ENV, ROMAN_CAP_DEFAULT, "roman_brute")
    if n == 0:
        return SolveResult(0, RomanFunction(()), 0)
    order = g._bfs(range(n))[0]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # vertices whose closed neighbourhood is fully assigned once position i is set
    finalized_at: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        last = max([pos[u]] + [pos[w] for w in g.adj[u]])
        finalized_at[last].append(u)
    labels = [0] * n
    best_weight = 3 * n + 1
    best: tuple[int, ...] | None = None
    steps = 0
    adj = g.adj

    def search(i: int, weight: int) -> None:
        nonlocal best_weight, best, steps
        steps += 1
        if weight >= best_weight:
            return
        if i == n:
            best_weight = weight
            best = tuple(labels)
            return
        v = order[i]
        for value in (0, 1, 2):
            if weight + value >= best_weight:
                break
            labels[v] = value
            ok = True
            for u in finalized_at[i]:
                if labels[u] == 0 and not any(labels[w] == 2 for w in adj[u]):
                    ok = False
                    break
            if ok:
                search(i + 1, weight + value)
        labels[v] = 0

    search(0, 0)
    assert best is not None
    return SolveResult(best_weight, RomanFunction(best), steps)


def domination_brute(g: Graph, cap: int | None = None) -> SolveResult:
    """Minimum dominating set by include/exclude search over vertex ids."""
    n = g.n
    _check_cap(n, cap, DOMINATION_CAP_ENV, DOMINATION_CAP_DEFAULT, "domination_brute")
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    masks = g.neighbour_masks()
    full = (1 << n) - 1
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] | masks[v]
    current: list[int] = []
    best_size = n + 1
    best: tuple[int, ...] = ()
    steps = 0

    def search(v: int, covered: int) -> None:
        nonlocal best_size, best, steps
        steps += 1
        if covered == full:
            if len(current) < best_size:
                best_size = len(current)
                best = tuple(current)
            return
        if v == n or len(current) + 1 >= best_size:
            return
        if (covered | suffix[v]) != full:
            return
        current.append(v)
        search(v + 1, covered | masks[v])
        current.pop()
        search(v + 1, covered)

    search(0, 0)
    return SolveResult(best_size, frozenset(best), steps)


def private_neighbours(g: Graph, v: int, v2) -> dict[int, bool]:
    """Private neighbours of v with respect to v2, mapped to their external flag.

    u is private iff u lies in N[v] but in no N[v'] for v' in v2 other than v;
    it is external iff it lies outside v2 itself.
    """
    chosen = set(v2)
    if v not in chosen:
        raise ValueError(f"vertex {v} is not in the given set")
    result: dict[int, bool] = {}
    for u in (v, *g.adj[v]):
        others = chosen.intersection((u, *g.adj[u]))
        others.discard(v)
        if not others:
            result[u] = u not in chosen
    return result


def check_min_rdf_properties(g: Graph, f: RomanFunction) -> list[RdfViolation]:
    """Check the five structural properties every minimum-weight RDF satisfies.

    Rules: (a) vertices labelled 1 have at most one 1-neighbour; (b) no edge
    joins a 1 and a 2; (c) a 0-vertex has at most two 1-neighbours; (d) every
    2-vertex has at least two private neighbours w.r.t. the 2-set; (e) a
    2-vertex isolated among 2s whose only external private neighbour is w
    forces w to have no 1-neighbours.
    """
    labels = f.labels
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for n={g.n}")
    v2 = frozenset(v for v in range(g.n) if labels[v] == 2)
    violations = []
    for v in range(g.n):
        lab = labels[v]
        if lab == 1:
            ones = [u for u in g.adj[v] if labels[u] == 1]
            if len(ones) > 1:
                violations.append(RdfViolation("a", (v, *ones)))
            for u in g.adj[v]:
                if labels[u] == 2:
                    violations.append(RdfViolation("b", (v, u)))
        elif lab == 0:
            ones = [u for u in g.adj[v] if labels[u] == 1]
            if len(ones) > 2:
                violations.append(RdfViolation("c", (v, *ones)))
        else:
            privates = private_neighbours(g, v, v2)
            if len(privates) < 2:
                violations.append(RdfViolation("d", (v,)))
            isolated = not any(labels[u] == 2 for u in g.adj[v])
            externals = [u for u, ext in privates.items() if ext]
            if isolated and len(externals) == 1:
                w = externals[0]
                bad = [u for u in g.adj[w] if labels[u] == 1]
                if bad:
                    violations.append(RdfViolation("e", (v, w, *bad)))
    return violations


def closed_form(family: str, param) -> tuple[int, int]:
    """Known optimal (packing number, Roman domination number) pairs.

    Families: "path" and "cycle" take the vertex count, "multipartite" takes
    the part sizes (at least one part). A single part of size p is the
    edgeless graph on p vertices, whose values are both p: every vertex is
    chosen, and every vertex needs weight 1.
    """
    if family == "path":
        n = int(param)
        if n < 1:
            raise ValueError("path needs n >= 1")
        return (2 * n + 2) // 3, (2 * n + 2) // 3
    if family == "cycle":
        n = int(param)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return (2 * n) // 3, (2 * n + 2) // 3
    if family == "multipartite":
        parts = sorted(int(p) for p in param)
        if not parts:
            raise ValueError("multipartite needs at least one part")
        if parts[0] < 1:
            raise ValueError("part sizes must be positive")
        smallest = parts[0]
        if len(parts) == 1:
            return smallest, smallest
        roman = 2 if smallest == 1 else 3 if smallest == 2 else 4
        return 2, roman
    raise ValueError(f"unknown family {family!r}")


def degree_lower_bound(g: Graph) -> int:
    """2n/(max degree + 1), rounded up; a lower bound on the Roman number."""
    if g.n == 0:
        return 0
    return ceil(2 * g.n / (g.max_degree() + 1))
