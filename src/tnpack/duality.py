"""Equality of Roman domination and two-neighbour packing on trees.

The pipeline computes a minimum Roman function by a four-state tree DP,
rewrites it bottom-up into a normal form whose subtree-local properties make
the packing construction safe, then emits one packing vertex per 1-label and
two private neighbours per 2-label. Both witnesses have the same size, which
certifies optimality of each against the other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, RootedTree, VertexSet
from .oracles import RomanFunction, SolveResult, is_roman_dominating, is_two_neighbour_packing

_INF = 1 << 30

# tree DP states per vertex
_TWO = 0  # labelled 2
_ONE = 1  # labelled 1
_ZERO_COVERED = 2  # labelled 0, some child is labelled 2
_ZERO_NEEDS_PARENT = 3  # labelled 0, only the parent can cover it


@dataclass(frozen=True)
class NormalizationViolation:
    """A subtree-local property failed at ``vertex``.

    1 = two 1-labels in the closed neighbourhood below; 2 = a 2-label with
    fewer than two private neighbours below; 3 = a 0-label seeing two
    constrained vertices below; 4 = a self-private 2-label whose single
    private child has a 1-child; 5 = a 0-label with a 1-child whose only
    2-neighbour is a child that must select itself. Conditions 4 and 5 close
    selection collisions that 1-3 alone do not exclude."""

    property_id: int
    vertex: int


@dataclass(frozen=True)
class DualityCertificate:
    """Matching optimal Roman function and packing on one tree."""

    n: int
    root: int
    value: int
    rdf: RomanFunction
    packing: VertexSet
    verified: bool

    def to_dict(self) -> dict:
        """The JSON payload of to_json as a plain dict."""
        return {
            "n": self.n,
            "root": self.root,
            "gamma_R": self.value,
            "rdf": list(self.rdf.labels),
            "packing": sorted(self.packing),
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def roman_tree_dp(tree: RootedTree) -> SolveResult:
    """Minimum-weight Roman function on a tree, linear time.

    Per vertex four states: labelled 2; labelled 1; labelled 0 and covered by
    a 2-child; labelled 0 and relying on the parent. A child may rely on its
    parent only below a 2, and the root may not rely on anyone.
    """
    g = tree.graph
    n = g.n
    cost = [(0, 0, 0, 0)] * n
    for v in tree.postorder:
        kids = tree.children[v]
        two = 2
        one = 1
        free_sum = 0  # children take their best self-satisfied state
        best_upgrade = _INF  # cheapest switch of one child to label 2
        for c in kids:
            cc = cost[c]
            self_satisfied = min(cc[_TWO], cc[_ONE], cc[_ZERO_COVERED])
            two += min(self_satisfied, cc[_ZERO_NEEDS_PARENT])
            one += self_satisfied
            free_sum += self_satisfied
            best_upgrade = min(best_upgrade, cc[_TWO] - self_satisfied)
        zero_covered = free_sum + best_upgrade if kids else _INF
        cost[v] = (
            min(two, _INF),
            min(one, _INF),
            min(zero_covered, _INF),
            min(free_sum, _INF),
        )
    root_costs = cost[tree.root][:3]
    value = min(root_costs)
    labels = [0] * n
    state_of = {tree.root: root_costs.index(value)}
    for v in tree.postorder[::-1]:  # parents before children
        state = state_of[v]
        labels[v] = (2, 1, 0, 0)[state]
        kids = tree.children[v]
        if not kids:
            continue
        forced = -1
        if state == _ZERO_COVERED:
            # re-derive which child the upgrade went to
            best_delta = _INF
            for c in kids:
                cc = cost[c]
                delta = cc[_TWO] - min(cc[_TWO], cc[_ONE], cc[_ZERO_COVERED])
                if delta < best_delta:
                    best_delta = delta
                    forced = c
        for c in kids:
            cc = cost[c]
            if c == forced:
                state_of[c] = _TWO
                continue
            options = (
                (cc[_TWO], _TWO),
                (cc[_ONE], _ONE),
                (cc[_ZERO_COVERED], _ZERO_COVERED),
            )
            if state == _TWO:
                options += ((cc[_ZERO_NEEDS_PARENT], _ZERO_NEEDS_PARENT),)
            state_of[c] = min(options)[1]
    f = RomanFunction(tuple(labels))
    if f.weight != value or not is_roman_dominating(g, f):
        raise RuntimeError("tree DP produced an inconsistent labelling")
    return SolveResult(value, f, n)


def _two_cover(g: Graph, labels) -> list[int]:
    """Per vertex u, the number of 2-labelled vertices in N[u]."""
    two_cover = [0] * g.n
    for v in range(g.n):
        if labels[v] == 2:
            two_cover[v] += 1
            for u in g.adj[v]:
                two_cover[u] += 1
    return two_cover


class _Normalizer:
    """Bottom-up rewriting of a minimum Roman function on a rooted tree.

    Every rewrite keeps the weight and strictly decreases the pair
    (sum of label*depth, number of 2-labels) lexicographically, so repeated
    passes reach a fix-point; the budget below is the bound that potential
    implies and only guards against implementation bugs.
    """

    def __init__(self, tree: RootedTree, labels: list[int], debug: bool):
        self.tree = tree
        self.g = tree.graph
        self.labels = labels
        self.debug = debug
        self.steps = 0
        depth = [0] * self.g.n
        for v in tree.postorder[::-1]:
            p = tree.parent[v]
            depth[v] = depth[p] + 1 if p >= 0 else 0
        potential = sum(labels[v] * (depth[v] + 1) for v in range(self.g.n))
        self.budget = (potential + 2) * (self.g.n + 2)
        self.two_cover = _two_cover(self.g, labels)

    def set_label(self, v: int, value: int) -> None:
        old = self.labels[v]
        if old == value:
            return
        delta = (value == 2) - (old == 2)
        self.labels[v] = value
        if delta:
            self.two_cover[v] += delta
            for u in self.g.adj[v]:
                self.two_cover[u] += delta

    def count_step(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise RuntimeError("normalization exceeded its step budget")
        if self.debug and not is_roman_dominating(self.g, RomanFunction(tuple(self.labels))):
            raise RuntimeError("normalization step broke Roman domination")

    def external_privates(self, v: int) -> list[int]:
        """0- or 1-labelled private neighbours of the 2-labelled vertex v."""
        return [
            u
            for u in (v, *self.g.adj[v])
            if self.two_cover[u] == 1 and self.labels[u] != 2
        ]

    def constrained(self, u: int) -> bool:
        """Vertices the packing construction may select near u: label 1, or
        label 2 with exactly one external private neighbour."""
        if self.labels[u] == 1:
            return True
        return self.labels[u] == 2 and len(self.external_privates(u)) == 1

    def collapse_adjacent_ones(self, v: int) -> bool:
        """v and a child both labelled 1 become a 2 over a 0."""
        for u in self.tree.children[v]:
            if self.labels[u] == 1:
                self.set_label(v, 2)
                self.set_label(u, 0)
                self.count_step()
                return True
        return False

    def run(self) -> int:
        """One bottom-up pass; returns the number of rewrites applied."""
        before = self.steps
        labels = self.labels
        children = self.tree.children
        parent = self.tree.parent
        for v in self.tree.postorder:
            lab = labels[v]
            if lab == 1:
                self.collapse_adjacent_ones(v)
            elif lab == 2:
                below = [u for u in (v, *children[v]) if self.two_cover[u] == 1]
                private_children = [u for u in children[v] if self.two_cover[u] == 1]
                if len(below) >= 2:
                    if self.two_cover[v] == 1 and len(private_children) == 1:
                        self.split_forced_self_selection(v, private_children[0])
                    continue
                w = parent[v]
                if w < 0 or self.two_cover[w] != 1 or labels[w] != 0:
                    raise RuntimeError(
                        f"vertex {v}: input was not a minimum Roman function"
                    )
                if not private_children:
                    if below != [v]:
                        raise RuntimeError(
                            f"vertex {v}: input was not a minimum Roman function"
                        )
                    # v is its own private neighbour; swap with the parent
                    self.set_label(v, 0)
                    self.set_label(w, 2)
                    self.count_step()
                else:
                    u = private_children[0]
                    self.set_label(v, 0)
                    self.set_label(u, 1)
                    self.set_label(w, 1)
                    self.count_step()
                    self.collapse_adjacent_ones(u)
            else:
                marked = [u for u in children[v] if self.constrained(u)]
                if len(marked) <= 1:
                    if marked and labels[marked[0]] == 1 and self.two_cover[v] == 1:
                        self.split_covering_child(v, marked[0])
                    continue
                ones = [u for u in marked if labels[u] == 1]
                twos = [u for u in marked if labels[u] == 2]
                if len(ones) >= 2:
                    self.set_label(v, 2)
                    self.set_label(ones[0], 0)
                    self.set_label(ones[1], 0)
                    self.count_step()
                elif len(ones) == 1 and len(twos) == 1:
                    ext = self.external_privates(twos[0])
                    if len(ext) != 1 or ext[0] == v:
                        raise RuntimeError(
                            f"vertex {v}: input was not a minimum Roman function"
                        )
                    self.set_label(v, 2)
                    self.set_label(ones[0], 0)
                    self.set_label(twos[0], 0)
                    self.set_label(ext[0], 1)
                    self.count_step()
                elif len(twos) == 2 and not ones:
                    picks = []
                    for t in twos:
                        ext = self.external_privates(t)
                        if len(ext) != 1 or ext[0] == v:
                            raise RuntimeError(
                                f"vertex {v}: input was not a minimum Roman function"
                            )
                        picks.append(ext[0])
                    self.set_label(v, 2)
                    self.set_label(twos[0], 0)
                    self.set_label(twos[1], 0)
                    self.set_label(picks[0], 1)
                    self.set_label(picks[1], 1)
                    self.count_step()
                else:
                    raise RuntimeError(
                        f"vertex {v}: input was not a minimum Roman function"
                    )
        return self.steps - before

    def split_covering_child(self, v: int, x: int) -> None:
        """Lift the 2 of a self-selecting child up to v when v also has the
        1-child x.

        With v's only 2-neighbour being a child z that must pick both itself
        and its single private child, the packing would meet x, z, and a
        selected ancestor inside N[v]. Rewrite: v takes the 2, z and x drop
        to 0, z's private child takes the 1.
        """
        labels = self.labels
        z = next((u for u in self.tree.children[v] if labels[u] == 2), -1)
        if z < 0 or self.two_cover[z] != 1:
            return
        private_children = [c for c in self.tree.children[z] if self.two_cover[c] == 1]
        if len(private_children) != 1:
            return
        self.set_label(v, 2)
        self.set_label(x, 0)
        self.set_label(z, 0)
        self.set_label(private_children[0], 1)
        self.count_step()

    def split_forced_self_selection(self, v: int, u: int) -> None:
        """Break up a 2-label that would have to select both itself and its
        only private child u while u has a 1-child.

        The packing step would then put v, u, and u's 1-child into one closed
        neighbourhood. Rewrite: v drops to 0 (u takes over as the 2), u's
        1-child drops to 0, and the weight moves to v's parent, which for a
        minimum input is private to v and labelled 0.
        """
        labels = self.labels
        one_children = [x for x in self.tree.children[u] if labels[x] == 1]
        if not one_children:
            return
        p = self.tree.parent[v]
        if p < 0 or labels[p] != 0 or self.two_cover[p] != 1:
            raise RuntimeError(
                f"vertex {v}: input was not a minimum Roman function"
            )
        self.set_label(v, 0)
        self.set_label(u, 2)
        self.set_label(one_children[0], 0)
        self.set_label(p, 1)
        self.count_step()


def normalize_rdf(tree: RootedTree, f: RomanFunction, debug: bool = False) -> RomanFunction:
    """Rewrite a minimum Roman function until the subtree properties checked
    by check_normalized_rdf hold everywhere; the weight is unchanged.

    Bottom-up passes repeat until one applies no rewrite; a rewrite high in
    the tree can re-expose a lower vertex, but the rewrite potential proves
    this terminates.

    Checks on the input, each raising PreconditionError: one entry per
    vertex, Roman domination, and minimum weight (against one run of the
    tree DP, so large trees stay cheap). Checks on the result, each raising
    RuntimeError: same weight, Roman domination, and no violation left by
    check_normalized_rdf.
    """
    g = tree.graph
    if len(f.labels) != g.n:
        raise PreconditionError(f"labelling has {len(f.labels)} entries for n={g.n}")
    if not is_roman_dominating(g, f):
        raise PreconditionError("input is not a Roman dominating function")
    optimum = roman_tree_dp(tree).value
    if f.weight != optimum:
        raise PreconditionError(
            f"input has weight {f.weight}, minimum is {optimum}"
        )
    return _normalize(tree, f, optimum, debug)


def _normalize(tree: RootedTree, f: RomanFunction, optimum: int, debug: bool) -> RomanFunction:
    """Worker of normalize_rdf for an input known to be a Roman function of
    weight ``optimum``: rewrites it, then checks the result once."""
    normalizer = _Normalizer(tree, list(f.labels), debug)
    while normalizer.run():
        pass
    result = RomanFunction(tuple(normalizer.labels))
    if result.weight != optimum or not is_roman_dominating(tree.graph, result):
        raise RuntimeError("normalization changed the weight or broke domination")
    remaining = check_normalized_rdf(tree, result)
    if remaining:
        raise RuntimeError(f"normalization left violations: {remaining[:3]}")
    return result


def check_normalized_rdf(tree: RootedTree, f: RomanFunction) -> list[NormalizationViolation]:
    """Check the four subtree-local properties the packing construction needs.

    For every vertex v, over the part of N[v] inside v's subtree (v and its
    children): (1) at most one vertex is labelled 1; (2) if f(v)=2 at least
    two of them are private neighbours of v; (3) if f(v)=0 at most one of
    them is labelled 1 or is a 2 with exactly one external private neighbour;
    (4) if f(v)=2 and v is private to itself with exactly one private child,
    that child has no 1-labelled child; (5) if f(v)=0 with a 1-labelled
    child, its only 2-neighbour is not a child that is self-private with
    exactly one private child. Conditions (4) and (5) close the selection
    collisions the first three miss; without them the construction can put
    three vertices into one closed neighbourhood.
    """
    g = tree.graph
    labels = f.labels
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for n={g.n}")
    two_cover = _two_cover(g, labels)

    def externals(v):
        return [
            u for u in (v, *g.adj[v]) if two_cover[u] == 1 and labels[u] != 2
        ]

    violations = []
    for v in range(g.n):
        below = (v, *tree.children[v])
        ones = sum(1 for u in below if labels[u] == 1)
        if ones > 1:
            violations.append(NormalizationViolation(1, v))
        if labels[v] == 2:
            private_children = [u for u in tree.children[v] if two_cover[u] == 1]
            privates = len(private_children) + (1 if two_cover[v] == 1 else 0)
            if privates < 2:
                violations.append(NormalizationViolation(2, v))
            elif two_cover[v] == 1 and len(private_children) == 1:
                u = private_children[0]
                if any(labels[x] == 1 for x in tree.children[u]):
                    violations.append(NormalizationViolation(4, v))
        elif labels[v] == 0:
            marked = 0
            for u in below:
                if labels[u] == 1:
                    marked += 1
                elif labels[u] == 2 and len(externals(u)) == 1:
                    marked += 1
            if marked > 1:
                violations.append(NormalizationViolation(3, v))
            elif two_cover[v] == 1 and any(labels[u] == 1 for u in tree.children[v]):
                z = next((u for u in tree.children[v] if labels[u] == 2), -1)
                if z >= 0 and two_cover[z] == 1:
                    z_private_children = [
                        c for c in tree.children[z] if two_cover[c] == 1
                    ]
                    if len(z_private_children) == 1:
                        violations.append(NormalizationViolation(5, v))
    return violations


def build_packing(tree: RootedTree, f: RomanFunction) -> VertexSet:
    """Packing of size weight(f) from a normalized minimum Roman function:
    every 1-labelled vertex, plus two private neighbours from each 2-labelled
    vertex's subtree part, children preferred over the vertex itself.

    Raises PreconditionError when check_normalized_rdf finds a violation in
    f, and RuntimeError when the constructed set selects a vertex twice, has
    a size other than weight(f) or is not a two-neighbour packing.
    """
    problems = check_normalized_rdf(tree, f)
    if problems:
        first = problems[0]
        raise PreconditionError(
            f"labelling violates property ({first.property_id}) at vertex {first.vertex}"
        )
    packing = _packing(tree, f)
    if len(packing) != f.weight or not is_two_neighbour_packing(tree.graph, packing):
        raise RuntimeError("constructed set is not a packing of the right size")
    return packing


def _packing(tree: RootedTree, f: RomanFunction) -> VertexSet:
    """Worker of build_packing for a labelling that passes
    check_normalized_rdf; the caller checks the result."""
    g = tree.graph
    labels = f.labels
    two_cover = _two_cover(g, labels)
    chosen = {v for v in range(g.n) if labels[v] == 1}
    for v in range(g.n):
        if labels[v] != 2:
            continue
        candidates = [u for u in tree.children[v] if two_cover[u] == 1]
        if two_cover[v] == 1:
            candidates.append(v)
        for u in candidates[:2]:
            if u in chosen:
                raise RuntimeError(f"vertex {u} selected twice while building the packing")
            chosen.add(u)
    return frozenset(chosen)


def certify_tree(tree: RootedTree) -> DualityCertificate:
    """End-to-end certificate that the two optima agree on this tree.

    One tree DP gives the optimum and a minimum Roman function, which the DP
    checks for Roman domination. Normalization then checks its result once
    (weight, Roman domination, check_normalized_rdf) and raises RuntimeError
    on a failure, as normalize_rdf does. The packing built from it is
    checked once as a two-neighbour packing; ``verified`` holds when that
    check passes and its size equals the DP optimum.
    """
    dp = roman_tree_dp(tree)
    f = _normalize(tree, dp.witness, dp.value, debug=False)
    packing = _packing(tree, f)
    verified = len(packing) == dp.value and is_two_neighbour_packing(tree.graph, packing)
    return DualityCertificate(
        n=tree.graph.n,
        root=tree.root,
        value=dp.value,
        rdf=f,
        packing=packing,
        verified=verified,
    )
