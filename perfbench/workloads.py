"""Seeded instance builders for the benchmark workloads.

``build(workload, seed)`` returns a manifest: the graphs to write as .gr
files, the items sent as CLI requests (one graph plus the request kinds sent
for it, in order, plus any value known independently of the solver), the
warm-up items, and the file solved in a fresh process for the cold-start
metric. Both workloads draw their graphs from the seed, so a held-out seed
gives new instances; the warm-up graphs, the k_c4 unions, the cycles and the
batch's cold-start graph are fixed.
"""

from __future__ import annotations

from tnpack.graph import Graph
from tnpack.instances import SplitMix64, cycle, k_c4, random_graph, random_tree
from tnpack.oracles import closed_form

TREE_N = 100_000
TREE_COUNT = 2
WARMUP_N = 2_000

# seeded graphs per min-fill width: fixing the mix keeps the batch's cost
# profile the same from seed to seed while the graphs themselves change.
# The 80 of width 4 bring 60-80 distinct wide join signatures, about twice
# the solver's 32 cached join programs, so every seed sits on the same side
# of that cache's cliff: wide joins miss.
# Width stops at 4: wider graphs cost seconds to minutes per DP request
# against milliseconds for brute force, so one would swamp the batch; that
# cost is left unmeasured here on purpose until the solver bounds it
BATCH_QUOTA = {1: 40, 2: 80, 3: 80, 4: 80}
BATCH_MIN_N = 5
# roman_brute's default size cap; the batch stays within it so that no
# duality-report is refused, and no cap is overridden through the environment
ROMAN_BRUTE_CAP = 14
# the batch's cold-start graph comes from this fixed seed, not from --seed,
# so the cold metric compares the same instance across seeds
COLD_BATCH_SEED = 0


def min_fill_width(g: Graph) -> int:
    """Width of the min-fill elimination ordering (ties by degree, then id).

    Kept here rather than taken from the solver so that the batch a seed
    selects does not change when the solver's own heuristic does.
    """
    nbr = [set(g.adj[v]) for v in range(g.n)]
    alive = set(range(g.n))
    width = 0
    while alive:
        def key(v):
            ns = sorted(nbr[v])
            fill = sum(
                1 for i, a in enumerate(ns) for b in ns[i + 1 :] if b not in nbr[a]
            )
            return fill, len(ns), v

        v = min(alive, key=key)
        ns = nbr[v]
        width = max(width, len(ns))
        for a in ns:
            nbr[a] |= ns - {a}
            nbr[a].discard(v)
        alive.remove(v)
    return width


def _item(name: str, requests: list[str], **expect) -> dict:
    return {"file": f"{name}.gr", "requests": requests, "expect": expect}


def _tree_random(seed: int) -> dict:
    rng = SplitMix64(seed)
    graphs = {f"tree{i}": random_tree(TREE_N, rng.next_u64()) for i in range(TREE_COUNT)}
    graphs["tree_warmup"] = random_tree(WARMUP_N, 1)
    return {
        "graphs": graphs,
        # the DP and the Roman-side certificate are independent algorithms;
        # strong duality on trees makes their values agree
        "items": [_item(f"tree{i}", ["dp", "tree"]) for i in range(TREE_COUNT)],
        "warmup": [_item("tree_warmup", ["dp", "tree"])],
        "cold": "tree0.gr",
    }


def _batch_stream(seed: int):
    """Endless seeded non-tree graphs with n <= ROMAN_BRUTE_CAP, each with
    its min-fill width."""
    rng = SplitMix64(seed)
    while True:
        n = BATCH_MIN_N + rng.next_below(ROMAN_BRUTE_CAP - BATCH_MIN_N + 1)
        p = (1.5 + 2.5 * rng.next_unit()) / n
        g = random_graph(n, p, rng.next_u64())
        if not (g.is_forest() and g.is_connected()):
            yield g, min_fill_width(g)


def _batch_graphs(seed: int) -> list[Graph]:
    """The first graphs of the seed's stream that fill BATCH_QUOTA."""
    left = dict(BATCH_QUOTA)
    kept = []
    for g, width in _batch_stream(seed):
        if left.get(width, 0) > 0:
            left[width] -= 1
            kept.append(g)
            if not any(left.values()):
                return kept


def _small_batch(seed: int) -> dict:
    graphs: dict[str, Graph] = {}
    items = []
    for i, g in enumerate(_batch_graphs(seed)):
        graphs[f"random{i}"] = g
        items.append(_item(f"random{i}", ["report", "dp"]))
    for k in (1, 2, 3):
        inst = k_c4(k)
        graphs[f"kc4_{k}"] = inst.graph
        items.append(_item(f"kc4_{k}", ["report", "dp"], tnp=inst.tnp, roman=inst.roman, gap=k))
    for n in range(3, ROMAN_BRUTE_CAP + 1):
        graphs[f"cycle{n}"] = cycle(n)
        tnp, roman = closed_form("cycle", n)
        items.append(_item(f"cycle{n}", ["report", "dp"], tnp=tnp, roman=roman))
    graphs["cold_width4"] = next(
        g for g, width in _batch_stream(COLD_BATCH_SEED) if width == max(BATCH_QUOTA)
    )
    items.append(_item("cold_width4", ["report", "dp"]))
    for name, g in graphs.items():
        if g.n > ROMAN_BRUTE_CAP:
            raise ValueError(f"{name} has n={g.n} above the roman_brute cap")
    return {
        "graphs": graphs,
        "items": items,
        "warmup": [{**it, "requests": ["dp"]} for it in items],
        "cold": "cold_width4.gr",
    }


_BUILDERS = {
    "tree_random": _tree_random,
    "small_batch": _small_batch,
}


def build(workload: str, seed: int) -> dict:
    """Manifest for one workload: graphs by name plus items, warmup, cold."""
    return _BUILDERS[workload](seed)
