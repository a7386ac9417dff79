"""In-memory spans around tnpack's layer functions, for the traced run.

Each target below is a module attribute that the real caller looks up at
call time (``tnpack.cli`` calls ``read_graph`` through its own namespace,
``tnpack.treewidth.solve`` calls ``compute_tables`` through its own, and so
on), so replacing the attribute puts a span exactly on the request path and
spans nest as the calls do. Nothing in the package changes.

A span records its name, start, end, parent span and request id. A layer's
self time is its span's duration minus the durations of its child spans; the
request span's self time is what the CLI spends outside every wrapped layer.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer)
TARGETS = (
    ("tnpack.cli", "read_graph", "graph.read_graph"),
    ("tnpack.cli", "RootedTree", "graph.rooted_tree"),
    ("tnpack.treewidth", "decompose_tree", "decomposition.decompose"),
    ("tnpack.treewidth", "decompose_heuristic", "decomposition.decompose"),
    ("tnpack.treewidth", "make_nice", "decomposition.make_nice"),
    ("tnpack.cli", "make_nice", "decomposition.make_nice"),
    ("tnpack.treewidth", "compute_tables", "treewidth.tables"),
    ("tnpack.treewidth", "trace_entry", "treewidth.trace"),
    ("tnpack.treewidth", "is_two_neighbour_packing", "oracles.verify"),
    ("tnpack.cli", "is_two_neighbour_packing", "oracles.verify"),
    ("tnpack.cli", "is_roman_dominating", "oracles.verify"),
    ("tnpack.duality", "is_two_neighbour_packing", "oracles.verify"),
    ("tnpack.duality", "is_roman_dominating", "oracles.verify"),
    ("tnpack.cli", "roman_brute", "oracles.roman_brute"),
    ("tnpack.cli", "tnp_brute", "oracles.tnp_brute"),
    ("tnpack.duality", "roman_tree_dp", "duality.roman_tree_dp"),
    ("tnpack.duality", "normalize_rdf", "duality.normalize_rdf"),
    ("tnpack.duality", "build_packing", "duality.build_packing"),
)
REQUEST = "cli.request"
COUNTING = "trace.counts"
LAYERS = tuple(sorted({layer for _, _, layer in TARGETS})) + ("cli.self",)

WIDTH = "decomposition.width"
NODE_KINDS = ("leaf", "introduce", "forget", "join")
COUNTS = (
    WIDTH,
    *(f"decomposition.nodes_{kind}" for kind in NODE_KINDS),
    "treewidth.table_entries",
    "treewidth.join_entries",
    "oracles.roman_brute_steps",
    "oracles.tnp_brute_steps",
    "duality.roman_tree_dp_calls",
)


def _count_nice(counts: Counter, ntd) -> None:
    # make_nice's result fixes every table the DP fills: one of 5^|bag|
    # entries per node
    from tnpack.decomposition import KIND_NAMES

    counts[WIDTH] = max(counts[WIDTH], ntd.width)
    for kind, number in Counter(ntd.kinds).items():
        counts[f"decomposition.nodes_{KIND_NAMES[kind]}"] += number
    join = KIND_NAMES.index("join")
    for (kind, size), number in Counter(zip(ntd.kinds, map(len, ntd.bags))).items():
        counts["treewidth.table_entries"] += number * 5**size
        if kind == join:
            counts["treewidth.join_entries"] += number * 5**size


def _count_steps(key):
    def hook(counts: Counter, result) -> None:
        counts[key] += result.steps

    return hook


def _count_call(counts: Counter, result) -> None:
    counts["duality.roman_tree_dp_calls"] += 1


HOOKS = {
    "decomposition.make_nice": _count_nice,
    "oracles.roman_brute": _count_steps("oracles.roman_brute_steps"),
    "oracles.tnp_brute": _count_steps("oracles.tnp_brute_steps"),
    "duality.roman_tree_dp": _count_call,
}


class Tracer:
    """Collects spans and per-request counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[int, Counter] = {}
        self._open: list[int] = []
        self._request: int | None = None

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self._request])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _wrap(self, layer: str, fn):
        hook = HOOKS.get(layer)

        def traced(*args, **kwargs):
            index = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None and self._request is not None:
                index = self._enter(COUNTING)
                hook(self.counts[self._request], result)
                self._exit(index)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"spans: {module_name}.{attr} not found, not traced", file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def request(self, request_id: int):
        """Span one CLI request; spans opened inside carry its id."""
        self._request = request_id
        self.counts[request_id] = Counter()
        index = self._enter(REQUEST)
        try:
            yield
        finally:
            self._exit(index)
            self._request = None

    def self_times(self) -> dict[int, Counter]:
        """Per request id: seconds of self time by layer, the request span's
        own share under "cli.self", plus its whole duration under REQUEST."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        per_request: dict[int, Counter] = {}
        for (name, start, end, _, request), seconds in zip(self.spans, own):
            totals = per_request.setdefault(request, Counter())
            if name == REQUEST:
                totals["cli.self"] += seconds
                totals[REQUEST] += end - start
            else:
                totals[name] += seconds
        return per_request

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                }
                out.write(json.dumps(record) + "\n")
