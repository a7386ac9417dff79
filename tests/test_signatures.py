"""The compact chain signatures of treewidth._signatures against the int64
ones they replaced.

``reference_signatures`` is that derivation, kept as the specification: one
row of int64 fields per node (child size, child-in-parent mask,
parent-in-child mask, parent size, parent adjacency masks padded with
zeros), keyed by the row's bytes. The compact rows hold the same fields in
the smallest unsigned dtype that holds 2**width, so the two keyings must
split the nodes into the same classes, and ``_chain_template`` must give a
compact key the steps it gives the int64 key at item size 8.
"""

from __future__ import annotations

import numpy as np
import pytest

from tnpack import treewidth as tw
from tnpack.decomposition import (
    check_decomposition,
    decompose_heuristic,
    read_td,
    root_forest,
)
from tnpack.graph import Graph
from tnpack.instances import k_c4, path


def reference_signatures(g: Graph, vertices: np.ndarray, sizes: np.ndarray, parent) -> tuple:
    """Each node's edge and leaf signature as int64 rows, keyed by bytes."""
    count, width = vertices.shape
    n = g.n
    positions = np.arange(width, dtype=np.int64)
    bits = 1 << positions
    weights = np.stack((np.repeat(bits, width), np.tile(bits, width)), axis=1)
    first, second = np.triu_indices(width, 1)
    pairs = np.arange(len(first))
    pair_bits = np.zeros((len(first), width), dtype=np.int64)
    pair_bits[pairs, first] = bits[second]
    pair_bits[pairs, second] = bits[first]
    row = np.dtype((np.void, 8 * (4 + width)))
    valid = positions < sizes[:, None]
    src, dst = g.arcs()
    keys = np.empty(len(src) + 1, dtype=np.int64)
    np.multiply(src, n + 1, out=keys[:-1])
    keys[:-1] += dst
    keys[-1] = (n + 1) ** 2
    pair_keys = vertices[:, first] * (n + 1) + vertices[:, second]
    adjacent = keys[keys.searchsorted(pair_keys)] == pair_keys
    rows = np.empty((2, count, 4 + width), dtype=np.int64)
    rows[1, :, :3] = 0
    rows[1, :, 3] = sizes
    rows[1, :, 4:] = adjacent @ pair_bits
    ups = np.asarray(parent, dtype=np.int64)
    same = vertices[:, :, None] == vertices[ups][:, None, :]
    same &= valid[:, :, None]
    rows[0, :, 0] = sizes
    rows[0, :, 1:3] = same.reshape(count, -1) @ weights
    rows[0, :, 3:] = rows[1, ups, 3:]
    sig_keys = rows.view(row).ravel().tolist()
    return sig_keys[:count], sig_keys[count:]


def grid(rows: int, cols: int) -> Graph:
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, edges)


def evaluator_inputs(g: Graph, td, monkeypatch) -> tuple:
    """``(g, vertices, sizes, parent)`` as the evaluator receives them: from
    root_forest without a decomposition, else from compute_tables, whose
    evaluation is skipped."""
    if td is None:
        _, parent, _, _, vertices, sizes = root_forest(g)
    else:
        with monkeypatch.context() as m:
            m.setattr(tw, "_evaluate", lambda *args: args)
            _, _, parent, _, _, vertices, sizes = tw.compute_tables(g, td)
    return g, vertices, sizes, parent


def assert_keys_match_reference(g: Graph, td, monkeypatch) -> int:
    """The compact keys match the reference's classes and templates; returns
    their item size."""
    args = evaluator_inputs(g, td, monkeypatch)
    up, leaf, itemsize = tw._signatures(*args)
    want_up, want_leaf = reference_signatures(*args)
    keys = up + leaf
    want = want_up + want_leaf
    assert len(keys) == len(want) == 2 * len(args[3])
    assert all(type(k) is bytes for k in keys)
    # the same classes: the pairing is one to one
    classes = set(zip(keys, want))
    assert len(classes) == len(set(keys)) == len(set(want))
    width = args[1].shape[1]
    assert itemsize == np.min_scalar_type(1 << width).itemsize
    assert {len(k) for k in keys} == {itemsize * (4 + width)}
    for key, ref in classes:
        assert tw._chain_template(key, itemsize) == tw._chain_template(ref, 8)
    return itemsize


def test_dp_suite(dp_suite, monkeypatch):
    for g in dp_suite:
        if g.n:
            td = None if g.is_forest() else decompose_heuristic(g)
            assert assert_keys_match_reference(g, td, monkeypatch) == 1


def test_tree_suite(tree_suite, monkeypatch):
    for g in tree_suite:
        assert assert_keys_match_reference(g, None, monkeypatch) == 1


@pytest.mark.parametrize("rows", [3, 4, 5])
def test_grids(rows, monkeypatch):
    g = grid(rows, 40)
    assert assert_keys_match_reference(g, decompose_heuristic(g), monkeypatch) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_kc4(k, monkeypatch):
    g = k_c4(k).graph
    assert assert_keys_match_reference(g, decompose_heuristic(g), monkeypatch) == 1


def test_eight_vertex_bags_take_two_byte_fields(monkeypatch):
    # the 6x12 grid's min-fill decomposition has 8-vertex bags, and uint8
    # does not hold 2**8, so its fields take two bytes
    g = grid(6, 12)
    td = decompose_heuristic(g)
    assert td.width == 7
    assert assert_keys_match_reference(g, td, monkeypatch) == 2


@pytest.mark.parametrize(
    "g,text",
    [
        # two empty leaves under the one bag of an edge
        (path(2), "s td 3 2 2\nb 1 1 2\nb 2\nb 3\n1 2\n1 3\n"),
        # an empty bag between two bags, and an empty leaf at each end
        (
            Graph(4, [(0, 1), (2, 3)]),
            "s td 5 2 4\nb 1\nb 2 1 2\nb 3\nb 4 3 4\nb 5\n1 2\n2 3\n3 4\n4 5\n",
        ),
    ],
)
def test_user_decompositions_with_empty_bags(g, text, monkeypatch):
    td = read_td(text)
    check_decomposition(g, td)
    assert not all(td.bags)
    assert assert_keys_match_reference(g, td, monkeypatch) == 1
