"""The bulk .gr parser against the line-by-line reader it replaced.

``reference_read_graph`` is that reader, kept here as the specification:
every graph, every arc array, and every ParseError (message and line) of
``read_graph`` must equal its result on the same text.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnpack import graph as graph_module
from tnpack.errors import ParseError
from tnpack.graph import Graph, read_graph, write_graph
from tnpack.instances import path, random_graph, random_tree, star


def reference_read_graph(text: str) -> Graph:
    """One line at a time: the .gr grammar and its error lines."""
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
    return Graph(n, edges)


def outcome(parse, text: str):
    """What a parser makes of text: the graph's shape and arcs, or its error."""
    try:
        g = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    src, dst = g.arcs()
    return ("graph", g.n, g.m, g.adj, src.tolist(), dst.tolist())


def assert_same(text: str) -> None:
    assert outcome(read_graph, text) == outcome(reference_read_graph, text), repr(text)


# pieces the mutations below splice into a file
NOISE = (
    "c a comment",
    "c",
    "cat 1 2",
    "",
    "   ",
    "\t",
    "c\t1 2 3",
    "p tw 3 2",
    "p tw 3",
    "p td 3 2",
    "p tw x 2",
    "p tw -1 0",
    "p tw 3 -2",
    "p",
    "1",
    "1 2 3",
    "+1 2",
    "1 +2",
    "1_0 2",
    "١ 2",
    "2 ٣",
    "１ ２",
    "-1 2",
    "1 2.0",
    "0x1 2",
    "1\x1f2",
    "1 2",
    "　1 2",
    "01 002",
    "1 2 c",
    "12345678901234567890 1",
    "1 000000000000000000002",
    "x",
)
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ")


def edge_lines(g: Graph) -> list[str]:
    return write_graph(g).splitlines()


def mutate(lines: list[str], rng: random.Random) -> list[str]:
    lines = list(lines)
    n = int(lines[0].split()[2]) if lines and lines[0].startswith("p tw ") else 3
    for _ in range(rng.randint(1, 3)):
        what = rng.randrange(10)
        at = rng.randint(0, len(lines))
        if what == 0:
            lines.insert(at, rng.choice(NOISE))
        elif what == 1 and len(lines) > 1:
            # move the header below some edge lines, or repeat it
            header = lines.pop(0) if rng.random() < 0.5 else lines[0]
            lines.insert(rng.randint(1, len(lines)), header)
        elif what == 2 and len(lines) > 1:
            # a repeat of an edge line, either way round
            tokens = rng.choice(lines[1:]).split()
            if len(tokens) == 2:
                u, v = tokens if rng.random() < 0.5 else tokens[::-1]
                lines.insert(at, f"{u} {v}")
        elif what == 3:
            lines.insert(at, f"{rng.choice((0, n + 1, 1))} {rng.randint(1, n + 1)}")
        elif what == 4:
            x = rng.randint(1, max(n, 1))
            lines.insert(at, f"{x} {x}")
        elif what == 5 and lines:
            # a wrong edge count in the header
            parts = lines[0].split()
            if len(parts) == 4:
                parts[3] = str(int(parts[3]) + rng.choice((-1, 1)))
                lines[0] = " ".join(parts)
        elif what == 6 and len(lines) > 1:
            # blanks and tabs around and between the tokens
            i = rng.randrange(1, len(lines))
            pad = ("", " ", "\t", " \t ")
            lines[i] = rng.choice(pad) + rng.choice((" ", "\t", "  \t")).join(
                lines[i].split()
            ) + rng.choice(pad)
        elif what == 7 and len(lines) > 1:
            lines.pop(rng.randrange(1, len(lines)))
        elif what == 8 and len(lines) > 1:
            # one token of an edge line in a form int() reads differently
            i = rng.randrange(1, len(lines))
            parts = lines[i].split()
            if parts:
                j = rng.randrange(len(parts))
                parts[j] = rng.choice(("+", "0", "")) + parts[j]
                if rng.random() < 0.3 and len(parts[j]) > 1:
                    parts[j] = parts[j][0] + "_" + parts[j][1:]
                lines[i] = " ".join(parts)
        else:
            lines.insert(at, "")
    return lines


def join(lines: list[str], rng: random.Random) -> str:
    if not lines:
        return ""
    breaks = [rng.choice(BREAKS) if rng.random() < 0.2 else "\n" for _ in lines]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if rng.random() < 0.8 else text.rstrip("\n")


BASES = [
    path(1),
    path(2),
    path(7),
    star(6),
    Graph(0),
    Graph(4),
    random_tree(12, seed=3),
    random_graph(9, 0.4, seed=5),
    random_graph(14, 0.3, seed=8),
]


KINDS = {
    "graph",
    "duplicate header",
    "duplicate edge",
    "malformed header",
    "malformed edge",
    "non-integer header",
    "non-integer edge",
    "negative counts",
    "edge line",
    "vertex id",
    "self-loop at",
    "header declares",
    "missing 'p",
}


class TestAgainstReference:
    def test_seeded_mutation_corpus(self):
        rng = random.Random(1009)
        kinds = set()
        for case in range(3000):
            base = edge_lines(BASES[case % len(BASES)])
            text = join(mutate(base, rng), rng)
            assert_same(text)
            result = outcome(reference_read_graph, text)
            if result[0] == "graph":
                kinds.add("graph")
            else:
                kinds.add(" ".join(result[1].split(": ", 1)[-1].split()[:2]))
        # the corpus reaches every outcome of the grammar
        assert kinds == KINDS

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "p tw 0 0",
            "p tw 0 0\n",
            "p tw 0 1\n1 1\n",
            "p tw 3 0\n",
            "p tw 3 1\n1 2",
            "p tw 3 1\r\n1 2\r\n",
            "p tw 3 1\r1 2\r",
            "p tw 3 1\n\t1\t2\t\n",
            "c x\np tw 3 1\nc y\n1 2\n",
            "1 2\np tw 3 1\n",
            "p tw 3 1\n1 2\np tw 3 1\n",
            "p tw 3 2\n1 2\n2 1\n",
            "p tw 3 2\n1 2\n1 2\n",
            "p tw 3 1\n0 2\n",
            "p tw 3 1\n1 4\n",
            "p tw 3 1\n2 2\n",
            "p tw 3 1\n4 4\n",
            "p tw 3 1\n1\n",
            "p tw 3 1\n1 2 3\n",
            "p tw 3 1\n+1 2\n",
            "p tw 20 1\n1_0 2\n",
            "p tw 3 1\n١ ٢\n",
            "p tw 3 2\n١ ٢\n2 1\n",
            "p tw 3 2\n2 1\n١ ٢\n",
            "p tw 3 1\n1\x1f2\n",
            "p tw 3 1\n1 2\n",
            "p tw 3 1\n01 002\n",
            "p tw 3 2\n1 2\n",
            "p tw 3 0\n1 2\n",
            "p tw 3 1\n99999999999999999999 1\n",
            "p tw 99999999999999999999 2\n1 +99999999999999999999\n99999999999999999999 1\n",
            "p tw 99999999999999999999 2\n1 2\n1 2\n",
            "p tw 99999999999999999999 2\n1 2\n2 2\n",
            "p tw 3 1\n1 2\n0 0\n",
            "p tw 3 2\n1 2\n3 3\n2 1\n",
            "p tw 3 3\n1 2\n2 1\n9 9\n",
            "p tw 5 3\n1 2\n3 4\n\n2 1\nx\n",
            "p tw 5 1\n1 2\np tw\n",
            "p tw 3 1\nc\n  \n1 2\n",
            "p tw 3 1\n1 2\ud800\n",
            "p tw 3 1\n\ud800\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_same(text)

    def test_large_tree_and_its_corruptions(self):
        g = random_tree(5000, seed=11)
        lines = edge_lines(g)
        assert_same("\n".join(lines) + "\n")
        rng = random.Random(7)
        for _ in range(20):
            assert_same(join(mutate(lines, rng), rng))

    def test_repeats_far_apart(self):
        lines = edge_lines(random_tree(300, seed=2))
        # the later of two copies is the offending line, whichever way round
        for first, second in ((5, 290), (290, 5), (150, 151)):
            u, v = lines[first].split()
            text = lines[: second + 1] + [f"{v} {u}"] + lines[second + 1 :]
            text[0] = f"p tw 300 {len(text) - 1}"
            assert_same("\n".join(text))


class TestArcs:
    def test_parse_seeds_read_only_arcs(self):
        g = read_graph(write_graph(random_graph(30, 0.2, seed=4)))
        src, dst = g.arcs()
        assert src.dtype == dst.dtype == np.int64
        assert not src.flags.writeable and not dst.flags.writeable
        rebuilt = Graph(g.n, g.edges()).arcs()
        assert src.tolist() == rebuilt[0].tolist() and dst.tolist() == rebuilt[1].tolist()

    def test_vertex_count_past_the_key_range_is_out_of_memory_after_the_checks(
        self, monkeypatch
    ):
        # a small stand-in for the int64 limit keeps any regression small
        monkeypatch.setattr(graph_module, "_MAX_N", 5)
        with pytest.raises(MemoryError):
            read_graph("p tw 8 1\n1 2\n")
        with pytest.raises(MemoryError):
            read_graph("p tw 8 2\n7 8\n6 8\n")
        with pytest.raises(ParseError, match="line 3: duplicate edge \\(8, 7\\)"):
            read_graph("p tw 8 2\n7 8\n8 7\n")
        with pytest.raises(ParseError, match="line 2: self-loop at vertex 8"):
            read_graph("p tw 8 1\n8 8\n")
        with pytest.raises(ParseError, match="line 2: vertex id out of range"):
            read_graph("p tw 8 1\n9 1\n")


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, chosen)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_write_then_read_round_trip(g):
    text = write_graph(g)
    back = read_graph(text)
    assert back == g and back.m == g.m
    assert outcome(read_graph, text) == outcome(reference_read_graph, text)
