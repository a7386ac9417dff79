import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tnpack
from tnpack import cli, duality, instances, treewidth
from tnpack.cli import main
from tnpack.duality import certify_tree
from tnpack.graph import Graph, RootedTree, read_graph, write_graph
from tnpack.instances import cycle, empty, path, random_tree
from tnpack.oracles import is_two_neighbour_packing


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out: str) -> dict:
    data = json.loads(out)
    data.pop("time_ms", None)
    return data


@pytest.fixture
def p6(tmp_path):
    target = tmp_path / "p6.gr"
    target.write_text(write_graph(path(6)))
    return str(target)


class TestSolve:
    def test_dp_on_path(self, capsys, p6):
        code, out, _ = run_cli(capsys, "solve", p6, "--method", "dp")
        assert code == 0
        data = report(out)
        assert data["value"] == 4 and data["verified"] is True

    def test_brute_on_cycle(self, capsys, tmp_path):
        f = tmp_path / "c4.gr"
        f.write_text(write_graph(cycle(4)))
        code, out, _ = run_cli(capsys, "solve", str(f), "--method", "brute")
        assert code == 0
        assert report(out)["value"] == 2

    def test_tree_certificate(self, capsys, p6):
        code, out, _ = run_cli(capsys, "solve", p6, "--method", "tree")
        assert code == 0
        data = report(out)
        cert = data["certificate"]
        assert cert["gamma_R"] == data["value"] == 4
        assert sum(cert["rdf"]) == len(cert["packing"]) == 4
        assert cert["verified"] is True

    def test_tree_method_rejects_cycles(self, capsys, tmp_path):
        f = tmp_path / "c5.gr"
        f.write_text(write_graph(cycle(5)))
        code, _, err = run_cli(capsys, "solve", str(f), "--method", "tree")
        assert code == 3
        assert "acyclic" in err

    def test_tree_method_rejects_cycle_with_tree_edge_count(self, capsys, tmp_path):
        f = tmp_path / "triangle_plus_one.gr"
        f.write_text(write_graph(Graph(4, [(0, 1), (1, 2), (0, 2)])))
        code, out, err = run_cli(capsys, "solve", str(f), "--method", "tree")
        assert code == 3 and out == ""
        assert "acyclic" in err
        code, _, err = run_cli(capsys, "solve", str(f), "--method", "tree", "--root", "99")
        assert code == 3 and "acyclic" in err

    def test_tree_method_root_out_of_range(self, capsys, p6):
        code, out, err = run_cli(capsys, "solve", p6, "--method", "tree", "--root", "99")
        assert code == 3 and out == ""
        assert "out of range" in err

    def test_tree_certificate_matches_to_json(self, capsys, tmp_path, p6):
        seeded = tmp_path / "t.gr"
        seeded.write_text(write_graph(random_tree(40, seed=9)))
        for file in (p6, str(seeded)):
            code, out, _ = run_cli(capsys, "solve", file, "--method", "tree")
            assert code == 0
            cert = certify_tree(RootedTree(read_graph(Path(file).read_text())))
            assert report(out)["certificate"] == json.loads(cert.to_json())

    def test_parse_failure_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.gr"
        f.write_text("p tw nope\n")
        code, _, err = run_cli(capsys, "solve", str(f))
        assert code == 2 and "error" in err

    def test_cap_exit_code(self, capsys, tmp_path):
        f = tmp_path / "big.gr"
        f.write_text(write_graph(empty(25)))
        code, _, err = run_cli(capsys, "solve", str(f), "--method", "brute")
        assert code == 4 and "cap" in err

    def test_witness_out(self, capsys, p6, tmp_path):
        target = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "solve", p6, "--witness-out", str(target))
        assert code == 0
        stored = json.loads(target.read_text())
        assert stored == {"value": 4, "witness": report(out)["witness"]}

    def test_supplied_td(self, capsys, p6, tmp_path):
        td = tmp_path / "p6.td"
        td.write_text("s td 5 2 6\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5\nb 5 5 6\n1 2\n2 3\n3 4\n4 5\n")
        code, out, _ = run_cli(capsys, "solve", p6, "--method", "dp", "--td", str(td))
        assert code == 0 and report(out)["value"] == 4

    def test_wrong_td_rejected(self, capsys, p6, tmp_path):
        td = tmp_path / "bad.td"
        td.write_text("s td 1 2 6\nb 1 1 2\n")  # misses vertices and edges
        code, _, err = run_cli(capsys, "solve", p6, "--method", "dp", "--td", str(td))
        assert code == 3 and "condition" in err

    def test_deterministic_output(self, capsys, p6):
        _, first, _ = run_cli(capsys, "solve", p6, "--method", "dp")
        _, second, _ = run_cli(capsys, "solve", p6, "--method", "dp")
        assert report(first) == report(second)

    def test_dp_checks_its_witness_once(self, capsys, p6, monkeypatch):
        checked = []

        def counted(g, packing):
            checked.append(sorted(packing))
            return is_two_neighbour_packing(g, packing)

        monkeypatch.setattr(cli, "is_two_neighbour_packing", counted)
        monkeypatch.setattr(treewidth, "is_two_neighbour_packing", counted)
        code, out, _ = run_cli(capsys, "solve", p6, "--method", "dp")
        data = report(out)
        assert code == 0 and data["verified"] is True
        assert checked == [data["witness"]]

    def test_dp_failed_witness_check_exits_1(self, capsys, p6, monkeypatch):
        monkeypatch.setattr(treewidth, "is_two_neighbour_packing", lambda g, packing: False)
        code, out, err = run_cli(capsys, "solve", p6, "--method", "dp")
        assert code == 1
        assert out == ""
        assert "invalid witness" in err


def fresh_process_report(*args) -> tuple[int, dict]:
    src = str(Path(tnpack.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "tnpack.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, report(done.stdout)


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        graph = tmp_path / "g.gr"
        graph.write_text(write_graph(cycle(7)))
        witness = tmp_path / "w.json"
        calls = [
            ("solve", str(graph), "--method", "brute", "--witness-out", str(witness)),
            ("solve", str(graph)),
            ("duality-report", str(graph)),
        ]
        fresh = [fresh_process_report(*argv) for argv in calls]
        fresh_witness = witness.read_text()
        witness.unlink()
        for _ in range(2):
            for argv, (fresh_code, fresh_report) in zip(calls, fresh):
                code, out, _ = run_cli(capsys, *argv)
                assert (code, report(out)) == (fresh_code, fresh_report)
                if "--witness-out" in argv:
                    assert witness.read_text() == fresh_witness
                    witness.unlink()
                else:
                    assert not witness.exists()
        assert [r.get("method") for _, r in fresh] == ["brute", "dp", "brute"]


class TestDualityReport:
    def test_two_c4_gap(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "generate", "--family", "kc4", "--k", "2", "-o", str(tmp_path / "g.gr")
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "duality-report", str(tmp_path / "g.gr"))
        data = report(out)
        assert (data["roman"], data["tnp"], data["gap"]) == (6, 4, 2)
        assert data["verified"] is True

    def test_tree_has_no_gap(self, capsys, tmp_path):
        f = tmp_path / "t.gr"
        f.write_text(write_graph(random_tree(17, seed=5)))
        code, out, _ = run_cli(capsys, "duality-report", str(f))
        assert code == 0
        data = report(out)
        assert data["gap"] == 0 and data["method"] == "tree"

    def test_tree_route_trusts_the_certificate_checks(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "t.gr"
        f.write_text(write_graph(random_tree(17, seed=5)))
        checked = []
        for name in ("is_roman_dominating", "is_two_neighbour_packing"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: checked.append(name))
        monkeypatch.setattr(duality, "is_two_neighbour_packing", lambda g, packing: False)
        code, out, _ = run_cli(capsys, "duality-report", str(f))
        data = report(out)
        assert code == 1
        assert data["method"] == "tree" and data["verified"] is False
        assert checked == []

    def test_cycle_with_tree_edge_count_uses_brute(self, capsys, tmp_path):
        f = tmp_path / "triangle_plus_one.gr"
        f.write_text(write_graph(Graph(4, [(0, 1), (1, 2), (0, 2)])))
        code, out, _ = run_cli(capsys, "duality-report", str(f))
        assert code == 0
        data = report(out)
        assert data["method"] == "brute" and data["verified"] is True

    def test_k24(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate", "--family", "multipartite", "--parts", "2,4",
            "-o", str(tmp_path / "k.gr"),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "duality-report", str(tmp_path / "k.gr"))
        data = report(out)
        assert (data["tnp"], data["roman"], data["gap"]) == (2, 3, 1)


def generate_family_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["generate"]._actions if a.dest == "family").choices


# family -> (extra arguments, graph, sidecar params); the sidecar's expected
# values are instances.expected_values(family, params)
GENERATE_CASES = {
    "path": (["--n", "7"], lambda: instances.path(7), {"n": 7}),
    "cycle": (["--n", "9"], lambda: instances.cycle(9), {"n": 9}),
    "complete": (["--n", "5"], lambda: instances.complete(5), {"n": 5}),
    "empty": (["--n", "4"], lambda: instances.empty(4), {"n": 4}),
    "star": (["--n", "6"], lambda: instances.star(6), {"n": 6}),
    "multipartite": (
        ["--parts", "2,3"], lambda: instances.complete_multipartite([2, 3]), {"parts": [2, 3]}
    ),
    "gap": (["--n", "4"], lambda: instances.gap_family(4).graph, {"n": 4}),
    "kc4": (["--k", "2"], lambda: instances.k_c4(2).graph, {"k": 2}),
    "random-tree": (
        ["--n", "12", "--seed", "3"], lambda: instances.random_tree(12, 3), {"n": 12, "seed": 3}
    ),
    "random-graph": (
        ["--n", "10", "--p", "0.3", "--seed", "7"],
        lambda: instances.random_graph(10, 0.3, 7),
        {"n": 10, "p": 0.3, "seed": 7},
    ),
}


class TestGenerate:
    def test_cases_cover_every_family(self):
        assert set(GENERATE_CASES) == set(generate_family_choices())

    @pytest.mark.parametrize("family", sorted(GENERATE_CASES))
    def test_writes_builder_graph_and_sidecar(self, capsys, tmp_path, family):
        extra, build, params = GENERATE_CASES[family]
        out_file = tmp_path / "g.gr"
        code, out, _ = run_cli(capsys, "generate", "--family", family, *extra, "-o", str(out_file))
        assert code == 0
        g = build()
        assert out_file.read_text() == write_graph(g)
        expected = instances.expected_values(family, params)
        sidecar = json.loads((tmp_path / "g.json").read_text())
        assert sidecar == {"family": family, "params": params, "expected": expected}
        data = json.loads(out)
        assert (data["n"], data["m"], data["expected"]) == (g.n, g.m, expected)

    def test_gap_sidecar(self, capsys, tmp_path):
        out_file = tmp_path / "gap4.gr"
        code, out, _ = run_cli(
            capsys, "generate", "--family", "gap", "--n", "4", "-o", str(out_file)
        )
        assert code == 0
        g = read_graph(out_file.read_text())
        assert g.n == 8
        sidecar = json.loads((tmp_path / "gap4.json").read_text())
        assert sidecar["expected"]["tnp"] == 2

    def test_cycle_sidecar(self, capsys, tmp_path):
        out_file = tmp_path / "c9.gr"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "cycle", "--n", "9", "-o", str(out_file)
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "c9.json").read_text())
        assert sidecar["expected"] == {"tnp": 6, "roman": 6}

    def test_random_graph_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "r.gr"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "random-graph", "--n", "10", "--p", "0.3",
            "--seed", "7", "-o", str(out_file),
        )
        assert code == 0
        g = read_graph(out_file.read_text())
        assert g.n == 10

    def test_missing_parameter(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--family", "path", "-o", str(tmp_path / "x.gr")
        )
        assert code == 3 and "--n" in err

    def test_bad_parameter(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate", "--family", "cycle", "--n", "2", "-o", str(tmp_path / "x.gr")
        )
        assert code == 3


class TestReduce:
    def test_offset_sidecar(self, capsys, tmp_path):
        source = tmp_path / "g.gr"
        source.write_text(write_graph(cycle(4)))
        out_file = tmp_path / "h.gr"
        code, out, _ = run_cli(capsys, "reduce", str(source), "-o", str(out_file))
        assert code == 0
        assert report(out)["offset"] == 12
        h = read_graph(out_file.read_text())
        assert h.n == 4 + 5 * 4
        sidecar = json.loads((tmp_path / "h.json").read_text())
        assert sidecar["offset"] == 12


class TestExportLp:
    def test_writes_parseable_model(self, capsys, p6, tmp_path):
        out_file = tmp_path / "p6.lp"
        code, out, _ = run_cli(
            capsys, "export-lp", p6, "--problem", "dual", "--integer", "-o", str(out_file)
        )
        assert code == 0
        data = report(out)
        assert data["variables"] == 6 and data["constraints"] == 6
        text = out_file.read_text()
        assert text.startswith("Maximize") and text.endswith("End\n")

    def test_relaxed_primal(self, capsys, p6, tmp_path):
        out_file = tmp_path / "p6.lp"
        code, _, _ = run_cli(
            capsys, "export-lp", p6, "--problem", "primal", "--relax", "-o", str(out_file)
        )
        assert code == 0
        assert "Binary" not in out_file.read_text()
