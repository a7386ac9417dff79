import json
from itertools import product

import pytest

import tnpack.duality
from tnpack.duality import (
    NormalizationViolation,
    _Normalizer,
    build_packing,
    certify_tree,
    check_normalized_rdf,
    normalize_rdf,
    roman_tree_dp,
)
from tnpack.errors import PreconditionError
from tnpack.graph import Graph, RootedTree
from tnpack.instances import path, random_tree, star
from tnpack.oracles import (
    RomanFunction,
    is_roman_dominating,
    is_two_neighbour_packing,
    roman_brute,
    tnp_brute,
)
from tnpack.treewidth import solve


class TestRomanTreeDp:
    def test_path4(self):
        assert roman_tree_dp(RootedTree(path(4))).value == 3

    def test_star(self):
        assert roman_tree_dp(RootedTree(star(5))).value == 2

    def test_single_vertex(self):
        result = roman_tree_dp(RootedTree(Graph(1)))
        assert result.value == 1
        assert result.witness.labels == (1,)

    def test_witness_verifies(self):
        for i in range(20):
            g = random_tree(1 + i * 2, seed=100 + i)
            result = roman_tree_dp(RootedTree(g))
            assert is_roman_dominating(g, result.witness)
            assert result.witness.weight == result.value

    def test_matches_brute(self):
        for i in range(100):
            n = 1 + (i * 7) % 14
            g = random_tree(n, seed=300 + i)
            assert roman_tree_dp(RootedTree(g)).value == roman_brute(g).value, (i, n)

    def test_root_independent_value(self):
        g = random_tree(17, seed=424)
        values = {roman_tree_dp(RootedTree(g, r)).value for r in range(g.n)}
        assert len(values) == 1


def labelled_trees(n: int):
    """Every labelled tree on n vertices, decoded from its Pruefer sequence."""
    if n <= 2:
        yield Graph(n, [(0, 1)] if n == 2 else [])
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = degree.index(1)  # the lowest leaf
            edges.append((leaf, x))
            degree[leaf] = 0
            degree[x] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        yield Graph(n, edges)


class TestDpWitnessIsNormalized:
    """roman_tree_dp's tie rules put its witness in normal form, which is
    why certify_tree checks that witness instead of normalizing it. These
    fail if the DP prefers label 1 or 0 on any tie."""

    @staticmethod
    def assert_normalized(g: Graph, root: int) -> None:
        t = RootedTree(g, root)
        f = roman_tree_dp(t).witness
        assert check_normalized_rdf(t, f) == [], (g.adj, root)
        assert normalize_rdf(t, f).labels == f.labels, (g.adj, root)

    def test_every_labelled_tree_up_to_six_at_every_root(self):
        rooted = 0
        for n in range(1, 7):
            for g in labelled_trees(n):
                for root in range(n):
                    self.assert_normalized(g, root)
                    rooted += 1
        assert rooted == 8477

    def test_tree_suite_at_three_roots(self, tree_suite):
        for g in tree_suite:
            for root in sorted({0, g.n // 2, g.n - 1}):
                self.assert_normalized(g, root)


class TestNormalizeRdf:
    def test_adjacent_ones_merge(self):
        out = normalize_rdf(RootedTree(path(2), 0), RomanFunction((1, 1)))
        assert out.labels == (2, 0)

    def test_fixed_point_returned_unchanged(self):
        t = RootedTree(path(3), 1)
        f = RomanFunction((0, 2, 0))
        assert normalize_rdf(t, f).labels == f.labels

    def test_rejects_non_dominating_input(self):
        with pytest.raises(PreconditionError, match="not a Roman"):
            normalize_rdf(RootedTree(path(3)), RomanFunction((0, 1, 0)))

    def test_rejects_suboptimal_input(self):
        with pytest.raises(PreconditionError, match="minimum"):
            normalize_rdf(RootedTree(path(3)), RomanFunction((1, 1, 1)))

    def test_weight_preserved_everywhere(self, tree_suite):
        for g in tree_suite[:150]:
            t = RootedTree(g)
            f = roman_tree_dp(t).witness
            out = normalize_rdf(t, f)
            assert out.weight == f.weight
            assert is_roman_dominating(g, out)
            assert check_normalized_rdf(t, out) == []

    def test_forced_self_selection_counterexample(self):
        # the three properties alone admit this labelling, whose selection
        # would overfill a closed neighbourhood; normalization must rewrite it
        g = Graph(7, [(0, 4), (0, 6), (1, 2), (1, 5), (3, 6), (4, 5)])
        t = RootedTree(g, 0)
        f = RomanFunction((0, 0, 1, 0, 0, 2, 2))
        assert f.weight == roman_brute(g).value
        out = normalize_rdf(t, f, debug=True)
        packing = build_packing(t, out)
        assert len(packing) == f.weight
        assert is_two_neighbour_packing(g, packing)

    def test_all_optimal_labellings_of_small_trees(self):
        for i in range(25):
            n = 2 + (i * 37) % 8
            g = random_tree(n, seed=5000 + i)
            opt = roman_brute(g).value
            candidates = [
                RomanFunction(labels)
                for labels in product((0, 1, 2), repeat=n)
                if sum(labels) == opt
                and is_roman_dominating(g, RomanFunction(labels))
            ]
            for root in range(0, n, 2):
                t = RootedTree(g, root)
                for f in candidates:
                    out = normalize_rdf(t, f, debug=True)
                    assert check_normalized_rdf(t, out) == []
                    assert len(build_packing(t, out)) == opt

    def test_step_count_stays_linear(self, tree_suite):
        for g in tree_suite[:150]:
            t = RootedTree(g)
            f = roman_tree_dp(t).witness
            normalizer = _Normalizer(t, list(f.labels), debug=False)
            while normalizer.run():
                pass
            assert normalizer.steps <= 2 * g.n


class TestCheckNormalizedRdf:
    def test_clean_middle_rooted_path(self):
        t = RootedTree(path(3), 1)
        assert check_normalized_rdf(t, RomanFunction((0, 2, 0))) == []

    def test_two_ones_flagged(self):
        t = RootedTree(path(2), 0)
        violations = check_normalized_rdf(t, RomanFunction((1, 1)))
        assert [(v.property_id, v.vertex) for v in violations] == [(1, 0)]

    def test_two_with_too_few_subtree_privates(self):
        # leaf labelled 2 whose only private neighbours sit above it
        t = RootedTree(path(2), 1)
        violations = check_normalized_rdf(t, RomanFunction((2, 0)))
        assert any(v.property_id == 2 and v.vertex == 0 for v in violations)

    def test_star_rootings(self):
        # the centre keeps two subtree privates under every rooting
        g = star(3)
        f = RomanFunction((2, 0, 0, 0))
        for root in range(4):
            assert check_normalized_rdf(RootedTree(g, root), f) == []

    def test_constrained_pair_flagged(self):
        t = RootedTree(star(3), 0)
        violations = check_normalized_rdf(t, RomanFunction((0, 1, 1, 0)))
        assert any(v.property_id == 3 and v.vertex == 0 for v in violations)


class TestBuildPacking:
    def test_middle_rooted_path(self):
        t = RootedTree(path(3), 1)
        assert build_packing(t, RomanFunction((0, 2, 0))) == {0, 2}

    def test_single_vertex(self):
        assert build_packing(RootedTree(Graph(1)), RomanFunction((1,))) == {0}

    def test_precondition_names_property(self):
        with pytest.raises(PreconditionError, match=r"property \(1\)"):
            build_packing(RootedTree(path(2), 0), RomanFunction((1, 1)))

    def test_random_trees_end_to_end(self, tree_suite):
        for g in tree_suite[:120]:
            t = RootedTree(g)
            dp = roman_tree_dp(t)
            packing = build_packing(t, normalize_rdf(t, dp.witness))
            assert len(packing) == dp.value
            assert is_two_neighbour_packing(g, packing)


class TestCertifyTree:
    def test_path7(self):
        cert = certify_tree(RootedTree(path(7)))
        assert cert.value == 5 and cert.verified

    def test_star9(self):
        cert = certify_tree(RootedTree(star(9)))
        assert cert.value == 2 and len(cert.packing) == 2

    def test_matches_treewidth_solver(self):
        g = random_tree(25, seed=777)
        cert = certify_tree(RootedTree(g))
        assert cert.verified
        assert cert.value == solve(g).value

    def test_matches_brutes_on_small_trees(self, tree_suite):
        for g in tree_suite[:80]:
            if g.n > 13:
                continue
            cert = certify_tree(RootedTree(g))
            assert cert.value == roman_brute(g).value == tnp_brute(g).value

    def test_json_shape(self):
        cert = certify_tree(RootedTree(path(4)))
        payload = json.loads(cert.to_json())
        assert payload == {
            "n": 4,
            "root": 0,
            "gamma_R": 3,
            "rdf": list(cert.rdf.labels),
            "packing": sorted(cert.packing),
            "verified": True,
        }

    def test_one_dp_and_one_check_per_witness(self, monkeypatch):
        counted = (
            "roman_tree_dp",
            "is_roman_dominating",
            "check_normalized_rdf",
            "is_two_neighbour_packing",
        )
        calls = dict.fromkeys(counted, 0)

        def counting(name):
            fn = getattr(tnpack.duality, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in counted:
            monkeypatch.setattr(tnpack.duality, name, counting(name))
        for g in (path(7), random_tree(60, seed=31)):
            calls.update(dict.fromkeys(counted, 0))
            assert certify_tree(RootedTree(g)).verified
            assert calls == {
                "roman_tree_dp": 1,
                "is_roman_dominating": 1,
                "check_normalized_rdf": 1,
                "is_two_neighbour_packing": 1,
            }

    def test_never_normalizes(self, tree_suite, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_Normalizer constructed")

        monkeypatch.setattr(tnpack.duality, "_Normalizer", refuse)
        for g in [*tree_suite, random_tree(20000, seed=32)]:
            assert certify_tree(RootedTree(g)).verified

    def test_unnormalized_witness_raises(self, monkeypatch):
        monkeypatch.setattr(
            tnpack.duality,
            "check_normalized_rdf",
            lambda tree, f: [NormalizationViolation(1, 0)],
        )
        with pytest.raises(RuntimeError, match="not normalized"):
            certify_tree(RootedTree(path(5)))

    def test_selected_privates_distinct(self, tree_suite):
        # |packing| equals the weight, so no private neighbour was reused
        for g in tree_suite[:60]:
            cert = certify_tree(RootedTree(g))
            assert len(cert.packing) == cert.rdf.weight
