from itertools import combinations

import pytest

from tnpack.graph import Graph
from tnpack.instances import (
    FAMILIES,
    SplitMix64,
    complete,
    complete_multipartite,
    cycle,
    empty,
    expected_values,
    extract_independent_set,
    gap_family,
    independent_set_brute,
    k_c4,
    no_packing_of_size_three,
    path,
    random_graph,
    random_tree,
    reduce_independent_set,
    star,
)
from tnpack.oracles import is_two_neighbour_packing, roman_brute, tnp_brute


class TestNamedFamilies:
    def test_path_of_one(self):
        assert path(1) == Graph(1)

    def test_triangle_is_complete(self):
        assert cycle(3) == complete(3)

    def test_star_is_multipartite(self):
        assert star(4) == complete_multipartite([1, 4])

    def test_multipartite_blocks_contiguous(self):
        g = complete_multipartite([2, 3])
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert g.has_edge(0, 2)
        assert g.m == 6

    @pytest.mark.parametrize(
        "builder,bad",
        [(path, 0), (cycle, 2), (complete, 0), (empty, 0), (star, 0)],
    )
    def test_parameter_validation(self, builder, bad):
        with pytest.raises(ValueError):
            builder(bad)

    def test_multipartite_validation(self):
        with pytest.raises(ValueError):
            complete_multipartite([])
        with pytest.raises(ValueError):
            complete_multipartite([0, 2])


class TestGapFamily:
    def test_smallest_is_a_star(self):
        inst = gap_family(3)
        g = inst.graph
        assert g.n == 4 and g.m == 3
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]
        assert inst.tnp == 2 and inst.roman_lower == 2

    def test_counts_for_four(self):
        g = gap_family(4).graph
        # 4 independent vertices + 4 triple vertices, clique of 4 plus 4*3 links
        assert g.n == 8
        assert g.m == 6 + 12

    def test_packing_number_is_two(self):
        for n in (3, 4, 5):
            g = gap_family(n).graph
            assert no_packing_of_size_three(g)
            assert is_two_neighbour_packing(g, {0, 1})

    def test_roman_lower_bound_holds_small(self):
        inst = gap_family(4)
        assert roman_brute(inst.graph).value >= inst.roman_lower

    def test_requires_three(self):
        with pytest.raises(ValueError):
            gap_family(2)


class TestKc4:
    def test_single_copy(self):
        inst = k_c4(1)
        assert tnp_brute(inst.graph).value == 2 == inst.tnp
        assert roman_brute(inst.graph).value == 3 == inst.roman

    def test_gap_grows(self):
        inst = k_c4(2)
        assert roman_brute(inst.graph).value - tnp_brute(inst.graph).value == 2

    def test_three_copies_brute(self):
        inst = k_c4(3)
        assert tnp_brute(inst.graph).value == 6
        assert roman_brute(inst.graph, cap=12).value == 9


class TestReduction:
    def test_edgeless_graph_unchanged(self):
        h, offset = reduce_independent_set(empty(3))
        assert h == empty(3) and offset == 0
        assert tnp_brute(h).value == 3 == independent_set_brute(empty(3)).value

    def test_single_edge_structure(self):
        h, offset = reduce_independent_set(path(2))
        assert h.n == 7 and offset == 3
        assert sorted(h.edges()) == [(0, 2), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)]
        assert tnp_brute(h).value == 1 + 3

    def test_triangle(self):
        h, offset = reduce_independent_set(complete(3))
        assert h.n == 18 and offset == 9
        assert tnp_brute(h).value == 1 + 9

    def test_soundness_random(self):
        for i in range(40):
            n = 2 + i % 7
            g = random_graph(n, 0.4, seed=3100 + i)
            h, offset = reduce_independent_set(g)
            if h.n > 24:
                continue
            alpha = independent_set_brute(g).value
            assert tnp_brute(h).value == alpha + offset, i


class TestExtraction:
    def test_canonical_packing_returns_same_set(self):
        g = path(2)
        h, _ = reduce_independent_set(g)
        packing = {0, 3, 5, 6}  # one endpoint, pendant, deep pendants
        assert is_two_neighbour_packing(h, packing)
        assert extract_independent_set(g, packing) == {0}

    def test_both_endpoints_swapped_out(self):
        g = path(2)
        packing = {0, 1, 5, 6}
        h, _ = reduce_independent_set(g)
        assert is_two_neighbour_packing(h, packing)
        result = extract_independent_set(g, packing)
        assert result == {1}

    def test_empty_packing(self):
        assert extract_independent_set(path(2), frozenset()) == frozenset()

    def test_rejects_non_packing(self):
        g = path(2)
        with pytest.raises(ValueError, match="not a two-neighbour packing"):
            extract_independent_set(g, {0, 1, 2})

    def test_round_trip_recovers_alpha(self):
        for i in range(30):
            n = 2 + i % 7
            g = random_graph(n, 0.35, seed=3300 + i)
            h, offset = reduce_independent_set(g)
            if h.n > 24:
                continue
            best = tnp_brute(h)
            recovered = extract_independent_set(g, best.witness)
            assert len(recovered) >= best.value - offset
            assert len(recovered) == independent_set_brute(g).value


class TestIndependentSetBrute:
    def test_known_values(self):
        assert independent_set_brute(cycle(5)).value == 2
        assert independent_set_brute(complete(4)).value == 1
        assert independent_set_brute(empty(6)).value == 6

    def test_witness_is_independent(self):
        g = random_graph(9, 0.3, seed=11)
        result = independent_set_brute(g)
        for u, v in combinations(sorted(result.witness), 2):
            assert not g.has_edge(u, v)


class TestSeededGenerators:
    def test_splitmix_reference_values(self):
        # first outputs of the reference algorithm for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_random_tree_shape(self):
        for n in (1, 2, 3, 17, 60):
            g = random_tree(n, seed=5)
            assert g.n == n and g.m == n - 1
            assert g.is_connected()

    def test_random_tree_deterministic(self):
        assert random_tree(20, seed=9) == random_tree(20, seed=9)
        assert random_tree(20, seed=9) != random_tree(20, seed=10)

    def test_random_graph_extremes(self):
        assert random_graph(6, 0.0, seed=1) == empty(6)
        assert random_graph(6, 1.0, seed=1) == complete(6)

    def test_random_graph_deterministic(self):
        assert random_graph(12, 0.4, seed=3) == random_graph(12, 0.4, seed=3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_tree(0, seed=1)
        with pytest.raises(ValueError):
            random_graph(3, 1.5, seed=1)


class TestExpectedValues:
    def test_closed_form_families(self):
        assert expected_values("path", {"n": 6}) == {"tnp": 4, "roman": 4}
        assert expected_values("cycle", {"n": 9}) == {"tnp": 6, "roman": 6}
        assert expected_values("star", {"n": 4}) == {"tnp": 2, "roman": 2}
        assert expected_values("complete", {"n": 1}) == {"tnp": 1, "roman": 1}
        assert expected_values("empty", {"n": 5}) == {"tnp": 5, "roman": 5}

    def test_gap_and_kc4(self):
        assert expected_values("gap", {"n": 4}) == {"tnp": 2, "roman_lower": 3}
        assert expected_values("kc4", {"k": 10}) == {"tnp": 20, "roman": 30}

    @pytest.mark.parametrize("family", ["complete", "empty"])
    def test_complete_and_empty_check_n(self, family):
        # the builders' messages: generate's builder raises first either way
        for n in (0, -2):
            with pytest.raises(ValueError, match=f"{family} graph needs n >= 1"):
                expected_values(family, {"n": n})
            with pytest.raises(ValueError, match=f"{family} graph needs n >= 1"):
                FAMILIES[family][1](n)

    @pytest.mark.parametrize("part", [1, 3, 6])
    def test_one_part_is_the_empty_graph(self, part):
        g = complete_multipartite([part])
        assert g == empty(part)
        values = expected_values("multipartite", {"parts": [part]})
        assert values == expected_values("empty", {"n": part}) == {"tnp": part, "roman": part}
        assert values == {"tnp": tnp_brute(g, cap=g.n).value, "roman": roman_brute(g, cap=g.n).value}


# family -> parameter sets small enough for both brute-force oracles
ORACLE_CASES = {
    "path": [{"n": 1}, {"n": 7}, {"n": 12}],
    "cycle": [{"n": 3}, {"n": 8}, {"n": 13}],
    "complete": [{"n": 1}, {"n": 2}, {"n": 5}],
    "empty": [{"n": 1}, {"n": 4}],
    "star": [{"n": 1}, {"n": 5}],
    "multipartite": [{"parts": [2, 3]}, {"parts": [1, 4]}, {"parts": [2, 2, 3]}],
    "kc4": [{"k": 1}, {"k": 2}, {"k": 3}],
    "gap": [{"n": 3}, {"n": 4}],
}


class TestFamilyTable:
    def test_oracle_cases_cover_every_labelled_family(self):
        labelled = [f for f in FAMILIES if not f.startswith("random-")]
        assert sorted(ORACLE_CASES) == sorted(labelled)

    @pytest.mark.parametrize(
        "family,params", [(f, p) for f, cases in ORACLE_CASES.items() for p in cases]
    )
    def test_values_match_the_oracles(self, family, params):
        g = FAMILIES[family][1](**params)
        values = expected_values(family, params)
        # explicit caps keep the check independent of the environment
        tnp = tnp_brute(g, cap=g.n).value
        roman = roman_brute(g, cap=g.n).value
        if family == "gap":
            assert set(values) == {"tnp", "roman_lower"}
            assert tnp == values["tnp"] == 2 and roman >= values["roman_lower"]
        else:
            assert values == {"tnp": tnp, "roman": roman}

    def test_values_build_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("graph built")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert expected_values("gap", {"n": 200}) == {"tnp": 2, "roman_lower": 134}
        for family, cases in ORACLE_CASES.items():
            for params in cases:
                expected_values(family, params)

    def test_labels_and_checks_are_the_table_values(self):
        assert gap_family(5).roman_lower == expected_values("gap", {"n": 5})["roman_lower"] == 4
        with pytest.raises(ValueError, match="gap family needs n >= 3"):
            expected_values("gap", {"n": 2})
        with pytest.raises(ValueError, match="need k >= 1 copies"):
            expected_values("kc4", {"k": 0})
