from itertools import combinations

import pytest

from tnpack.errors import SizeCapError
from tnpack.graph import delete_edge, disjoint_union
from tnpack.instances import complete, complete_multipartite, cycle, empty, path, star
from tnpack.oracles import (
    RomanFunction,
    check_min_rdf_properties,
    closed_form,
    degree_lower_bound,
    domination_brute,
    is_roman_dominating,
    is_two_neighbour_packing,
    private_neighbours,
    roman_brute,
    tnp_brute,
)
from conftest import zero_gap_grid_8, zero_gap_mesh_14


class TestCheckers:
    def test_pair_in_cycle_is_packing(self):
        assert is_two_neighbour_packing(cycle(4), {0, 1})

    def test_triple_in_cycle_is_not(self):
        assert not is_two_neighbour_packing(cycle(4), {0, 1, 2})

    def test_empty_set_is_packing(self, small_suite):
        for _, g in small_suite:
            assert is_two_neighbour_packing(g, frozenset())

    def test_roman_examples(self):
        assert is_roman_dominating(path(3), RomanFunction((0, 2, 0)))
        assert not is_roman_dominating(path(3), RomanFunction((0, 1, 0)))

    def test_all_ones_always_dominates(self, small_suite):
        for _, g in small_suite:
            assert is_roman_dominating(g, RomanFunction((1,) * g.n))

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            RomanFunction((0, 3))


class TestTnpBrute:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(4), 3), (cycle(4), 2), (complete_multipartite([3, 3]), 2), (empty(5), 5)],
        ids=["p4", "c4", "k33", "empty5"],
    )
    def test_known_values(self, g, expected):
        result = tnp_brute(g)
        assert result.value == expected
        assert is_two_neighbour_packing(g, result.witness)
        assert len(result.witness) == result.value

    def test_cap_refusal(self):
        with pytest.raises(SizeCapError, match="cap"):
            tnp_brute(empty(25))

    def test_cap_override_argument(self):
        assert tnp_brute(empty(25), cap=25).value == 25

    def test_cap_override_env(self, monkeypatch):
        monkeypatch.setenv("TNPACK_TNP_CAP", "25")
        assert tnp_brute(empty(25)).value == 25

    def test_witness_is_lexicographically_first(self):
        for g in (cycle(5), path(6), complete_multipartite([2, 3])):
            best = tnp_brute(g)
            optima = [
                set(c)
                for size in (best.value,)
                for c in combinations(range(g.n), size)
                if is_two_neighbour_packing(g, set(c))
            ]
            assert sorted(best.witness) == min(sorted(o) for o in optima)


class TestRomanBrute:
    @pytest.mark.parametrize(
        "g,expected",
        [(cycle(4), 3), (path(5), 4), (complete(5), 2)],
        ids=["c4", "p5", "k5"],
    )
    def test_known_values(self, g, expected):
        result = roman_brute(g)
        assert result.value == expected
        assert is_roman_dominating(g, result.witness)
        assert result.witness.weight == result.value

    def test_cap_refusal(self):
        with pytest.raises(SizeCapError):
            roman_brute(empty(15))

    def test_deterministic(self):
        g = cycle(7)
        assert roman_brute(g).witness == roman_brute(g).witness


class TestDominationBrute:
    def test_complete_graphs(self):
        for n in (1, 3, 5):
            assert domination_brute(complete(n)).value == 1

    def test_path4(self):
        # exhaustively: no single vertex dominates P4, {1,3} does
        assert domination_brute(path(4)).value == 2

    def test_empty(self):
        assert domination_brute(empty(4)).value == 4

    def test_cap(self):
        with pytest.raises(SizeCapError):
            domination_brute(empty(21))


class TestPrivateNeighbours:
    def test_lone_two_in_path(self):
        result = private_neighbours(path(3), 1, {1})
        assert result == {0: True, 1: False, 2: True}

    def test_shared_neighbours(self):
        # P4 with both middle vertices chosen: only the far ends are private
        result = private_neighbours(path(4), 1, {1, 2})
        assert result == {0: True}

    def test_fully_covered(self):
        assert private_neighbours(complete(3), 0, {0, 1}) == {}

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            private_neighbours(path(3), 0, {1})


class TestMinRdfProperties:
    def test_clean_labelling(self):
        assert check_min_rdf_properties(path(3), RomanFunction((0, 2, 0))) == []

    def test_adjacent_ones_allowed_but_not_a_one_path(self):
        # two adjacent 1s keep max degree 1 among the 1s, three in a row do not
        assert check_min_rdf_properties(path(2), RomanFunction((1, 1))) == []
        rules = [v.rule for v in check_min_rdf_properties(path(3), RomanFunction((1, 1, 1)))]
        assert "a" in rules

    def test_one_next_to_two(self):
        rules = [v.rule for v in check_min_rdf_properties(path(2), RomanFunction((1, 2)))]
        assert "b" in rules

    def test_zero_with_three_ones(self):
        g = star(3)
        rules = [v.rule for v in check_min_rdf_properties(g, RomanFunction((0, 1, 1, 1)))]
        assert "c" in rules

    def test_two_without_private_neighbours(self):
        rules = [v.rule for v in check_min_rdf_properties(path(3), RomanFunction((2, 2, 0)))]
        assert "d" in rules

    def test_lone_external_private_with_one_neighbour(self):
        rules = [v.rule for v in check_min_rdf_properties(path(4), RomanFunction((2, 0, 1, 0)))]
        assert "e" in rules

    def test_empty_on_optimal_witnesses(self, small_suite):
        for name, g in small_suite:
            if g.n > 12:
                continue
            witness = roman_brute(g).witness
            assert check_min_rdf_properties(g, witness) == [], name


class TestClosedForm:
    def test_examples(self):
        assert closed_form("path", 7) == (5, 5)
        assert closed_form("cycle", 5) == (3, 4)
        assert closed_form("multipartite", (2, 3)) == (2, 3)

    def test_part_thresholds(self):
        assert closed_form("multipartite", (1, 9)) == (2, 2)
        assert closed_form("multipartite", (3, 3, 4)) == (2, 4)

    def test_errors(self):
        with pytest.raises(ValueError):
            closed_form("cycle", 2)
        with pytest.raises(ValueError, match="at least one part"):
            closed_form("multipartite", ())
        with pytest.raises(ValueError, match="part sizes must be positive"):
            closed_form("multipartite", (0, 3))
        with pytest.raises(ValueError):
            closed_form("path", 0)

    def test_against_brute(self):
        for n in range(1, 11):
            assert closed_form("path", n)[0] == tnp_brute(path(n)).value
            assert closed_form("path", n)[1] == roman_brute(path(n)).value
        for n in range(3, 11):
            assert closed_form("cycle", n)[0] == tnp_brute(cycle(n)).value
            assert closed_form("cycle", n)[1] == roman_brute(cycle(n)).value
        # one part: the edgeless graph
        for p in range(1, 8):
            g = complete_multipartite([p])
            assert closed_form("multipartite", (p,)) == (p, p)
            assert (tnp_brute(g).value, roman_brute(g).value) == (p, p)


class TestSuiteInvariants:
    def test_weak_duality(self, small_suite):
        for name, g in small_suite:
            if g.n <= 12:
                assert tnp_brute(g).value <= roman_brute(g).value, name

    def test_domination_sandwich(self, small_suite):
        for name, g in small_suite:
            if g.n <= 12:
                gamma = domination_brute(g).value
                roman = roman_brute(g).value
                assert gamma <= roman <= 2 * gamma, name

    def test_degree_lower_bound(self, small_suite):
        # the 2n/(max degree + 1) bound needs at least one edge: an isolated
        # vertex costs 1, not 2
        for name, g in small_suite:
            if g.n <= 12 and g.max_degree() >= 1:
                assert roman_brute(g).value >= degree_lower_bound(g), name

    def test_edge_deletion_monotone(self, small_suite):
        for name, g in small_suite:
            if not 1 <= g.n <= 10:
                continue
            base_tnp = tnp_brute(g).value
            base_roman = roman_brute(g).value
            for u, v in g.edges():
                smaller = delete_edge(g, u, v)
                assert tnp_brute(smaller).value >= base_tnp, (name, u, v)
                assert roman_brute(smaller).value >= base_roman, (name, u, v)

    def test_universal_vertex_pins_packing_number(self, small_suite):
        for name, g in small_suite:
            if 2 <= g.n <= 12 and g.max_degree() == g.n - 1:
                assert tnp_brute(g).value == 2, name

    def test_roman_two_and_three_characterizations(self, small_suite):
        for name, g in small_suite:
            if g.n < 2 or g.n > 12 or not g.is_connected():
                continue
            roman = roman_brute(g).value
            assert (roman == 2) == (g.max_degree() == g.n - 1), name
            assert (roman == 3) == (g.max_degree() == g.n - 2), name

    def test_additive_over_components(self):
        parts = [path(3), cycle(4), star(2)]
        union, _ = disjoint_union(parts)
        assert tnp_brute(union).value == sum(tnp_brute(g).value for g in parts)
        assert roman_brute(union).value == sum(roman_brute(g).value for g in parts)


class TestZeroGapFixtures:
    def test_grid_like_8(self):
        g = zero_gap_grid_8()
        assert tnp_brute(g).value == 4
        assert roman_brute(g).value == 4

    def test_mesh_14(self):
        g = zero_gap_mesh_14()
        assert tnp_brute(g).value == 8
        assert roman_brute(g).value == 8
