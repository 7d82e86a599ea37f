"""Complete-positivity classification and long-odd-cycle detection."""

from itertools import combinations

import pytest

from conftest import random_graph
from specgraph import (OrderCapError, ParameterError, charpoly, complete_bipartite_graph,
                       complete_graph, cycle_graph, disjoint_union, empty_graph,
                       find_long_odd_cycle, is_bipartite, is_cp_graph,
                       line_graph_perfection_cross_check, path_graph, pyramid_graph,
                       star_graph)
from specgraph.cp import CpReason, check_long_odd_cycle_witness
from specgraph.search import enumerate_graphs
from specgraph.verify import _cycle_with_chord


def test_bipartite_detection():
    sides = is_bipartite(complete_bipartite_graph(2, 3))
    assert sides is not None and sorted(map(len, sides)) == [2, 3]
    assert is_bipartite(cycle_graph(5)) is None
    assert is_bipartite(cycle_graph(6)) is not None
    assert is_bipartite(empty_graph(4)) is not None
    assert is_bipartite(complete_graph(3)) is None


def test_bipartite_iff_spectrum_symmetric():
    # a graph is bipartite iff its spectrum is symmetric about 0, that is iff
    # the charpoly coefficients of x^(n-1), x^(n-3), ... all vanish
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            poly = charpoly(g)
            symmetric = all(poly.coefficient(k) == 0 for k in range(n - 1, -1, -2))
            sides = is_bipartite(g)
            assert (sides is not None) == symmetric
            if sides is not None:
                assert sorted(sides[0] + sides[1]) == list(range(n))
                assert not any(g.has_edge(u, v)
                               for side in sides for u, v in combinations(side, 2))


def test_find_long_odd_cycle_examples():
    c5 = cycle_graph(5)
    witness = find_long_odd_cycle(c5)
    assert witness is not None and sorted(witness) == [0, 1, 2, 3, 4]
    assert check_long_odd_cycle_witness(c5, witness)

    t63 = pyramid_graph(6, 3)
    witness = find_long_odd_cycle(t63)
    assert witness is not None
    assert check_long_odd_cycle_witness(t63, witness)

    assert find_long_odd_cycle(complete_graph(4)) is None
    c7 = cycle_graph(7)
    assert check_long_odd_cycle_witness(c7, find_long_odd_cycle(c7))


def test_find_long_odd_cycle_subgraph_not_induced():
    # an even rim with one chord hides the odd cycle as a non-induced subgraph
    b6 = _cycle_with_chord(6)
    witness = find_long_odd_cycle(b6)
    assert witness is not None and len(witness) == 5
    assert check_long_odd_cycle_witness(b6, witness)


def test_long_odd_cycle_in_disconnected_graph():
    g = disjoint_union(complete_bipartite_graph(3, 3), cycle_graph(5))
    witness = find_long_odd_cycle(g)
    assert witness is not None
    assert set(witness) == {6, 7, 8, 9, 10}


def test_order_cap():
    with pytest.raises(OrderCapError):
        find_long_odd_cycle(empty_graph(13))
    with pytest.raises(OrderCapError):
        is_cp_graph(empty_graph(13))


def test_witness_checker_rejects_bad_cycles():
    c5 = cycle_graph(5)
    assert not check_long_odd_cycle_witness(c5, [0, 1, 2])          # too short
    assert not check_long_odd_cycle_witness(c5, [0, 1, 2, 3, 4, 0])  # repeated vertex
    assert not check_long_odd_cycle_witness(c5, [0, 2, 4, 1, 3])     # missing edges


def test_cp_verdict_reasons():
    assert is_cp_graph(complete_graph(4)).reason is CpReason.SMALL_ORDER
    assert is_cp_graph(complete_bipartite_graph(3, 3)).reason is CpReason.BIPARTITE
    book = pyramid_graph(8, 2)
    verdict = is_cp_graph(book)
    assert verdict.is_cp and verdict.reason is CpReason.NO_LONG_ODD_CYCLE
    bad = is_cp_graph(cycle_graph(5))
    assert not bad.is_cp and bad.reason is CpReason.LONG_ODD_CYCLE_FOUND
    assert bad.witness is not None


def test_witness_present_iff_not_cp(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        verdict = is_cp_graph(g)
        assert (verdict.witness is not None) == (not verdict.is_cp)
        if verdict.witness is not None:
            assert check_long_odd_cycle_witness(g, verdict.witness)


def test_chorded_cycles_are_not_cp_in_both_parities():
    for n in (5, 6, 7, 8):
        verdict = is_cp_graph(_cycle_with_chord(n))
        assert not verdict.is_cp
        assert check_long_odd_cycle_witness(_cycle_with_chord(n), verdict.witness)


def test_books_are_cp_and_wide_pyramids_are_not():
    for n in range(3, 13):
        assert is_cp_graph(pyramid_graph(n, 2)).is_cp
    for n in range(5, 11):
        for k in range(3, n):
            assert not is_cp_graph(pyramid_graph(n, k)).is_cp
    # the one boundary case: a 4-vertex pyramid with a 3-clique base is K4
    assert pyramid_graph(4, 3) == complete_graph(4)
    assert is_cp_graph(pyramid_graph(4, 3)).is_cp


def test_line_graph_perfection_cross_check_examples():
    assert not line_graph_perfection_cross_check(cycle_graph(5))
    assert line_graph_perfection_cross_check(star_graph(4))
    assert line_graph_perfection_cross_check(path_graph(5))
    assert line_graph_perfection_cross_check(empty_graph(3))


def test_line_graph_perfection_edge_cap():
    assert complete_graph(5).edge_count == 10
    assert not line_graph_perfection_cross_check(complete_graph(5))  # contains C5
    with pytest.raises(ParameterError):
        line_graph_perfection_cross_check(complete_graph(6))  # 15 edges


def test_cross_check_agrees_with_cycle_search_small():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if g.edge_count <= 10:
                assert line_graph_perfection_cross_check(g) == is_cp_graph(g).is_cp
