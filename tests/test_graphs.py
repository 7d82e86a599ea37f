"""Graph type, named families, and operators."""

import pytest

from conftest import brute_force_isomorphic, random_graph
from specgraph import (FamilyKind, FamilySpec, Graph, ParameterError, complement,
                       complete_bipartite_graph, complete_graph, cycle_graph,
                       disjoint_union, empty_graph, induced_subgraph, is_connected,
                       is_isomorphic, join, line_graph, make_family, path_graph,
                       pyramid_graph, relabel, star_graph)


def test_graph_construction_and_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 0)])
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (2, 3)]
    assert g.degrees() == [1, 1, 1, 1]


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ParameterError):
        Graph(0, 0)


def test_from_adjacency_validates():
    assert Graph.from_adjacency([[0, 1], [1, 0]]) == complete_graph(2)
    with pytest.raises(ParameterError):
        Graph.from_adjacency([[0, 1], [0, 0]])
    with pytest.raises(ParameterError):
        Graph.from_adjacency([[1, 0], [0, 0]])


def test_family_edge_counts():
    assert complete_graph(5).edge_count == 10
    assert pyramid_graph(6, 3).edge_count == 12  # C(3,2) + 3*3
    assert star_graph(4).edge_count == 4
    assert star_graph(4).order == 5
    for n, k in [(5, 2), (7, 4), (9, 1), (10, 9)]:
        assert pyramid_graph(n, k).edge_count == k * (k - 1) // 2 + k * (n - k)


def test_star_equals_pyramid_with_singleton_base():
    assert star_graph(4) == pyramid_graph(5, 1)
    assert is_isomorphic(star_graph(6), pyramid_graph(7, 1))


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        make_family(FamilySpec(FamilyKind.CYCLE, (2,)))
    with pytest.raises(ParameterError):
        make_family(FamilySpec(FamilyKind.PYRAMID, (4, 4)))
    with pytest.raises(ParameterError):
        make_family(FamilySpec(FamilyKind.PYRAMID, (4, 0)))
    with pytest.raises(ParameterError):
        make_family(FamilySpec(FamilyKind.COMPLETE_BIPARTITE, (0, 3)))


def test_complement():
    assert complement(complete_graph(5)) == empty_graph(5)
    assert complement(empty_graph(4)) == complete_graph(4)
    # the pentagon is self-complementary
    c5 = cycle_graph(5)
    assert brute_force_isomorphic(complement(c5), c5)
    assert is_isomorphic(complement(c5), c5)


def test_complement_is_involution(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        assert complement(complement(g)) == g


def test_disjoint_union():
    assert disjoint_union(empty_graph(2), empty_graph(3)) == empty_graph(5)
    g = disjoint_union(cycle_graph(4), empty_graph(1))
    assert g.order == 5 and g.edge_count == 4
    assert not is_connected(g)


def test_join_builds_known_families():
    assert join(empty_graph(2), empty_graph(3)) == complete_bipartite_graph(2, 3)
    assert join(complete_graph(3), empty_graph(3)) == pyramid_graph(6, 3)
    assert join(complete_graph(1), empty_graph(4)) == star_graph(4)


def test_union_and_join_edge_arithmetic(rng):
    for _ in range(200):
        g1 = random_graph(rng, rng.randint(1, 8))
        g2 = random_graph(rng, rng.randint(1, 8))
        u = disjoint_union(g1, g2)
        j = join(g1, g2)
        assert u.edge_count == g1.edge_count + g2.edge_count
        assert j.edge_count == g1.edge_count + g2.edge_count + g1.order * g2.order
        assert u.order == j.order == g1.order + g2.order


def test_line_graph():
    assert line_graph(path_graph(4)) == path_graph(3)
    assert is_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))
    # three star edges pairwise share the center
    assert line_graph(star_graph(3)) == complete_graph(3)
    with pytest.raises(ParameterError):
        line_graph(empty_graph(3))


def test_induced_subgraph():
    assert induced_subgraph(complete_graph(5), [1, 3, 4]) == complete_graph(3)
    assert induced_subgraph(pyramid_graph(6, 3), [0, 1, 2]) == complete_graph(3)
    g = pyramid_graph(6, 3)
    assert induced_subgraph(g, range(6)) == g
    with pytest.raises(ParameterError):
        induced_subgraph(g, [])
    with pytest.raises(ParameterError):
        induced_subgraph(g, [0, 6])


def test_relabel():
    g = path_graph(3)
    assert relabel(g, [2, 1, 0]) == g  # reversal of a path
    assert relabel(star_graph(3), [3, 0, 1, 2]).degree(3) == 3
    with pytest.raises(ParameterError):
        relabel(g, [0, 0, 1])


def test_connectivity():
    assert is_connected(cycle_graph(5))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(2)))
    assert is_connected(Graph(1, 0))
