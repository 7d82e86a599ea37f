"""Graph type, named families, and operators."""

import warnings

import numpy as np
import pytest

from conftest import brute_force_isomorphic, edge_list, random_graph
from specgraph import (FamilyKind, FamilySpec, Graph, ParameterError, complement,
                       complete_bipartite_graph, complete_graph, cycle_graph,
                       disjoint_union, empty_graph, enumerate_graphs, induced_subgraph,
                       is_connected, is_isomorphic, join, line_graph, make_family, path_graph,
                       pyramid_graph, relabel, star_graph)
from specgraph.graphs import _lower_triangle, adjacency_tensor, pair_count


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


def _bits_one_edge_at_a_time(order, edges):
    """The reference construction: each edge's bit OR-ed into the bitstring."""
    m = pair_count(order)
    bits = 0
    for u, v in edges:
        i, j = sorted((u, v))
        bits |= 1 << (m - 1 - (j * (j - 1) // 2 + i))
    return bits


def test_from_edges_matches_one_edge_at_a_time(rng):
    for _ in range(300):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        # both orientations of a pair, so some edges come twice
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        assert Graph.from_edges(n, edges).bits == _bits_one_edge_at_a_time(n, edges)
        assert Graph.from_edges(n, iter(edges)).bits == _bits_one_edge_at_a_time(n, edges)


def test_family_members_match_their_edge_lists_and_orders():
    for n in range(1, 25):
        members = [
            (FamilyKind.COMPLETE, (n,), n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
            (FamilyKind.EMPTY, (n,), n, []),
            (FamilyKind.PATH, (n,), n, [(i, i + 1) for i in range(n - 1)]),
            (FamilyKind.STAR, (n,), n + 1, [(0, i) for i in range(1, n + 1)]),
        ]
        if n >= 3:
            members.append((FamilyKind.CYCLE, (n,), n, [(i, (i + 1) % n) for i in range(n)]))
        members += [(FamilyKind.COMPLETE_BIPARTITE, (n, b), n + b,
                     [(i, n + j) for i in range(n) for j in range(b)]) for b in (1, 2, 5)]
        members += [(FamilyKind.PYRAMID, (n, k), n,
                     [(i, j) for i in range(k) for j in range(i + 1, k)]
                     + [(i, j) for i in range(k) for j in range(k, n)]) for k in range(1, n)]
        for kind, params, order, edges in members:
            spec = FamilySpec(kind, params)
            assert spec.order == order
            assert make_family(spec) == Graph(order, _bits_one_edge_at_a_time(order, edges))


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
    assert relabel(star_graph(3), [3, 0, 1, 2]).degrees()[3] == 3
    with pytest.raises(ParameterError):
        relabel(g, [0, 0, 1])


def test_connectivity():
    assert is_connected(cycle_graph(5))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(2)))
    assert is_connected(Graph(1, 0))


def _views_from_has_edge(g):
    """Masks, edges, rows, degrees and connectivity read through has_edge alone."""
    n = g.order
    rows = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    masks = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    reached = [0]
    for v in reached:
        reached += [u for u in range(n) if rows[v][u] and u not in reached]
    return masks, edge_list(g), rows, [sum(row) for row in rows], len(reached) == n


def test_adjacency_views_match_has_edge(rng):
    # every graph of order <= 6, then seeded random graphs up to order 30
    graphs = [Graph(n, bits) for n in range(1, 7) for bits in range(1 << pair_count(n))]
    graphs += [random_graph(rng, rng.randint(1, 30)) for _ in range(300)]
    for g in graphs:
        views = (g.neighbor_masks(), list(g.edges()), g.adjacency_rows(), g.degrees(),
                 is_connected(g))
        assert views == _views_from_has_edge(g), g


def test_adjacency_tensor_matches_neighbor_masks(rng):
    # every census rep of order <= 8, then seeded random graphs of every order up to 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)  # unless the census is cached
        batches = [enumerate_graphs(n) for n in range(1, 9)]
    batches += [[random_graph(rng, n) for _ in range(5)] for n in range(1, 65)]
    for graphs in batches:
        n = graphs[0].order
        tensor = adjacency_tensor(n, [g.bits for g in graphs])
        assert tensor.shape == (len(graphs), n, n) and str(tensor.dtype) == "int64"
        masks = [[sum(int(bit) << j for j, bit in enumerate(row)) for row in adj]
                 for adj in tensor]
        assert masks == [g.neighbor_masks() for g in graphs], n
    # the first pair is the most significant bit, whatever the byte padding
    for n in (2, 4, 5, 11, 12, 64):
        tensor = adjacency_tensor(n, [1 << (pair_count(n) - 1)])
        assert tensor.sum() == 2 and tensor[0, 0, 1] == tensor[0, 1, 0] == 1, n


def test_lower_triangle_equals_numpy_tril_indices():
    for n in range(1, 65):
        for got, want in zip(_lower_triangle(n), np.tril_indices(n, -1)):
            assert got.dtype == want.dtype and np.array_equal(got, want), n
