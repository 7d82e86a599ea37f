"""Canonical forms and isomorphism decisions."""

import pytest

from conftest import brute_force_isomorphic, edge_list, random_graph
from specgraph import (Graph, OrderCapError, canonical_form, complement,
                       complete_graph, cycle_graph, disjoint_union, empty_graph,
                       is_isomorphic, path_graph, pyramid_graph, relabel,
                       star_graph)
from specgraph.canonical import is_min_key, min_key


def test_canonical_form_is_permutation_invariant(rng):
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_form_separates_order_4():
    # all 64 labeled order-4 graphs fall into exactly 11 classes
    keys = {canonical_form(Graph(4, bits)).key for bits in range(1 << 6)}
    assert len(keys) == 11


def test_canonical_form_examples():
    c4_a = cycle_graph(4)
    c4_b = relabel(c4_a, [2, 0, 3, 1])
    assert canonical_form(c4_a) == canonical_form(c4_b)
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))


def test_canonical_key_is_minimal_bitstring(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7))
        key = canonical_form(g).key
        assert key <= g.bits
        assert is_min_key(g.order, Graph(g.order, key).neighbor_masks(), key)


def _brute_force_min_bits(g):
    from itertools import permutations
    edges = edge_list(g)
    return min(
        Graph.from_edges(g.order, [(p[u], p[v]) for u, v in edges]).bits
        for p in permutations(range(g.order)))


def test_canonical_key_equals_brute_force_minimum(rng):
    # exhaustive at order <= 5, sampled above
    from specgraph.graphs import pair_count
    for n in range(1, 6):
        for bits in range(1 << pair_count(n)):
            g = Graph(n, bits)
            best = _brute_force_min_bits(g)
            assert canonical_form(g).key == best
            assert is_min_key(n, g.neighbor_masks(), bits) == (bits == best)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 7))
        assert canonical_form(g).key == _brute_force_min_bits(g)
    # is_min_key stops at the first prefix below key's; it must agree with min_key
    for bits in range(1 << pair_count(6)):
        masks = Graph(6, bits).neighbor_masks()
        assert is_min_key(6, masks, bits) == (min_key(6, masks) == bits)
    samples = []
    for _ in range(150):
        n = rng.randint(7, 10)
        m = pair_count(n)
        samples.append(random_graph(rng, n))
        samples.append(Graph(n, rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m)))
    for _, _, g in _twin_rich_graphs():
        samples += [g, relabel(g, rng.sample(range(g.order), g.order))]
    for g in samples:
        masks = g.neighbor_masks()
        key = min_key(g.order, masks)
        assert is_min_key(g.order, masks, g.bits) == (key == g.bits)
        assert is_min_key(g.order, Graph(g.order, key).neighbor_masks(), key)


def _min_over_clique_placements(n, k):
    """Smallest bitstring of K_k joined to n - k independent vertices.

    Every labelling of that graph is fixed by the label set of its clique, so
    the minimum over the C(n, k) placements is the minimum over all orderings.
    """
    from itertools import combinations
    return min(
        Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if u in clique or v in clique]).bits
        for clique in map(set, combinations(range(n), k)))


def _twin_rich_graphs():
    """Pyramids T_{n,k}, 2 <= k < n <= 10, and the stars with up to 9 leaves."""
    for n in range(3, 11):
        for k in range(2, n):
            yield n, k, pyramid_graph(n, k)
    for leaves in range(1, 10):
        yield leaves + 1, 1, star_graph(leaves)


def test_twin_rich_keys_equal_minimum_over_placements():
    for n, k, g in _twin_rich_graphs():
        assert canonical_form(g).key == _min_over_clique_placements(n, k), (n, k)


def test_twin_rich_forms_survive_relabelling(rng):
    for n, _, g in _twin_rich_graphs():
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_extreme_graphs():
    assert canonical_form(empty_graph(6)).key == 0
    full = complete_graph(6)
    assert canonical_form(full).key == full.bits


def test_is_isomorphic_known_pairs():
    c5 = cycle_graph(5)
    assert is_isomorphic(c5, complement(c5))
    s4 = star_graph(4)
    mate = disjoint_union(cycle_graph(4), empty_graph(1))
    assert not is_isomorphic(s4, mate)
    assert is_isomorphic(s4, s4)
    assert not is_isomorphic(s4, empty_graph(5))
    assert not is_isomorphic(s4, star_graph(3))


def test_is_isomorphic_matches_brute_force(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        g1 = random_graph(rng, n)
        # half the trials compare against a relabeling, half against a fresh graph
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabel(g1, perm)
        else:
            g2 = random_graph(rng, n)
        assert is_isomorphic(g1, g2) == brute_force_isomorphic(g1, g2)


def test_order_cap():
    with pytest.raises(OrderCapError):
        canonical_form(empty_graph(11))
    with pytest.raises(OrderCapError):
        is_isomorphic(empty_graph(11), complete_graph(11))


def test_bitstring_view():
    form = canonical_form(path_graph(3))
    assert len(form.bitstring) == 3
    assert form.to_graph().order == 3
