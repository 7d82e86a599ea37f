"""Canonical forms and isomorphism decisions."""

import pytest

from conftest import brute_force_isomorphic, edge_list, random_graph
from specgraph import (Graph, OrderCapError, canonical, canonical_form, complement,
                       complete_graph, cycle_graph, disjoint_union, empty_graph,
                       is_isomorphic, path_graph, pyramid_graph, relabel,
                       star_graph)
from specgraph.canonical import (_leading_blocks, _seen_by, _twin_masks, canonical_blocks,
                                 extension_twins, is_min_key, min_key)
from specgraph.graphs import add_column, pair_count
from specgraph.search import enumerate_graphs


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


def _singleton_path_minimum(n, masks):
    """The least string of a search that places one vertex at a time: it
    expands the vertices with the least next block, skips a twin of a vertex
    tried at the same depth, and never forms the leading independent cell."""
    twins = _twin_masks(n, masks)
    m = pair_count(n)
    best = 1 << m  # above every string

    def walk(order, string, unplaced):
        nonlocal best
        if not unplaced:
            best = min(best, string)
            return
        blocks = {u: sum(1 << (len(order) - 1 - k) for k, w in enumerate(order) if masks[u] >> w & 1)
                  for u in range(n) if unplaced >> u & 1}
        least = min(blocks.values())
        string = (string << len(order)) | least
        if string > best >> (m - len(order) * (len(order) + 1) // 2):
            return
        tried = 0
        for u, block in blocks.items():
            if block == least and not twins[u] & tried:
                tried |= 1 << u
                walk(order + [u], string, unplaced ^ (1 << u))

    walk([], 0, (1 << n) - 1)
    return best


def _assert_cell_search_matches_singleton_path(g, key=None):
    n, masks = g.order, g.neighbor_masks()
    least = _singleton_path_minimum(n, masks)
    assert min_key(n, masks) == least, (n, g.bits)
    assert key is None or key == least, (n, g.bits)
    assert is_min_key(n, masks, g.bits) == (g.bits == least), (n, g.bits)
    assert is_min_key(n, Graph(n, least).neighbor_masks(), least), (n, g.bits)


def test_cell_search_matches_singleton_path_on_every_class_up_to_order_7(rng):
    for n in range(1, 8):
        for h in enumerate_graphs(n):
            _assert_cell_search_matches_singleton_path(relabel(h, rng.sample(range(n), n)), h.bits)


def test_cell_search_matches_singleton_path_on_orders_8_to_10(rng):
    # densities 1/10 to 9/10, and the sparse order-10 graphs whose leading
    # independent sets are largest
    samples = []
    for n in (8, 9, 10):
        m = pair_count(n)
        for tenths in range(1, 10):
            for _ in range(3):
                samples.append((n, round(m * tenths / 10)))
    samples += [(10, e) for e in range(3, 9) for _ in range(2)]
    for n, e in samples:
        g = Graph.from_edges(n, rng.sample([(u, v) for v in range(n) for u in range(v)], e))
        _assert_cell_search_matches_singleton_path(g)


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
        canonical_form(empty_graph(13))
    with pytest.raises(OrderCapError):
        is_isomorphic(empty_graph(13), complete_graph(13))


def test_bitstring_view():
    form = canonical_form(path_graph(3))
    assert len(form.bitstring) == 3
    assert form.to_graph().order == 3


def _assert_shared_search_matches_one_test_per_block(monkeypatch, h):
    """canonical_blocks on the canonical prefix h, over every block, against
    one is_min_key per block.  The shared walk serves every list of blocks,
    however short: the few-block path is is_min_key's own search."""
    monkeypatch.setattr(canonical, "SHARED_SEARCH_BLOCKS", 1)
    j, masks = h.order, h.neighbor_masks()
    blocks = range(1 << j)
    one_by_one = [b for b in blocks if is_min_key(j + 1, add_column(masks, b), (h.bits << j) | b)]
    assert canonical_blocks(j, masks, h.bits, blocks) == one_by_one, (j, h.bits)


def _maximum_independent_sets(masks):
    """The maximum independent sets of the graph given by masks, as vertex
    masks: every independent set is built, one vertex at a time."""
    sets = [0]
    for u, seen in enumerate(masks):
        sets += [s | 1 << u for s in sets if not seen & s]
    top = max(s.bit_count() for s in sets)
    return [s for s in sets if s.bit_count() == top]


def test_shared_search_matches_one_test_per_block_up_to_order_7(monkeypatch):
    # every canonical prefix of order <= 7 and every block, not only the
    # blocks that the column floor and the twin rule leave to a sweep
    for j in range(1, 8):
        for h in enumerate_graphs(j):
            _assert_shared_search_matches_one_test_per_block(monkeypatch, h)


def test_leading_blocks_are_those_whose_vertex_lies_in_a_maximum_independent_set():
    # every canonical prefix H of order <= 7 and every block b: only these
    # blocks get the search with the new vertex v = j in the leading set
    for j in range(1, 8):
        for h in enumerate_graphs(j):
            masks, blocks = h.neighbor_masks(), range(1 << j)
            sees = _seen_by(j, blocks)
            held = sum(1 << b for b in blocks if any(
                s >> j & 1 for s in _maximum_independent_sets(add_column(masks, b))))
            every = (1 << len(blocks)) - 1
            assert _leading_blocks(j, masks, h.bits, sees, every) == held, (j, h.bits)
            odd = every // 3 << 1  # the odd blocks only
            assert _leading_blocks(j, masks, h.bits, sees, odd) == held & odd, (j, h.bits)


def test_shared_search_matches_one_test_per_block_on_larger_prefixes(monkeypatch, rng):
    # seeded random prefixes of order 8 and 9, dense and sparse, each the
    # canonical form of a relabelled graph; and the twin-rich families up to
    # order 10
    prefixes = []
    for _ in range(2):
        for n in (8, 9):
            m = pair_count(n)
            for g in (random_graph(rng, n),
                      Graph(n, rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m))):
                form = canonical_form(relabel(g, rng.sample(range(n), n)))
                assert form == canonical_form(g)
                prefixes.append(form.to_graph())
    for n, _, g in _twin_rich_graphs():
        prefixes.append(canonical_form(relabel(g, rng.sample(range(n), n))).to_graph())
    # the order-8 reps with a block that only one comparison refutes: v ties
    # at depth 7, and the last vertex's block then falls below b
    prefixes += [Graph(8, bits) for bits in (
        27733, 27861, 297037, 305609, 305613, 305626, 305627, 871499, 880089, 880093,
        5048519, 5048779, 5073877, 5615181, 5616472, 5616604)]
    # sparse prefixes, whose leading independent sets are largest: a matching
    # plus isolated vertices, and a seeded prefix with a nonzero block that
    # misses a whole maximum independent set
    for n, k in ((9, 3), (10, 4)):
        g = empty_graph(n - 2 * k)
        for _ in range(k):
            g = disjoint_union(path_graph(2), g)
        prefixes.append(canonical_form(g).to_graph())
    sparse = canonical_form(Graph.from_edges(9, rng.sample(
        [(u, v) for v in range(9) for u in range(v)], 5))).to_graph()
    seen = [add_column(sparse.neighbor_masks(), b)[9] for b in range(1, 1 << 9)]
    leads = _maximum_independent_sets(sparse.neighbor_masks())
    assert any(not s & lead for s in seen for lead in leads)
    prefixes.append(sparse)
    for h in prefixes:
        _assert_shared_search_matches_one_test_per_block(monkeypatch, h)


def test_extension_twins_equal_a_fresh_build(rng):
    graphs = [h for j in range(1, 7) for h in enumerate_graphs(j)]
    graphs += [random_graph(rng, rng.randint(1, 9)) for _ in range(40)]
    for h in graphs:
        masks = h.neighbor_masks()
        twins = _twin_masks(h.order, masks)
        for b in range(1 << h.order):
            ext = add_column(masks, b)
            assert extension_twins(twins, ext) == _twin_masks(h.order + 1, ext), (h.order, h.bits, b)
