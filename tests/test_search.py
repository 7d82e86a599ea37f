"""Isomorph-free enumeration, cospectral classes, DS verdicts, star mates."""

import contextlib
import gc
import hashlib
import json
import math
import warnings

import pytest

from specgraph import (DsVerdict, OrderCapError, ParameterError, SpecGraphError,
                       are_cospectral, book_graph, burnside_graph_count, canonical,
                       canonical_form, complement, charpoly, charpolys, complete_bipartite_graph,
                       complete_graph, cospectral_classes, cycle_graph, disjoint_union,
                       empty_graph, enumerate_graphs, graph6_encode, is_connected,
                       is_cp_graph, is_ds,
                       is_isomorphic, path_graph, pyramid_graph, relabel, search,
                       smallest_non_cp_non_ds_order, star_cospectral_mate, star_graph)
from specgraph.canonical import _twin_masks, is_min_key, min_key
from specgraph.exact import berkowitz_charpoly, charpoly_rows
from specgraph.graphs import Graph, add_column, pair_count
from specgraph.polynomials import real_rooted_counts

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

# sha256 of each order's sorted census bitstrings, in decimal, joined by commas
CENSUS_SHA256 = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
    4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
    5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
    6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
    7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
    8: "c343647ca62cc9e3626209fdb8a4eb5789ec794f31882e64e77498ea4bbb5dca",
}

# sha256 of each order's cospectral report, json.dumps(report.to_json(), sort_keys=True)
COSPECTRAL_SHA256 = {
    1: "af2721891b5588a5c1df22ead3af6b44eef954538f9269528ecfb8c793863ded",
    2: "3dccb7687255832828a937f0b9c0d85ee2f21452fab1960c7374fb7d6f015331",
    3: "3dc74d29ecb67e342656f1a00d97222dce1cd46fcbbc38f45abab28bfd0593a4",
    4: "f4ad12e71ea3fdbed602e8f0e29fe5e4da045fe3238460b958e1d0bbd07c72a3",
    5: "68b896efdfa504a8cad866554ff97f214ae6cf11e524811f98545e7abed240d0",
    6: "53a3211118455948f6910331789cf23174d6dd437c22f6d927bab2aa93655230",
    7: "291f15d319f29007d67b2f8d98e8bf7905836f789415c825dc2579246f46eb35",
    8: "1f90f11ad4cdbe1e6e9163fe7db0adfa11bf2afc248c375f6957bcb6f72aaf90",
}


def _census_digest(graphs):
    text = ",".join(str(bits) for bits in sorted(g.bits for g in graphs))
    return hashlib.sha256(text.encode()).hexdigest()


def _cospectral_digest(report):
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def _cold_caches(monkeypatch):
    """Empty enumeration caches until the test ends; the warm ones come back after."""
    monkeypatch.setattr(search, "_enum_cache", {})
    monkeypatch.setattr(search, "_class_cache", {})


def test_enumeration_counts_small():
    for n in range(1, 7):
        assert len(enumerate_graphs(n)) == KNOWN_COUNTS[n]


def test_census_bits_are_pinned():
    for n in range(1, 8):
        assert _census_digest(enumerate_graphs(n)) == CENSUS_SHA256[n], n


def test_order8_census_matches_polya_layers_and_pinned_bits(monkeypatch):
    calls = _count_canonicity_tests(monkeypatch)
    _cold_caches(monkeypatch)
    leading = _count_leading_set_searches(monkeypatch)
    with pytest.warns(ResourceWarning):
        census = enumerate_graphs(8)
    assert len(calls) == 21973
    assert len(leading) == 2770
    sizes = [0] * (pair_count(8) + 1)
    for g in census:
        sizes[g.edge_count] += 1
    assert sizes == search.burnside_layer_counts(8)
    assert len(census) == burnside_graph_count(8) == 12346
    assert _census_digest(census) == CENSUS_SHA256[8]
    report = cospectral_classes(8)
    assert report.class_count == 11453
    assert len(report.nontrivial_classes) == 829
    assert sum(map(len, report.nontrivial_classes)) == 1722
    assert _cospectral_digest(report) == COSPECTRAL_SHA256[8]


def test_cospectral_reports_are_pinned(monkeypatch):
    # the class order comes from sorting coefficient tuples
    _cold_caches(monkeypatch)
    for n in range(1, 8):
        assert _cospectral_digest(cospectral_classes(n)) == COSPECTRAL_SHA256[n], n


def _dict_grouping(graphs):
    """The reference grouping: one dict entry per charpolys tuple, the classes
    sorted by tuple, their members in census order."""
    by_poly = {}
    for g, coeffs in zip(graphs, charpolys(graphs)):
        by_poly.setdefault(coeffs, []).append(g)
    return len(by_poly), tuple(tuple(m) for _, m in sorted(by_poly.items()) if len(m) > 1)


def test_row_grouping_equals_dict_grouping_over_charpolys(monkeypatch):
    _cold_caches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)
        for n in range(1, 9):
            graphs = enumerate_graphs(n)
            assert charpoly_rows(graphs).tolist() == [list(p) for p in charpolys(graphs)], n
            report = cospectral_classes(n)
            assert (report.class_count, report.nontrivial_classes) == _dict_grouping(graphs), n


def test_census_charpolys_do_not_call_berkowitz(monkeypatch):
    _cold_caches(monkeypatch)
    charpoly.cache_clear()
    assert cospectral_classes(7).class_count == 988
    assert charpoly.cache_info().currsize == 0


def test_burnside_oracle_matches_known_counts():
    for n, expected in KNOWN_COUNTS.items():
        assert burnside_graph_count(n) == expected
    assert burnside_graph_count(8) == 12346


def test_burnside_layer_counts_refine_the_graph_count():
    for n in range(1, 11):
        layers = search.burnside_layer_counts(n)
        assert len(layers) == pair_count(n) + 1
        assert sum(layers) == burnside_graph_count(n)
        assert layers == layers[::-1]  # complementing swaps layers e and m - e
    assert search.burnside_layer_counts(8)[7] == 115
    assert search.burnside_layer_counts(9)[15] == 21933


def test_truncated_polya_product_gives_each_layer_count():
    # is_ds reads layer e as the last coefficient of the product truncated at
    # min(e, m - e); complementing maps layer e onto layer m - e
    for n in range(1, 11):
        m = pair_count(n)
        full = search.burnside_layer_counts(n)
        for e in range(m + 1):
            top = min(e, m - e)
            truncated = search.burnside_layer_counts(n, top)
            assert len(truncated) == top + 1 and truncated[-1] == full[e], (n, e)


def test_enumerated_representatives_are_canonical_and_distinct():
    for n in range(1, 7):
        graphs = enumerate_graphs(n)
        keys = [g.bits for g in graphs]
        assert len(set(keys)) == len(graphs)
        for g in graphs:
            assert canonical_form(g).key == g.bits
        assert keys == sorted(keys)  # emitted in ascending bitstring order


def test_enumeration_matches_networkx_atlas():
    # the atlas lists one representative per isomorphism class up to order 7;
    # compare exact charpoly multisets order by order
    from networkx.generators.atlas import graph_atlas_g
    atlas = graph_atlas_g()[1:]  # skip the order-0 placeholder
    for n in range(1, 7):
        atlas_polys = sorted(
            charpoly(Graph.from_edges(n, g.edges())).coeffs
            for g in atlas if g.number_of_nodes() == n
        )
        ours = sorted(charpoly(g).coeffs for g in enumerate_graphs(n))
        assert atlas_polys == ours


def test_enumeration_caps():
    with pytest.raises(OrderCapError):
        enumerate_graphs(9)
    with pytest.raises(OrderCapError):
        enumerate_graphs(0)


def test_pooled_census_equals_single_worker(monkeypatch):
    # workers=1 is one walk; workers=2 walks the subtrees of the canonical
    # prefixes of order _SPLIT_ORDER on a process pool and concatenates them
    single = enumerate_graphs(5)
    search._enum_cache.pop(5, None)
    multi = enumerate_graphs(5, workers=2)
    assert single == multi

    _cold_caches(monkeypatch)
    single_layer = enumerate_graphs(7, edges=10)
    assert enumerate_graphs(7, edges=10, workers=2) == single_layer

    # the order-8 census, the one sweep the pool is measured faster on
    with pytest.warns(ResourceWarning):
        single8 = enumerate_graphs(8)
    assert search._enumerate(8, 2, None) == single8


def _serial_pool(monkeypatch) -> list:
    """Run the census pool's units in this process, in order; the list
    returned collects the process count of each pool asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args, chunksize=None):
            assert chunksize == 1
            return [func(*a) for a in args]

    monkeypatch.setattr(search, "Pool", SerialPool)
    return sizes


def test_split_walk_equals_one_walk_at_every_split_order(monkeypatch):
    # every census and layer of orders <= 7, split at every order, is the one walk
    sizes = _serial_pool(monkeypatch)
    for n in range(1, 8):
        for edges in [None, *range(pair_count(n) + 1)]:
            one = search._enumerate(n, 1, edges)
            for split in range(1, n + 1):
                monkeypatch.setattr(search, "_SPLIT_ORDER", split)
                assert search._enumerate(n, 2, edges) == one, (n, edges, split)
    # a pool starts no more processes than there are units
    monkeypatch.setattr(search, "_SPLIT_ORDER", 3)
    sizes.clear()
    search._enumerate(5, 256, None)
    assert sizes == [len(enumerate_graphs(3))]


def test_pooled_order8_census_repeats_no_canonicity_test(monkeypatch):
    # the units' subtrees are disjoint: together they make the one walk's tests
    _serial_pool(monkeypatch)
    calls = _count_canonicity_tests(monkeypatch)
    bits = [g.bits for g in search._enumerate(8, 2, None)]
    assert len(calls) == 21973
    assert bits == sorted(bits)
    assert _census_digest(Graph(8, b) for b in bits) == CENSUS_SHA256[8]


def test_twin_rule_skips_only_non_canonical_blocks():
    # both rules that skip a block before its canonicity test: the column floor
    # and the twin rule, each on its own and as the sweep chains them
    below_floor = twin_skipped = skipped = 0
    for n in range(1, 7):
        for h in enumerate_graphs(n):
            masks = h.neighbor_masks()
            floor = search._column_floor(n, h.bits)
            below_floor += floor
            twins = _twin_masks(n, masks)
            twin_skipped += (1 << n) - len(search._twin_rule(n, twins, range(1 << n)))
            kept = set(search._twin_rule(n, twins, range(floor, 1 << n)))
            for b in range(1 << n):
                if b not in kept:
                    skipped += 1
                    assert not is_min_key(n + 1, add_column(masks, b), (h.bits << n) | b)
    assert (below_floor, twin_skipped, skipped) == (8130, 4096, 9298)


def _count_canonicity_tests(monkeypatch) -> list:
    """The keys of the sweep's canonicity tests, one per candidate block,
    appended as they are made."""
    calls = []
    counted = search.canonical_blocks

    def counting(j, masks, key, blocks, twins):
        calls.extend((key << j) | b for b in blocks)
        return counted(j, masks, key, blocks, twins)

    monkeypatch.setattr(search, "canonical_blocks", counting)
    return calls


def _count_leading_set_searches(monkeypatch) -> list:
    """The keys of the shared walks' searches of H+b with the new vertex in
    the leading set (a start of depth 0), appended as they are made."""
    calls = []
    searched = canonical._Search.below_from

    def counting(self, start):
        if start[0] == 0:
            calls.append(self.bound)
        return searched(self, start)

    monkeypatch.setattr(canonical._Search, "below_from", counting)
    return calls


def _refuse_key(monkeypatch, lost):
    """Make the walk's canonicity test refuse the bitstring lost as well."""
    tested = search.canonical_blocks

    def refusing(j, masks, key, blocks, twins):
        return [b for b in tested(j, masks, key, blocks, twins) if (key << j) | b != lost]

    monkeypatch.setattr(search, "canonical_blocks", refusing)


def test_canonicity_test_counts_are_pinned(monkeypatch):
    # a sweep that repeats a test or stops skipping blocks changes these counts
    # a shared walk that searches a block which cannot be refuted with the new
    # vertex in the leading set changes the leading-set counts
    calls = _count_canonicity_tests(monkeypatch)
    leading = _count_leading_set_searches(monkeypatch)
    _cold_caches(monkeypatch)
    assert len(enumerate_graphs(7)) == 1044
    assert (len(calls), len(leading)) == (1992, 238)
    calls.clear()
    leading.clear()
    assert len(enumerate_graphs(8, edges=7)) == 115
    assert (len(calls), len(leading)) == (712, 63)


def test_searches_leave_no_cyclic_garbage(monkeypatch):
    # a search that defines functions per call, or keeps itself in its own
    # state, leaves a reference cycle per call that only the collector frees
    _cold_caches(monkeypatch)
    steps = [
        lambda: enumerate_graphs(6),
        lambda: [canonical_form(g) for g in enumerate_graphs(6)],
        lambda: [is_cp_graph(g) for g in enumerate_graphs(7)],
        lambda: is_ds(star_graph(7)),
    ]
    gc.collect()
    gc.disable()
    try:
        for i, step in enumerate(steps):
            step()
            assert gc.collect() == 0, i
    finally:
        gc.enable()


def test_enumerate_graphs_refuses_an_edge_count_out_of_range(monkeypatch):
    _cold_caches(monkeypatch)
    for edges in (-1, 11):
        with pytest.raises(ParameterError, match="0..10 edges"):
            enumerate_graphs(5, edges=edges)
    enumerate_graphs(5)  # a cached census does not turn the bad count into ()
    with pytest.raises(ParameterError):
        enumerate_graphs(5, edges=11)
    assert len(enumerate_graphs(5, edges=10)) == 1


def test_edge_layers_partition_the_census(monkeypatch):
    for n in range(1, 8):
        _cold_caches(monkeypatch)
        layers = [enumerate_graphs(n, edges=e) for e in range(pair_count(n) + 1)]
        assert list(map(len, layers)) == search.burnside_layer_counts(n)
        full = enumerate_graphs(n)  # a full call after layer calls is still the census
        assert len(full) == KNOWN_COUNTS[n]
        for e, layer in enumerate(layers):
            assert layer == tuple(g for g in full if g.edge_count == e)


def test_order8_seven_edge_layer_alone(monkeypatch):
    _cold_caches(monkeypatch)
    assert len(enumerate_graphs(8, edges=7)) == 115
    assert 8 not in search._enum_cache  # the order-8 census was never swept


def test_order8_outer_layers_match_polya_and_complements(monkeypatch):
    # the eight sparsest and the eight densest order-8 layers, each swept alone
    _cold_caches(monkeypatch)
    m = pair_count(8)
    counts = search.burnside_layer_counts(8)
    layers = {e: enumerate_graphs(8, edges=e) for e in range(m + 1) if e <= 7 or e >= m - 7}
    assert len(layers) == 16
    for e, layer in layers.items():
        assert len(layer) == counts[e], e
        complements = {canonical_form(complement(g)).key for g in layer}
        assert complements == {g.bits for g in layers[m - e]}, e
    assert 8 not in search._enum_cache


def _expected_verdict(g, classes):
    """The verdict a census scan gives: g's mates are the other members of its
    cospectral class, in ascending bitstring order."""
    own = canonical_form(g).key
    mates = next((tuple(h for h in cls if h.bits != own)
                  for cls in classes if any(h.bits == own for h in cls)), ())
    return DsVerdict(is_ds=not mates, mates=mates, searched_order=g.order)


def test_is_ds_matches_full_census_scan(monkeypatch, rng):
    for n in range(1, 7):
        full = enumerate_graphs(n)
        _cold_caches(monkeypatch)  # is_ds below must not read a cached census
        for g in full:
            poly = charpoly(g)
            mates = tuple(h for h in full if charpoly(h) == poly and h.bits != g.bits)
            assert is_ds(g) == DsVerdict(is_ds=not mates, mates=mates, searched_order=n)
    full = enumerate_graphs(7)
    classes = cospectral_classes(7).nontrivial_classes
    queries = [pyramid_graph(7, k) for k in range(2, 7)]
    queries += [relabel(g, rng.sample(range(7), 7)) for g in rng.sample(full, 60)]
    for g in queries:
        assert is_ds(g) == _expected_verdict(g, classes), graph6_encode(g)


def _layer_mates(g):
    """g's mates from the whole Polya-checked layer sweep of its order and edge
    count, without the interlacing cut and past the enumeration cap."""
    n, e = g.order, g.edge_count
    layer = search._enumerate(n, 1, e)
    assert len(layer) == search.burnside_layer_counts(n)[e]
    poly = charpoly(g).coeffs
    own = min_key(n, g.neighbor_masks())
    return tuple(h for h, p in zip(layer, charpolys(layer)) if p == poly and h.bits != own)


def test_order9_verdicts_match_the_layer_sweeps():
    # layers (9, 8), (9, 26), (9, 30), (9, 33), (9, 35) and (9, 36)
    for g in [star_graph(8)] + [pyramid_graph(9, k) for k in range(4, 9)]:
        with pytest.warns(ResourceWarning, match="Polya"):
            verdict = is_ds(g)
        assert verdict.mates == _layer_mates(g), graph6_encode(g)
        assert verdict.is_ds == (g.edge_count != 8)


def test_pyramids_up_to_order_10_are_ds():
    for n in range(3, 11):
        for k in range(2, n):
            with pytest.warns(ResourceWarning) if n > 8 else contextlib.nullcontext():
                verdict = is_ds(pyramid_graph(n, k))
            assert verdict.is_ds and verdict.mates == (), (n, k)


def test_is_ds_caps_its_order():
    with pytest.raises(OrderCapError, match="1 <= n <= 12"):
        is_ds(empty_graph(13))


def test_ds_stats_are_pinned_and_kept_out_of_equality_and_json():
    star = is_ds(star_graph(7))
    assert star.stats == search.DsStats(canonicity_tests=38, prefixes_cut=148, survivors=1,
                                        berkowitz_levels=51, multipartite_cuts=135)
    with pytest.warns(ResourceWarning):
        square = is_ds(star_graph(9))  # thresholds -3, 0 and 3
    assert square.stats == search.DsStats(canonicity_tests=70, prefixes_cut=482, survivors=2,
                                          berkowitz_levels=98, multipartite_cuts=454)
    # no threshold: a plain layer sweep, which computes no charpoly
    assert is_ds(path_graph(4)).stats == search.DsStats(
        canonicity_tests=9, prefixes_cut=0, survivors=3, berkowitz_levels=0, multipartite_cuts=0)
    book = is_ds(pyramid_graph(7, 2))
    assert book.stats == search.DsStats(canonicity_tests=33, prefixes_cut=80, survivors=1,
                                        berkowitz_levels=42, multipartite_cuts=71)
    assert star == DsVerdict(is_ds=True, mates=(), searched_order=8)
    assert set(star.to_json()) == {"is_ds", "mates", "searched_order"}


def test_ds_stats_count_one_level_per_prefix_not_cut_before_it():
    # the perfbench DS queries, each of which has one positive eigenvalue
    queries = [pyramid_graph(7, k) for k in range(2, 7)] + [star_graph(6), star_graph(7)]
    levels = 0
    for g in queries:
        stats = is_ds(g).stats
        assert (stats.berkowitz_levels + stats.multipartite_cuts
                == stats.canonicity_tests + stats.prefixes_cut), graph6_encode(g)
        levels += stats.berkowitz_levels
    assert levels == 198  # 345 over a perfbench round, which asks all but the last twice


def test_multipartite_rule_cuts_exactly_the_blocks_with_two_positive_eigenvalues():
    # Smith's theorem, checked block by block against a Descartes count of
    # H+b's own Berkowitz charpoly, for each H with at most one positive eigenvalue
    pairs = 0
    for n in range(1, 7):
        for h in enumerate_graphs(n):
            masks = h.neighbor_masks()
            if real_rooted_counts(berkowitz_charpoly(masks), 0)[0] > 1:
                continue
            kept = search._multipartite_blocks(masks)
            for b in range(1 << n):
                two = real_rooted_counts(berkowitz_charpoly(add_column(masks, b)), 0)[0] > 1
                assert (kept is not None and b not in kept) == two, (graph6_encode(h), b)
                pairs += 1
    assert pairs == 2154


def test_paper_families_at_order_12_are_ds():
    # every pyramid T_{12,k} and the star with 11 leaves, at the order cap
    for g in [pyramid_graph(12, k) for k in range(2, 12)] + [star_graph(11)]:
        with pytest.warns(ResourceWarning, match="Polya"):
            verdict = is_ds(g)
        assert verdict.is_ds and verdict.mates == (), graph6_encode(g)


def test_interlacing_thresholds_are_the_integer_eigenvalues():
    bounds = search._integer_eigenvalue_bounds
    star = star_graph(7)
    assert bounds(star, charpoly(star).coeffs) == ((0, 1, 1),)
    pyramid = pyramid_graph(7, 3)  # eigenvalues 1 +- sqrt(13), -1, -1, 0, 0, 0
    assert bounds(pyramid, charpoly(pyramid).coeffs) == ((-1, 4, 1), (0, 1, 3))
    square = star_graph(9)  # eigenvalues -3, 0 (8 times), 3
    assert bounds(square, charpoly(square).coeffs) == ((-3, 9, 0), (0, 1, 1), (3, 0, 9))
    assert bounds(path_graph(4), charpoly(path_graph(4)).coeffs) == ()


def test_carried_counts_equal_the_descartes_count_on_every_prefix_chain(rng):
    # each prefix's counts come from its parent's by interlacing; the oracle
    # counts the prefix's own Berkowitz charpoly with Descartes' rule
    thresholds = tuple(range(-3, 4))
    graphs = [Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                   if rng.random() < density])
              for n in range(2, 11) for density in [rng.random() for _ in range(30)]]
    # 0 and -1 of high multiplicity
    graphs += [complete_graph(n) for n in range(2, 11)] + [empty_graph(n) for n in range(2, 11)]
    graphs += [star_graph(n) for n in range(1, 10)]
    graphs += [pyramid_graph(n, k) for n in range(3, 11) for k in range(1, n)]
    for g in graphs:
        n, masks = g.order, g.neighbor_masks()
        # cuts nothing: every threshold's bounds are the order, and no bitmask rule
        cut = search._InterlacingCut(tuple((a, n, n) for a in thresholds), False)
        carry = cut.root
        assert list(carry[1]) == [real_rooted_counts((1, 0), a) for a in thresholds]
        for j in range(1, n):  # as the walk extends the prefix on vertices 0..j-1
            prefix = [mask & ((1 << j) - 1) for mask in masks[:j]]
            block = sum(1 << (j - 1 - i) for i in range(j) if masks[j] >> i & 1)
            carry = cut.admit(carry, cut.shared(prefix), block)
            coeffs = berkowitz_charpoly(masks[:j + 1])
            assert tuple(carry[0]) == coeffs, (graph6_encode(g), j)
            assert list(carry[1]) == [real_rooted_counts(coeffs, a) for a in thresholds], (
                graph6_encode(g), j)
        assert (cut.tests, cut.cut, cut.levels) == (n - 1, 0, n - 1)


def test_is_ds_refuses_a_layer_short_of_its_polya_count(monkeypatch, capsys):
    # P4 has no integer eigenvalue, so its cut is empty and its walk is the
    # whole layer (4, 3): P4, the star with 3 leaves and K3 + K1
    from specgraph.cli import main
    query = path_graph(4)
    assert search._integer_eigenvalue_bounds(query, charpoly(query).coeffs) == ()
    _refuse_key(monkeypatch, canonical_form(disjoint_union(cycle_graph(3), empty_graph(1))).key)
    with pytest.raises(SpecGraphError, match=r"\(n=4, e=3\) has 2 classes, but Polya counts 3"):
        is_ds(query)
    assert main(["ds", graph6_encode(query)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SpecGraphError" and "(n=4, e=3)" in error["message"]


def test_is_ds_refuses_a_query_whose_own_class_is_cut(monkeypatch):
    _refuse_key(monkeypatch, canonical_form(star_graph(4)).key)
    with pytest.raises(SpecGraphError, match="own class did not survive"):
        is_ds(star_graph(4))


def test_is_ds_refuses_a_corrupted_batched_charpoly(monkeypatch, capsys):
    from specgraph.cli import main
    batched = search.charpolys
    own_key = canonical_form(star_graph(4)).key

    def corrupted(graphs):
        return [p[:-1] + (p[-1] + 1,) if g.bits == own_key else p
                for g, p in zip(graphs, batched(graphs))]

    monkeypatch.setattr(search, "charpolys", corrupted)
    with pytest.raises(SpecGraphError, match="differs from its Berkowitz charpoly"):
        is_ds(star_graph(4))
    assert main(["ds", "--star", "4"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SpecGraphError" and "(n=5, e=4)" in error["message"]


def test_cospectral_classes_small_orders():
    for n in range(1, 5):
        assert cospectral_classes(n).nontrivial_classes == ()
    report = cospectral_classes(5)
    assert report.graph_count == 34
    assert len(report.nontrivial_classes) == 1
    pair = report.nontrivial_classes[0]
    star_key = canonical_form(star_graph(4)).key
    mate_key = canonical_form(disjoint_union(cycle_graph(4), empty_graph(1))).key
    assert {g.bits for g in pair} == {star_key, mate_key}
    assert report.class_count + 1 == report.graph_count  # one merged pair at order 5


def test_order7_has_connected_cospectral_pair():
    report = cospectral_classes(7)
    assert any(
        len(cls) >= 2 and all(is_connected(g) for g in cls)
        for cls in report.nontrivial_classes
    )


def test_class_members_are_pairwise_cospectral_nonisomorphic():
    for n in range(1, 7):
        for cls in cospectral_classes(n).nontrivial_classes:
            for i, a in enumerate(cls):
                for b in cls[i + 1:]:
                    assert are_cospectral(a, b)
                    assert not is_isomorphic(a, b)


def test_class_sizes_sum_to_graph_count():
    for n in range(1, 7):
        report = cospectral_classes(n)
        nontrivial_total = sum(len(c) for c in report.nontrivial_classes)
        trivial = report.class_count - len(report.nontrivial_classes)
        assert trivial + nontrivial_total == report.graph_count


def test_is_ds_examples():
    star = is_ds(star_graph(4))
    assert not star.is_ds
    assert len(star.mates) == 1
    assert is_isomorphic(star.mates[0], disjoint_union(cycle_graph(4), empty_graph(1)))
    assert star.searched_order == 5

    assert is_ds(book_graph(6)).is_ds
    assert is_ds(pyramid_graph(7, 3)).is_ds


def test_is_ds_accepts_any_labeling():
    from specgraph import relabel
    scrambled = relabel(star_graph(4), [4, 2, 0, 1, 3])
    assert not is_ds(scrambled).is_ds


def test_star_mates_include_constructive_mate():
    # a graph whose only nonzero eigenvalues are +-sqrt(n) has rank 2, so it is
    # complete bipartite plus isolated vertices: the star's mates are exactly
    # K_{a,b} + (n + 1 - a - b)K_1 with ab = n and 2 <= a <= b
    for n in (4, 6, 8, 9, 10):
        with pytest.warns(ResourceWarning) if n >= 8 else contextlib.nullcontext():
            verdict = is_ds(star_graph(n))
        expected = sorted(
            canonical_form(disjoint_union(complete_bipartite_graph(a, n // a),
                                          empty_graph(n + 1 - a - n // a))).key
            for a in range(2, math.isqrt(n) + 1) if n % a == 0)
        assert [m.bits for m in verdict.mates] == expected, n
        assert canonical_form(star_cospectral_mate(n)).key in expected, n


def test_star_cospectral_mate_construction():
    mate4 = star_cospectral_mate(4)
    assert is_isomorphic(mate4, disjoint_union(cycle_graph(4), empty_graph(1)))
    mate9 = star_cospectral_mate(9)
    assert mate9.order == 10
    assert not is_connected(mate9)
    assert list(charpoly(mate9).coeffs) == [1, 0, -9] + [0] * 8
    assert charpoly(mate9) == charpoly(star_graph(9))


def test_star_cospectral_mate_exact_up_to_30():
    for n in range(4, 31):
        try:
            mate = star_cospectral_mate(n)
        except ParameterError:
            continue  # prime
        assert list(charpoly(mate).coeffs) == [1, 0, -n] + [0] * (n - 1)
        assert not is_connected(mate)


def test_star_cospectral_mate_refuses_primes_and_tiny():
    for n in (2, 3, 5, 7, 11, 13):
        with pytest.raises(ParameterError):
            star_cospectral_mate(n)


def test_smallest_non_cp_non_ds_below_seven():
    assert smallest_non_cp_non_ds_order(4) is None
    assert smallest_non_cp_non_ds_order(6) is None
    with pytest.raises(OrderCapError):
        smallest_non_cp_non_ds_order(8)


def test_report_serialization():
    payload = cospectral_classes(5).to_json()
    assert payload["order"] == 5
    assert payload["graph_count"] == 34
    assert len(payload["nontrivial_classes"]) == 1
    assert all(isinstance(s, str) for s in payload["nontrivial_classes"][0])
    ds_payload = is_ds(star_graph(4)).to_json()
    assert ds_payload["is_ds"] is False and len(ds_payload["mates"]) == 1
