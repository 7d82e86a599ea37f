"""Isomorph-free enumeration, cospectral classes, DS verdicts, star mates."""

import json

import pytest

from specgraph import (DsVerdict, OrderCapError, ParameterError, SpecGraphError,
                       are_cospectral, book_graph, burnside_graph_count, canonical_form, complement,
                       charpoly, cospectral_classes, cycle_graph, disjoint_union, empty_graph,
                       enumerate_graphs, is_connected, is_ds, is_isomorphic,
                       pyramid_graph, search, smallest_non_cp_non_ds_order,
                       star_cospectral_mate, star_graph)
from specgraph.graphs import Graph, pair_count

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _cold_caches(monkeypatch):
    """Empty enumeration caches until the test ends; the warm ones come back after."""
    monkeypatch.setattr(search, "_enum_cache", {})
    monkeypatch.setattr(search, "_layer_cache", {})


def test_enumeration_counts_small():
    for n in range(1, 7):
        assert len(enumerate_graphs(n)) == KNOWN_COUNTS[n]


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


def test_workers_shard_merge_equals_single_worker(monkeypatch):
    single = enumerate_graphs(5)
    search._enum_cache.pop(5, None)
    multi = enumerate_graphs(5, workers=2)
    assert single == multi

    _cold_caches(monkeypatch)
    single_layer = enumerate_graphs(7, edges=10)
    search._layer_cache.clear()
    assert enumerate_graphs(7, edges=10, workers=2) == single_layer


def test_edge_layers_partition_the_census(monkeypatch):
    for n in range(1, 8):
        _cold_caches(monkeypatch)
        layers = [enumerate_graphs(n, edges=e) for e in range(pair_count(n) + 1)]
        assert list(map(len, layers)) == search.burnside_layer_counts(n)
        full = enumerate_graphs(n)  # a full call after layer calls is still the census
        assert len(full) == KNOWN_COUNTS[n]
        for e, layer in enumerate(layers):
            assert layer == tuple(g for g in full if g.edge_count == e)
            assert enumerate_graphs(n, edges=e) == layer  # now filtered from the census


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


def test_is_ds_matches_full_census_scan(monkeypatch):
    for n in range(1, 7):
        full = enumerate_graphs(n)
        _cold_caches(monkeypatch)  # is_ds below must enumerate its own layers
        for g in full:
            poly = charpoly(g)
            mates = tuple(h for h in full if charpoly(h) == poly and h.bits != g.bits)
            assert is_ds(g) == DsVerdict(is_ds=not mates, mates=mates, searched_order=n)


def test_is_ds_refuses_a_layer_short_of_its_polya_count(monkeypatch, capsys):
    from specgraph.cli import main
    _cold_caches(monkeypatch)
    layer = enumerate_graphs(5, edges=4)
    monkeypatch.setitem(search._layer_cache, (5, 4), layer[:-1])  # one class lost
    with pytest.raises(SpecGraphError, match=r"\(n=5, e=4\) has 5 classes, but Polya counts 6"):
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
    for n in (4, 6):
        verdict = is_ds(star_graph(n))
        mate = star_cospectral_mate(n)
        assert any(is_isomorphic(m, mate) for m in verdict.mates)


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
