"""graph6 codec against the published format and a reference implementation."""

from types import SimpleNamespace

import networkx as nx
import pytest

from conftest import random_graph
from specgraph import (Graph, Graph6Error, ParameterError, complete_graph,
                       empty_graph, graph6_decode, graph6_encode, star_graph, to_dot)
from specgraph.graph6 import _value
from specgraph.graphs import pair_count
from specgraph.search import enumerate_graphs


def test_reference_values():
    assert graph6_encode(complete_graph(5)) == "D~{"
    assert graph6_encode(empty_graph(1)) == "@"
    assert graph6_decode("D~{") == complete_graph(5)
    assert graph6_decode("@") == empty_graph(1)


def test_header_is_stripped():
    assert graph6_decode(">>graph6<<D~{") == complete_graph(5)


def test_roundtrip_on_all_small_graphs():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert graph6_decode(graph6_encode(g)) == g


def test_roundtrip_random_orders_up_to_ten(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        assert graph6_decode(graph6_encode(g)) == g


def test_matches_networkx(rng):
    # orders 63 and 64 take the long form: "~" and the order in 18 bits
    for n in [rng.randint(1, 12) for _ in range(60)] + [63, 64]:
        g = random_graph(rng, n)
        ours = graph6_encode(g)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.order))
        ref.add_edges_from(g.edges())
        assert ours == nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert graph6_decode(ours) == g
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


def _shifted_value(raw):
    """The 6-bit groups of raw by one shift per group: the quadratic reference."""
    value = 0
    for byte in raw:
        value = (value << 6) | (byte - 63)
    return value


def test_value_matches_one_shift_per_group(rng):
    for _ in range(300):
        raw = bytes(rng.randrange(63, 127) for _ in range(rng.choice([0, 1, 3, 50, 700])))
        assert _value(raw) == _shifted_value(raw)


def test_roundtrip_of_a_large_complete_graph():
    # the long form with 749,750 data bytes, decoded in one pass
    g = Graph(3000, (1 << pair_count(3000)) - 1)
    text = graph6_encode(g)
    assert len(text) == 4 + 749750
    assert graph6_decode(text) == g


def test_random_strings_raise_only_graph6_errors(rng):
    alphabet = [chr(c) for c in range(60, 128)]
    for _ in range(3000):
        text = rng.choice(["", "~", "~?", "~~"]) + "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        try:
            graph6_decode(text)
        except Graph6Error:
            pass


def test_malformed_inputs():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("D~")  # truncated data
    with pytest.raises(Graph6Error):
        graph6_decode("D~{{")  # extra data
    with pytest.raises(Graph6Error):
        graph6_decode("A\x1f")  # byte below 63
    with pytest.raises(Graph6Error):
        graph6_decode("Aé")  # not ascii
    with pytest.raises(Graph6Error):
        graph6_decode("~??")  # long form with two of its three order bytes
    with pytest.raises(Graph6Error):
        graph6_decode("~???")  # long form of an order below 63
    with pytest.raises(Graph6Error):
        graph6_decode("~~??????")  # the 36-bit form


def test_trailing_padding_must_be_zero():
    assert graph6_decode("A_") == complete_graph(2)  # single data bit set, pad clear
    with pytest.raises(Graph6Error):
        graph6_decode("A@")  # a padding bit set


def test_encode_order_cap():
    # order 63 takes the long form; past 258047 the 36-bit form would be
    # needed, and a Graph that large is not built here
    assert graph6_encode(empty_graph(63)) == "~??~" + "?" * 326
    assert graph6_encode(empty_graph(64)).startswith("~?@?")
    with pytest.raises(ParameterError):
        graph6_encode(SimpleNamespace(order=258048, bits=0))


def test_dot_output():
    text = to_dot(star_graph(2))
    assert "graph G {" in text
    assert "0 -- 1;" in text and "0 -- 2;" in text
