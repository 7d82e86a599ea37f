"""Shared test helpers: independent oracles kept deliberately separate from
the library code paths they check."""

from fractions import Fraction
from itertools import permutations
from typing import Union

import pytest

from specgraph import Graph, RationalMatrix


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by trying every vertex bijection; independent of canonical forms."""
    if g1.order != g2.order:
        return False
    edges1 = set(edge_list(g1))
    edges2 = edge_list(g2)
    for perm in permutations(range(g2.order)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges2}
        if mapped == edges1:
            return True
    return False


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, sorted, read pair by pair through has_edge only."""
    return [(i, j) for i in range(g.order) for j in range(i + 1, g.order)
            if g.has_edge(i, j)]


def characteristic_matrix(g: Graph, x: Union[int, Fraction]) -> RationalMatrix:
    """xI - A(g) as an exact rational matrix; its rank gives eigenvalue
    multiplicities without the charpoly."""
    rows = g.adjacency_rows()
    return RationalMatrix.from_rows(
        [[(Fraction(x) if i == j else 0) - rows[i][j] for j in range(g.order)]
         for i in range(g.order)])


def direct_triangle_count(g: Graph) -> int:
    """Triangle count by checking all vertex triples."""
    n = g.order
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if g.has_edge(i, j) and g.has_edge(i, k) and g.has_edge(j, k)
    )


@pytest.fixture
def rng():
    import random
    return random.Random(0xC0FFEE)


def random_graph(rng, n: int) -> Graph:
    m = n * (n - 1) // 2
    return Graph(n, rng.getrandbits(m) if m else 0)
