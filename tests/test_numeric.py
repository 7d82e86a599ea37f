"""Numeric eigenvalues with exact integers, eigenvalue counting, interlacing."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import characteristic_matrix, random_graph
from specgraph import (Graph, ParameterError, charpoly, complete_graph, count_geq, count_leq,
                       cycle_graph, eigenvalues, empty_graph, path_graph, relabel,
                       verify_interlacing)
from specgraph.numeric import NumericSpectrum
from specgraph.polynomials import real_rooted_counts
from specgraph.search import enumerate_graphs
from specgraph.verify import OCTAHEDRON_LESS_EDGE_ROWS, OCTAHEDRON_ROWS


def test_octahedron_spectrum_is_exact():
    vals = eigenvalues(Graph.from_adjacency(OCTAHEDRON_ROWS)).values
    assert vals == (4.0, 0.0, 0.0, 0.0, -2.0, -2.0)


def test_integer_eigenvalues_are_exact_and_labelling_free():
    # every integer root c of the charpoly appears exactly `at` times, as the
    # float c itself (never -0.0), and no other value lies within 1e-9 of an
    # integer; a relabelling leaves the integers identical and moves the rest
    # by at most 1e-12
    rng = random.Random(7)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            values = eigenvalues(g).values
            poly = charpoly(g)
            for v in values:
                if abs(v - round(v)) <= 1e-9:
                    assert v == round(v) and str(v) != "-0.0"
            for c in range(-n, n + 1):
                assert values.count(c) == real_rooted_counts(poly.coeffs, c)[1]
            perm = list(range(n))
            rng.shuffle(perm)
            for a, b in zip(values, eigenvalues(relabel(g, perm)).values):
                if a == round(a):
                    assert b == a
                else:
                    assert abs(a - b) <= 1e-12


def test_path_spectrum_cosines():
    vals = eigenvalues(path_graph(4)).values
    expected = sorted((2 * math.cos(math.pi * k / 5) for k in range(1, 5)), reverse=True)
    assert np.allclose(vals, expected, atol=1e-9)


def test_empty_graph_spectrum():
    assert eigenvalues(empty_graph(5)).values == (0.0,) * 5


def test_spectrum_is_descending_and_traceless(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        spec = eigenvalues(g)
        assert len(spec.values) == g.order
        assert list(spec.values) == sorted(spec.values, reverse=True)
        assert abs(sum(spec.values)) < 1e-9


def test_eigenvalues_are_charpoly_roots(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        p = charpoly(g)
        for v in eigenvalues(g).values:
            scale = sum(abs(c) * max(1.0, abs(v)) ** (g.order - i)
                        for i, c in enumerate(p.coeffs))
            assert abs(float(np.polyval(p.coeffs, v))) <= 1e-6 * scale


def test_clustering():
    spec = NumericSpectrum((2.0, 1.0 + 5e-9, 1.0, 0.0))
    assert spec.clustered() == ((2.0, 1), (1.0 + 2.5e-9, 2), (0.0, 1))


def test_closed_walk_counts_match_spectral_moments(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        vals = eigenvalues(g).values
        a = np.array(g.adjacency_rows(), dtype=np.int64)
        for k in range(1, 5):
            walks = int(np.trace(np.linalg.matrix_power(a, k)))  # closed k-walks, exact
            assert abs(walks - sum(v ** k for v in vals)) < 1e-6


def test_count_leq_geq_exact_integer_thresholds():
    k3 = complete_graph(3)
    assert count_leq(k3, -1) == 2
    assert count_geq(k3, -1) == 3
    assert count_geq(k3, 0) == 1
    assert count_geq(empty_graph(7), 0) == 7
    octa_less = Graph.from_adjacency(OCTAHEDRON_LESS_EDGE_ROWS)
    assert octa_less.order - count_geq(octa_less, -1) == 2  # strictly below -1


def test_count_with_float_threshold_counts_positives(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        if g.edge_count:
            assert count_geq(g, 1e-9) >= 1
    assert count_geq(empty_graph(4), 1e-9) == 0


def test_count_takes_a_float_at_its_exact_value_and_refuses_non_finite_thresholds():
    k3 = complete_graph(3)  # eigenvalues 2, -1, -1
    assert count_geq(k3, -1.0) == 3 and count_leq(k3, -1.0) == 2
    assert count_geq(k3, 2.0) == 1 and count_leq(k3, 2.0 - 2 ** -50) == 2
    for bad in (float("nan"), math.inf, -math.inf, True, "1", None):
        with pytest.raises(ParameterError, match="finite"):
            count_geq(k3, bad)
        with pytest.raises(ParameterError, match="finite"):
            count_leq(k3, bad)


def test_count_exact_matches_numeric(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        vals = np.array(eigenvalues(g).values)
        for a in (-2, -1, 0, 1, 2):
            assert count_leq(g, a) == int((vals <= a + 1e-9).sum())
            assert count_geq(g, a) == int((vals >= a - 1e-9).sum())



def test_exact_multiplicity_equals_nullity_of_characteristic_matrix():
    # A symmetric matrix is diagonalizable, so the algebraic multiplicity of a
    # counts as n - rank(aI - A), an oracle independent of the charpoly.
    thresholds = list(range(-3, 3)) + [Fraction(1, 2), Fraction(-5, 3)]
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for a in thresholds:
                multiplicity = count_leq(g, a) + count_geq(g, a) - n
                assert multiplicity == n - characteristic_matrix(g, a).rank()

def test_interlacing_examples():
    # eigenvalues of an adjacent pair inside the 3-path: -sqrt2 <= -1 <= 0 <= 1 <= sqrt2
    assert verify_interlacing(path_graph(3), [0, 1])
    assert verify_interlacing(complete_graph(5), [0, 1, 2, 3])
    assert verify_interlacing(cycle_graph(5), range(5))  # full set: equality
    with pytest.raises(ParameterError):
        verify_interlacing(path_graph(3), [])
    with pytest.raises(ParameterError):
        verify_interlacing(path_graph(3), [0, 5])


def test_interlacing_random(rng):
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        subset = rng.sample(range(n), rng.randint(1, n - 1))
        assert verify_interlacing(g, subset)

