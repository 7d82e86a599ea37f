"""Integer polynomial arithmetic and exact real-root counting."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_graph
from specgraph import IntPolynomial, ParameterError, charpoly
from specgraph.polynomials import divmod_by_monic, real_rooted_counts

X = IntPolynomial.x()


def leq_geq(p, a):
    """(roots <= a, roots >= a) with multiplicity, from real_rooted_counts."""
    above, at = real_rooted_counts(p, a)
    return p.degree - above, above + at


def test_basic_arithmetic():
    p = IntPolynomial.of(1, -3, 2)  # x^2 - 3x + 2
    q = IntPolynomial.of(1, 1)      # x + 1
    assert (p * q).coeffs == (1, -2, -1, 2)
    assert (p + q).coeffs == (1, -2, 3)
    assert (p - q).coeffs == (1, -4, 1)
    assert (q ** 3).coeffs == (1, 3, 3, 1)
    assert p.evaluate(1) == 0 and p.evaluate(2) == 0 and p.evaluate(3) == 2
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert p.derivative().coeffs == (2, -3)
    assert (p * 0).is_zero


def test_normalization_and_accessors():
    p = IntPolynomial((0, 0, 1, 5))
    assert p.coeffs == (1, 5)
    assert p.degree == 1
    assert p.coefficient(1) == 1 and p.coefficient(0) == 5 and p.coefficient(7) == 0
    with pytest.raises(ParameterError):
        IntPolynomial((1.5, 0))


def test_divmod_by_monic():
    p = IntPolynomial.of(1, 0, -3, -2)  # (x-2)(x+1)^2
    q, r = divmod_by_monic(p, IntPolynomial.of(1, -2))
    assert r.is_zero and q.coeffs == (1, 2, 1)
    q, r = divmod_by_monic(p, IntPolynomial.of(1, 0))
    assert q.coeffs == (1, 0, -3) and r.coeffs == (-2,)
    with pytest.raises(ParameterError):
        divmod_by_monic(p, IntPolynomial.of(2, 1))


def test_root_counting_known_polynomials():
    triangle = IntPolynomial.of(1, 0, -3, -2)  # roots 2, -1, -1
    assert leq_geq(triangle, -1) == (2, 3)
    assert leq_geq(triangle, 0) == (2, 1)
    assert leq_geq(triangle, 2)[0] == 3
    assert [real_rooted_counts(triangle, a)[1] for a in (-1, 2, 5)] == [2, 1, 0]
    assert real_rooted_counts(X ** 5, 0) == (0, 5)


def test_root_counting_with_fraction_threshold():
    p = IntPolynomial.of(1, 0, -2)  # roots +-sqrt(2)
    assert leq_geq(p, Fraction(3, 2))[0] == 2
    assert leq_geq(p, Fraction(-3, 2))[0] == 0
    assert leq_geq(p, Fraction(0))[1] == 1


def test_root_counting_matches_numeric_on_graph_charpolys(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        p = charpoly(g)
        roots = np.linalg.eigvalsh(np.array(g.adjacency_rows(), dtype=float))
        for a in range(-3, 4):
            # adjacency eigenvalues carry ~1e-14 error, far below the 1e-9 slack
            expected = int((roots <= a + 1e-9).sum())
            expected_geq = int((roots >= a - 1e-9).sum())
            assert leq_geq(p, a) == (expected, expected_geq)


def test_string_rendering():
    assert str(IntPolynomial.of(1, 0, -3, -2)) == "x^3 - 3*x - 2"
    assert str(IntPolynomial.of(-1, 2)) == "-x + 2"
    assert str(IntPolynomial.of(0)) == "0"
