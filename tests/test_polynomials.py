"""Integer polynomial arithmetic on coefficient tuples and exact real-root counting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_graph
from specgraph import ParameterError, charpoly
from specgraph.polynomials import divmod_by_monic, poly_mul, poly_product, real_rooted_counts


def leq_geq(p, a):
    """(roots <= a, roots >= a) with multiplicity, from real_rooted_counts."""
    above, at = real_rooted_counts(p, a)
    return len(p) - 1 - above, above + at


def random_coeffs(rng, length, lead=None):
    """A coefficient tuple of the given length, small entries, optionally fixing the lead."""
    coeffs = [rng.randint(-9, 9) for _ in range(length)]
    if lead is not None:
        coeffs[0] = lead
    return tuple(coeffs)


def test_basic_arithmetic():
    p = (1, -3, 2)  # x^2 - 3x + 2
    q = (1, 1)      # x + 1
    assert poly_mul(p, q) == (1, -2, -1, 2)
    assert poly_product([(q, 3)]) == (1, 3, 3, 1)
    assert poly_product([(p, 1), (q, 2), ((1, 0), 0)]) == poly_mul(poly_mul(p, q), q)
    assert poly_product([]) == (1,)


def test_poly_mul_matches_numpy_polymul():
    # numpy's object-dtype polymul multiplies Python ints exactly
    rng = random.Random(2718)
    for _ in range(300):
        p = random_coeffs(rng, rng.randint(1, 9))
        q = random_coeffs(rng, rng.randint(1, 9))
        expected = np.polymul(np.array(p, dtype=object), np.array(q, dtype=object))
        got = poly_mul(p, q)
        # polymul trims leading zeros; the tuple product keeps len(p) + len(q) - 1 places
        assert len(got) == len(p) + len(q) - 1
        assert np.trim_zeros(np.array(got, dtype=object), "f").tolist() == np.trim_zeros(
            expected, "f").tolist(), (p, q)


def test_divmod_by_monic():
    p = (1, 0, -3, -2)  # (x-2)(x+1)^2
    assert divmod_by_monic(p, (1, -2)) == ((1, 2, 1), (0,))
    assert divmod_by_monic(p, (1, 0)) == ((1, 0, -3), (-2,))
    assert divmod_by_monic(p, (1, 1, 0)) == ((1, -1), (-2, -2))
    assert divmod_by_monic((5,), (1, 0, 0)) == ((0,), (0, 5))
    for divisor in ((2, 1), (0, 1, 1), (-1, 1), ()):
        with pytest.raises(ParameterError):
            divmod_by_monic(p, divisor)


def test_divmod_by_monic_is_euclidean_division():
    rng = random.Random(31415)
    for _ in range(300):
        p = random_coeffs(rng, rng.randint(1, 10))
        d = random_coeffs(rng, rng.randint(1, 5), lead=1)
        q, r = divmod_by_monic(p, d)
        assert len(q) == max(1, len(p) - len(d) + 1)
        assert len(r) == len(d) - 1
        # p == q*d + r, r aligned to the constant term; q*d is never shorter than p
        qd = poly_mul(q, d)
        lead = len(qd) - len(r)
        recombined = qd[:lead] + tuple(a + b for a, b in zip(qd[lead:], r))
        extra = len(recombined) - len(p)
        assert recombined[extra:] == p and not any(recombined[:extra]), (p, d)


def test_root_counting_known_polynomials():
    triangle = (1, 0, -3, -2)  # roots 2, -1, -1
    assert leq_geq(triangle, -1) == (2, 3)
    assert leq_geq(triangle, 0) == (2, 1)
    assert leq_geq(triangle, 2)[0] == 3
    assert [real_rooted_counts(triangle, a)[1] for a in (-1, 2, 5)] == [2, 1, 0]
    assert real_rooted_counts((1,) + (0,) * 5, 0) == (0, 5)


def test_root_counting_with_fraction_threshold():
    p = (1, 0, -2)  # roots +-sqrt(2)
    assert leq_geq(p, Fraction(3, 2))[0] == 2
    assert leq_geq(p, Fraction(-3, 2))[0] == 0
    assert leq_geq(p, Fraction(0))[1] == 1


def test_root_counting_matches_numeric_on_graph_charpolys(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        p = charpoly(g).coeffs
        roots = np.linalg.eigvalsh(np.array(g.adjacency_rows(), dtype=float))
        for a in range(-3, 4):
            # adjacency eigenvalues carry ~1e-14 error, far below the 1e-9 slack
            expected = int((roots <= a + 1e-9).sum())
            expected_geq = int((roots >= a - 1e-9).sum())
            assert leq_geq(p, a) == (expected, expected_geq)
