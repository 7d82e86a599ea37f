"""Exact rational matrices and the Schur complement identities."""

from fractions import Fraction
from itertools import permutations

import pytest

from conftest import characteristic_matrix
from specgraph import (ParameterError, RationalMatrix, SingularMatrixError, pyramid_graph,
                       schur_complement, verify_schur_identities)


def laplace_determinant(m: RationalMatrix) -> Fraction:
    """Independent determinant via the Leibniz permutation expansion."""
    n = m.nrows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m.entries[i][perm[i]]
        total += sign * term
    return total


def test_entry_coercion_rejects_floats():
    with pytest.raises(ParameterError):
        RationalMatrix.from_rows([[0.5]])
    m = RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 2]])
    assert m.entries[0][1] == Fraction(1, 2)


def test_determinant_rank_inverse():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert m.determinant() == 1
    assert m.rank() == 2
    inv = m.inverse()
    assert inv * m == RationalMatrix.identity(2)
    singular = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert singular.determinant() == 0
    assert singular.rank() == 1
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    # non-square, with a column that has no pivot
    assert RationalMatrix.from_rows([[0, 1, 2], [0, 2, 5]]).rank() == 2
    assert RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]]).rank() == 1


def test_determinant_matches_leibniz_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        m = RationalMatrix.from_rows([
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n)])
        det = m.determinant()
        assert det == laplace_determinant(m)
        assert (m.rank() == n) == (det != 0)
        if det:
            assert m.inverse() * m == RationalMatrix.identity(n)


def test_scalar_schur_complement():
    m = RationalMatrix.from_rows([[3, 4], [5, 7]])
    s = schur_complement(m, 1)
    assert s.entries == ((Fraction(3) - Fraction(4 * 5, 7),),)


def test_block_diagonal_schur_complement():
    m = RationalMatrix.from_rows([
        [1, 2, 0, 0],
        [3, 4, 0, 0],
        [0, 0, 5, 6],
        [0, 0, 7, 8],
    ])
    s = schur_complement(m, 2)
    assert s == RationalMatrix.from_rows([[1, 2], [3, 4]])


def test_singular_trailing_block():
    m = RationalMatrix.from_rows([[1, 1], [1, 0]])
    with pytest.raises(SingularMatrixError):
        schur_complement(m, 1)


def test_pyramid_characteristic_matrix_schur_value():
    # (2I - A) for the 6-vertex pyramid with a 3-clique base, trailing block
    # the three apexes: complement must equal 3I - (5/2)J
    m = characteristic_matrix(pyramid_graph(6, 3), 2)
    s = schur_complement(m, 3)
    expected = RationalMatrix.from_rows([
        [3 - Fraction(5, 2) if i == j else -Fraction(5, 2) for j in range(3)]
        for i in range(3)])
    assert s == expected
    # independent route: A - B D^-1 C with plain fraction arithmetic
    a = m.submatrix(range(3), range(3))
    b = m.submatrix(range(3), range(3, 6))
    c = m.submatrix(range(3, 6), range(3))
    d = m.submatrix(range(3, 6), range(3, 6))
    assert s == a - b * d.inverse() * c


def test_schur_identities_hand_cases():
    ident = RationalMatrix.identity(4)
    for split in (1, 2, 3):
        assert verify_schur_identities(ident, split) == (True, True)
    m = RationalMatrix.from_rows([[0, 1], [1, 1]])
    assert m.determinant() == -1
    assert verify_schur_identities(m, 1) == (True, True)


def test_schur_identities_random(rng):
    done = 0
    while done < 60:
        n = rng.randint(2, 6)
        split = rng.randint(1, n - 1)
        m = RationalMatrix.from_rows([
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)])
        tail = range(n - split, n)
        if m.submatrix(tail, tail).determinant() == 0:
            continue
        assert verify_schur_identities(m, split) == (True, True)
        # the determinant identity, re-derived with the independent oracle
        s = schur_complement(m, split)
        assert laplace_determinant(m) == (
            laplace_determinant(m.submatrix(tail, tail)) * laplace_determinant(s))
        done += 1


def test_shape_validation():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ParameterError):
        m.determinant()
    with pytest.raises(ParameterError):
        schur_complement(RationalMatrix.identity(3), 3)
    with pytest.raises(ParameterError):
        RationalMatrix.from_rows([[1], [2, 3]])
