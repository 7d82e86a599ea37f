"""Exact rational dense matrices: determinant, rank, inverse, Schur complement.

No floating point enters this module; entries are ints or fractions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParameterError, SingularMatrixError

Entry = Union[int, Fraction]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ParameterError(f"rational matrix entries must be int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]]) -> "RationalMatrix":
        if not rows or not rows[0]:
            raise ParameterError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParameterError("ragged rows")
        return cls(tuple(tuple(_coerce(v) for v in r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ParameterError("inner dimensions do not match")
        cols = list(zip(*other.entries))
        return RationalMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries))

    def _same_shape(self, other: "RationalMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ParameterError("shape mismatch")

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(tuple(
            tuple(self.entries[i][j] for j in cols) for i in rows))

    def determinant(self) -> Fraction:
        if not self.is_square:
            raise ParameterError("determinant of a non-square matrix")
        det, rank, _ = _gauss_jordan([list(r) for r in self.entries], self.ncols)
        return det if rank == self.nrows else Fraction(0)

    def rank(self) -> int:
        return _gauss_jordan([list(r) for r in self.entries], self.ncols)[1]

    def inverse(self) -> "RationalMatrix":
        if not self.is_square:
            raise ParameterError("inverse of a non-square matrix")
        n = self.nrows
        augmented = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
                     for i, r in enumerate(self.entries)]
        _, rank, rows = _gauss_jordan(augmented, n)
        if rank < n:
            raise SingularMatrixError("matrix is singular")
        # row i's pivot is its i-th entry: divide it out of row i's part of I
        return RationalMatrix(tuple(
            tuple(v / row[i] for v in row[n:]) for i, row in enumerate(rows)))


def _gauss_jordan(rows: list[list[Fraction]],
                  ncols: int) -> tuple[Fraction, int, list[list[Fraction]]]:
    """Gauss-Jordan elimination in place over the first ncols columns of rows:
    each pivot is left the only nonzero entry of its column, unscaled.
    Returns the product of the pivots, negated once per row swap (the
    determinant, when those columns are square and of full rank); the number
    of pivots (the rank); and the rows."""
    det, rank = Fraction(1), 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        det *= lead
        pivot_row = rows[rank][col:]  # left of col, it is 0
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                f = row[col] / lead
                row[col:] = [v - f * p for v, p in zip(row[col:], pivot_row)]
        rank += 1
    return det, rank, rows


def schur_complement(m: RationalMatrix, split: int) -> RationalMatrix:
    """M/D = A - B D^-1 C for M = [[A, B], [C, D]], D the trailing split x split block."""
    if not m.is_square:
        raise ParameterError("Schur complement needs a square matrix")
    n = m.nrows
    if not 1 <= split < n:
        raise ParameterError(f"split must be in 1..{n - 1}")
    head = range(n - split)
    tail = range(n - split, n)
    a = m.submatrix(head, head)
    b = m.submatrix(head, tail)
    c = m.submatrix(tail, head)
    d = m.submatrix(tail, tail)
    try:
        d_inv = d.inverse()
    except SingularMatrixError:
        raise SingularMatrixError("trailing block D is singular") from None
    return a - b * d_inv * c


def verify_schur_identities(m: RationalMatrix, split: int) -> tuple[bool, bool]:
    """Evaluate det(M) = det(D) det(M/D) and rank(M) = rank(D) + rank(M/D) exactly."""
    n = m.nrows
    tail = range(n - split, n)
    d = m.submatrix(tail, tail)
    s = schur_complement(m, split)
    det_ok = m.determinant() == d.determinant() * s.determinant()
    rank_ok = m.rank() == d.rank() + s.rank()
    return det_ok, rank_ok
