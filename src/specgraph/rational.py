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
        n = self.nrows
        a = [list(r) for r in self.entries]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col] != 0:
                    f = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return det

    def rank(self) -> int:
        a = [list(r) for r in self.entries]
        nr, nc = self.nrows, self.ncols
        rank = 0
        row = 0
        for col in range(nc):
            pivot = next((r for r in range(row, nr) if a[r][col] != 0), None)
            if pivot is None:
                continue
            a[row], a[pivot] = a[pivot], a[row]
            inv = 1 / a[row][col]
            for r in range(row + 1, nr):
                if a[r][col] != 0:
                    f = a[r][col] * inv
                    for c in range(col, nc):
                        a[r][c] -= f * a[row][c]
            rank += 1
            row += 1
            if row == nr:
                break
        return rank

    def inverse(self) -> "RationalMatrix":
        if not self.is_square:
            raise ParameterError("inverse of a non-square matrix")
        n = self.nrows
        a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, r in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [v * inv for v in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * p for v, p in zip(a[r], a[col])]
        return RationalMatrix(tuple(tuple(row[n:]) for row in a))


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
