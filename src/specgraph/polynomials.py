"""Exact polynomial arithmetic on coefficient tuples, and real-root counting.

A polynomial is a tuple of integer coefficients, highest degree first, as
the charpoly routines return it.  ``poly_mul``, ``poly_product`` and
``divmod_by_monic`` are the whole of the arithmetic; ``IntPolynomial`` is
only the record ``charpoly(g)`` returns.  Everything here is exact integer
arithmetic, because cospectrality decisions and eigenvalue counts at
rational thresholds must never depend on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ParameterError

Scalar = Union[int, Fraction]
Coeffs = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class IntPolynomial:
    """A graph's characteristic polynomial: its coefficients, highest degree first."""

    coeffs: Coeffs


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Coeffs:
    """The product of two coefficient tuples."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def poly_product(pairs: Iterable[tuple[Sequence[int], int]]) -> Coeffs:
    """The product of base**exponent over (base, exponent) pairs."""
    acc: Coeffs = (1,)
    for base, exponent in pairs:
        for _ in range(exponent):
            acc = poly_mul(acc, base)
    return acc


def divmod_by_monic(p: Sequence[int], d: Sequence[int]) -> tuple[Coeffs, Coeffs]:
    """Exact (quotient, remainder) of p by a monic divisor d; the remainder
    has len(d) - 1 coefficients, leading zeros kept."""
    if not d or d[0] != 1:
        raise ParameterError("divisor must be monic")
    rem = [0] * (len(d) - 1 - len(p)) + list(p)
    split = len(rem) - len(d) + 1
    for i in range(split):
        q = rem[i]
        if q:
            for j in range(1, len(d)):
                rem[i + j] -= q * d[j]
    return tuple(rem[:split]) or (0,), tuple(rem[split:])


def real_rooted_counts(coeffs: Sequence[int], a: Scalar) -> tuple[int, int]:
    """(roots of p strictly above a, multiplicity of a as a root of p), where
    p has the integer coefficients coeffs, highest degree first, the leading
    one nonzero.  Exact.

    Precondition: every root of p is real, as for the characteristic
    polynomial of a symmetric matrix.  The count is Descartes' rule of signs
    on p shifted so that a sits at 0, which is exact only for real-rooted
    input: for x^2 + 1 and a = 0 it would report both roots as <= 0.

    With a = r/s (s > 0), the integer polynomial s^n p((y + r)/s) has the
    root s*x - r for each root x of p, so roots above a become positive roots
    and a becomes the root 0.
    """
    r, s = a.numerator, a.denominator
    n = len(coeffs) - 1
    c = [coef * s ** i for i, coef in enumerate(coeffs)]      # s^n p(y/s)
    if r:
        for i in range(n):                                    # Taylor shift by r
            for j in range(1, n + 1 - i):
                c[j] += r * c[j - 1]
    at = 0
    while at < n and c[n - at] == 0:
        at += 1
    signs = [x > 0 for x in c[:n + 1 - at] if x]
    return sum(u != v for u, v in zip(signs, signs[1:])), at
