"""Exact polynomial arithmetic: integer polynomials and real-root counting.

Coefficients run from the highest degree down.  Everything here is exact
integer arithmetic, because cospectrality decisions and eigenvalue counts at
rational thresholds must never depend on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParameterError

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial; coeffs highest degree first, no leading zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0,))
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ParameterError("coefficients must be integers")
        if len(self.coeffs) > 1 and self.coeffs[0] == 0:
            trimmed = list(self.coeffs)
            while len(trimmed) > 1 and trimmed[0] == 0:
                trimmed.pop(0)
            object.__setattr__(self, "coeffs", tuple(trimmed))

    @classmethod
    def of(cls, *coeffs: int) -> "IntPolynomial":
        return cls(tuple(int(c) for c in coeffs))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((1, 0))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def is_monic(self) -> bool:
        return self.coeffs[0] == 1

    def coefficient(self, power: int) -> int:
        """Coefficient of x**power (0 if beyond the degree)."""
        if power < 0 or power > self.degree:
            return 0
        return self.coeffs[self.degree - power]

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        d = self.degree
        if d == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(c * (d - i) for i, c in enumerate(self.coeffs[:-1])))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        pad = len(a) - len(b)
        return IntPolynomial(tuple(a[i] + (b[i - pad] if i >= pad else 0)
                                   for i in range(len(a))))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial((0,))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ParameterError("negative polynomial power")
        result = IntPolynomial((1,))
        for _ in range(e):
            result = result * self
        return result

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            p = self.degree - i
            mag = abs(c)
            if p == 0:
                term = str(mag)
            else:
                var = "x" if p == 1 else f"x^{p}"
                term = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass(frozen=True)
class FactoredIntPolynomial:
    """Product of integer polynomial factors with positive exponents."""

    factors: tuple[tuple[IntPolynomial, int], ...]

    def expand(self) -> IntPolynomial:
        result = IntPolynomial((1,))
        for base, exp in self.factors:
            result = result * base ** exp
        return result

    def to_json(self) -> list[dict]:
        return [{"coefficients": list(base.coeffs), "exponent": exp}
                for base, exp in self.factors]

    def __str__(self) -> str:
        return " * ".join(f"({base})^{exp}" if exp != 1 else f"({base})"
                          for base, exp in self.factors)


def divmod_by_monic(p: IntPolynomial, d: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Exact (quotient, remainder) of p by a monic integer divisor."""
    if not d.is_monic:
        raise ParameterError("divisor must be monic")
    rem = list(p.coeffs)
    dn = d.degree
    if p.degree < dn:
        return IntPolynomial((0,)), p
    quot = [0] * (p.degree - dn + 1)
    for i in range(len(quot)):
        q = rem[i]
        quot[i] = q
        if q:
            for j, c in enumerate(d.coeffs):
                rem[i + j] -= q * c
    return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem[len(quot):]) or (0,))


def real_rooted_counts(p: IntPolynomial, a: Scalar) -> tuple[int, int]:
    """(roots of p strictly above a, multiplicity of a as a root of p).  Exact.

    Precondition: every root of p is real, as for the characteristic
    polynomial of a symmetric matrix.  The count is Descartes' rule of signs
    on p shifted so that a sits at 0, which is exact only for real-rooted
    input: for x^2 + 1 and a = 0 it would report both roots as <= 0.

    With a = r/s (s > 0), the integer polynomial s^n p((y + r)/s) has the
    root s*x - r for each root x of p, so roots above a become positive roots
    and a becomes the root 0.
    """
    r, s = a.numerator, a.denominator
    n = p.degree
    c = [coef * s ** i for i, coef in enumerate(p.coeffs)]   # s^n p(y/s)
    for i in range(n):                                        # Taylor shift by r
        for j in range(1, n + 1 - i):
            c[j] += r * c[j - 1]
    at = 0
    while at < n and c[n - at] == 0:
        at += 1
    signs = [x > 0 for x in c[:n + 1 - at] if x]
    return sum(u != v for u, v in zip(signs, signs[1:])), at
