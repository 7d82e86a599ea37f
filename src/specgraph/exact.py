"""Exact spectra: division-free characteristic polynomials and closed forms.

The characteristic polynomial is computed over the integers with the
Samuelson-Berkowitz recurrence, so cospectrality is decided by integer
equality and never by floating point.  Closed-form spectra hold eigenvalues
as exact rationals or quadratic surds and can be expanded back into the
characteristic polynomial for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import NotGraphPolynomialError, OrderCapError, ParameterError
from .graphs import FamilyKind, FamilySpec, Graph, make_family
from .polynomials import FactoredIntPolynomial, IntPolynomial, divmod_by_monic
from .rational import RationalMatrix

CHARPOLY_ORDER_CAP = 64


@lru_cache(maxsize=32768)
def charpoly(g: Graph) -> IntPolynomial:
    """det(xI - A(g)) via the division-free Berkowitz recurrence; monic, exact."""
    if g.order > CHARPOLY_ORDER_CAP:
        raise OrderCapError(f"charpoly capped at order {CHARPOLY_ORDER_CAP}")
    n = g.order
    masks = g.neighbor_masks()
    vec = [1]
    rows_lt: list[list[int]] = [[] for _ in range(n)]  # adjacency below the current level
    for m in range(n):
        col = [j for j in range(m) if (masks[m] >> j) & 1]
        # Toeplitz column: 1, -diag (=0), then -(row . M^k . col) for k = 0..m-1
        t = [1, 0]
        if m:
            v = [0] * m
            for j in col:
                v[j] = 1
            for k in range(m):
                t.append(-sum(v[j] for j in col))
                if k < m - 1:
                    v = [sum(v[l] for l in row) for row in rows_lt[:m]]
        new = [0] * (m + 2)
        for i, ti in enumerate(t):
            if ti:
                for j, vj in enumerate(vec):
                    if i + j < m + 2:
                        new[i + j] += ti * vj
        vec = new
        for j in col:
            rows_lt[j].append(m)
        rows_lt[m] = col
    return IntPolynomial(tuple(vec))


def characteristic_matrix(g: Graph, x: Union[int, Fraction]) -> RationalMatrix:
    """xI - A(g) as an exact rational matrix."""
    rows = g.adjacency_rows()
    return RationalMatrix.from_rows(
        [[(Fraction(x) if i == j else 0) - rows[i][j] for j in range(g.order)]
         for i in range(g.order)])


def are_cospectral(g1: Graph, g2: Graph) -> bool:
    """Same spectrum iff identical characteristic polynomials (exact)."""
    if g1.order != g2.order:
        return False
    return charpoly(g1) == charpoly(g2)


def edges_and_triangles(p: IntPolynomial) -> tuple[int, int]:
    """Edge and triangle counts read off a graph characteristic polynomial.

    Newton's identities give sum(eig) = 0, sum(eig^2) = -2 c_{n-2} and
    sum(eig^3) = -3 c_{n-3}, hence edges = -c_{n-2} and triangles = -c_{n-3}/2.
    """
    n = p.degree
    if not p.is_monic:
        raise NotGraphPolynomialError("graph charpoly must be monic")
    if n >= 1 and p.coefficient(n - 1) != 0:
        raise NotGraphPolynomialError("graph charpoly must have zero trace coefficient")
    edges = -p.coefficient(n - 2)
    twice_triangles = -p.coefficient(n - 3)
    if edges < 0 or twice_triangles < 0 or twice_triangles % 2:
        raise NotGraphPolynomialError("edge/triangle counts are not nonnegative integers")
    return edges, twice_triangles // 2


def charpoly_pyramid_factored(n: int, k: int) -> FactoredIntPolynomial:
    """Characteristic polynomial of the pyramid graph on (n, k), in factored form:

        x^(n-k-1) * (x+1)^(k-1) * (x^2 + (1-k) x - (n-k) k)
    """
    if not 1 <= k < n:
        raise ParameterError(f"pyramid requires 1 <= k < n, got (n={n}, k={k})")
    factors = []
    if n - k - 1 > 0:
        factors.append((IntPolynomial.x(), n - k - 1))
    if k - 1 > 0:
        factors.append((IntPolynomial.of(1, 1), k - 1))
    factors.append((IntPolynomial.of(1, 1 - k, -(n - k) * k), 1))
    return FactoredIntPolynomial(tuple(factors))


# ---------------------------------------------------------------------------
# algebraic eigenvalues: rationals and quadratic surds
# ---------------------------------------------------------------------------

def _extract_square(d: int) -> tuple[int, int]:
    """d = f*f * rest with rest squarefree; returns (f, rest)."""
    f = 1
    rest = d
    q = 2
    while q * q <= rest:
        while rest % (q * q) == 0:
            rest //= q * q
            f *= q
        q += 1
    return f, rest


@dataclass(frozen=True)
class QuadraticSurd:
    """(a + b sqrt(d)) / c with d squarefree > 1, b != 0, c > 0, gcd(a, b, c) = 1."""

    a: int
    b: int
    d: int
    c: int

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd(self.a, -self.b, self.d, self.c)

    @property
    def trace(self) -> Fraction:
        """Sum with the conjugate."""
        return Fraction(2 * self.a, self.c)

    @property
    def norm(self) -> Fraction:
        """Product with the conjugate."""
        return Fraction(self.a * self.a - self.b * self.b * self.d, self.c * self.c)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __str__(self) -> str:
        num = f"{self.a} {'+' if self.b >= 0 else '-'} {abs(self.b)}*sqrt({self.d})"
        if self.b in (1, -1):
            num = f"{self.a} {'+' if self.b == 1 else '-'} sqrt({self.d})"
        return f"({num})/{self.c}" if self.c != 1 else f"({num})"


AlgebraicValue = Union[Fraction, QuadraticSurd]


def make_surd(a: int, b: int, d: int, c: int) -> AlgebraicValue:
    """Normalize (a + b sqrt(d))/c; collapses to a Fraction when d is square."""
    if c == 0:
        raise ParameterError("zero denominator")
    if d < 0:
        raise ParameterError("negative discriminant: eigenvalues here are real")
    f, rest = _extract_square(d)
    b *= f
    d = rest
    if d == 1:
        return Fraction(a + b, c)
    if d == 0 or b == 0:
        return Fraction(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(math.gcd(abs(a), abs(b)), c)
    return QuadraticSurd(a // g, b // g, d, c // g)


def quadratic_roots(b: int, c: int) -> tuple[AlgebraicValue, AlgebraicValue]:
    """Roots of x^2 + b x + c, ascending; requires a nonnegative discriminant."""
    disc = b * b - 4 * c
    if disc < 0:
        raise ParameterError("complex roots not supported")
    lo = make_surd(-b, -1, disc, 2)
    hi = make_surd(-b, 1, disc, 2)
    return lo, hi


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Multiset of exact eigenvalues: ((value, multiplicity), ...) ascending."""

    entries: tuple[tuple[AlgebraicValue, int], ...]

    @classmethod
    def build(cls, pairs) -> "ClosedFormSpectrum":
        merged: dict[AlgebraicValue, int] = {}
        for value, mult in pairs:
            if mult < 0:
                raise ParameterError("negative multiplicity")
            if mult:
                merged[value] = merged.get(value, 0) + mult
        ordered = sorted(merged.items(), key=lambda kv: float(kv[0]))
        return cls(tuple(ordered))

    @property
    def order(self) -> int:
        return sum(m for _, m in self.entries)

    def values_float(self) -> list[float]:
        """All eigenvalues as floats, repeated by multiplicity, ascending."""
        out = []
        for value, mult in self.entries:
            out.extend([float(value)] * mult)
        return out

    def expand(self) -> IntPolynomial:
        """prod (x - value)^mult, verified to have integer coefficients."""
        acc = IntPolynomial.of(1)
        seen_surds = set()
        for value, mult in self.entries:
            if isinstance(value, Fraction):
                coeffs = (1, -value)
            else:
                if value in seen_surds:
                    continue
                conj = value.conjugate()
                conj_mult = dict(self.entries).get(conj)
                if conj_mult != mult:
                    raise ParameterError(
                        f"surd {value} lacks a conjugate of equal multiplicity")
                seen_surds.add(conj)
                coeffs = (1, -value.trace, value.norm)
            # Gauss's lemma: a product of monic rational factors is integral
            # exactly when every factor is
            if any(c.denominator != 1 for c in coeffs):
                raise ParameterError("expansion is not an integer polynomial")
            acc = acc * IntPolynomial(tuple(int(c) for c in coeffs)) ** mult
        return acc

    def to_json(self) -> list[dict]:
        out = []
        for value, mult in self.entries:
            if isinstance(value, Fraction):
                item = {"kind": "rational", "numerator": value.numerator,
                        "denominator": value.denominator}
            else:
                item = {"kind": "quadratic-surd", "a": value.a, "b": value.b,
                        "d": value.d, "c": value.c}
            item["approx"] = float(value)
            item["multiplicity"] = mult
            out.append(item)
        return out

    def __str__(self) -> str:
        return "{" + ", ".join(
            f"({value})^{mult}" if mult != 1 else f"({value})"
            for value, mult in self.entries) + "}"


def _split_into_small_factors(p: IntPolynomial, root_bound: int) -> Optional[ClosedFormSpectrum]:
    """Factor a monic integer polynomial into linear and quadratic pieces.

    All roots are assumed real with |root| <= root_bound.  Returns None when
    an irreducible factor of degree > 2 remains.
    """
    rem = p
    pairs: list[tuple[AlgebraicValue, int]] = []
    for r in range(-root_bound, root_bound + 1):
        count = 0
        while rem.degree > 0 and rem.evaluate(r) == 0:
            rem = divmod_by_monic(rem, IntPolynomial.of(1, -r))[0]
            count += 1
        if count:
            pairs.append((Fraction(r), count))
    for b in range(-2 * root_bound, 2 * root_bound + 1):
        for c in range(-root_bound * root_bound, root_bound * root_bound + 1):
            disc = b * b - 4 * c
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue  # only irreducible real quadratics
            quad = IntPolynomial.of(1, b, c)
            count = 0
            while rem.degree >= 2:
                quot, r = divmod_by_monic(rem, quad)
                if not r.is_zero:
                    break
                rem = quot
                count += 1
            if count:
                lo, hi = quadratic_roots(b, c)
                pairs.append((lo, count))
                pairs.append((hi, count))
    if rem.degree != 0:
        return None
    return ClosedFormSpectrum.build(pairs)


def closed_form_spectrum(spec: FamilySpec) -> Optional[ClosedFormSpectrum]:
    """Exact spectrum of a named family, or None when no rational/quadratic
    closed form exists (irrational-cosine paths and cycles)."""
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.COMPLETE:
        n = p[0]
        return ClosedFormSpectrum.build([(Fraction(-1), n - 1), (Fraction(n - 1), 1)])
    if kind is FamilyKind.EMPTY:
        return ClosedFormSpectrum.build([(Fraction(0), p[0])])
    if kind is FamilyKind.STAR:
        n = p[0]
        return ClosedFormSpectrum.build([
            (make_surd(0, -1, n, 1), 1), (Fraction(0), n - 1), (make_surd(0, 1, n, 1), 1)])
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        m, n = p
        return ClosedFormSpectrum.build([
            (make_surd(0, -1, m * n, 1), 1), (Fraction(0), m + n - 2),
            (make_surd(0, 1, m * n, 1), 1)])
    if kind is FamilyKind.PYRAMID:
        n, k = p
        lo, hi = quadratic_roots(1 - k, -(n - k) * k)
        return ClosedFormSpectrum.build([
            (lo, 1), (Fraction(-1), k - 1), (Fraction(0), n - k - 1), (hi, 1)])
    if kind in (FamilyKind.PATH, FamilyKind.CYCLE):
        # eigenvalues are 2cos(.) in [-2, 2]; keep only rational/quadratic spectra
        return _split_into_small_factors(charpoly(make_family(spec)), 2)
    raise ParameterError(f"unknown family kind {kind!r}")
