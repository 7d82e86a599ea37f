"""Exact spectra: integer characteristic polynomials and closed forms.

Two paths compute the characteristic polynomial over the integers, so
cospectrality is decided by integer equality and never by floating point:

- ``charpoly(g)``, the single-graph path: the division-free
  Samuelson-Berkowitz recurrence in Python integers, for any order up to
  ``CHARPOLY_ORDER_CAP``.  It is also the reference for the other path.
- ``charpolys(graphs)``, the batched path for a census or one edge layer of
  it: power traces and Newton's identities in int64 numpy, for a set of
  graphs of one order up to ``CHARPOLYS_ORDER_CAP``.

A single graph goes to ``charpoly``; a same-order set of graphs of order at
most 10 goes to ``charpolys``.  Closed-form spectra hold eigenvalues as exact
rationals or quadratic surds and can be expanded back into the characteristic
polynomial for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NotGraphPolynomialError, OrderCapError, ParameterError, SpecGraphError
from .graphs import FamilyKind, FamilySpec, Graph, adjacency_tensor, make_family
from .polynomials import FactoredIntPolynomial, IntPolynomial, divmod_by_monic

CHARPOLY_ORDER_CAP = 64
CHARPOLYS_ORDER_CAP = 10
_CHUNK = 256  # graphs per batched product: bounded memory, no per-graph cache


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
        vec = _berkowitz_level(vec, rows_lt[:m], col)
        for j in col:
            rows_lt[j].append(m)
        rows_lt[m] = col
    return IntPolynomial(tuple(vec))


def berkowitz_level(coeffs: Sequence[int], masks: Sequence[int]) -> list[int]:
    """Charpoly coefficients of the graph given by masks, from coeffs, those of
    its leading block: the graph on all vertices but the last.  One level of
    charpoly's recurrence."""
    m = len(masks) - 1
    below = (1 << m) - 1
    rows = [_bit_indices(mask & below) for mask in masks]
    return _berkowitz_level(coeffs, rows[:m], rows[m])


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _berkowitz_level(vec: Sequence[int], rows: list[list[int]], col: list[int]) -> list[int]:
    """The leading (m+1)-block's charpoly from the m-block's, vec.  rows[j] lists
    the neighbours of vertex j < m below m, and col those of vertex m."""
    m = len(rows)
    # Toeplitz column: 1, -diag (=0), then -(row . M^k . col) for k = 0..m-1
    t = [1, 0]
    if col:  # else every walk term is 0
        v = [0] * m
        for j in col:
            v[j] = 1
        for k in range(m):
            t.append(-sum(map(v.__getitem__, col)))
            if k < m - 1:
                v = [sum(map(v.__getitem__, row)) for row in rows]
    new = [0] * (m + 2)
    for i, ti in enumerate(t):
        if ti:
            for j, vj in enumerate(vec):
                if i + j < m + 2:
                    new[i + j] += ti * vj
    return new


def charpolys(graphs: Sequence[Graph]) -> list[tuple[int, ...]]:
    """Charpoly coefficients, highest degree first, of graphs of one order n <= 10.

    For each chunk of graphs: the int64 adjacency tensor decoded from their
    bits, the power traces p_k = tr(A^k) for k = 2..n, and Newton's
    identities k c_k = -(p_2 c_{k-2} + ... + p_k c_0), with c_0 = 1 and
    c_1 = -p_1 = 0.  Every division is checked to be exact.  As A is
    symmetric, tr(A^k) is the entrywise product sum of A^(k // 2) and
    A^(k - k // 2), so batched products build the powers only up to A^ceil(n/2).

    int64 holds every value for n <= 10: entries of A^k are at most 9^10,
    traces at most 10 * 9^10 < 3.5e10, and |c_j| <= C(n, j) j^(j/2) < 2e5 by
    Hadamard's bound on the principal minors, so each Newton sum stays below
    9 * 3.5e10 * 2e5 < 2^57, far below 2^63.
    """
    if not graphs:
        return []
    n = graphs[0].order
    if any(g.order != n for g in graphs):
        raise ParameterError("charpolys needs graphs of one order")
    if n > CHARPOLYS_ORDER_CAP:
        raise OrderCapError(f"charpolys capped at order {CHARPOLYS_ORDER_CAP}")
    out: list[tuple[int, ...]] = []
    for start in range(0, len(graphs), _CHUNK):
        adj = adjacency_tensor(n, [g.bits for g in graphs[start:start + _CHUNK]])
        powers = [None, adj]
        traces = [None, None]  # p_0 and p_1 do not enter: c_1 = 0
        coeffs = [np.ones(len(adj), dtype=np.int64), np.zeros(len(adj), dtype=np.int64)]
        for k in range(2, n + 1):
            if len(powers) <= k - k // 2:
                powers.append(powers[-1] @ adj)
            traces.append(np.einsum("bij,bij->b", powers[k // 2], powers[k - k // 2]))
            quot, rem = np.divmod(-sum(traces[i] * coeffs[k - i] for i in range(2, k + 1)), k)
            if rem.any():
                raise SpecGraphError(f"Newton's identity not exact at k={k}: int64 overflow")
            coeffs.append(quot)
        out.extend(map(tuple, np.stack(coeffs, axis=1).tolist()))
    return out


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
