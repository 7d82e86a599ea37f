"""Exact spectra: integer characteristic polynomials and closed forms.

One routine computes the characteristic polynomial over the integers, so
cospectrality is decided by integer equality and never by floating point:
``charpolys(graphs)`` takes a set of graphs of one order n up to
``CHARPOLY_ORDER_CAP``, ``charpoly_rows(graphs)`` returns its result as one
int64 array where one prime suffices, and ``charpoly(g)`` is the same routine
on a batch of one, cached, in the one-field ``IntPolynomial`` record.  Every
polynomial here is a tuple of integer coefficients, highest degree first,
multiplied and divided by the tuple functions of ``polynomials``.  For each
of a few primes p, it reduces the power traces p_k = tr(A^k) mod p and
solves Newton's identities

    k c_k = -(p_2 c_{k-2} + ... + p_k c_0),   c_0 = 1,  c_1 = -p_1 = 0,

mod p, dividing by k through its inverse mod p.  The Chinese remainder
theorem then gives each c_j modulo the product M of the primes, and the
symmetric residue in (-M/2, M/2) is c_j itself, because M exceeds twice
Hadamard's bound: c_j is (-1)^j times the sum of the C(n, j) principal j x j
minors, each of whose rows has at most j - 1 ones, so
|c_j| <= C(n, j) (j-1)^(j/2).  ``_plan`` picks the fewest primes of
``PRIMES`` whose product beats that bound (one up to order 12, eight at 64).

Every value fits in int64.  Residues are below p < 2^25, so a product of
two is below 2^50.  A step A^m = A^(m-1) A sums at most n <= 2^6 residues,
below 2^31; a trace, as A is symmetric the entrywise product sum of
A^(m-1) or A^m with A^m, sums n^2 <= 2^12 products, below 2^62; a Newton
sum adds at most 63 products, below 2^56.  A power whose entries cannot
reach the least prime, by the walk count bound (n-1)^m, is left unreduced,
so up to order 10, where A^1 ... A^5 stay below p, only the traces and the
Newton sums are reduced.

``berkowitz_level`` is one level of the division-free Samuelson-Berkowitz
recurrence in Python integers, on the leading block's neighbour rows and the
new vertex's column.  The DS search extends a prefix's charpoly by one
vertex with it, building the prefix's rows once for all the children it
tests, and its fold ``berkowitz_charpoly`` is the independent reference for
the residue routine.  A closed-form spectrum is the one factored form of a
family's charpoly: (coefficients, exponent) pairs of monic integer linear
and quadratic factors, as the paper's factorisations give them.  Its
eigenvalues, exact rationals or quadratic surds, are read off the factors,
and the factors multiplied out are the charpoly.  Edge and triangle counts
are read off a charpoly's coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter, mul
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import NotGraphPolynomialError, OrderCapError, ParameterError
from .graphs import FamilyKind, FamilySpec, Graph, adjacency_tensor, make_family
from .polynomials import Coeffs, IntPolynomial, divmod_by_monic, poly_product

CHARPOLY_ORDER_CAP = 64
# the eight largest primes below 2^25: their product beats twice Hadamard's
# bound at order 64
PRIMES = (33554393, 33554383, 33554371, 33554347, 33554341, 33554317, 33554291, 33554273)
_CHUNK_RESIDUES = 1 << 22  # the powers of one chunk hold at most this many (32 MB)
_CHUNK = 256  # graphs per chunk at most: bounded memory, no per-graph cache


def hadamard_bound_squared(n: int) -> int:
    """max_j C(n, j)^2 (j-1)^j, the square of Hadamard's bound on the
    charpoly coefficients of an order-n graph, in integers."""
    return max(math.comb(n, j) ** 2 * (j - 1) ** j for j in range(n + 1))


@dataclass(frozen=True, slots=True)
class _Plan:
    """What charpolys needs at one order: the primes, the inverses, the first
    power to reduce, the chunk size and the CRT weights."""

    order: int
    primes: tuple[int, ...]
    moduli: np.ndarray  # the primes, shape (P, 1)
    neg_inverses: np.ndarray  # -1/k mod p at [k], shape (n + 1, P, 1)
    reduce_from: int  # least m with (n-1)^m >= min(primes)
    chunk: int
    modulus: int  # M, the product of the primes
    weights: tuple[int, ...]  # w_i = 1 mod p_i and 0 mod the others


@cache
def _plan(n: int) -> _Plan:
    bound2 = hadamard_bound_squared(n)
    count, modulus = 0, 1
    while modulus * modulus <= 4 * bound2:
        modulus *= PRIMES[count]
        count += 1
    primes = PRIMES[:count]
    reduce_from = 2
    while reduce_from <= n and (n - 1) ** reduce_from < primes[-1]:
        reduce_from += 1
    neg_inverses = [[0] * count, [0] * count]
    neg_inverses += [[-pow(k, -1, p) % p for p in primes] for k in range(2, n + 1)]
    weights = tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)
    return _Plan(order=n, primes=primes,
                 moduli=np.array(primes, dtype=np.int64).reshape(-1, 1),
                 neg_inverses=np.array(neg_inverses, dtype=np.int64).reshape(n + 1, count, 1),
                 reduce_from=reduce_from,
                 chunk=max(1, min(_CHUNK, _CHUNK_RESIDUES // ((n + 1) // 2 * count * n * n))),
                 modulus=modulus, weights=weights)


def charpolys(graphs: Sequence[Graph]) -> list[tuple[int, ...]]:
    """Charpoly coefficients, highest degree first, of graphs of one order
    n <= CHARPOLY_ORDER_CAP, by power traces and Newton's identities modulo
    the primes of the order's plan (module docstring)."""
    if not graphs:
        return []
    plan = _batch_plan(graphs)
    if len(plan.primes) == 1:
        return list(map(tuple, _rows(plan, graphs).tolist()))
    return [coeffs for _, residues in _residue_chunks(plan, graphs)
            for coeffs in _from_residues(plan, residues)]


def charpoly_rows(graphs: Sequence[Graph]) -> np.ndarray:
    """The charpolys of a nonempty batch of graphs of one order n as exact
    int64 rows, shape (len(graphs), n + 1), highest degree first.  Only the
    orders whose plan has one prime (n <= 12) have rows: there each residue's
    symmetric lift is the coefficient itself.  A census groups these rows
    without building a tuple per graph."""
    plan = _batch_plan(graphs)
    if len(plan.primes) > 1:
        raise OrderCapError(
            f"charpoly rows need a one-prime order; order {plan.order} needs "
            f"{len(plan.primes)} primes")
    return _rows(plan, graphs)


def _batch_plan(graphs: Sequence[Graph]) -> _Plan:
    """The plan of a nonempty batch's one order, refused past the cap."""
    n = graphs[0].order
    if any(g.order != n for g in graphs):
        raise ParameterError("charpolys needs graphs of one order")
    if n > CHARPOLY_ORDER_CAP:
        raise OrderCapError(f"charpolys capped at order {CHARPOLY_ORDER_CAP}")
    return _plan(n)


def _residue_chunks(plan: _Plan, graphs: Sequence[Graph]) -> Iterator[tuple[int, np.ndarray]]:
    """(start, c_k mod p at [k, prime, graph]) for each chunk of the graphs."""
    for start in range(0, len(graphs), plan.chunk):
        adj = adjacency_tensor(plan.order, [g.bits for g in graphs[start:start + plan.chunk]])
        yield start, _newton(plan, _power_traces(plan, adj))


def _rows(plan: _Plan, graphs: Sequence[Graph]) -> np.ndarray:
    """charpoly_rows under a one-prime plan: the residues are the lifts."""
    p = plan.primes[0]
    rows = np.empty((len(graphs), plan.order + 1), dtype=np.int64)
    for start, residues in _residue_chunks(plan, graphs):
        coeffs = residues[:, 0].T
        rows[start:start + len(coeffs)] = np.where(coeffs > p // 2, coeffs - p, coeffs)
    return rows


@lru_cache(maxsize=32768)
def charpoly(g: Graph) -> IntPolynomial:
    """det(xI - A(g)): charpolys on a batch of one; monic, exact."""
    if g.order > CHARPOLY_ORDER_CAP:
        raise OrderCapError(f"charpoly capped at order {CHARPOLY_ORDER_CAP}")
    return IntPolynomial(charpolys([g])[0])


def _power_traces(plan: _Plan, adj: np.ndarray) -> np.ndarray:
    """tr(A^k) mod p at [k, i, b] for k = 2..n, prime i and graph b.

    A^m is built mod each prime for m <= h = ceil(n/2), reduced only from
    m = reduce_from on; tr(A^(2m)) and tr(A^(2m-1)) are the entrywise product
    sums of A^m with A^m and with A^(m-1).
    """
    n, moduli = plan.order, plan.moduli
    powers = np.empty(((n + 1) // 2, len(plan.primes)) + adj.shape, dtype=np.int64)
    powers[0] = adj
    for m in range(2, len(powers) + 1):
        np.matmul(powers[m - 2], adj, out=powers[m - 1])
        if m >= plan.reduce_from:
            np.remainder(powers[m - 1], moduli[..., None, None], out=powers[m - 1])
    traces = np.zeros((n + 1,) + powers.shape[1:3], dtype=np.int64)
    traces[2::2] = np.einsum("m...ij,m...ij->m...", powers, powers)[:n // 2]
    traces[3::2] = np.einsum("m...ij,m...ij->m...", powers[:-1], powers[1:])
    return np.remainder(traces, moduli, out=traces)


def _newton(plan: _Plan, traces: np.ndarray) -> np.ndarray:
    """c_k mod p at [k, i, b] from the traces, by Newton's identities."""
    moduli = plan.moduli
    coeffs = np.zeros_like(traces)
    coeffs[0] = 1
    for k in range(2, plan.order + 1):
        total = np.vecdot(traces[2:k + 1], coeffs[k - 2::-1], axis=0)
        np.remainder(total % moduli * plan.neg_inverses[k], moduli, out=coeffs[k])
    return coeffs


def _from_residues(plan: _Plan, residues: np.ndarray) -> list[tuple[int, ...]]:
    """Each graph's coefficients as the symmetric residues mod M of their CRT
    lifts; residues is indexed [k, prime, graph]."""
    modulus, half, weights = plan.modulus, plan.modulus // 2, plan.weights
    out = []
    for graph in residues.transpose(2, 0, 1).tolist():
        lifts = (sum(map(int.__mul__, rs, weights)) % modulus for rs in graph)
        out.append(tuple(c - modulus if c > half else c for c in lifts))
    return out


def berkowitz_charpoly(masks: Sequence[int]) -> tuple[int, ...]:
    """Charpoly coefficients of the graph given by its neighbour masks, by
    the Berkowitz recurrence level by level: the independent reference."""
    coeffs: list[int] = [1]
    rows: list[list[int]] = []
    for j, mask in enumerate(masks):
        col = bit_indices(mask & ((1 << j) - 1))
        coeffs = berkowitz_level(coeffs, rows, col)
        for i in col:
            rows[i].append(j)
        rows.append(col)
    return tuple(coeffs)


def berkowitz_level(coeffs: Sequence[int], rows: Sequence[Sequence[int]],
                    col: Sequence[int]) -> list[int]:
    """Charpoly coefficients of a graph from coeffs, those of its leading
    block H (the graph on all vertices but the last), rows, H's neighbour
    lists, and col, the last vertex's neighbours in H.  One level of the
    Samuelson-Berkowitz recurrence.

    Its Toeplitz column is 1, 0 (the diagonal), then -c.H^k.c for
    k = 0..m-1, m = len(rows), c the indicator of col.  H is symmetric, so
    with u_r = H^r c these walk counts are u_r.u_r for k = 2r and
    u_r.u_{r+1} for k = 2r+1: about m/2 products H.u in all."""
    m = len(rows)
    if not col:  # every walk term is 0: the charpoly is x times coeffs
        return [*coeffs, 0]
    u = [0] * m
    for j in col:
        u[j] = 1
    t = [1, 0, -len(col)]  # the last is u_0.u_0
    while len(t) < m + 2:
        w = [sum(map(u.__getitem__, row)) for row in rows]
        t.append(-sum(map(mul, u, w)))
        if len(t) < m + 2:
            t.append(-sum(map(mul, w, w)))
        u = w
    new = [*coeffs, 0]  # the product of the Toeplitz matrix and coeffs; t_0 = 1
    for i in range(2, m + 2):
        ti = t[i]
        if ti:
            for k, cj in enumerate(coeffs[:m + 2 - i], i):
                new[k] += ti * cj
    return new


def bit_indices(mask: int) -> list[int]:
    """The indices of mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def are_cospectral(g1: Graph, g2: Graph) -> bool:
    """Same spectrum iff identical characteristic polynomials (exact)."""
    if g1.order != g2.order:
        return False
    return charpoly(g1) == charpoly(g2)


def edges_and_triangles(coeffs: Sequence[int]) -> tuple[int, int]:
    """Edge and triangle counts read off a graph characteristic polynomial,
    given by its coefficients, highest degree first.

    Newton's identities give sum(eig) = 0, sum(eig^2) = -2 c_{n-2} and
    sum(eig^3) = -3 c_{n-3}, hence edges = -c_{n-2} and triangles = -c_{n-3}/2.
    Below order 3, c_{n-2} or c_{n-3} lies past the tuple and counts as zero.
    """
    if not coeffs or coeffs[0] != 1:
        raise NotGraphPolynomialError("graph charpoly must be monic")
    _, trace, c_2, c_3 = (*coeffs, 0, 0, 0)[:4]
    if trace != 0:
        raise NotGraphPolynomialError("graph charpoly must have zero trace coefficient")
    edges = -c_2
    twice_triangles = -c_3
    if edges < 0 or twice_triangles < 0 or twice_triangles % 2:
        raise NotGraphPolynomialError("edge/triangle counts are not nonnegative integers")
    return edges, twice_triangles // 2


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


@dataclass(frozen=True, slots=True)
class QuadraticSurd:
    """(a + b sqrt(d)) / c with d squarefree > 1, b != 0, c > 0, gcd(a, b, c) = 1."""

    a: int
    b: int
    d: int
    c: int

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c


AlgebraicValue = Union[Fraction, QuadraticSurd]
Factors = tuple[tuple[Coeffs, int], ...]  # (coefficients, exponent) pairs


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


@dataclass(frozen=True, slots=True)
class ClosedFormSpectrum:
    """A family's exact spectrum as its characteristic polynomial's factors:
    (coefficients, exponent) pairs, each factor a monic integer polynomial of
    degree 1 or 2 with real roots, each exponent positive."""

    factors: Factors

    def _ascending(self) -> list[tuple[float, AlgebraicValue, int]]:
        """(approximation, value, multiplicity) of each distinct root, equal
        roots of different factors merged, ascending."""
        merged: dict[AlgebraicValue, int] = {}
        for coeffs, exponent in self.factors:
            roots = quadratic_roots(*coeffs[1:]) if len(coeffs) == 3 else (Fraction(-coeffs[1]),)
            for root in roots:
                merged[root] = merged.get(root, 0) + exponent
        return sorted([(float(v), v, m) for v, m in merged.items()], key=itemgetter(0))

    @property
    def entries(self) -> tuple[tuple[AlgebraicValue, int], ...]:
        """((value, multiplicity), ...), ascending."""
        return tuple((value, mult) for _, value, mult in self._ascending())

    @property
    def order(self) -> int:
        return sum((len(coeffs) - 1) * exponent for coeffs, exponent in self.factors)

    def values_float(self) -> list[float]:
        """All eigenvalues as floats, repeated by multiplicity, ascending."""
        out: list[float] = []
        for approx, _, mult in self._ascending():
            out += [approx] * mult
        return out

    def expand(self) -> Coeffs:
        """The characteristic polynomial's coefficients: the factors multiplied out."""
        return poly_product(self.factors)

    def to_json(self) -> list[dict]:
        out = []
        for approx, value, mult in self._ascending():
            if isinstance(value, Fraction):
                item = {"kind": "rational", "numerator": value.numerator,
                        "denominator": value.denominator}
            else:
                item = {"kind": "quadratic-surd", "a": value.a, "b": value.b,
                        "d": value.d, "c": value.c}
            item["approx"] = approx
            item["multiplicity"] = mult
            out.append(item)
        return out


def _strip(rem: Coeffs, factor: Coeffs) -> tuple[Coeffs, int]:
    """rem with every power of the monic factor divided out, and how many."""
    count = 0
    while len(rem) >= len(factor):
        quot, r = divmod_by_monic(rem, factor)
        if any(r):
            break
        rem = quot
        count += 1
    return rem, count


def _split_into_small_factors(p: Coeffs, root_bound: int) -> Optional[Factors]:
    """Factor a monic integer polynomial into linear and quadratic pieces,
    as (coefficients, exponent) pairs.

    All roots are assumed real with |root| <= root_bound.  Returns None when
    an irreducible factor of degree > 2 remains.
    """
    rem = p
    factors: list[tuple[Coeffs, int]] = []
    for r in range(-root_bound, root_bound + 1):
        rem, count = _strip(rem, (1, -r))
        if count:
            factors.append(((1, -r), count))
    for b in range(-2 * root_bound, 2 * root_bound + 1):
        for c in range(-root_bound * root_bound, root_bound * root_bound + 1):
            disc = b * b - 4 * c
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue  # only irreducible real quadratics
            rem, count = _strip(rem, (1, b, c))
            if count:
                factors.append(((1, b, c), count))
    if len(rem) != 1:
        return None
    return tuple(factors)


def _closed_form(*factors: tuple[Coeffs, int]) -> ClosedFormSpectrum:
    """The record of the factors whose exponent is positive, in the given order."""
    return ClosedFormSpectrum(tuple([f for f in factors if f[1]]))


def closed_form_spectrum(spec: FamilySpec) -> Optional[ClosedFormSpectrum]:
    """Exact spectrum of a named family, or None when no rational/quadratic
    closed form exists (irrational-cosine paths and cycles).  The pyramid's
    factors are x^(n-k-1), (x+1)^(k-1) and x^2 + (1-k) x - (n-k) k, in that
    order."""
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.COMPLETE:
        n = p[0]
        return _closed_form(((1, 1), n - 1), ((1, 1 - n), 1))
    if kind is FamilyKind.EMPTY:
        return _closed_form(((1, 0), p[0]))
    if kind is FamilyKind.STAR:
        n = p[0]
        return _closed_form(((1, 0), n - 1), ((1, 0, -n), 1))
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        m, n = p
        return _closed_form(((1, 0), m + n - 2), ((1, 0, -m * n), 1))
    if kind is FamilyKind.PYRAMID:
        n, k = p
        return _closed_form(((1, 0), n - k - 1), ((1, 1), k - 1), ((1, 1 - k, -(n - k) * k), 1))
    if kind in (FamilyKind.PATH, FamilyKind.CYCLE):
        # eigenvalues are 2cos(.) in [-2, 2]; keep only rational/quadratic spectra
        factors = _split_into_small_factors(charpoly(make_family(spec)).coeffs, 2)
        return None if factors is None else ClosedFormSpectrum(factors)
    raise ParameterError(f"unknown family kind {kind!r}")
