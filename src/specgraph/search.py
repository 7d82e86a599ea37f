"""Isomorph-free enumeration and determined-by-spectrum verification.

Enumeration keeps a bitstring iff it equals its own canonical form.  The
sweep is organized as 256 independent work units keyed by the top byte of
the bitstring; inside a unit the candidate space is walked vertex-block by
vertex-block, cutting any subtree whose prefix already fails the canonicity
test (a non-canonical prefix can never extend to a canonical string).  Work
units are side-effect free and merge by concatenation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable, Optional

from .canonical import canonical_form, is_min_key
from .cp import is_cp_graph
from .errors import OrderCapError, ParameterError, SpecGraphError
from .exact import charpoly
from .graphs import (Graph, add_column, complete_bipartite_graph, disjoint_union, empty_graph,
                     pair_count)

ENUMERATION_SOFT_CAP = 7
ENUMERATION_HARD_CAP = 8
_SHARD_BITS = 8

_enum_cache: dict[int, tuple[Graph, ...]] = {}
_layer_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}
_class_cache: dict[int, "EnumerationReport"] = {}


def check_workers(workers: int) -> None:
    """Refuse a worker count below 1 rather than running with one worker."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def _check_enumeration_args(n: int, workers: int) -> None:
    if not 1 <= n <= ENUMERATION_HARD_CAP:
        raise OrderCapError(
            f"enumeration supports 1 <= n <= {ENUMERATION_HARD_CAP}, got {n}")
    check_workers(workers)


def _shard_slice(shard: Optional[int], length: int, width: int) -> Optional[tuple[int, int]]:
    """Constraint on a block of `width` bits starting at string offset `length`."""
    if shard is None or length >= _SHARD_BITS:
        return None
    overlap = min(_SHARD_BITS, length + width) - length
    required = (shard >> (_SHARD_BITS - length - overlap)) & ((1 << overlap) - 1)
    return overlap, required


def _enumerate_shard(args: tuple[int, Optional[int], Optional[int]]) -> list[int]:
    """All canonical bitstrings of order n whose top byte matches the shard.

    With an edge count set, only the bitstrings of that weight: a block is
    skipped before its canonicity test when the prefix already has too many
    edges, or too few to reach the count with the pairs still to come.
    """
    n, shard, edges = args
    if n == 1:
        return [0] if edges in (None, 0) else []
    m = pair_count(n)
    out: list[int] = []

    if edges is None:
        def blocks(j: int, key: int, length: int) -> Iterable[int]:
            return range(1 << j)
    else:
        def blocks(j: int, key: int, length: int) -> Iterable[int]:
            most = edges - key.bit_count()
            least = most - (m - length - j)
            return [b for b in range(1 << j) if least <= b.bit_count() <= most]

    def extend(j: int, key: int, masks: list[int], length: int) -> None:
        constraint = _shard_slice(shard, length, j)
        for b in blocks(j, key, length):
            if constraint is not None:
                overlap, required = constraint
                if (b >> (j - overlap)) != required:
                    continue
            new_masks = add_column(masks, b)
            new_key = (key << j) | b
            if not is_min_key(j + 1, new_masks, new_key):
                continue  # no extension of a non-canonical prefix is canonical
            if j + 1 == n:
                out.append(new_key)
            else:
                extend(j + 1, new_key, new_masks, length + j)

    extend(1, 0, [0], 0)
    return out


def enumerate_graphs(n: int, workers: int = 1,
                     edges: Optional[int] = None) -> tuple[Graph, ...]:
    """One representative per isomorphism class of order n, ascending by bitstring.

    With `edges` set, only the classes with that many edges: one layer of the
    census, filtered from the full census when that is cached and enumerated
    on its own otherwise.
    """
    _check_enumeration_args(n, workers)
    if edges is not None:
        if n in _enum_cache:
            return tuple(g for g in _enum_cache[n] if g.edge_count == edges)
        if (n, edges) not in _layer_cache:
            _layer_cache[n, edges] = _enumerate(n, workers, edges)
        return _layer_cache[n, edges]
    if n not in _enum_cache:
        if n > ENUMERATION_SOFT_CAP:
            warnings.warn(
                f"enumerating order {n} sweeps 2^{pair_count(n)} bitstrings; "
                "this takes a while", ResourceWarning, stacklevel=2)
        _enum_cache[n] = _enumerate(n, workers, None)
    return _enum_cache[n]


def _enumerate(n: int, workers: int, edges: Optional[int]) -> tuple[Graph, ...]:
    if pair_count(n) < _SHARD_BITS:
        units: list[tuple[int, Optional[int], Optional[int]]] = [(n, None, edges)]
    else:
        units = [(n, s, edges) for s in range(1 << _SHARD_BITS)]
    if workers > 1 and len(units) > 1:
        with Pool(workers) as pool:
            per_unit = pool.map(_enumerate_shard, units)
    else:
        per_unit = [_enumerate_shard(u) for u in units]
    return tuple(Graph(n, k) for chunk in per_unit for k in chunk)


@dataclass(frozen=True)
class EnumerationReport:
    """Census of one order: all isomorphism classes grouped by exact charpoly."""

    order: int
    graph_count: int
    class_count: int
    nontrivial_classes: tuple[tuple[Graph, ...], ...]

    def to_json(self) -> dict:
        from .graph6 import graph6_encode
        return {
            "order": self.order,
            "graph_count": self.graph_count,
            "class_count": self.class_count,
            "nontrivial_classes": [
                [graph6_encode(g) for g in cls] for cls in self.nontrivial_classes
            ],
        }


def cospectral_classes(n: int, workers: int = 1) -> EnumerationReport:
    """Partition the order-n isomorphism classes by exact characteristic polynomial."""
    _check_enumeration_args(n, workers)
    if n in _class_cache:
        return _class_cache[n]
    graphs = enumerate_graphs(n, workers=workers)
    by_poly: dict[tuple[int, ...], list[Graph]] = {}
    for g in graphs:
        by_poly.setdefault(charpoly(g).coeffs, []).append(g)
    nontrivial = tuple(
        tuple(members) for key, members in sorted(by_poly.items())
        if len(members) > 1
    )
    report = EnumerationReport(
        order=n,
        graph_count=len(graphs),
        class_count=len(by_poly),
        nontrivial_classes=nontrivial,
    )
    _class_cache[n] = report
    return report


@dataclass(frozen=True)
class DsVerdict:
    """DS answer for one graph, with cospectral non-isomorphic mates as witnesses."""

    is_ds: bool
    mates: tuple[Graph, ...]
    searched_order: int

    def to_json(self) -> dict:
        from .graph6 import graph6_encode
        return {
            "is_ds": self.is_ds,
            "mates": [graph6_encode(m) for m in self.mates],
            "searched_order": self.searched_order,
        }


def is_ds(g: Graph, workers: int = 1) -> DsVerdict:
    """Exhaustively search the graphs of g's order and edge count for cospectral mates.

    Cospectral graphs share the charpoly, hence its degree (the order) and
    its coefficient -c_{n-2} (the edge count), so that one edge-count layer
    of the census is the only part that needs searching.  The layer's size
    is checked against Polya's count (burnside_layer_counts) before any
    verdict is given.
    """
    _check_enumeration_args(g.order, workers)
    n, e = g.order, g.edge_count
    layer = enumerate_graphs(n, workers=workers, edges=e)
    expected = burnside_layer_counts(n)[e]
    if len(layer) != expected:
        raise SpecGraphError(
            f"layer (n={n}, e={e}) has {len(layer)} classes, but Polya counts {expected}")
    poly = charpoly(g)
    own_key = canonical_form(g).key
    mates = tuple(h for h in layer if charpoly(h) == poly and h.bits != own_key)
    return DsVerdict(is_ds=not mates, mates=mates, searched_order=g.order)


def _smallest_prime_factor(n: int) -> int:
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


def star_cospectral_mate(n: int) -> Graph:
    """The constructive cospectral mate of the star with n leaves, for composite n.

    Factor n = p*q with p the smallest prime factor, set l = n + 1 - p - q, and
    return K_{p,q} + (l isolated vertices): cospectral with the star and
    disconnected, hence non-isomorphic.  For prime n no mate exists at all.
    """
    if n < 4:
        raise ParameterError(f"no composite factorization below 4, got {n}")
    p = _smallest_prime_factor(n)
    if p == n:
        raise ParameterError(f"{n} is prime: the star is determined by its spectrum")
    q = n // p
    l = n + 1 - p - q
    return disjoint_union(complete_bipartite_graph(p, q), empty_graph(l))


@dataclass(frozen=True)
class NuSearchResult:
    """A graph that is neither CP nor DS, with its certificates."""

    order: int
    graph: Graph
    mate: Graph
    long_odd_cycle: tuple[int, ...]

    def to_json(self) -> dict:
        from .graph6 import graph6_encode
        return {
            "order": self.order,
            "graph": graph6_encode(self.graph),
            "mate": graph6_encode(self.mate),
            "long_odd_cycle": list(self.long_odd_cycle),
        }


def smallest_non_cp_non_ds_order(cap: int, workers: int = 1) -> Optional[NuSearchResult]:
    """Smallest order <= cap admitting a graph that is neither CP nor DS."""
    if not 1 <= cap <= ENUMERATION_SOFT_CAP:
        raise OrderCapError(f"cap must be in 1..{ENUMERATION_SOFT_CAP}")
    for order in range(1, cap + 1):
        report = cospectral_classes(order, workers=workers)
        for cls in report.nontrivial_classes:
            for idx, member in enumerate(cls):
                verdict = is_cp_graph(member)
                if verdict.is_cp:
                    continue
                mate = cls[1] if idx == 0 else cls[0]
                assert verdict.witness is not None
                return NuSearchResult(order, member, mate, verdict.witness)
    return None


# ---------------------------------------------------------------------------
# independent census oracle
# ---------------------------------------------------------------------------

def _partitions(n: int, least: int = 1) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _cycle_type_size(n: int, part: tuple[int, ...]) -> int:
    """Number of permutations of n points whose cycle lengths are part."""
    perms = math.factorial(n)
    counts: dict[int, int] = {}
    for c in part:
        counts[c] = counts.get(c, 0) + 1
    for c, mult in counts.items():
        perms //= c ** mult * math.factorial(mult)
    return perms


def burnside_graph_count(n: int) -> int:
    """Number of unlabeled simple graphs on n vertices by orbit counting.

    Sums 2^(pair cycles) over the cycle types of S_n; independent of the
    enumeration machinery, used to cross-check its counts.
    """
    total = 0
    for part in _partitions(n):
        perms = _cycle_type_size(n, part)
        pair_cycles = sum(c // 2 for c in part)
        pair_cycles += sum(
            math.gcd(part[i], part[j])
            for i in range(len(part)) for j in range(i + 1, len(part)))
        total += perms * (1 << pair_cycles)
    return total // math.factorial(n)


def burnside_layer_counts(n: int) -> list[int]:
    """Number of unlabeled graphs on n vertices with e edges, for e = 0..C(n, 2).

    Polya's form of burnside_graph_count: a pair cycle of length l contributes
    1 + x^l instead of 2, so the coefficient of x^e counts the classes with e
    edges.  A cycle of length c holds (c - 1) // 2 pair cycles of length c,
    plus one of length c / 2 when c is even; two cycles of lengths a and b
    hold gcd(a, b) pair cycles of length lcm(a, b).
    """
    m = pair_count(n)
    total = [0] * (m + 1)
    for part in _partitions(n):
        lengths = [c for c in part for _ in range((c - 1) // 2)]
        lengths += [c // 2 for c in part if c % 2 == 0]
        lengths += [
            math.lcm(a, b)
            for i, a in enumerate(part) for b in part[i + 1:]
            for _ in range(math.gcd(a, b))]
        poly = [1] + [0] * m
        degree = 0  # the lengths sum to m, so the product's degree never passes it
        for l in lengths:
            degree += l
            for e in range(degree, l - 1, -1):
                poly[e] += poly[e - l]
        perms = _cycle_type_size(n, part)
        for e, c in enumerate(poly):
            total[e] += perms * c
    return [t // math.factorial(n) for t in total]
