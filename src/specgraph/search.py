"""Isomorph-free enumeration and determined-by-spectrum verification.

Enumeration keeps a bitstring iff it equals its own canonical form.  The
candidate space is walked vertex-block by vertex-block, cutting any subtree
whose prefix already fails the canonicity test (a non-canonical prefix can
never extend to a canonical string).  Three rules skip a block before its
test: the column floor (a block below twice the previous block is never
canonical), the edge-count window of a layer sweep, and the twin rule (a
block that holds a twin of the prefix but not its later twin is never
canonical).  The blocks that pass the rules are tested for canonicity
together, in one canonical_blocks call per prefix, which alone chooses
between one walk of the prefix's tied orderings and one search per block.

A DS search is the same walk with a fourth rule, the interlacing cut: a
prefix whose eigenvalue counts break Cauchy interlacing against the query's
spectrum has no extension cospectral with the query, so it is dropped before
its canonicity test (see _InterlacingCut).

A DS search is always one walk.  A census sweep is one walk too, or, with a
worker pool, that walk split at a prefix order: each canonical prefix of the
order roots a work unit.  The prefixes are ascending and their subtrees
disjoint, so the units' outputs, concatenated, are the one walk's, test for test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterable, Optional, Sequence

import numpy as np

from .canonical import CANONICAL_ORDER_CAP, canonical_blocks, extension_twins, min_key
from .cp import is_cp_graph
from .errors import OrderCapError, ParameterError, SpecGraphError
from .exact import berkowitz_charpoly, berkowitz_level, bit_indices, charpoly_rows, charpolys
from .graphs import (Graph, add_column, complete_bipartite_graph, disjoint_union, empty_graph,
                     pair_count)
from .polynomials import real_rooted_counts

ENUMERATION_SOFT_CAP = 7
ENUMERATION_HARD_CAP = 8
# The prefix order at which a pooled census splits into work units: at order
# 8, splits at 4-6 (11-156 units) time alike, 3 and 7 slower (README).
_SPLIT_ORDER = 5

_enum_cache: dict[int, tuple[Graph, ...]] = {}
_class_cache: dict[int, "EnumerationReport"] = {}


def _check_enumeration_args(n: int, workers: int) -> None:
    """Refuse an order past the cap, and a worker count below 1 or above 256,
    the bound on a census pool's processes, rather than running with another."""
    if not 1 <= n <= ENUMERATION_HARD_CAP:
        raise OrderCapError(
            f"enumeration supports 1 <= n <= {ENUMERATION_HARD_CAP}, got {n}")
    if not 1 <= workers <= 256:
        raise ParameterError(f"workers must be >= 1 and <= 256, got {workers}")


def _column_floor(j: int, key: int) -> int:
    """The least block worth testing for a new vertex after the prefix of
    order j with bitstring key: twice the last vertex's block, which is the
    key's low j-1 bits (see _walk)."""
    return (key & ((1 << (j - 1)) - 1)) << 1


def _twin_rule(j: int, twins: list[int], blocks: Iterable[int]) -> Iterable[int]:
    """The blocks that the twin rule keeps for a new vertex after the prefix of
    order j with twin masks twins: for each twin pair u < w of the prefix, a
    kept block that holds u also holds w (see _walk)."""
    # (the pair's two bits, u's bit) for each twin pair u < w; bit j-1-i is vertex i
    rules = [((1 << (j - 1 - u)) | (1 << (j - 1 - w)), 1 << (j - 1 - u))
             for w in range(j) for u in range(w) if twins[w] >> u & 1]
    if not rules:
        return blocks
    return [b for b in blocks if all(b & pair != u_bit for pair, u_bit in rules)]


def _blocks(n: int, edges: Optional[int], j: int, key: int, twins: list[int]) -> Iterable[int]:
    """The blocks that the column floor, the edge window (edges, if set) and
    the twin rule leave for a new vertex after the prefix of order j, with
    bitstring key and twin masks twins, in a walk of order n (see _walk)."""
    blocks = range(_column_floor(j, key), 1 << j)
    if edges is not None:
        most = edges - key.bit_count()
        least = most - (pair_count(n) - pair_count(j + 1))
        blocks = [b for b in blocks if least <= b.bit_count() <= most]
    return _twin_rule(j, twins, blocks)


class _InterlacingCut:
    """Drops the prefixes of a DS walk that have no extension cospectral with
    the query G, and counts its work.

    A prefix H on j vertices is an induced subgraph of each of its
    extensions.  If an extension is cospectral with G, Cauchy interlacing gives
    lambda_i(G) >= lambda_i(H) >= lambda_{i+n-j}(G) for i = 1..j (eigenvalues
    descending), so at every real a

        N_H(>a) <= N_G(>a)   and   N_H(<a) <= N_G(<a),

    where N(>a) and N(<a) count the eigenvalues above and below a.  A prefix
    that breaks either inequality at some a is dropped, and with it every
    extension, none of which can be cospectral with G.  Orderly generation
    still reaches every canonical string whose prefixes all pass.
    `thresholds` holds (a, N_G(>a), N_G(<a)) for each a tested; any finite
    set of thresholds gives a sound cut.

    Each admitted prefix carries its charpoly coefficients and, at every
    threshold a, its counts (N(>a), mult(a)); the one-vertex root carries x
    and (0 > a, a == 0).  A child's charpoly is one Berkowitz level above its
    parent's, on the parent's neighbour rows (built once per prefix, shared
    by all the children it tests), and its counts follow from the parent's
    by _child_counts.  With no thresholds nothing is computed.
    """

    def __init__(self, thresholds: tuple[tuple[int, int, int], ...]) -> None:
        self.thresholds = thresholds
        self.root = ((1, 0), tuple((int(0 > a), int(a == 0)) for a, _, _ in thresholds))
        self.tests = 0   # prefixes admitted: each goes on to its canonicity test
        self.cut = 0     # prefixes dropped
        self.levels = 0  # Berkowitz levels computed

    def rows(self, masks: list[int]) -> Optional[list[list[int]]]:
        """The neighbour rows of the prefix given by masks, for its children's
        levels; None with no thresholds."""
        return [bit_indices(mask) for mask in masks] if self.thresholds else None

    def admit(self, carry: tuple, rows: Optional[list[list[int]]], b: int) -> Optional[tuple]:
        """The carry (charpoly, counts) of the child of the prefix with carry
        and neighbour rows rows whose new vertex has block b; None if the
        child is cut.  With no thresholds the parent's carry passes through."""
        if not self.thresholds:
            self.tests += 1
            return carry
        j = len(rows)
        coeffs = berkowitz_level(carry[0], rows, [j - 1 - t for t in bit_indices(b)])
        self.levels += 1
        counts = []
        for (a, above, below), (up, mult) in zip(self.thresholds, carry[1]):
            up, mult = _child_counts(coeffs, a, up, mult)
            if up > above or j + 1 - up - mult > below:
                self.cut += 1
                return None
            counts.append((up, mult))
        self.tests += 1
        return coeffs, counts


def _child_counts(coeffs: Sequence[int], a: int, up: int, mult: int) -> tuple[int, int]:
    """(N(>a), mult(a)) of a graph with charpoly coeffs, from (up, mult),
    those of its leading block.

    Interlacing at co-order 1 gives N(>a) in {up, up + 1} and
    mult(a) <= mult + 1.  Write p(x) = (x - a)^z r(x) with r(a) != 0: z is
    mult(a), the index of p's lowest nonzero Taylor coefficient r(a) at a,
    found by repeated synthetic division (at a = 0 it is read off the low
    coefficients).  r(a) is the product of a - lambda over the other roots,
    so its sign is (-1)^N(>a), which picks one of the two candidates.  If z
    reaches mult + 1, then N(>a) + N(<a) did not grow, so N(>a) = up.
    """
    z = 0
    if a:
        quotient = coeffs
        while True:
            acc, quot = 0, []
            for c in quotient:  # one Horner pass: quot, then p(a) last
                acc = acc * a + c
                quot.append(acc)
            low = quot.pop()
            if low:
                break
            z += 1
            if z > mult:
                return up, z
            quotient = quot
    else:
        low = coeffs[-1]
        while not low:
            z += 1
            if z > mult:
                return up, z
            low = coeffs[-1 - z]
    return (up if (low > 0) == (up % 2 == 0) else up + 1), z


def _walk(n: int, edges: Optional[int] = None, cut: Optional[_InterlacingCut] = None,
          split: Optional[int] = None, root: tuple = (1, 0, [0], [0])) -> list:
    """All canonical bitstrings of order n, ascending, below the prefix state
    root; with a cut set, only those whose every prefix the cut admits,
    counted on the cut.  A state (j, key, masks, twins) is a canonical
    prefix's order, bitstring, neighbour and twin masks; the default root is
    the one-vertex prefix.  With split set, the walk returns the states of
    order min(split, n) instead, ascending: a pooled census's work units.  A
    cut walk is neither split nor rooted elsewhere.

    The column floor bounds each block from below.  Let prev be the block of
    the prefix's last vertex j-1, and b the block of the new vertex j.
    Swapping j-1 and j leaves the blocks of vertices 1..j-2 alone and turns
    block j-1 into b >> 1, vertex j's adjacency to vertices 0..j-2.  If
    b >> 1 < prev, the swapped string is smaller, so b is not canonical, and
    neither is any extension of it.  Hence only b >= prev << 1 is tried; when
    b >> 1 == prev the swap gives the same string, so the floor drops nothing
    else.

    With an edge count set, only the bitstrings of that weight: a block is
    skipped before its canonicity test when the prefix already has too many
    edges, or too few to reach the count with the pairs still to come.

    The twin rule skips more blocks untested.  Let u < w be twins of the
    prefix H, and let block b hold u but not w.  Swapping u and w is an
    automorphism of H, so the swapped ordering gives the same graph with H's
    key followed by a smaller block (u's bit is the more significant one).
    Hence b is not canonical, and neither is any extension of it.

    The cut, last of the rules, drops a block whose prefix it refutes before
    that prefix's canonicity test.

    The blocks left are tested together, in one canonical_blocks call per
    prefix, and the walk then descends into the canonical ones in ascending
    order.  Each prefix carries its twin masks: the root's are [0], and a
    child's come from its parent's by extension_twins, so the twin rule and
    the canonicity test share them.
    """
    out: list = []
    # a cut walk's root carries the one-vertex prefix's carry: every G admits it
    stack = [(root, None if cut is None else cut.root)]
    while stack:
        state, carry = stack.pop()
        j, key, masks, twins = state
        if j in (split, n):  # a unit, or order 1 (edges, if set, is 0: the callers check it)
            out.append(key if split is None else state)
            continue
        tested = []
        children = {}  # block -> the cut child's carry
        if cut is not None:
            rows = cut.rows(masks)
        for b in _blocks(n, edges, j, key, twins):
            if cut is not None:
                child = cut.admit(carry, rows, b)
                if child is None:
                    continue  # no extension is cospectral with the query
                children[b] = child
            tested.append(b)
        # no extension of a non-canonical prefix is canonical
        kept = canonical_blocks(j, masks, key, tested, twins)
        if j + 1 == n and split is None:
            out += [(key << j) | b for b in kept]
            continue
        for b in reversed(kept):  # the first child on top: depth first, ascending
            new_masks = add_column(masks, b)
            stack.append(((j + 1, (key << j) | b, new_masks, extension_twins(twins, new_masks)),
                          children.get(b)))
    return out


def enumerate_graphs(n: int, workers: int = 1,
                     edges: Optional[int] = None) -> tuple[Graph, ...]:
    """One representative per isomorphism class of order n, ascending by bitstring.

    With `edges` set, only the classes with that many edges: one layer of the
    census, swept on its own and not cached.  Its size is Polya's count
    (burnside_layer_counts), which makes it the reference that DS searches
    are checked against.
    """
    _check_enumeration_args(n, workers)
    if edges is not None:
        if not 0 <= edges <= pair_count(n):
            raise ParameterError(
                f"an order-{n} graph has 0..{pair_count(n)} edges, got {edges}")
        return _enumerate(n, workers, edges)
    if n not in _enum_cache:
        if n > ENUMERATION_SOFT_CAP:
            warnings.warn(
                f"enumerating order {n} sweeps 2^{pair_count(n)} bitstrings; "
                "this takes a while", ResourceWarning, stacklevel=2)
        _enum_cache[n] = _enumerate(n, workers, None)
    return _enum_cache[n]


def _enumerate(n: int, workers: int, edges: Optional[int]) -> tuple[Graph, ...]:
    """The canonical graphs of _walk, ascending: one walk, or the walk split
    at _SPLIT_ORDER with its units run on a pool of at most one process each."""
    if workers == 1:
        keys = _walk(n, edges)
    else:
        frontier = _walk(n, edges, split=_SPLIT_ORDER)
        with Pool(min(workers, len(frontier))) as pool:
            # one unit per task: the units' sizes differ widely
            units = pool.starmap(_walk, [(n, edges, None, None, s) for s in frontier], chunksize=1)
        keys = [k for unit in units for k in unit]
    return tuple(Graph(n, k) for k in keys)


@dataclass(frozen=True, slots=True)
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
    """Partition the order-n isomorphism classes by exact characteristic polynomial.

    The charpolys stay int64 rows: a stable lexsort, first coefficient
    primary, ranks them, and a class ends wherever two adjacent ranked rows
    differ.  So the classes come ascending by coefficient tuple, each with
    its members ascending by bitstring, as the census lists them, and only
    the classes with a mate are built as tuples.
    """
    _check_enumeration_args(n, workers)
    if n in _class_cache:
        return _class_cache[n]
    graphs = enumerate_graphs(n, workers=workers)
    rows = charpoly_rows(graphs)
    ranking = np.lexsort(rows.T[::-1])
    starts = np.ones(len(graphs) + 1, dtype=bool)  # does a class start at this rank?
    starts[1:-1] = False
    for column in rows.T:  # one coefficient at a time: no ranked copy of the rows
        ranked = column[ranking]
        starts[1:-1] |= ranked[1:] != ranked[:-1]
    bounds = np.flatnonzero(starts)  # each class's first rank, then the end
    nontrivial = tuple(
        tuple(graphs[i] for i in ranking[bounds[k]:bounds[k + 1]].tolist())
        for k in np.flatnonzero(np.diff(bounds) > 1).tolist()
    )
    report = EnumerationReport(
        order=n,
        graph_count=len(graphs),
        class_count=len(bounds) - 1,
        nontrivial_classes=nontrivial,
    )
    _class_cache[n] = report
    return report


@dataclass(frozen=True, slots=True)
class DsStats:
    """The work of one DS search, counted on its walk's interlacing cut: the
    prefixes admitted to their canonicity test, the prefixes cut, the layer's
    classes that survive, and the Berkowitz levels, one per prefix counted
    (none when the query has no integer eigenvalue, hence no threshold).  A
    prefix is counted from its level's charpoly and its parent's counts, so
    levels = admitted + cut whenever there is a threshold."""

    canonicity_tests: int
    prefixes_cut: int
    survivors: int
    berkowitz_levels: int


@dataclass(frozen=True, slots=True)
class DsVerdict:
    """DS answer for one graph, with cospectral non-isomorphic mates as witnesses.

    `stats` is diagnostic: it takes no part in equality or in to_json.
    """

    is_ds: bool
    mates: tuple[Graph, ...]
    searched_order: int
    stats: Optional[DsStats] = field(default=None, compare=False)

    def to_json(self) -> dict:
        from .graph6 import graph6_encode
        return {
            "is_ds": self.is_ds,
            "mates": [graph6_encode(m) for m in self.mates],
            "searched_order": self.searched_order,
        }


def _integer_eigenvalue_bounds(g: Graph, coeffs: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """(a, N_G(>a), N_G(<a)) for each integer eigenvalue a of g, ascending,
    where coeffs are g's charpoly coefficients.  Every eigenvalue lies in
    [-D, D], D the largest degree, so only those integers are tried, each by
    one Horner evaluation."""
    n = g.order
    out = []
    degree = max(g.degrees())
    for a in range(-degree, degree + 1):
        value = 0
        for c in coeffs:
            value = value * a + c
        if value == 0:
            above, at = real_rooted_counts(coeffs, a)
            out.append((a, above, n - above - at))
    return tuple(out)


def is_ds(g: Graph) -> DsVerdict:
    """Exhaustively search the graphs of g's order and edge count for cospectral mates.

    Cospectral graphs share the charpoly, hence its degree (the order) and
    its coefficient -c_{n-2} (the edge count), so that one edge-count layer
    is the only part that needs searching.  The walk over that layer carries
    the interlacing cut at g's integer eigenvalues (_InterlacingCut): it
    drops every prefix whose eigenvalue counts rule out a cospectral
    extension.  A query with no integer eigenvalue gets an empty cut, and its
    walk is the plain layer sweep.

    g's charpoly comes from the Berkowitz recurrence, the survivors' from the
    residue path (charpolys); the mates are the survivors with g's charpoly,
    in ascending bitstring order.  Two certificates guard every verdict: g's
    own class must survive and carry g's Berkowitz charpoly, so that the two
    algorithms agree on it, and when the cut dropped nothing the survivors
    are the whole layer, whose size must equal Polya's count
    (burnside_layer_counts).

    Orders up to CANONICAL_ORDER_CAP are searched.  Past ENUMERATION_HARD_CAP a
    ResourceWarning names the layer's Polya count, the most classes the walk
    can reach.
    """
    n, e = g.order, g.edge_count
    if not 1 <= n <= CANONICAL_ORDER_CAP:
        raise OrderCapError(f"DS search supports 1 <= n <= {CANONICAL_ORDER_CAP}, got {n}")
    if n > ENUMERATION_HARD_CAP:
        warnings.warn(
            f"a DS search at order {n} walks layer (n={n}, e={e}), which holds "
            f"{burnside_layer_counts(n)[e]} classes (Polya) at worst; "
            "this can take a while", ResourceWarning, stacklevel=2)
    masks = g.neighbor_masks()
    coeffs = berkowitz_charpoly(masks)
    cut = _InterlacingCut(_integer_eigenvalue_bounds(g, coeffs))
    keys = _walk(n, e, cut)
    stats = DsStats(canonicity_tests=cut.tests, prefixes_cut=cut.cut, survivors=len(keys),
                    berkowitz_levels=cut.levels)
    if not stats.prefixes_cut:
        expected = burnside_layer_counts(n)[e]
        if len(keys) != expected:
            raise SpecGraphError(
                f"layer (n={n}, e={e}) has {len(keys)} classes, but Polya counts {expected}")
    survivors = [Graph(n, k) for k in keys]
    polys = charpolys(survivors)
    own_key = min_key(n, masks)
    own = [p for h, p in zip(survivors, polys) if h.bits == own_key]
    if not own:
        raise SpecGraphError(
            f"layer (n={n}, e={e}): the query's own class did not survive the search")
    if own != [coeffs]:
        raise SpecGraphError(
            f"layer (n={n}, e={e}): the survivors' charpoly of the query's own class "
            "differs from its Berkowitz charpoly")
    mates = tuple(h for h, p in zip(survivors, polys) if p == coeffs and h.bits != own_key)
    return DsVerdict(is_ds=not mates, mates=mates, searched_order=n, stats=stats)


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


@dataclass(frozen=True, slots=True)
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


def smallest_non_cp_non_ds_order(cap: int) -> Optional[NuSearchResult]:
    """Smallest order <= cap admitting a graph that is neither CP nor DS."""
    if not 1 <= cap <= ENUMERATION_SOFT_CAP:
        raise OrderCapError(f"cap must be in 1..{ENUMERATION_SOFT_CAP}")
    for order in range(1, cap + 1):
        report = cospectral_classes(order)
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
