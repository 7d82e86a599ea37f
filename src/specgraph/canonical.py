"""Canonical forms: the lexicographically minimal upper-triangle bitstring.

Two graphs on the same vertex count are isomorphic iff their minimal
bitstrings agree.  The search walks orderings vertex by vertex; because the
pair order is column-major, placing one more vertex fixes the next block of
bits, so a partial ordering can be compared against (and pruned by) the best
known string before it is complete.

Only the unplaced vertices with the least next block are expanded.  They all
extend the same prefix, so a vertex with a larger block gives only larger
strings.  The least set is found with one mask operation per placed vertex:
scanning the placed vertices in order, keep the candidates that miss the
vertex's neighbourhood when some do (a 0 bit), and all of them otherwise (a 1
bit).

Twins are pruned as well.  Vertices u and w are twins when
N(u) minus w equals N(w) minus u.  Swapping two twins that are both still
unplaced is an automorphism that fixes every placed vertex, so it maps the
subtree that places u next onto the subtree that places w next, string for
string.  Once one twin has been tried at a depth, the others are skipped
there.  Twins have equal blocks, so the skip never changes which block is
smallest, and the result is still the minimum over all orderings.  The pruning
uses automorphisms only: it removes duplicate subtrees and changes no key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderCapError
from .graphs import Graph, pair_count

CANONICAL_ORDER_CAP = 10


@dataclass(frozen=True)
class CanonicalForm:
    """Order plus the minimal bitstring, packed like Graph.bits."""

    order: int
    key: int

    @property
    def bitstring(self) -> str:
        m = pair_count(self.order)
        return format(self.key, f"0{m}b") if m else ""

    def to_graph(self) -> Graph:
        return Graph(self.order, self.key)


def _twin_masks(n: int, masks: list[int]) -> list[int]:
    """Bit w of entry u is set iff u and w are twins: N(u) - {w} == N(w) - {u}."""
    twins = [0] * n
    for u in range(n):
        for w in range(u):
            if not (masks[u] ^ masks[w]) & ~((1 << u) | (1 << w)):
                twins[u] |= 1 << w
                twins[w] |= 1 << u
    return twins


def _least_string(n: int, masks: list[int], bound: int, stop_below: bool) -> int:
    """The least bitstring over all orderings, or bound if none is smaller.

    With stop_below, returns as soon as some prefix falls below bound's, with
    a value below bound that need not be a bitstring of the graph.
    """
    m = pair_count(n)
    shift = [m - d * (d + 1) // 2 for d in range(n)]  # bits after depth d's block
    # Twin masks are built once a least set offers a second vertex; most
    # canonicity tests in a census sweep end before that.
    twins: list[int] = []
    placed: list[int] = []  # neighbour masks of the placed vertices, in order
    best = bound

    def descend(depth: int, prefix: int, unplaced: int) -> bool:
        nonlocal best, twins
        least, block = unplaced, 0
        for s in placed:
            miss = least & ~s
            if miss:
                least, block = miss, block << 1
            else:
                block = (block << 1) | 1
        prefix = (prefix << depth) | block
        limit = best >> shift[depth]
        if prefix > limit:
            return False
        if prefix < limit and stop_below:
            best = prefix << shift[depth]
            return True
        if depth == n - 1:
            best = prefix  # a whole string, no greater than best
            return False
        tried = 0
        while least:
            low = least & -least
            least ^= low
            u = low.bit_length() - 1
            if tried:
                twins = twins or _twin_masks(n, masks)
                if twins[u] & tried:
                    continue  # a twin's subtree already held the same strings
            tried |= low
            placed.append(masks[u])
            stop = descend(depth + 1, prefix, unplaced ^ low)
            placed.pop()
            if stop:
                return True
        return False

    descend(0, 0, (1 << n) - 1)
    return best


def min_key(n: int, masks: list[int]) -> int:
    """Minimal bitstring over all vertex orderings of the graph given by masks."""
    return _least_string(n, masks, 1 << pair_count(n), stop_below=False)  # above every key


def is_min_key(n: int, masks: list[int], key: int) -> bool:
    """True iff key, the bitstring of the graph given by masks, is its minimal one."""
    return _least_string(n, masks, key, stop_below=True) == key


def canonical_form(g: Graph) -> CanonicalForm:
    """Labeling-invariant representative; equal forms iff isomorphic graphs."""
    if g.order > CANONICAL_ORDER_CAP:
        raise OrderCapError(
            f"canonical form capped at order {CANONICAL_ORDER_CAP}, got {g.order}")
    return CanonicalForm(g.order, min_key(g.order, g.neighbor_masks()))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if max(g1.order, g2.order) > CANONICAL_ORDER_CAP:
        raise OrderCapError(
            f"isomorphism test capped at order {CANONICAL_ORDER_CAP}")
    if g1.order != g2.order:
        return False
    if g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_form(g1) == canonical_form(g2)
