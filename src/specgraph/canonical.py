"""Canonical forms: the lexicographically minimal upper-triangle bitstring.

Two graphs on the same vertex count are isomorphic iff their minimal
bitstrings agree.  The search walks orderings vertex by vertex; because the
pair order is column-major, placing one more vertex fixes the next block of
bits, so a partial ordering can be compared against (and pruned by) the best
known string before it is complete.  Vertex degrees only steer the candidate
order inside the search; the exact prefix bound does the pruning.

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
from .graphs import Graph, column_blocks, pair_count

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


def _prefix_of(key: int, total_bits: int, length: int) -> int:
    return key >> (total_bits - length)


def _twin_masks(n: int, masks: list[int]) -> list[int]:
    """Bit w of entry u is set iff u and w are twins: N(u) - {w} == N(w) - {u}."""
    twins = [0] * n
    for u in range(n):
        for w in range(u):
            if not (masks[u] ^ masks[w]) & ~((1 << u) | (1 << w)):
                twins[u] |= 1 << w
                twins[w] |= 1 << u
    return twins


def min_key(n: int, masks: list[int]) -> int:
    """Minimal bitstring over all vertex orderings of the graph given by masks."""
    m = pair_count(n)
    degs = [mask.bit_count() for mask in masks]
    order_hint = sorted(range(n), key=lambda v: degs[v])

    def greedy() -> int:
        chosen = [order_hint[0]]
        vals = {u: (masks[u] >> chosen[0]) & 1 for u in range(n) if u != chosen[0]}
        key = 0
        for _ in range(1, n):
            u = min(vals, key=lambda w: (vals[w], degs[w], w))
            key = (key << len(chosen)) | vals[u]
            chosen.append(u)
            vals = {w: (v << 1) | ((masks[w] >> u) & 1)
                    for w, v in vals.items() if w != u}
        return key

    best = greedy()
    twins = _twin_masks(n, masks)

    def descend(depth: int, prefix: int, length: int, vals: list[tuple[int, int]]) -> None:
        nonlocal best
        width = depth  # block width at this depth
        by_block = sorted(vals, key=lambda t: t[1])
        tried = 0
        for u, b in by_block:
            cand = (prefix << width) | b
            if cand > _prefix_of(best, m, length + width):
                break  # blocks sorted ascending: the rest are no better
            if depth == n - 1:
                if cand < best:
                    best = cand
                continue
            if twins[u] & tried:
                continue  # a twin's subtree already held the same strings
            tried |= 1 << u
            nxt = [(w, (v << 1) | ((masks[w] >> u) & 1)) for w, v in vals if w != u]
            descend(depth + 1, cand, length + width, nxt)

    tried = 0
    for v0 in order_hint:
        if twins[v0] & tried:
            continue
        tried |= 1 << v0
        vals = [(u, (masks[u] >> v0) & 1) for u in range(n) if u != v0]
        descend(1, 0, 0, vals)
    return best


def is_min_key(n: int, masks: list[int], key: int) -> bool:
    """True iff key is already the minimal bitstring of the graph it encodes."""
    if n == 1:
        return True
    tblocks = column_blocks(n, key)
    twins = _twin_masks(n, masks)

    def descend(depth: int, vals: list[tuple[int, int]]) -> bool:
        tb = tblocks[depth]
        equal = []
        for u, v in vals:
            if v < tb:
                return False
            if v == tb:
                equal.append(u)
        if depth == n - 1:
            return True
        tried = 0
        for u in equal:
            if twins[u] & tried:
                continue
            tried |= 1 << u
            nxt = [(w, (v << 1) | ((masks[w] >> u) & 1)) for w, v in vals if w != u]
            if not descend(depth + 1, nxt):
                return False
        return True

    tried = 0
    for v0 in range(n):
        if twins[v0] & tried:
            continue
        tried |= 1 << v0
        vals = [(u, (masks[u] >> v0) & 1) for u in range(n) if u != v0]
        if not descend(1, vals):
            return False
    return True


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
