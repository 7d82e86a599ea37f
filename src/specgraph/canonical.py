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

Orderly generation asks, for a canonical prefix H of order j with minimal
key K, which blocks b make K' = (K << j) | b the minimal key of H+b, the
graph H plus a vertex v = j with column block b.  canonical_blocks answers for
a list of blocks with one walk of H's tied orderings.  Any ordering of H+b
puts v at some position p.  Its first p vertices form an ordering s of p
vertices of H, whose string is at least K's first C(p, 2) bits because H is
canonical.  If it is greater, the ordering's string is greater than K'.  So
only the tied s matter: the nodes of H's own least-block search bounded by K.
At a tied s, v's block (its adjacency to the vertices of s, in order) is held
against K''s block at depth p, which is K's block for p < j and b itself at
p = j, where s is a whole tied ordering of H:

- below: K' is not minimal, and b is refuted;
- above: every ordering that places v here is greater;
- equal: the search goes on from s + v in H+b, bounded by K' (the start
  argument of _least_string).  At p = j equal means the string is K'.

The walk serves all blocks at once.  Block i is bit i of an int, and entry u
of `sees` is the set of blocks whose vertex v sees u, so the comparison at a
node costs O(p) big-int operations for all blocks together, and a refuted
block drops out of the walk.  A tie's first step is shared too: after s + v,
the least next block of H+b is H's least next block after s followed by one
bit, set iff b sees every vertex that gives it, so a tie that this step breaks
needs no search.  The searches left wait until the walk ends and run longest
start first, so the cheap ones go first: a block that the walk or a cheap
search refutes is never searched from a short start.

Twins are handled per block.  Twins u and w of H stay twins of H+b iff b
holds both or neither, and only then does swapping them map the walk's
subtree at u onto the one at w for b.  So w's subtree is skipped only for the
blocks that entered u's subtree and see both u and w or neither; skipping it
for every block would refute too few.  extension_twins builds the twin masks
of H+b from H's with one comparison per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import OrderCapError
from .graphs import Graph, add_column, pair_count

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


def extension_twins(twins: list[int], masks: list[int]) -> list[int]:
    """The twin masks of the graph given by masks, on j + 1 vertices, from
    twins, the twin masks of its first j vertices.

    Twins u, w of the first j vertices stay twins iff the new vertex v sees
    both or neither, and u is v's twin iff N(u) minus v equals N(v) minus u:
    one mask comparison per vertex instead of one per pair.
    """
    j = len(twins)
    seen = masks[j]
    out = []
    own = 0
    for u, t in enumerate(twins):
        bit = 1 << u
        t &= seen if seen & bit else ~seen
        if masks[u] & ~(1 << j) == seen & ~bit:
            t |= 1 << j
            own |= bit
        out.append(t)
    out.append(own)
    return out


def _least_string(n: int, masks: list[int], bound: int, stop_below: bool,
                  twins: Optional[list[int]] = None, start: Sequence[int] = ()) -> int:
    """The least bitstring over the orderings that begin with the vertices of
    start (fewer than n of them), or bound if none is smaller.

    With stop_below, returns as soon as some prefix falls below bound's, with
    a value below bound that need not be a bitstring of the graph.  twins, if
    given, are the graph's twin masks.
    """
    m = pair_count(n)
    shift = [m - d * (d + 1) // 2 for d in range(n)]  # bits after depth d's block
    if twins is None:
        twins = _twin_masks(n, masks)
    placed = [masks[u] for u in start]  # neighbour masks of the placed vertices, in order
    prefix = 0
    unplaced = (1 << n) - 1
    for d, u in enumerate(start):
        for w in start[:d]:
            prefix = (prefix << 1) | (masks[u] >> w & 1)
        unplaced ^= 1 << u
    best = bound

    def descend(depth: int, prefix: int, unplaced: int) -> bool:
        nonlocal best
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
            if twins[u] & tried:
                continue  # a twin's subtree already held the same strings
            tried |= low
            placed.append(masks[u])
            stop = descend(depth + 1, prefix, unplaced ^ low)
            placed.pop()
            if stop:
                return True
        return False

    descend(len(start), prefix, unplaced)
    return best


def min_key(n: int, masks: list[int]) -> int:
    """Minimal bitstring over all vertex orderings of the graph given by masks."""
    return _least_string(n, masks, 1 << pair_count(n), stop_below=False)  # above every key


def is_min_key(n: int, masks: list[int], key: int, twins: Optional[list[int]] = None) -> bool:
    """True iff key, the bitstring of the graph given by masks, is its minimal
    one; twins, if given, are the graph's twin masks."""
    return _least_string(n, masks, key, True, twins) == key


def canonical_blocks(j: int, masks: list[int], key: int, blocks: Sequence[int],
                     twins: Optional[list[int]] = None) -> list[int]:
    """The blocks b of `blocks`, in their order, for which (key << j) | b is
    the minimal key of H+b, where H is the graph of order j given by masks
    whose bitstring key is its minimal key, and H+b adds vertex j with
    column block b; twins, if given, are H's twin masks.

    One walk of H's tied orderings serves every block (module docstring).
    """
    if twins is None:
        twins = _twin_masks(j, masks)
    n, m, v = j + 1, pair_count(j), j
    want = [(key >> (m - d * (d + 1) // 2)) & ((1 << d) - 1) for d in range(j)]  # K's blocks
    sees = [0] * j  # bit i of entry u: block i sees u
    for i, b in enumerate(blocks):
        while b:
            low = b & -b
            b ^= low
            sees[j - low.bit_length()] |= 1 << i
    alive = (1 << len(blocks)) - 1  # bit i: block i is not refuted yet
    order: list[int] = []  # a tied ordering of some of H's vertices
    placed: list[int] = []  # their neighbour masks
    ties: list[tuple[list[int], int]] = []  # (a start that ties, the blocks it ties for)
    extensions: dict[int, tuple[list[int], list[int]]] = {}  # block i: H+b_i's masks, twins

    def refuted(i: int, start: list[int]) -> bool:
        """True iff H+b_i has a string below its key that begins with start."""
        b = blocks[i]
        if i not in extensions:
            ext = add_column(masks, b)
            extensions[i] = ext, extension_twins(twins, ext)
        ext, ext_twins = extensions[i]
        new_key = (key << j) | b
        return _least_string(n, ext, new_key, True, ext_twins, start) != new_key

    def visit(depth: int, unplaced: int, active: int) -> None:
        nonlocal alive
        eq, below = active, 0  # v placed next: blocks tying with, falling below the key's
        if depth == j:  # order is a whole tied ordering, and v's block is b itself
            for k, u in enumerate(order):
                x, y = sees[u], sees[k]
                below |= eq & y & ~x
                eq &= ~(x ^ y)
                if not eq:
                    break
            alive &= ~below
            return
        target = want[depth]
        for k, u in enumerate(order):
            x = sees[u]
            if target >> (depth - 1 - k) & 1:
                below |= eq & ~x
                eq &= x
            else:
                eq &= ~x
            if not eq:
                break
        least, block = unplaced, 0  # H's least next block after order, and who gives it
        for s in placed:
            miss = least & ~s
            if miss:
                least, block = miss, block << 1
            else:
                block = (block << 1) | 1
        if eq:
            # after order + v, the least next block of H+b is block then one bit: 1 iff
            # b sees every vertex in least
            seen, rest = -1, least
            while rest:
                low = rest & -rest
                rest ^= low
                seen &= sees[low.bit_length() - 1]
            if depth + 1 == j:  # that block is the last, held against b itself
                while eq:
                    low = eq & -eq
                    eq ^= low
                    if (block << 1) | bool(seen & low) < blocks[low.bit_length() - 1]:
                        below |= low
            else:
                after = want[depth + 1]
                if block != after >> 1:
                    if block < after >> 1:
                        below |= eq
                    eq = 0
                elif after & 1:
                    below |= eq & ~seen
                    eq &= seen
                else:
                    eq &= ~seen
        alive &= ~below
        if eq:  # still a tie: search on from order + v in H+b, after the walk
            ties.append((order + [v], eq))
        if block != target:
            return  # no vertex of H extends order to a tied ordering
        entered: list[tuple[int, int]] = []  # (vertex, the blocks that entered its subtree)
        while least:
            low = least & -least
            least ^= low
            u = low.bit_length() - 1
            sub = active & alive
            t, x = twins[u], sees[u]
            for w, through in entered:
                if t >> w & 1:  # w's subtree held the same strings for the blocks
                    sub &= ~through | (x ^ sees[w])  # that see both or neither
            if not sub:
                continue
            entered.append((u, sub))
            order.append(u)
            placed.append(masks[u])
            visit(depth + 1, unplaced ^ low, sub)
            order.pop()
            placed.pop()

    visit(0, (1 << j) - 1, alive)
    for start, tied in sorted(ties, key=lambda tie: -len(tie[0])):  # the short searches first
        tied &= alive
        while tied:
            low = tied & -tied
            tied ^= low
            if refuted(low.bit_length() - 1, start):
                alive ^= low
    return [b for i, b in enumerate(blocks) if alive >> i & 1]


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
