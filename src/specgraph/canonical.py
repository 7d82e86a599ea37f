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

A search with no start places a leading independent set first, as one
unordered cell.  While some unplaced vertex misses every placed vertex, the
least next block is all zeros, so the placed vertices are independent and
their C(s, 2) bits are zeros in any order of them.  A maximal independent set
that is not maximum puts a 1 into the next block where a maximum one still
has zeros, so only the maximum independent sets lead.  They are enumerated as
sets: vertices are added in increasing index, a twin of a vertex already tried
is skipped, a set with a free vertex but none past its last is dropped (a dead
end, not maximal), and so is a branch too small to reach the largest size
found.

Each leading set then fills the first positions as one cell whose internal
order is fixed lazily, and the key stays exact.  The tie set, every order of
the cell, fills consecutive positions, and an independent cell's order is
invisible until a later block: its vertices miss each other and have seen
the same placed vertices.  Over a cell, the least block of the next vertex w
is the cell's non-neighbours of w as zeros, then its neighbours as ones, and
exactly the orders that put the non-neighbours first give it.  So placing w
splits every cell into (non-neighbours, neighbours), each still unordered,
and each prefix the search builds is the least over the orderings its cells
allow.  Every ordering still counts, and the result is the lexicographic
minimum, bit for bit.  The candidates with the least block over a cell of two
or more vertices are those with the fewest neighbours in it.  The cell holds
the bit slices of that count for every vertex, most significant first, so
one mask operation per slice filters all candidates at once.  A cell of one
vertex holds its neighbour mask, and once every cell has one vertex the masks
join the placed ones.  A leading set of two is placed as two single vertices
instead, in both orders (one if they are twins): the first vertex that sees
just one of them would split the cell anyway, and the second order costs
less than the cell.  A search from a start places single vertices only.

Twins are pruned as well.  Vertices u and w are twins when
N(u) minus w equals N(w) minus u.  Swapping two twins that are both still
unplaced is an automorphism that fixes every placed vertex, and so every
cell, so it maps the subtree that places u next onto the subtree that places
w next, string for string.  Once one twin has been tried at a depth, the
others are skipped there.  Twins have equal blocks, so the skip never changes
which block is smallest, and the result is still the minimum over all
orderings.  In the leading set a twin w after a tried u is skipped too:
adjacent twins swap w's sets onto u's, and non-adjacent twins share every
maximal set, so w's sets, which lack u, are dead ends.

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
from functools import cache
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


@cache
def _shifts(n: int) -> tuple[int, ...]:
    """Entry d: the bits after depth d's block in a string of order n."""
    m = pair_count(n)
    return tuple(m - d * (d + 1) // 2 for d in range(n))


def _least_string(n: int, masks: list[int], bound: int, stop_below: bool,
                  twins: Optional[list[int]] = None, start: Sequence[int] = ()) -> int:
    """The least bitstring over the orderings that begin with the vertices of
    start (fewer than n of them), or bound if none is smaller.  A nonempty
    start must tie with bound: its string is bound's first C(len(start), 2)
    bits.

    With stop_below, returns as soon as some prefix falls below bound's, with
    a value below bound that need not be a bitstring of the graph.  twins, if
    given, are the graph's twin masks.
    """
    shift = _shifts(n)
    if twins is None:
        twins = _twin_masks(n, masks)
    best = bound
    made: dict[int, tuple[int, int, tuple[int, ...]]] = {}

    def cell_of(cell: int) -> tuple[int, int, tuple[int, ...]]:
        """(cell, its size, the bit slices of the number of neighbours each
        vertex has in it, most significant first), for a cell of two or more
        vertices."""
        if cell not in made:
            size = cell.bit_count()
            slices = [0] * size.bit_length()  # least significant first, wide enough for size
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                carry, i = masks[low.bit_length() - 1], 0
                while carry:
                    s = slices[i]
                    slices[i] = s ^ carry
                    carry &= s
                    i += 1
            made[cell] = cell, size, tuple(reversed(slices))
        return made[cell]

    def descend(depth: int, prefix: int, unplaced: int, cells: list, placed: list) -> bool:
        """cells: the leading independent set's cells while one has two or
        more vertices, else empty; placed: the neighbour masks of the
        positions after them."""
        nonlocal best
        least, block = unplaced, 0
        for _, size, slices in cells:
            if size == 1:
                miss = least & ~slices
                if miss:
                    least, block = miss, block << 1
                else:
                    block = (block << 1) | 1
                continue
            ones = 0  # the least number of neighbours in the cell
            for s in slices:
                miss = least & ~s
                if miss:
                    least, ones = miss, ones << 1
                else:
                    ones = (ones << 1) | 1
            block = (block << size) | ((1 << ones) - 1)
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
            seen, split, after = masks[u], cells, placed
            if cells:
                split, whole = [], True  # whole: every cell is a singleton
                for entry in cells:
                    cell = entry[0]
                    hit = cell & seen
                    if hit and hit != cell:  # non-neighbours first, then neighbours
                        for part in (cell ^ hit, hit):
                            if part & (part - 1):
                                split.append(cell_of(part))
                                whole = False
                            else:  # a singleton holds its vertex's neighbour mask
                                split.append((part, 1, masks[part.bit_length() - 1]))
                    else:
                        split.append(entry)
                        whole = whole and entry[1] == 1
                if whole:  # the cells' masks join the placed ones
                    split, after = [], [entry[2] for entry in split] + placed
            after.append(seen)
            stop = descend(depth + 1, prefix, unplaced ^ low, split, after)
            after.pop()
            if stop:
                return True
        return False

    top, leading = 0, []  # the size of the largest independent sets found, and those sets

    def independent(size: int, chosen: int, free: int, above: int) -> None:
        """Extend chosen, an independent set of size vertices, by the vertices
        of free (those that miss it) in above (those past its last), keeping
        the largest maximal sets in leading."""
        nonlocal top
        grow = free & above
        if size + grow.bit_count() < top:
            return  # too small to be maximum
        tried = 0
        while grow:
            low = grow & -grow
            grow ^= low
            u = low.bit_length() - 1
            if twins[u] & tried:
                continue  # a twin's subtree held the same sets, or only dead ends
            tried |= low
            rest = free & ~masks[u] & ~low
            if rest:
                if rest >> u + 1:  # else chosen + u misses a vertex but can add none: a dead end
                    independent(size + 1, chosen | low, rest, -(low << 1))
            elif size + 1 >= top:
                if size + 1 > top:
                    top = size + 1
                    leading.clear()
                leading.append(chosen | low)

    unplaced = (1 << n) - 1
    if start:
        for u in start:
            unplaced ^= 1 << u
        descend(len(start), bound >> shift[len(start) - 1], unplaced, [], [masks[u] for u in start])
        return best
    independent(0, 0, unplaced, -1)
    if top == n:
        return 0
    if stop_below and best >> shift[top - 1]:
        return 0  # below bound's prefix
    for chosen in leading:
        u, w = (chosen & -chosen).bit_length() - 1, chosen.bit_length() - 1  # first, last
        if top == 1:
            stop = descend(1, 0, unplaced ^ chosen, [], [masks[u]])
        elif top == 2:  # placed singly, in both orders unless u and w are twins
            stop = descend(2, 0, unplaced ^ chosen, [], [masks[u], masks[w]])
            if not stop and not twins[u] >> w & 1:
                stop = descend(2, 0, unplaced ^ chosen, [], [masks[w], masks[u]])
        else:
            stop = descend(top, 0, unplaced ^ chosen, [cell_of(chosen)], [])
        if stop:
            break
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
    n, v = j + 1, j
    want = [(key >> s) & ((1 << d) - 1) for d, s in enumerate(_shifts(j))]  # K's blocks
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
