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
vertex holds its neighbour mask as its one slice, and once every cell has one
vertex the masks join the placed ones.  A leading set of two is placed as two
single vertices instead, in both orders (one if they are twins): the first
vertex that sees just one of them would split the cell anyway, and the
second order costs less than the cell.

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
graph H plus a vertex v = j with column block b.  canonical_blocks answers
for a list of blocks, the walk's one canonicity entry.  Fewer than
SHARED_SEARCH_BLOCKS blocks get one whole search of H+b each, bounded by K'.
More share one walk: the search above run on H, bounded by K.  As K is H's
minimal key, the walk's nodes are exactly the tied ones, cells included:
each stands for the orderings of H's first vertices that its cells allow,
all with K's prefix.  Any ordering of H+b puts v at some position p,
and only an ordering whose string is at most K' matters.

- p < a, the size of H's largest independent sets: the depth of K's first
  nonzero block, or j if K has none.  K' begins with C(a, 2) zeros, as K
  does, so the first a vertices are independent and hold v: a leading set
  of H+b that holds v.  One search of H+b whose leading sets must hold v
  covers them (a start of depth 0).  It can refute b only if v lies in an
  independent a-set of H+b.  Otherwise every maximal independent set
  through v has fewer than a vertices, and an ordering that starts with one
  has a 1 in its next block, at a depth where K' still has zeros.  So the
  search runs only for the blocks that miss some independent (a - 1)-set
  of H (every block if a = 1).  That keeps a block whose v misses a whole
  independent a-set S of H, so that S plus v is independent: every
  (a - 1)-subset of S misses v's neighbours.  The blocks kept are those
  whose v lies in a maximum independent set of H+b, as an independent
  (a + 1)-set of H+b must hold v.
- p >= a.  The first p vertices form an ordering s of vertices of H, whose
  string is at least K's first C(p, 2) bits because H is canonical, and if
  greater the whole string is greater than K'.  So s ties, and it begins
  with a leading set of H: s is one of the orderings of a node of the walk.

At a node of depth p the walk holds v's block against K''s block there:
K's block for p < j, and b itself at p = j, after a whole tied ordering of H
(so the walk goes one level deeper than the search).  Over a cell, v's
block is least with its non-neighbours first, as for H's own vertices, and
exactly the orders that put them first give that block.  So v's block over
a cell of size c is v's number of neighbours in it, written as that many
ones after c minus that many zeros, and the comparison reads:

- below: some ordering of the node is below K', and b is refuted;
- above: every ordering that places v here is greater;
- equal: the search of H+b goes on from the node, with v placed next and
  every cell split by v into (non-neighbours, neighbours), bounded by K'
  (_Search.below_from).  At p = j equal means the string is K'.

The walk serves all blocks at once.  Block i is bit i of an int, and the
walk's masks hold above bit j the set of blocks that see each vertex, so the
comparison at a node costs O(p) big-int operations for all blocks together,
and a refuted block drops out of the walk.  Over a cell the bit at position
r holds the blocks that see at least c - r of it.  The ties wait until the
walk ends and are searched longest start first, the leading-set search
last, so the cheap ones go first: a block that the walk or a cheap search
refutes is never searched from a short start.  The leading-set search is
for the blocks that the walk keeps and that one enumeration of H's
independent (a - 1)-sets finds: each set takes the blocks that see none of
its vertices, one AND per vertex.

Twins are handled per block.  Twins u and w of H stay twins of H+b iff b
holds both or neither, and only then does swapping them map the walk's
subtree at u onto the one at w for b, among the candidates of a node or of
a leading set.  So w's subtree is skipped only for the blocks that entered
u's and see both u and w or neither; skipping it for every block would
refute too few.  extension_twins builds the twin masks of H+b from H's with
one comparison per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

from .errors import OrderCapError
from .graphs import Graph, add_column, pair_count

CANONICAL_ORDER_CAP = 12  # canonical forms, isomorphism tests and DS searches
# A prefix with this many candidate blocks or more tests them in one shared
# walk (canonical_blocks), and fewer with one whole search each: the walk
# costs a search of H's tied orderings per prefix, and each block it keeps
# whose new vertex lies in a maximum independent set still costs a search
# with that vertex in the leading set.  In the order-8 census 93% of the
# tests sit at prefixes with 8 blocks or more; the perfbench DS walks have at
# most 7, and a threshold of 1 made their 13 verdicts slower in-process
# (33.9-47.9 ms against 28.4-29.6 ms at 8, 3 alternating processes each, the
# minimum of 5 rounds).
SHARED_SEARCH_BLOCKS = 8


@dataclass(frozen=True, slots=True)
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


class _Search:
    """One search of the least bitstring over the orderings of the graph of
    order n given by masks, bounded by bound (module docstring); twins, if
    given, are the graph's twin masks.  Its entries are least for min_key,
    below for is_min_key and the few-block searches of canonical_blocks, and
    walk and below_from for its shared walk and tie searches.  Each runs
    once on a fresh object, but below_from runs again until it stops below
    bound, the leading set last."""

    __slots__ = ("n", "masks", "twins", "shift", "bound", "best", "stop_below", "made",
                 "alive", "ties", "top", "leading")

    def __init__(self, n: int, masks: list[int], bound: int,
                 twins: Optional[list[int]] = None) -> None:
        self.n, self.masks, self.bound, self.best = n, masks, bound, bound
        self.twins = _twin_masks(n, masks) if twins is None else twins
        self.shift = _shifts(n)
        self.stop_below = False  # stop at the first prefix below bound's
        self.made: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        self.alive = 0  # a walk's blocks not refuted yet
        self.ties: list = []  # a walk's (node, the blocks that tie there)
        self.top = 0  # the size of the largest independent sets found
        self.leading: list = []  # (set, blocks) for each of them

    def least(self) -> int:
        """The least bitstring over the orderings, or bound if none is smaller;
        with stop_below, a value below bound once a prefix is below bound's."""
        self.independent(0, 0, (1 << self.n) - 1, -1, 0)
        return self.from_leading()

    def below(self) -> bool:
        """True iff some ordering's string is below bound, found at the first
        prefix below bound's."""
        self.stop_below = True
        return self.least() != self.bound

    def walk(self, alive: int) -> int:
        """The walk of canonical_blocks: the graph is H, bound is its minimal
        key, and entry u of masks holds above bit n the blocks that see u.
        Appends (node, the blocks that tie there) to ties and returns the
        blocks of alive that it does not refute (module docstring)."""
        self.alive = alive
        self.independent(0, 0, (1 << self.n) - 1, -1, alive)
        self.lead()
        return self.alive

    def below_from(self, start: tuple) -> bool:
        """A tie search of canonical_blocks: True iff an ordering that places
        v, the last vertex, next after start, a node (depth, unplaced, cells,
        placed) of the walk of the graph without v, has a string below bound,
        which ties with the node and v's block.  From depth 0, the orderings
        that put v in the leading independent set."""
        self.stop_below = True
        depth, rest, cells, placed = start
        masks, v = self.masks, self.n - 1
        if depth:
            split, after = self.split_by(cells, placed, masks[v])
            return self.descend(depth + 1, self.bound >> self.shift[depth], rest, split,
                                after + [masks[v]])
        self.independent(1, 1 << v, ((1 << v) - 1) & ~masks[v], -1, 0)
        if not self.leading:  # v sees every vertex
            self.top, self.leading = 1, [(1 << v, 0)]
        return self.from_leading() != self.bound

    def from_leading(self) -> int:
        """What least returns, from the leading sets found."""
        if self.top == self.n:
            return 0  # no edges
        if self.stop_below and self.bound >> self.shift[self.top - 1]:
            return 0  # the leading set's zeros are below bound's prefix
        self.lead()
        return self.best

    def cell_of(self, cell: int) -> tuple[int, int, tuple[int, ...]]:
        """(cell, its size, the bit slices of the number of neighbours each
        vertex has in it, most significant first)."""
        if cell not in self.made:
            size = cell.bit_count()
            slices = [0] * size.bit_length()  # least significant first, wide enough for size
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                carry, i = self.masks[low.bit_length() - 1], 0
                while carry:
                    s = slices[i]
                    slices[i] = s ^ carry
                    carry &= s
                    i += 1
            self.made[cell] = cell, size, tuple(reversed(slices))
        return self.made[cell]

    def split_by(self, cells: list, placed: list[int], seen: int) -> tuple[list, list[int]]:
        """The cells and placed masks once a vertex with neighbour mask seen
        is placed: each cell splits into (non-neighbours, neighbours), and
        once every cell has one vertex their masks join the placed ones."""
        split, whole = [], True  # whole: every cell is a singleton
        for entry in cells:
            cell = entry[0]
            hit = cell & seen
            if hit and hit != cell:
                split += self.cell_of(cell ^ hit), self.cell_of(hit)
                whole = whole and entry[1] == 2
            else:
                split.append(entry)
                whole = whole and entry[1] == 1
        if whole:  # a singleton's one slice is its vertex's neighbour mask
            return [], [entry[2][0] for entry in split] + placed
        return split, placed

    def entering(self, u: int, entered: list[tuple[int, int]], active: int) -> int:
        """The blocks of active that walk the subtree of u: a twin w's subtree,
        entered before, held the same strings for the blocks that see both or
        neither."""
        x = self.masks[u] >> self.n
        for w, through in entered:
            if self.twins[u] >> w & 1:
                active &= ~through | (x ^ self.masks[w] >> self.n)
        if active:
            entered.append((u, active))
        return active

    def versus(self, depth: int, unplaced: int, cells: list, placed: list, active: int) -> int:
        """Hold v, placed at position depth, against bound's block there, or
        against its own block b after a whole ordering (depth n), for the
        blocks of active: drop the blocks below it from alive, append the node
        and the blocks that tie to ties, and return those still alive."""
        n, masks = self.n, self.masks
        xs = []  # position k: the blocks whose v sees it, non-neighbours first over a cell
        for cell, size, slices in cells:
            at_least = [-1] + [0] * size  # entry m: the blocks that see m or more of the cell
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                x = masks[low.bit_length() - 1] >> n
                for m in range(size, 0, -1):
                    at_least[m] |= at_least[m - 1] & x
            xs += at_least[:0:-1]
        xs += [s >> n for s in placed]
        if depth < n:  # bound's block at depth, a bit for every block alike
            target = self.bound >> self.shift[depth]
            ys = [-(target >> depth - 1 - k & 1) for k in range(depth)]
        else:  # each block b itself: position k holds vertex k in the minimal key's ordering
            ys = [m >> n for m in masks]
        eq, below = active, 0
        for x, y in zip(xs, ys):
            below |= eq & y & ~x
            eq &= ~(x ^ y)
            if not eq:
                break
        self.alive &= ~below
        if eq and depth < n:
            self.ties.append(((depth, unplaced, cells, placed[:]), eq))
        return active & self.alive

    def descend(self, depth: int, prefix: int, unplaced: int, cells: list, placed: list,
                active: int = 0) -> bool:
        """cells: the leading independent set's cells while one has two or
        more vertices, else empty; placed: the neighbour masks of the
        positions after them; active: the blocks of a walk."""
        if active:
            active = self.versus(depth, unplaced, cells, placed, active)
            if not active or depth == self.n:
                return False
        least, block = unplaced, 0
        for _, size, slices in cells:
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
        limit = self.best >> self.shift[depth]
        if prefix > limit:
            return False
        if prefix < limit and self.stop_below:
            self.best = prefix << self.shift[depth]
            return True
        if depth == self.n - 1:
            self.best = prefix  # a whole string, no greater than best
            if not active:
                return False
        tried, entered, sub = 0, [], 0
        while least:
            low = least & -least
            least ^= low
            u = low.bit_length() - 1
            if active:
                sub = self.entering(u, entered, active & self.alive)
                if not sub:
                    continue
            elif self.twins[u] & tried:
                continue  # a twin's subtree already held the same strings
            tried |= low
            seen = self.masks[u]
            split, after = self.split_by(cells, placed, seen) if cells else (cells, placed)
            after.append(seen)
            stop = self.descend(depth + 1, prefix, unplaced ^ low, split, after, sub)
            after.pop()
            if stop:
                return True
        return False

    def independent(self, size: int, chosen: int, free: int, above: int, active: int) -> None:
        """Extend chosen, an independent set of size vertices, by the vertices
        of free (those that miss it) in above (those past its last), keeping
        the largest maximal sets in leading."""
        grow = free & above
        if size + grow.bit_count() < self.top:
            return  # too small to be maximum
        tried, entered, sub = 0, [], 0
        while grow:
            low = grow & -grow
            grow ^= low
            u = low.bit_length() - 1
            if active:
                sub = self.entering(u, entered, active)
                if not sub:
                    continue
            elif self.twins[u] & tried:
                continue  # a twin's subtree held the same sets, or only dead ends
            tried |= low
            rest = free & ~self.masks[u] & ~low
            if rest:
                if rest >> u + 1:  # else chosen + u misses a vertex but can add none: a dead end
                    self.independent(size + 1, chosen | low, rest, -(low << 1), sub)
            elif size + 1 >= self.top:
                if size + 1 > self.top:
                    self.top = size + 1
                    self.leading.clear()
                self.leading.append((chosen | low, sub))

    def lead(self) -> None:
        """Descend from each leading set found, until a search stops below bound."""
        masks, twins, top = self.masks, self.twins, self.top
        for chosen, active in self.leading:
            u, w = (chosen & -chosen).bit_length() - 1, chosen.bit_length() - 1  # first, last
            rest = ((1 << self.n) - 1) ^ chosen
            if top == 1:
                stop = self.descend(1, 0, rest, [], [masks[u]], active)
            elif top == 2:  # placed singly, in both orders unless u and w are twins
                stop = self.descend(2, 0, rest, [], [masks[u], masks[w]], active)
                if twins[u] >> w & 1:  # in a walk, both orders for the blocks that see one of them
                    active &= (masks[u] ^ masks[w]) >> self.n
                if not stop and (active or not twins[u] >> w & 1):
                    stop = self.descend(2, 0, rest, [], [masks[w], masks[u]], active)
            else:
                stop = self.descend(top, 0, rest, [self.cell_of(chosen)], [], active)
            if stop:
                return


def min_key(n: int, masks: list[int]) -> int:
    """Minimal bitstring over all vertex orderings of the graph given by masks."""
    return _Search(n, masks, 1 << pair_count(n)).least()  # bound above every key


def is_min_key(n: int, masks: list[int], key: int, twins: Optional[list[int]] = None) -> bool:
    """True iff key, the bitstring of the graph given by masks, is its minimal
    one; twins, if given, are the graph's twin masks."""
    return not _Search(n, masks, key, twins).below()


def _seen_by(j: int, blocks: Sequence[int]) -> list[int]:
    """Entry u: the blocks of `blocks` that see vertex u < j, block i as bit i."""
    sees = [0] * j
    for i, b in enumerate(blocks):
        while b:
            low = b & -b
            b ^= low
            sees[j - low.bit_length()] |= 1 << i
    return sees


def _leading_blocks(j: int, masks: list[int], key: int, sees: list[int], among: int) -> int:
    """The blocks of among (bits, as in sees, the output of _seen_by) whose
    new vertex v lies in a maximum independent set of H+b, where H is the
    graph of order j given by masks and key its minimal key.

    H's largest independent sets have a vertices, where a is the depth of
    key's first nonzero block (j if none), and v lies in a maximum one of
    H+b iff b misses some independent (a - 1)-set of H (module docstring).
    """
    shift = _shifts(j)
    a = next((d for d in range(j) if key >> shift[d]), j)
    return _missed(a - 1, (1 << j) - 1, among, 0, masks, sees)


def _missed(need: int, free: int, miss: int, found: int, masks: list[int],
            sees: list[int]) -> int:
    """found plus the blocks of miss that see none of some independent set
    of need more vertices from free, where miss holds the blocks that see
    none of an independent set already chosen, and free the vertices past
    its last that miss it.  A branch stops once it can add no block."""
    if not need:
        return found | miss
    while miss & ~found and free.bit_count() >= need:
        low = free & -free
        free ^= low
        u = low.bit_length() - 1
        found = _missed(need - 1, free & ~masks[u], miss & ~sees[u], found, masks, sees)
    return found


def _extension_search(j: int, masks: list[int], key: int, b: int, twins: list[int]) -> _Search:
    """The search of H+b bounded by (key << j) | b, where H is the graph of
    order j given by masks, with minimal key key and twin masks twins."""
    ext = add_column(masks, b)
    return _Search(j + 1, ext, (key << j) | b, extension_twins(twins, ext))


def canonical_blocks(j: int, masks: list[int], key: int, blocks: Sequence[int],
                     twins: Optional[list[int]] = None) -> list[int]:
    """The blocks b of `blocks`, in their order, for which (key << j) | b is
    the minimal key of H+b, where H is the graph of order j given by masks
    whose bitstring key is its minimal key, and H+b adds vertex j with
    column block b; twins, if given, are H's twin masks.

    SHARED_SEARCH_BLOCKS or more blocks share one walk of H's tied
    orderings, and the search with v in the leading set runs only for the
    blocks whose v lies in a maximum independent set of H+b (module
    docstring); fewer get one whole search of H+b each.
    """
    if twins is None:
        twins = _twin_masks(j, masks)
    if len(blocks) < SHARED_SEARCH_BLOCKS:
        return [b for b in blocks if not _extension_search(j, masks, key, b, twins).below()]
    sees = _seen_by(j, blocks)
    walk = _Search(j, [m | s << j for m, s in zip(masks, sees)], key, twins)
    alive = walk.walk((1 << len(blocks)) - 1)
    # v in the leading set, for the blocks that the walk keeps
    ties = walk.ties + [((0, 0, [], []), _leading_blocks(j, masks, key, sees, alive))]
    searches: dict[int, _Search] = {}  # block i: the search of H+b_i, kept while b_i is alive
    for start, tied in sorted(ties, key=lambda tie: -tie[0][0]):  # the short searches first
        tied &= alive
        while tied:
            low = tied & -tied
            tied ^= low
            i = low.bit_length() - 1
            if i not in searches:
                searches[i] = _extension_search(j, masks, key, blocks[i], twins)
            if searches[i].below_from(start):
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
