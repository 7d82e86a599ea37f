"""Simple undirected graphs as packed bitstrings, plus named families and operators.

A graph of order n stores its upper adjacency triangle as one integer.  Pairs
are taken in column-major order (0,1), (0,2), (1,2), (0,3), ... -- the same
order graph6 uses -- and the first pair occupies the most significant bit, so
comparing two ``bits`` integers of equal order compares the bitstrings
lexicographically.  Everything downstream (canonical forms, enumeration,
graph6 I/O) shares this single layout.

Column j of the layout is the j-bit block of pairs (0, j) ... (j-1, j).  This
module alone decodes the layout: into per-vertex neighbour masks
(``Graph.neighbor_masks``, one pass over the columns into one list), from
which every other adjacency view of one graph is built; into the masks of a
prefix extended by one column (``add_column``); and into the int64 adjacency
tensor of one graph or a batch (``adjacency_tensor``).  ``has_edge`` stays on
``pair_index`` as their independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Column-major upper-triangle position of pair (i, j) with i < j."""
    return j * (j - 1) // 2 + i


def add_column(masks: list[int], block: int) -> list[int]:
    """The neighbour masks of vertices 0..j-1 extended by vertex j = len(masks),
    whose column block is `block`."""
    out = masks + [0]
    _set_column(out, len(masks), block)
    return out


def _set_column(masks: list[int], j: int, block: int) -> None:
    """OR column j into masks in place: bit j-1-i of block is the pair (i, j)."""
    while block:
        low = block & -block
        block ^= low
        i = j - low.bit_length()
        masks[i] |= 1 << j
        masks[j] |= 1 << i


@cache
def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly lower order-n triangle, row-major,
    as np.tril_indices(n, -1) gives them; built from lists, since that call's
    first use in a process costs more than a whole one-graph decode."""
    return (np.array([r for r in range(n) for _ in range(r)], dtype=np.intp),
            np.array([c for r in range(n) for c in range(r)], dtype=np.intp))


def adjacency_tensor(n: int, bits: Sequence[int]) -> np.ndarray:
    """The int64 adjacency matrices, shape (len(bits), n, n), of the order-n
    bitstrings `bits`, decoded together for any order.  Each string is
    unpacked from its big-endian bytes; past the pad bits that fill its first
    byte, the bits are the pairs in layout order, which is the row-major order
    of the strictly lower triangle: (1, 0), (2, 0), (2, 1), (3, 0), ..."""
    m = pair_count(n)
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "big") for b in bits), dtype=np.uint8)
    pairs = np.unpackbits(raw.reshape(len(bits), width), axis=1)[:, 8 * width - m:]
    later, earlier = _lower_triangle(n)
    adj = np.zeros((len(bits), n, n), dtype=np.int64)
    adj[:, earlier, later] = pairs
    adj[:, later, earlier] = pairs
    return adj


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph: order + packed upper-triangle bits."""

    order: int
    bits: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ParameterError(f"graph order must be >= 1, got {self.order}")
        if not 0 <= self.bits < (1 << pair_count(self.order)):
            raise ParameterError("adjacency bits out of range for order")

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # one digit per pair, first pair first (OR-ing in each edge is quadratic)
        digits = bytearray(b"0") * pair_count(order)
        for u, v in edges:
            if u == v:
                raise ParameterError(f"loop at vertex {u} not allowed")
            if not (0 <= u < order and 0 <= v < order):
                raise ParameterError(f"edge ({u},{v}) out of range for order {order}")
            i, j = (u, v) if u < v else (v, u)
            digits[pair_index(i, j)] = 49  # "1"
        return cls(order, int(digits or b"0", 2))

    @classmethod
    def from_adjacency(cls, rows: Sequence[Sequence[int]]) -> "Graph":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ParameterError("adjacency matrix must be square")
        edges = []
        for i in range(n):
            if rows[i][i] != 0:
                raise ParameterError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ParameterError(f"asymmetric entries at ({i},{j})")
                if rows[i][j] not in (0, 1):
                    raise ParameterError(f"adjacency entries must be 0/1, got {rows[i][j]}")
                if rows[i][j]:
                    edges.append((i, j))
        return cls.from_edges(n, edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        i, j = (u, v) if u < v else (v, u)
        pos = pair_count(self.order) - 1 - pair_index(i, j)
        return bool((self.bits >> pos) & 1)

    def neighbor_masks(self) -> list[int]:
        """Per-vertex adjacency as a bitmask over vertex indices, decoded
        into one list column by column."""
        masks = [0] * self.order
        pos = pair_count(self.order)
        for j in range(1, self.order):
            pos -= j
            _set_column(masks, j, (self.bits >> pos) & ((1 << j) - 1))
        return masks

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted."""
        for i, mask in enumerate(self.neighbor_masks()):
            higher = mask >> (i + 1)
            while higher:
                low = higher & -higher
                higher ^= low
                yield (i, i + low.bit_length())

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.neighbor_masks()]

    def adjacency_rows(self) -> list[list[int]]:
        return [[(mask >> j) & 1 for j in range(self.order)]
                for mask in self.neighbor_masks()]


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

class FamilyKind(str, Enum):
    COMPLETE = "complete"
    EMPTY = "empty"
    PATH = "path"
    CYCLE = "cycle"
    STAR = "star"
    COMPLETE_BIPARTITE = "complete-bipartite"
    PYRAMID = "pyramid"


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """A named graph family plus its integer parameters."""

    kind: FamilyKind
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        kind, p = self.kind, self.params
        two_param = kind in (FamilyKind.COMPLETE_BIPARTITE, FamilyKind.PYRAMID)
        if len(p) != (2 if two_param else 1):
            raise ParameterError(f"{kind.value} takes {2 if two_param else 1} parameter(s)")
        if kind is FamilyKind.CYCLE and p[0] < 3:
            raise ParameterError("cycle needs at least 3 vertices")
        if kind is FamilyKind.PYRAMID:
            n, k = p
            if not 1 <= k < n:
                raise ParameterError(f"pyramid requires 1 <= k < n, got (n={n}, k={k})")
        elif any(x < 1 for x in p):
            raise ParameterError(f"{kind.value} parameters must be >= 1")

    @property
    def order(self) -> int:
        """The member's order, known before it is built."""
        if self.kind is FamilyKind.STAR:
            return self.params[0] + 1
        if self.kind is FamilyKind.COMPLETE_BIPARTITE:
            return sum(self.params)
        return self.params[0]


def complete_graph(n: int) -> Graph:
    return make_family(FamilySpec(FamilyKind.COMPLETE, (n,)))


def empty_graph(n: int) -> Graph:
    return make_family(FamilySpec(FamilyKind.EMPTY, (n,)))


def path_graph(n: int) -> Graph:
    return make_family(FamilySpec(FamilyKind.PATH, (n,)))


def cycle_graph(n: int) -> Graph:
    return make_family(FamilySpec(FamilyKind.CYCLE, (n,)))


def star_graph(n: int) -> Graph:
    """The star with n leaves: center 0 joined to 1..n (order n + 1)."""
    return make_family(FamilySpec(FamilyKind.STAR, (n,)))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    return make_family(FamilySpec(FamilyKind.COMPLETE_BIPARTITE, (m, n)))


def pyramid_graph(n: int, k: int) -> Graph:
    """Base clique on vertices 0..k-1, apexes k..n-1 joined to every base vertex."""
    return make_family(FamilySpec(FamilyKind.PYRAMID, (n, k)))


def book_graph(n: int) -> Graph:
    """n - 2 triangles sharing the common base edge (0, 1)."""
    return pyramid_graph(n, 2)


def make_family(spec: FamilySpec) -> Graph:
    # the edges are generated, not listed, so a large member builds no edge list
    kind, p, n = spec.kind, spec.params, spec.order
    if kind is FamilyKind.COMPLETE:
        return Graph(n, (1 << pair_count(n)) - 1)
    if kind is FamilyKind.EMPTY:
        return Graph(n, 0)
    if kind is FamilyKind.PATH:
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind is FamilyKind.CYCLE:
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    if kind is FamilyKind.STAR:
        return Graph.from_edges(n, ((0, i) for i in range(1, n)))
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        return Graph.from_edges(n, ((i, j) for i in range(p[0]) for j in range(p[0], n)))
    if kind is FamilyKind.PYRAMID:
        return Graph.from_edges(n, ((i, j) for i in range(p[1]) for j in range(i + 1, n)))
    raise ParameterError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def complement(g: Graph) -> Graph:
    full = (1 << pair_count(g.order)) - 1
    return Graph(g.order, g.bits ^ full)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n1 = g1.order
    edges = list(g1.edges())
    edges += [(u + n1, v + n1) for u, v in g2.edges()]
    return Graph.from_edges(n1 + g2.order, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n1 = g1.order
    g = disjoint_union(g1, g2)
    edges = list(g.edges())
    edges += [(u, n1 + v) for u in range(n1) for v in range(g2.order)]
    return Graph.from_edges(g.order, edges)


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g; adjacent iff the (distinct) edges share an endpoint."""
    es = list(g.edges())
    k = len(es)
    if k == 0:
        raise ParameterError("line graph of an edgeless graph is empty (order 0)")
    out = []
    for a in range(k):
        ua, va = es[a]
        for b in range(a + 1, k):
            ub, vb = es[b]
            if ua in (ub, vb) or va in (ub, vb):
                out.append((a, b))
    return Graph.from_edges(k, out)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    vs = sorted(set(vertices))
    if not vs:
        raise ParameterError("vertex set must be nonempty")
    if vs[0] < 0 or vs[-1] >= g.order:
        raise ParameterError(f"vertex index out of range for order {g.order}")
    edges = [(a, b) for a, u in enumerate(vs) for b, v in enumerate(vs)
             if a < b and g.has_edge(u, v)]
    return Graph.from_edges(len(vs), edges)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.order)):
        raise ParameterError("perm must be a permutation of the vertex indices")
    return Graph.from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def colour_components(masks: list[int], active: int) -> list[tuple[int, int, bool]]:
    """Each component of the graph induced on `active` as (side0, side1, odd).

    Bitmask breadth-first search by layers from the component's lowest
    vertex, coloured by layer parity.  An edge joins a layer only to itself
    or a neighbouring layer, so the component has an odd cycle exactly when
    an edge lies inside one layer.
    """
    out = []
    while active:
        frontier = active & -active
        sides = [0, 0]
        parity = 0
        odd = False
        while frontier:
            sides[parity] |= frontier
            active &= ~frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            odd = odd or bool(reach & sides[parity])
            frontier = reach & active
            parity ^= 1
        out.append((sides[0], sides[1], odd))
    return out


def is_connected(g: Graph) -> bool:
    return len(colour_components(g.neighbor_masks(), (1 << g.order) - 1)) == 1
