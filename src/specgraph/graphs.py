"""Simple undirected graphs as packed bitstrings, plus named families and operators.

A graph of order n stores its upper adjacency triangle as one integer.  Pairs
are taken in column-major order (0,1), (0,2), (1,2), (0,3), ... -- the same
order graph6 uses -- and the first pair occupies the most significant bit, so
comparing two ``bits`` integers of equal order compares the bitstrings
lexicographically.  Everything downstream (canonical forms, enumeration,
graph6 I/O) shares this single layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Column-major upper-triangle position of pair (i, j) with i < j."""
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
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
        m = pair_count(order)
        bits = 0
        for u, v in edges:
            if u == v:
                raise ParameterError(f"loop at vertex {u} not allowed")
            if not (0 <= u < order and 0 <= v < order):
                raise ParameterError(f"edge ({u},{v}) out of range for order {order}")
            i, j = (u, v) if u < v else (v, u)
            bits |= 1 << (m - 1 - pair_index(i, j))
        return cls(order, bits)

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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted."""
        for i in range(self.order):
            for j in range(i + 1, self.order):
                if self.has_edge(i, j):
                    yield (i, j)

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(self.order) if self.has_edge(v, u)]

    def neighbor_lists(self) -> list[list[int]]:
        return [self.neighbors(v) for v in range(self.order)]

    def neighbor_masks(self) -> list[int]:
        """Per-vertex adjacency as a bitmask over vertex indices."""
        masks = [0] * self.order
        for i, j in self.edges():
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.neighbor_masks()]

    def adjacency_rows(self) -> list[list[int]]:
        return [[1 if self.has_edge(i, j) else 0 for j in range(self.order)]
                for i in range(self.order)]


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


@dataclass(frozen=True)
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
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.COMPLETE:
        n = p[0]
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind is FamilyKind.EMPTY:
        return Graph(p[0], 0)
    if kind is FamilyKind.PATH:
        n = p[0]
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind is FamilyKind.CYCLE:
        n = p[0]
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind is FamilyKind.STAR:
        n = p[0]
        return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        m, n = p
        return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if kind is FamilyKind.PYRAMID:
        n, k = p
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += [(i, j) for i in range(k) for j in range(k, n)]
        return Graph.from_edges(n, edges)
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

def connected_components(g: Graph) -> list[list[int]]:
    masks = g.neighbor_masks()
    seen = [False] * g.order
    comps = []
    for s in range(g.order):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in range(g.order):
                if not seen[u] and (masks[v] >> u) & 1:
                    seen[u] = True
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1
