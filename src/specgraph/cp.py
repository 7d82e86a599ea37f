"""Complete-positivity classification via long-odd-cycle detection.

A graph is CP exactly when it contains no odd cycle of length >= 5 as a
subgraph.  Detection is one pass, is_cp_graph's, and find_long_odd_cycle
returns its witness.  Each odd component (bipartite ones are skipped) is
peeled to its 2-core, then an exhaustive simple-path DFS runs from its lowest
vertex, which is dropped, with a new peel, when no long odd cycle passes
through it.  The pass is validated against a line-graph perfection
cross-check on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .errors import OrderCapError, ParameterError
from .graphs import Graph, colour_components, complement, line_graph

LONG_ODD_CYCLE_ORDER_CAP = 12
LINE_GRAPH_EDGE_CAP = 10


class CpReason(str, Enum):
    BIPARTITE = "bipartite"
    SMALL_ORDER = "small-order"
    NO_LONG_ODD_CYCLE = "no-long-odd-cycle"
    LONG_ODD_CYCLE_FOUND = "long-odd-cycle-found"


@dataclass(frozen=True, slots=True)
class CpVerdict:
    is_cp: bool
    reason: CpReason
    witness: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        return {
            "is_cp": self.is_cp,
            "reason": self.reason.value,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A 2-coloring as (side0, side1) if one exists, else None."""
    components = colour_components(g.neighbor_masks(), (1 << g.order) - 1)
    if any(odd for _, _, odd in components):
        return None
    side0 = side1 = 0
    for s0, s1, _ in components:
        side0 |= s0
        side1 |= s1
    return (tuple(v for v in range(g.order) if side0 >> v & 1),
            tuple(v for v in range(g.order) if side1 >> v & 1))


def _peel_low_degree(masks: list[int], active: int) -> int:
    """The 2-core of the active vertex set: each pass drops every vertex
    with fewer than 2 active neighbours, until a pass drops none."""
    while True:
        low, rest = 0, active
        while rest:
            bit = rest & -rest
            rest ^= bit
            if (masks[bit.bit_length() - 1] & active).bit_count() < 2:
                low |= bit
        if not low:
            return active
        active ^= low


def _paths_from(masks: list[int], active: int, path: list[int], v: int,
                visited: int) -> Optional[list[int]]:
    """Extend path, a simple path from its anchor path[0] to v through the
    vertices of visited, until it closes an odd cycle of length >= 5."""
    candidates = masks[v] & active & ~visited
    while candidates:
        u = (candidates & -candidates).bit_length() - 1
        candidates &= candidates - 1
        path.append(u)
        length = len(path)
        if length >= 5 and length % 2 == 1 and (masks[path[0]] >> u) & 1:
            return path[:]
        result = _paths_from(masks, active, path, u, visited | (1 << u))
        if result is not None:
            return result
        path.pop()
    return None


def _long_odd_cycle(masks: list[int],
                    components: list[tuple[int, int, bool]]) -> Optional[list[int]]:
    """An odd cycle of length >= 5 as a vertex list, or None: each odd
    component is peeled to its 2-core and searched exhaustively from its
    lowest vertex, which is dropped when no such cycle passes through it."""
    for side0, side1, odd in components:
        work = _peel_low_degree(masks, side0 | side1) if odd else 0
        while work.bit_count() >= 5:
            anchor = (work & -work).bit_length() - 1
            found = _paths_from(masks, work, [anchor], anchor, 1 << anchor)
            if found is not None:
                return found
            # the cycles left avoid the anchor
            work = _peel_low_degree(masks, work & ~(1 << anchor))
    return None


def find_long_odd_cycle(g: Graph) -> Optional[list[int]]:
    """A simple odd cycle of length >= 5 given as a vertex list, or None:
    is_cp_graph's witness.

    "Contains" means as a subgraph, not induced.  Exhaustive within the order
    cap.
    """
    if g.order > LONG_ODD_CYCLE_ORDER_CAP:
        raise OrderCapError(
            f"long-odd-cycle search capped at order {LONG_ODD_CYCLE_ORDER_CAP}")
    witness = is_cp_graph(g).witness
    return None if witness is None else list(witness)


def check_long_odd_cycle_witness(g: Graph, cycle: Sequence[int]) -> bool:
    """Validate a witness: simple, odd, length >= 5, consecutive edges present."""
    k = len(cycle)
    if k < 5 or k % 2 == 0 or len(set(cycle)) != k:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def is_cp_graph(g: Graph) -> CpVerdict:
    """CP classification with a reason and, when not CP, a long-odd-cycle witness."""
    if g.order > LONG_ODD_CYCLE_ORDER_CAP:
        raise OrderCapError(
            f"CP classification capped at order {LONG_ODD_CYCLE_ORDER_CAP}")
    if g.order < 5:
        return CpVerdict(True, CpReason.SMALL_ORDER)
    masks = g.neighbor_masks()
    components = colour_components(masks, (1 << g.order) - 1)
    if not any(odd for _, _, odd in components):
        return CpVerdict(True, CpReason.BIPARTITE)
    cycle = _long_odd_cycle(masks, components)
    if cycle is None:
        return CpVerdict(True, CpReason.NO_LONG_ODD_CYCLE)
    return CpVerdict(False, CpReason.LONG_ODD_CYCLE_FOUND, tuple(cycle))


def _has_induced_long_odd_cycle(h: Graph) -> bool:
    masks = h.neighbor_masks()
    n = h.order
    for size in range(5, n + 1, 2):
        for subset in combinations(range(n), size):
            sub_mask = 0
            for v in subset:
                sub_mask |= 1 << v
            if any((masks[v] & sub_mask).bit_count() != 2 for v in subset):
                continue
            # 2-regular induced subgraph; a single cycle iff connected
            seen = 1 << subset[0]
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                nxt = masks[v] & sub_mask & ~seen
                while nxt:
                    u = (nxt & -nxt).bit_length() - 1
                    nxt &= nxt - 1
                    seen |= 1 << u
                    stack.append(u)
            if seen == sub_mask:
                return True
    return False


def line_graph_perfection_cross_check(g: Graph) -> bool:
    """True iff the line graph of g is perfect (no odd hole or odd antihole).

    Brute-force search over induced odd cycles in L(g) and its complement;
    independent route to the CP verdict on small graphs.
    """
    if g.edge_count > LINE_GRAPH_EDGE_CAP:
        raise ParameterError(
            f"line-graph cross-check capped at {LINE_GRAPH_EDGE_CAP} edges")
    if g.edge_count == 0:
        return True  # edgeless line graph is trivially perfect
    lg = line_graph(g)
    if _has_induced_long_odd_cycle(lg):
        return False
    return not _has_induced_long_odd_cycle(complement(lg))
