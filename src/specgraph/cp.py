"""Complete-positivity classification via long-odd-cycle detection.

A graph is CP exactly when it contains no odd cycle of length >= 5 as a
subgraph.  Detection is an exhaustive simple-path DFS with two prunings
(bipartite components are skipped; vertices are peeled while their degree
stays below 2), validated against a line-graph perfection cross-check on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .errors import OrderCapError, ParameterError
from .graphs import Graph, complement, line_graph

LONG_ODD_CYCLE_ORDER_CAP = 12
LINE_GRAPH_EDGE_CAP = 10


class CpReason(str, Enum):
    BIPARTITE = "bipartite"
    SMALL_ORDER = "small-order"
    NO_LONG_ODD_CYCLE = "no-long-odd-cycle"
    LONG_ODD_CYCLE_FOUND = "long-odd-cycle-found"


@dataclass(frozen=True)
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


def _colour_components(masks: list[int], active: int) -> list[tuple[int, int, bool]]:
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


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A 2-coloring as (side0, side1) if one exists, else None."""
    components = _colour_components(g.neighbor_masks(), (1 << g.order) - 1)
    if any(odd for _, _, odd in components):
        return None
    side0 = side1 = 0
    for s0, s1, _ in components:
        side0 |= s0
        side1 |= s1
    return (tuple(v for v in range(g.order) if side0 >> v & 1),
            tuple(v for v in range(g.order) if side1 >> v & 1))


def _peel_low_degree(masks: list[int], active: int) -> int:
    """Iteratively drop vertices with fewer than 2 active neighbors."""
    changed = True
    while changed:
        changed = False
        v = 0
        rest = active
        while rest:
            if rest & 1 and (masks[v] & active).bit_count() < 2:
                active &= ~(1 << v)
                changed = True
            rest >>= 1
            v += 1
    return active


def _dfs_long_odd_cycle(masks: list[int], active: int) -> Optional[list[int]]:
    """Exhaustive anchored simple-path search inside the active vertex set."""
    work = active
    while work:
        work = _peel_low_degree(masks, work)
        if work.bit_count() < 5:
            return None
        anchor = (work & -work).bit_length() - 1  # lowest active vertex
        found = _paths_from(masks, work, anchor)
        if found is not None:
            return found
        work &= ~(1 << anchor)  # remaining cycles avoid this anchor
    return None


def _paths_from(masks: list[int], active: int, anchor: int) -> Optional[list[int]]:
    path = [anchor]
    anchor_mask = masks[anchor]

    def extend(v: int, visited: int) -> Optional[list[int]]:
        candidates = masks[v] & active & ~visited
        while candidates:
            u = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            path.append(u)
            length = len(path)
            if length >= 5 and length % 2 == 1 and (anchor_mask >> u) & 1:
                return path[:]
            result = extend(u, visited | (1 << u))
            if result is not None:
                return result
            path.pop()
        return None

    return extend(anchor, 1 << anchor)


def _long_odd_cycle(masks: list[int],
                    components: list[tuple[int, int, bool]]) -> Optional[list[int]]:
    for side0, side1, odd in components:
        component = side0 | side1
        if odd and component.bit_count() >= 5:
            found = _dfs_long_odd_cycle(masks, component)
            if found is not None:
                return found
    return None


def find_long_odd_cycle(g: Graph) -> Optional[list[int]]:
    """A simple odd cycle of length >= 5 given as a vertex list, or None.

    "Contains" means as a subgraph, not induced.  Exhaustive within the order
    cap.
    """
    if g.order > LONG_ODD_CYCLE_ORDER_CAP:
        raise OrderCapError(
            f"long-odd-cycle search capped at order {LONG_ODD_CYCLE_ORDER_CAP}")
    masks = g.neighbor_masks()
    return _long_odd_cycle(masks, _colour_components(masks, (1 << g.order) - 1))


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
    components = _colour_components(masks, (1 << g.order) - 1)
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
