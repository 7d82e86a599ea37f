"""Correctness checks made apart from the program under test.

Each check compares a program output with a computation done here (orbit
counting, a Faddeev-LeVerrier charpoly, numpy's `eigvalsh`, networkx
isomorphism, a plain cycle search) or with a property the method must have.
None compares with a stored copy of an earlier output.  Every check returns a
list of failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from itertools import combinations

import networkx as nx
import numpy as np

import inputs

# Graphs of order 8 with an adjacency-cospectral mate: Haemers & Spence,
# "Enumeration of cospectral graphs", Europ. J. Combin. 25 (2004).
ORDER8_GRAPHS_WITH_MATE = 1722
EIGENVALUE_TOL = 1e-8
COUNT_MARGIN = 1e-6


def burnside_graph_count(n: int) -> int:
    """Unlabelled graphs on n vertices: orbits of S_n on vertex pairs' subsets."""

    def partitions(rest: int, least: int):
        if rest == 0:
            yield ()
        for first in range(least, rest + 1):
            for tail in partitions(rest - first, first):
                yield (first,) + tail

    total = 0
    for part in partitions(n, 1):
        perms = math.factorial(n)
        for length in set(part):
            mult = part.count(length)
            perms //= length ** mult * math.factorial(mult)
        cycles = sum(c // 2 for c in part) + sum(
            math.gcd(a, b) for i, a in enumerate(part) for b in part[i + 1:])
        total += perms << cycles
    return total // math.factorial(n)


def adjacency(n: int, bits: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in inputs.unpack(n, bits):
        a[i, j] = a[j, i] = 1
    return a


def charpolys(adj: np.ndarray) -> list[tuple[int, ...]]:
    """Faddeev-LeVerrier over a stack of adjacency matrices, highest power first.

    Exact in int64 while intermediate entries stay far below 2^63; otherwise
    it recomputes with Python integers.
    """
    count, n, _ = adj.shape
    for dtype in (np.int64, object):
        a = adj.astype(dtype)
        m = np.zeros_like(a)
        coeffs = [np.ones(count, dtype=dtype)]
        eye = np.eye(n, dtype=dtype)
        exact = True
        for k in range(1, n + 1):
            m = a @ m + coeffs[-1][:, None, None] * eye
            am = a @ m
            if dtype is np.int64 and np.abs(am).max(initial=0) >= 1 << 40:
                exact = False
                break
            coeffs.append(-np.trace(am, axis1=1, axis2=2) // k)
        if exact:
            return [tuple(int(c) for c in row) for row in np.stack(coeffs, axis=1)]
    raise AssertionError("unreachable: object arithmetic is exact")


def pyramid_charpoly(n: int, k: int) -> tuple[int, ...]:
    """x^(n-k-1) (x+1)^(k-1) (x^2 + (1-k)x - (n-k)k), the paper's factored form."""
    poly = [1, 1 - k, -(n - k) * k]
    for factor, times in (([1, 0], n - k - 1), ([1, 1], k - 1)):
        for _ in range(times):
            poly = [a + b for a, b in zip(poly + [0], [0] + [factor[1] * c for c in poly])]
    return tuple(poly)


def pyramid_min_bits(n: int, k: int) -> int:
    """Minimal bitstring of T_{n,k} over all labellings.

    A labelling matters only through the set of positions the k-clique takes.
    """
    return min(
        inputs.pack(n, list(combinations(base, 2))
                    + [(b, v) for b in base for v in range(n) if v not in base])
        for base in combinations(range(n), k))


def masks(n: int, bits: int) -> list[int]:
    out = [0] * n
    for i, j in inputs.unpack(n, bits):
        out[i] |= 1 << j
        out[j] |= 1 << i
    return out


def valid_witness(n: int, bits: int, cycle) -> bool:
    """A simple odd cycle of length >= 5 whose consecutive vertices are adjacent."""
    adj = masks(n, bits)
    k = len(cycle)
    return (k >= 5 and k % 2 == 1 and len(set(cycle)) == k
            and all(0 <= v < n for v in cycle)
            and all((adj[cycle[i]] >> cycle[(i + 1) % k]) & 1 for i in range(k)))


def has_long_odd_cycle(n: int, bits: int) -> bool:
    """Plain search: simple paths from each start through larger vertices only."""
    adj = masks(n, bits)
    colour = [-1] * n
    bipartite = True
    for s in range(n):
        if colour[s] < 0:
            colour[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for u in range(n):
                    if (adj[v] >> u) & 1:
                        if colour[u] < 0:
                            colour[u] = 1 - colour[v]
                            stack.append(u)
                        elif colour[u] == colour[v]:
                            bipartite = False
    if bipartite:
        return False

    def extend(start: int, v: int, visited: int, length: int) -> bool:
        if length >= 5 and length % 2 == 1 and (adj[v] >> start) & 1:
            return True
        free = adj[v] & ~visited & ~((1 << (start + 1)) - 1)
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            if extend(start, u, visited | (1 << u), length + 1):
                return True
        return False

    return any(extend(s, s, 1 << s, 1) for s in range(n))


def nx_graph(n: int, bits: int) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(inputs.unpack(n, bits))
    return g


def check_cp(n: int, bits: int, witness) -> list[str]:
    if witness is not None:
        if not valid_witness(n, bits, witness):
            return [f"invalid long-odd-cycle witness {witness} for {inputs.graph6(n, bits)}"]
    elif has_long_odd_cycle(n, bits):
        return [f"CP verdict on {inputs.graph6(n, bits)}, which has an odd cycle of length >= 5"]
    return []


def check_census(out: dict) -> list[str]:
    n = inputs.CENSUS_ORDER
    graphs = out["graphs"]
    errors = []
    expected = burnside_graph_count(n)
    if len(graphs) != expected:
        errors.append(f"{len(graphs)} order-{n} graphs, orbit count is {expected}")
    if any(a >= b for a, b in zip(graphs, graphs[1:])):
        errors.append("representatives not strictly ascending")
    buckets = defaultdict(list)
    with warnings.catch_warnings():
        # networkx notes that its hash values changed in 3.5; only equality matters here
        warnings.simplefilter("ignore", UserWarning)
        for b in graphs:
            g = nx_graph(n, b)
            buckets[nx.weisfeiler_lehman_graph_hash(g, iterations=3)].append(g)
    for bucket in buckets.values():
        for i, g in enumerate(bucket):
            if any(nx.is_isomorphic(g, h) for h in bucket[i + 1:]):
                errors.append("two representatives are isomorphic")
    by_poly = defaultdict(list)
    polys = charpolys(np.stack([adjacency(n, b) for b in graphs]))
    for b, poly in zip(graphs, polys):
        by_poly[poly].append(b)
    if len(by_poly) != out["class_count"]:
        errors.append(f"{out['class_count']} charpoly classes, independent charpolys give {len(by_poly)}")
    ours = {frozenset(c) for c in by_poly.values() if len(c) > 1}
    if ours != {frozenset(c) for c in out["nontrivial"]}:
        errors.append("nontrivial cospectral classes differ from the independent partition")
    with_mate = sum(len(c) for c in ours)
    if with_mate != ORDER8_GRAPHS_WITH_MATE:
        errors.append(f"{with_mate} graphs with a cospectral mate, published {ORDER8_GRAPHS_WITH_MATE}")
    if len(out["witnesses"]) != len(graphs):
        errors.append("one CP verdict per representative expected")
    for b, witness in zip(graphs, out["witnesses"]):
        errors += check_cp(n, b, witness)
    return errors


def is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def check_ds(item: dict, out: dict) -> list[str]:
    n, bits, name = item["order"], item["bits"], item["name"]
    kind, params = item["family"]
    errors = []
    if out["bits"] != bits:
        errors.append(f"{name}: graph6 decoded to other bits")
    if out["searched_order"] != n:
        errors.append(f"{name}: searched order {out['searched_order']}, graph has order {n}")
    mates = out["mates"]
    if out["is_ds"] != (not mates):
        errors.append(f"{name}: DS verdict disagrees with its mate list")
    if kind == "pyramid" and mates:
        errors.append(f"{name}: pyramids are DS, got {len(mates)} mates")
    if kind == "star":
        leaves = params[0]
        if out["is_ds"] != is_prime(leaves):
            errors.append(f"{name}: star with {leaves} leaves is DS iff {leaves} is prime")
        nx_mates = [nx_graph(n, m) for m in mates]
        for p in range(2, math.isqrt(leaves) + 1):
            if leaves % p == 0:
                q = leaves // p
                expected = nx.disjoint_union(nx.complete_bipartite_graph(p, q),
                                             nx.empty_graph(leaves + 1 - p - q))
                if not any(nx.is_isomorphic(expected, h) for h in nx_mates):
                    errors.append(f"{name}: K_{p},{q} plus isolated vertices is not among the mates")
    polys = charpolys(np.stack([adjacency(n, b) for b in [bits, *mates]]))
    query = nx_graph(n, bits)
    for i, m in enumerate(mates):
        if polys[i + 1] != polys[0]:
            errors.append(f"{name}: mate {inputs.graph6(n, m)} is not cospectral")
        if nx.is_isomorphic(query, nx_graph(n, m)):
            errors.append(f"{name}: mate {inputs.graph6(n, m)} is isomorphic to the query")
    return errors


def check_spectra(items: list[dict], outs: list[dict]) -> list[str]:
    errors = []
    by_order = defaultdict(list)
    for item, out in zip(items, outs):
        if out is not None:
            by_order[item["order"]].append((item, out))
    for n, group in by_order.items():
        adj = np.stack([adjacency(n, item["bits"]) for item, _ in group])
        polys = charpolys(adj)
        spectra = np.linalg.eigvalsh(adj.astype(float))
        for (item, out), poly, eigs in zip(group, polys, spectra):
            g6 = item["g6"]
            if out["bits"] != item["bits"]:
                errors.append(f"{g6}: graph6 decoded to other bits")
            if tuple(out["charpoly"]) != poly:
                errors.append(f"{g6}: charpoly differs from Faddeev-LeVerrier")
            k = None
            if item["family"] is not None:
                kind, params = item["family"]
                k = 1 if kind == "star" else params[1]
                if tuple(out["charpoly"]) != pyramid_charpoly(n, k):
                    errors.append(f"{g6}: charpoly differs from the factored form")
                closed = out["closed_form"]
                if closed is None or len(closed) != n or np.abs(np.sort(closed) - eigs).max() > EIGENVALUE_TOL:
                    errors.append(f"{g6}: closed form does not match eigvalsh")
            values = np.sort(np.array(out["eigenvalues"]))
            if len(values) != n or np.abs(values - eigs).max() > EIGENVALUE_TOL:
                errors.append(f"{g6}: eigenvalues differ from eigvalsh by more than {EIGENVALUE_TOL}")
            if out["leq_minus1"] != int((eigs <= -1 + COUNT_MARGIN).sum()):
                errors.append(f"{g6}: count of eigenvalues <= -1 disagrees with eigvalsh")
            if out["geq_0"] != int((eigs >= -COUNT_MARGIN).sum()):
                errors.append(f"{g6}: count of eigenvalues >= 0 disagrees with eigvalsh")
            if n <= inputs.SPECTRA_SMALL_ORDER:
                key = out["canonical"]
                if k is not None and key != pyramid_min_bits(n, k):
                    errors.append(f"{g6}: canonical form is not the minimal labelling")
                if k is None and key != out["canonical_relabelled"]:
                    errors.append(f"{g6}: canonical form changes under relabelling")
                if key > item["bits"]:
                    errors.append(f"{g6}: canonical form above the input's bits")
                if not nx.is_isomorphic(nx_graph(n, key), nx_graph(n, item["bits"])):
                    errors.append(f"{g6}: canonical form is not isomorphic to the input")
                if out["is_cp"] != (out["witness"] is None):
                    errors.append(f"{g6}: CP verdict disagrees with its witness")
                errors += check_cp(n, item["bits"], out["witness"])
    return errors
