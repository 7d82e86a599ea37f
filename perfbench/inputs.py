"""Seeded inputs for the benchmark workloads, built without the program under test.

Graphs are packed exactly as graph6 packs them: the upper adjacency triangle
in column-major pair order (0,1), (0,2), (1,2), (0,3), ..., first pair in the
most significant bit.  The encoder here is the benchmark's own, so the
program's decoder is checked against it.

The same seed always gives the same inputs.  String seeds for `random.Random`
are hashed with SHA-512, so they do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import random

CENSUS_ORDER = 8

# (name, family kind, family params, labellings): every pyramid T_{7,k}, the
# star with 6 leaves (composite, one mate) and the star with 7 leaves (prime,
# order 8).  Each order-7 query is asked under DS_LABELLINGS seeded
# relabellings, so that a round holds 13 verdicts; the order-8 query, which
# costs as much as the other 12, is asked once.
DS_LABELLINGS = 2
DS_QUERIES = tuple(
    [(f"pyramid-7-{k}", "pyramid", (7, k), DS_LABELLINGS) for k in range(2, 7)]
    + [("star-6", "star", (6,), DS_LABELLINGS), ("star-7", "star", (7,), 1)])

# Random part of the spectra stream: PER_CELL graphs for each (order, density).
# Below a sixth of the pairs, single sparse order-10 graphs cost seconds in
# canonical_form and would set a whole run's tail on their own.
SPECTRA_ORDERS = range(6, 11)
SPECTRA_DENSITIES = (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6)
SPECTRA_PER_CELL = 10
# Family part: pyramids T_{n,k} (3 <= k < n <= 14), books T_{n,2} and stars
# with up to 24 leaves.
PYRAMID_MAX_ORDER = 14
BOOK_MAX_ORDER = 24
STAR_MAX_LEAVES = 24
# canonical_form and is_cp_graph are queried up to this order.
SPECTRA_SMALL_ORDER = 10


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pack(n: int, edges) -> int:
    m = pair_count(n)
    bits = 0
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits |= 1 << (m - 1 - (j * (j - 1) // 2 + i))
    return bits


def unpack(n: int, bits: int) -> list[tuple[int, int]]:
    m = pair_count(n)
    return [(i, j) for j in range(n) for i in range(j)
            if (bits >> (m - 1 - (j * (j - 1) // 2 + i))) & 1]


def relabel(n: int, bits: int, perm) -> int:
    """Bits of the graph with vertex v renamed perm[v]."""
    return pack(n, [(perm[u], perm[v]) for u, v in unpack(n, bits)])


def graph6(n: int, bits: int) -> str:
    m = pair_count(n)
    groups = -(-m // 6)
    padded = bits << (6 * groups - m)
    return chr(n + 63) + "".join(
        chr(((padded >> (6 * k)) & 0x3F) + 63) for k in range(groups - 1, -1, -1))


def family_graph(kind: str, params) -> tuple[int, list[tuple[int, int]]]:
    """Order and edges of a pyramid T_{n,k} = K_k join (n-k)K_1, or a star."""
    if kind == "star":
        n, k = params[0] + 1, 1
    else:
        n, k = params
    edges = [(i, j) for j in range(k) for i in range(j)]
    edges += [(i, j) for i in range(k) for j in range(k, n)]
    return n, edges


def _item(n: int, bits: int, family) -> dict:
    return {"order": n, "bits": bits, "g6": graph6(n, bits), "family": family}


def ds_queries(seed: int) -> list[dict]:
    """The DS verdicts to ask: each query under its seeded relabellings."""
    out = []
    for name, kind, params, labellings in DS_QUERIES:
        for r in range(labellings):
            rng = random.Random(f"ds:{seed}:{name}:{r}")
            n, edges = family_graph(kind, params)
            perm = list(range(n))
            rng.shuffle(perm)
            item = _item(n, pack(n, [(perm[u], perm[v]) for u, v in edges]), [kind, list(params)])
            item["name"] = name
            out.append(item)
    return out


def spectra_queries(seed: int) -> list[dict]:
    """The spectra stream: distinct random graphs plus family members, shuffled by the seed.

    The random graphs are drawn by a generator of their own, the same for
    every seed, and sent labelled as drawn.  canonical_form's cost on sparse,
    twin-rich graphs depends on which graphs are drawn and how they are
    labelled: with a fresh draw per seed the 97th-percentile latency moved by
    17% from seed to seed.  Each random graph carries a seeded permutation for
    the relabelling check.
    """
    rng = random.Random(f"spectra:{seed}")
    draw = random.Random("spectra:graphs")
    items = []
    seen = set()
    for n in SPECTRA_ORDERS:
        m = pair_count(n)
        for density in SPECTRA_DENSITIES:
            e = round(density * m)
            made = 0
            while made < SPECTRA_PER_CELL:
                bits = 0
                for p in draw.sample(range(m), e):
                    bits |= 1 << p
                if (n, bits) in seen:
                    continue
                seen.add((n, bits))
                item = _item(n, bits, None)
                item["perm"] = list(range(n))
                rng.shuffle(item["perm"])
                items.append(item)
                made += 1
    families = [("pyramid", (n, k)) for n in range(4, PYRAMID_MAX_ORDER + 1) for k in range(3, n)]
    families += [("pyramid", (n, 2)) for n in range(3, BOOK_MAX_ORDER + 1)]
    families += [("star", (leaves,)) for leaves in range(2, STAR_MAX_LEAVES + 1)]
    for kind, params in families:
        # labelled as `specgraph family` builds them; relabelling would make
        # canonical_form's cost on these twin-rich graphs depend on the seed
        n, edges = family_graph(kind, params)
        items.append(_item(n, pack(n, edges), [kind, list(params)]))
    rng.shuffle(items)
    return items
