"""The acceptance suite: every headline claim re-checked at its stated tolerance.

Each check returns a CheckResult; ``run_all`` executes them in order and the
CLI ``verify`` subcommand renders the table.  Expected values come either
from closed forms checked against the division-free characteristic
polynomial, or from independent oracles (orbit counting, direct edge and
triangle counts, brute-force permutation search).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from . import search as search_mod
from .canonical import canonical_form
from .cp import (check_long_odd_cycle_witness, is_bipartite, is_cp_graph,
                 line_graph_perfection_cross_check)
from .errors import ParameterError
from .exact import are_cospectral, charpoly, closed_form_spectrum, edges_and_triangles
from .graphs import (FamilyKind, FamilySpec, Graph, book_graph, cycle_graph, disjoint_union,
                     empty_graph, is_connected, pyramid_graph, star_graph)
from .numeric import count_geq, eigenvalues, verify_interlacing
from .polynomials import poly_mul
from .rational import RationalMatrix, verify_schur_identities
from .search import (burnside_graph_count, cospectral_classes, enumerate_graphs, is_ds,
                     smallest_non_cp_non_ds_order, star_cospectral_mate)

# Regression fixtures: two 6-vertex adjacency matrices, the octahedron and the
# octahedron with one edge removed.
OCTAHEDRON_ROWS = (
    (0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 1, 0),
    (0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 1, 0),
)
OCTAHEDRON_LESS_EDGE_ROWS = (
    (0, 1, 1, 0, 1, 1),
    (1, 0, 0, 1, 0, 1),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 1, 0),
)
EXPECTED_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: Optional[float] = None  # wall-clock seconds, set by run_all


def _result(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... ({len(failures)} failures)"
        return CheckResult(name, False, shown)
    return CheckResult(name, True, detail_ok)


def _cycle_with_chord(n: int) -> Graph:
    """Cycle on n vertices plus the chord (0, 2)."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]
    return Graph.from_edges(n, edges)


def _count_triangles_direct(g: Graph) -> int:
    count = 0
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if not g.has_edge(i, j):
                continue
            for k in range(j + 1, g.order):
                if g.has_edge(i, k) and g.has_edge(j, k):
                    count += 1
    return count


# ---------------------------------------------------------------------------
# criterion 1: pyramid charpoly equals its factored closed form, exactly
# ---------------------------------------------------------------------------

def check_pyramid_charpoly_factorization() -> CheckResult:
    charpoly.cache_clear()  # honest timing even on a warm process
    start = time.monotonic()
    failures = []
    count = 0
    for n in range(2, 31):
        for k in range(1, n):
            expanded = closed_form_spectrum(FamilySpec(FamilyKind.PYRAMID, (n, k))).expand()
            direct = charpoly(pyramid_graph(n, k)).coeffs
            count += 1
            if expanded != direct:
                failures.append(f"(n={n}, k={k}) mismatch")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s budget")
    return _result("pyramid-charpoly-factorization", failures,
                   f"{count} pyramids, exact match")


# ---------------------------------------------------------------------------
# criterion 2: book graph spectrum {(1 +- sqrt(8n-15))/2, -1, 0^(n-3)}
# ---------------------------------------------------------------------------

def check_book_graph_spectrum() -> CheckResult:
    failures = []
    for n in range(3, 31):
        root = math.sqrt(8 * n - 15)
        expected = sorted([(1 - root) / 2, (1 + root) / 2, -1.0] + [0.0] * (n - 3))
        actual = sorted(eigenvalues(book_graph(n)).values)
        if any(abs(e - a) > 1e-8 for e, a in zip(expected, actual)):
            failures.append(f"n={n} spectrum off")
    k3 = sorted(eigenvalues(book_graph(3)).values)
    if any(abs(e - a) > 1e-8 for e, a in zip([-1.0, -1.0, 2.0], k3)):
        failures.append("n=3 is not the triangle spectrum {(-1)^2, 2}")
    return _result("book-graph-spectrum", failures, "n = 3..30 within 1e-8")


# ---------------------------------------------------------------------------
# criterion 3: constructive star mates; stars of prime index are DS
# ---------------------------------------------------------------------------

def check_star_cospectral_mates() -> CheckResult:
    failures = []
    for n in range(4, 31):
        if search_mod._smallest_prime_factor(n) == n:
            continue
        mate = star_cospectral_mate(n)
        star = star_graph(n)
        expected = [1, 0, -n] + [0] * (n - 1)  # x^(n+1) - n x^(n-1)
        if list(charpoly(mate).coeffs) != expected:
            failures.append(f"n={n}: mate charpoly wrong")
        if charpoly(mate) != charpoly(star):
            failures.append(f"n={n}: mate not cospectral with the star")
        if is_connected(mate) or not is_connected(star):
            failures.append(f"n={n}: connectivity certificate failed")
    for n in (2, 3, 5, 7):
        verdict = is_ds(star_graph(n))
        if not verdict.is_ds:
            failures.append(f"prime n={n}: exhaustive search found a mate")
        try:
            star_cospectral_mate(n)
            failures.append(f"prime n={n}: mate construction did not refuse")
        except ParameterError:
            pass
    return _result("star-cospectral-mates", failures,
                   "composite n <= 30 exact; prime n in {2,3,5,7} exhaustively DS")


# ---------------------------------------------------------------------------
# criterion 4: order-5 census has exactly one nontrivial cospectral class
# ---------------------------------------------------------------------------

def check_order5_census() -> CheckResult:
    failures = []
    search_mod._class_cache.pop(5, None)
    search_mod._enum_cache.pop(5, None)
    start = time.monotonic()
    report = cospectral_classes(5)
    elapsed = time.monotonic() - start
    if len(report.nontrivial_classes) != 1:
        failures.append(f"expected 1 nontrivial class, got {len(report.nontrivial_classes)}")
    else:
        got = {canonical_form(g).key for g in report.nontrivial_classes[0]}
        star = canonical_form(star_graph(4)).key
        c4k1 = canonical_form(disjoint_union(cycle_graph(4), empty_graph(1))).key
        if got != {star, c4k1}:
            failures.append("nontrivial class is not {star with 4 leaves, C4 + K1}")
    for n in range(1, 5):
        if cospectral_classes(n).nontrivial_classes:
            failures.append(f"order {n} unexpectedly has a nontrivial class")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s budget")
    return _result("order-5-census", failures,
                   "unique nontrivial pair at order 5, none below")


# ---------------------------------------------------------------------------
# criterion 5: smallest order that is neither CP nor DS is exactly 7
# ---------------------------------------------------------------------------

def check_nu_boundary() -> CheckResult:
    failures = []
    below = smallest_non_cp_non_ds_order(6)
    if below is not None:
        failures.append(f"cap 6 unexpectedly found order {below.order}")
    result = smallest_non_cp_non_ds_order(7)
    if result is None:
        failures.append("cap 7 found nothing")
    elif result.order != 7:
        failures.append(f"expected order 7, got {result.order}")
    else:
        if not check_long_odd_cycle_witness(result.graph, result.long_odd_cycle):
            failures.append("non-CP witness cycle invalid")
        if not are_cospectral(result.graph, result.mate):
            failures.append("witness mate not cospectral")
        if canonical_form(result.graph) == canonical_form(result.mate):
            failures.append("witness mate is isomorphic to the graph")
    return _result("nu-smallest-order", failures,
                   "no non-CP non-DS graph up to order 6; witness found at 7")


# ---------------------------------------------------------------------------
# criterion 6: every pyramid with 2 <= k < n <= 7 is DS by exhaustive search
# ---------------------------------------------------------------------------

def check_pyramid_ds() -> CheckResult:
    failures = []
    count = 0
    for n in range(3, 8):
        for k in range(2, n):
            verdict = is_ds(pyramid_graph(n, k))
            count += 1
            if not verdict.is_ds:
                failures.append(f"(n={n}, k={k}) has {len(verdict.mates)} mates")
    return _result("pyramid-ds", failures, f"{count} pyramids DS by exhaustive search")


# ---------------------------------------------------------------------------
# criterion 7: regression spectra of the two printed 6-vertex matrices
# ---------------------------------------------------------------------------

def check_octahedral_regressions() -> CheckResult:
    failures = []
    octa = sorted(eigenvalues(Graph.from_adjacency(OCTAHEDRON_ROWS)).values)
    expected = [-2.0, -2.0, 0.0, 0.0, 0.0, 4.0]
    if any(abs(e - a) > 1e-8 for e, a in zip(expected, octa)):
        failures.append(f"octahedron spectrum {octa} != {{4, 0^3, (-2)^2}}")
    g = Graph.from_adjacency(OCTAHEDRON_LESS_EDGE_ROWS)
    less = eigenvalues(g).values
    if abs(sum(less)) > 1e-8:
        failures.append(f"trace-zero violated: sum {sum(less)}")
    strictly_below = sum(1 for v in less if v < -1.0)
    if strictly_below != 2:
        failures.append(f"expected 2 eigenvalues below -1, got {strictly_below}")
    if g.order - count_geq(g, -1) != 2:
        failures.append("exact count below -1 disagrees")
    if abs(max(less) - 3.714) > 5e-3:
        failures.append(f"largest eigenvalue {max(less)} not within 5e-3 of 3.714")
    return _result("octahedral-regressions", failures,
                   "printed 6-vertex matrices reproduce their spectra")


# ---------------------------------------------------------------------------
# criterion 8: CP classification suite
# ---------------------------------------------------------------------------

def check_cp_classification() -> CheckResult:
    failures = []
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            if not is_cp_graph(g).is_cp:
                failures.append(f"order-{n} graph not CP")
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if is_bipartite(g) is not None and not is_cp_graph(g).is_cp:
                failures.append(f"bipartite order-{n} graph not CP")
    for name, g in (("C5", cycle_graph(5)), ("B5", _cycle_with_chord(5)),
                    ("B6", _cycle_with_chord(6))):
        verdict = is_cp_graph(g)
        if verdict.is_cp:
            failures.append(f"{name} wrongly CP")
        elif not check_long_odd_cycle_witness(g, verdict.witness):
            failures.append(f"{name} witness invalid")
    for n in range(3, 11):
        if not is_cp_graph(book_graph(n)).is_cp:
            failures.append(f"book graph n={n} wrongly not CP")
    # pyramids with k >= 3 and at least 5 vertices contain a long odd cycle;
    # the single boundary case (n=4, k=3) is the complete graph K4, which is CP
    for n in range(5, 11):
        for k in range(3, n):
            if is_cp_graph(pyramid_graph(n, k)).is_cp:
                failures.append(f"pyramid (n={n}, k={k}) wrongly CP")
    if not is_cp_graph(pyramid_graph(4, 3)).is_cp:
        failures.append("pyramid (4,3) = K4 must be CP (order below 5)")
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if g.edge_count > 10:
                continue
            checked += 1
            if line_graph_perfection_cross_check(g) != is_cp_graph(g).is_cp:
                failures.append(f"perfection cross-check split at order {n}")
    return _result("cp-classification", failures,
                   f"suite passed; {checked} line-graph cross-checks agree")


# ---------------------------------------------------------------------------
# criterion 9: edge/triangle counts recovered from the charpoly
# ---------------------------------------------------------------------------

def check_spectral_accounting() -> CheckResult:
    failures = []
    count = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            edges, triangles = edges_and_triangles(charpoly(g).coeffs)
            count += 1
            if edges != g.edge_count:
                failures.append(f"edges wrong at order {n}")
            if triangles != _count_triangles_direct(g):
                failures.append(f"triangles wrong at order {n}")
    return _result("spectral-accounting", failures,
                   f"{count} graphs of order <= 6 agree with direct counts")


# ---------------------------------------------------------------------------
# criterion 10: property suites (Schur, interlacing, unions, cospectral classes)
# ---------------------------------------------------------------------------

def _random_rational_matrix(rng: random.Random, n: int) -> RationalMatrix:
    return RationalMatrix.from_rows([
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(n)])


def _random_graph(rng: random.Random, n: int) -> Graph:
    from .graphs import pair_count
    m = pair_count(n)
    return Graph(n, rng.getrandbits(m) if m else 0)


def check_property_suites() -> CheckResult:
    failures = []
    rng = random.Random(20250808)

    done = 0
    while done < 500:
        n = rng.randint(2, 7)
        split = rng.randint(1, n - 1)
        m = _random_rational_matrix(rng, n)
        tail = range(n - split, n)
        if m.submatrix(tail, tail).determinant() == 0:
            continue
        det_ok, rank_ok = verify_schur_identities(m, split)
        if not (det_ok and rank_ok):
            failures.append(f"Schur identities failed at size {n}, split {split}")
        done += 1

    for trial in range(200):
        n = rng.randint(2, 8)
        g = _random_graph(rng, n)
        size = rng.randint(1, n - 1)
        subset = rng.sample(range(n), size)
        if not verify_interlacing(g, subset):
            failures.append(f"interlacing failed on trial {trial}")

    for trial in range(100):
        g1 = _random_graph(rng, rng.randint(1, 6))
        g2 = _random_graph(rng, rng.randint(1, 6))
        product = poly_mul(charpoly(g1).coeffs, charpoly(g2).coeffs)
        if charpoly(disjoint_union(g1, g2)).coeffs != product:
            failures.append(f"union charpoly product failed on trial {trial}")

    classes = 0
    for n in range(1, 8):
        for cls in cospectral_classes(n).nontrivial_classes:
            classes += 1
            edges = {g.edge_count for g in cls}
            triangles = {_count_triangles_direct(g) for g in cls}
            bipartite = {is_bipartite(g) is not None for g in cls}
            if len(edges) != 1 or len(triangles) != 1 or len(bipartite) != 1:
                failures.append(f"cospectral class at order {n} disagrees on invariants")
            keys = {canonical_form(g).key for g in cls}
            if len(keys) != len(cls):
                failures.append(f"cospectral class at order {n} has isomorphic members")
    return _result("property-suites", failures,
                   f"500 Schur + 200 interlacing + 100 union trials; {classes} classes")


# ---------------------------------------------------------------------------
# criterion 11: enumeration counts against the orbit-counting oracle
# ---------------------------------------------------------------------------

def check_enumeration_counts() -> CheckResult:
    failures = []
    for n in range(1, 8):
        got = len(enumerate_graphs(n))
        oracle = burnside_graph_count(n)
        expected = EXPECTED_GRAPH_COUNTS[n]
        if got != expected:
            failures.append(f"n={n}: enumerated {got}, expected {expected}")
        if oracle != expected:
            failures.append(f"n={n}: orbit count {oracle}, expected {expected}")
    return _result("enumeration-counts", failures,
                   "counts 1, 2, 4, 11, 34, 156, 1044 confirmed twice")


ALL_CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("pyramid-charpoly-factorization", check_pyramid_charpoly_factorization),
    ("book-graph-spectrum", check_book_graph_spectrum),
    ("star-cospectral-mates", check_star_cospectral_mates),
    ("order-5-census", check_order5_census),
    ("nu-smallest-order", check_nu_boundary),
    ("pyramid-ds", check_pyramid_ds),
    ("octahedral-regressions", check_octahedral_regressions),
    ("cp-classification", check_cp_classification),
    ("spectral-accounting", check_spectral_accounting),
    ("property-suites", check_property_suites),
    ("enumeration-counts", check_enumeration_counts),
)


def run_all() -> list[CheckResult]:
    """Run every check in order, each timed with its elapsed_s."""
    results = []
    for name, check in ALL_CHECKS:
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a crash counts as a failure, not a traceback
            result = CheckResult(name, False, f"error: {exc!r}")
        results.append(replace(result, elapsed_s=time.perf_counter() - start))
    return results
