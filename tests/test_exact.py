"""Exact characteristic polynomials, cospectrality, and closed-form spectra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import direct_triangle_count, random_graph
from specgraph import (FamilyKind, FamilySpec, Graph, NotGraphPolynomialError,
                       OrderCapError, ParameterError, QuadraticSurd, are_cospectral,
                       book_graph, charpoly, charpoly_pyramid_factored, charpolys,
                       closed_form_spectrum, complete_graph, cycle_graph,
                       disjoint_union, empty_graph, edges_and_triangles, enumerate_graphs,
                       make_family, make_surd, path_graph, pyramid_graph, quadratic_roots,
                       star_graph)
from specgraph.exact import (PRIMES, ClosedFormSpectrum, _plan, berkowitz_charpoly, berkowitz_level,
                            charpoly_rows, hadamard_bound_squared)
from specgraph.polynomials import poly_mul, poly_product


def spec(kind, *params):
    return FamilySpec(kind, tuple(params))


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------

def test_charpoly_empty_graphs():
    for n in (1, 3, 6):
        assert charpoly(empty_graph(n)).coeffs == (1,) + (0,) * n


def test_charpoly_known_values():
    assert charpoly(complete_graph(3)).coeffs == (1, 0, -3, -2)
    assert charpoly(path_graph(3)).coeffs == (1, 0, -2, 0)
    assert charpoly(book_graph(6)).coeffs == (1, 0, -9, -8, 0, 0, 0)
    assert charpoly(star_graph(4)).coeffs == (1, 0, -4, 0, 0, 0)


def test_charpoly_is_monic_with_zero_trace(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9))
        p = charpoly(g).coeffs
        assert len(p) == g.order + 1
        assert p[0] == 1
        assert p[1] == 0


def test_charpoly_matches_numeric_roots(rng):
    # independent oracle: numpy's eigenvalue-based polynomial coefficients
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        expected = np.poly(np.array(g.adjacency_rows(), dtype=float))
        got = charpoly(g).coeffs
        assert np.allclose(got, expected, atol=1e-6)


def test_charpoly_order_cap():
    with pytest.raises(OrderCapError):
        charpoly(empty_graph(65))


def test_charpoly_multiplicative_over_disjoint_union(rng):
    for _ in range(30):
        g1 = random_graph(rng, rng.randint(1, 6))
        g2 = random_graph(rng, rng.randint(1, 6))
        assert charpoly(disjoint_union(g1, g2)).coeffs == poly_mul(charpoly(g1).coeffs,
                                                                   charpoly(g2).coeffs)


def _seeded_graph(rng, n, density):
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                if rng.random() < density])


def _assert_within_hadamard_bound(coeffs):
    n = len(coeffs) - 1
    for j, c in enumerate(coeffs):
        assert c * c <= math.comb(n, j) ** 2 * (j - 1) ** j, (n, j)


def test_charpolys_equal_berkowitz(rng):
    batches = [enumerate_graphs(n) for n in range(1, 8)]  # order 7 spans five chunks
    densities = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    for n in range(8, 11):
        batches.append([_seeded_graph(rng, n, rng.random()) for _ in range(100)])
    # one graph of each order 11..64, the densities in turn
    for n in range(11, 65):
        batches.append([_seeded_graph(rng, n, densities[n % len(densities)])])
    batches.append([_seeded_graph(rng, 64, 0.1) for _ in range(5)])  # two chunks, eight primes
    batches.append([complete_graph(10), empty_graph(10)]
                   + [pyramid_graph(10, k) for k in range(1, 10)])
    batches.append([complete_graph(64), empty_graph(64), star_graph(63), book_graph(64),
                    pyramid_graph(64, 5)])
    batches.append([empty_graph(1)])
    for graphs in batches:
        got = charpolys(graphs)
        assert got == [berkowitz_charpoly(g.neighbor_masks()) for g in graphs]
        assert all(type(c) is int for row in got for c in row)  # no numpy scalars
        for row in got:
            _assert_within_hadamard_bound(row)
    assert charpolys([]) == []


def test_charpolys_equal_closed_forms_up_to_order_64():
    for n in range(1, 65):
        got = charpolys([complete_graph(n)])[0]
        assert got == poly_product([((1, 1), n - 1), ((1, 1 - n), 1)])
        assert charpolys([empty_graph(n)])[0] == (1,) + (0,) * n
        if n % 7 == 2:
            assert charpoly(star_graph(n - 1)).coeffs == poly_product(
                [((1, 0), n - 2), ((1, 0, -(n - 1)), 1)])
        if n % 7 == 3:
            assert charpoly(book_graph(n)).coeffs == poly_product(charpoly_pyramid_factored(n, 2))
    for n in (16, 31, 64):
        ks = (1, 2, 3, n // 2, n - 2, n - 1)
        assert charpolys([pyramid_graph(n, k) for k in ks]) == [
            poly_product(charpoly_pyramid_factored(n, k)) for k in ks]


def test_primes_table():
    assert len(set(PRIMES)) == len(PRIMES)
    for p in PRIMES:
        assert 64 < p < 1 << 25
        assert all(p % q for q in range(2, math.isqrt(p) + 1)), p
    assert math.prod(PRIMES) ** 2 > 4 * hadamard_bound_squared(64)


def test_plans_use_the_fewest_primes_and_reduce_every_power_that_can_reach_one():
    for n in range(1, 65):
        plan = _plan(n)
        bound2 = hadamard_bound_squared(n)
        assert plan.primes == PRIMES[:len(plan.primes)]
        assert plan.modulus == math.prod(plan.primes)
        assert plan.modulus ** 2 > 4 * bound2
        assert (plan.modulus // plan.primes[-1]) ** 2 <= 4 * bound2, n
        for m in range(2, (n + 1) // 2 + 1):
            assert (m >= plan.reduce_from) == ((n - 1) ** m >= min(plan.primes)), (n, m)
        for k in range(2, n + 1):
            assert [k * -inv % p for inv, p in zip(plan.neg_inverses[k, :, 0].tolist(),
                                                    plan.primes)] == [1] * len(plan.primes)
    assert len(_plan(12).primes) == 1 and len(_plan(64).primes) == 8


def test_berkowitz_levels_build_the_charpoly_prefix_by_prefix(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 14))
        masks = g.neighbor_masks()
        coeffs = [1, 0]  # the first vertex alone
        for j in range(1, g.order):
            # the leading block's neighbour rows, and vertex j's column
            rows = [[i for i in range(j) if masks[v] >> i & 1] for v in range(j)]
            col = [i for i in range(j) if masks[j] >> i & 1]
            coeffs = berkowitz_level(coeffs, rows, col)
        assert tuple(coeffs) == charpoly(g).coeffs == berkowitz_charpoly(masks)


def test_charpoly_rows_equal_charpolys_through_order_12(rng):
    batches = [[_seeded_graph(rng, n, rng.random()) for _ in range(40)] for n in range(9, 12)]
    batches.append([_seeded_graph(rng, 12, rng.random()) for _ in range(300)])  # two chunks
    batches.append([complete_graph(12)])
    for graphs in batches:
        rows = charpoly_rows(graphs)
        assert rows.dtype == np.int64 and rows.shape == (len(graphs), graphs[0].order + 1)
        assert rows.tolist() == [list(p) for p in charpolys(graphs)]
        assert rows.tolist() == [list(berkowitz_charpoly(g.neighbor_masks())) for g in graphs]


def test_charpoly_rows_refuse_an_order_that_needs_two_primes():
    assert len(_plan(12).primes) == 1 and len(_plan(13).primes) == 2
    with pytest.raises(OrderCapError, match="one-prime order; order 13 needs 2 primes"):
        charpoly_rows([complete_graph(13)])
    with pytest.raises(OrderCapError):
        charpoly_rows([empty_graph(65)])


def test_charpolys_refuse_order_65_and_mixed_orders():
    with pytest.raises(OrderCapError):
        charpolys([empty_graph(65)])
    with pytest.raises(ParameterError, match="one order"):
        charpolys([empty_graph(3), empty_graph(4)])


# ---------------------------------------------------------------------------
# cospectrality
# ---------------------------------------------------------------------------

def test_star_and_its_mate_are_cospectral():
    s4 = star_graph(4)
    mate = disjoint_union(cycle_graph(4), empty_graph(1))
    assert are_cospectral(s4, mate)
    assert are_cospectral(s4, s4)


def test_non_cospectral_pairs():
    assert not are_cospectral(complete_graph(3), path_graph(3))
    assert not are_cospectral(complete_graph(3), complete_graph(4))


# ---------------------------------------------------------------------------
# edge and triangle accounting
# ---------------------------------------------------------------------------

def test_edges_and_triangles_known():
    assert edges_and_triangles(charpoly(complete_graph(3)).coeffs) == (3, 1)
    assert edges_and_triangles(charpoly(star_graph(4)).coeffs) == (4, 0)
    assert edges_and_triangles(charpoly(pyramid_graph(6, 3)).coeffs) == (12, 10)
    # below order 3, c_{n-2} or c_{n-3} lies past the coefficient tuple
    assert edges_and_triangles(charpoly(empty_graph(1)).coeffs) == (0, 0)
    assert edges_and_triangles(charpoly(empty_graph(2)).coeffs) == (0, 0)
    assert edges_and_triangles(charpoly(complete_graph(2)).coeffs) == (1, 0)
    assert edges_and_triangles((1,)) == (0, 0)


def test_edges_and_triangles_match_direct_counts(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        edges, triangles = edges_and_triangles(charpoly(g).coeffs)
        assert edges == g.edge_count
        assert triangles == direct_triangle_count(g)


def test_edges_and_triangles_rejects_non_graph_polynomials():
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles((2, 0, -3))  # not monic
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles((1, 1, 0))  # nonzero trace
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles((1, 0, 5))  # negative edge count
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles((1, 0, 0, -1))  # odd triangle numerator
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles((0, 1, 0, -1))  # a leading zero is not monic
    with pytest.raises(NotGraphPolynomialError):
        edges_and_triangles(())  # no coefficients


# ---------------------------------------------------------------------------
# pyramid factored charpoly
# ---------------------------------------------------------------------------

def test_factored_form_examples():
    assert charpoly_pyramid_factored(6, 3) == (((1, 0), 2), ((1, 1), 2), ((1, -2, -9), 1))
    # a star: x^(n-2) (x^2 - (n-1))
    assert charpoly_pyramid_factored(7, 1) == (((1, 0), 5), ((1, 0, -6), 1))
    assert poly_product(charpoly_pyramid_factored(6, 2)) == charpoly(book_graph(6)).coeffs


def test_factored_form_matches_charpoly_small():
    for n in range(2, 13):
        for k in range(1, n):
            assert poly_product(charpoly_pyramid_factored(n, k)) == charpoly(
                pyramid_graph(n, k)).coeffs


def test_factored_form_parameter_errors():
    with pytest.raises(ParameterError):
        charpoly_pyramid_factored(4, 4)
    with pytest.raises(ParameterError):
        charpoly_pyramid_factored(4, 0)


# ---------------------------------------------------------------------------
# quadratic surds
# ---------------------------------------------------------------------------

def test_surd_normalization():
    assert make_surd(0, 1, 4, 1) == Fraction(2)          # sqrt(4) collapses
    assert make_surd(1, 0, 7, 2) == Fraction(1, 2)       # no surd part
    assert make_surd(0, 2, 8, 4) == QuadraticSurd(0, 1, 2, 1)   # sqrt(8) = 2 sqrt(2)
    assert make_surd(2, 2, 3, 4) == QuadraticSurd(1, 1, 3, 2)   # gcd reduced
    assert make_surd(1, -1, 5, -2) == QuadraticSurd(-1, 1, 5, 2)  # sign into numerator
    with pytest.raises(ParameterError):
        make_surd(0, 1, -3, 1)


def test_surd_arithmetic_views():
    s = QuadraticSurd(1, 3, 17, 2)  # (1 + 3 sqrt(17))/2
    assert s.conjugate() == QuadraticSurd(1, -3, 17, 2)
    assert s.trace == Fraction(1)
    assert s.norm == Fraction(1 - 9 * 17, 4)
    assert abs(float(s) - (1 + 3 * 17 ** 0.5) / 2) < 1e-12


def test_quadratic_roots_ordering():
    lo, hi = quadratic_roots(-1, -8)  # x^2 - x - 8, the 6-page book quadratic
    assert float(lo) < float(hi)
    assert lo == QuadraticSurd(1, -1, 33, 2)
    assert hi == QuadraticSurd(1, 1, 33, 2)
    lo, hi = quadratic_roots(0, -4)
    assert (lo, hi) == (Fraction(-2), Fraction(2))


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def test_pyramid_closed_forms():
    cf = closed_form_spectrum(spec(FamilyKind.PYRAMID, 6, 3))
    assert cf.entries == (
        (QuadraticSurd(1, -1, 10, 1), 1),
        (Fraction(-1), 2),
        (Fraction(0), 2),
        (QuadraticSurd(1, 1, 10, 1), 1),
    )
    cf = closed_form_spectrum(spec(FamilyKind.PYRAMID, 6, 2))
    assert cf.entries == (
        (QuadraticSurd(1, -1, 33, 2), 1),
        (Fraction(-1), 1),
        (Fraction(0), 3),
        (QuadraticSurd(1, 1, 33, 2), 1),
    )


def test_pyramid_with_singleton_base_is_a_star():
    for n in (3, 5, 10, 17):
        assert (closed_form_spectrum(spec(FamilyKind.PYRAMID, n, 1))
                == closed_form_spectrum(spec(FamilyKind.STAR, n - 1)))


def test_pyramid_closed_form_merges_complete_graph_case():
    # n = k + 1 gives the complete graph: the quadratic root -1 merges
    cf = closed_form_spectrum(spec(FamilyKind.PYRAMID, 5, 4))
    assert cf.entries == ((Fraction(-1), 4), (Fraction(4), 1))
    assert cf == closed_form_spectrum(spec(FamilyKind.COMPLETE, 5))


def test_table_closed_forms():
    assert closed_form_spectrum(spec(FamilyKind.COMPLETE, 4)).entries == (
        (Fraction(-1), 3), (Fraction(3), 1))
    assert closed_form_spectrum(spec(FamilyKind.COMPLETE, 1)).entries == (
        (Fraction(0), 1),)
    assert closed_form_spectrum(spec(FamilyKind.EMPTY, 5)).entries == (
        (Fraction(0), 5),)
    assert closed_form_spectrum(spec(FamilyKind.STAR, 4)).entries == (
        (Fraction(-2), 1), (Fraction(0), 3), (Fraction(2), 1))
    assert closed_form_spectrum(spec(FamilyKind.COMPLETE_BIPARTITE, 2, 3)).entries == (
        (QuadraticSurd(0, -1, 6, 1), 1), (Fraction(0), 3), (QuadraticSurd(0, 1, 6, 1), 1))


def test_path_and_cycle_closed_forms():
    assert closed_form_spectrum(spec(FamilyKind.CYCLE, 4)).entries == (
        (Fraction(-2), 1), (Fraction(0), 2), (Fraction(2), 1))
    assert closed_form_spectrum(spec(FamilyKind.CYCLE, 6)).entries == (
        (Fraction(-2), 1), (Fraction(-1), 2), (Fraction(1), 2), (Fraction(2), 1))
    assert closed_form_spectrum(spec(FamilyKind.PATH, 2)).entries == (
        (Fraction(-1), 1), (Fraction(1), 1))
    assert closed_form_spectrum(spec(FamilyKind.PATH, 3)).entries == (
        (QuadraticSurd(0, -1, 2, 1), 1), (Fraction(0), 1), (QuadraticSurd(0, 1, 2, 1), 1))
    # golden-ratio spectra stay exact
    assert closed_form_spectrum(spec(FamilyKind.CYCLE, 5)).entries == (
        (QuadraticSurd(-1, -1, 5, 2), 2), (QuadraticSurd(-1, 1, 5, 2), 2), (Fraction(2), 1))
    assert closed_form_spectrum(spec(FamilyKind.PATH, 4)) is not None


def test_irrational_cosine_spectra_refuse():
    assert closed_form_spectrum(spec(FamilyKind.CYCLE, 7)) is None
    assert closed_form_spectrum(spec(FamilyKind.PATH, 6)) is None
    assert closed_form_spectrum(spec(FamilyKind.PATH, 7)) is None


def test_closed_form_expansion_equals_charpoly():
    # every supported family up to order 30
    cases = (
        [spec(FamilyKind.COMPLETE, n) for n in range(1, 31)]
        + [spec(FamilyKind.EMPTY, n) for n in (1, 4, 9, 30)]
        + [spec(FamilyKind.STAR, n) for n in range(1, 30)]
        + [spec(FamilyKind.COMPLETE_BIPARTITE, m, n)
           for m in range(1, 16) for n in range(m, 31 - m)]
        + [spec(FamilyKind.PYRAMID, n, k) for n in range(2, 31) for k in range(1, n)]
        + [spec(FamilyKind.CYCLE, n) for n in (4, 5, 6, 8, 10, 12)]
        + [spec(FamilyKind.PATH, n) for n in (2, 3, 4, 5)]
    )
    for s in cases:
        cf = closed_form_spectrum(s)
        assert cf is not None, s
        assert cf.order == make_family(s).order
        assert cf.expand() == charpoly(make_family(s)).coeffs, s


def test_closed_form_multiset_invariants():
    cf = closed_form_spectrum(spec(FamilyKind.PYRAMID, 9, 4))
    assert cf.order == 9
    values = cf.values_float()
    assert values == sorted(values)
    assert abs(sum(values)) < 1e-9  # trace zero


def test_expand_requires_conjugate_pairs():
    lone = ClosedFormSpectrum.build([(QuadraticSurd(0, 1, 2, 1), 1), (Fraction(0), 1)])
    with pytest.raises(ParameterError):
        lone.expand()


def test_expand_requires_integer_factors():
    # (x - 1/2)^2 and the conjugate pair (1 +- sqrt(2))/2, of norm -1/4
    for pairs in ([(Fraction(1, 2), 2)],
                  [(QuadraticSurd(1, 1, 2, 2), 1), (QuadraticSurd(1, -1, 2, 2), 1)]):
        with pytest.raises(ParameterError):
            ClosedFormSpectrum.build(pairs).expand()


def test_closed_form_serialization():
    cf = closed_form_spectrum(spec(FamilyKind.PYRAMID, 6, 3))
    payload = cf.to_json()
    kinds = [item["kind"] for item in payload]
    assert kinds == ["quadratic-surd", "rational", "rational", "quadratic-surd"]
    assert payload[1]["multiplicity"] == 2
    assert abs(payload[-1]["approx"] - (1 + 10 ** 0.5)) < 1e-12
