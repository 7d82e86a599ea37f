"""Acceptance suite: one test per headline criterion, at its stated tolerance.

Each test prints a PASS/FAIL line so the run doubles as a reproduction log.
The same checks back the ``specgraph verify`` subcommand.
"""

import re

from specgraph import verify


def _run(check, name):
    result = check()
    print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}")
    assert result.passed, result.detail
    assert result.name == name
    # the table prints the details, so a time in one would make it differ run to run
    assert not re.search(r"\d+\.\d+s", result.detail), result.detail


def test_criterion_01_pyramid_charpoly_factorization():
    # all 1 <= k < n <= 30, integer equality, under 5 seconds
    _run(verify.check_pyramid_charpoly_factorization, "pyramid-charpoly-factorization")


def test_criterion_02_book_graph_spectrum():
    # numeric eigenvalues match {(1 +- sqrt(8n-15))/2, -1, 0^(n-3)} within 1e-8
    _run(verify.check_book_graph_spectrum, "book-graph-spectrum")


def test_criterion_03_star_cospectral_mates():
    # composite n <= 30: exact mate charpoly; prime n <= 7: exhaustive DS
    _run(verify.check_star_cospectral_mates, "star-cospectral-mates")


def test_criterion_04_order5_census():
    # exactly one nontrivial cospectral class at order 5, none below, under 1s
    _run(verify.check_order5_census, "order-5-census")


def test_criterion_05_nu_smallest_order():
    # no non-CP non-DS graph up to order 6; a certified witness at order 7
    _run(verify.check_nu_boundary, "nu-smallest-order")


def test_criterion_06_pyramid_ds():
    # every pyramid with 2 <= k < n <= 7 is DS by exhaustive search
    _run(verify.check_pyramid_ds, "pyramid-ds")


def test_criterion_07_octahedral_regressions():
    # the two printed 6-vertex matrices reproduce their spectra
    _run(verify.check_octahedral_regressions, "octahedral-regressions")


def test_criterion_08_cp_classification():
    # small orders, bipartite graphs, chorded cycles, pyramids, cross-checks
    _run(verify.check_cp_classification, "cp-classification")


def test_criterion_09_spectral_accounting():
    # edge/triangle counts from the charpoly equal direct counts, order <= 6
    _run(verify.check_spectral_accounting, "spectral-accounting")


def test_criterion_10_property_suites():
    # 500 Schur + 200 interlacing + 100 union trials + class consequences
    _run(verify.check_property_suites, "property-suites")


def test_criterion_11_enumeration_counts():
    # 1, 2, 4, 11, 34, 156, 1044 against the orbit-counting oracle
    _run(verify.check_enumeration_counts, "enumeration-counts")
