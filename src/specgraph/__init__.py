"""Exact spectral graph theory at desk scale.

Spectra of small graphs computed exactly (division-free characteristic
polynomials, rational Schur complements, closed forms with quadratic surds),
determined-by-spectrum verification by isomorph-free exhaustive search, and
complete-positivity classification via long-odd-cycle detection.
"""

from .canonical import CanonicalForm, canonical_form, is_isomorphic
from .cp import (CpReason, CpVerdict, find_long_odd_cycle, is_bipartite, is_cp_graph,
                 line_graph_perfection_cross_check)
from .errors import (Graph6Error, NotGraphPolynomialError, OrderCapError,
                     ParameterError, SingularMatrixError, SpecGraphError)
from .exact import (ClosedFormSpectrum, QuadraticSurd, are_cospectral, characteristic_matrix,
                    charpoly, charpoly_pyramid_factored, closed_form_spectrum,
                    edges_and_triangles, make_surd, quadratic_roots)
from .graph6 import graph6_decode, graph6_encode, to_dot
from .graphs import (FamilyKind, FamilySpec, Graph, book_graph, complement,
                     complete_bipartite_graph, complete_graph, connected_components,
                     cycle_graph, disjoint_union, empty_graph, induced_subgraph,
                     is_connected, join, line_graph, make_family, path_graph,
                     pyramid_graph, relabel, star_graph)
from .numeric import (NumericSpectrum, count_geq, count_leq, eigenvalues,
                      match_closed_form, verify_interlacing)
from .polynomials import FactoredIntPolynomial, IntPolynomial
from .rational import RationalMatrix, schur_complement, verify_schur_identities
from .search import (DsVerdict, EnumerationReport, NuSearchResult, burnside_graph_count,
                     cospectral_classes, enumerate_graphs, is_ds,
                     smallest_non_cp_non_ds_order, star_cospectral_mate)

__version__ = "0.1.0"
