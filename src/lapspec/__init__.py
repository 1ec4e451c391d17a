"""Exact Laplacian spectral toolkit for dumbbell and theta graphs.

Everything is integer arithmetic end to end: characteristic polynomials via
a division-free algorithm or the family recurrences, spanning trees via
matrix-tree cofactors,
isomorphism via canonical graph6 forms, and verification suites that replay
the family's spectral-determination argument on exhaustively enumerated
small graphs.
"""

from .canonical import are_isomorphic, canonical_form
from .enumeration import (DEFAULT_CAP, EnumerationCapError, EnumerationTask,
                          enumerate_by_vertex_growth, enumerate_graphs,
                          random_connected_graph)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import (DumbbellParams, Graph, ThetaParams, classify_bicyclic,
                     connected_components, dumbbell_graph,
                     dumbbell_parameter_grid, is_connected, make_cycle,
                     make_dumbbell, make_path, make_theta, theta_graph,
                     theta_parameter_grid)
from .invariants import (InvalidCharpolyError, SpectralInvariants,
                         degree_constraint_solver, graph_invariants,
                         invariants_from_charpoly)
from .laplacian import (charpoly, charpoly_interpolated, det_bareiss, laplacian,
                        spanning_tree_count, trailing_charpolys, u_matrix,
                        verify_deletion_formula)
from .polynomials import IntPoly, substitute_y
from .recurrences import (dumbbell_charpoly_rec, dumbbell_value_at4,
                          path_charpoly_rec, path_value_at4, theta_charpoly_rec,
                          theta_value_at4, u_poly_rec, u_value_at2, u_value_at4)
from .reports import VerificationReport
from .termtables import (TermTable, audit_dumbbell_identity, audit_theta_identity,
                         dumbbell_table, dumbbell_table_lowest_term, identity_lhs,
                         theta_table, theta_table_lowest_term)
from .verify import (family_members, member_charpoly, verify_census,
                     verify_cospectral_structure, verify_deletion_suite,
                     verify_determination, verify_dumbbell_table,
                     verify_family_values, verify_generating_identity,
                     verify_invariants_suite, verify_recurrences,
                     verify_special_values, verify_theta_table,
                     verify_within_family)

__version__ = "0.1.0"
