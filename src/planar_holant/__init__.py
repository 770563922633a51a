"""Exact library for planar Holant problems over Q(zeta_8)."""

from .algebra import (
    AlgebraicNumber, AN, ZERO, ONE, I, ZETA, SQRT2,
    ParseError, DivisionByZero, parse_scalar, sqrt_in_field,
)
from .sigcalc import (
    ArityError, SymmetricSignature, GeneralSignature, Transform2x2,
    sig, equality, diseq2, exact_one, all_but_one, gen_eq, degenerate,
    sym_n_n1, identity2, diag, Z, H2, Z_INV,
    transform, row_transform, derivative, partial, integral,
    recurrence_analysis, vanishing_degrees, rotate4, signature_matrix,
    is_redundant, compress, det3, signature_matrix_ops, tensor_decompose,
)
from .grid import (
    StructureError, EmbeddingError, OrderError, TooLarge, NotBipartite,
    SingularTransform, Vertex, PlanarGrid, edge_cap, two_stretch,
    holographic_transform_bipartite, orthogonal_transform,
    grid_from_json, grid_to_json,
)
from .classify import (
    BadS, Witness, FamilyMemberships, SetVerdict,
    is_degenerate, in_P, in_A, in_Adagger, in_matchgate, in_Mhat,
    in_MhatDagger, in_ZP, in_ZM, in_M4_plus, in_M4_minus, in_M4, in_P2,
    in_vanishing_plus, in_vanishing_minus, in_R2, in_transformable_family,
    p_transformable, a_transformable, m_transformable, classify_signature,
    dichotomy_binary_eq, dichotomy_plcsp, dichotomy_plcsp2, dichotomy_single,
    dichotomy_plholant_set, hypergraph_verdict,
)
from .solvers import (
    ClassError, GcdError, PinSearchError,
    WeightedPlanarGraph, fkt_count_pm, weighted_graph_from_json,
    weighted_graph_to_json, product_eval, affine_eval, vanishing_eval,
    EOInstance, eo_geneq_eval, PlanarHypergraph, hypergraph_pm,
    hypergraph_from_json, hypergraph_to_json, evaluate,
)
