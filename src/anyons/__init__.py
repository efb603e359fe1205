"""Computational toolkit for anyonic topological quantum computation.

Submodules
----------
fusion            fusion rings, fusion trees, quantum dimensions, entropy
fsymbols          F/R symbol tables, pentagon/hexagon/unitarity residuals
braids            braid words and grammar, unitary representations, gate search
laurent           exact integer Laurent polynomials in quarter powers of t
knots             Kauffman brackets (Temperley-Lieb transfer) and Jones polynomials
trace_estimation  Hadamard-test simulation of normalised traces
pauli             qudit Pauli strings with exact phase bookkeeping
toric             toric-code stabilizer engine and interferometer protocol
stringnet         Levin-Wen Fibonacci vertex and face operators
cli               command-line interface over all of the above
"""

from .braids import (
    BraidRep,
    BraidWord,
    abelian_rep,
    compile_gate,
    evaluate,
    fib_qubit_rep,
    format_braid,
    parse_braid,
    projective_distance,
    relation_residual,
    tl_b3_matrices,
    tl_b3_rep,
)
from .errors import (
    AnyonError,
    BraidSyntaxError,
    CompletenessError,
    InputError,
    InvariantViolation,
    NumericError,
    ResourceError,
)
from .fsymbols import (
    FSymbolTable,
    RSymbolTable,
    f_unitarity_residual,
    fibonacci_data,
    gauge_transform,
    hexagon_residual,
    pentagon_residual,
    su2k_admissible,
    trivial_data,
)
from .fusion import (
    AnyonModel,
    composite_fermion_statistics,
    enumerate_fusion_trees,
    fibonacci_model,
    fuse,
    fusion_space_dim,
    named_model,
    quantum_dimensions,
    toric_model,
    total_dimension_entropy,
    zd_model,
)
from .knots import bracket_tl_b3, jones, kauffman_bracket
from .laurent import LaurentPoly
from .pauli import PauliString, commutation_phase
from .stringnet import face_operator, face_term_checks, vertex_projector
from .toric import (
    Syndrome,
    TorusLattice,
    braiding_table,
    build_stabilizers,
    correct,
    dyon_braiding_phase,
    extract_mutual_statistics,
    ground_space_dim,
    homology_class,
    honeycomb_effective_coupling,
    honeycomb_phase,
    interferometer_run,
    stabilizer_products_are_identity,
    stabilizers_commute,
    string_operator,
    syndrome,
)
from .trace_estimation import TraceEstimate, hadamard_test_trace

__version__ = "0.1.0"
