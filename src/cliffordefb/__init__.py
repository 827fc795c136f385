"""Exact-arithmetic Clifford algebra Cl(m,m) in the extended Fock basis.

Everything is computed over Q or Q(i) with no floating point: the basis-word
product with its derived signs, the faithful 2^m x 2^m matrix representation
used as an independent oracle, null vectors and totally null planes, spinor
spaces and annihilators, the intertwining inner product, multivector
expansions, and three mutually-checking spinor-simplicity tests, plus a
seeded verification harness and a JSON CLI.
"""

from .errors import (
    CliffordError,
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    MalformedInputError,
    NotTotallyNullError,
    OutOfRangeError,
    SingularTransformError,
    ZeroSpinorError,
)
from .scalars import FIELD_Q, FIELD_QI, QI, format_scalar, parse_scalar, star
from .linalg import Matrix
from .algebra import (
    Algebra,
    AlgebraElement,
    mask_to_sig,
    sig_to_mask,
    word_of_index,
)
from .matrixrep import GammaWord, RepContext
from .vectors import (
    TNPBasis,
    WittFrame,
    WittVector,
    anticommutator_form,
    classify,
    conj_element,
    conj_vector,
    C_element,
    C_inverse,
    embed,
    embed_gamma,
    gamma_vector,
    is_null,
    is_tnp,
    normalize_tnp,
    p_vector,
    q_vector,
    square,
    standard_frame,
)
from .spinors import (
    Spinor,
    SpinorSubspace,
    act,
    annihilated_subspace,
    annihilator,
    complete_tnp,
    generic_spinor_sample,
    spinor_space_switch,
    tnp_change_of_basis_scale,
    vector_act,
)
from .bilinear import (
    BForm,
    GammaExpansion,
    WittExpansion,
    WittWord,
    bilinear_form,
    expand_gamma,
    expand_witt,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
)
from .simplicity import (
    SimplicityReport,
    cartan_chevalley_test,
    constraint_count,
    evaluate_constraints,
    is_simple_direct,
    report,
    theorem2_m_constraints,
    theorem2_test,
)
from .harness import CheckResult, ledger_lines, run_suite

__version__ = "0.1.0"
