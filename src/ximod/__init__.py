"""Exact module decompositions over K[x] and generalized tensor products.

The package computes, over the rationals, the gaussian rationals, and
prime fields: Smith normal forms of polynomial matrices, invariant-factor
and elementary-divisor decompositions of operator-induced and finitely
presented modules, and the quotient-space family of tensor products in
which polynomial coefficients move across the tensor sign through a pair
of operators.
"""

from .errors import (
    AlgebraError,
    BothZero,
    BudgetExceeded,
    ConstantPolynomial,
    DimensionMismatch,
    DivisionByZero,
    ExpressionSyntaxError,
    FactorizationIncomplete,
    InconsistentAction,
    InputValidationError,
    NonSquare,
    NoSolution,
    NotMonic,
    SelfCheckFailed,
    TagMismatch,
    UnknownDemo,
    WrongKind,
    ZeroPolynomial,
    ZeroVector,
)
from .factor import exact_square_root, factor_irreducible, squarefree_decomposition
from .fields import (
    QI,
    QQ,
    Field,
    GaussianRationals,
    PrimeField,
    Rationals,
    Scalar,
    field_arithmetic,
    parse_scalar_text,
)
from .matrix import (
    EchelonResult,
    Matrix,
    companion_matrix,
    kernel_basis,
    kronecker,
    poly_eval_operator,
    rank,
    rref,
    solve_linear,
    sylvester_operator,
    unit_vector,
    vec_add,
    vec_sub,
)
from .modules import (
    ModuleDecomposition,
    OperatorModule,
    PresentedModule,
    PrimaryDecomposition,
    TorsionFlags,
    cyclic_witness,
    decompose_operator_module,
    decompose_presented_module,
    minimal_generator_count,
    module_action,
    operator_from_action,
    primary_decomposition,
    recombine_invariant_factors,
    torsion_info,
)
from .poly import Poly, poly_divmod, poly_gcd
from .polymatrix import PolyMatrix, SmithForm, charpoly, smith_normal_form
from .rewrite import (
    FormalPair,
    FormalSequence,
    OracleBudget,
    RuleSet,
    closure_oracle,
    concatenate,
    decide_equiv,
    format_sequence,
    linearize,
    parse_expression,
)
from .tensor import (
    BranchingKind,
    OperatorPairKind,
    QuotientClass,
    RelationSubspace,
    ScalarBranchingReport,
    SimplificationReport,
    StandardKind,
    SubringKind,
    TensorElement,
    apply_left,
    apply_right,
    induced_operator,
    induced_surjection,
    project_to_quotient,
    quotient_dim,
    relation_subspace,
    scalar_branching_report,
    schmidt_rank,
    simplification_report,
    tensor_coordinates,
)

__version__ = "0.1.0"
