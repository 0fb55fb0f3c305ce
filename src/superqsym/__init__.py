"""Exact computations in the Hopf algebra of quasisymmetric functions in
superspace: dotted compositions, the monomial/fundamental/cofundamental
bases, their products, coproducts and antipodes, superspace Schur expansions,
and a brute-force polynomial oracle."""

from .composition import (
    EMPTY,
    Classification,
    CompositionParseError,
    DefSets,
    DottedComposition,
    DottedPart,
    InconsistentDefSetsError,
    _MEMOS,
    classify,
    column_decomposition,
    comp,
    compositions_of,
    def_sets,
    from_def_sets,
    near_concat,
    near_concat_list,
    parse_composition,
    strong_leq,
    strong_refinements,
    universe,
    weak_coarsenings,
    weak_leq,
    weak_refinements,
)
from .algebra import (
    BasisMismatchError,
    Expr,
    TensorExpr,
    L_to_M,
    M_to_L,
    cofundamental_to_M,
    counit,
    expr_from_json,
    expr_to_json,
    koszul_mul,
    render_expr,
    render_tensor,
    tensor,
    unit,
)
from .shuffles import (
    DottedPermutation,
    GridPath,
    comp_of_word,
    fundamental_paths,
    fundamental_product,
    overlapping_shuffles,
    path_word,
    represent,
    word,
)
from .hopf import (
    HopfReport,
    NotAColumnError,
    antipode,
    antipode_L,
    antipode_L_column,
    antipode_M,
    bullet,
    coproduct,
    coproduct_L,
    coproduct_M,
    odot,
    product,
    product_L,
    product_M,
    verify_hopf,
)
from .realize import (
    FaithfulnessError,
    NotQuasisymmetricError,
    SuperPolynomial,
    extract_M,
    is_quasisymmetric,
    poly_mul,
    realize_L,
    realize_M,
    realize_M_defsets,
    realize_expr,
    render_poly,
    shift_indices,
)
from .superschur import (
    IncompatibleShapeError,
    NotDotStandardError,
    STableau,
    Superpartition,
    bosonic_strips,
    comp_of_tableau,
    dot_standard_tableaux,
    enumerate_s_tableaux,
    fermionic_strips,
    inv_sign,
    realize_s,
    schur_to_L,
    standardize,
    superpartitions,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package.

    The memos are bounded by entry count, not by size, so a long-lived
    process that needs flat memory calls this between units of work.
    ``cli.main`` calls it when each command returns; library calls leave
    the memos filled."""
    for memo in _MEMOS:
        memo.cache_clear()
