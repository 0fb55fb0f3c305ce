"""The public names of `superqsym`: each listed name stays importable from
the package.  Removing one means editing this list and recording the removal
in CHANGES.md."""

import superqsym

PUBLIC_NAMES = [
    "BasisMismatchError", "Classification", "CompositionParseError", "DefSets",
    "DottedComposition", "DottedPart", "DottedPermutation", "EMPTY", "Expr",
    "FaithfulnessError", "GridPath", "HopfReport", "IncompatibleShapeError",
    "InconsistentDefSetsError", "L_to_M", "M_to_L", "NotAColumnError",
    "NotDotStandardError", "NotQuasisymmetricError", "STableau",
    "SuperPolynomial", "Superpartition", "TensorExpr", "antipode",
    "antipode_L", "antipode_L_column", "antipode_M", "bosonic_strips",
    "bullet", "classify", "clear_caches", "cofundamental_to_M",
    "column_decomposition", "comp", "comp_of_tableau", "comp_of_word",
    "compositions_of", "coproduct", "coproduct_L", "coproduct_M", "counit",
    "def_sets", "dot_standard_tableaux", "enumerate_s_tableaux",
    "expr_from_json", "expr_to_json", "extract_M", "fermionic_strips",
    "from_def_sets", "fundamental_paths", "fundamental_product", "inv_sign",
    "is_quasisymmetric", "koszul_mul", "near_concat", "near_concat_list",
    "odot", "overlapping_shuffles", "parse_composition", "path_word",
    "poly_mul", "product", "product_L", "product_M", "realize_L", "realize_M",
    "realize_M_defsets", "realize_expr", "realize_s", "render_expr",
    "render_poly", "render_tensor", "represent", "schur_to_L", "shift_indices",
    "standardize", "strong_leq", "strong_refinements", "superpartitions",
    "tensor", "unit", "universe", "verify_hopf", "weak_coarsenings",
    "weak_leq", "weak_refinements", "word",
]


def test_every_public_name_imports():
    assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES))
    missing = [name for name in PUBLIC_NAMES if not hasattr(superqsym, name)]
    assert missing == []
