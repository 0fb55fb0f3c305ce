import copy
import json
import pickle
from fractions import Fraction

import pytest

from superqsym.algebra import (
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
    tensor,
    tensor_from_json,
    tensor_to_json,
    unit,
)
from superqsym.composition import (
    EMPTY,
    comp,
    compositions_of,
    strong_refinements,
    universe,
    weak_leq,
)
from superqsym.hopf import product_M
from superqsym.realize import SuperPolynomial, realize_L
from superqsym.shuffles import fundamental_paths, word
from superqsym.superschur import EMPTY_SHAPE, Superpartition, dot_standard_tableaux


def M(*parts):
    return Expr.basis_element("M", comp(*parts))


def L(*parts):
    return Expr.basis_element("L", comp(*parts))


# one value of each immutable type, built lazily so collection stays cheap
VALUES = {
    "DottedComposition": lambda: comp(1, "d2"),
    "DottedPermutation": lambda: word(3, "d1"),
    "Expr": lambda: M(2, "d0").scale(Fraction(1, 2)) + M(1),
    "TensorExpr": lambda: tensor(L(1), L("d2")),
    "SuperPolynomial": lambda: realize_L(comp(1, "d1"), 2),
    "Superpartition": lambda: Superpartition((1,), (2,)),
    "STableau": lambda: dot_standard_tableaux(
        Superpartition((1,), (2,)), EMPTY_SHAPE
    )[0],
    "PathResult": lambda: fundamental_paths(comp(1), comp("d1"))[0],
}


class TestExprArithmetic:
    def test_add_merges(self):
        assert (M(2) + M(2)).coefficient(comp(2)) == 2

    def test_scale_zero_gives_empty(self):
        assert L("d1").scale(0).is_zero()

    def test_cancellation(self):
        assert (M(1, 1) + M(1, 1).scale(-1)).is_zero()

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            M(1) + L(1)

    def test_rational_coefficients_stay_exact(self):
        e = M(1).scale(Fraction(1, 3)) + M(1).scale(Fraction(1, 6))
        assert e.coefficient(comp(1)) == Fraction(1, 2)

    def test_support_sorted(self):
        e = M(2) + M(1, 1) + M("d1", 1)
        assert e.support() == sorted(e.terms, key=lambda a: a.sort_key())
        # equal values dotted and not, and prefixes of longer keys
        e = Expr("L", {alpha: 1 for alpha in universe(5, 2)})
        assert e.support() == sorted(e.terms, key=lambda a: a.sort_key())
        s = Expr("L", {alpha: 1 for alpha in universe(3, 2)})
        t = tensor(s, s)
        assert t.support() == sorted(
            t.terms, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key())
        )

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_a_coefficient_that_is_not_finite_is_refused(self, bad):
        with pytest.raises(ValueError):
            Expr("L", {comp(1): bad})
        with pytest.raises(ValueError):
            L(1).scale(bad)

    @pytest.mark.parametrize("bad", [True, False, "1/2", " 3 "])
    def test_a_coefficient_that_is_a_bool_or_text_is_refused(self, bad):
        """A coefficient is a number: True is not read as 1, nor "1/2" parsed."""
        with pytest.raises(TypeError):
            Expr("L", {comp(1): bad})
        with pytest.raises(TypeError):
            Expr.basis_element("L", comp(1), bad)
        with pytest.raises(TypeError):
            TensorExpr(("L", "M"), {(comp(1), comp(2)): bad})
        with pytest.raises(TypeError):
            SuperPolynomial(1, {((), ((1, 1),)): bad})
        with pytest.raises(TypeError):
            L(1).scale(bad)

    def test_coefficient_reads_its_key_as_the_constructor_does(self):
        e = Expr("L", {(1,): 1, (2, "d1"): 3})
        assert e.coefficient((1,)) == 1
        assert e.coefficient([2, "d1"]) == 3
        assert e.coefficient(comp(2)) == 0


class TestConversions:
    def test_L_to_M_figure_one_posets(self):
        # the full down-set of (2,d2,3) has 2 * 4 = 8 elements
        e = L_to_M(L(2, "d2", 3))
        assert len(e.terms) == 8
        assert set(e.terms) == set(strong_refinements(comp(2, "d2", 3)))
        assert all(c == 1 for c in e.terms.values())

    def test_L_to_M_trivials(self):
        assert L_to_M(L("d1")) == M("d1")
        assert L_to_M(L(2)) == M(2) + M(1, 1)

    def test_L_to_M_unit_coefficients(self):
        from superqsym.composition import universe

        for alpha in universe(4):
            e = L_to_M(Expr.basis_element("L", alpha))
            assert set(e.terms.values()) <= {Fraction(1)}
            assert len(e.terms) == len(strong_refinements(alpha))

    def test_M_to_L_examples(self):
        assert M_to_L(M(2)) == L(2) - L(1, 1)
        assert M_to_L(M("d1")) == L("d1")

    def test_round_trip_single(self):
        e = L(2, "d3", 2, 2)
        assert M_to_L(L_to_M(e)) == e

    def test_round_trip_exhaustive(self):
        # spec gate for the Moebius sign rule: n + m <= 6
        for alpha in universe(6):
            le = Expr.basis_element("L", alpha)
            me = Expr.basis_element("M", alpha)
            assert M_to_L(L_to_M(le)) == le
            assert L_to_M(M_to_L(me)) == me

    def test_cofundamental_examples(self):
        # (d0,1) and (1,d0) weakly refine (d1): merging d0 with 1 is a cover
        assert cofundamental_to_M(comp("d1")) == M("d1") + M("d0", 1) + M(1, "d0")
        assert cofundamental_to_M(comp(2)) == M(2) + M(1, 1)
        e = cofundamental_to_M(comp("d2"))
        expected = {b for b in compositions_of(2, 1) if weak_leq(b, comp("d2"))}
        assert set(e.terms) == expected
        assert len(e.terms) == 8

    def test_cofundamental_matches_L_when_dot_free(self):
        for n in range(5):
            for alpha in compositions_of(n, 0):
                assert cofundamental_to_M(alpha) == L_to_M(
                    Expr.basis_element("L", alpha)
                )

    def test_wrong_basis_rejected(self):
        with pytest.raises(BasisMismatchError):
            L_to_M(M(1))
        with pytest.raises(BasisMismatchError):
            M_to_L(L(1))
        with pytest.raises(BasisMismatchError):
            cofundamental_to_M(L(1))


class TestCounitUnit:
    def test_counit_picks_empty(self):
        e = Expr("M", {EMPTY: 1, comp(2): 3})
        assert counit(e) == 1
        assert counit(L("d1", 2)) == 0
        assert counit(unit("L")) == 1

    def test_unit_is_empty_composition(self):
        assert unit("M") == Expr.basis_element("M", EMPTY)


class TestTensor:
    def test_koszul_identity(self):
        t = tensor(M("d1"), M(2))
        one = tensor(unit("M"), unit("M"))
        assert koszul_mul(one, t, product_M) == t
        assert koszul_mul(t, one, product_M) == t

    def test_koszul_no_crossing_sign(self):
        t = tensor(M("d1"), unit("M"))
        # m of the crossing pair is 0 on both sides: plain product, which is 0
        assert koszul_mul(t, t, product_M) == tensor(
            product_M(M("d1"), M("d1")), unit("M")
        )
        assert koszul_mul(t, t, product_M).is_zero()

    def test_koszul_single_crossing(self):
        t1 = tensor(unit("M"), M("d1"))
        t2 = tensor(M("d1"), unit("M"))
        assert koszul_mul(t1, t2, product_M) == tensor(M("d1"), M("d1")).scale(-1)

    def test_tensor_mismatch(self):
        t1 = tensor(M(1), M(1))
        t2 = tensor(L(1), L(1))
        with pytest.raises(BasisMismatchError):
            koszul_mul(t1, t2, product_M)

    @pytest.mark.parametrize("key", [(comp(1),), (comp(1), comp(1), comp(1))])
    def test_a_key_that_is_not_a_pair_is_refused(self, key):
        with pytest.raises(ValueError):
            TensorExpr(("L", "L"), {key: 1})

    def test_raw_tuple_keys_are_read_as_compositions(self):
        t = TensorExpr(("M", "M"), {((1,), (2,)): 1})
        assert t == tensor(M(1), M(2))
        assert render_expr(t) == "M[1] @ M[2]"
        assert t.coefficient((1,), (2,)) == 1


class TestSerialization:
    def test_expr_json_round_trip(self):
        e = M(2, "d0").scale(Fraction(-7, 3)) + M(1, 1)
        data = expr_to_json(e)
        assert data["basis"] == "M"
        assert all(isinstance(t["num"], str) for t in data["terms"])
        assert expr_from_json(json.loads(json.dumps(data))) == e

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_pickle_and_deepcopy_round_trip(self, name):
        x = VALUES[name]()
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x)
            assert y == x

    def test_tensor_json_round_trip(self):
        t = tensor(L(1), L("d2")) - tensor(L("d2"), L(1))
        assert tensor_from_json(json.loads(json.dumps(tensor_to_json(t)))) == t

    def test_a_zero_denominator_is_refused(self):
        zero = {"num": "1", "den": "0"}
        with pytest.raises(ValueError):
            expr_from_json({"basis": "L", "terms": [{"comp": [], **zero}]})
        with pytest.raises(ValueError):
            tensor_from_json({"bases": ["L", "L"], "terms": [{"left": [], "right": [], **zero}]})

    def test_plain_rendering(self):
        assert render_expr(M(2) - M(1, 1)) == "-M[1,1] + M[2]"
        assert render_expr(Expr.zero("L")) == "0"

    def test_latex_rendering(self):
        assert render_expr(L("d1"), "latex") == "L_{(\\dot{1})}"
        e = M(2).scale(Fraction(1, 2))
        assert render_expr(e, "latex") == "\\frac{1}{2}M_{(2)}"
