from fractions import Fraction

import pytest

import classical_oracle as co
import hopf_oracle
import superqsym.hopf as hopf
from superqsym.algebra import Expr, L_to_M, M_to_L, TensorExpr, bilinear, tensor, unit
from superqsym.composition import (
    EMPTY,
    _as_int,
    comp,
    compositions_of,
    compositions_with_total,
    is_column,
    universe,
)
from superqsym.hopf import (
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
from superqsym.realize import poly_mul, realize_expr, realize_L
from superqsym.superschur import Superpartition, superpartitions


def M(*parts):
    return Expr.basis_element("M", comp(*parts))


def L(*parts):
    return Expr.basis_element("L", comp(*parts))


def LB(*parts):
    return Expr.basis_element("Lbar", comp(*parts))


class TestProducts:
    def test_product_M_classical(self):
        assert product_M(comp(1), comp(1)) == M(1, 1).scale(2) + M(2)

    def test_product_M_signed(self):
        assert product_M(comp("d1"), comp("d2")) == M("d1", "d2") - M("d2", "d1")

    def test_product_M_unit(self):
        beta = comp(3, "d1", 2)
        assert product_M(EMPTY, beta) == Expr.basis_element("M", beta)

    def test_product_L_example_4_3(self):
        got = product_L(comp("d1", 2), comp("d2", 1))
        expected = (
            L("d1", 2, "d2", 1)
            + L("d1", 1, "d2", 2)
            + L("d1", 1, "d2", 1, 1)
            + L("d1", 1, "d3", 1)
            + L("d1", "d2", 3)
            + L("d1", "d2", 2, 1)
            + L("d1", "d2", 1, 2)
            + L("d1", "d3", 2)
            + L("d1", "d3", 1, 1)
            + L("d1", "d4", 1)
            - L("d2", "d1", 3)
            - L("d2", "d1", 2, 1)
            - L("d2", "d1", 1, 2)
            - L("d2", 1, "d1", 2)
            - L("d2", "d2", 2)
        )
        assert got == expected

    def test_product_L_classical(self):
        assert product_L(comp(1), comp(1)) == L(1, 1) + L(2)

    def test_product_L_unit(self):
        beta = comp("d0", 2)
        assert product_L(EMPTY, beta) == Expr.basis_element("L", beta)

    def test_nilpotent_fermionic_square(self):
        assert product_L(comp("d1"), comp("d1")).is_zero()
        assert product_M(comp("d1"), comp("d1")).is_zero()

    def test_product_dispatch(self):
        assert product(M(1), M(1)) == product_M(comp(1), comp(1))
        with pytest.raises(Exception):
            product(M(1), L(1))

    @pytest.mark.parametrize(
        "op, args, got",
        [
            pytest.param(product, (comp(1), M(1)), "DottedComposition", id="product"),
            pytest.param(product, (M(1), comp(1)), "DottedComposition", id="product-right"),
            pytest.param(coproduct, (comp(1),), "DottedComposition", id="coproduct"),
            pytest.param(coproduct, (tensor(M(1), M(1)),), "TensorExpr", id="coproduct-tensor"),
            pytest.param(antipode, (comp(1),), "DottedComposition", id="antipode"),
            pytest.param(bullet, (L(1), comp(1)), "DottedComposition", id="bullet"),
            pytest.param(odot, (comp(1), L(1)), "DottedComposition", id="odot"),
        ],
    )
    def test_dispatchers_reject_a_non_expr(self, op, args, got):
        # the dispatchers read the basis off an Expr; product_M and the other
        # per-basis functions are the ones that take a composition
        with pytest.raises(TypeError, match=f"expected Expr, got {got}"):
            op(*args)

    @pytest.mark.parametrize(
        "op, args, message",
        [
            pytest.param(product, (LB(1), LB(1)), "no product is defined", id="product"),
            pytest.param(coproduct, (LB(1),), "no coproduct is implemented", id="coproduct"),
            pytest.param(antipode, (LB(1),), "no antipode is implemented", id="antipode"),
            pytest.param(bullet, (M(1), L(1)), "cannot combine M with L", id="bullet-mixed"),
            pytest.param(bullet, (LB(1), LB(1)), "bullet is defined on", id="bullet-Lbar"),
            pytest.param(odot, (L(1), M(1)), "cannot combine L with M", id="odot-mixed"),
            pytest.param(odot, (LB(1), LB(1)), "odot is defined on", id="odot-Lbar"),
        ],
    )
    def test_dispatchers_refuse_what_they_do_not_define(self, op, args, message):
        # Lbar has no arithmetic, and two bases do not mix
        with pytest.raises(ValueError, match=message):
            op(*args)

    def test_bilinear_extension(self):
        e = M(1) + M("d0").scale(2)
        f = M(1)
        direct = product_M(e, f)
        expanded = product_M(comp(1), comp(1)) + product_M(
            comp("d0"), comp(1)
        ).scale(2)
        assert direct == expanded

    def test_product_L_of_basis_elements_wraps_the_kernel(self):
        # two basis elements take the kernel's pairs as they are; every other
        # operand goes through bilinear; both give the same terms, in the
        # same order, with int coefficients and no zero
        for a in universe(4, 2):
            for b in universe(3, 1):
                got = product_L(a, b)
                want = bilinear(hopf.fundamental_product, {a: 1}, {b: 1})
                assert list(got.terms.items()) == [(k, c) for k, c in want.items() if c]
                assert all(type(c) is int and c for c in got.terms.values())
        assert product_L(comp(1), comp(1)).terms is not product_L(comp(1), comp(1)).terms
        one = product_L(comp(1), comp(1))
        assert product_L(L(1) + L("d0").scale(2), L(1)) == one + product_L(
            comp("d0"), comp(1)
        ).scale(2)
        assert product_L(L(1).scale(Fraction(1, 2)), L(1).scale(-2)) == -one
        assert product_L(L(1).scale(Fraction(1, 2)), L(1)).terms == {
            comp(1, 1): Fraction(1, 2), comp(2): Fraction(1, 2)
        }
        assert product_L(L(1).scale(2), L(1)) == one.scale(2)

    def test_bidegree_preserved(self):
        e = product_L(comp("d1", 2), comp(1, "d0"))
        assert e.bidegrees() == {(4, 2)}

    def test_oracle_L_product(self):
        # supercommutativity holds at the polynomial level, not termwise
        pairs = [
            (comp("d1", 2), comp("d2", 1)),
            (comp("d0"), comp(1)),
            (comp(1, "d1"), comp("d0")),
        ]
        for a, b in pairs:
            n = (
                a.total_degree
                + a.fermionic_degree
                + b.total_degree
                + b.fermionic_degree
            )
            lhs = realize_expr(product_L(a, b), n)
            rhs = poly_mul(realize_L(a, n), realize_L(b, n))
            assert lhs == rhs


class TestCoproducts:
    def test_coproduct_M_example(self):
        alpha = comp("d2", 1, "d3", 4)
        t = coproduct_M(alpha)
        assert len(t.terms) == 5
        assert t.coefficient(comp("d2", 1), comp("d3", 4)) == 1
        assert t.coefficient(EMPTY, alpha) == 1
        assert t.coefficient(alpha, EMPTY) == 1

    def test_coproduct_M_trivials(self):
        assert coproduct_M(EMPTY) == tensor(unit("M"), unit("M"))
        t = coproduct_M(comp(4))
        assert len(t.terms) == 2

    def test_coproduct_L_classical(self):
        t = coproduct_L(comp(2))
        assert t == (
            tensor(unit("L"), L(2))
            + tensor(L(1), L(1))
            + tensor(L(2), unit("L"))
        )

    def test_coproduct_L_dotted_part_never_splits(self):
        # splitting inside a dotted part lands in E(alpha): empty summand
        t = coproduct_L(comp("d1"))
        assert t == tensor(unit("L"), L("d1")) + tensor(L("d1"), unit("L"))
        t2 = coproduct_L(comp("d2"))
        assert len(t2.terms) == 2

    def test_coproduct_L_mixed(self):
        t = coproduct_L(comp("d1", 2))
        assert t == (
            tensor(unit("L"), L("d1", 2))
            + tensor(L("d1"), L(2))
            + tensor(L("d1", 1), L(1))
            + tensor(L("d1", 2), unit("L"))
        )

    def test_counit_axiom_instance(self):
        alpha = comp(2, "d0", 1)
        t = coproduct_L(alpha)
        recovered = Expr.zero("L")
        for (a, b), c in t.terms.items():
            if b == EMPTY:
                recovered = recovered + Expr.basis_element("L", a).scale(c)
        assert recovered == Expr.basis_element("L", alpha)

    def test_matches_M_route(self):
        # Delta commutes with the change of basis
        for alpha in universe(4, 2):
            lhs = coproduct_L(alpha).map_slots(L_to_M, L_to_M, ("M", "M"))
            rhs = coproduct_M(L_to_M(Expr.basis_element("L", alpha)))
            assert lhs == rhs, alpha


class TestAntipodeM:
    def test_single_part(self):
        for n in (1, 2, 5):
            assert antipode_M(comp(n)) == M(n).scale(-1)

    def test_classical_pair(self):
        assert antipode_M(comp(1, 1)) == M(1, 1) + M(2)

    def test_two_dotted(self):
        assert antipode_M(comp("d1", "d2")) == M("d2", "d1").scale(-1)

    def test_empty(self):
        assert antipode_M(EMPTY) == unit("M")

    def test_convolution_instance(self):
        alpha = comp("d1", "d2")
        t = coproduct_M(alpha)
        acc = Expr.zero("M")
        for (a, b), c in t.terms.items():
            acc = acc + product_M(
                antipode_M(Expr.basis_element("M", a)),
                Expr.basis_element("M", b),
            ).scale(c)
        assert acc.is_zero()

    def test_routes_are_checked_on_both_bases(self):
        # the CLI passes via="columns" for M too; both names read the M formula
        m, l = M(1, 2), Expr.basis_element("L", comp(1, 2))
        assert antipode(m, via="columns") == antipode(m, via="monomial") == antipode_M(m)
        for e in (m, l):
            with pytest.raises(ValueError, match="unknown antipode route 'bogus'"):
                antipode(e, via="bogus")


class TestBulletOdot:
    def test_odot_zero_on_dotted_boundary(self):
        assert odot(M(2, "d1"), M("d0", 4)).is_zero()

    def test_bullet_L(self):
        assert bullet(L(1), L(3, 3, 1, 1)) == L(1, 3, 3, 1, 1)

    def test_odot_L_nondotted(self):
        got = odot(L(2), L(3))
        assert got == L(5) - L(2, 3)
        assert got == M_to_L(
            hopf._odot_M(L_to_M(L(2)), L_to_M(L(3)))
        )

    def test_odot_L_dotted_routes_through_M(self):
        got = odot(L(2, "d1"), L(1))
        want = M_to_L(hopf._odot_M(L_to_M(L(2, "d1")), L_to_M(L(1))))
        assert got == want

    def test_bullet_M(self):
        assert bullet(M(2), M("d0", 1)) == M(2, "d0", 1)

    def test_empty_factor_odot_is_zero(self):
        assert odot(unit("M"), M(2)).is_zero()
        assert odot(M(2), unit("M")).is_zero()


class TestAntipodeL:
    def test_column_example(self):
        got = antipode_L_column(comp(1, 1, "d5", 1, 1, 1))
        expected = (
            L(3, "d5", 2)
            + L(3, "d6", 1)
            + L(3, "d7")
            + L(2, "d6", 2)
            + L(2, "d7", 1)
            + L(2, "d8")
            + L(1, "d7", 2)
            + L(1, "d8", 1)
            + L(1, "d9")
            + L("d8", 2)
            + L("d9", 1)
            + L("d10")
        )
        assert got == expected

    def test_column_classical(self):
        assert antipode_L_column(comp(1, 1, 1)) == L(3).scale(-1)

    def test_column_single_dotted(self):
        assert antipode_L_column(comp("d1")) == L("d1").scale(-1)

    def test_not_a_column(self):
        with pytest.raises(NotAColumnError):
            antipode_L_column(comp(2))

    def test_known_formula_example(self):
        assert antipode_L(comp(3, 1, 2, 1, 2)) == L(1, 3, 3, 1, 1).scale(-1)

    def test_single_column_decomposition(self):
        alpha = comp(1, 1, "d5", 1, 1, 1)
        assert antipode_L(alpha) == antipode_L_column(alpha)

    def test_columns_generator_matches_the_filter(self):
        columns = [alpha for alpha in universe(9) if is_column(alpha)]
        assert EMPTY in columns
        for alpha in columns:
            assert antipode_L_column(alpha) == hopf_oracle.antipode_L_column(alpha), alpha

    def test_monomial_route_matches_the_composed_maps(self):
        for alpha in universe(7, 3):
            x = Expr.basis_element("L", alpha)
            assert antipode(x, via="monomial") == hopf_oracle.antipode_monomial(x), alpha
        x = L(2, 1) + L(1, 2).scale(3) - L("d1", 2, 1) + L(3, "d0")
        assert antipode(x, via="monomial") == hopf_oracle.antipode_monomial(x)

    def test_columns_route_matches_the_bullet_fold(self):
        for alpha in universe(8, 3):
            x = Expr.basis_element("L", alpha)
            assert antipode_L(x) == hopf_oracle.antipode_columns(x), alpha
        x = L(2, 1) + L(1, 2).scale(3) - L("d1", 2, 1) + L(3, "d0")
        assert antipode_L(x) == hopf_oracle.antipode_columns(x)

    def test_long_inputs_past_the_recursion_limit(self):
        # one term each: the filter and the composed maps hit the recursion
        # limit or list 2^1099 refinements; no two dots share a block, so
        # 1,100 d1 parts have one coarsening on either basis
        assert antipode(L(*[1] * 1100)) == L(1100)
        assert antipode(L(1100), via="monomial") == L(*[1] * 1100)
        dots = ["d1"] * 1100
        assert antipode(M(*dots)) == M(*dots)
        for via in ("columns", "monomial"):
            assert antipode(L(*dots), via=via) == L(*dots), via

    def test_cross_route(self):
        for gamma in universe(4):
            col = antipode_L(gamma)
            mon = M_to_L(antipode_M(L_to_M(Expr.basis_element("L", gamma))))
            assert col == mon, gamma

    def test_dispatch_via(self):
        e = L(2, "d1", 1)
        assert antipode(e, via="columns") == antipode(e, via="monomial")
        with pytest.raises(ValueError):
            antipode(e, via="nonsense")


# Broken versions of the operations the axiom suite reads.  Each stays
# linear, so the suite's verdict does not depend on whether it passes a basis
# element or a composition.


def _drop_empty_left(good):
    def broken(a):
        t = good(a)
        return TensorExpr(t.bases, {k: c for k, c in t.terms.items() if k[0] != EMPTY})

    return broken


def _drop_empty_right(good):
    # the mirror of _drop_empty_left that keeps ([], []): only the right
    # counit breaks
    def broken(a):
        t = good(a)
        return TensorExpr(
            t.bases, {k: c for k, c in t.terms.items() if k[1] != EMPTY or k[0] == EMPTY}
        )

    return broken


def _deconcatenation_only(good):
    def broken(a):
        terms = a.terms if isinstance(a, Expr) else {a: 1}
        return TensorExpr(("L", "L"), coproduct_M(Expr("M", terms)).terms)

    return broken


def _negate_odd_fermionic(good):
    # S preserves the bidegree, so this negates S on odd elements
    def broken(a):
        return Expr(
            "L",
            {k: -c if k.fermionic_degree % 2 else c for k, c in good(a).terms.items()},
        )

    return broken


def _negate_nonunit(good):
    def broken(a, b):
        return [(g, -s) for g, s in good(a, b)] if a and b else good(a, b)

    return broken


def _drop_last_nonunit(good):
    def broken(a, b):
        return tuple(good(a, b))[:-1] if a and b else good(a, b)

    return broken


def _negate_one_product(x, y):
    # negating M[1,d0]·M[1] breaks S * id at [d0,1,1], while id * S holds on
    # every item of verify_hopf(3, 1): only a check that needs both sides to
    # hold sees it
    def sabotage(good):
        def broken(a, b):
            return [(g, -s) for g, s in good(a, b)] if (a, b) == (x, y) else good(a, b)

        return broken

    return sabotage


def _drop_two_part_refinements(good):
    # L_to_M forgets every two-part M key that is not one of its L keys
    def broken(e):
        return Expr(
            "M", {k: c for k, c in good(e).terms.items() if len(k) != 2 or k in e.terms}
        )

    return broken


def _negate_dotted_start_L(good):
    # bullet negates the L terms that start with a dotted part
    def broken(a, b):
        r = good(a, b)
        if r.basis != "L":
            return r
        return Expr("L", {k: -c if k and k[0].dotted else c for k, c in r.terms.items()})

    return broken


def _no_dotted_fusion(good):
    # off the unit, a fusion that a dotted boundary part takes part in is
    # reported undefined
    def broken(a, b):
        return None if a and b and (a[-1].dotted or b[0].dotted) else good(a, b)

    return broken


def _drop_first_of_two(good):
    # a column with two maximal coarsenings loses the first
    def broken(column):
        found = good(column)
        return found[1:] if len(found) == 2 else found

    return broken


class TestVerifySuite:
    def test_small_universe_passes(self):
        # m <= 2 is the least universe where the bialgebra's Koszul sign and
        # the signs of S(a . b) and S(a (.) b) each decide a check
        for bounds in ((3, 1), (3, 2)):
            report = verify_hopf(*bounds)
            assert report.passed, bounds
        names = {c.name for c in report.checks}
        assert "convolution_M" in names and "bialgebra_L" in names

    def test_report_json_shape(self):
        report = verify_hopf(2, 1)
        data = report.to_json()
        assert set(data) == {"checks"}
        for c in data["checks"]:
            assert set(c) == {"name", "universe", "status", "counterexample"}
            assert c["status"] == "pass"

    def test_sabotage_is_detected(self, monkeypatch):
        good = hopf.antipode_M

        def broken(a):
            return good(a).scale(-1)

        monkeypatch.setattr(hopf, "antipode_M", broken)
        report = hopf.verify_hopf(2, 1)
        assert not report.passed
        failing = [c for c in report.checks if c.status == "fail"]
        assert any("convolution" in c.name for c in failing)
        assert all(c.counterexample for c in failing)

    @pytest.mark.parametrize(
        "op, sabotage, expected",
        [
            pytest.param(
                "coproduct_M", _drop_empty_left,
                [
                    ("counit_M", "[]"),
                    ("coassociativity_M", "[d0]"),
                    ("convolution_M", "[]"),
                    ("bialgebra_M", "([], [d0])"),
                ],
                id="coproduct_M",
            ),
            pytest.param(
                "coproduct_L", _drop_empty_right,
                [
                    ("counit_L", "[d0]"),
                    ("coassociativity_L", "[d0,1]"),
                    ("convolution_L", "[d0]"),
                    ("bialgebra_L", "([d0], [1])"),
                ],
                id="coproduct_L-right-counit",
            ),
            pytest.param(
                "coproduct_L", _deconcatenation_only,
                [("convolution_L", "[2]"), ("bialgebra_L", "([d0], [2])")],
                id="coproduct_L",
            ),
            pytest.param(
                "antipode_L", _negate_odd_fermionic,
                [("convolution_L", "[d0]")],
                id="antipode_L",
            ),
            pytest.param(
                "overlapping_shuffles", _negate_nonunit,
                [("convolution_M", "[d0,1]"), ("bialgebra_M", "([d0], [1])")],
                id="overlapping_shuffles",
            ),
            pytest.param(
                "overlapping_shuffles", _negate_one_product(comp(1, "d0"), comp(1)),
                [("convolution_M", "[d0,1,1]"), ("bialgebra_M", "([1,d0], [1])")],
                id="overlapping_shuffles-one-convolution-side",
            ),
            pytest.param(
                "fundamental_product", _drop_last_nonunit,
                [("convolution_L", "[d0,1]"), ("bialgebra_L", "([d0], [1,1])")],
                id="fundamental_product",
            ),
            pytest.param(
                "near_concat", _no_dotted_fusion,
                [("antipode_bullet_M", "([d0], [1])"), ("antipode_odot_M", "([1], [1,d0])")],
                id="near_concat",
            ),
            pytest.param(
                "L_to_M", _drop_two_part_refinements,
                [("bullet_L", "([d0], [2])"), ("odot_L", "([1], [2])")],
                id="L_to_M",
            ),
            pytest.param(
                "bullet", _negate_dotted_start_L,
                [("bullet_L", "([], [d0])"), ("odot_L", "([d0,1], [1])")],
                id="bullet",
            ),
            pytest.param(
                "_maximal_coarsenings", _drop_first_of_two,
                [("convolution_L", "[d0,1]")],
                id="_maximal_coarsenings",
            ),
        ],
    )
    def test_sabotaged_op_is_detected(self, monkeypatch, op, sabotage, expected):
        # pins which checks see the broken op and the first item each fails on
        monkeypatch.setattr(hopf, op, sabotage(getattr(hopf, op)))
        report = hopf.verify_hopf(3, 1)
        failing = [(c.name, c.counterexample) for c in report.checks if c.status == "fail"]
        assert failing == expected
        assert len(report.checks) == 12

    @pytest.mark.parametrize("fused_only", [False, True])
    def test_antipode_sides_leave_the_memo_as_it_was(self, fused_only):
        """`_same` deletes zeros in place, so each side must be the check's
        own dict: emptying both sides leaves every memoized antipode whole."""
        ids = hopf._Ids()
        anti = hopf._interned_ops(ids, hopf.overlapping_shuffles, coproduct_M, antipode_M)[2]
        pair = (ids[comp(2, 1)], ids[comp(1, "d0")])
        lhs, rhs = hopf._antipode_sides(pair, anti, ids, fused_only)
        memo = {i: dict(anti(i)) for i in range(len(ids.comps))}
        assert lhs
        lhs.clear()
        rhs.clear()
        assert {i: anti(i) for i in memo} == memo

    @pytest.mark.parametrize("bounds", [(-1, 1), (3, -1), (-2, -2)])
    def test_negative_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be >= 0"):
            verify_hopf(*bounds)

    @pytest.mark.parametrize(
        "bounds, error",
        [
            ((True, True), TypeError),
            ((3, False), TypeError),
            ((2.5, 1), ValueError),
            ((float("inf"), 1), ValueError),
            ((3, float("-inf")), ValueError),
            ((float("nan"), 1), ValueError),
            ((3, float("nan")), ValueError),
            ((-1, True), TypeError),
        ],
    )
    def test_non_integer_bounds_rejected(self, bounds, error):
        # read as dotted parts are: a bool is no count, 2.5 is not cut to 2,
        # and an infinity or a NaN, which int() cannot read, is no integer
        # either.  The enumerators read their bounds the same way
        for enumerate_up_to in (
            verify_hopf, compositions_of, compositions_with_total, universe, superpartitions
        ):
            with pytest.raises(error, match="expected an integer"):
                enumerate_up_to(*bounds)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _as_int(float("inf")),
            lambda: Superpartition((float("inf"),), ()),
            lambda: Superpartition((), (float("inf"),)),
            lambda: comp((float("inf"), True)),
        ],
        ids=["_as_int", "Superpartition-fermionic", "Superpartition-bosonic", "comp"],
    )
    def test_an_infinity_is_no_integer_anywhere(self, build):
        with pytest.raises(ValueError, match="expected an integer, got inf"):
            build()

    def test_integral_bounds_read_as_ints(self):
        assert repr(verify_hopf(3.0, 1.0)) == repr(verify_hopf(3, 1))
        for enumerate_up_to in (
            compositions_of, compositions_with_total, universe, superpartitions
        ):
            assert enumerate_up_to(3.0, 1.0) == enumerate_up_to(3, 1)

    def test_zero_bounds_check_the_unit(self):
        report = verify_hopf(0, 0)
        assert report.passed
        assert len(report.checks) == 12


class TestGrading:
    def test_operations_preserve_bidegree(self):
        for alpha in universe(3):
            na, ma = alpha.degrees()
            assert antipode_M(alpha).bidegrees() <= {(na, ma)}
            assert antipode_L(alpha).bidegrees() <= {(na, ma)}
            for (a, b) in coproduct_L(alpha).terms:
                assert (
                    a.total_degree + b.total_degree,
                    a.fermionic_degree + b.fermionic_degree,
                ) == (na, ma)
            for beta in universe(2):
                nb, mb = beta.degrees()
                prod = product_M(alpha, beta)
                assert prod.bidegrees() <= {(na + nb, ma + mb)}


class TestClassicalDegeneration:
    def test_antipode_matches_convolution_defined_classical(self):
        for n in range(5):
            for alpha in compositions_of(n, 0):
                got = antipode_M(alpha)
                want = co.antipode_M(tuple(p.value for p in alpha.parts))
                assert {
                    tuple(p.value for p in k.parts): v for k, v in got.terms.items()
                } == want

    def test_antipode_L_matches_classical(self):
        for n in range(5):
            for alpha in compositions_of(n, 0):
                got = antipode_L(alpha)
                want = co.antipode_L(tuple(p.value for p in alpha.parts))
                assert {
                    tuple(p.value for p in k.parts): v for k, v in got.terms.items()
                } == want
