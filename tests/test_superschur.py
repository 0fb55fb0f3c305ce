import pytest

import classical_oracle as co
from superqsym.algebra import Expr, L_to_M
from superqsym.composition import comp, strong_leq
from superqsym.realize import SuperPolynomial, monomial, realize_expr
from superqsym.superschur import (
    EMPTY_SHAPE,
    IncompatibleShapeError,
    NotDotStandardError,
    Superpartition,
    SuperpartitionParseError,
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


def L(*parts):
    return Expr.basis_element("L", comp(*parts))


def sp(fermionic, bosonic):
    return Superpartition(fermionic, bosonic)


class TestSuperpartition:
    def test_diagram_conventions(self):
        lam = sp((3, 0), (5, 3, 2))
        assert lam.star() == (5, 3, 3, 2)
        # circled row of length 3 sits above the plain one
        assert lam.circle_row(3) == 2
        assert lam.circle_row(0) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            sp((2, 2), ())
        with pytest.raises(ValueError):
            sp((), (0,))
        with pytest.raises(ValueError):
            sp((-1,), ())

    def test_bools_and_fractions_are_not_parts(self):
        with pytest.raises(ValueError):
            sp((1.5,), (2.7,))
        with pytest.raises(ValueError):
            sp((), (2, 0.5))
        with pytest.raises(TypeError):
            sp((True,), ())
        with pytest.raises(TypeError):
            sp((), (True,))
        assert sp((3.0,), (2,)) == sp((3,), (2,))

    def test_parse_and_str(self):
        assert str(Superpartition.parse("(3,0;5,3,2)")) == "(3,0;5,3,2)"
        assert Superpartition.parse("(;)") == EMPTY_SHAPE
        assert Superpartition.parse("(0;)") == sp((0,), ())
        assert Superpartition.parse("(;2,2)") == sp((), (2, 2))
        with pytest.raises(SuperpartitionParseError):
            Superpartition.parse("(1,2)")
        with pytest.raises(SuperpartitionParseError):
            Superpartition.parse("(a;b)")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(1;2,x)", 5),
            ("(1,x;2)", 3),
            ("(;2,\u00b2)", 4),
            ("(1;2,)", 5),
            ("(1; 2 , x)", 8),
            ("  (1;x)", 5),
            ("(1,2)", 1),
            ("(1;2)x", 5),
            ("(1;2", 4),
            (" (1;2) x", 7),
        ],
    )
    def test_parse_error_points_at_the_bad_piece(self, text, position):
        with pytest.raises(SuperpartitionParseError) as exc:
            Superpartition.parse(text)
        assert exc.value.position == position

    @pytest.mark.parametrize("text", ["(\u0661;)", "(;\u0663)", "(;2,\u00b2)"])
    def test_parse_reads_ascii_digits_only(self, text):
        with pytest.raises(SuperpartitionParseError):
            Superpartition.parse(text)

    def test_enumeration(self):
        # one circle, degree 2: (2;), (1;1), (0;2), (0;1,1)
        assert len(superpartitions(2, 1)) == 4
        assert len(superpartitions(0, 0)) == 1


def _strip_conditions_bosonic(small, big, size):
    """Independent re-statement of the bosonic strip conditions."""
    rows = max(len(big.star()), len(small.star())) + 1
    b, s = big.star_padded(rows), small.star_padded(rows)
    if sum(b) - sum(s) != size:
        return False
    if any(bv < sv for bv, sv in zip(b, s)):
        return False
    if any(b[i + 1] > s[i] for i in range(rows - 1)):
        return False
    if big.n_circles != small.n_circles:
        return False
    cells_rows = {i + 1 for i in range(rows) if b[i] > s[i]}
    for sv, bv in zip(small.circles_from_below(), big.circles_from_below()):
        r = small.circle_row(sv)
        if r in cells_rows:
            if big.circle_row(bv) != r + 1:
                return False
        elif big.circle_row(bv) != r:
            return False
    return True


class TestStrips:
    def test_zero_strip_is_identity(self):
        for gamma in (EMPTY_SHAPE, sp((1,), (2,)), sp((), (3, 1))):
            assert bosonic_strips(gamma, 0) == (gamma,)

    def test_negative_size_is_rejected(self):
        gamma = sp((1,), (2,))
        with pytest.raises(ValueError, match="strip size"):
            bosonic_strips(gamma, -1)
        with pytest.raises(ValueError, match="strip size"):
            fermionic_strips(gamma, -2)

    def test_classical_pieri_case(self):
        assert set(bosonic_strips(sp((), (2,)), 1)) == {
            sp((), (3,)),
            sp((), (2, 1)),
        }

    def test_fermionic_smallest(self):
        assert fermionic_strips(EMPTY_SHAPE, 0) == ((sp((0,), ()), 1),)

    def test_fermionic_single_row(self):
        assert fermionic_strips(EMPTY_SHAPE, 2) == ((sp((2,), ()), 3),)

    def test_fermionic_adds_one_circle(self):
        for gamma in (EMPTY_SHAPE, sp((0,), (2,)), sp((), (1, 1))):
            for size in range(3):
                for target, _col in fermionic_strips(gamma, size):
                    assert target.n_circles == gamma.n_circles + 1

    def test_generate_matches_independent_checker(self):
        shapes = [s for d in range(4) for m in range(3) for s in superpartitions(d, m)]
        for gamma in shapes:
            for size in range(3):
                got = set(bosonic_strips(gamma, size))
                want = {
                    cand
                    for cand in superpartitions(gamma.degree + size, gamma.n_circles)
                    if _strip_conditions_bosonic(gamma, cand, size)
                }
                assert got == want, (gamma, size)

    def test_moved_circle_changes_value(self):
        # (2;4) plus one cell in row 2 pushes the circle to the empty row 3
        targets = bosonic_strips(sp((2,), (4,)), 1)
        assert sp((0,), (4, 3)) in targets

    def test_circle_at_origin_is_pushed_down(self):
        # the only bosonic 1-strip over (0;) puts the cell in the circle's
        # row, forcing the circle one row below
        assert bosonic_strips(sp((0,), ()), 1) == (sp((0,), (1,)),)

    def test_fermionic_generate_matches_independent_checker(self):
        def fermionic_ok(small, big, size, col):
            rows = max(len(big.star()), len(small.star())) + 1
            b, s = big.star_padded(rows), small.star_padded(rows)
            if sum(b) - sum(s) != size:
                return False
            if any(bv < sv for bv, sv in zip(b, s)):
                return False
            if any(b[i + 1] > s[i] for i in range(rows - 1)):
                return False
            if big.n_circles != small.n_circles + 1:
                return False
            cells = {
                (i + 1, c)
                for i in range(rows)
                for c in range(s[i] + 1, b[i] + 1)
            }
            cols = {c for _, c in cells}
            if col in cols or any(c not in cols for c in range(1, col)):
                return False
            if (col - 1) not in big.fermionic:
                return False
            rows_with_cells = {r for r, _ in cells}
            others = [v for v in big.circles_from_below() if v != col - 1]
            for sv, bv in zip(small.circles_from_below(), others):
                r = small.circle_row(sv)
                want = r + 1 if r in rows_with_cells else r
                if big.circle_row(bv) != want:
                    return False
            return True

        shapes = [s for d in range(4) for m in range(2) for s in superpartitions(d, m)]
        for gamma in shapes:
            for size in range(3):
                got = set(fermionic_strips(gamma, size))
                want = {
                    (cand, col)
                    for cand in superpartitions(
                        gamma.degree + size, gamma.n_circles + 1
                    )
                    for col in range(1, gamma.degree + size + 2)
                    if fermionic_ok(gamma, cand, size, col)
                }
                assert got == want, (gamma, size)


class TestChainExample:
    # the five-step tableau of the s-tableau construction example:
    # weight (2,1,d3,1,d2), shape (1,0;5,3)
    OUTER = sp((1, 0), (5, 3))
    WEIGHT = (2, 1, "d3", 1, "d2")
    CELLS = {
        (1, 1): 1,
        (1, 2): 1,
        (1, 3): 2,
        (1, 4): 3,
        (2, 1): 3,
        (2, 2): 3,
        (2, 3): 4,
        (1, 5): 5,
        (3, 1): 5,
    }

    def _tableau(self):
        tabs = enumerate_s_tableaux(self.OUTER, EMPTY_SHAPE, self.WEIGHT)
        matching = [t for t in tabs if t.cell_map() == self.CELLS]
        assert len(matching) == 1
        return matching[0]

    def test_chain_shapes(self):
        tab = self._tableau()
        assert tab.chain == (
            EMPTY_SHAPE,
            sp((), (2,)),
            sp((), (3,)),
            sp((2,), (4,)),
            sp((0,), (4, 3)),
            sp((1, 0), (5, 3)),
        )

    def test_circle_word_and_sign(self):
        tab = self._tableau()
        assert tab.circle_word() == (5, 3)
        assert tab.inv() == 1
        assert inv_sign(tab) == -1

    def test_standardize(self):
        tab = self._tableau()
        std = standardize(tab)
        assert std.is_dot_standard()
        assert std.outer == tab.outer and std.inner == tab.inner
        assert standardize(std) == std
        assert std.sign() == tab.sign()
        # the nonzero weight sequence strongly refines comp(std)
        gamma = comp(*(f"d{p.value}" if p.dotted else p.value for p in tab.weight))
        assert strong_leq(gamma, comp_of_tableau(std))


class TestCompOfTableau:
    def test_worked_example(self):
        outer = sp((1, 0), (4, 4, 1))
        weight = (1, 1, "d2", 1, 1, 1, 1, "d1", 1)
        cells = {
            (1, 1): 1,
            (1, 2): 2,
            (2, 1): 3,
            (2, 2): 3,
            (1, 3): 4,
            (3, 1): 5,
            (1, 4): 6,
            (2, 3): 7,
            (2, 4): 8,
            (4, 1): 9,
        }
        tabs = enumerate_s_tableaux(outer, EMPTY_SHAPE, weight)
        matching = [t for t in tabs if t.cell_map() == cells]
        assert len(matching) == 1
        tab = matching[0]
        assert comp_of_tableau(tab) == comp(2, "d2", 1, 2, 1, "d1", 1)
        assert tab.circle_word() == (3, 8)
        assert tab.sign() == 1

    def test_single_letters(self):
        t = enumerate_s_tableaux(sp((), (1,)), EMPTY_SHAPE, (1,))[0]
        assert comp_of_tableau(t) == comp(1)
        t = enumerate_s_tableaux(sp((1,), ()), EMPTY_SHAPE, ("d1",))[0]
        assert comp_of_tableau(t) == comp("d1")

    def test_rejects_non_dot_standard(self):
        tabs = enumerate_s_tableaux(sp((), (2,)), EMPTY_SHAPE, (2,))
        with pytest.raises(NotDotStandardError):
            comp_of_tableau(tabs[0])

    def test_zero_weight_tableau(self):
        tabs = enumerate_s_tableaux(sp((), (1,)), sp((), (1,)), (0, 0))
        assert len(tabs) == 1
        assert tabs[0].inv() == 0


class TestSchurToL:
    def test_example_6_3_tableau_count(self):
        assert len(dot_standard_tableaux(sp((1,), (2, 2)), EMPTY_SHAPE)) == 10

    def test_example_6_3(self):
        got = schur_to_L(sp((1,), (2, 2)))
        expected = (
            L("d1", 2, 2)
            + L("d1", 1, 2, 1)
            + L(1, "d1", 1, 2)
            + L(1, "d1", 2, 1)
            + L(2, "d1", 2)
            + L(1, 1, "d1", 1, 1)
            + L(2, 1, "d1", 1)
            + L(1, 2, "d1", 1)
            + L(2, 2, "d1")
            + L(1, 2, 1, "d1")
        )
        assert got == expected

    def test_identity_shape(self):
        lam = sp((1,), (2,))
        assert schur_to_L(lam, lam) == Expr.basis_element("L", comp())

    def test_classical_s2(self):
        assert schur_to_L(sp((), (2,))) == L(2)

    def test_classical_match(self):
        for n in range(1, 5):
            for lam in superpartitions(n, 0):
                got = schur_to_L(lam)
                want = co.schur_to_L(lam.bosonic)
                assert {
                    tuple(p.value for p in k.parts): v for k, v in got.terms.items()
                } == want, lam

    def test_classical_skew_match(self):
        cases = [((2, 2), (1,)), ((3, 1), (1,)), ((2, 1, 1), (1, 1))]
        for outer, inner in cases:
            got = schur_to_L(sp((), outer), sp((), inner))
            want = co.schur_to_L(outer, inner)
            assert {
                tuple(p.value for p in k.parts): v for k, v in got.terms.items()
            } == want

    def test_bidegrees(self):
        lam = sp((1, 0), (2,))
        e = schur_to_L(lam)
        assert e.bidegrees() == {(3, 2)}

    def test_incompatible_shape(self):
        with pytest.raises(IncompatibleShapeError):
            schur_to_L(sp((), (1,)), sp((), (2,)))

    def test_incompatible_shape_in_every_walker(self):
        outer, inner = sp((), (1,)), sp((), (2,))
        with pytest.raises(IncompatibleShapeError):
            enumerate_s_tableaux(outer, inner, [1])
        with pytest.raises(IncompatibleShapeError):
            dot_standard_tableaux(outer, inner)
        with pytest.raises(IncompatibleShapeError):
            realize_s(outer, inner, 2)

    def test_ascii_rendering(self):
        tabs = dot_standard_tableaux(sp((1,), (2, 2)), EMPTY_SHAPE)
        art = tabs[0].ascii()
        assert "(" in art and "[" in art

    def test_ascii_rendering_of_a_skew_tableau(self):
        # a cell of the inner shape is " . ", a circle of it "( )"
        tabs = dot_standard_tableaux(sp((1, 0), (2,)), sp((0,), (1,)))
        assert sorted(t.ascii() for t in tabs) == [
            " . [1]\n[2](2)\n( )",
            " . [2]\n[1](1)\n( )",
        ]


class TestRealizeS:
    def test_single_box(self):
        got = realize_s(sp((), (1,)), EMPTY_SHAPE, 2)
        want = {monomial((), {1: 1})[1]: 1, monomial((), {2: 1})[1]: 1}
        assert got == SuperPolynomial(2, want)

    def test_single_circle(self):
        got = realize_s(sp((0,), ()), EMPTY_SHAPE, 2)
        want = {monomial((1,), {})[1]: 1, monomial((2,), {})[1]: 1}
        assert got == SuperPolynomial(2, want)

    def test_negative_variable_count_is_rejected(self):
        with pytest.raises(ValueError, match="number of variables"):
            realize_s(sp((), (1,)), EMPTY_SHAPE, -1)

    def test_matches_fundamental_expansion(self):
        for m in range(3):
            for d in range(5 - m):
                for lam in superpartitions(d, m):
                    n = d + m
                    lhs = realize_s(lam, EMPTY_SHAPE, n)
                    rhs = realize_expr(L_to_M(schur_to_L(lam)), n)
                    assert lhs == rhs, lam
