from fractions import Fraction

import pytest

from superqsym.algebra import Expr, L_to_M
from superqsym.composition import comp, compositions_of, universe
from superqsym.realize import (
    FaithfulnessError,
    _realize_L,
    _realize_M,
    NotQuasisymmetricError,
    SuperPolynomial,
    extract_M,
    is_quasisymmetric,
    monomial,
    poly_mul,
    realize_expr,
    realize_L,
    realize_M,
    realize_M_defsets,
    render_poly,
    shift_indices,
)


def mono(theta, xpows):
    sign, key = monomial(theta, xpows)
    assert sign == 1
    return key


def theta_x(nvars, *terms):
    """Build a polynomial from (coeff, theta tuple, {idx: exp}) triples."""
    acc = {}
    for coeff, theta, xp in terms:
        sign, key = monomial(theta, xp)
        assert sign != 0
        acc[key] = acc.get(key, Fraction(0)) + coeff * sign
    return SuperPolynomial(nvars, acc)


class TestPolynomialRing:
    def test_theta_squares_to_zero(self):
        p = theta_x(2, (1, (1,), {1: 1}))
        assert poly_mul(p, p).is_zero()

    def test_anticommutation(self):
        p = theta_x(2, (1, (2,), {}))
        q = theta_x(2, (1, (1,), {}))
        assert poly_mul(p, q) == theta_x(2, (-1, (1, 2), {}))

    def test_x_commutes(self):
        p = theta_x(2, (1, (), {1: 1}))
        assert poly_mul(p, p) == theta_x(2, (1, (), {1: 2}))

    def test_construction_sign_normalization(self):
        sign, key = monomial((3, 1), {})
        assert sign == -1 and key == ((1, 3), ())
        sign, _ = monomial((1, 1), {})
        assert sign == 0

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            poly_mul(SuperPolynomial.one(2), SuperPolynomial.one(3))

    def test_render(self):
        p = theta_x(3, (1, (1,), {1: 3, 2: 1}))
        assert render_poly(p) == "theta[1]*x[1]^3*x[2]"
        assert render_poly(SuperPolynomial.zero(2)) == "0"


class TestRealizeM:
    def test_example_2_4_first(self):
        got = realize_M(comp("d3", 1, 2), 4)
        want = theta_x(
            4,
            (1, (1,), {1: 3, 2: 1, 3: 2}),
            (1, (1,), {1: 3, 2: 1, 4: 2}),
            (1, (1,), {1: 3, 3: 1, 4: 2}),
            (1, (2,), {2: 3, 3: 1, 4: 2}),
        )
        assert got == want

    def test_example_2_4_second(self):
        got = realize_M(comp(3, "d1", "d2"), 4)
        want = theta_x(
            4,
            (1, (2, 3), {1: 3, 2: 1, 3: 2}),
            (1, (2, 4), {1: 3, 2: 1, 4: 2}),
            (1, (3, 4), {1: 3, 3: 1, 4: 2}),
            (1, (3, 4), {2: 3, 3: 1, 4: 2}),
        )
        assert got == want

    def test_empty_composition(self):
        assert realize_M(comp(), 3) == SuperPolynomial.one(3)

    def test_too_few_variables(self):
        assert realize_M(comp(1, 1, 1), 2).is_zero()

    def test_negative_variable_count_is_rejected(self):
        alpha = comp(2, "d1")
        for realize in (realize_M, realize_L, realize_M_defsets):
            with pytest.raises(ValueError, match="number of variables"):
                realize(alpha, -1)
        for basis in ("M", "L", "Lbar"):
            with pytest.raises(ValueError, match="number of variables"):
                realize_expr(Expr.basis_element(basis, alpha), -3)
        assert realize_M(alpha, 0) == SuperPolynomial(0)

    @pytest.mark.parametrize(
        "nvars, error", [(True, TypeError), (2.5, ValueError), (float("nan"), ValueError)]
    )
    def test_non_integer_variable_count_is_rejected(self, nvars, error):
        alpha = comp(2, "d1")
        for realize in (realize_M, realize_L, realize_M_defsets):
            with pytest.raises(error, match="expected an integer"):
                realize(alpha, nvars)
        for basis in ("M", "L", "Lbar"):
            with pytest.raises(error, match="expected an integer"):
                realize_expr(Expr.basis_element(basis, alpha), nvars)

    def test_a_cached_count_does_not_admit_a_bool(self):
        # True == 1 and hash(True) == hash(1): a memo read before the check
        # would return the entry of 1 for True
        alpha = comp(1)
        for realize in (realize_M, realize_L):
            assert realize(alpha, 1) == SuperPolynomial(1, {((), ((1, 1),)): 1})
            with pytest.raises(TypeError, match="expected an integer, got True"):
                realize(alpha, True)

    def test_an_integral_count_is_read_as_an_int(self):
        alpha = comp(2, "d1")
        for realize in (realize_M, realize_L):
            poly = realize(alpha, 3.0)
            assert poly == realize(alpha, 3)
            assert type(poly.nvars) is int

    def test_a_count_and_its_float_share_one_memo_entry(self):
        alpha = comp(2, "d1")
        for realize, memo in ((realize_M, _realize_M), (realize_L, _realize_L)):
            memo.cache_clear()
            assert realize(alpha, 3) == realize(alpha, 3.0)
            assert memo.cache_info().currsize == 1
            with pytest.raises(TypeError, match="expected an integer, got True"):
                realize(alpha, True)
            assert memo.cache_info().currsize == 1

    def test_defsets_route_agrees(self):
        # spec bound: all alpha with n+m <= 5 in up to 6 variables
        for alpha in universe(5):
            for nvars in (3, 6):
                assert realize_M(alpha, nvars) == realize_M_defsets(
                    alpha, nvars
                ), (alpha, nvars)


class TestRealizeL:
    def test_single_dotted(self):
        assert realize_L(comp("d1"), 2) == theta_x(
            2, (1, (1,), {1: 1}), (1, (2,), {2: 1})
        )

    def test_classical_h_like(self):
        assert realize_L(comp(2), 2) == theta_x(
            2, (1, (), {1: 2}), (1, (), {1: 1, 2: 1}), (1, (), {2: 2})
        )

    def test_refinement_route_agrees_worked_example(self):
        alpha = comp(2, "d3", 1)
        for nvars in (3, 4, 5):
            via_m = realize_expr(
                L_to_M(Expr.basis_element("L", alpha)), nvars
            )
            assert realize_L(alpha, nvars) == via_m

    def test_refinement_route_agrees_exhaustive(self):
        for alpha in universe(4):
            direct = realize_L(alpha, 5)
            via_m = realize_expr(L_to_M(Expr.basis_element("L", alpha)), 5)
            assert direct == via_m, alpha

    def test_defsets_sums_match_independent_routes_past_the_gate(self):
        """Both D/E/F sums against routes that share none of their code, on
        every composition with n + m <= 7 and m <= 3 in 0..6 variables:
        realize_L against the plain index sum of its M expansion, and
        realize_M_defsets against the plain index sum of M."""
        for alpha in universe(7, 3):
            via_m = L_to_M(Expr.basis_element("L", alpha))
            for nvars in range(7):
                got = realize_L(alpha, nvars)
                assert got == realize_expr(via_m, nvars), (alpha, nvars)
                got = realize_M_defsets(alpha, nvars)
                assert got == realize_M(alpha, nvars), (alpha, nvars)

    def test_shift_indices(self):
        p = realize_L(comp("d1"), 2)
        q = shift_indices(p, 2, 4)
        assert q == theta_x(4, (1, (3,), {3: 1}), (1, (4,), {4: 1}))


class TestQuasisymmetry:
    def test_realizations_are_quasisymmetric(self):
        assert is_quasisymmetric(realize_M(comp("d3", 1, 2), 4))
        assert is_quasisymmetric(realize_L(comp(2, "d0"), 4))

    def test_lone_monomial_is_not(self):
        p = theta_x(2, (1, (1,), {1: 1}))
        assert not is_quasisymmetric(p)

    def test_mismatched_coefficients_are_not(self):
        p = theta_x(2, (1, (1,), {1: 1}), (2, (2,), {2: 1}))
        assert not is_quasisymmetric(p)

    def test_products_stay_quasisymmetric(self):
        for a in (comp("d1"), comp(2), comp(1, "d0")):
            for b in (comp(1), comp("d1")):
                n = (
                    a.total_degree
                    + a.fermionic_degree
                    + b.total_degree
                    + b.fermionic_degree
                )
                assert is_quasisymmetric(
                    poly_mul(realize_L(a, n), realize_L(b, n))
                )


class TestExtractM:
    def test_round_trip(self):
        for alpha in universe(4):
            e = extract_M(realize_M(alpha, 5))
            assert e == Expr.basis_element("M", alpha)

    def test_product_extraction_at_two_variables(self):
        p = poly_mul(realize_M(comp("d1"), 2), realize_M(comp("d2"), 2))
        got = extract_M(p)
        assert got == Expr("M", {comp("d1", "d2"): 1, comp("d2", "d1"): -1})
        # extraction reconstructs the input exactly over the same variables
        assert realize_expr(got, 2) == p

    def test_zero(self):
        assert extract_M(SuperPolynomial.zero(3)).is_zero()

    def test_not_quasisymmetric_error(self):
        with pytest.raises(NotQuasisymmetricError):
            extract_M(theta_x(2, (1, (1,), {1: 1})))

    def test_faithfulness_error(self):
        # bidegree (3,2) cannot be read off faithfully in two variables
        p = poly_mul(realize_M(comp("d1"), 2), realize_M(comp("d2"), 2))
        with pytest.raises(FaithfulnessError):
            extract_M(p, require_faithful=True)
        # at n+m variables the strict mode passes
        extract_M(
            poly_mul(realize_M(comp("d1"), 5), realize_M(comp("d2"), 5)),
            require_faithful=True,
        )

    def test_expr_round_trip_through_realization(self):
        e = Expr("M", {comp(1, 1): 2, comp("d0", 1): Fraction(1, 2)})
        assert extract_M(realize_expr(e, 4)) == e


class TestCentralOracle:
    def test_product_M_against_polynomials(self):
        from superqsym.hopf import product_M

        for a in (comp(1), comp("d1"), comp(2, "d0")):
            for b in (comp(1, 1), comp("d2")):
                n = (
                    a.total_degree
                    + a.fermionic_degree
                    + b.total_degree
                    + b.fermionic_degree
                )
                lhs = realize_expr(product_M(a, b), n)
                rhs = poly_mul(realize_M(a, n), realize_M(b, n))
                assert lhs == rhs, (a, b)
