"""Products and antipodes map the Schur functions in superspace into their
integer span: s_Λ · s_Ω and S(s_Λ) are integer combinations of the s_Γ.

The decomposition into the s basis lives here, not in the package.  Each
bidegree (degree, circles) is eliminated once, exactly over Fraction, and
reused: the elimination picks one pivot composition per s_Γ and the
combination of the s_Γ that is 1 at that pivot and 0 at the others.  The
coefficients of an element of the span are then read off its pivot
coefficients, and summing the s_Γ with them back must give the element
exactly, which is what puts it in the span."""

import functools
import math
from fractions import Fraction

from superqsym.algebra import Expr
from superqsym.hopf import antipode_L, product_L
from superqsym.superschur import EMPTY_SHAPE, Superpartition, schur_to_L, superpartitions


def shapes(top: int) -> list[Superpartition]:
    """Every superpartition of degree <= top."""
    return [lam for d in range(top + 1) for m in range(d + 2) for lam in superpartitions(d, m)]


s = functools.cache(schur_to_L)


@functools.cache
def s_basis(degree: int, circles: int) -> tuple[list, list, int]:
    """The s_Γ of one bidegree, a denominator D and, for each pivot
    composition p, D times the combination of them (index -> int) that is 1
    at p and 0 at every other pivot.  Asserts that the s_Γ are linearly
    independent in L."""
    gammas = superpartitions(degree, circles)
    done: list = []  # (pivot, vector, combination), reduced at every pivot
    for i, gamma in enumerate(gammas):
        vector = dict(s(gamma).terms)
        combination = {i: Fraction(1)}
        for pivot, row, row_combination in done:
            c = vector.get(pivot, 0)
            if c:
                _add(vector, row, -c)
                _add(combination, row_combination, -c)
        assert vector, f"s_{gamma} is a combination of the s_Γ before it"
        pivot, c = next(iter(vector.items()))
        vector = {key: Fraction(v) / c for key, v in vector.items()}
        combination = {j: v / c for j, v in combination.items()}
        for _, row, row_combination in done:
            d = row.get(pivot, 0)
            if d:
                _add(row, vector, -d)
                _add(row_combination, combination, -d)
        done.append((pivot, vector, combination))
    D = math.lcm(*(v.denominator for _, _, c in done for v in c.values()))
    pivots = [(p, {j: int(v * D) for j, v in c.items()}) for p, _, c in done]
    return gammas, pivots, D


def _add(into: dict, other: dict, c) -> None:
    """into += c * other, dropping the zeros."""
    for key, v in other.items():
        total = into.get(key, 0) + c * v
        if total:
            into[key] = total
        else:
            into.pop(key, None)


def in_s_basis(e: Expr, degree: int, circles: int) -> dict:
    """The integer coefficients of e, homogeneous of the given bidegree, on
    the s_Γ, by shape; asserts that e is an integer combination of them."""
    gammas, pivots, D = s_basis(degree, circles)
    coefficients: dict = {}
    for pivot, combination in pivots:
        c = e.terms.get(pivot)
        if c:
            _add(coefficients, combination, c)
    found, back = {}, {}
    for i, c in coefficients.items():
        c, r = divmod(c, D)
        assert r == 0, (gammas[i], c, r)
        found[gammas[i]] = c
        _add(back, s(gammas[i]).terms, c)
    assert Expr("L", back) == e
    return found


def conjugate(lam: Superpartition) -> Superpartition:
    parts = lam.bosonic
    return Superpartition((), [sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0)])


@functools.cache
def products() -> dict:
    """The s-basis coefficients of s_Λ · s_Ω over every pair of non-unit
    shapes of total degree <= 5."""
    nonunit = [lam for lam in shapes(5) if lam != EMPTY_SHAPE]
    return {
        (lam, om): in_s_basis(
            product_L(s(lam), s(om)),
            lam.degree + om.degree,
            lam.n_circles + om.n_circles,
        )
        for lam in nonunit
        for om in nonunit
        if lam.degree + om.degree <= 5
    }


def test_the_s_functions_of_each_bidegree_are_independent():
    count = 0
    for d in range(8):
        for m in range(d + 2):
            gammas, pivots, _ = s_basis(d, m)
            assert len(pivots) == len(gammas)
            count += len(gammas)
    assert count == len(shapes(7))


def test_products_lie_in_the_integer_span():
    coefficients = products()
    assert len(coefficients) == 961
    # no sign rule holds with circles: s_(0;) · s_(1;2) has both signs
    negative = [pair for pair, c in coefficients.items() if min(c.values(), default=0) < 0]
    assert len(negative) == 233
    assert all(lam.n_circles + om.n_circles for lam, om in negative)


def test_classical_products_have_non_negative_integer_coefficients():
    # the Littlewood-Richardson rule, on the 80 pairs of non-empty
    # partitions of total degree <= 6
    classical = [lam for lam in shapes(6) if lam.n_circles == 0 and lam != EMPTY_SHAPE]
    pairs = [(lam, om) for lam in classical for om in classical if lam.degree + om.degree <= 6]
    assert len(pairs) == 80
    for lam, om in pairs:
        e = product_L(s(lam), s(om))
        coefficients = in_s_basis(e, lam.degree + om.degree, 0)
        assert coefficients and min(coefficients.values()) > 0, (lam, om)


def test_antipodes_lie_in_the_integer_span():
    # without circles S(s_λ) = (-1)^|λ| s_λ', as in Sym; with circles it is
    # an integer combination, of several s_Γ on most shapes
    all_shapes = shapes(6)
    assert len(all_shapes) == 186
    several = 0
    for lam in all_shapes:
        coefficients = in_s_basis(antipode_L(s(lam)), lam.degree, lam.n_circles)
        if lam.n_circles == 0:
            assert coefficients == {conjugate(lam): (-1) ** lam.degree}, lam
        several += len(coefficients) > 1
    assert several == 129
