"""Takeuchi's antipode formula (Takeuchi 1971) as a third, test-only route:

    S = sum_k (-1)^k m^(k-1) (id - u e)^(x k) Delta^(k-1)

On a basis element, (id - u e) kills exactly the empty composition, so the
k-th term sums the ordered products of the iterated coproduct's splits into
k nonempty pieces; the k = 0 term is u e, which is 1 on the empty composition
only.  It needs nothing but the product and the coproduct, so it is
independent of the weak-coarsening formula of antipode_M and of the column
algorithm of antipode_L."""

from collections import Counter

import pytest

import superqsym.hopf as hopf
from superqsym.algebra import Expr, unit
from superqsym.composition import EMPTY, universe
from superqsym.hopf import (
    antipode,
    antipode_L,
    antipode_M,
    coproduct_L,
    coproduct_M,
    product_L,
    product_M,
    verify_hopf,
)

OPS = {"M": (product_M, coproduct_M), "L": (product_L, coproduct_L)}


def _chains(alpha, coprod):
    """(pieces, coefficient) for every split of the basis element alpha into
    nonempty pieces by iterated coproducts: Delta^(k-1) = (id x Delta^(k-2))
    Delta, with the empty factors dropped."""
    yield [alpha], 1
    for (a, b), c in coprod(alpha).terms.items():
        if a != EMPTY and b != EMPTY:
            for rest, d in _chains(b, coprod):
                yield [a] + rest, c * d


def takeuchi_antipode(x, basis: str) -> Expr:
    """Takeuchi's S on a composition or an Expr in `basis`, extended linearly."""
    mul, coprod = OPS[basis]
    terms = x.terms if isinstance(x, Expr) else {x: 1}
    out = Expr.zero(basis)
    for alpha, c in terms.items():
        if alpha == EMPTY:
            out = out + unit(basis).scale(c)
            continue
        for pieces, d in _chains(alpha, coprod):
            acc = unit(basis)
            for piece in pieces:
                acc = mul(acc, piece)
            sign = -1 if len(pieces) % 2 else 1
            out = out + acc.scale(sign * c * d)
    return out


UNIVERSE = universe(4, 2)


def test_matches_antipode_M():
    for alpha in UNIVERSE:
        assert takeuchi_antipode(alpha, "M") == antipode_M(alpha), alpha


@pytest.mark.parametrize("via", ["columns", "monomial"])
def test_matches_antipode_L(via):
    for alpha in UNIVERSE:
        e = Expr.basis_element("L", alpha)
        assert takeuchi_antipode(alpha, "L") == antipode(e, via=via), alpha


def test_linear_extension():
    e = Expr("L", {UNIVERSE[3]: 2, UNIVERSE[7]: -1})
    assert takeuchi_antipode(e, "L") == antipode_L(e)


def test_axiom_suite_reads_it(monkeypatch):
    # verify_hopf reads the antipodes when it runs and memoizes them per
    # check: fed Takeuchi's route, it must report exactly as with the default,
    # asking for each L antipode once (only convolution_L reads it) and for
    # S(M[]) once in each of the three checks that read antipode_M
    expected = repr(verify_hopf(4, 2))
    asked = {"M": [], "L": []}

    def route(basis):
        def s(x):
            asked[basis].append(x)
            return takeuchi_antipode(x, basis)

        return s

    monkeypatch.setattr(hopf, "antipode_M", route("M"))
    monkeypatch.setattr(hopf, "antipode_L", route("L"))
    report = verify_hopf(4, 2)
    assert report.passed
    assert repr(report) == expected
    assert sorted(asked["L"]) == sorted(UNIVERSE)
    assert set(asked["M"]) == set(UNIVERSE)
    assert Counter(asked["M"])[EMPTY] == 3
    assert max(Counter(asked["M"]).values()) <= 3
