"""The coefficient rule (a stored coefficient is an int, or a Fraction whose
denominator is not 1), the rendering of non-integral coefficients in
expressions, tensors and polynomials, the
compact L-product memo against its path enumeration, and the memo bounds."""

import importlib
import json
import pkgutil
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import superqsym
from superqsym.algebra import (
    Expr,
    L_to_M,
    M_to_L,
    TensorExpr,
    counit,
    expr_from_json,
    expr_to_json,
    render_expr,
    render_tensor,
    tensor,
    tensor_from_json,
    tensor_to_json,
)
from superqsym.composition import comp, compositions_with_total, universe
from superqsym.hopf import coproduct, product, product_L
from superqsym.realize import SuperPolynomial, poly_mul, render_poly
from superqsym.shuffles import fundamental_paths, fundamental_product


def follows_rule(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_rule(x) -> None:
    bad = {k: v for k, v in x.terms.items() if not follows_rule(v) or not v}
    assert not bad, bad


COMPS = universe(4, 2)
scalars = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def exprs(draw, basis):
    keys = draw(st.lists(st.sampled_from(COMPS), max_size=4))
    return Expr(basis, {k: draw(scalars) for k in keys})


# canonical monomials (theta indices increasing, x exponents positive) in 2 variables
MONOS = [
    ((), ()),
    ((1,), ()),
    ((2,), ((1, 1),)),
    ((1, 2), ()),
    ((), ((1, 2), (2, 1))),
    ((1,), ((2, 3),)),
]


@st.composite
def polys(draw):
    keys = draw(st.lists(st.sampled_from(MONOS), max_size=4))
    return SuperPolynomial(2, {k: draw(scalars) for k in keys})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("M", "L")), st.data())
def test_every_operation_keeps_the_rule(basis, data):
    a = data.draw(exprs(basis))
    b = data.draw(exprs(basis))
    c = data.draw(scalars)
    results = [a, b, a + b, a - b, -a, a.scale(c), c * b, a.scale(c) + b.scale(c)]
    small = [e for e in (a, b) if all(sum(k.degrees()) <= 3 for k in e.terms)]
    if len(small) == 2:
        results.append(product(*small))
    results.append(L_to_M(a) if basis == "L" else M_to_L(a))
    results.append(expr_from_json(expr_to_json(a.scale(c))))
    for e in results:
        assert_rule(e)
    t = tensor(a, b).scale(c)
    for x in (t, t + t, t - t, coproduct(a), tensor_from_json(tensor_to_json(t))):
        assert_rule(x)
    assert follows_rule(counit(a))
    p = data.draw(polys())
    q = data.draw(polys())
    for x in (p, q, p + q, p - q, p.scale(c), poly_mul(p, q)):
        assert_rule(x)


def test_integral_fractions_are_stored_as_int():
    alpha = comp("d1", 2)
    one = Expr("L", {alpha: 1})
    assert Expr("L", {alpha: Fraction(1)}) == one
    assert hash(Expr("L", {alpha: Fraction(2, 2)})) == hash(one)
    assert type(Expr("L", {alpha: Fraction(4, 2)}).coefficient(alpha)) is int
    half = Expr("L", {alpha: Fraction(1, 2)})
    assert type((half + half).coefficient(alpha)) is int
    assert (half + half) == one
    assert type(half.scale(2).coefficient(alpha)) is int
    assert type(counit(Expr("M", {comp(): Fraction(3, 1)}))) is int
    assert Expr("L", {alpha: Fraction(1, 2)}).scale(0).is_zero()


# Rendered by the Fraction-only implementation; must not change by a byte.
E = Expr(
    "L",
    {
        comp("d1", 2): Fraction(1, 2),
        comp(3): -1,
        comp(1, "d0"): Fraction(-3, 2),
        comp(): 2,
    },
)
T = TensorExpr(
    ("M", "L"),
    {
        (comp("d1"), comp(2)): Fraction(1, 2),
        (comp(), comp(1, 1)): -1,
        (comp(2, "d3"), comp()): Fraction(-5, 4),
    },
)
# Rendered before SuperPolynomial shared the Expr core.
P = SuperPolynomial(
    3,
    {((1, 3), ((2, 1),)): Fraction(1, 2), ((), ((1, 2), (3, 1))): -2, ((), ()): 1},
)
GOLDEN = {
    ("poly", "plain"): "1 - 2*x[1]^2*x[3] + 1/2*theta[1]*theta[3]*x[2]",
    ("poly", "json"): (
        '[{"theta": [], "x": [], "num": "1", "den": "1"}, '
        '{"theta": [], "x": [[1, 2], [3, 1]], "num": "-2", "den": "1"}, '
        '{"theta": [1, 3], "x": [[2, 1]], "num": "1", "den": "2"}]'
    ),
    ("expr", "plain"): "2*L[] + 1/2*L[d1,2] - 3/2*L[1,d0] - L[3]",
    ("tensor", "plain"): "-M[] @ L[1,1] + 1/2*M[d1] @ L[2] - 5/4*M[2,d3] @ L[]",
    ("expr", "latex"): (
        "2*L_{()} + \\frac{1}{2}L_{(\\dot{1},2)} - \\frac{3}{2}L_{(1,\\dot{0})}"
        " - L_{(3)}"
    ),
    ("tensor", "latex"): (
        "-M_{()} \\otimes L_{(1,1)} + \\frac{1}{2}M_{(\\dot{1})} \\otimes L_{(2)}"
        " - \\frac{5}{4}M_{(2,\\dot{3})} \\otimes L_{()}"
    ),
    ("expr", "json"): (
        '{"basis": "L", "terms": [{"comp": [], "num": "2", "den": "1"}, '
        '{"comp": [{"v": 1, "dot": true}, {"v": 2, "dot": false}], "num": "1", "den": "2"}, '
        '{"comp": [{"v": 1, "dot": false}, {"v": 0, "dot": true}], "num": "-3", "den": "2"}, '
        '{"comp": [{"v": 3, "dot": false}], "num": "-1", "den": "1"}]}'
    ),
    ("tensor", "json"): (
        '{"bases": ["M", "L"], "terms": [{"left": [], "right": [{"v": 1, "dot": false}, '
        '{"v": 1, "dot": false}], "num": "-1", "den": "1"}, {"left": [{"v": 1, "dot": true}], '
        '"right": [{"v": 2, "dot": false}], "num": "1", "den": "2"}, {"left": [{"v": 2, '
        '"dot": false}, {"v": 3, "dot": true}], "right": [], "num": "-5", "den": "4"}]}'
    ),
}


def test_rendering_is_byte_identical():
    for fmt in ("plain", "latex", "json"):
        assert render_expr(E, fmt) == GOLDEN[("expr", fmt)]
        assert render_tensor(T, fmt) == GOLDEN[("tensor", fmt)]
    assert repr(E) == GOLDEN[("expr", "plain")]
    assert repr(T) == GOLDEN[("tensor", "plain")]
    assert render_poly(P) == repr(P) == GOLDEN[("poly", "plain")]
    assert json.dumps(P.to_json()) == GOLDEN[("poly", "json")]
    assert render_poly(SuperPolynomial.zero(3)) == "0"


def test_lbar_slot_of_a_tensor_renders_as_in_an_expr():
    t = TensorExpr(("Lbar", "L"), {(comp("d1"), comp(2)): 1})
    assert render_tensor(t, "latex") == "\\bar L_{(\\dot{1})} \\otimes L_{(2)}"
    assert render_tensor(t) == "Lbar[d1] @ L[2]"
    assert render_expr(Expr("Lbar", {comp("d1"): 1}), "latex") == "\\bar L_{(\\dot{1})}"


def test_compact_memo_matches_path_sums():
    by_total = {t: compositions_with_total(t) for t in range(7)}
    for ta in range(7):
        for tb in range(7 - ta):
            for a in by_total[ta]:
                for b in by_total[tb]:
                    signed = Counter()
                    for res in fundamental_paths(a, b):
                        signed[res.gamma] += res.sign
                    want = {g: c for g, c in signed.items() if c}
                    got = fundamental_product(a, b)
                    assert dict(got) == want, (a, b)
                    assert len(got) == len(want)
                    assert all(type(c) is int for _, c in got)


def package_memos() -> dict:
    """Every lru_cache any superqsym module defines."""
    found = {}
    for info in pkgutil.iter_modules(superqsym.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"superqsym.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_memos_are_bounded_and_cleared():
    memos = package_memos()
    assert memos
    assert set(memos.values()) == set(superqsym._MEMOS)
    pairs = [
        (a, b)
        for a in universe(5, 2)
        for b in universe(5, 2)
        if sum(a.degrees()) + sum(b.degrees()) <= 5
    ]
    for a, b in pairs:
        product_L(a, b)
        for name, memo in memos.items():
            info = memo.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize <= info.maxsize, name
    assert memos["shuffles.fundamental_product"].cache_info().currsize > 0
    superqsym.clear_caches()
    assert {name: m.cache_info().currsize for name, m in memos.items()} == dict.fromkeys(
        memos, 0
    )
