"""Products, coproducts and antipodes on the M and L bases, the auxiliary
concatenation products, and the machine-checkable axiom suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from math import comb
from typing import Callable, Optional

from .algebra import (
    BasisMismatchError,
    Expr,
    TensorExpr,
    L_to_M,
    M_to_L,
    _as_expr,
    accumulate,
    bilinear,
    unit,
)
from .composition import (
    EMPTY,
    DottedComposition,
    DottedPart,
    _as_int,
    column_decomposition,
    is_column,
    is_maximal,
    near_concat,
    universe,
    weak_coarsenings,
)
from .shuffles import fundamental_product, overlapping_shuffles


class NotAColumnError(ValueError):
    pass


def _basis(x) -> str:
    """The basis of a dispatcher's operand, which must be an Expr."""
    if not isinstance(x, Expr):
        raise TypeError(f"expected Expr, got {type(x).__name__}")
    return x.basis


# ---------------------------------------------------------------------------
# products


def product_M(a, b) -> Expr:
    """Signed overlapping-shuffle product, extended bilinearly."""
    ea, eb = _as_expr(a, "M"), _as_expr(b, "M")
    return Expr._trusted("M", bilinear(overlapping_shuffles, ea.terms, eb.terms))


def product_L(a, b) -> Expr:
    """Signed fundamental-shuffle product; coinciding descent compositions
    from different paths accumulate."""
    ea, eb = _as_expr(a, "L"), _as_expr(b, "L")
    return Expr._trusted("L", bilinear(fundamental_product, ea.terms, eb.terms))


def product(a: Expr, b: Expr) -> Expr:
    basis, other = _basis(a), _basis(b)
    if basis != other:
        raise BasisMismatchError(f"cannot multiply {basis} by {other}")
    if basis == "M":
        return product_M(a, b)
    if basis == "L":
        return product_L(a, b)
    raise ValueError("no product is defined on the Lbar basis")


# ---------------------------------------------------------------------------
# coproducts


def _deconcatenations(alpha: DottedComposition, out: dict, c) -> None:
    of = DottedComposition._of
    for k in range(len(alpha) + 1):
        key = (of(alpha[:k]), of(alpha[k:]))
        out[key] = out.get(key, 0) + c


def coproduct_M(a) -> TensorExpr:
    """Deconcatenation coproduct."""
    e = _as_expr(a, "M")
    out: dict = {}
    for alpha, c in e.terms.items():
        _deconcatenations(alpha, out, c)
    return TensorExpr._trusted(("M", "M"), out)


def coproduct_L(a) -> TensorExpr:
    """Concatenation plus near-concatenation splits.

    Near-concatenation splits run over non-dotted parts only: splitting a
    dotted part would sit at a position in E(alpha), where the defining sum
    forces equal indices and the two-alphabet split is empty.
    """
    e = _as_expr(a, "L")
    of = DottedComposition._of
    out: dict = {}
    for alpha, c in e.terms.items():
        _deconcatenations(alpha, out, c)
        for h, p in enumerate(alpha):
            if p.dotted:
                continue
            for u in range(1, p.value):
                key = (
                    of(alpha[:h] + (DottedPart(u, False),)),
                    of((DottedPart(p.value - u, False),) + alpha[h + 1 :]),
                )
                out[key] = out.get(key, 0) + c
    return TensorExpr._trusted(("L", "L"), out)


def coproduct(a: Expr) -> TensorExpr:
    basis = _basis(a)
    if basis == "M":
        return coproduct_M(a)
    if basis == "L":
        return coproduct_L(a)
    raise ValueError("no coproduct is implemented on the Lbar basis")


# ---------------------------------------------------------------------------
# the auxiliary bilinear products


def _concat(alpha: DottedComposition, beta: DottedComposition):
    return ((alpha.concat(beta), 1),)


def _near_concat(alpha: DottedComposition, beta: DottedComposition):
    fused = near_concat(alpha, beta)
    return () if fused is None else ((fused, 1),)


def _odot_L(alpha: DottedComposition, beta: DottedComposition):
    """Eq. (5.4) when both boundary parts are non-dotted, else the M route."""
    if (
        alpha
        and beta
        and not alpha[-1].dotted
        and not beta[0].dotted
    ):
        return ((near_concat(alpha, beta), 1), (alpha.concat(beta), -1))
    return _odot_L_via_M(
        Expr.basis_element("L", alpha), Expr.basis_element("L", beta)
    ).terms.items()


def bullet(a: Expr, b: Expr) -> Expr:
    """Concatenation product on the M or L basis."""
    basis, other = _basis(a), _basis(b)
    if basis != other:
        raise BasisMismatchError(f"cannot combine {basis} with {other}")
    if basis not in ("M", "L"):
        raise ValueError("bullet is defined on the M and L bases only")
    return Expr._trusted(basis, bilinear(_concat, a.terms, b.terms))


def _odot_M(a: Expr, b: Expr) -> Expr:
    return Expr._trusted("M", bilinear(_near_concat, a.terms, b.terms))


def _odot_L_via_M(a: Expr, b: Expr) -> Expr:
    return M_to_L(_odot_M(L_to_M(a), L_to_M(b)))


def odot(a: Expr, b: Expr) -> Expr:
    """Near-concatenation product; zero when a fusion is undefined (two
    dotted boundary parts, or an empty factor)."""
    basis, other = _basis(a), _basis(b)
    if basis != other:
        raise BasisMismatchError(f"cannot combine {basis} with {other}")
    if basis == "M":
        return _odot_M(a, b)
    if basis != "L":
        raise ValueError("odot is defined on the M and L bases only")
    return Expr._trusted("L", bilinear(_odot_L, a.terms, b.terms))


# ---------------------------------------------------------------------------
# antipodes


def _antipode_sign(alpha: DottedComposition) -> int:
    """(-1)^(l(alpha) + C(m,2))."""
    return -1 if (alpha.length + comb(alpha.fermionic_degree, 2)) % 2 else 1


def antipode_M(a) -> Expr:
    """S(M_alpha) = (-1)^(l(alpha) + C(m,2)) sum of M over weak coarsenings
    of the reverse."""
    e = _as_expr(a, "M")
    out: dict = {}
    for alpha, c in e.terms.items():
        c *= _antipode_sign(alpha)
        for gamma in weak_coarsenings(alpha.reverse()):
            out[gamma] = out.get(gamma, 0) + c
    return Expr._trusted("M", out)


def antipode_L_column(alpha: DottedComposition) -> Expr:
    """Antipode of a column: signed sum of L over the maximal weak
    coarsenings of the reverse."""
    if not is_column(alpha):
        raise NotAColumnError(f"{alpha} is not a column")
    sign = _antipode_sign(alpha)
    return Expr._trusted(
        "L",
        {beta: sign for beta in weak_coarsenings(alpha.reverse()) if is_maximal(beta)},
    )


def antipode_L(a) -> Expr:
    """Column-decomposition antipode: S(L_gamma) factors through the columns
    in reverse order under the concatenation product."""
    e = _as_expr(a, "L")
    out: dict = {}
    for gamma, c in e.terms.items():
        columns = column_decomposition(gamma)
        ms = [col.fermionic_degree for col in columns]
        crossings = sum(
            ms[i] * ms[j] for i in range(len(ms)) for j in range(i + 1, len(ms))
        )
        acc = unit("L")
        for col in reversed(columns):
            acc = bullet(acc, antipode_L_column(col))
        accumulate(out, acc.terms, -c if crossings % 2 else c)
    return Expr._trusted("L", out)


def antipode(a: Expr, via: str = "columns") -> Expr:
    """S(a) on the M or L basis.  On L, `via` picks the column decomposition
    ("columns") or the M-basis formula ("monomial"); on M both name the
    M-basis formula."""
    if via not in ("columns", "monomial"):
        raise ValueError(f"unknown antipode route {via!r}")
    basis = _basis(a)
    if basis == "M":
        return antipode_M(a)
    if basis == "L":
        return antipode_L(a) if via == "columns" else M_to_L(antipode_M(L_to_M(a)))
    raise ValueError("no antipode is implemented on the Lbar basis")


# ---------------------------------------------------------------------------
# axiom suite


@dataclass
class CheckResult:
    name: str
    universe: str
    status: str
    counterexample: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "universe": self.universe,
            "status": self.status,
            "counterexample": self.counterexample,
        }


@dataclass
class HopfReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks]}

    def __repr__(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _same(x: dict, y: dict) -> bool:
    """x == y once zero coefficients are dropped.  The zeros are deleted in
    place, so both dicts must be the caller's own, never a memoized result."""
    for d in (x, y):
        if 0 in d.values():
            for k in [k for k, v in d.items() if not v]:
                del d[k]
    return x == y


def _triple(t: dict, coprod: Callable, left: bool) -> dict:
    """(Delta x id) or (id x Delta) applied to a tensor's terms; keys are
    triples, and cancelled terms stay as zeros for `_same` to drop."""
    out: dict = {}
    get = out.get
    for (a, b), c in t.items():
        if left:
            for (u, v), d in coprod(a).items():
                key = (u, v, b)
                out[key] = get(key, 0) + c * d
        else:
            for (u, v), d in coprod(b).items():
                key = (a, u, v)
                out[key] = get(key, 0) + c * d
    return out


def _convolution(alpha: DottedComposition, ops, left: bool) -> dict:
    """(S * id) or (id * S) of one basis element: S(a)·b or a·S(b) summed
    over the coproduct's splits (a, b), read straight from the product
    kernel's pairs; cancelled terms stay as zeros for `_same` to drop."""
    mul, coprod, anti = ops
    out: dict = {}
    get = out.get
    for (a, b), c in coprod(alpha).items():
        for s, cs in anti(a if left else b).items():
            cs *= c
            for key, v in mul(s, b) if left else mul(a, s):
                out[key] = get(key, 0) + cs * v
    return out


def _bialgebra_sides(pair, mul: Callable, coprod: Callable) -> tuple[dict, dict]:
    """Delta(ab) and Delta(a)Delta(b), with the Koszul sign, as terms with
    the zeros kept.  Each product's (key, coefficient) pairs are read as the
    kernel gives them: by linearity a repeated key needs no summing first."""
    a, b = pair
    lhs: dict = {}
    for gamma, v in mul(a, b):
        accumulate(lhs, coprod(gamma), v)
    rhs: dict = {}
    get = rhs.get
    b_splits = [
        (b1, b2, c2, b1.fermionic_degree % 2) for (b1, b2), c2 in coprod(b).items()
    ]
    for (a1, a2), c1 in coprod(a).items():
        a_odd = a2.fermionic_degree % 2
        for b1, b2, c2, b_odd in b_splits:
            c = -c1 * c2 if a_odd and b_odd else c1 * c2
            right = mul(a2, b2)
            for u, cu in mul(a1, b1):
                cu *= c
                for v, cv in right:
                    key = (u, v)
                    rhs[key] = get(key, 0) + cu * cv
    return lhs, rhs


def _bullet_sides(pair, anti: Callable) -> tuple[dict, dict]:
    """S(a . b) against (-1)^(m(a)m(b)) (S(b) . S(a) + S(b) (.) S(a)); the
    left side is a copy of the memoized antipode, the right keeps its zeros."""
    a, b = pair
    sign = -1 if (a.fermionic_degree * b.fermionic_degree) % 2 else 1
    sa, sb = anti(a), anti(b)
    rhs: dict = {}
    get = rhs.get
    for u, cu in sb.items():
        cu *= sign
        for v, cv in sa.items():
            c = cu * cv
            key = u.concat(v)
            rhs[key] = get(key, 0) + c
            key = near_concat(u, v)
            if key is not None:
                rhs[key] = get(key, 0) + c
    return dict(anti(a.concat(b))), rhs


def _odot_sides(pair, anti: Callable) -> tuple[dict, dict]:
    """S(a (.) b) against (-1)^(m(a)m(b)-1) S(b) (.) S(a); the left side is a
    copy of the memoized antipode, the right keeps its zeros."""
    a, b = pair
    fused = near_concat(a, b)
    lhs = {} if fused is None else dict(anti(fused))
    sign = -1 if (a.fermionic_degree * b.fermionic_degree - 1) % 2 else 1
    sb, sa = anti(b), anti(a)
    rhs: dict = {}
    get = rhs.get
    for u, cu in sb.items():
        cu *= sign
        for v, cv in sa.items():
            key = near_concat(u, v)
            if key is not None:
                rhs[key] = get(key, 0) + cu * cv
    return lhs, rhs


def verify_hopf(max_total: int, max_fermionic: int) -> HopfReport:
    """Machine-check the Hopf axioms and the concatenation-product theorems
    over every dotted composition with n+m <= max_total and m <= max_fermionic
    (pairs: combined bounds).  Failures are reported, not raised; a negative
    or non-integral bound raises ValueError, and a bool bound TypeError."""
    max_total, max_fermionic = _as_int(max_total), _as_int(max_fermionic)
    if max_total < 0 or max_fermionic < 0:
        raise ValueError(
            f"verify bounds must be >= 0, got max degree {max_total} "
            f"and max fermionic degree {max_fermionic}"
        )
    singles = universe(max_total, max_fermionic)
    singles_desc = f"n+m<={max_total}, m<={max_fermionic}"
    pairs_desc = f"combined {singles_desc}"
    sizes = [(a, sum(a.degrees()), a.fermionic_degree) for a in singles]
    pairs = [
        (a, b)
        for a, ta, ma in sizes
        for b, tb, mb in sizes
        if ta + tb <= max_total and ma + mb <= max_fermionic
    ]
    report = HopfReport()

    def memo(op: Callable) -> Callable:
        """op's terms per basis element, kept for the run."""
        return cache(lambda alpha: op(alpha).terms)

    # (product kernel, coproduct, antipode) of each basis, and the M image of
    # an L element, read when the suite runs, so a replaced module-level
    # function is the one checked; each check reads the memos the earlier
    # ones filled.  The kernels' own memos are bounded by entry count, and
    # from (7, 2) on the suite asks for more pairs than they keep
    ops = {
        "M": (cache(overlapping_shuffles), memo(coproduct_M), memo(antipode_M)),
        "L": (cache(fundamental_product), memo(coproduct_L), memo(antipode_L)),
    }
    to_M = cache(L_to_M)

    def run(name: str, desc: str, items, test: Callable) -> None:
        result = CheckResult(name, desc, "pass")
        for item in items:
            if not test(item):
                result = CheckResult(name, desc, "fail", str(item))
                break
        report.checks.append(result)

    for basis, (mul, coprod, _) in ops.items():

        def counit_ok(alpha, coprod=coprod):
            left: dict = {}
            right: dict = {}
            for (a, b), c in coprod(alpha).items():
                if a == EMPTY:
                    left[b] = left.get(b, 0) + c
                if b == EMPTY:
                    right[a] = right.get(a, 0) + c
            return _same(left, {alpha: 1}) and _same(right, {alpha: 1})

        def coassoc_ok(alpha, coprod=coprod):
            t = coprod(alpha)
            return _same(_triple(t, coprod, True), _triple(t, coprod, False))

        def convolution_ok(alpha, basis=basis):
            target = {EMPTY: 1} if alpha == EMPTY else {}
            return _same(_convolution(alpha, ops[basis], True), target) and _same(
                _convolution(alpha, ops[basis], False), target
            )

        def bialgebra_ok(pair, mul=mul, coprod=coprod):
            return _same(*_bialgebra_sides(pair, mul, coprod))

        run(f"counit_{basis}", singles_desc, singles, counit_ok)
        run(f"coassociativity_{basis}", singles_desc, singles, coassoc_ok)
        run(f"convolution_{basis}", singles_desc, singles, convolution_ok)
        run(f"bialgebra_{basis}", pairs_desc, pairs, bialgebra_ok)

    anti_M = ops["M"][2]
    run("antipode_bullet_M", pairs_desc, pairs, lambda p: _same(*_bullet_sides(p, anti_M)))
    run("antipode_odot_M", pairs_desc, pairs, lambda p: _same(*_odot_sides(p, anti_M)))

    def bullet_L_ok(pair):
        # cross-basis consistency of the concatenation product
        a, b = pair
        ea, eb = Expr.basis_element("L", a), Expr.basis_element("L", b)
        return to_M(bullet(ea, eb)) == bullet(to_M(ea), to_M(eb))

    def odot_L_ok(pair):
        # Eq. (5.4), with odot recomputed through the M basis
        a, b = pair
        if not (a and b):
            return True
        if a[-1].dotted or b[0].dotted:
            return True
        ea, eb = Expr.basis_element("L", a), Expr.basis_element("L", b)
        lhs = bullet(ea, eb) + M_to_L(_odot_M(to_M(ea), to_M(eb)))
        return lhs == Expr.basis_element("L", near_concat(a, b))

    run("bullet_L", pairs_desc, pairs, bullet_L_ok)
    run("odot_L", pairs_desc, pairs, odot_L_ok)

    return report
