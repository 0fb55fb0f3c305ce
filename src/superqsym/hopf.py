"""Products, coproducts and antipodes on the M and L bases, the auxiliary
concatenation products, and the machine-checkable axiom suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    koszul_mul,
    unit,
)
from .composition import (
    EMPTY,
    DottedComposition,
    DottedPart,
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
    if a.basis != b.basis:
        raise BasisMismatchError(f"cannot multiply {a.basis} by {b.basis}")
    if a.basis == "M":
        return product_M(a, b)
    if a.basis == "L":
        return product_L(a, b)
    raise ValueError("no product is defined on the Lbar basis")


# ---------------------------------------------------------------------------
# coproducts


def _deconcatenations(parts: tuple, out: dict, c) -> None:
    of = DottedComposition._of
    for k in range(len(parts) + 1):
        key = (of(parts[:k]), of(parts[k:]))
        out[key] = out.get(key, 0) + c


def coproduct_M(a) -> TensorExpr:
    """Deconcatenation coproduct."""
    e = _as_expr(a, "M")
    out: dict = {}
    for alpha, c in e.terms.items():
        _deconcatenations(alpha.parts, out, c)
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
        parts = alpha.parts
        _deconcatenations(parts, out, c)
        for h, p in enumerate(parts):
            if p.dotted:
                continue
            for u in range(1, p.value):
                key = (
                    of(parts[:h] + (DottedPart(u, False),)),
                    of((DottedPart(p.value - u, False),) + parts[h + 1 :]),
                )
                out[key] = out.get(key, 0) + c
    return TensorExpr._trusted(("L", "L"), out)


def coproduct(a: Expr) -> TensorExpr:
    if a.basis == "M":
        return coproduct_M(a)
    if a.basis == "L":
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
        alpha.parts
        and beta.parts
        and not alpha.parts[-1].dotted
        and not beta.parts[0].dotted
    ):
        return ((near_concat(alpha, beta), 1), (alpha.concat(beta), -1))
    return _odot_L_via_M(
        Expr.basis_element("L", alpha), Expr.basis_element("L", beta)
    ).terms.items()


def bullet(a: Expr, b: Expr) -> Expr:
    """Concatenation product on the M or L basis."""
    if a.basis != b.basis:
        raise BasisMismatchError(f"cannot combine {a.basis} with {b.basis}")
    if a.basis not in ("M", "L"):
        raise ValueError("bullet is defined on the M and L bases only")
    return Expr._trusted(a.basis, bilinear(_concat, a.terms, b.terms))


def _odot_M(a: Expr, b: Expr) -> Expr:
    return Expr._trusted("M", bilinear(_near_concat, a.terms, b.terms))


def _odot_L_via_M(a: Expr, b: Expr) -> Expr:
    return M_to_L(_odot_M(L_to_M(a), L_to_M(b)))


def odot(a: Expr, b: Expr) -> Expr:
    """Near-concatenation product; zero when a fusion is undefined (two
    dotted boundary parts, or an empty factor)."""
    if a.basis != b.basis:
        raise BasisMismatchError(f"cannot combine {a.basis} with {b.basis}")
    if a.basis == "M":
        return _odot_M(a, b)
    if a.basis != "L":
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
    if a.basis == "M":
        return antipode_M(a)
    if a.basis == "L":
        if via == "columns":
            return antipode_L(a)
        if via == "monomial":
            return M_to_L(antipode_M(L_to_M(a)))
        raise ValueError(f"unknown antipode route {via!r}")
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


def _triple(t: TensorExpr, side: str, coprod) -> dict:
    """(Delta x id) or (id x Delta) applied to a tensor; keys are triples."""
    out: dict[tuple, object] = {}
    for (a, b), c in t.terms.items():
        if side == "left":
            inner = coprod(Expr.basis_element(t.bases[0], a)).terms
            accumulate(out, {(u, v, b): d for (u, v), d in inner.items()}, c)
        else:
            inner = coprod(Expr.basis_element(t.bases[1], b)).terms
            accumulate(out, {(a, u, v): d for (u, v), d in inner.items()}, c)
    return {k: v for k, v in out.items() if v}


def _convolution(alpha: DottedComposition, basis: str, left: bool) -> Expr:
    coprod = coproduct_M if basis == "M" else coproduct_L
    anti = antipode_M if basis == "M" else antipode_L
    mul = product_M if basis == "M" else product_L
    t = coprod(Expr.basis_element(basis, alpha))
    out: dict = {}
    for (a, b), c in t.terms.items():
        ea, eb = Expr.basis_element(basis, a), Expr.basis_element(basis, b)
        piece = mul(anti(ea), eb) if left else mul(ea, anti(eb))
        accumulate(out, piece.terms, c)
    return Expr._trusted(basis, out)


def verify_hopf(max_total: int, max_fermionic: int) -> HopfReport:
    """Machine-check the Hopf axioms and the concatenation-product theorems
    over every dotted composition with n+m <= max_total and m <= max_fermionic
    (pairs: combined bounds).  Failures are reported, not raised."""
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

    def run(name: str, desc: str, items, test: Callable) -> None:
        for item in items:
            if not test(item):
                report.checks.append(
                    CheckResult(name, desc, "fail", str(item))
                )
                return
        report.checks.append(CheckResult(name, desc, "pass"))

    for basis in ("M", "L"):
        coprod = coproduct_M if basis == "M" else coproduct_L

        def counit_ok(alpha, basis=basis, coprod=coprod):
            e = Expr.basis_element(basis, alpha)
            left: dict = {}
            right: dict = {}
            for (a, b), c in coprod(e).terms.items():
                if a == EMPTY:
                    left[b] = left.get(b, 0) + c
                if b == EMPTY:
                    right[a] = right.get(a, 0) + c
            return (
                Expr._trusted(basis, left) == e and Expr._trusted(basis, right) == e
            )

        def coassoc_ok(alpha, basis=basis, coprod=coprod):
            t = coprod(Expr.basis_element(basis, alpha))
            return _triple(t, "left", coprod) == _triple(t, "right", coprod)

        def convolution_ok(alpha, basis=basis):
            target = unit(basis).scale(1 if alpha == EMPTY else 0)
            return (
                _convolution(alpha, basis, True) == target
                and _convolution(alpha, basis, False) == target
            )

        run(f"counit_{basis}", singles_desc, singles, counit_ok)
        run(f"coassociativity_{basis}", singles_desc, singles, coassoc_ok)
        run(f"convolution_{basis}", singles_desc, singles, convolution_ok)

        def bialgebra_ok(pair, basis=basis, coprod=coprod):
            a, b = pair
            mul = product_M if basis == "M" else product_L
            ea, eb = Expr.basis_element(basis, a), Expr.basis_element(basis, b)
            lhs = coprod(mul(ea, eb))
            rhs = koszul_mul(coprod(ea), coprod(eb), mul)
            return lhs == rhs

        run(f"bialgebra_{basis}", pairs_desc, pairs, bialgebra_ok)

    def thm_bullet_ok(pair):
        a, b = pair
        ea, eb = Expr.basis_element("M", a), Expr.basis_element("M", b)
        lhs = antipode_M(bullet(ea, eb))
        sign = -1 if (a.fermionic_degree * b.fermionic_degree) % 2 else 1
        sa, sb = antipode_M(ea), antipode_M(eb)
        rhs = (bullet(sb, sa) + odot(sb, sa)).scale(sign)
        return lhs == rhs

    def thm_odot_ok(pair):
        a, b = pair
        ea, eb = Expr.basis_element("M", a), Expr.basis_element("M", b)
        lhs = antipode_M(odot(ea, eb))
        sign = -1 if (a.fermionic_degree * b.fermionic_degree - 1) % 2 else 1
        rhs = odot(antipode_M(eb), antipode_M(ea)).scale(sign)
        return lhs == rhs

    run("antipode_bullet_M", pairs_desc, pairs, thm_bullet_ok)
    run("antipode_odot_M", pairs_desc, pairs, thm_odot_ok)

    def bullet_L_ok(pair):
        # cross-basis consistency of the concatenation product
        a, b = pair
        ea, eb = Expr.basis_element("L", a), Expr.basis_element("L", b)
        return L_to_M(bullet(ea, eb)) == bullet(L_to_M(ea), L_to_M(eb))

    def odot_L_ok(pair):
        # Eq. (5.4), with odot recomputed through the M basis
        a, b = pair
        if not (a.parts and b.parts):
            return True
        if a.parts[-1].dotted or b.parts[0].dotted:
            return True
        ea, eb = Expr.basis_element("L", a), Expr.basis_element("L", b)
        lhs = bullet(ea, eb) + _odot_L_via_M(ea, eb)
        return lhs == Expr.basis_element("L", near_concat(a, b))

    run("bullet_L", pairs_desc, pairs, bullet_L_ok)
    run("odot_L", pairs_desc, pairs, odot_L_ok)

    return report
