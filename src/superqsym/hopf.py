"""Products, coproducts and antipodes on the M and L bases, the auxiliary
concatenation products, and the machine-checkable axiom suite."""

from __future__ import annotations

import json
from functools import cache
from itertools import chain, product as cartesian
from math import comb
from typing import Callable, NamedTuple, Optional

from .algebra import (
    BasisMismatchError,
    Expr,
    TensorExpr,
    L_to_M,
    M_to_L,
    _as_expr,
    accumulate,
    bilinear,
)
from .composition import (
    EMPTY,
    DottedComposition,
    DottedPart,
    _MEMOS,
    _as_int,
    column_decomposition,
    is_column,
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
    if len(ea.terms) == 1 == len(eb.terms):
        [(alpha, ca)], [(beta, cb)] = ea.terms.items(), eb.terms.items()
        if ca == 1 == cb:
            # two basis elements: the kernel's pairs are already summed per
            # gamma, nonzero and int, so they are the terms as they are
            return Expr._wrap("L", dict(fundamental_product(alpha, beta)))
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


def _maximal_coarsenings(column: DottedComposition) -> list[DottedComposition]:
    """The weak coarsenings of a column in which no two plain parts touch,
    built directly.  Each run of ones before, between or after the dots
    splits into the ones the dot on its left takes, at most one plain block,
    and the ones the dot on its right takes; the coarsenings are the product
    of these choices, run by run."""
    runs = [0]
    dots: list[int] = []
    for p in column:
        if p.dotted:
            dots.append(p.value)
            runs.append(0)
        else:
            runs[-1] += 1
    last = len(dots)
    # run i's choices (a, k, b): a ones to the dot on its left, a plain
    # block of k ones, b ones to the dot on its right
    choices = [
        [
            (a, r - a - b, b)
            for a in range(r + 1 if i else 1)
            for b in range(r - a + 1 if i < last else 1)
        ]
        for i, r in enumerate(runs)
    ]
    # each plain block by list index, a twentieth of a DottedPart call
    plain = [DottedPart(v, False) for v in range(max(runs) + 1)]
    out = []
    for first, *rest in cartesian(*choices):
        _, block, b = first
        parts = [plain[block]] if block else []
        for v, (a, block, right) in zip(dots, rest):
            parts.append(DottedPart(v + b + a, True))
            if block:
                parts.append(plain[block])
            b = right
        out.append(DottedComposition._of(tuple(parts)))
    return out


def antipode_L_column(alpha: DottedComposition) -> Expr:
    """Antipode of a column, the one-column case of antipode_L: signed sum
    of L over the maximal weak coarsenings of the reverse."""
    if not is_column(alpha):
        raise NotAColumnError(f"{alpha} is not a column")
    return antipode_L(alpha)


def _column_sum(a, coarsen: Callable, basis: str) -> Expr:
    """The shape both antipode formulas on L share.  For each term c L_alpha,
    (-1)^(l(alpha^1) + C(m,2)) c times the sum, over one coarsening of each
    column of rev(alpha) by `coarsen`, of the concatenated choices, read on
    `basis`.  alpha^1 is alpha with its plain parts split into ones, so
    l(alpha^1) is the columns' total length."""
    e = _as_expr(a, "L")
    out: dict = {}
    for alpha, c in e.terms.items():
        columns = column_decomposition(alpha.reverse())
        if (sum(map(len, columns)) + comb(alpha.fermionic_degree, 2)) % 2:
            c = -c
        for choice in cartesian(*map(coarsen, columns)):
            gamma = DottedComposition._of(tuple(chain.from_iterable(choice)))
            out[gamma] = out.get(gamma, 0) + c
    return Expr._trusted(basis, out)


def antipode_L(a) -> Expr:
    """Column-decomposition antipode: S(L_gamma) factors through the columns
    in reverse order under the concatenation product.  Reversed, the columns
    of gamma are the columns of rev(gamma); passing each column's dotted
    parts over the later ones turns the columns' signs into gamma^1's."""
    return _column_sum(a, _maximal_coarsenings, "L")


def _antipode_L_via_M(a) -> Expr:
    """The M-basis formula on L: M_to_L(antipode_M(L_to_M(a))) without the
    listing.  In the sum over strong refinements beta of alpha, a cut inside
    a plain part where gamma has no block boundary pairs two betas of
    opposite sign, so only alpha^1 is left, and its forced cuts are the
    column boundaries of rev(alpha): S(L_alpha) is M_to_L of
    (-1)^(l(alpha^1) + C(m,2)) times the sum of M over the concatenated weak
    coarsenings of those columns."""
    return M_to_L(_column_sum(a, weak_coarsenings, "M"))


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
        return antipode_L(a) if via == "columns" else _antipode_L_via_M(a)
    raise ValueError("no antipode is implemented on the Lbar basis")


# ---------------------------------------------------------------------------
# axiom suite


class CheckResult(NamedTuple):
    name: str
    universe: str
    status: str
    counterexample: Optional[str] = None

    def to_json(self) -> dict:
        return self._asdict()


class HopfReport:
    """The results of an axiom-suite run, one CheckResult per check."""

    def __init__(self, checks: Optional[list[CheckResult]] = None):
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    __hash__ = None  # a report is mutable: it gains checks as the suite runs

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


class _Ids(dict):
    """Dense int ids of the compositions one suite run meets: `ids[alpha]`
    gives alpha's id, assigning the next one on a first read; `comps[i]` is
    the composition of id i and `odd[i]` its dot parity.  The checks key
    their sums by ids, int pairs and int triples: a tuple does not cache its
    hash, so a pair or triple of compositions re-hashes every part on every
    dict operation."""

    def __init__(self):
        super().__init__()
        self.comps: list[DottedComposition] = []
        self.odd: list[int] = []

    def __missing__(self, alpha: DottedComposition) -> int:
        i = self[alpha] = len(self.comps)
        self.comps.append(alpha)
        self.odd.append(alpha.fermionic_degree % 2)
        return i


def _interned_ops(ids: _Ids, kernel: Callable, coprod: Callable, anti: Callable):
    """(product kernel, coproduct, antipode) of one basis on ids, each
    memoized for the run: the kernel's (id, coefficient) pairs per id pair,
    and the coproduct's and antipode's terms per id, keyed by id pairs and
    ids.  A kernel that is a module memo, listed in _MEMOS, is called without
    it, so the run holds each product once; any other kernel is called as it
    is, so a wrapper that keeps the kernel under `__wrapped__` is still the
    one called."""
    comps = ids.comps
    if kernel in _MEMOS:
        kernel = kernel.__wrapped__

    @cache
    def mul_ids(i: int, j: int) -> tuple:
        return tuple([(ids[g], c) for g, c in kernel(comps[i], comps[j])])

    @cache
    def coprod_ids(i: int) -> dict:
        return {(ids[u], ids[v]): c for (u, v), c in coprod(comps[i]).terms.items()}

    @cache
    def anti_ids(i: int) -> dict:
        return {ids[g]: c for g, c in anti(comps[i]).terms.items()}

    return mul_ids, coprod_ids, anti_ids


def _triple(t: dict, coprod: Callable, left: bool) -> dict:
    """(Delta x id) or (id x Delta) applied to a tensor's terms; keys are
    triples, and cancelled terms stay as zeros for `_same` to drop."""
    out: dict = {}
    get = out.get
    for (a, b), c in t.items():
        for (u, v), d in coprod(a if left else b).items():
            key = (u, v, b) if left else (a, u, v)
            out[key] = get(key, 0) + c * d
    return out


def _convolution(alpha: int, ops, left: bool) -> dict:
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


def _bialgebra_sides(pair, mul: Callable, coprod: Callable, odd: list) -> tuple[dict, dict]:
    """Delta(ab) and Delta(a)Delta(b), with the Koszul sign read from the
    ids' dot parities `odd`, as terms with the zeros kept.  Each product's
    (key, coefficient) pairs are read as the kernel gives them: by linearity
    a repeated key needs no summing first."""
    a, b = pair
    lhs: dict = {}
    for gamma, v in mul(a, b):
        accumulate(lhs, coprod(gamma), v)
    rhs: dict = {}
    get = rhs.get
    b_splits = [(b1, b2, c2, odd[b1]) for (b1, b2), c2 in coprod(b).items()]
    for (a1, a2), c1 in coprod(a).items():
        a_odd = odd[a2]
        for b1, b2, c2, b_odd in b_splits:
            c = -c1 * c2 if a_odd and b_odd else c1 * c2
            right = mul(a2, b2)
            for u, cu in mul(a1, b1):
                cu *= c
                for v, cv in right:
                    key = (u, v)
                    rhs[key] = get(key, 0) + cu * cv
    return lhs, rhs


def _antipode_sides(pair, anti: Callable, ids: _Ids, fused_only: bool) -> tuple[dict, dict]:
    """S(a . b) against (-1)^(m(a)m(b)) (S(b) . S(a) + S(b) (.) S(a)), or with
    `fused_only` S(a (.) b) against (-1)^(m(a)m(b)-1) S(b) (.) S(a): the fused
    half of the first right side with its sign negated.  The left side is a
    copy of the memoized antipode, the right keeps its zeros."""
    a, b = pair
    comps, odd = ids.comps, ids.odd
    sign = -1 if odd[a] * odd[b] else 1
    if fused_only:
        sign = -sign
        fused = near_concat(comps[a], comps[b])
        lhs = {} if fused is None else dict(anti(ids[fused]))
    else:
        lhs = dict(anti(ids[comps[a].concat(comps[b])]))
    sa, sb = anti(a), anti(b)
    rhs: dict = {}
    get = rhs.get
    for u, cu in sb.items():
        cu *= sign
        u = comps[u]
        for v, cv in sa.items():
            c = cu * cv
            v = comps[v]
            if not fused_only:
                key = ids[u.concat(v)]
                rhs[key] = get(key, 0) + c
            fused = near_concat(u, v)
            if fused is not None:
                key = ids[fused]
                rhs[key] = get(key, 0) + c
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
    ids = _Ids()
    comps = ids.comps
    members = universe(max_total, max_fermionic)
    singles = [ids[a] for a in members]
    singles_desc = f"n+m<={max_total}, m<={max_fermionic}"
    pairs_desc = f"combined {singles_desc}"
    sizes = [(ids[a], sum(a.degrees()), a.fermionic_degree) for a in members]
    pairs = [
        (i, j)
        for i, ti, mi in sizes
        for j, tj, mj in sizes
        if ti + tj <= max_total and mi + mj <= max_fermionic
    ]
    e = ids[EMPTY]
    report = HopfReport()

    # (product kernel, coproduct, antipode) of each basis on ids, and the M
    # image of an L element, read when the suite runs, so a replaced
    # module-level function is the one checked; each check reads the memos
    # the earlier ones filled
    ops = {
        "M": _interned_ops(ids, overlapping_shuffles, coproduct_M, antipode_M),
        "L": _interned_ops(ids, fundamental_product, coproduct_L, antipode_L),
    }
    to_M = cache(L_to_M)

    def shown(item) -> str:
        """An item as its counterexample text, its ids read as compositions."""
        return str(comps[item] if type(item) is int else (comps[item[0]], comps[item[1]]))

    def run(name: str, desc: str, items, test: Callable) -> None:
        result = CheckResult(name, desc, "pass")
        for item in items:
            if not test(item):
                result = CheckResult(name, desc, "fail", shown(item))
                break
        report.checks.append(result)

    for basis, (mul, coprod, _) in ops.items():

        def counit_ok(alpha, coprod=coprod):
            left: dict = {}
            right: dict = {}
            for (a, b), c in coprod(alpha).items():
                if a == e:
                    left[b] = left.get(b, 0) + c
                if b == e:
                    right[a] = right.get(a, 0) + c
            return _same(left, {alpha: 1}) and _same(right, {alpha: 1})

        def coassoc_ok(alpha, coprod=coprod):
            t = coprod(alpha)
            return _same(_triple(t, coprod, True), _triple(t, coprod, False))

        def convolution_ok(alpha, basis=basis):
            target = {e: 1} if alpha == e else {}
            return _same(_convolution(alpha, ops[basis], True), target) and _same(
                _convolution(alpha, ops[basis], False), target
            )

        def bialgebra_ok(pair, mul=mul, coprod=coprod):
            return _same(*_bialgebra_sides(pair, mul, coprod, ids.odd))

        run(f"counit_{basis}", singles_desc, singles, counit_ok)
        run(f"coassociativity_{basis}", singles_desc, singles, coassoc_ok)
        run(f"convolution_{basis}", singles_desc, singles, convolution_ok)
        run(f"bialgebra_{basis}", pairs_desc, pairs, bialgebra_ok)

    anti_M = ops["M"][2]
    for name, fused in [("antipode_bullet_M", False), ("antipode_odot_M", True)]:
        run(name, pairs_desc, pairs, lambda p, f=fused: _same(*_antipode_sides(p, anti_M, ids, f)))

    def bullet_L_ok(pair):
        # cross-basis consistency of the concatenation product
        a, b = comps[pair[0]], comps[pair[1]]
        ea, eb = Expr.basis_element("L", a), Expr.basis_element("L", b)
        return to_M(bullet(ea, eb)) == bullet(to_M(ea), to_M(eb))

    def odot_L_ok(pair):
        # Eq. (5.4), with odot recomputed through the M basis
        a, b = comps[pair[0]], comps[pair[1]]
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
