"""Brute-force oracle: exact polynomials in N commuting variables x[1..N]
and N anticommuting variables theta[1..N].

Monomials are kept in canonical form (theta indices strictly increasing,
x exponents positive); constructing from an unsorted theta list multiplies
the coefficient by the sort sign and kills repeated indices.  Every identity
in the package is checkable against this representation at desk scale.
"""

from __future__ import annotations

import itertools
import json
from math import comb
from typing import Iterable, Mapping

from .algebra import (
    Expr,
    _coeff_json,
    _Combination,
    _merge,
    accumulate,
    bilinear,
    cofundamental_to_M,
    render_expr,
)
from .composition import DottedComposition, DottedPart, _as_int, _memo, def_sets

Theta = tuple[int, ...]
XPows = tuple[tuple[int, int], ...]
Monomial = tuple[Theta, XPows]


class NotQuasisymmetricError(ValueError):
    pass


class FaithfulnessError(ValueError):
    """A term's degree exceeds what N variables can represent faithfully."""


def _sort_sign(indices: Iterable[int]) -> tuple[int, Theta]:
    """Sign of the permutation sorting `indices`; 0 on repeats."""
    lst = tuple(indices)
    if len(set(lst)) < len(lst):
        return 0, ()
    inversions = sum(a > b for a, b in itertools.combinations(lst, 2))
    return -1 if inversions % 2 else 1, tuple(sorted(lst))


def monomial(theta: Iterable[int], xpows: Mapping[int, int]) -> tuple[int, Monomial]:
    sign, t = _sort_sign(theta)
    xs = tuple(sorted((i, e) for i, e in xpows.items() if e))
    if any(e < 0 for _, e in xs):
        raise ValueError("negative exponent")
    return sign, (t, xs)


class SuperPolynomial(_Combination):
    """A combination of canonical monomials, tagged with the number of
    variables; +, -, scale, ==, hash and coefficient come from the shared
    core, and combining polynomials over different rings raises."""

    __slots__ = ()

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        self._set(nvars, _merge(terms, self._key))
        for t, xs in self.terms:
            if any(i > nvars or i < 1 for i in t) or any(
                i > nvars or i < 1 for i, _ in xs
            ):
                raise ValueError("variable index out of range")

    @property
    def nvars(self) -> int:
        return self._tag

    @classmethod
    def one(cls, nvars: int) -> "SuperPolynomial":
        return cls(nvars, {((), ()): 1})

    def _texts(self, keys, fmt: str):
        """For render_expr: the JSON head, the term names in `keys` order as
        the one stream that spells them, the JSON tail."""
        if fmt == "latex":
            raise ValueError("a SuperPolynomial has no LaTeX form")
        if fmt == "json":
            names = ['{"theta": ' + json.dumps(t) + ', "x": ' + json.dumps(xs) for t, xs in keys]
            return "[", [names], "]"
        return "", [[_monomial_text(t, xs) for t, xs in keys]], ""

    def to_json(self) -> list[dict]:
        return [
            {"theta": list(t), "x": [[i, e] for i, e in xs], **_coeff_json(c)}
            for (t, xs), c in sorted(self.terms.items())
        ]


def _monomial_text(t: Theta, xs: XPows) -> str:
    factors = [f"theta[{i}]" for i in t]
    factors += [f"x[{i}]" if e == 1 else f"x[{i}]^{e}" for i, e in xs]
    return "*".join(factors) or "1"


def _mono_mul(m1: Monomial, m2: Monomial):
    (t1, xs1), (t2, xs2) = m1, m2
    sign, t = _sort_sign(t1 + t2)
    if sign == 0:
        return ()
    xp = dict(xs1)
    for i, e in xs2:
        xp[i] = xp.get(i, 0) + e
    return (((t, tuple(sorted(xp.items()))), sign),)


def poly_mul(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    return SuperPolynomial._trusted(p._same_tag(q), bilinear(_mono_mul, p.terms, q.terms))


def shift_indices(p: SuperPolynomial, offset: int, nvars: int) -> SuperPolynomial:
    """Reindex every variable by +offset into a ring with `nvars` variables."""
    out = {}
    for (t, xs), c in p.terms.items():
        key = (
            tuple(i + offset for i in t),
            tuple((i + offset, e) for i, e in xs),
        )
        out[key] = c
    return SuperPolynomial(nvars, out)


# ---------------------------------------------------------------------------
# realizations of the bases


def _check_nvars(nvars: int) -> int:
    """nvars as an int: a bool or a non-integral number is refused, as by
    _as_int, and so is a negative count, which would realize as a silent 0."""
    nvars = _as_int(nvars)
    if nvars < 0:
        raise ValueError(f"number of variables must be >= 0, got {nvars}")
    return nvars


def realize_M(alpha: DottedComposition, nvars: int) -> SuperPolynomial:
    """Defining sum of the monomial basis over strictly increasing indices."""
    return _realize_M(alpha, _check_nvars(nvars))


# both memos are keyed by a checked int count, so 3 and 3.0 share an entry
@_memo
def _realize_M(alpha: DottedComposition, nvars: int) -> SuperPolynomial:
    l = alpha.length
    out: dict[Monomial, int] = {}
    for idx in itertools.combinations(range(1, nvars + 1), l):
        theta = tuple(i for i, p in zip(idx, alpha) if p.dotted)
        xpows: dict[int, int] = {}
        for i, p in zip(idx, alpha):
            if p.value:
                xpows[i] = xpows.get(i, 0) + p.value
        key = (theta, tuple(sorted(xpows.items())))
        out[key] = out.get(key, 0) + 1
    return SuperPolynomial._trusted(nvars, out)


def _defsets_sum(
    alpha: DottedComposition,
    nvars: int,
    strict: frozenset[int],
    equal: frozenset[int],
) -> SuperPolynomial:
    """Sum over i_1 <= ... <= i_{n+m} <= nvars with forced strict/equal steps,
    with theta/x factors read off F(alpha).  Positions joined by an equal
    step share one slot, and each strict step before a position adds one to
    its index; so the slots' shifted indices run over the weakly increasing
    tuples of 1..nvars - #strict."""
    n, m = alpha.degrees()
    F = def_sets(alpha).F
    # each position's slot, index shift and dot; at the end `slot` counts
    # the slots and `shift` the strict steps
    place = []
    slot = shift = 0
    for k in range(1, n + m + 1):
        place.append((slot, shift, k in F))
        if k not in equal:
            slot += 1
        if k in strict:
            shift += 1
    out: dict[Monomial, int] = {}
    for idx in itertools.combinations_with_replacement(range(1, nvars - shift + 1), slot):
        theta = []
        xpows: dict[int, int] = {}
        for j, up, dotted in place:
            i = idx[j] + up
            if dotted:
                theta.append(i)
            else:
                xpows[i] = xpows.get(i, 0) + 1
        sign, t = _sort_sign(theta)
        if sign:
            key = (t, tuple(sorted(xpows.items())))
            out[key] = out.get(key, 0) + sign
    return SuperPolynomial._trusted(nvars, out)


def realize_M_defsets(alpha: DottedComposition, nvars: int) -> SuperPolynomial:
    """The D/E/F rewrite of M: strict exactly at D, equal elsewhere."""
    nvars = _check_nvars(nvars)
    n, m = alpha.degrees()
    total = n + m
    D = def_sets(alpha).D
    equal = frozenset(range(1, total)) - D
    return _defsets_sum(alpha, nvars, D, equal)


def realize_L(alpha: DottedComposition, nvars: int) -> SuperPolynomial:
    """The D/E/F sum for the fundamental basis: strict at D, equal at E,
    free elsewhere."""
    return _realize_L(alpha, _check_nvars(nvars))


@_memo
def _realize_L(alpha: DottedComposition, nvars: int) -> SuperPolynomial:
    sets = def_sets(alpha)
    return _defsets_sum(alpha, nvars, sets.D, sets.E)


def realize_expr(e: Expr, nvars: int) -> SuperPolynomial:
    """Realize any expression; L terms go through the direct D/E/F sum."""
    nvars = _check_nvars(nvars)
    if e.basis == "L":
        pieces = [(realize_L(alpha, nvars), c) for alpha, c in e.terms.items()]
    else:
        m_expr = e if e.basis == "M" else cofundamental_to_M(e)
        pieces = [(realize_M(alpha, nvars), c) for alpha, c in m_expr.terms.items()]
    acc: dict[Monomial, object] = {}
    for poly, c in pieces:
        accumulate(acc, poly.terms, c)
    return SuperPolynomial._trusted(nvars, acc)


# ---------------------------------------------------------------------------
# quasisymmetry and extraction


def _monomial_type(mono: Monomial) -> tuple[DottedComposition, tuple[int, ...]]:
    """The dotted composition a monomial instantiates, plus its index tuple."""
    t, xs = mono
    support = sorted(set(t) | {i for i, _ in xs})
    xmap = dict(xs)
    tset = set(t)
    parts = [DottedPart(xmap.get(i, 0), i in tset) for i in support]
    return DottedComposition(parts), tuple(support)


def is_quasisymmetric(p: SuperPolynomial) -> bool:
    groups: dict[DottedComposition, dict[tuple[int, ...], object]] = {}
    for mono, c in p.terms.items():
        alpha, idx = _monomial_type(mono)
        groups.setdefault(alpha, {})[idx] = c
    for alpha, found in groups.items():
        expected = comb(p.nvars, alpha.length)
        if len(found) != expected:
            return False
        coeffs = set(found.values())
        if len(coeffs) != 1:
            return False
    return True


def extract_M(p: SuperPolynomial, require_faithful: bool = False) -> Expr:
    """Read off the M-expansion of a quasisymmetric polynomial.

    The result realizes back to p exactly over the same variables.  That
    expansion equals the abstract one only when every bidegree present has
    n + m <= nvars (a longer composition would be invisible); pass
    require_faithful=True to insist on that.
    """
    if not is_quasisymmetric(p):
        raise NotQuasisymmetricError("polynomial is not quasisymmetric")
    terms: dict[DottedComposition, object] = {}
    for mono, c in p.terms.items():
        t, xs = mono
        if require_faithful:
            n = sum(e for _, e in xs)
            m = len(t)
            if n + m > p.nvars:
                raise FaithfulnessError(
                    f"bidegree ({n},{m}) needs more than {p.nvars} variables"
                )
        alpha, idx = _monomial_type(mono)
        if idx == tuple(range(1, alpha.length + 1)):
            terms[alpha] = c
    return Expr("M", terms)


render_poly = render_expr
