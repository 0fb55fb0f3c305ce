"""Formal linear combinations over exact rationals, indexed by dotted
compositions (Expr) or pairs of them (TensorExpr) and tagged with a basis
(M, L or Lbar); realize.SuperPolynomial shares their core.

A stored coefficient is an int, or a Fraction whose denominator is not 1.
Every structure constant in the package is +-1, so the arithmetic stays on
machine integers until a non-integral scalar enters."""

from __future__ import annotations

import json
import numbers
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping

from .composition import EMPTY, DottedComposition, DottedPart, strong_refinements, weak_refinements

BASES = ("M", "L", "Lbar")


class BasisMismatchError(ValueError):
    """Binary operation on expressions tagged with different bases, or on
    polynomials over different numbers of variables."""


def _check_basis(basis: str) -> str:
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    return basis


def _exact(c):
    """The stored form of a coefficient: an int when it is integral, else a
    Fraction.  As composition._as_int does, it refuses a bool, so that True
    is not read as 1, and text, so that "1/2" is not parsed."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        if isinstance(c, bool) or not isinstance(c, numbers.Number):
            raise TypeError(f"expected a number, got {c!r}")
        try:
            c = Fraction(c)
        except OverflowError:  # an infinity; a NaN raises ValueError itself
            raise ValueError(f"a coefficient must be finite, got {c!r}") from None
    return c.numerator if c.denominator == 1 else c


def _clean(terms: Mapping) -> dict:
    """Drop zero coefficients and store integral ones as int."""
    return {k: v if type(v) is int else _exact(v) for k, v in terms.items() if v}


def _merge(terms: Mapping | None, key: Callable) -> dict:
    """Sum the coefficients of a caller's mapping after reading each key."""
    out: dict = {}
    for k, c in (terms or {}).items():
        k = key(k)
        out[k] = out.get(k, 0) + _exact(c)
    return out


def bilinear(f: Callable, left: Mapping, right: Mapping, c=1, out: dict | None = None) -> dict:
    """Accumulate c * a_c * b_c * v into out[key] for every term (a, a_c) of
    `left`, (b, b_c) of `right` and (key, v) in f(a, b); returns `out`."""
    if out is None:
        out = {}
    get = out.get
    for a, ca in left.items():
        ca *= c
        for b, cb in right.items():
            cab = ca * cb
            for key, v in f(a, b):
                out[key] = get(key, 0) + cab * v
    return out


def accumulate(out: dict, terms: Mapping, c=1) -> dict:
    """out += c * terms, in place; returns `out`."""
    get = out.get
    for k, v in terms.items():
        out[k] = get(k, 0) + c * v
    return out


def _pair(a, b):
    return (((a, b), 1),)


class _Combination:
    """The shared core of Expr, TensorExpr and SuperPolynomial: a dict from
    keys to nonzero coefficients, and a tag that names the basis, the pair of
    bases or the number of variables."""

    __slots__ = ("_tag", "terms")

    # how the constructor and `coefficient` read a caller's key
    _key = staticmethod(lambda k: k)

    def _set(self, tag, terms: Mapping) -> None:
        object.__setattr__(self, "_tag", tag)
        object.__setattr__(self, "terms", _clean(terms))

    @classmethod
    def _trusted(cls, tag, terms: Mapping):
        """Wrap a dict the package built itself: the tag is valid and every
        key is already valid (a composition, a pair of them, or a canonical
        monomial), so only zeros are dropped and the coefficient rule
        applied."""
        return cls._wrap(tag, _clean(terms))

    @classmethod
    def _wrap(cls, tag, terms: dict):
        """As _trusted, for a new dict that is already clean: no zero, and
        every coefficient an int or a non-integral Fraction.  It becomes the
        terms as it is."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_tag", tag)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls, tag):
        return cls(tag)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (self._trusted, (self._tag, self.terms))

    def coefficient(self, *key):
        """The coefficient of a basis element, of a pair of them for a
        TensorExpr, or of a monomial; 0 when absent."""
        return self.terms.get(self._key(key[0] if len(key) == 1 else key), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list:
        """The keys in their natural order: compositions in that of
        DottedComposition.sort_key, pairs of them left slot first, and
        monomials as tuples."""
        return sorted(self.terms)

    def _same_tag(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._tag != other._tag:
            raise BasisMismatchError(f"cannot combine {self._tag} with {other._tag}")
        return self._tag

    def __add__(self, other):
        tag = self._same_tag(other)
        return self._trusted(tag, accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        tag = self._same_tag(other)
        return self._trusted(tag, accumulate(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _exact(c)
        return self._trusted(self._tag, {k: v * c for k, v in self.terms.items()})

    __mul__ = __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._tag == other._tag
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._tag, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return render_expr(self)


def _as_composition(key) -> DottedComposition:
    return key if isinstance(key, DottedComposition) else DottedComposition(key)


class Expr(_Combination):
    """A finite rational linear combination of basis elements.

    Zero coefficients are never stored.  Scalar arithmetic goes through the
    operators; products live in the hopf module because they depend on the
    basis semantics.
    """

    __slots__ = ()
    _key = staticmethod(_as_composition)

    def __init__(self, basis: str, terms: Mapping[DottedComposition, object] | None = None):
        self._set(_check_basis(basis), _merge(terms, self._key))

    @property
    def basis(self) -> str:
        return self._tag

    @classmethod
    def basis_element(cls, basis: str, alpha: DottedComposition, coeff=1) -> "Expr":
        return cls._trusted(_check_basis(basis), {_as_composition(alpha): _exact(coeff)})

    def bidegrees(self) -> set[tuple[int, int]]:
        return {alpha.degrees() for alpha in self.terms}

    def _texts(self, keys, fmt: str):
        """For render_expr: the JSON head, the streams whose zip spells the
        term names in `keys` order, piece by piece, and the JSON tail."""
        head, tail = _frame(self._tag, fmt)
        if fmt != "json":
            return "", [repeat(head), _bodies(keys, fmt), repeat(tail)], ""
        names = [repeat('{"comp": ' + head), _bodies(keys, fmt), repeat(tail)]
        return '{"basis": ' + json.dumps(self._tag) + ', "terms": [', names, "]}"


class _PartTable(dict):
    """f(p) for each part p looked up, made at its first lookup: rendering
    reads a part once per call rather than once per term."""

    def __init__(self, f: Callable):
        self.f = f

    def __missing__(self, p: DottedPart):
        self[p] = value = self.f(p)
        return value


def _as_expr(x, basis: str) -> Expr:
    """A composition as its basis element, or an Expr checked to be in `basis`."""
    if isinstance(x, DottedComposition):
        return Expr.basis_element(basis, x)
    if isinstance(x, Expr):
        if x.basis != basis:
            raise BasisMismatchError(f"expected basis {basis}, got {x.basis}")
        return x
    raise TypeError(f"expected Expr or DottedComposition, got {type(x).__name__}")


def unit(basis: str = "M") -> Expr:
    return Expr.basis_element(basis, EMPTY)


def counit(e: Expr):
    return e.coefficient(EMPTY)


# ---------------------------------------------------------------------------
# basis conversions


def L_to_M(e) -> Expr:
    """L_alpha = sum of M_beta over strong refinements beta of alpha."""
    e = _as_expr(e, "L")
    out: dict[DottedComposition, object] = {}
    for alpha, c in e.terms.items():
        for beta in strong_refinements(alpha):
            out[beta] = out.get(beta, 0) + c
    return Expr._trusted("M", out)


def M_to_L(e) -> Expr:
    """Moebius inversion of L_to_M: the interval below alpha is Boolean, so
    M_alpha = sum over refinements beta of (-1)^(len(beta)-len(alpha)) L_beta."""
    e = _as_expr(e, "M")
    out: dict[DottedComposition, object] = {}
    for alpha, c in e.terms.items():
        la = alpha.length
        for beta in strong_refinements(alpha):
            out[beta] = out.get(beta, 0) + (-c if (beta.length - la) % 2 else c)
    return Expr._trusted("L", out)


def cofundamental_to_M(e) -> Expr:
    """Lbar_alpha = sum of M_beta over weak refinements beta of alpha."""
    e = _as_expr(e, "Lbar")
    out: dict[DottedComposition, object] = {}
    for alpha, c in e.terms.items():
        for beta in weak_refinements(alpha):
            out[beta] = out.get(beta, 0) + c
    return Expr._trusted("M", out)


# ---------------------------------------------------------------------------
# tensor squares


def _as_pair(key) -> tuple[DottedComposition, DottedComposition]:
    if not isinstance(key, tuple) or len(key) != 2:
        raise ValueError(f"a tensor key is a pair of compositions, got {key!r}")
    return (_as_composition(key[0]), _as_composition(key[1]))


def _check_bases(bases) -> tuple[str, str]:
    return (_check_basis(bases[0]), _check_basis(bases[1]))


class TensorExpr(_Combination):
    """Finite rational combination of pairs of dotted compositions."""

    __slots__ = ()
    _key = staticmethod(_as_pair)

    def __init__(self, bases: tuple[str, str], terms=None):
        self._set(_check_bases(bases), _merge(terms, self._key))

    @property
    def bases(self) -> tuple[str, str]:
        return self._tag

    def _texts(self, keys, fmt: str):
        # as Expr._texts; the left and right slots' bodies alternate in one
        # stream, which zip reads twice per term
        (lhead, ltail), (rhead, rtail) = (_frame(basis, fmt) for basis in self._tag)
        bodies = _bodies(chain.from_iterable(keys), fmt)
        if fmt != "json":
            mid = ltail + (" \\otimes " if fmt == "latex" else " @ ") + rhead
            return "", [repeat(lhead), bodies, repeat(mid), bodies, repeat(rtail)], ""
        lhead, mid = '{"left": ' + lhead, ltail + ', "right": ' + rhead
        names = [repeat(lhead), bodies, repeat(mid), bodies, repeat(rtail)]
        return '{"bases": ' + json.dumps(list(self._tag)) + ', "terms": [', names, "]}"

    def map_slots(self, f_left, f_right, bases: tuple[str, str]) -> "TensorExpr":
        """Apply Expr-valued maps to the two slots (no sign; maps are even)."""
        out: dict = {}
        for (a, b), c in self.terms.items():
            ea = f_left(Expr.basis_element(self.bases[0], a))
            eb = f_right(Expr.basis_element(self.bases[1], b))
            bilinear(_pair, ea.terms, eb.terms, c, out)
        return TensorExpr._trusted(_check_bases(bases), out)


def tensor(a: Expr, b: Expr) -> TensorExpr:
    return TensorExpr._trusted((a.basis, b.basis), bilinear(_pair, a.terms, b.terms))


def koszul_mul(
    t1: TensorExpr,
    t2: TensorExpr,
    mul: Callable[[Expr, Expr], Expr],
) -> TensorExpr:
    """(a(x)b)(c(x)d) = (-1)^(m_b m_c) (ac)(x)(bd), extended bilinearly."""
    if t1.bases != t2.bases:
        raise BasisMismatchError(f"cannot multiply {t1.bases} with {t2.bases}")
    left_basis, right_basis = t1.bases

    def pieces(ab, cd):
        (a, b), (c, d) = ab, cd
        left = mul(Expr.basis_element(left_basis, a), Expr.basis_element(left_basis, c))
        right = mul(Expr.basis_element(right_basis, b), Expr.basis_element(right_basis, d))
        sign = -1 if (b.fermionic_degree * c.fermionic_degree) % 2 else 1
        return bilinear(_pair, left.terms, right.terms, sign).items()

    return TensorExpr._trusted(t1.bases, bilinear(pieces, t1.terms, t2.terms))


# ---------------------------------------------------------------------------
# rendering and JSON


FORMATS = ("plain", "latex", "json")

_PART_TEXT = {"plain": str, "latex": DottedPart.latex, "json": lambda p: json.dumps(p.to_json())}


def _frame(basis: str, fmt: str) -> tuple[str, str]:
    """The texts before and after the parts of an element of `basis` in
    `fmt`: L[ and ], \\bar L_{( and )}, or [ and ]."""
    if fmt == "latex":
        return ("\\bar L" if basis == "Lbar" else basis) + "_{(", ")}"
    return ("[" if fmt == "json" else basis + "["), "]"


def _bodies(compositions: Iterable[DottedComposition], fmt: str) -> Iterator[str]:
    """Each composition's part texts in `fmt`, joined: d1,2 or \\dot{1},2 or
    {"v": 1, "dot": true}, {"v": 2, "dot": false}.  The texts come from a
    table that writes each distinct part once, and the chain of built-ins
    calls no Python function per composition."""
    get = _PartTable(_PART_TEXT[fmt]).__getitem__
    sep = ", " if fmt == "json" else ","
    return map(sep.join, map(partial(map, get), compositions))


def _coeff_text(c, fmt: str) -> str:
    """What coefficient c adds to a term's name: in text the sign and factor
    before it, as for a term that is not the first; in JSON the "num" and
    "den" members after it."""
    if fmt == "json":
        return f', "num": "{c.numerator}", "den": "{c.denominator}"}}'
    sign, c = (" - " if c < 0 else " + "), abs(c)
    if fmt == "latex" and c.denominator != 1:
        return f"{sign}\\frac{{{c.numerator}}}{{{c.denominator}}}"
    return sign if c == 1 else f"{sign}{c}*"


def render_expr(e: _Combination, fmt: str = "plain") -> str:
    """Plain text, LaTeX or JSON (json.dumps of expr_to_json, tensor_to_json
    or SuperPolynomial.to_json) for an Expr, a TensorExpr or a
    SuperPolynomial, which has no LaTeX form.  Each distinct part and each
    distinct coefficient is written once per call, and the terms once.  The
    names, the coefficient lookups and the join are chains of built-ins: once
    support() has sorted an Expr or a TensorExpr, no Python function runs per
    term."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    keys = e.support()
    head, names, tail = e._texts(keys, fmt)
    text = {c: _coeff_text(c, fmt) for c in set(e.terms.values())}
    coeffs = map(text.__getitem__, map(e.terms.__getitem__, keys))
    if fmt == "json":
        return head + ", ".join(map("".join, zip(*names, coeffs))) + tail
    out = "".join(chain.from_iterable(zip(coeffs, *names)))
    # the first term keeps only its sign: "2*L[1]" or "-L[1]", not " + 2*L[1]"
    return (out[3:] if out[1] == "+" else "-" + out[3:]) if out else "0"


render_tensor = render_expr


def _coeff_json(c) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def _coeff_from_json(term: dict) -> Fraction:
    den = int(term["den"])
    if not den:
        raise ValueError(f"a coefficient's denominator must be nonzero, got {term['den']!r}")
    return Fraction(int(term["num"]), den)


def expr_to_json(e: Expr) -> dict:
    """The JSON document of an Expr; terms with a part in common share that
    part's dict."""
    part = _PartTable(DottedPart.to_json)
    return {
        "basis": e.basis,
        "terms": [
            {"comp": [part[p] for p in alpha], **_coeff_json(e.terms[alpha])}
            for alpha in e.support()
        ],
    }


def expr_from_json(data: dict) -> Expr:
    terms = {
        DottedComposition.from_json(t["comp"]): _coeff_from_json(t)
        for t in data["terms"]
    }
    return Expr(data["basis"], terms)


def tensor_to_json(t: TensorExpr) -> dict:
    """The JSON document of a TensorExpr; part dicts are shared as in
    expr_to_json."""
    part = _PartTable(DottedPart.to_json)
    return {
        "bases": list(t.bases),
        "terms": [
            {
                "left": [part[p] for p in a],
                "right": [part[p] for p in b],
                **_coeff_json(t.terms[(a, b)]),
            }
            for a, b in t.support()
        ],
    }


def tensor_from_json(data: dict) -> TensorExpr:
    read = DottedComposition.from_json
    terms = {
        (read(t["left"]), read(t["right"])): _coeff_from_json(t)
        for t in data["terms"]
    }
    return TensorExpr(tuple(data["bases"]), terms)
