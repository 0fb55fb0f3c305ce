"""Formal linear combinations over exact rationals, indexed by dotted
compositions (Expr) or pairs of them (TensorExpr) and tagged with a basis
(M, L or Lbar); realize.SuperPolynomial shares their core.

A stored coefficient is an int, or a Fraction whose denominator is not 1.
Every structure constant in the package is +-1, so the arithmetic stays on
machine integers until a non-integral scalar enters."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Mapping

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
    Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
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
        obj = object.__new__(cls)
        obj._set(tag, terms)
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
        return cls._trusted(_check_basis(basis), {_as_composition(alpha): coeff})

    def support(self) -> list[DottedComposition]:
        """The keys in the order of DottedComposition.sort_key."""
        rank = _PartTable(_rank).__getitem__
        return sorted(self.terms, key=lambda alpha: list(map(rank, alpha)))

    def bidegrees(self) -> set[tuple[int, int]]:
        return {alpha.degrees() for alpha in self.terms}

    def _texts(self, keys, fmt: str):
        """For render_expr: the JSON head, the term names in `keys` order, the JSON tail."""
        label = _labeler(self._tag, fmt)
        if fmt != "json":
            return "", list(map(label, keys)), ""
        names = ['{"comp": ' + label(alpha) for alpha in keys]
        return '{"basis": ' + json.dumps(self._tag) + ', "terms": [', names, "]}"


class _PartTable(dict):
    """f(p) for each part p looked up, made at its first lookup: sorting and
    rendering read a part once per call rather than once per term."""

    def __init__(self, f: Callable):
        self.f = f

    def __missing__(self, p: DottedPart):
        self[p] = value = self.f(p)
        return value


def _rank(p: DottedPart) -> int:
    # a part's place in DottedComposition.sort_key: by value, dotted first
    return 2 * p.value + (not p.dotted)


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

    def support(self):
        """The pairs in the order of DottedComposition.sort_key, left slot
        first."""
        rank = _PartTable(_rank).__getitem__
        return sorted(
            self.terms, key=lambda pair: (list(map(rank, pair[0])), list(map(rank, pair[1])))
        )

    def _texts(self, keys, fmt: str):
        # as Expr._texts
        left, right = (_labeler(basis, fmt) for basis in self._tag)
        if fmt != "json":
            sep = " \\otimes " if fmt == "latex" else " @ "
            return "", [left(a) + sep + right(b) for a, b in keys], ""
        names = ['{"left": ' + left(a) + ', "right": ' + right(b) for a, b in keys]
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


def _labeler(basis: str, fmt: str) -> Callable[[DottedComposition], str]:
    """The text of an element of `basis` in `fmt`, read from a table of part
    texts: L[d1,2], \\bar L_{(\\dot{1},2)} or [{"v": 1, "dot": true}, ...]."""
    head, sep, tail = basis + "[", ",", "]"
    if fmt == "latex":
        head, tail = ("\\bar L" if basis == "Lbar" else basis) + "_{(", ")}"
    elif fmt == "json":
        head, sep = "[", ", "
    get = _PartTable(_PART_TEXT[fmt]).__getitem__
    return lambda alpha: head + sep.join(map(get, alpha)) + tail


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
    distinct coefficient is written once per call, and the terms once."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    keys = e.support()
    head, names, tail = e._texts(keys, fmt)
    coeffs = [e.terms[k] for k in keys]
    text = {c: _coeff_text(c, fmt) for c in set(coeffs)}
    if fmt == "json":
        return head + ", ".join([n + text[c] for n, c in zip(names, coeffs)]) + tail
    out = "".join([text[c] + n for n, c in zip(names, coeffs)])
    # the first term keeps only its sign: "2*L[1]" or "-L[1]", not " + 2*L[1]"
    return (out[3:] if out[1] == "+" else "-" + out[3:]) if out else "0"


render_tensor = render_expr


def _coeff_json(c) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


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
        DottedComposition.from_json(t["comp"]): Fraction(int(t["num"]), int(t["den"]))
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
        (read(t["left"]), read(t["right"])): Fraction(int(t["num"]), int(t["den"]))
        for t in data["terms"]
    }
    return TensorExpr(tuple(data["bases"]), terms)
