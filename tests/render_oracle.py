"""The renderer the package had before it wrote every format in one pass.

render_expr builds plain text and LaTeX term by term from a labeler and a
coefficient prefix, then joins the terms; it writes JSON with json.dumps of
expr_to_json or tensor_to_json.  render_poly writes a polynomial's plain text
the same way, and poly_json is json.dumps of SuperPolynomial.to_json.  They
are the oracle for algebra.render_expr and realize.render_poly."""

import json
from typing import Callable

from superqsym.algebra import Expr, TensorExpr, expr_to_json, tensor_to_json
from superqsym.composition import DottedComposition, DottedPart
from superqsym.realize import SuperPolynomial


def _part_table(compositions, f) -> dict:
    """f(p) for each distinct part of the compositions, so that sorting and
    rendering read a part once per call rather than once per term."""
    return {p: f(p) for p in set().union(*compositions)}


def _compositions(e) -> set:
    """The compositions the keys of an Expr or a TensorExpr are made of."""
    return set().union(*e.terms) if isinstance(e, TensorExpr) else e.terms


def _coeff_prefix(c, name: str, latex: bool) -> str:
    if c == 1:
        return name
    if c == -1:
        return f"-{name}"
    if latex and c.denominator != 1:
        num = f"\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
        return f"-{num}{name}" if c < 0 else f"{num}{name}"
    return f"{c}*{name}"


def _join_terms(rendered: list[str]) -> str:
    if not rendered:
        return "0"
    out = rendered[0]
    for r in rendered[1:]:
        if r.startswith("-"):
            out += " - " + r[1:]
        else:
            out += " + " + r
    return out


def _labeler(basis: str, latex: bool, part: dict) -> Callable[[DottedComposition], str]:
    """The label of an element of `basis`, L[d1,2] or \\bar L_{(\\dot{1},2)},
    from `part`, a table of part labels in the same format."""
    if latex:
        head = "\\bar L" if basis == "Lbar" else basis
        return lambda alpha: head + "_{(" + ",".join([part[p] for p in alpha]) + ")}"
    return lambda alpha: basis + "[" + ",".join([part[p] for p in alpha]) + "]"


def render_expr(e: Expr | TensorExpr, fmt: str = "plain") -> str:
    """Plain text, LaTeX or JSON for an Expr or a TensorExpr."""
    tensor = isinstance(e, TensorExpr)
    if fmt == "json":
        return json.dumps(tensor_to_json(e) if tensor else expr_to_json(e))
    latex = fmt == "latex"
    sep = " \\otimes " if latex else " @ "
    part = _part_table(_compositions(e), DottedPart.latex if latex else str)
    label = [_labeler(basis, latex, part) for basis in (e._tag if tensor else (e._tag,))]
    pieces = []
    for key in e.support():
        if tensor:
            name = label[0](key[0]) + sep + label[1](key[1])
        else:
            name = label[0](key)
        pieces.append(_coeff_prefix(e.terms[key], name, latex))
    return _join_terms(pieces)


def render_poly(p: SuperPolynomial) -> str:
    pieces = []
    for (t, xs), c in sorted(p.terms.items()):
        factors = [f"theta[{i}]" for i in t]
        factors += [f"x[{i}]" if e == 1 else f"x[{i}]^{e}" for i, e in xs]
        pieces.append(_coeff_prefix(c, "*".join(factors) or "1", False))
    return _join_terms(pieces)


def poly_json(p: SuperPolynomial) -> str:
    return json.dumps(p.to_json())
