"""The axiom suite's per-item formulas as the package had them before they
read the product kernels' pairs directly: each product was first summed per
key by `_summed`, the combination went through `bilinear` on those dicts or on
a singleton, and both sides were copied by `_clean` before they were
compared.  They stay here, with each check's verdict turned into the two sides
it compared, as the oracle for hopf._convolution, hopf._bialgebra_sides and
both modes of hopf._antipode_sides.  The verdict is `lhs == rhs`.

Both antipode routes on L as the package had them before they built only
the terms they keep stay here too: the columns route filtered every weak
coarsening of a reversed column for the maximal ones, and the monomial route
composed L_to_M, antipode_M and M_to_L.  So does the columns route as it was
before both routes became one product over the columns of rev(alpha): the
column antipodes folded in reverse order by `bullet`, with the sign of the
dotted parts that cross; here each column antipode is the filter above."""

from superqsym.algebra import Expr, L_to_M, M_to_L, _clean, _pair, accumulate, bilinear, unit
from superqsym.composition import column_decomposition, is_maximal, weak_coarsenings
from superqsym.hopf import _antipode_sign, _concat, _near_concat, antipode_M, bullet


def antipode_L_column(alpha) -> Expr:
    """The antipode of a column: the maximal weak coarsenings of its
    reverse, each with the column's sign."""
    sign = _antipode_sign(alpha)
    return Expr("L", {b: sign for b in weak_coarsenings(alpha.reverse()) if is_maximal(b)})


def antipode_columns(x: Expr) -> Expr:
    """S(x) on L through the column decomposition: each term's column
    antipodes concatenated in reverse order, signed by the pairs of dotted
    parts in different columns."""
    out: dict = {}
    for gamma, c in x.terms.items():
        columns = column_decomposition(gamma)
        ms = [col.fermionic_degree for col in columns]
        crossings = sum(ms[i] * ms[j] for i in range(len(ms)) for j in range(i + 1, len(ms)))
        acc = unit("L")
        for col in reversed(columns):
            acc = bullet(acc, antipode_L_column(col))
        accumulate(out, acc.terms, -c if crossings % 2 else c)
    return Expr("L", out)


def antipode_monomial(x: Expr) -> Expr:
    """S(x) on L through the M basis."""
    return M_to_L(antipode_M(L_to_M(x)))


def _summed(pairs) -> dict:
    """The (key, coefficient) pairs of a product kernel, summed per key."""
    out: dict = {}
    for k, v in pairs:
        out[k] = out.get(k, 0) + v
    return out


def convolution(alpha, ops, left: bool) -> dict:
    """(S * id) or (id * S) of one basis element, as terms."""
    mul, coprod, anti = ops
    out: dict = {}
    for (a, b), c in coprod(alpha).items():
        if left:
            bilinear(mul, anti(a), {b: 1}, c, out)
        else:
            bilinear(mul, {a: 1}, anti(b), c, out)
    return _clean(out)


def bialgebra_sides(pair, mul, coprod) -> tuple[dict, dict]:
    # Delta(ab) against Delta(a) Delta(b), with the Koszul sign
    a, b = pair
    lhs: dict = {}
    for gamma, v in mul(a, b):
        accumulate(lhs, coprod(gamma), v)
    rhs: dict = {}
    for (a1, a2), c1 in coprod(a).items():
        for (b1, b2), c2 in coprod(b).items():
            c = c1 * c2
            if (a2.fermionic_degree * b1.fermionic_degree) % 2:
                c = -c
            left, right = _summed(mul(a1, b1)), _summed(mul(a2, b2))
            bilinear(_pair, left, right, c, rhs)
    return _clean(lhs), _clean(rhs)


def bullet_sides(pair, anti) -> tuple[dict, dict]:
    a, b = pair
    sign = -1 if (a.fermionic_degree * b.fermionic_degree) % 2 else 1
    sa, sb = anti(a), anti(b)
    rhs = bilinear(_concat, sb, sa, sign)
    bilinear(_near_concat, sb, sa, sign, rhs)
    return anti(a.concat(b)), _clean(rhs)


def odot_sides(pair, anti) -> tuple[dict, dict]:
    a, b = pair
    lhs: dict = {}
    for gamma, v in _near_concat(a, b):
        accumulate(lhs, anti(gamma), v)
    sign = -1 if (a.fermionic_degree * b.fermionic_degree - 1) % 2 else 1
    rhs = bilinear(_near_concat, anti(b), anti(a), sign)
    return _clean(lhs), _clean(rhs)
