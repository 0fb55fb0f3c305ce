"""The axiom suite's per-item formulas as the package had them before they
read the product kernels' pairs directly: each product was first summed per
key by `_summed`, the combination went through `bilinear` on those dicts or on
a singleton, and both sides were copied by `_clean` before they were
compared.  They stay here, with each check's verdict turned into the two sides
it compared, as the oracle for hopf._convolution, hopf._bialgebra_sides,
hopf._bullet_sides and hopf._odot_sides.  The verdict is `lhs == rhs`."""

from superqsym.algebra import _clean, _pair, accumulate, bilinear
from superqsym.hopf import _concat, _near_concat


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
