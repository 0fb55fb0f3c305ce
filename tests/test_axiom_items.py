"""The axiom suite's per-item formulas, which read the product kernels'
pairs directly, against the formulas they replace (hopf_oracle): equal left
and right sides and equal verdicts on every item of universes larger than
verify's acceptance gate (5, 2), and no memoized result touched by the
in-place comparison."""

from collections import Counter
from functools import cache

import pytest

import hopf_oracle as oracle
import superqsym.hopf as hopf
from test_hopf import _negate_nonunit
from superqsym.algebra import _clean
from superqsym.composition import EMPTY, comp, universe

KERNELS = {
    "M": (hopf.overlapping_shuffles, hopf.coproduct_M, hopf.antipode_M),
    "L": (hopf.fundamental_product, hopf.coproduct_L, hopf.antipode_L),
}


def _ops(basis: str, sabotage=None):
    """(product kernel, coproduct terms, antipode terms), memoized for the
    whole test as verify_hopf memoizes them for the run; `sabotage`, if
    given, breaks the kernel."""
    kernel, coprod, anti = KERNELS[basis]
    return (
        sabotage(kernel) if sabotage else kernel,
        cache(lambda alpha: coprod(alpha).terms),
        cache(lambda alpha: anti(alpha).terms),
    )


def _items(max_total: int, max_fermionic: int):
    """verify_hopf's singles and pairs for these bounds."""
    singles = universe(max_total, max_fermionic)
    sizes = [(a, sum(a.degrees()), a.fermionic_degree) for a in singles]
    pairs = [
        (a, b)
        for a, ta, ma in sizes
        for b, tb, mb in sizes
        if ta + tb <= max_total and ma + mb <= max_fermionic
    ]
    return singles, pairs


def _assert_same_sides(new, old, item):
    lhs, rhs = new
    olhs, orhs = old
    assert _clean(lhs) == olhs and _clean(rhs) == orhs, item
    assert hopf._same(lhs, rhs) == (olhs == orhs), item


def _check_universe(bounds, sabotage=None):
    """Every convolution, bialgebra and antipode-theorem item of `bounds`
    against the oracle; returns how many items failed the axiom."""
    singles, pairs = _items(*bounds)
    failed = 0
    for basis in ("M", "L"):
        ops = _ops(basis, sabotage)
        for alpha in singles:
            for left in (True, False):
                new = hopf._convolution(alpha, ops, left)
                old = oracle.convolution(alpha, ops, left)
                assert _clean(new) == old, (basis, alpha, left)
        mul, coprod, _ = ops
        for pair in pairs:
            new = hopf._bialgebra_sides(pair, mul, coprod)
            old = oracle.bialgebra_sides(pair, mul, coprod)
            _assert_same_sides(new, old, (basis, pair))
            failed += old[0] != old[1]
    anti_M = _ops("M")[2]
    for pair in pairs:
        for new, old in [
            (hopf._bullet_sides, oracle.bullet_sides),
            (hopf._odot_sides, oracle.odot_sides),
        ]:
            _assert_same_sides(new(pair, anti_M), old(pair, anti_M), pair)
    return failed


@pytest.mark.parametrize("bounds", [(6, 2), (5, 3)])
def test_items_match_the_old_formulation(bounds):
    assert _check_universe(bounds) == 0


def test_items_match_the_old_formulation_on_a_broken_product():
    # a sabotaged kernel makes verdicts differ from item to item, so equal
    # verdicts say more than on the passing universes
    assert _check_universe((4, 2), sabotage=_negate_nonunit) > 0


def test_memoized_results_keep_their_keys(monkeypatch):
    # every coproduct and antipode the suite asks for carries an explicit
    # zero term, on a key of another degree so that it adds nothing: the
    # comparison drops zeros in place only from the check's own dicts, so
    # each memoized result still holds its zero afterwards, and no verdict
    # changes
    one = comp(1)
    handed: list[tuple[dict, dict]] = []

    def padded(op, pad):
        def run(alpha):
            result = op(alpha)
            result.terms[pad(alpha.concat(one))] = 0
            handed.append((result.terms, dict(result.terms)))
            return result

        return run

    for name, pad in [
        ("coproduct_M", lambda g: (g, EMPTY)),
        ("coproduct_L", lambda g: (g, EMPTY)),
        ("antipode_M", lambda g: g),
        ("antipode_L", lambda g: g),
    ]:
        monkeypatch.setattr(hopf, name, padded(getattr(hopf, name), pad))
    report = hopf.verify_hopf(4, 2)
    assert report.passed, repr(report)
    assert handed
    for terms, snapshot in handed:
        assert terms == snapshot


def test_each_result_is_asked_once_per_run(monkeypatch):
    # the memo lasts for the whole run: every product, coproduct, antipode
    # and L_to_M image is computed once per distinct argument, however many
    # checks and items read it, and the report is the one the unwrapped
    # functions give
    expected = repr(hopf.verify_hopf(4, 2))
    asked = {}

    def counted(name):
        op = getattr(hopf, name)
        calls = asked[name] = Counter()

        def run(*x):
            calls[x if len(x) > 1 else x[0]] += 1
            return op(*x)

        return run

    kernels = ["overlapping_shuffles", "fundamental_product"]
    for name in kernels + ["coproduct_M", "coproduct_L", "antipode_M", "antipode_L", "L_to_M"]:
        monkeypatch.setattr(hopf, name, counted(name))
    assert repr(hopf.verify_hopf(4, 2)) == expected
    singles, pairs = _items(4, 2)
    singles = set(singles)
    for name, calls in asked.items():
        assert max(calls.values()) == 1, name
        if name in kernels:
            # the bialgebra check multiplies every pair
            assert set(pairs) <= set(calls), name
        elif name == "L_to_M":
            assert {e.basis for e in calls} == {"L"}
            assert {k for e in calls for k in e.terms} == singles
        else:
            assert set(calls) == singles, name
