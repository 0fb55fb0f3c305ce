"""The axiom suite's per-item formulas, which read the product kernels'
pairs directly and sum over interned composition ids, against the formulas
they replace (hopf_oracle), which sum over compositions: equal left and
right sides, once the ids are read back as compositions, and equal verdicts
on every item of universes larger than verify's acceptance gate (5, 2), and
no memoized result touched by the in-place comparison."""

import functools
from collections import Counter
from functools import cache

import pytest

import hopf_oracle as oracle
import superqsym.hopf as hopf
from test_hopf import _negate_nonunit
from superqsym import clear_caches
from superqsym.algebra import _clean
from superqsym.composition import EMPTY, comp, universe

KERNELS = {
    "M": (hopf.overlapping_shuffles, hopf.coproduct_M, hopf.antipode_M),
    "L": (hopf.fundamental_product, hopf.coproduct_L, hopf.antipode_L),
}


def _ops(basis: str, sabotage=None):
    """(product kernel, coproduct terms, antipode terms) on compositions, as
    the oracle reads them, memoized for the whole test as verify_hopf
    memoizes its id-keyed ones for the run; `sabotage`, if given, breaks the
    kernel."""
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


def _decoded(terms: dict, comps: list) -> dict:
    """Id-keyed terms with each id, alone or in a pair, read back as its
    composition; the zeros stay."""
    return {
        comps[k] if type(k) is int else tuple(comps[i] for i in k): c
        for k, c in terms.items()
    }


def _assert_same_sides(new, old, item, comps):
    lhs, rhs = new
    olhs, orhs = old
    assert _clean(_decoded(lhs, comps)) == olhs, item
    assert _clean(_decoded(rhs, comps)) == orhs, item
    assert hopf._same(lhs, rhs) == (olhs == orhs), item


def _check_universe(bounds, sabotage=None):
    """Every convolution, bialgebra and antipode-theorem item of `bounds`,
    on the ids verify_hopf sums over, decoded and checked against the oracle
    on compositions; returns how many items failed the axiom."""
    singles, pairs = _items(*bounds)
    ids = hopf._Ids()
    comps = ids.comps
    failed = 0
    for basis in ("M", "L"):
        ops = _ops(basis, sabotage)
        kernel, coprod, anti = KERNELS[basis]
        id_ops = hopf._interned_ops(
            ids, sabotage(kernel) if sabotage else kernel, coprod, anti
        )
        for alpha in singles:
            for left in (True, False):
                new = hopf._convolution(ids[alpha], id_ops, left)
                old = oracle.convolution(alpha, ops, left)
                assert _clean(_decoded(new, comps)) == old, (basis, alpha, left)
        mul, coprod, _ = ops
        id_mul, id_coprod, _ = id_ops
        for a, b in pairs:
            new = hopf._bialgebra_sides((ids[a], ids[b]), id_mul, id_coprod, ids.odd)
            old = oracle.bialgebra_sides((a, b), mul, coprod)
            _assert_same_sides(new, old, (basis, a, b), comps)
            failed += old[0] != old[1]
    anti_M = _ops("M")[2]
    id_anti_M = hopf._interned_ops(ids, *KERNELS["M"])[2]
    for a, b in pairs:
        for fused_only, old in [(False, oracle.bullet_sides), (True, oracle.odot_sides)]:
            new = hopf._antipode_sides((ids[a], ids[b]), id_anti_M, ids, fused_only)
            _assert_same_sides(new, old((a, b), anti_M), (a, b), comps)
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


def test_run_leaves_the_kernel_memos_empty():
    # the run's id-keyed kernel memo calls the undecorated kernels, so the
    # module memos hold no second copy of the products it computed
    clear_caches()
    assert hopf.verify_hopf(4, 2).passed
    for kernel in (hopf.overlapping_shuffles, hopf.fundamental_product):
        assert kernel.cache_info().currsize == 0, kernel.__name__


def test_a_replaced_kernel_that_keeps_the_original_is_the_one_checked(monkeypatch):
    # a replacement made with functools.wraps, as a tracer makes one, keeps
    # the module memo under __wrapped__: the run calls the replacement, and
    # unwraps only a kernel that is itself the module memo
    good = hopf.fundamental_product
    broken = functools.wraps(good)(_negate_nonunit(good))
    assert broken.__wrapped__ is good
    monkeypatch.setattr(hopf, "fundamental_product", broken)
    report = hopf.verify_hopf(3, 1)
    failing = [(c.name, c.counterexample) for c in report.checks if c.status == "fail"]
    assert failing == [("convolution_L", "[d0,1]"), ("bialgebra_L", "([d0], [1])")]
