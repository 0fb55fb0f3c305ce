"""The one refinement enumerator behind strong_refinements and
weak_refinements, weak_coarsenings without its set(), the forced-block
weak_leq, and compositions_of without its sort, against the enumerators and
the reachable-set weak_leq they replace (composition_oracle): same tuples in
the same order, same answers."""

from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import composition_oracle as oracle
import superqsym.composition as composition
from superqsym.composition import (
    DottedComposition,
    DottedPart,
    _runs,
    compositions_of,
    compositions_with_total,
    strong_refinements,
    universe,
    weak_coarsenings,
    weak_leq,
    weak_refinements,
)


@lru_cache(maxsize=None)
def compositions(size):
    """Every dotted composition with n+m <= size."""
    return [
        alpha
        for total in range(size + 1)
        for m in range(total + 1)
        for alpha in compositions_of(total - m, m)
    ]


def in_sort_order(items):
    return sorted(items, key=lambda parts: DottedComposition._of(parts).sort_key())


def test_runs_table_lists_each_run_once():
    # each row in sort order, the order the refinements inherit
    runs, splits = _runs(8, 6)
    assert len(runs) == 9
    for k, found in enumerate(runs):
        assert found == in_sort_order(oracle._nondotted_compositions(k))
    assert len(splits) == 7
    for k, found in enumerate(splits):
        assert found == in_sort_order(oracle._splits_weak(DottedPart(k, True)))


def test_tables_stop_at_the_largest_part_that_reads_them(monkeypatch):
    # only the weak order splits a dotted part, and splits[18] alone holds
    # millions of tuples: the split table is sized by the dotted parts only
    calls = []

    def recording(*bounds):
        calls.append(bounds)
        return _runs(*bounds)

    monkeypatch.setattr(composition, "_runs", recording)
    strong_refinements.__wrapped__(DottedComposition([5, "d3", 2]))
    weak_refinements.__wrapped__(DottedComposition([5, "d3", 2]))
    weak_refinements.__wrapped__(DottedComposition([5, 2]))
    assert calls == [(5, -1), (5, 3), (5, -1)]


def test_strong_refinements_of_a_large_dotted_part_build_no_runs():
    # a dotted part is never split in the strong order, so its value must
    # not size the runs table (d40 alone would need about 2^40 runs)
    alpha = DottedComposition(["d40", 1])
    assert strong_refinements(alpha) == (alpha,)
    beta = DottedComposition(["d40", 3, "d50"])
    assert strong_refinements(beta) == oracle.strong_refinements(beta)


def test_strong_refinements_match_oracle():
    for alpha in compositions(8):
        assert strong_refinements(alpha) == oracle.strong_refinements(alpha)


def test_weak_refinements_match_oracle():
    for alpha in compositions(8):
        assert weak_refinements(alpha) == oracle.weak_refinements(alpha)


def test_weak_coarsenings_match_oracle():
    for alpha in compositions(8):
        assert weak_coarsenings(alpha) == oracle.weak_coarsenings(alpha)


def test_compositions_of_matches_oracle():
    for n in range(-2, 10):
        for m in range(-2, 10 - max(n, 0)):
            assert compositions_of(n, m) == oracle.compositions_of(n, m)
    assert compositions_of(-1, 2) == compositions_of(2, -1) == []


@pytest.mark.parametrize("max_fermionic", [None, 0, 1, 2, 3, -1])
def test_compositions_with_total_and_universe_match_oracle(max_fermionic):
    want = [oracle.compositions_with_total(total, max_fermionic) for total in range(-1, 10)]
    assert [compositions_with_total(total, max_fermionic) for total in range(-1, 10)] == want
    assert universe(9, max_fermionic) == [alpha for found in want for alpha in found]


def test_no_composition_is_enumerated_twice():
    # the enumerators keep every split product and every block structure,
    # with no set() to merge them
    for alpha in compositions(7):
        for found in (
            strong_refinements(alpha),
            weak_refinements(alpha),
            weak_coarsenings(alpha),
        ):
            assert len(set(found)) == len(found)


def test_weak_leq_matches_oracle_on_every_pair():
    by_degrees = defaultdict(list)
    for alpha in compositions(6):
        by_degrees[alpha.degrees()].append(alpha)
    pairs = 0
    for group in by_degrees.values():
        for alpha in group:
            for beta in group:
                assert weak_leq(beta, alpha) == oracle.weak_leq(beta, alpha)
                pairs += 1
    assert pairs == 63953


@st.composite
def of_bidegree(draw, n, m):
    """A dotted composition of bidegree (n, m): m dotted parts with a
    non-dotted run before, between and after them."""
    cuts = sorted(draw(st.integers(0, n)) for _ in range(2 * m))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    parts = []
    for i, size in enumerate(sizes):
        if i % 2:
            parts.append(f"d{size}")
            continue
        run = 1
        for _ in range(size - 1):
            if draw(st.booleans()):
                parts.append(run)
                run = 0
            run += 1
        if size:
            parts.append(run)
    return DottedComposition(parts)


@st.composite
def composition_pairs(draw, max_total=10):
    """(alpha, beta, refined) of one bidegree: beta either refines each part
    of alpha in the weak order (refined) or is drawn on its own."""
    total = draw(st.integers(0, max_total))
    m = draw(st.integers(0, total))
    alpha = draw(of_bidegree(total - m, m))
    refined = draw(st.booleans())
    if refined:
        beta = DottedComposition(
            q for p in alpha for q in draw(of_bidegree(p.value, int(p.dotted)))
        )
    else:
        beta = draw(of_bidegree(total - m, m))
    return alpha, beta, refined


@settings(max_examples=300, deadline=None)
@given(composition_pairs())
def test_weak_leq_matches_oracle_on_drawn_pairs(pair):
    alpha, beta, refined = pair
    if refined:
        assert weak_leq(beta, alpha)
    assert weak_leq(beta, alpha) == oracle.weak_leq(beta, alpha)
    assert weak_leq(alpha, beta) == oracle.weak_leq(alpha, beta)
