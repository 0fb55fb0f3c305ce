"""The one refinement enumerator behind strong_refinements and
weak_refinements, weak_coarsenings without its set(), the forced-block
weak_leq, and compositions_of and compositions_with_total without their
sorts, against the enumerators and the reachable-set weak_leq they replace
(composition_oracle): same tuples in the same order, same answers."""

from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import composition_oracle as oracle
import superqsym.composition as composition
from superqsym.composition import (
    DottedComposition,
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


def test_tables_stop_at_the_largest_part_that_reads_them(monkeypatch):
    # each part reads the compositions of its own value and dots, and only
    # the weak order splits a dotted part: compositions_of(18, 1) alone holds
    # millions of tuples
    calls = []

    def recording(n, m):
        calls.append((n, m))
        return compositions_of(n, m)

    monkeypatch.setattr(composition, "compositions_of", recording)
    strong_refinements.__wrapped__(DottedComposition([5, "d3", 2]))
    assert calls == [(5, 0), (2, 0)]
    calls.clear()
    weak_refinements.__wrapped__(DottedComposition([5, "d3", 2]))
    assert calls == [(5, 0), (3, 1), (2, 0)]
    calls.clear()
    weak_refinements.__wrapped__(DottedComposition([5, 2]))
    assert calls == [(5, 0), (2, 0)]


def test_enumerators_build_each_part_once_per_call():
    # every composition holding a part holds the same object, so a listing
    # costs one tuple per composition, not one DottedPart per part
    column = DottedComposition([1] * 6 + ["d0"] + [1] * 6 + ["d1"])
    listings = (
        compositions_of(12, 1),
        compositions_with_total(10, 3),
        weak_coarsenings(column),
    )
    for found in listings:
        parts = [p for alpha in found for p in alpha]
        assert len({id(p) for p in parts}) == len(set(parts))


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


@pytest.mark.parametrize("max_fermionic", [None, 0, 1, 2, 4, 10])
def test_compositions_with_total_walks_in_sort_order(max_fermionic):
    # one walk over n+m, dv before v: the concatenation of the fermionic
    # degrees, sorted, with no sort in the walk
    for total in range(11):
        top = total if max_fermionic is None else min(total, max_fermionic)
        listed = [alpha for m in range(top + 1) for alpha in compositions_of(total - m, m)]
        want = sorted(listed, key=DottedComposition.sort_key)
        assert compositions_with_total(total, max_fermionic) == want


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
