"""The one refinement enumerator behind strong_refinements and
weak_refinements, weak_coarsenings without its set(), and the forced-block
weak_leq, against the enumerators and the reachable-set weak_leq they replace
(composition_oracle): same tuples in the same order, same answers."""

from collections import defaultdict
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import composition_oracle as oracle
from superqsym.composition import (
    DottedComposition,
    _runs,
    compositions_of,
    strong_refinements,
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


def test_runs_table_lists_each_run_once():
    runs = _runs(8)
    assert len(runs) == 9
    for k, found in enumerate(runs):
        assert sorted(found) == sorted(oracle._nondotted_compositions(k))


def test_strong_refinements_of_a_large_dotted_part_build_no_runs():
    # a dotted part is never split in the strong order, so its value must
    # not size the runs table (d40 alone would need about 2^40 runs)
    alpha = DottedComposition(["d40", 1])
    assert strong_refinements(alpha) == (alpha,)
    beta = DottedComposition(["d40", 3, "d50"])
    assert strong_refinements(beta) == oracle.strong_refinements(beta)


def test_strong_refinements_match_oracle():
    for alpha in compositions(7):
        assert strong_refinements(alpha) == oracle.strong_refinements(alpha)


def test_weak_refinements_match_oracle():
    for alpha in compositions(6):
        assert weak_refinements(alpha) == oracle.weak_refinements(alpha)


def test_weak_coarsenings_match_oracle():
    for alpha in compositions(7):
        assert weak_coarsenings(alpha) == oracle.weak_coarsenings(alpha)


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
