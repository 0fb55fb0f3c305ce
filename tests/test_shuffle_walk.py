"""The one grid walk behind overlapping_shuffles and fundamental_paths, the
path-free fundamental_product, and the one-pass descent readers, against the
engines and readers they replace (shuffle_oracle): same outputs in the same
order."""

from functools import lru_cache

from hypothesis import given, strategies as st

import shuffle_oracle as oracle
from superqsym.composition import DottedPart, comp, compositions_of
from superqsym import shuffles
from superqsym.shuffles import (
    DottedPermutation,
    comp_of_word,
    fundamental_paths,
    fundamental_product,
    overlapping_shuffles,
    represent,
)
from superqsym.superschur import (
    EMPTY_SHAPE,
    comp_of_tableau,
    dot_standard_tableaux,
    superpartitions,
)


@lru_cache(maxsize=None)
def compositions(size, max_dots):
    """Every dotted composition with n+m <= size and m <= max_dots."""
    return [
        alpha
        for m in range(min(size, max_dots) + 1)
        for n in range(size + 1 - m)
        for alpha in compositions_of(n, m)
    ]


def weight(alpha):
    return alpha.total_degree + alpha.fermionic_degree


UP_TO_7 = compositions(7, 3)

PAIRS_UP_TO_6 = [
    (a, b)
    for a in compositions(6, 3)
    for b in compositions(6 - weight(a), 3 - a.fermionic_degree)
]


def nondotted_total(alpha):
    return sum(p.value for p in alpha if not p.dotted)


def test_every_pair_up_to_six_matches_the_oracle():
    for a, b in PAIRS_UP_TO_6:
        want = oracle._overlapping_shuffles(a, b)
        assert overlapping_shuffles(a, b) == want, (a, b)
        w_a = represent(a, 1)
        w_b = represent(b, nondotted_total(a) + 1)
        assert fundamental_paths(a, b) == oracle._enumerate_paths(w_a, w_b), (a, b)


@st.composite
def word_pairs(draw):
    """Two dotted words, with disjoint non-dotted values in any order, whose
    compositions have combined n+m <= 7 and m <= 3."""
    gamma = draw(st.sampled_from(UP_TO_7))
    values = iter(draw(st.permutations(range(1, nondotted_total(gamma) + 1))))
    entries = []
    for p in gamma:
        if p.dotted:
            entries.append(p)
        else:
            entries.extend(DottedPart(next(values), False) for _ in range(p.value))
    cut = draw(st.integers(0, len(entries)))
    return DottedPermutation(entries[:cut]), DottedPermutation(entries[cut:])


@given(word_pairs())
def test_drawn_pairs_up_to_seven_match_the_oracle(pair):
    w_a, w_b = pair
    a, b = comp_of_word(w_a), comp_of_word(w_b)
    assert overlapping_shuffles(a, b) == oracle._overlapping_shuffles(a, b)
    assert fundamental_paths(a, b, w_a, w_b) == oracle._enumerate_paths(w_a, w_b)


@given(word_pairs())
def test_comp_of_word_matches_the_oracle(pair):
    for w in (*pair, DottedPermutation(pair[0] + pair[1])):
        assert comp_of_word(w) == oracle.comp_of_word(w)


def test_comp_of_tableau_matches_the_oracle_up_to_six():
    shapes = [lam for m in range(7) for d in range(7 - m) for lam in superpartitions(d, m)]
    for lam in shapes:
        for tab in dot_standard_tableaux(lam, EMPTY_SHAPE):
            assert comp_of_tableau(tab) == oracle.comp_of_tableau(tab), tab


# every pair with combined n+m <= 7, any number of dots
PAIRS_UP_TO_7 = [(a, b) for a in compositions(7, 7) for b in compositions(7 - weight(a), 7)]


def test_product_matches_the_path_sum_on_every_pair_up_to_seven():
    assert len(PAIRS_UP_TO_7) == 12393
    for a, b in PAIRS_UP_TO_7:
        want = dict(oracle.fundamental_product(a, b))
        assert dict(fundamental_product.__wrapped__(a, b)) == want, (a, b)


@st.composite
def pairs_up_to_nine(draw):
    """Two compositions with combined n+m <= 9 and m <= 4."""
    a = draw(st.sampled_from(compositions(9, 4)))
    b = draw(st.sampled_from(compositions(9 - weight(a), 4 - a.fermionic_degree)))
    return a, b


@given(pairs_up_to_nine())
def test_drawn_products_up_to_nine_match_the_path_sum(pair):
    assert dict(fundamental_product.__wrapped__(*pair)) == dict(
        oracle.fundamental_product(*pair)
    )


def test_product_enumerates_no_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("fundamental_product enumerated a path")

    a, b = comp("d1", 2, 1, "d0"), comp(1, "d2", 1)
    monkeypatch.setattr(shuffles, "fundamental_paths", refuse)
    monkeypatch.setattr(shuffles, "_path_result", refuse)
    got = fundamental_product.__wrapped__(a, b)
    monkeypatch.undo()
    assert got == oracle.fundamental_product(a, b)
