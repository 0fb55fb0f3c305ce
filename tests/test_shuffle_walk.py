"""The one grid walk behind overlapping_shuffles and fundamental_paths, the
path-free fundamental_product, and the one-pass descent readers, against the
engines and readers they replace (shuffle_oracle): same outputs in the same
order."""

import hashlib
from functools import lru_cache
from itertools import product

from hypothesis import given, strategies as st

import shuffle_oracle as oracle
from superqsym.composition import _PARTS, DottedPart, comp, compositions_of
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
    """Every dot-standard tableau of degree <= 6 with at most 3 circles."""
    shapes = [lam for d in range(7) for m in range(4) for lam in superpartitions(d, m)]
    count = 0
    for lam in shapes:
        for tab in dot_standard_tableaux(lam, EMPTY_SHAPE):
            assert comp_of_tableau(tab) == oracle.comp_of_tableau(tab), tab
            count += 1
    assert count == 6720


# every pair with combined n+m <= 7, any number of dots
PAIRS_UP_TO_7 = [(a, b) for a in compositions(7, 7) for b in compositions(7 - weight(a), 7)]


def test_product_matches_the_path_sum_on_every_pair_up_to_seven():
    assert len(PAIRS_UP_TO_7) == 12393
    for a, b in PAIRS_UP_TO_7:
        want = dict(oracle.fundamental_product(a, b))
        assert dict(fundamental_product.__wrapped__(a, b)) == want, (a, b)


def _kernel_digest(kernel, pairs):
    """sha256 over every pair and the kernel's tuple for it, in order."""
    h = hashlib.sha256()
    for a, b in pairs:
        h.update(repr((a, b, kernel.__wrapped__(a, b))).encode())
    return h.hexdigest()


def test_kernels_keep_their_order():
    """The product kernels' tuples term for term and in order, which the
    dict comparisons above do not see; the digests were taken before the
    walks read each move's sign bit and corner flag from the table."""
    assert _kernel_digest(fundamental_product, PAIRS_UP_TO_7) == (
        "add1cc4621f60a4939bedfb4eef077e03e8fe4c5af93113a37301b9eaf6614ae"
    )
    assert _kernel_digest(overlapping_shuffles, PAIRS_UP_TO_6) == (
        "4be30a19135a867a58af1d9342f3cdbfb769d720c1c982f6fc19271fe4e9a1a9"
    )


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


def _words_up_to(length, alphabet):
    return [
        DottedPermutation._of(labels)
        for n in range(length + 1)
        for labels in product(alphabet, repeat=n)
    ]


# non-dotted values may repeat here, which no grid the package builds does
LABELS = (DottedPart(1, False), DottedPart(2, False), DottedPart(1, True))


def test_product_reads_descents_as_comp_of_word_does(monkeypatch):
    """fundamental_product reads each path's descent composition while it
    steps, as comp_of_word reads a word: only a strict fall closes a run, so
    a repeated value continues it.  Its own representatives never repeat a
    value, so here the walk runs on grid words that do, each against the
    signed path sum over the same grid."""
    words = _words_up_to(3, LABELS)
    for w_a in words:
        for w_b in words:
            acc = {}
            for r in shuffles._walk(
                w_a, w_b, shuffles._fundamental_diagonals, shuffles._path_result
            ):
                acc[r.gamma] = acc.get(r.gamma, 0) + r.sign
            grid = iter((w_a, w_b))
            monkeypatch.setattr(shuffles, "represent", lambda alpha, start: next(grid))
            got = fundamental_product.__wrapped__(comp_of_word(w_a), comp_of_word(w_b))
            assert got == tuple((g, c) for g, c in acc.items() if c), (w_a, w_b)


def test_rising_stops_where_the_labels_stop_rising():
    """_rising, which sizes the multi-cell diagonals, against its definition
    on every label sequence of up to four labels: k runs while
    labels[i:i+k] are non-dotted and strictly rise, so a repeated value
    stops it as a fall or a dotted label does.  The labels of a grid never
    repeat a non-dotted value, so only a direct check sees a repeat."""

    def rises(run):
        return not any(e.dotted for e in run) and all(
            a.value < b.value for a, b in zip(run, run[1:])
        )

    alphabet = LABELS + (DottedPart(3, False),)
    for labels in _words_up_to(4, alphabet):
        for i in range(len(labels)):
            want = [k for k in range(1, len(labels) - i + 1) if rises(labels[i : i + k])]
            assert list(shuffles._rising(labels, i)) == want, (labels, i)


def test_product_enumerates_no_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("fundamental_product enumerated a path")

    a, b = comp("d1", 2, 1, "d0"), comp(1, "d2", 1)
    monkeypatch.setattr(shuffles, "fundamental_paths", refuse)
    monkeypatch.setattr(shuffles, "_path_result", refuse)
    got = fundamental_product.__wrapped__(a, b)
    monkeypatch.undo()
    assert got == oracle.fundamental_product(a, b)


def _oracle_path_sum(w_a, w_b):
    acc = {}
    for r in oracle._enumerate_paths(w_a, w_b):
        acc[r.gamma] = acc.get(r.gamma, 0) + r.sign
    return tuple((g, c) for g, c in acc.items() if c)


def test_large_ranks_and_d0_match_the_oracle():
    """The walks read a label's dot from its rank's parity and build fused
    labels by rank arithmetic; here on labels with d0, whose rank is 2, and
    with ranks above 255, past the ints Python keeps one copy of.  A plain
    value v is v letters of the L grid, so large plain values go only
    against a one-letter word."""
    both = (comp("d200", 2, "d0"), comp(1, "d130", 3))
    m_only = (comp(129, "d0"), comp("d200", 128))
    l_only = (comp("d200", 129), comp("d0"))
    for a, b in (both, m_only):
        assert overlapping_shuffles.__wrapped__(a, b) == oracle._overlapping_shuffles(a, b)
    for (a, b), terms in ((both, 438), (l_only, 8516)):
        w_a = represent(a, 1)
        w_b = represent(b, nondotted_total(a) + 1)
        assert fundamental_paths(a, b) == oracle._enumerate_paths(w_a, w_b), (a, b)
        got = fundamental_product.__wrapped__(a, b)
        assert got == _oracle_path_sum(w_a, w_b), (a, b)
        assert len(got) == terms


def test_a_large_dotted_part_adds_only_the_parts_it_builds():
    """A fused label is read from the part table by its rank, which builds
    the parts a product meets and no others: none up to a large rank."""
    a, b = comp("d100000"), comp("d0", 5)
    size = len(_PARTS)
    assert overlapping_shuffles.__wrapped__(a, b) == oracle._overlapping_shuffles(a, b)
    assert fundamental_product.__wrapped__(a, b) == oracle.fundamental_product(a, b)
    assert len(_PARTS) - size < 20
