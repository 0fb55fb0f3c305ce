"""The memoized walk behind schur_to_L against the tableau enumeration it
replaces, and the constructive strips against the filtering oracles."""

from hypothesis import given, settings, strategies as st

import strip_oracle
from superqsym import superschur
from superqsym.algebra import Expr
from superqsym.superschur import (
    EMPTY_SHAPE,
    Superpartition,
    bosonic_strips,
    comp_of_tableau,
    dot_standard_tableaux,
    fermionic_strips,
    schur_to_L,
    superpartitions,
)


def enumerated(outer, inner=EMPTY_SHAPE):
    """The signed sum of L_comp(T) over the dot-standard tableaux."""
    out = {}
    for tab in dot_standard_tableaux(outer, inner):
        key = comp_of_tableau(tab)
        out[key] = out.get(key, 0) + tab.sign()
    return Expr("L", out)


def shapes(size):
    """Every superpartition with |star| + #circles <= size."""
    return [
        lam
        for m in range(size + 1)
        for d in range(size + 1 - m)
        for lam in superpartitions(d, m)
    ]


def test_straight_shapes_up_to_six():
    for lam in shapes(6):
        assert schur_to_L(lam) == enumerated(lam), lam


def test_skew_shapes_up_to_five():
    universe = shapes(5)
    pairs = [(lam, mu) for lam in universe for mu in universe if lam.contains(mu)]
    assert any(mu.n_circles and mu.degree for _, mu in pairs)
    for lam, mu in pairs:
        assert schur_to_L(lam, mu) == enumerated(lam, mu), (lam, mu)


# straight shapes of degree |star| <= 7 with at most three circles
DEGREE_7 = [
    lam for m in range(4) for d in range(8) for lam in superpartitions(d, m)
]


@st.composite
def skew_shapes(draw):
    lam = draw(st.sampled_from(DEGREE_7))
    inner = [mu for mu in shapes(3) if lam.contains(mu)]
    return lam, draw(st.sampled_from(inner))


@settings(max_examples=25, deadline=None)
@given(skew_shapes())
def test_random_shapes_up_to_seven(shape):
    lam, mu = shape
    assert schur_to_L(lam, mu) == enumerated(lam, mu)


def test_strips_match_the_filter():
    for gamma in shapes(6):
        for size in range(5):
            assert bosonic_strips(gamma, size) == strip_oracle.bosonic_strips(
                gamma, size
            ), (gamma, size)
            assert fermionic_strips(gamma, size) == strip_oracle.fermionic_strips(
                gamma, size
            ), (gamma, size)


def test_walk_moves_match_the_product_filter():
    """The walk's moves from every diagram state inside every outer shape,
    capped by the outer shape and not, against the generator the package had
    before, which filtered every row-room vector: same tuples, same order."""
    universe = shapes(7)
    for lam in universe:
        for mu in universe:
            if not lam.contains(mu):
                continue
            star, rows = mu
            sizes = range(lam.degree - mu.degree + 1)
            for cap in (lam.star(), None):
                want = [
                    (new, new_rows, cells[0][0])
                    for new, new_rows, cells, _ in strip_oracle._strips(
                        star, rows, range(1, 2), False, cap
                    )
                ]
                assert list(superschur._cells(star, rows, cap)) == want, (lam, mu, cap)
                for dotted in (False, True):
                    want = [
                        (len(cells), new, new_rows, idx)
                        for new, new_rows, cells, idx in strip_oracle._strips(
                            star, rows, sizes, dotted, cap
                        )
                    ]
                    got = list(superschur._strips(star, rows, sizes, dotted, cap))
                    assert got == want, (lam, mu, cap, dotted)


def test_schur_walk_lists_no_tableaux(monkeypatch):
    def refuse(*args):
        raise AssertionError("schur_to_L listed strips or tableaux")

    lam, mu = Superpartition((3, 1), (3, 2, 1)), Superpartition((0,), (1,))
    want = enumerated(lam, mu)
    monkeypatch.setattr(superschur, "_targets", refuse)
    monkeypatch.setattr(superschur, "dot_standard_tableaux", refuse)
    got = schur_to_L(lam, mu)
    monkeypatch.undo()
    assert got == want


def test_cached_diagram():
    lam = Superpartition((3, 0), (5, 3, 2))
    assert lam.star() == (5, 3, 3, 2)
    assert lam.circles_from_below() == (0, 3)
    assert lam.contains(Superpartition((2,), (3, 3, 1)))
    assert not lam.contains(Superpartition((2, 1, 0), (1,)))
    assert not lam.contains(Superpartition((), (1, 1, 1, 1, 1)))


def test_tuple_contract():
    """A superpartition is its diagram (star, rows) and reads back from its
    pair (fermionic; bosonic), its text and the bare tuple."""
    for d in range(8):
        for c in range(4):
            shapes = superpartitions(d, c)
            keys = [(lam.fermionic, lam.bosonic) for lam in shapes]
            assert keys == sorted(keys), (d, c)
            for lam in shapes:
                assert lam == (lam.star(), lam[1])
                assert Superpartition(lam.fermionic, lam.bosonic) == lam
                rebuilt = Superpartition._of(tuple(lam))
                assert type(rebuilt) is Superpartition and rebuilt == lam
                assert Superpartition.parse(str(lam)) == lam
                assert hash(lam) == hash(tuple(lam))
