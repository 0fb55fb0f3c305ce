"""The memoized walk behind schur_to_L against the tableau enumeration it
replaces, the pruned tableau listings against the unpruned walk they
replace, the backward live table against the forward one it replaces, its
strip builders against the enumeration of every removable strip, and the
constructive strips against the filtering oracles."""

import functools
import hashlib
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import live_oracle
import strip_oracle
import tableau_oracle
from superqsym import _livetable, superschur
from superqsym.algebra import Expr
from superqsym.composition import DottedPart
from superqsym.superschur import (
    EMPTY_SHAPE,
    Superpartition,
    bosonic_strips,
    comp_of_tableau,
    dot_standard_tableaux,
    enumerate_s_tableaux,
    fermionic_strips,
    realize_s,
    schur_to_L,
    standardize,
    superpartitions,
)


def enumerated(outer, inner=EMPTY_SHAPE):
    """The signed sum of L_comp(T) over the dot-standard tableaux, listed by
    the unpruned oracle walk, which shares no live-state table with
    schur_to_L."""
    out = {}
    for tab in tableau_oracle.dot_standard_tableaux(outer, inner):
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
    """On (1,0;2), (1,0;2,1) and (1,0;3) the signed tableaux of some
    compositions cancel: an Expr stores no zero coefficient, so a stored
    zero fails the equality."""
    for lam in shapes(6):
        assert schur_to_L(lam) == enumerated(lam), lam


def skew_pairs(size):
    """Every (outer, inner) pair of shapes(size) with inner inside outer."""
    universe = shapes(size)
    return [(lam, mu) for lam in universe for mu in universe if lam.contains(mu)]


def test_skew_shapes_up_to_six():
    """Every skew shape of the universe the straight shapes cover; the bench
    draws skew shapes of outer degree 6."""
    pairs = skew_pairs(6)
    assert len(pairs) == 1494
    assert any(mu.n_circles and mu.degree for _, mu in pairs)
    for lam, mu in pairs:
        assert schur_to_L(lam, mu) == enumerated(lam, mu), (lam, mu)


def weights(lam, mu):
    """A few weights that fill lam/mu: a 0-strip, bosonic and fermionic
    k-strips, and d0s."""
    d, c = lam.degree - mu.degree, lam.n_circles - mu.n_circles
    out = [[0, d] + ["d0"] * c, ["d0"] * c + [d, 0]]
    if c:
        out.append([f"d{d}", 0] + ["d0"] * (c - 1))
    if d >= 2:
        out.append([1, f"d{d - 1}"] + ["d0"] * (c - 1) if c else [1, d - 1])
    return out


def test_listings_match_the_unpruned_oracle():
    """The listings step only onto live states, and on every skew pair of
    shapes(6) they list what the unpruned walk lists: the same tableaux in
    the same order, and for realize_s the same terms in the same order.  The
    counts of tableaux and terms show that every listing is exercised."""
    listed = [0, 0, 0]
    for lam, mu in skew_pairs(6):
        got = dot_standard_tableaux(lam, mu)
        assert got == tableau_oracle.dot_standard_tableaux(lam, mu), (lam, mu)
        listed[0] += len(got)
        for weight in weights(lam, mu):
            got = enumerate_s_tableaux(lam, mu, weight)
            want = tableau_oracle.enumerate_s_tableaux(lam, mu, weight)
            assert got == want, (lam, mu, weight)
            listed[1] += len(got)
        for nvars in (2, 3):
            got = realize_s(lam, mu, nvars)
            want = tableau_oracle.realize_s(lam, mu, nvars)
            assert list(got.terms.items()) == list(want.terms.items()), (lam, mu)
            listed[2] += len(got.terms)
    assert listed == [2858, 1409, 6618]


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


@settings(max_examples=25, deadline=None)
@given(skew_shapes())
def test_random_listings_up_to_seven(shape):
    """The listings against the unpruned oracle on skew shapes beyond
    shapes(6): the same tableaux and terms, in the same order, bosonic
    k-strips included."""
    lam, mu = shape
    want = tableau_oracle.dot_standard_tableaux(lam, mu)
    assert dot_standard_tableaux(lam, mu) == want
    for weight in weights(lam, mu):
        want = tableau_oracle.enumerate_s_tableaux(lam, mu, weight)
        assert enumerate_s_tableaux(lam, mu, weight) == want, weight
    got, want = realize_s(lam, mu, 2), tableau_oracle.realize_s(lam, mu, 2)
    assert list(got.terms.items()) == list(want.terms.items())


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
    """The strips over every diagram state of shapes(7), of at most each
    size an outer shape of shapes(7) leaves room for, read through the
    package's _strip_vectors and _strips, against the generator the package
    had before, which filtered every row-room vector: same tuples, same
    order."""
    universe = shapes(7)
    # at least one cell, so that every state's one-cell strips are checked
    cases = {
        (mu, max(lam.degree - mu.degree, 1))
        for lam in universe
        for mu in universe
        if lam.contains(mu)
    }
    for (star, rows), most in cases:
        vectors = superschur._strip_vectors(star, most)
        for dotted in (False, True):
            want = [
                (len(cells), new, new_rows, idx)
                for new, new_rows, cells, idx in strip_oracle._strips(
                    star, rows, range(most + 1), dotted
                )
            ]
            got = list(superschur._strips(vectors, rows, dotted))
            assert got == want, (star, rows, most, dotted)


def reached(table, inner):
    """The states of a _live_moves table that its moves reach from inner."""
    seen = {inner} if inner in table else set()
    stack = list(seen)
    while stack:
        cells, dotted = table[stack.pop()]
        for state in [m[:2] for m in cells] + [m[1:3] for m in dotted]:
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return seen


def assert_same_live_moves(lam, mu):
    """The backward table holds every live state of the forward oracle with
    the same moves in the same order, and the states it reaches from mu are
    those live states, outer included; returns the number of states it holds
    that mu cannot reach."""
    oracle = live_oracle.live_moves(lam, mu)
    live = {s: m for s, m in oracle.items() if m is not live_oracle._DEAD}
    table = _livetable._live_moves(lam, mu)
    for state, (cells, dotted) in live.items():
        assert table[state] == (list(cells), list(dotted)), (lam, mu, state)
    assert reached(table, tuple(mu)) | {tuple(lam)} == set(live), (lam, mu)
    return len(table) - len(live)


def test_backward_table_matches_the_forward_oracle():
    """On every straight shape of degree <= 9 with at most four circles the
    backward table holds exactly the oracle's live states, and on every skew
    pair of shapes(6) every state the walks can enter, each with the
    oracle's moves in the oracle's order.  A skew table may also hold live
    states above inner that inner cannot reach; no walk enters them."""
    straight = [lam for d in range(10) for m in range(5) for lam in superpartitions(d, m)]
    assert len(straight) == 822
    for lam in straight:
        assert assert_same_live_moves(lam, EMPTY_SHAPE) == 0, lam
    unreached = sum(assert_same_live_moves(lam, mu) for lam, mu in skew_pairs(6))
    assert unreached == 1421


def test_backward_table_expands_no_dead_state():
    """The backward table holds only live states: 32 on (2,1,0;3), where the
    forward oracle's table holds 89 states, 57 of them dead, and 12 on
    (3,1;2), where it holds 79, 67 of them dead."""
    for text, held, oracle_held, dead in (("(2,1,0;3)", 32, 89, 57), ("(3,1;2)", 12, 79, 67)):
        lam = Superpartition.parse(text)
        oracle = live_oracle.live_moves(lam, EMPTY_SHAPE)
        assert len(oracle) == oracle_held, text
        assert sum(m is live_oracle._DEAD for m in oracle.values()) == dead, text
        table = _livetable._live_moves(lam, EMPTY_SHAPE)
        assert len(table) == held == oracle_held - dead, text


def test_builders_match_the_removals_oracle():
    """The backward table's builders against the oracle that lists every
    removable strip and files it by the row of its new circle: on every star
    of at most ten cells, every inner star of shapes(3) inside it and every
    circle row u, _corners gives the oracle's one-cell strips and
    _circle_strips the oracle's strips of row u, as sorted lists.  The
    counts (one-cell strips, strips, rows) show that every kind of strip is
    compared."""
    inners = sorted({mu.star() for mu in shapes(3)})
    compared = [0, 0, 0]
    for n in range(11):
        for star in superschur.partitions_of(n):
            for inner in inners:
                if len(inner) > len(star) or any(map(int.__gt__, inner, star)):
                    continue
                cells, by_row = live_oracle._removals(star, inner)
                assert set(by_row) <= set(range(1, len(star) + 2)), (star, inner)
                got = _livetable._corners(star, inner)
                assert sorted(got) == sorted(cells), (star, inner)
                compared[0] += len(got)
                for u in range(1, len(star) + 2):
                    got = _livetable._circle_strips(star, inner, u)
                    assert sorted(got) == sorted(by_row.get(u, [])), (star, inner, u)
                    compared[1] += len(got)
                    compared[2] += 1
    assert compared == [1764, 7115, 4248]


def count_builds(monkeypatch):
    """Record every star the live table's builders, _corners and
    _circle_strips, and the forward _strip_vectors are called on."""
    built = {"corners": [], "strips": [], "vectors": []}
    corners, strips = _livetable._corners, _livetable._circle_strips
    vectors = superschur._strip_vectors

    def count_corners(star, inner):
        built["corners"].append(star)
        return corners(star, inner)

    def count_strips(star, inner, u):
        built["strips"].append((star, u))
        return strips(star, inner, u)

    def count_vectors(star, *args):
        built["vectors"].append(star)
        return vectors(star, *args)

    monkeypatch.setattr(_livetable, "_corners", count_corners)
    monkeypatch.setattr(_livetable, "_circle_strips", count_strips)
    monkeypatch.setattr(superschur, "_strip_vectors", count_vectors)
    return built


def test_walk_builds_each_star_once_per_call(monkeypatch):
    """One schur_to_L call builds the corners of each star it meets once,
    and the strips of each (star, circle row) a state holds once, however
    many diagram states share them, and builds no forward strip vectors;
    the next call builds the same tables again, so no table outlives a
    call."""
    lam = Superpartition((3, 1, 0), (2, 1))
    want = enumerated(lam)
    built = count_builds(monkeypatch)
    assert schur_to_L(lam) == want
    first = {name: list(seen) for name, seen in built.items()}
    assert first["vectors"] == []
    states = len(_livetable._live_moves(lam, EMPTY_SHAPE))
    for name in ("corners", "strips"):
        assert len(first[name]) == len(set(first[name])), name
        # many diagram states share a star, and each reads the star's one build
        assert 0 < len(first[name]) < states, name
    for seen in built.values():
        seen.clear()
    assert schur_to_L(lam) == want
    assert built == first


def test_term_order_is_pinned():
    """schur_to_L's terms, with their coefficients and in their order, on
    every skew pair of shapes(6), straight shapes included: the blake2b
    digest was taken before the walk keyed its suffixes as packed
    integers."""
    digest = hashlib.blake2b(digest_size=32)
    for lam, mu in skew_pairs(6):
        digest.update(repr(list(schur_to_L(lam, mu).terms.items())).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "9fdae1ad01277b95c5a1c58484832c53135df28bb9d39c305321c902cea558a6"
    )


def test_term_order_is_pinned_to_degree_seven():
    """schur_to_L's terms, with their coefficients and in their order, on
    the 311 shapes of DEGREE_7, a universe larger than the bench's, whose
    degree-7 shapes have one circle: the blake2b digest was taken before the
    decode built parts lazily and skipped zero coefficients itself."""
    assert len(DEGREE_7) == 311
    digest = hashlib.blake2b(digest_size=32)
    for lam in DEGREE_7:
        digest.update(repr(list(schur_to_L(lam).terms.items())).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "95e2b0848ca45b82813d2f67971776a4287026b8fed9827cb1646becc0b3ae5f"
    )


def test_tableau_listing_builds_each_star_once_per_call(monkeypatch):
    """dot_standard_tableaux reads every step from the call's live table: a
    call builds each star's corners and each (star, circle row)'s strips at
    most once, builds no forward strip vectors, and the next call builds the
    same tables again.  The digest pins the 290 tableaux of the listing,
    tableau for tableau and in order."""
    lam = Superpartition((3, 1, 0), (2, 1))
    built = count_builds(monkeypatch)
    tabs = dot_standard_tableaux(lam, EMPTY_SHAPE)
    first = {name: list(seen) for name, seen in built.items()}
    assert first["vectors"] == []
    for name in ("corners", "strips"):
        assert 0 < len(first[name]) == len(set(first[name])), name
    for seen in built.values():
        seen.clear()
    assert dot_standard_tableaux(lam, EMPTY_SHAPE) == tabs
    assert built == first
    assert len(tabs) == 290
    listing = repr([tuple(tab) for tab in tabs]).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "408cd7aff6efbf63a8651cd1c19d3bea364d072ffa7f0685b61a9c7fc22f38fc"
    )


def test_tableau_walk_stays_inside_the_outer_shape(monkeypatch):
    """Every step the tableau walk takes lands inside the outer shape: no
    step adds a cell past it, nor a circle beyond its own circles."""
    lam = Superpartition((3, 1, 0), (2, 1))
    reached = []
    step = superschur._step

    def record(*args):
        found = step(*args)
        reached.append(found[0])
        return found

    monkeypatch.setattr(superschur, "_step", record)
    assert len(dot_standard_tableaux(lam, EMPTY_SHAPE)) == 290
    assert lam in reached
    assert all(lam.contains(target) for target in reached)


def test_standardize_builds_only_the_sizes_its_steps_use(monkeypatch):
    """A step's cells fix its strip, so standardize checks the one vector
    that adds them, of at most the step's size: one build of one vector per
    step, where building each star's strips up to the tableau's largest step
    took 1,490 builds of 6,646 vectors in all for the first listing below,
    and 1,883 of 5,456 for the second.  Every tableau of these listings is
    dot-standard, so standardize gives it back; the digests, taken before the
    change, pin the standardized tableaux in order."""
    vectors = superschur._strip_vectors
    cases = [
        ((3, 1, 0), (2, 1), 1690,
         "408cd7aff6efbf63a8651cd1c19d3bea364d072ffa7f0685b61a9c7fc22f38fc"),
        ((0,), (4, 3), 1981,
         "3b23fea0e8352396f8d37ae5d45db2418ce0515f0742717dc0448f1eca22a2d1"),
    ]
    for fermionic, bosonic, n_steps, digest in cases:
        tabs = dot_standard_tableaux(Superpartition(fermionic, bosonic), EMPTY_SHAPE)
        builds = []
        largest = None

        def count_vectors(star, most, only=None):
            assert most <= largest, (star, most, largest)
            found = vectors(star, most, only)
            builds.append(len(found))
            return found

        monkeypatch.setattr(superschur, "_strip_vectors", count_vectors)
        std = []
        for tab in tabs:
            largest = max(p.value for p in tab.weight)
            std.append(standardize(tab))
        monkeypatch.undo()
        assert std == tabs
        assert n_steps == sum(len(tab.weight) for tab in tabs)
        assert (len(builds), sum(builds)) == (n_steps, n_steps), fermionic
        listing = repr([tuple(tab) for tab in std]).encode()
        assert hashlib.sha256(listing).hexdigest() == digest


def test_standardize_refuses_a_step_past_the_outer_shape():
    """standardize builds each step with no cap, so a step past the outer
    shape, a cell beyond its rows or a circle beyond its circles, is caught
    by the final check: stars and circles never shrink."""
    sp = Superpartition.parse
    one, dot = DottedPart(1, False), DottedPart(0, True)
    cases = [
        # the second cell widens row 1 past outer, though the degree fits
        ("(;1,1)", (one, one), (((1, 1), 1), ((1, 2), 2))),
        # the d0 adds a circle outer does not have
        ("(;1)", (one, dot), (((1, 1), 1),)),
    ]
    for text, weight, cells in cases:
        outer = sp(text)
        tab = superschur.STableau(EMPTY_SHAPE, outer, (), weight, cells, ())
        with pytest.raises(ValueError):
            standardize(tab)


def recording_functools(calls):
    """A stand-in for superschur's functools whose cache records, under each
    memoized function's name, every result the function computes: one entry
    per state a memoized walk enters."""

    def cache(f):
        seen = calls.setdefault(f.__name__, [])

        def record(*args):
            out = f(*args)
            seen.append(out)
            return out

        return functools.cache(record)

    return types.SimpleNamespace(cache=cache)


def test_counting_walk_enters_only_live_states(monkeypatch):
    """schur_to_L steps only onto states from which the outer shape can be
    reached, so every walk state it enters counts a suffix: 18 states on
    (3,1;2), where the walk that did not prune entered 162, 144 of them
    empty.  On every skew pair of shapes(5) only an inner shape that cannot
    reach the outer one is entered empty, and then it is the only state."""
    calls = {}
    monkeypatch.setattr(superschur, "functools", recording_functools(calls))
    lam = Superpartition((3, 1), (2,))
    assert schur_to_L(lam) == enumerated(lam)
    assert len(calls["walk"]) == 18
    assert all(free or glued for free, glued in calls["walk"])
    for lam, mu in skew_pairs(5):
        calls.clear()
        schur_to_L(lam, mu)
        entered = calls["walk"]
        assert all(free or glued for free, glued in entered) or len(entered) == 1


def test_listing_walk_enters_only_frames_on_listed_chains(monkeypatch):
    """Every frame of the listing walk lies on a chain that ends at the outer
    shape, so a listing enters at most one plus the summed chain lengths of
    its tableaux frames; the walk that did not prune entered 320,940 for the
    920 tableaux of (4,2,0;3,1).  The digests, taken before the walk pruned,
    pin both listings tableau for tableau and in order."""
    walk = superschur._walk
    frames = []

    def count_frames(outer, inner, menu):
        def counted(sp, weight, sizes):
            frames.append(sp)
            return menu(sp, weight, sizes)

        return walk(outer, inner, counted)

    monkeypatch.setattr(superschur, "_walk", count_frames)
    cases = [
        ((4, 2, 0), (3, 1), 920,
         "f0f7d8897d2659c2a38658e8623b3e17ba39440a46fa94bd6dfd729ed08fe70f"),
        ((3, 1), (3, 2, 1), 1106,
         "4f929fc457250839a01e28677134f4c53fcb429d3f35a7451a9af04b5db6e5a2"),
    ]
    for fermionic, bosonic, n_tabs, digest in cases:
        frames.clear()
        tabs = dot_standard_tableaux(Superpartition(fermionic, bosonic), EMPTY_SHAPE)
        assert len(tabs) == n_tabs
        assert len(frames) <= 1 + sum(len(tab.chain) for tab in tabs), fermionic
        listing = repr([tuple(tab) for tab in tabs]).encode()
        assert hashlib.sha256(listing).hexdigest() == digest


def test_listing_walk_runs_past_the_recursion_limit():
    """The listing walk keeps its frames on a stack of its own, so a
    1,200-cell row, one letter per cell, lists its one tableau under the
    interpreter's recursion limit."""
    assert sys.getrecursionlimit() < 1200
    row = Superpartition((), (1200,))
    tabs = enumerate_s_tableaux(row, EMPTY_SHAPE, [1] * 1200)
    assert len(tabs) == 1
    assert tabs[0].cells == tuple(((1, c), c) for c in range(1, 1201))
    assert tabs[0].chain[-1] == row


def test_listings_ask_only_for_dotted_sizes_the_state_moves_by(monkeypatch):
    """dot_standard_tableaux and realize_s offer a frame only the dotted
    sizes of its state's dotted moves, so every dotted part the walk asks
    steps for has one.  Offering every size up to the cells left made
    (3,2,1,0;2,1) ask 7,032 times, and a 1,200-cell row 721,800 times, for a
    dotted size the state has no move of."""
    steps = superschur._steps
    empty = []

    def counted(live, sp, part):
        found = steps(live, sp, part)
        if part.dotted and not found:
            empty.append((sp, part))
        return found

    monkeypatch.setattr(superschur, "_steps", counted)
    shape = Superpartition((3, 2, 1, 0), (2, 1))
    assert len(dot_standard_tableaux(shape, EMPTY_SHAPE)) == 1980
    assert realize_s(Superpartition((2, 0), (2, 1)), EMPTY_SHAPE, 4).terms
    row = Superpartition((), (1200,))
    assert len(dot_standard_tableaux(row, EMPTY_SHAPE)) == 1
    assert empty == []


def test_schur_walk_lists_no_tableaux(monkeypatch):
    """schur_to_L counts the tableaux: it takes no listing step and calls no
    listing."""
    def refuse(*args):
        raise AssertionError("schur_to_L listed strips or tableaux")

    lam, mu = Superpartition((3, 1), (3, 2, 1)), Superpartition((0,), (1,))
    want = enumerated(lam, mu)
    for name in ("_steps", "_step", "dot_standard_tableaux"):
        monkeypatch.setattr(superschur, name, refuse)
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
