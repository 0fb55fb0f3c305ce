import pytest
from hypothesis import given, settings, strategies as st

from superqsym.composition import (
    EMPTY,
    CompositionParseError,
    DottedComposition,
    DottedPart,
    InconsistentDefSetsError,
    classify,
    column_decomposition,
    comp,
    compositions_of,
    def_sets,
    from_def_sets,
    is_column,
    is_maximal,
    maximal_strong_coarsening,
    near_concat,
    near_concat_list,
    parse_composition,
    strong_leq,
    strong_refinements,
    universe,
    weak_coarsenings,
    weak_leq,
    weak_refinements,
)
from superqsym.shuffles import DottedPermutation

RUNNING_EXAMPLE = comp(2, 3, "d1", "d2", 4, "d1", "d0", 2, "d1")


@st.composite
def dotted_compositions(draw, max_total=6):
    total = draw(st.integers(min_value=0, max_value=max_total))
    parts = []
    remaining = total
    while remaining > 0:
        dotted = draw(st.booleans())
        if dotted:
            v = draw(st.integers(min_value=0, max_value=remaining - 1))
            parts.append(f"d{v}")
            remaining -= v + 1
        else:
            v = draw(st.integers(min_value=1, max_value=remaining))
            parts.append(v)
            remaining -= v
    return DottedComposition(parts)


class TestBasics:
    def test_degrees(self):
        assert comp(2, "d3", "d1").degrees() == (6, 2)
        assert EMPTY.degrees() == (0, 0)
        assert RUNNING_EXAMPLE.degrees() == (16, 5)

    def test_eta(self):
        assert comp(2, "d3", 1).eta() == (0, 1, 0)

    def test_part_validation(self):
        with pytest.raises(ValueError):
            comp(0)
        with pytest.raises(ValueError):
            comp("d-1")
        comp("d0")  # legal

    def test_bools_and_fractions_are_not_parts(self):
        # True is not read as 1, and a fractional value is not truncated
        with pytest.raises(TypeError):
            comp(True)
        with pytest.raises(TypeError):
            comp((True, False))
        with pytest.raises(ValueError):
            comp((2.5, False))
        with pytest.raises(ValueError):
            comp((1.5, True))
        assert comp((2.0, False), (3, True)) == comp(2, "d3")

    def test_dot_flag_is_a_bool_or_0_or_1(self):
        # a truthy object is not read as a dot
        for flag in ("False", None, 2, 1.0, "d"):
            with pytest.raises(TypeError):
                comp((2, flag))
        assert comp((2, 1), (3, 0), (0, True)) == comp("d2", 3, "d0")

    def test_text_round_trip(self):
        for text in ("[]", "[d0]", "[2,d3,1]", "[1,1,d5,1,1,1]"):
            assert str(parse_composition(text)) == text

    def test_parse_errors_carry_position(self):
        with pytest.raises(CompositionParseError) as err:
            parse_composition("[2,,1]")
        assert err.value.position == 3
        with pytest.raises(CompositionParseError):
            parse_composition("2,3")
        with pytest.raises(CompositionParseError):
            parse_composition("[2] trailing")

    @pytest.mark.parametrize(
        "text, position",
        [("[\u00b2]", 1), ("[\u0663]", 1), ("[2,d\u0661]", 4), ("[1\u00b2]", 2)],
    )
    def test_parse_reads_ascii_digits_only(self, text, position):
        # '²' and the Arabic-Indic digits pass str.isdigit; only 0-9 are parts
        with pytest.raises(CompositionParseError) as err:
            parse_composition(text)
        assert err.value.position == position

    def test_latex(self):
        assert comp(2, "d3", 1).latex() == r"(2,\dot{3},1)"

    def test_json_round_trip(self):
        a = comp(2, "d0", 1)
        assert DottedComposition.from_json(a.to_json()) == a


class TestDefSets:
    def test_running_example(self):
        s = def_sets(RUNNING_EXAMPLE)
        assert sorted(s.D) == [2, 5, 7, 10, 14, 16, 17, 19]
        assert sorted(s.E) == [6, 8, 9, 15, 20]
        assert sorted(s.F) == [7, 10, 16, 17, 21]
        assert sorted(s.Fminus) == [7, 10, 16, 17]

    def test_small_example(self):
        s = def_sets(comp(2, "d3", 1))
        assert sorted(s.D) == [2, 6]
        assert sorted(s.E) == [3, 4, 5]
        assert sorted(s.F) == [6]

    def test_single_part(self):
        s = def_sets(comp(5))
        assert not s.D and not s.E and not s.F

    def test_invariants(self):
        for alpha in universe(5):
            s = def_sets(alpha)
            assert not (s.D & s.E)
            assert s.Fminus <= s.D
            assert s.Fminus in (s.F, s.F - {max(s.F)} if s.F else s.F)

    def test_from_def_sets_examples(self):
        assert from_def_sets(6, 1, {2, 6}, {6}) == comp(2, "d3", 1)
        assert from_def_sets(4, 0, set(), set()) == comp(4)
        s = def_sets(RUNNING_EXAMPLE)
        assert from_def_sets(16, 5, s.D, s.F) == RUNNING_EXAMPLE

    def test_from_def_sets_errors(self):
        with pytest.raises(InconsistentDefSetsError):
            from_def_sets(2, 1, set(), set())  # wrong F size
        with pytest.raises(InconsistentDefSetsError):
            from_def_sets(2, 1, {1}, {2})  # 2 not in D and not the endpoint
        with pytest.raises(InconsistentDefSetsError):
            from_def_sets(2, 0, {5}, set())  # D out of range

    def test_from_def_sets_negative_bidegree(self):
        with pytest.raises(InconsistentDefSetsError):
            from_def_sets(-1, 0, [], [])
        with pytest.raises(InconsistentDefSetsError):
            from_def_sets(1, -1, [], [])

    def test_round_trip_exhaustive(self):
        # spec bound: everything with n + m <= 8
        for total in range(9):
            for m in range(total + 1):
                for alpha in compositions_of(total - m, m):
                    s = def_sets(alpha)
                    assert from_def_sets(total - m, m, s.D, s.F) == alpha

    @given(dotted_compositions())
    def test_round_trip_hypothesis(self, alpha):
        n, m = alpha.degrees()
        s = def_sets(alpha)
        assert from_def_sets(n, m, s.D, s.F) == alpha


class TestOrders:
    def test_strong_examples(self):
        assert strong_leq(comp(1, 1, "d3", 2, 1, 1), comp(2, "d3", 2, 2))
        assert not strong_leq(comp(2, 3, 1, "d0", 4), comp(2, 3, "d1", 4))
        a = comp(1, "d2", 3)
        assert strong_leq(a, a)

    def test_weak_examples(self):
        assert weak_leq(comp(1, 1, "d2", 2, "d3"), comp("d4", 2, "d3"))
        assert weak_leq(comp(1, 1, "d2", 2, "d3"), comp(2, "d2", "d5"))
        assert not weak_leq(comp("d2", "d3"), comp("d5"))

    def test_cross_degree_is_false(self):
        assert not strong_leq(comp(1), comp(2))
        assert not weak_leq(comp("d1"), comp(1))

    def test_strong_implies_weak(self):
        # spec bound n + m <= 6; grouped by bidegree since orders preserve it
        for total in range(7):
            for m in range(total + 1):
                elems = compositions_of(total - m, m)
                for a in elems:
                    for b in strong_refinements(a):
                        assert weak_leq(b, a)

    def test_partial_order_axioms(self):
        for total in range(6):
            for m in range(total + 1):
                elems = compositions_of(total - m, m)
                for rel in (strong_leq, weak_leq):
                    below = {a: {b for b in elems if rel(b, a)} for a in elems}
                    for a in elems:
                        assert a in below[a]
                        for b in below[a]:
                            if a in below[b]:
                                assert a == b
                            assert below[b] <= below[a]

    def test_classical_agreement(self):
        # with no dots the two orders coincide and reduce to D-containment
        for alpha in compositions_of(5, 0):
            for beta in compositions_of(5, 0):
                strong = strong_leq(beta, alpha)
                assert strong == weak_leq(beta, alpha)
                assert strong == (def_sets(alpha).D <= def_sets(beta).D)


class TestEnumeration:
    def test_strong_refinements_match_scan(self):
        for total in range(6):
            for m in range(total + 1):
                elems = compositions_of(total - m, m)
                for a in elems:
                    assert set(strong_refinements(a)) == {
                        b for b in elems if strong_leq(b, a)
                    }

    def test_weak_refinements_match_scan(self):
        for total in range(5):
            for m in range(total + 1):
                elems = compositions_of(total - m, m)
                for a in elems:
                    assert set(weak_refinements(a)) == {
                        b for b in elems if weak_leq(b, a)
                    }

    def test_weak_coarsenings_match_scan(self):
        for total in range(5):
            for m in range(total + 1):
                elems = compositions_of(total - m, m)
                for a in elems:
                    assert set(weak_coarsenings(a)) == {
                        g for g in elems if weak_leq(a, g)
                    }

    def test_figure_one_posets(self):
        base = comp(1, 1, "d2", 1, 2)
        # left poset: 4 elements above in the strong order
        up_strong = {
            g for g in compositions_of(7, 1) if strong_leq(base, g)
        }
        assert up_strong == {
            comp(1, 1, "d2", 1, 2),
            comp(2, "d2", 1, 2),
            comp(1, 1, "d2", 3),
            comp(2, "d2", 3),
        }
        # right poset: 16 elements above in the weak order
        assert len(weak_coarsenings(base)) == 16

    def test_weak_coarsenings_examples(self):
        assert weak_coarsenings(comp("d1", "d2")) == (comp("d1", "d2"),)
        assert set(weak_coarsenings(comp(1, 1))) == {comp(1, 1), comp(2)}

    def test_strong_refinements_examples(self):
        assert set(strong_refinements(comp(3))) == {
            comp(3),
            comp(2, 1),
            comp(1, 2),
            comp(1, 1, 1),
        }
        assert strong_refinements(comp("d1")) == (comp("d1"),)
        # the down-set of (2,d2,3) factors over the non-dotted parts: 2*4 = 8
        assert len(strong_refinements(comp(2, "d2", 3))) == 8

    def test_enumeration_order_is_deterministic(self):
        refs = strong_refinements(comp(2, "d2", 3))
        assert refs == tuple(sorted(refs, key=DottedComposition.sort_key))

    def test_compositions_of_counts(self):
        # 2 * 3^(t-1) dotted compositions with n + m = t
        for t in range(1, 6):
            count = sum(len(compositions_of(t - m, m)) for m in range(t + 1))
            assert count == 2 * 3 ** (t - 1)


class TestStructure:
    def test_reverse_concat(self):
        a = comp(2, "d1")
        b = comp(3, 4)
        assert a.reverse() == comp("d1", 2)
        assert a.concat(b) == comp(2, "d1", 3, 4)
        assert EMPTY.reverse() == EMPTY
        # a composition is the tuple of its parts
        pair = (DottedPart(2, False), DottedPart(1, True))
        assert a == pair and hash(a) == hash(pair)
        assert type(a.parts) is tuple and a.parts == a
        assert type(a.concat(b)) is DottedComposition
        assert type(DottedComposition._of(pair)) is DottedComposition
        assert type(DottedPermutation._of(pair)) is DottedPermutation

    def test_near_concat(self):
        assert near_concat(comp(2, 1), comp(3, 4)) == comp(2, 4, 4)
        assert near_concat(comp(2, "d1"), comp(3, 4)) == comp(2, "d4", 4)
        assert near_concat(comp(2, "d1"), comp("d0", 4)) is None

    def test_column_decomposition_worked_example(self):
        # corrected fifth factor (1,1,1); the printed example drops a unit
        gamma = comp(2, "d0", 3, 1, "d3", 1, "d2", 2, 1, 3, "d0")
        factors = column_decomposition(gamma)
        assert factors == [
            comp(1),
            comp(1, "d0", 1),
            comp(1),
            comp(1, 1, "d3", 1, "d2", 1),
            comp(1, 1, 1),
            comp(1),
            comp(1, "d0"),
        ]
        assert near_concat_list(factors) == gamma

    def test_column_decomposition_trivials(self):
        assert column_decomposition(comp("d1")) == [comp("d1")]
        assert column_decomposition(comp(3)) == [comp(1), comp(1), comp(1)]
        assert column_decomposition(EMPTY) == []

    def test_column_decomposition_round_trip(self):
        for alpha in universe(6):
            factors = column_decomposition(alpha)
            assert all(is_column(f) for f in factors)
            if factors:
                assert near_concat_list(factors) == alpha
            # interior boundary entries are non-dotted units
            for i, f in enumerate(factors):
                if i > 0:
                    assert f.parts[0] == (1, False)
                if i < len(factors) - 1:
                    assert f.parts[-1] == (1, False)

    def test_classify(self):
        assert classify(comp(1, "d2", 4, "d5", "d4", 7, "d0", 2, "d3")).is_maximal
        c = classify(comp(1, "d2", 4, 2, "d5", "d4", 7, "d0", 2, "d3"))
        assert not c.is_maximal
        assert c.maximal_strong_coarsening == comp(
            1, "d2", 6, "d5", "d4", 7, "d0", 2, "d3"
        )
        assert classify(comp(1, 1, "d5", 1, 1, 1)).is_column
        assert not is_column(comp(2, "d1"))
        assert is_maximal(EMPTY) and is_column(EMPTY)

    def test_maximal_coarsening_is_strong_coarsening(self):
        for alpha in universe(5):
            m = maximal_strong_coarsening(alpha)
            assert is_maximal(m)
            assert strong_leq(alpha, m)
