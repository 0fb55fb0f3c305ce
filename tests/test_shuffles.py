import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import classical_oracle as co
from superqsym.composition import DottedPart, comp, compositions_of
from superqsym.shuffles import (
    DottedPermutation,
    comp_of_word,
    fundamental_paths,
    overlapping_shuffles,
    path_word,
    represent,
    word,
)


def all_representatives(alpha, start=1):
    """Every w on {start..start+N-1} representing alpha."""
    n = sum(p.value for p in alpha.parts if not p.dotted)
    out = []
    for perm in itertools.permutations(range(start, start + n)):
        it = iter(perm)
        entries = []
        for p in alpha.parts:
            if p.dotted:
                entries.append(DottedPart(p.value, True))
            else:
                entries.extend(DottedPart(next(it), False) for _ in range(p.value))
        w = DottedPermutation(entries)
        if comp_of_word(w) == alpha:
            out.append(w)
    return out


class TestDottedPermutation:
    def test_repeated_nondotted_rejected(self):
        with pytest.raises(ValueError):
            word(3, 3)

    def test_repeated_dotted_allowed(self):
        # grid words like [d1,d1] arise in products and cancel in pairs
        word("d1", "d1")

    def test_size(self):
        assert word(6, 7, 8, "d6", "d3", 9).size == 6

    def test_malformed_entries_rejected_when_built(self):
        # entries are read as composition parts: non-dotted >= 1, dotted >= 0
        with pytest.raises(ValueError):
            word(0)
        with pytest.raises(ValueError):
            word("d-1")
        with pytest.raises(ValueError):
            represent(comp(2), 0)


class TestCompOfWord:
    def test_paper_example(self):
        w = word(6, 7, 8, "d6", "d3", 9, 10, 3, "d1", 2, 4)
        assert w.undotted() == (6, 7, 8, 9, 10, 3, 2, 4)
        assert comp_of_word(w) == comp(3, "d6", "d3", 2, 1, "d1", 2)

    def test_second_representative(self):
        w = word(6, 7, 9, "d6", "d3", 8, 10, 1, "d1", 2, 3)
        assert comp_of_word(w) == comp(3, "d6", "d3", 2, 1, "d1", 2)

    def test_no_descents(self):
        assert comp_of_word(word(1, 2, 3)) == comp(3)

    def test_trailing_dotted(self):
        assert comp_of_word(word(1, "d2")) == comp(1, "d2")
        assert comp_of_word(word("d1", "d2")) == comp("d1", "d2")


class TestRepresent:
    def test_paper_examples(self):
        assert represent(comp("d1", 2), 1) == word("d1", 1, 2)
        assert represent(comp("d2", 1), 3) == word("d2", 3)
        assert represent(comp("d2", "d3", 3), 5) == word("d2", "d3", 5, 6, 7)

    def test_round_trip(self):
        for total in range(7):
            for m in range(total + 1):
                for alpha in compositions_of(total - m, m):
                    for start in (1, 5):
                        assert comp_of_word(represent(alpha, start)) == alpha

    @given(st.integers(min_value=1, max_value=50))
    def test_round_trip_shifted_start(self, start):
        alpha = comp(2, "d0", 1, 1, "d2")
        assert comp_of_word(represent(alpha, start)) == alpha


class TestOverlappingShuffles:
    def test_classical_one_by_one(self):
        got = Counter(overlapping_shuffles(comp(2), comp(5)))
        assert got == Counter(
            {(comp(2, 5), 1): 1, (comp(5, 2), 1): 1, (comp(7), 1): 1}
        )

    def test_doubly_dotted_cell(self):
        got = overlapping_shuffles(comp("d1"), comp("d2"))
        assert Counter(got) == Counter(
            {(comp("d1", "d2"), 1): 1, (comp("d2", "d1"), -1): 1}
        )

    def test_empty_factor(self):
        beta = comp(3, "d1")
        assert overlapping_shuffles(comp(), beta) == [(beta, 1)]
        assert overlapping_shuffles(beta, comp()) == [(beta, 1)]

    def test_matches_classical_quasi_shuffle(self):
        for na in range(4):
            for nb in range(4 - na):
                for a in compositions_of(na, 0):
                    for b in compositions_of(nb, 0):
                        got = {}
                        for g, s in overlapping_shuffles(a, b):
                            got[g] = got.get(g, 0) + s
                        got = {k: v for k, v in got.items() if v}
                        want = co.quasi_shuffle(
                            tuple(p.value for p in a.parts),
                            tuple(p.value for p in b.parts),
                        )
                        assert {
                            comp(*k): int(v) for k, v in want.items()
                        } == got


class TestFundamentalPaths:
    def test_figure_two_path(self):
        w_alpha = word(4, 3, "d3", 2, 6)
        w_beta = word(8, "d0", 7)
        steps = [("H",), ("H",), ("V",), ("H",), ("D4", 2), ("V",)]
        pi = path_word(w_alpha, w_beta, steps)
        assert pi == word(4, 3, 8, "d3", "d2", 7)
        assert comp_of_word(pi) == comp(1, 2, "d3", "d2", 1)
        # the same path appears in the full enumeration over this grid
        results = fundamental_paths(
            comp_of_word(w_alpha), comp_of_word(w_beta), w_alpha, w_beta
        )
        matches = [r for r in results if r.path.steps == tuple(steps)]
        assert len(matches) == 1
        assert matches[0].word == pi
        assert matches[0].gamma == comp(1, 2, "d3", "d2", 1)

    def test_figure_four_path(self):
        w_alpha = word("d1", 1, 2, 3, 4)
        w_beta = word("d2", "d3", 5, 6, 7)
        steps = [("H",), ("V",), ("D4", 2), ("H",), ("H",), ("V",), ("V",), ("V",)]
        pi = path_word(w_alpha, w_beta, steps)
        assert pi == word("d1", "d2", "d5", 3, 4, 5, 6, 7)
        assert comp_of_word(pi) == comp("d1", "d2", "d5", 5)

    def test_empty_alpha(self):
        beta = comp("d2", 1)
        results = fundamental_paths(comp(), beta)
        assert len(results) == 1
        assert results[0].gamma == beta
        assert results[0].sign == 1

    def test_path_word_must_reach_corner(self):
        with pytest.raises(ValueError):
            path_word(word(1), word(2), [("H",)])

    def test_example_4_3_signed_multiset(self):
        results = fundamental_paths(comp("d1", 2), comp("d2", 1))
        counted = Counter((r.gamma, r.sign) for r in results)
        assert sum(counted.values()) == 15
        negatives = {g for (g, s) in counted if s == -1}
        assert negatives == {
            comp("d2", "d1", 3),
            comp("d2", "d1", 2, 1),
            comp("d2", "d1", 1, 2),
            comp("d2", 1, "d1", 2),
            comp("d2", "d2", 2),
        }

    def test_representative_independence(self):
        rng = random.Random(20240811)
        pairs = []
        for ta in range(5):
            for tb in range(5 - ta):
                for ma in range(ta + 1):
                    for mb in range(tb + 1):
                        for a in compositions_of(ta - ma, ma):
                            for b in compositions_of(tb - mb, mb):
                                pairs.append((a, b))
        for a, b in pairs:
            n_a = sum(p.value for p in a.parts if not p.dotted)
            reps_a = all_representatives(a, 1)
            reps_b = all_representatives(b, n_a + 1)
            reference = Counter(
                (r.gamma, r.sign) for r in fundamental_paths(a, b)
            )
            samples = [(rng.choice(reps_a), rng.choice(reps_b)) for _ in range(2)]
            for wa, wb in samples:
                got = Counter(
                    (r.gamma, r.sign)
                    for r in fundamental_paths(a, b, wa, wb)
                )
                assert got == reference, (a, b, wa, wb)

    def test_overlapping_representatives_rejected(self):
        # path words are built unchecked, so the two words are checked once
        with pytest.raises(ValueError, match="pairwise distinct"):
            fundamental_paths(comp("d1", 1), comp(1), word("d1", 1), word(1))

    def test_classical_degeneration(self):
        # no dots: exactly the classical shuffles, all signs +1
        for na in range(1, 4):
            for nb in range(1, 5 - na):
                for a in compositions_of(na, 0):
                    for b in compositions_of(nb, 0):
                        results = fundamental_paths(a, b)
                        assert all(r.sign == 1 for r in results)
                        got = Counter(r.gamma for r in results)
                        want = co.fundamental_product(
                            tuple(p.value for p in a.parts),
                            tuple(p.value for p in b.parts),
                        )
                        assert {comp(*k): int(v) for k, v in want.items()} == dict(
                            got
                        )

    def test_path_json(self):
        results = fundamental_paths(comp("d1"), comp(1))
        for r in results:
            data = r.path.to_json()
            assert all(isinstance(step, list) for step in data)


class TestOverlappingOracle:
    def test_signed_sum_matches_polynomials(self):
        # module invariant: combined total degree <= 5, fermionic <= 2
        from superqsym.realize import poly_mul, realize_expr, realize_M
        from superqsym.algebra import Expr
        from fractions import Fraction

        singles = [
            a
            for n in range(6)
            for m in range(3)
            for a in compositions_of(n, m)
        ]
        for a in singles:
            for b in singles:
                if (
                    a.total_degree + b.total_degree > 5
                    or a.fermionic_degree + b.fermionic_degree > 2
                ):
                    continue
                nvars = (
                    a.total_degree
                    + a.fermionic_degree
                    + b.total_degree
                    + b.fermionic_degree
                )
                acc = {}
                for gamma, sign in overlapping_shuffles(a, b):
                    acc[gamma] = acc.get(gamma, Fraction(0)) + sign
                lhs = realize_expr(Expr("M", acc), nvars)
                rhs = poly_mul(realize_M(a, nvars), realize_M(b, nvars))
                assert lhs == rhs, (a, b)
