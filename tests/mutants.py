"""A mutation run: do the tests catch small, plausible breaks of the code?

Each mutant below replaces one exact piece of text in one file of
src/superqsym with a wrong version, says why the change is wrong, and names
the test that kills it.  The runner copies src/, tests/, bench/refs/ (the
query catalogue that some tests read) and pyproject.toml into a temporary
directory.  For every mutant it applies that one change there and runs the
mutant's test in a fresh interpreter; only if that test passes does it run
the whole test subset named for the mutated file.  A failing test kills the
mutant; a passing subset lets it survive.  Each line reports the verdict,
whether the named test or only the subset killed it, and the time taken.
Every pytest child runs under a 2 GiB address-space limit, set in that child
only, so a mutant that runs away on a large input fails with MemoryError,
which kills it, and its line says so.
Before the mutants, every subset must pass on the unchanged copy, and so
must the named tests run together on their own.

    python tests/mutants.py

The exit code is 1 when a mutant survives, when its text no longer occurs
exactly once in its file, or when a subset or the named tests fail
unmutated.  The run uses only the standard library and pytest.  It stays out
of tier-1, whose collection reads test_*.py files only: each mutant starts
a fresh interpreter, and the whole run takes minutes."""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tests each mutated file runs against
SUBSETS = {
    "superschur.py": [
        "tests/test_schur_walk.py",
        "tests/test_superschur.py",
        "tests/test_cli_outputs.py",
    ],
    "_livetable.py": [
        "tests/test_schur_walk.py",
        "tests/test_superschur.py",
        "tests/test_cli_outputs.py",
    ],
    "hopf.py": ["tests/test_hopf.py"],
    "composition.py": [
        "tests/test_refinement_orders.py",
        "tests/test_composition.py",
    ],
    "shuffles.py": [
        "tests/test_shuffle_walk.py",
        "tests/test_shuffles.py",
        "tests/test_acceptance.py",
    ],
    "algebra.py": ["tests/test_algebra.py", "tests/test_render_writer.py"],
    "cli.py": ["tests/test_cli.py"],
    "realize.py": ["tests/test_realize.py"],
}

# (file, old text, new text, why the new text is wrong, the test that kills it)
MUTANTS = [
    (
        "superschur.py",
        "row <= last else free",
        "row < last else free",
        "a non-dotted run whose first cell shares the prefix's last row glues",
        "tests/test_superschur.py::TestSchurToL::test_classical_match",
    ),
    (
        "superschur.py",
        "sign = -1 if below.bit_count() & 1 else 1",
        "sign = 1 if below.bit_count() & 1 else -1",
        "a new circle's sign is the parity of the filled circles below it",
        "tests/test_superschur.py::TestSchurToL::test_example_6_3",
    ),
    (
        "superschur.py",
        "stacked = [r for r in rows if r + 1 in rows]",
        "stacked = []",
        "a strip may not push a circle onto the circle in the row below",
        "tests/test_superschur.py::TestStrips::test_generate_matches_independent_checker",
    ),
    (
        "superschur.py",
        "        if not c:\n            continue\n",
        "",
        "a composition whose signed tableaux cancel is no term: no zero coefficient is stored",
        "tests/test_schur_walk.py::test_straight_shapes_up_to_six",
    ),
    (
        "_livetable.py",
        "if u <= len(add) and not add[u - 1] and",
        "if u <= len(add) and",
        "a circle stays only in a row the strip leaves alone, or one pushed onto it would stack",
        "tests/test_superschur.py::TestSchurToL::test_example_6_3",
    ),
    (
        "_livetable.py",
        "        if u > 1 and add[u - 2] and (u == 2 or under[u - 3] > under[u - 2]):\n"
        "            here.append(u - 1)\n",
        "",
        "a circle may have come down from the row above, where the strip has a cell",
        "tests/test_schur_walk.py::test_backward_table_expands_no_dead_state",
    ),
    (
        "superschur.py",
        "    found.sort(key=lambda t: (t[0].fermionic, t[0].bosonic))\n",
        "",
        "strips and tableaux are listed in the order of their targets",
        "tests/test_schur_walk.py::test_strips_match_the_filter",
    ),
    (
        "superschur.py",
        "if row <= last\n",
        "if row < last\n",
        "a bosonic k-strip may put several cells in one row, left to right",
        "tests/test_schur_walk.py::test_listing_walk_enters_only_frames_on_listed_chains",
    ),
    (
        "superschur.py",
        "for n, new, rows, idx in dotted if n == part.value]",
        "for n, new, rows, idx in dotted if n >= part.value]",
        "a dotted part dk is a fermionic strip of exactly k cells",
        "tests/test_schur_walk.py::test_tableau_walk_stays_inside_the_outer_shape",
    ),
    (
        "_livetable.py",
        "not add[u - 1] and (u == 1 or under[u - 2] > under[u - 1]):\n"
        "            here.append(u)\n"
        "        # the cell in the row above pushed it down\n"
        "        if u > 1 and add[u - 2] and (u == 2 or under[u - 3] > under[u - 2]):\n",
        "not add[u - 1]:\n"
        "            here.append(u)\n"
        "        # the cell in the row above pushed it down\n"
        "        if u > 1 and add[u - 2]:\n",
        "the live table holds diagrams only: each circle ends the topmost row of its length",
        "tests/test_schur_walk.py::test_backward_table_expands_no_dead_state",
    ),
    (
        "superschur.py",
        "letters.insert(idx, letter)",
        "letters.insert(0, letter)",
        "a new circle's letter goes in the circle's own slot from below",
        "tests/test_superschur.py::TestChainExample::test_circle_word_and_sign",
    ),
    (
        "superschur.py",
        "            for key, c in sub_glued.items():\n                key += 2\n",
        "            for key, c in sub_glued.items():\n",
        "a glued one-cell letter lengthens the suffix's first part by one",
        "tests/test_superschur.py::TestSchurToL::test_classical_s2",
    ),
    (
        "superschur.py",
        "free[key] = free.get(key, 0) + sign * c",
        "glued[key] = glued.get(key, 0) + sign * c",
        "a dotted letter starts a part of its own, so its suffixes count as free",
        "tests/test_superschur.py::TestSchurToL::test_example_6_3",
    ),
    (
        "_livetable.py",
        "room[-1] = range(max(padded[u - 1] + 1, low[u - 2]), star[u - 2] + 1)",
        "room[-1] = range(max(padded[u - 1], low[u - 2]), star[u - 2] + 1)",
        "old row u-1 is longer than new row u, or the new circle would end a row above u",
        "tests/test_schur_walk.py::test_builders_match_the_removals_oracle",
    ),
    (
        "_livetable.py",
        "if v > padded[j + 1] and v > low[j]:",
        "if v > padded[j + 1]:",
        "a corner removed from a row of inner's length leaves a star that does not hold inner",
        "tests/test_schur_walk.py::test_builders_match_the_removals_oracle",
    ),
    (
        "hopf.py",
        "return _same(left, {alpha: 1}) and _same(right, {alpha: 1})",
        "return _same(left, {alpha: 1})",
        "the counit axiom has a left and a right side",
        "tests/test_hopf.py::TestVerifySuite::test_sabotaged_op_is_detected[coproduct_L-right-counit]",
    ),
    (
        "hopf.py",
        "_same(_convolution(alpha, ops[basis], True), target) and _same(",
        "_same(_convolution(alpha, ops[basis], True), target) or _same(",
        "both convolutions of the antipode with the identity are the unit",
        "tests/test_hopf.py::TestVerifySuite::test_sabotaged_op_is_detected[overlapping_shuffles-one-convolution-side]",
    ),
    (
        "hopf.py",
        "if kernel in _MEMOS:",
        'if hasattr(kernel, "__wrapped__"):',
        "only the module memo itself is unwrapped; a replacement that keeps it is called",
        "tests/test_axiom_items.py::test_a_replaced_kernel_that_keeps_the_original_is_the_one_checked",
    ),
    (
        "hopf.py",
        "(alpha.length + comb(alpha.fermionic_degree, 2)) % 2",
        "(alpha.length + alpha.fermionic_degree) % 2",
        "the antipode's sign counts the C(m,2) swaps of the dotted parts, not m",
        "tests/test_hopf.py::TestAntipodeL::test_cross_route",
    ),
    (
        "hopf.py",
        "if (sum(map(len, columns)) + comb(alpha.fermionic_degree, 2)) % 2:",
        "if (len(alpha) + comb(alpha.fermionic_degree, 2)) % 2:",
        "both antipodes on L carry the sign of alpha^1, alpha with its plain parts split into ones",
        "tests/test_hopf.py::TestClassicalDegeneration::test_antipode_L_matches_classical",
    ),
    (
        "hopf.py",
        "c = -c1 * c2 if a_odd and b_odd else c1 * c2",
        "c = c1 * c2",
        "Delta(a)Delta(b) passes a2 over b1, a Koszul sign when both are odd",
        "tests/test_hopf.py::TestVerifySuite::test_small_universe_passes",
    ),
    (
        "hopf.py",
        "sign = -1 if odd[a] * odd[b] else 1",
        "sign = 1",
        "S(a . b) carries the sign (-1)^(m(a)m(b))",
        "tests/test_hopf.py::TestVerifySuite::test_small_universe_passes",
    ),
    (
        "hopf.py",
        "        sign = -sign\n",
        "",
        "S(a (.) b) carries the sign (-1)^(m(a)m(b)-1), the negated sign of S(a . b)",
        "tests/test_hopf.py::TestVerifySuite::test_report_json_shape",
    ),
    (
        "hopf.py",
        "            if not fused_only:\n"
        "                key = ids[u.concat(v)]\n"
        "                rhs[key] = get(key, 0) + c\n",
        "",
        "S(a . b) has a concatenated term S(b) . S(a) beside the fused one",
        "tests/test_hopf.py::TestVerifySuite::test_report_json_shape",
    ),
    (
        "hopf.py",
        "key = (u, v, b) if left else (a, u, v)",
        "key = (u, v, b)",
        "(id x Delta) splits the right factor, so the left one stays first in its key",
        "tests/test_hopf.py::TestVerifySuite::test_report_json_shape",
    ),
    (
        "shuffles.py",
        "flip = below[y] * cols[x].dotted & 1",
        "flip = 0",
        "an H move across a dotted column passes over the dotted rows below it",
        "tests/test_shuffles.py::TestFundamentalPaths::test_example_4_3_signed_multiset",
    ),
    (
        "shuffles.py",
        "x2 == w and y2 == h))",
        "x2 == w))",
        "a diagonal ends a path only at the far corner, not on the last column",
        "tests/test_shuffles.py::TestFundamentalPaths::test_figure_two_path",
    ),
    (
        "shuffles.py",
        "if not (a.dotted and b.dotted)",
        "if not a.dotted",
        "the M diagonal is barred only from cells whose labels are both dotted",
        "tests/test_acceptance.py::test_criterion_2_axioms",
    ),
    (
        "shuffles.py",
        "e.dotted or e.value <= prev",
        "e.dotted or e.value < prev",
        "a multi-cell diagonal crosses strictly rising labels",
        "tests/test_shuffle_walk.py::test_rising_stops_where_the_labels_stop_rising",
    ),
    (
        "shuffles.py",
        "elif entry.value < last:",
        "elif entry.value <= last:",
        "only a strict descent closes a non-dotted run",
        "tests/test_shuffle_walk.py::test_product_reads_descents_as_comp_of_word_does",
    ),
    (
        "composition.py",
        "compositions_of(p.value, dots)",
        "compositions_of(p.value, 0)",
        "a weak split of a dotted part keeps its dot",
        "tests/test_composition.py::TestEnumeration::test_weak_refinements_match_scan",
    ),
    (
        "composition.py",
        "DottedPart(value, dots == 1)",
        "DottedPart(value, False)",
        "a dotted block and a plain block of one value are different parts",
        "tests/test_composition.py::TestEnumeration::test_weak_coarsenings_match_scan",
    ),
    (
        "composition.py",
        "    _MEMOS.append(memo)\n",
        "",
        "every memo joins the registry that clear_caches() empties",
        "tests/test_coefficients.py::test_memos_are_bounded_and_cleared",
    ),
    (
        "composition.py",
        "at = len(blocks) - 1 if blocks and alpha[j] == _D0 else len(blocks)",
        "at = len(blocks)",
        "a block with a trailing d0 sorts before the same block without it",
        "tests/test_refinement_orders.py::test_weak_coarsenings_match_oracle",
    ),
    (
        "composition.py",
        "if dots > 1:",
        "if dots > 2:",
        "a block of a weak coarsening holds at most one dotted part",
        "tests/test_composition.py::TestEnumeration::test_weak_coarsenings_examples",
    ),
    (
        "composition.py",
        "            if rem_m > 0 and v < rem:\n"
        "                acc.append(dots[v])\n"
        "                go(rem - v - 1, rem_m - 1, acc)\n"
        "                acc.pop()\n"
        "            if v:\n"
        "                acc.append(plain[v])\n"
        "                go(rem - v, rem_m, acc)\n"
        "                acc.pop()\n",
        "            if v:\n"
        "                acc.append(plain[v])\n"
        "                go(rem - v, rem_m, acc)\n"
        "                acc.pop()\n"
        "            if rem_m > 0 and v < rem:\n"
        "                acc.append(dots[v])\n"
        "                go(rem - v - 1, rem_m - 1, acc)\n"
        "                acc.pop()\n",
        "the compositions of a total list dv before v at each first value",
        "tests/test_refinement_orders.py::test_compositions_with_total_walks_in_sort_order[2]",
    ),
    (
        "composition.py",
        "        if target.dotted and not dots and i < lb and beta[i] == _D0:\n"
        "            dots = 1\n"
        "            i += 1\n",
        "",
        "a dotted block takes a trailing d0 as its dot",
        "tests/test_composition.py::TestEnumeration::test_weak_coarsenings_match_scan",
    ),
    (
        "composition.py",
        "2 * value + 2 + (not dotted)",
        "2 * value + 2 + dotted",
        "a dotted part ranks before the plain part of the same value",
        "tests/test_composition.py::TestPartsAreRanks::test_natural_order_is_sort_key_order",
    ),
    (
        "composition.py",
        "2 * value + 2 + (not dotted)",
        "2 * value + (not dotted)",
        "no part ranks 0, so that d0 is truthy",
        "tests/test_composition.py::TestPartsAreRanks::test_every_part_is_truthy",
    ),
    (
        "algebra.py",
        '(out[3:] if out[1] == "+" else "-" + out[3:])',
        "out[3:]",
        "a first term with a negative coefficient keeps its minus sign",
        "tests/test_algebra.py::TestSerialization::test_plain_rendering",
    ),
    (
        "algebra.py",
        "return sign if c == 1 else",
        "return sign if c == -1 else",
        "a coefficient of 1 or -1 is written as its sign alone",
        "tests/test_render_writer.py::test_edge_commands_print_what_the_oracle_writes[product '[]' '[]' --basis L-plain]",
    ),
    (
        "algebra.py",
        'return head + ", ".join(',
        'return head + ",".join(',
        "JSON terms are separated by a comma and a space, as json.dumps writes them",
        "tests/test_render_writer.py::test_edge_cases",
    ),
    (
        "algebra.py",
        "return sorted(self.terms)",
        "return list(self.terms)",
        "support() lists the keys in sort_key order, not in the order they were made",
        "tests/test_algebra.py::TestExprArithmetic::test_support_sorted",
    ),
    (
        "cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n',
        "a parse error exits 2, a domain error 1",
        "tests/test_cli.py::TestExitCodes::test_bad_superpartition_piece_is_2[(1,x;2)-3]",
    ),
    (
        "cli.py",
        "    try:\n"
        "        return args.func(args)\n"
        "    except (CompositionParseError, SuperpartitionParseError) as exc:\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return 2\n"
        "    except ValueError as exc:\n"
        "        # every domain error of the package subclasses ValueError\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except (RecursionError, MemoryError) as exc:\n"
        "        name = type(exc).__name__\n"
        '        print(f"error: the input is too large to compute ({name})", file=sys.stderr)\n'
        "        return 1\n"
        "    finally:\n"
        "        clear_caches()\n",
        "    try:\n"
        "        code = args.func(args)\n"
        "    except (CompositionParseError, SuperpartitionParseError) as exc:\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return 2\n"
        "    except ValueError as exc:\n"
        "        # every domain error of the package subclasses ValueError\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except (RecursionError, MemoryError) as exc:\n"
        "        name = type(exc).__name__\n"
        '        print(f"error: the input is too large to compute ({name})", file=sys.stderr)\n'
        "        return 1\n"
        "    clear_caches()\n"
        "    return code\n",
        "the memos are released on every exit, after an error or an exception too",
        "tests/test_cli.py::TestMemos::test_an_uncaught_exception_leaves_the_memos_empty",
    ),
    (
        "cli.py",
        "        return parser.parse_args(argv)\n",
        "        return parser.parse_known_args(argv)[0]\n",
        "an argument the subcommand does not know is refused, as the full parser refuses it",
        "tests/test_cli.py::TestDispatch::test_unknown_arguments_are_reported_by_the_top_level_parser",
    ),
    (
        "cli.py",
        "    except (RecursionError, MemoryError) as exc:\n",
        "    except MemoryError as exc:\n",
        "an input too deep for the interpreter's recursion limit fails with one error line",
        "tests/test_cli.py::TestExitCodes::test_too_deep_input_is_1[argv1]",
    ),
    (
        "cli.py",
        "            if choices is not None and arg not in choices:\n                return None\n",
        "",
        "the reader takes only values in an argument's choices; argparse refuses the rest",
        "tests/test_cli.py::TestDispatch::test_near_valid_argv_are_read_as_argparse_reads_them[bad-choice]",
    ),
    (
        "cli.py",
        "        for dest in required:\n            if dest not in values:\n                return None\n",
        "",
        "a required option left out is argparse's refusal, not its default",
        "tests/test_cli.py::TestDispatch::test_near_valid_argv_are_read_as_argparse_reads_them[missing-option]",
    ),
    (
        "cli.py",
        "            values[dest] = arg\n",
        "            values.setdefault(dest, arg)\n",
        "a given value replaces the default, and an option given twice keeps its last value",
        "tests/test_cli.py::TestDispatch::test_near_valid_argv_are_read_as_argparse_reads_them[repeat]",
    ),
    (
        "cli.py",
        'dest = name.lstrip("-").replace("-", "_")',
        'dest = name.lstrip("-")',
        "argparse reads '-' in an option's name as '_' in its dest",
        "tests/test_cli.py::TestDispatch::test_each_reader_agrees_with_its_parser_on_the_table",
    ),
    (
        "cli.py",
        "            defaults[dest] = False\n",
        "            defaults[dest] = None\n",
        "a store_true flag left out is False, not None",
        "tests/test_cli.py::TestDispatch::test_each_reader_agrees_with_its_parser_on_the_table",
    ),
    (
        "cli.py",
        '_FORMAT = ("--format", {"choices": algebra.FORMATS, "default": "plain"})',
        '_FORMAT = ("--format", {"choices": ("plain", "latex"), "default": "plain"})',
        "every subcommand's one shared --format entry offers json",
        "tests/test_cli.py::TestSubcommands::test_product_json_round_trips",
    ),
    (
        "realize.py",
        "return -1 if inversions % 2 else 1,",
        "return 1,",
        "each inversion of the theta indices flips the sign of the anticommuting thetas",
        "tests/test_realize.py::TestPolynomialRing::test_anticommutation",
    ),
    (
        "realize.py",
        "    return (((t, tuple(sorted(xp.items()))), sign),)",
        "    return (((t, tuple(sorted(xp.items()))), 1),)",
        "a product of monomials carries the sign of sorting its joined thetas",
        "tests/test_realize.py::TestPolynomialRing::test_anticommutation",
    ),
    (
        "realize.py",
        "        if k in strict:\n            shift += 1\n",
        "",
        "each strict step before a position raises its index by one more",
        "tests/test_realize.py::TestRealizeL::test_refinement_route_agrees_worked_example",
    ),
    (
        "realize.py",
        "        if k not in equal:\n            slot += 1\n",
        "        slot += 1\n",
        "positions joined by an equal step share one index",
        "tests/test_realize.py::TestRealizeL::test_refinement_route_agrees_worked_example",
    ),
    (
        "realize.py",
        "combinations_with_replacement(range(1, nvars - shift + 1), slot)",
        "combinations_with_replacement(range(1, nvars - shift), slot)",
        "the slots' shifted indices run over all of 1..nvars - #strict",
        "tests/test_realize.py::TestRealizeL::test_single_dotted",
    ),
    (
        "realize.py",
        "        for i, p in zip(idx, alpha):\n            if p.value:\n",
        "        for i, p in zip(reversed(idx), alpha):\n            if p.value:\n",
        "the i-th part of an M realization takes the i-th smallest index",
        "tests/test_realize.py::TestRealizeM::test_example_2_4_second",
    ),
    (
        "realize.py",
        "itertools.combinations(range(1, nvars + 1), l)",
        "itertools.combinations(range(1, nvars), l)",
        "an M realization's indices run over all of 1..nvars",
        "tests/test_realize.py::TestRealizeM::test_example_2_4_first",
    ),
    (
        "superschur.py",
        "for target, idx in reversed(_steps(live, sp, part)):",
        "for target, idx in _steps(live, sp, part):",
        "the listing walk pushes each part's steps in reverse, so that they pop in order",
        "tests/test_schur_walk.py::test_listings_match_the_unpruned_oracle",
    ),
    (
        "hopf.py",
        'result = CheckResult(name, desc, "fail", shown(item))',
        'result = CheckResult(name, desc, "fail", str(item))',
        "a counterexample is shown as compositions, not as the run's ids",
        "tests/test_hopf.py::TestVerifySuite::test_sabotaged_op_is_detected[fundamental_product]",
    ),
    (
        "hopf.py",
        "self.odd.append(alpha.fermionic_degree % 2)",
        "self.odd.append(alpha.fermionic_degree // 2)",
        "an id's parity is its dot count mod 2, which the Koszul signs read",
        "tests/test_hopf.py::TestVerifySuite::test_small_universe_passes",
    ),
    (
        "shuffles.py",
        "        return ((alpha or beta, 1),)\n    w_alpha = represent(alpha, 1)",
        "        return ((alpha, 1),)\n    w_alpha = represent(alpha, 1)",
        "L_alpha times the unit L_[] is L_alpha on either side",
        "tests/test_acceptance.py::test_criterion_3_product_oracle",
    ),
    (
        "shuffles.py",
        "        return ((alpha or beta, 1),)\n    table = _moves(alpha, beta, _overlap_diagonals)",
        "        return ((alpha, 1),)\n    table = _moves(alpha, beta, _overlap_diagonals)",
        "M_alpha times the unit M_[] is M_alpha on either side",
        "tests/test_acceptance.py::test_criterion_3_product_oracle",
    ),
    (
        "hopf.py",
        "for a in range(r + 1 if i else 1)",
        "for a in range(1)",
        "in a maximal coarsening of a column a dot's block may take the ones on its right",
        "tests/test_hopf.py::TestAntipodeL::test_column_example",
    ),
    (
        "hopf.py",
        "cartesian(*map(coarsen, columns))",
        "cartesian(coarsen(DottedComposition._of(tuple(chain.from_iterable(columns)))))",
        "no block of an antipode term on L holds two ones of one part of alpha: each column is coarsened alone",
        "tests/test_hopf.py::TestAntipodeL::test_known_formula_example",
    ),
    (
        "composition.py",
        "starts.append(blocks[::-1])",
        "starts.append(blocks)",
        "the walk pops each start's blocks in part order only if they were pushed reversed",
        "tests/test_refinement_orders.py::test_weak_coarsenings_match_oracle",
    ),
    (
        "hopf.py",
        "lhs = dict(anti(ids[comps[a].concat(comps[b])]))",
        "lhs = anti(ids[comps[a].concat(comps[b])])",
        "_same deletes zeros in place, so the left side is a copy, never the memoized antipode",
        "tests/test_hopf.py::TestVerifySuite::test_antipode_sides_leave_the_memo_as_it_was[False]",
    ),
    (
        "hopf.py",
        "            out[key] = get(key, 0) + c * d\n",
        "            out[key] = get(key, 0) + (c * d if left else -c * d)\n",
        "(Delta x id)Delta and (id x Delta)Delta agree with no sign between them: Delta is even",
        "tests/test_hopf.py::TestVerifySuite::test_small_universe_passes",
    ),
    (
        "realize.py",
        "            i = idx[j] + up\n",
        "            i = idx[slot - 1 - j] + up\n",
        "the j-th slot of an L realization takes the j-th smallest shifted index",
        "tests/test_realize.py::TestRealizeL::test_refinement_route_agrees_worked_example",
    ),
    (
        "shuffles.py",
        "flip = below[y] * (dotted[x2] - dotted[x]) & 1",
        "flip = 0",
        "a diagonal across dotted columns passes over the dotted rows below it",
        "tests/test_schur_span.py::test_products_lie_in_the_integer_span",
    ),
    (
        "superschur.py",
        "    free, _ = walk(*inner, 0, None)\n",
        "    free, _ = walk(*inner, (1 << inner.n_circles) - 1, None)\n",
        "the inner shape's circles stay unfilled, so a new circle's sign counts no inner circle",
        "tests/test_superschur.py::TestSkewConvention::test_the_skew_is_the_tableau_sum_not_the_coproduct_coefficient",
    ),
]


# a subset still running after this long has hung, which kills its mutant
TIMEOUT_S = 600

# the address space each pytest child may map: a runaway mutant fails its
# test with MemoryError, which kills it, instead of taking the machine's memory
MEMORY_LIMIT = 2 << 30


def limit_memory() -> None:
    """Cap the address space of the child this runs in (only there)."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run_subset(tree: Path, tests: list[str]) -> tuple[int, float, bool]:
    """Run the tests in `tree` under the memory limit and return pytest's
    exit code (1 after a hang), the time, and whether the run failed out of
    memory: it raised MemoryError after its resident set passed half the
    limit, which a test that raises MemoryError itself does not reach."""
    # -B: no bytecode is written, so no module compiled from a mutant is
    # ever read back for the restored source
    command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    with tempfile.TemporaryFile() as log:
        child = subprocess.Popen(
            command + tests,
            cwd=tree,
            stdout=log,
            stderr=subprocess.STDOUT,
            preexec_fn=limit_memory,
        )
        # wait4 reaps the child and reads its own peak RSS; a hang is killed
        timer = threading.Timer(TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        child.returncode = code = os.waitstatus_to_exitcode(status)
        log.seek(0)
        raised = b"MemoryError" in log.read()
    took = time.perf_counter() - start
    if took >= TIMEOUT_S:  # the timer killed a hang
        code = 1
    out_of_memory = code != 0 and raised and usage.ru_maxrss << 10 > MEMORY_LIMIT // 2
    return code, took, out_of_memory


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copytree(ROOT / "bench" / "refs", tree / "bench" / "refs")
        shutil.copy(ROOT / "pyproject.toml", tree)
        package = tree / "src" / "superqsym"
        for name, tests in SUBSETS.items():
            code, took, _ = run_subset(tree, tests)
            print(f"unmutated {name}: {'pass' if code == 0 else 'FAIL'} {took:.1f}s")
            failed |= code != 0
        # a named test that passes only after the rest of its subset would
        # kill every mutant; one that is not found fails here too
        code, took, _ = run_subset(tree, sorted({m[4] for m in MUTANTS}))
        print(f"unmutated named tests: {'pass' if code == 0 else 'FAIL'} {took:.1f}s")
        failed |= code != 0
        if failed:
            return 1
        for i, (name, old, new, why, test) in enumerate(MUTANTS, 1):
            path = package / name
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{i:2} {name}: STALE, the old text is not in the file once")
                failed = True
                continue
            path.write_text(source.replace(old, new))
            try:
                code, took, out_of_memory = run_subset(tree, [test])
                by = "its test"
                if code == 0:
                    code, rest, out_of_memory = run_subset(tree, SUBSETS[name])
                    took += rest
                    by = "the subset"
            finally:
                path.write_text(source)
            if out_of_memory:
                by += f" out of memory (MemoryError under {MEMORY_LIMIT >> 30} GiB)"
            # 1: a test failed; 2: the mutant broke collection
            verdict = {0: "SURVIVED", 1: f"killed by {by}", 2: f"killed by {by}"}.get(
                code, f"ERROR {code}"
            )
            failed |= not verdict.startswith("killed")
            print(f"{i:2} {name}: {verdict} {took:.1f}s  ({why})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
