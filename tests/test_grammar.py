"""One grammar for every reader of caller text: a composition, a dotted part
given as text, a superpartition and the CLI's integer options.  A part is
ASCII digits, after a "d" where dots are allowed; whitespace may sit around
any item; and a str is not an integer."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superqsym.cli import main
from superqsym.composition import CompositionParseError, comp, parse_composition
from superqsym.hopf import verify_hopf
from superqsym.shuffles import word
from superqsym.superschur import EMPTY_SHAPE, Superpartition, enumerate_s_tableaux


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: comp("1_0"), ValueError, id="underscore"),
        pytest.param(lambda: comp("٣"), ValueError, id="arabic-indic-3"),
        pytest.param(lambda: comp("+3"), ValueError, id="plus"),
        pytest.param(lambda: comp("d 3"), ValueError, id="space-after-d"),
        pytest.param(lambda: comp("2,3"), ValueError, id="two-parts"),
        pytest.param(lambda: comp(" "), ValueError, id="blank"),
        pytest.param(lambda: comp(("3", True)), TypeError, id="text-value"),
        pytest.param(lambda: comp((b"3", False)), TypeError, id="bytes-value"),
        pytest.param(lambda: Superpartition(("2",), ("1",)), TypeError, id="superpartition"),
        pytest.param(lambda: verify_hopf("2", " 1 "), TypeError, id="verify-bounds"),
    ],
)
def test_library_refuses_text_outside_the_grammar(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("text, position", [("1_0", 1), ("d 3", 1), (" ٣", 1), ("3 ,", 3)])
def test_part_text_faults_point_at_their_character(text, position):
    with pytest.raises(CompositionParseError) as err:
        comp(text)
    assert err.value.position == position


def test_part_text_in_the_grammar_is_read():
    assert comp(" d3 ") == comp("d3") == comp((3, True))
    assert comp(2, "d3", 1) == parse_composition("[2,d3,1]")
    assert str(word(6, "d3", 9)) == "[6,d3,9]"
    outer = Superpartition((1,), (1,))
    assert len(enumerate_s_tableaux(outer, EMPTY_SHAPE, (1, "d1"))) == 1


@given(st.lists(st.text(alphabet=" d0123_+٣ ", max_size=4), min_size=1, max_size=3))
def test_part_text_reads_as_the_same_composition_text(pieces):
    # comp(*pieces) and the composition text that joins them accept the same
    # lists and read them alike; a lone blank piece is the one exception,
    # since "[ ]" is the empty composition and " " is no part
    assume(len(pieces) > 1 or pieces[0].strip())
    try:
        want = parse_composition("[" + ",".join(pieces) + "]")
    except CompositionParseError:
        want = None
    try:
        got = comp(*pieces)
    except ValueError:
        got = None
    assert got == want


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "L[2]", "--vars", "٣"],
        ["realize", "L[2]", "--vars", " 3"],
        ["verify", "--max-degree", "2", "--max-fermionic", "1_0"],
        ["verify", "--max-degree", "+2", "--max-fermionic", "1"],
    ],
)
def test_integer_options_read_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer in ASCII digits" in captured.err
