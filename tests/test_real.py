"""Reversible netlist format: golden bytes, round trips, malformed input."""

import gc

import pytest

from revmap import (
    Line,
    RealFormatError,
    RevCircuit,
    RevGate,
    UnsupportedError,
    convert_circuit,
    parse_real,
    write_real,
)
from samples import AND_BLIF, HALF_ADDER_BLIF, pipeline

AND_REAL = (
    ".version 2.0\n"
    ".numvars 3\n"
    ".variables a b x0\n"
    ".inputs a b 0\n"
    ".outputs g0 g1 c\n"
    ".constants --0\n"
    ".garbage 11-\n"
    ".begin\n"
    "t3 a b x0\n"
    ".end\n"
)

HALF_ADDER_REAL = (
    ".version 2.0\n"
    ".numvars 5\n"
    ".variables a b x0 x1 x2\n"
    ".inputs a b 0 0 0\n"
    ".outputs g0 s g1 g2 c\n"
    ".constants --000\n"
    ".garbage 1-11-\n"
    ".begin\n"
    "t2 a x0\n"
    "t2 b x1\n"
    "t2 a b\n"
    "t3 x0 x1 x2\n"
    ".end\n"
)


def converted(text):
    _, slotted = pipeline(text)
    return convert_circuit(slotted)


def test_and_golden_bytes():
    assert write_real(converted(AND_BLIF)) == AND_REAL


def test_half_adder_golden_bytes():
    assert write_real(converted(HALF_ADDER_BLIF)) == HALF_ADDER_REAL


def test_parse_write_identity():
    for text in (AND_REAL, HALF_ADDER_REAL):
        assert write_real(parse_real(text)) == text


def test_write_parse_identity():
    for blif in (AND_BLIF, HALF_ADDER_BLIF):
        rev = converted(blif)
        assert parse_real(write_real(rev)) == rev


def test_write_is_byte_stable():
    rev = converted(HALF_ADDER_BLIF)
    once = write_real(rev)
    assert write_real(parse_real(once)) == once
    assert write_real(parse_real(write_real(parse_real(once)))) == once


def test_parse_tolerates_comments_and_blank_lines():
    text = (
        "# made by hand\n"
        ".version 2.0\n"
        "\n"
        ".numvars 2  # two lines\n"
        ".variables p q\n"
        ".begin\n"
        "t1 p\n"
        "# flip q too\n"
        "t2 p q\n"
        ".end\n"
    )
    rev = parse_real(text)
    assert rev.width == 2
    assert rev.gates == (RevGate((), 0), RevGate((0,), 1))


def test_parse_header_order_is_free():
    text = (
        ".numvars 2\n"
        ".garbage 1-\n"
        ".constants -0\n"
        ".variables a k\n"
        ".outputs g0 y\n"
        ".version 2.0\n"
        ".begin\n"
        "t2 a k\n"
        ".end\n"
    )
    rev = parse_real(text)
    assert rev.lines == (Line("a"), Line("k", constant=0, output="y"))


def test_parse_defaults_without_optional_headers():
    rev = parse_real(".numvars 2\n.variables a b\n.begin\nt1 a\n.end\n")
    assert rev.lines == (Line("a", output="a"), Line("b", output="b"))
    assert rev.constant_count == 0
    assert rev.garbage_count == 0


def test_too_many_controls_is_unsupported():
    text = ".numvars 4\n.variables a b c d\n.begin\nt4 a b c d\n.end\n"
    with pytest.raises(UnsupportedError, match="t4"):
        parse_real(text)


def _row(row, message, error=RealFormatError):
    return pytest.param(row, error, message, id=row)


# each malformed gate row with the exact message it is reported with; the
# row is line 4 of the file
@pytest.mark.parametrize("gate_line, error, message", [
    _row("t0", "line 4: bad gate size t0"),
    _row("t2 a", "line 4: t2 takes exactly 2 lines"),
    _row("t2 a a", "line 4: gate touches a line twice: (0, 0)"),
    _row("t2 a nosuch", "line 4: unknown line 'nosuch'"),
    _row("h2 a b", "line 4: unknown gate 'h2'"),
    _row("toffoli a b c", "line 4: unknown gate 'toffoli'"),
    _row("t3 a b", "line 4: t3 takes exactly 3 lines"),
    _row("t3 a b c a", "line 4: t3 takes exactly 3 lines"),
    _row("t1 a b", "line 4: t1 takes exactly 1 lines"),
    _row("t1 nosuch", "line 4: unknown line 'nosuch'"),
    _row("t3 a nosuch zz", "line 4: unknown line 'nosuch'"),
    _row("t3 c b c", "line 4: gate touches a line twice: (2, 1, 2)"),
    _row("t4 a b c d", "unsupported gate t4: at most 2 controls",
         UnsupportedError),
    _row("t2 a # b", "line 4: t2 takes exactly 2 lines"),
    _row("T2 a b", "line 4: unknown gate 'T2'"),
    _row("t", "line 4: unknown gate 't'"),
    _row("t02 a", "line 4: t2 takes exactly 2 lines"),
])
def test_bad_gate_lines_rejected(gate_line, error, message):
    text = f".numvars 3\n.variables a b c\n.begin\n{gate_line}\n.end\n"
    with pytest.raises(error) as err:
        parse_real(text)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("row, gate", [
    ("t01 a", RevGate((), 0)),
    ("t02 a b", RevGate((0,), 1)),
    ("t003 c a b", RevGate((2, 0), 1)),
    ("t2 a b # a comment", RevGate((0,), 1)),
    ("t3\tb  c a", RevGate((1, 2), 0)),
])
def test_gate_row_spellings(row, gate):
    text = f".numvars 3\n.variables a b c\n.begin\n{row}\n.end\n"
    assert parse_real(text).gates == (gate,)


@pytest.mark.parametrize("tail, message", [
    # the end of the body is judged before the first bad row
    ("", "missing .begin/.end body"),
    (".end\nt1 a\n", "line 7: content after .end"),
])
def test_body_end_beats_a_bad_row(tail, message):
    text = f".numvars 2\n.variables a b\n.begin\nt1 a\nt2 a\n{tail}"
    with pytest.raises(RealFormatError) as err:
        parse_real(text)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", ["t4 a b a b", "t2 a nosuch", "tx a"])
@pytest.mark.parametrize("after", ["", "t1 a\n"], ids=["bad-row", "then-trailer"])
def test_bad_gate_row_leaves_no_cycle(bad, after):
    # the first bad row is raised after the header checks; holding it must
    # not tie the parsed gates into a cycle that only the collector frees
    def garbage_after(good_rows):
        text = (".numvars 2\n.variables a b\n.begin\n" + "t2 a b\n" * good_rows
                + bad + "\n.end\n" + after)
        gc.collect()
        with pytest.raises((RealFormatError, UnsupportedError)):
            parse_real(text)
        return gc.collect()

    assert garbage_after(1000) == garbage_after(0)


@pytest.mark.parametrize("text", [
    ".variables a b\n.begin\n.end\n",
    ".numvars 2\n.begin\n.end\n",
    ".numvars 2\n.variables a b\n.end\n",
    ".numvars 2\n.variables a b\n.begin\n",
    ".numvars 2\n.variables a b c\n.begin\n.end\n",
    ".numvars 2\n.variables a a\n.begin\n.end\n",
    ".numvars 2\n.variables a b\n.constants 0\n.begin\n.end\n",
    ".numvars 2\n.variables a b\n.garbage 111\n.begin\n.end\n",
    ".numvars 2\n.variables a b\n.outputs y\n.begin\n.end\n",
    ".numvars 2\n.variables a b\n.begin\n.end\nt1 a\n",
    ".numvars two\n.variables a b\n.begin\n.end\n",
])
def test_inconsistent_headers_rejected(text):
    with pytest.raises(RealFormatError):
        parse_real(text)


FULL_HEADER = (
    ".version 2.0\n.numvars 2\n.variables a b\n.inputs a b\n"
    ".outputs a b\n.constants --\n.garbage --\n"
)


# every header row but .version's
@pytest.mark.parametrize("row", FULL_HEADER.splitlines()[1:],
                         ids=lambda row: row.split()[0])
def test_repeated_header_directive_rejected(row):
    # the second occurrence is reported, right after the first or apart
    directive = row.split()[0]
    for text, lineno in (
        (FULL_HEADER.replace(row, f"{row}\n{row}"),
         FULL_HEADER.splitlines().index(row) + 2),
        (FULL_HEADER + row + "\n", 8),
    ):
        with pytest.raises(RealFormatError) as err:
            parse_real(text + ".begin\nt2 a b\n.end\n")
        assert str(err.value) == f"line {lineno}: {directive} given twice"


def test_repeated_version_is_ignored():
    text = FULL_HEADER + ".version 2.0\n.version 1.0\n.begin\nt1 a\n.end\n"
    assert parse_real(text).gates == (RevGate((), 0),)


def test_header_after_begin_rejected():
    text = ".numvars 1\n.variables a\n.begin\n.constants 0\n.end\n"
    with pytest.raises(RealFormatError):
        parse_real(text)


def test_garbage_labels_are_positional():
    # labels written for garbage positions are placeholders; parse ignores them
    text = (
        ".numvars 2\n.variables a b\n.outputs whatever y\n"
        ".garbage 1-\n.begin\nt2 a b\n.end\n"
    )
    rev = parse_real(text)
    assert rev.lines[0].output is None
    assert rev.lines[1].output == "y"


def test_writer_numbers_garbage_slots():
    rev = RevCircuit(
        "g",
        (Line("a"), Line("b", output="y"), Line("c")),
        (RevGate((0, 2), 1),),
    )
    out = write_real(rev)
    assert ".outputs g0 y g1\n" in out
    assert ".garbage 1-1\n" in out
