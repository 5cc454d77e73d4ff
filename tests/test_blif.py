"""BLIF parsing, cover classification and round trips."""

from itertools import product

import pytest

import revmap.blif
from revmap import (
    BlifError,
    IrCircuit,
    IrGate,
    IrGateKind,
    UnsupportedError,
    ValidationError,
    classify_cover,
    parse_blif,
    parse_intermediate,
    validate_circuit,
    write_intermediate,
)
from samples import AND_BLIF, BOOL_FN, CANONICAL_ROWS, HALF_ADDER_BLIF

K = IrGateKind


def rows_of(lines):
    return [tuple(line.split()) for line in lines]


def cover_value(rows, bits):
    """Reference semantics of an on-set cover, evaluated row by row."""
    for pattern, _ in rows:
        if all(p in ("-", b) for p, b in zip(pattern, bits)):
            return 1
    return 0


def test_parse_single_and():
    c = parse_blif(AND_BLIF)
    assert c == IrCircuit(
        "and", ("a", "b"), ("c",), (IrGate(K.AND, ("a", "b"), ("c",)),)
    )
    assert validate_circuit(c) == []


def test_parse_half_adder():
    c = parse_blif(HALF_ADDER_BLIF)
    assert [g.kind for g in c.gates] == [K.XOR, K.AND]
    assert c.outputs == ("s", "c")


def test_comments_and_continuations():
    text = (
        ".model m # trailing comment\n"
        "# full-line comment\n"
        ".inputs a \\\n"
        "  b\n"
        ".outputs c\n"
        ".names a b \\\n"
        "c\n"
        "11 1\n"
        ".end\n"
    )
    assert parse_blif(text) == parse_blif(AND_BLIF.replace(".model and", ".model m"))


@pytest.mark.parametrize("kind", list(CANONICAL_ROWS))
def test_classify_canonical_rows(kind):
    rows = rows_of(CANONICAL_ROWS[kind])
    assert classify_cover(rows, kind.n_inputs) is kind


@pytest.mark.parametrize("kind", list(CANONICAL_ROWS))
def test_canonical_rows_mean_what_they_classify_as(kind):
    # Independent check: row semantics equal the gate's boolean function.
    rows = rows_of(CANONICAL_ROWS[kind])
    for bits in product("01", repeat=kind.n_inputs):
        want = BOOL_FN[kind](*(int(b) for b in bits))
        assert cover_value(rows, bits) == want


def test_classify_wildcard_spellings():
    assert classify_cover([("1-", "1"), ("-1", "1")], 2) is K.OR
    assert classify_cover([("0-", "1"), ("-0", "1")], 2) is K.NAND
    assert classify_cover([("11", "1"), ("1-", "1"), ("-1", "1")], 2) is K.OR


def test_classify_rejects_constant_one_cover():
    with pytest.raises(UnsupportedError, match="unrecognized cover"):
        classify_cover([("--", "1")], 2)


def test_classify_buffer_is_identity_alias():
    assert classify_cover([("1", "1")], 1) is None


def test_classify_rejects_output_zero_rows():
    with pytest.raises(UnsupportedError, match="output 0"):
        classify_cover([("11", "0")], 2)


def test_classify_rejects_unknown_onset():
    with pytest.raises(UnsupportedError, match="unrecognized cover"):
        classify_cover([("10", "1")], 2)


def test_classify_rejects_empty_onset():
    with pytest.raises(UnsupportedError, match="unrecognized cover"):
        classify_cover([], 2)


# every on-set of two inputs: 16 in all
ONSETS = [
    {m for m, bit in zip(("00", "01", "10", "11"), bits) if bit == "1"}
    for bits in product("01", repeat=4)
]


@pytest.mark.parametrize("onset", ONSETS, ids=lambda s: ",".join(sorted(s)) or "empty")
def test_classify_agrees_with_truth_table(onset):
    rows = [(m, "1") for m in sorted(onset)]
    try:
        kind = classify_cover(rows, 2)
    except UnsupportedError:
        # No supported 2-input gate has this on-set.
        tables = {
            frozenset(
                "".join(bits)
                for bits in product("01", repeat=2)
                if BOOL_FN[k](*(int(b) for b in bits))
            )
            for k in BOOL_FN
            if k.n_inputs == 2
        }
        assert frozenset(onset) not in tables
        return
    for bits in product("01", repeat=2):
        want = BOOL_FN[kind](*(int(b) for b in bits))
        assert cover_value(rows, bits) == want


def test_buffer_alias_resolves_downstream():
    text = (
        ".model m\n.inputs a b\n.outputs z\n"
        ".names a t\n1 1\n"
        ".names t b z\n11 1\n.end\n"
    )
    c = parse_blif(text)
    assert len(c.gates) == 1
    assert c.gates[0].inputs == ("a", "b")


def test_buffer_alias_renames_primary_output():
    text = ".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n"
    c = parse_blif(text)
    assert c.outputs == ("a",)
    assert c.gates == ()


def test_buffer_alias_chain():
    text = (
        ".model m\n.inputs a\n.outputs z\n"
        ".names a t\n1 1\n"
        ".names t u\n1 1\n"
        ".names u z\n0 1\n.end\n"
    )
    c = parse_blif(text)
    assert c.gates == (IrGate(K.NOT, ("a",), ("z",)),)


def test_buffer_alias_collision_is_multiple_drivers():
    text = (
        ".model m\n.inputs a b\n.outputs c\n"
        ".names a b c\n11 1\n"
        ".names a c\n1 1\n.end\n"
    )
    with pytest.raises(BlifError, match="multiple drivers"):
        parse_blif(text)


def test_buffer_alias_cycle_rejected():
    text = (
        ".model m\n.inputs a\n.outputs p\n"
        ".names q p\n1 1\n"
        ".names p q\n1 1\n.end\n"
    )
    with pytest.raises(BlifError, match="alias cycle"):
        parse_blif(text)


def unread_buffer(source):
    return (
        ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n"
        f".names {source} dead\n1 1\n.end\n"
    )


def test_unread_buffer_from_driven_net_is_dropped():
    c = parse_blif(unread_buffer("a"))
    assert c.gates == (IrGate(K.NOT, ("a",), ("y",)),)
    assert validate_circuit(c) == []


def test_unread_buffer_from_undriven_net_is_rejected():
    # the same violation validate_circuit reports when a gate reads x
    with pytest.raises(ValidationError) as info:
        parse_blif(unread_buffer("x"))
    assert [str(v) for v in info.value.violations] == ["undriven-input: x"]


def test_unread_buffer_from_undriven_net_follows_other_violations():
    text = (
        ".model m\n.inputs a\n.outputs y z\n.names a y\n0 1\n"
        ".names x dead\n1 1\n.names x also\n1 1\n.end\n"
    )
    with pytest.raises(ValidationError) as info:
        parse_blif(text)
    assert [str(v) for v in info.value.violations] == [
        "undriven-output: z",
        "undriven-input: x",
    ]


def test_unread_alias_cycle_rejected():
    text = (
        ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n"
        ".names p q\n1 1\n.names q p\n1 1\n.end\n"
    )
    with pytest.raises(BlifError, match="buffer alias cycle involving 'q'"):
        parse_blif(text)


def test_each_short_cover_spelling_is_classified_once(monkeypatch):
    calls = []

    def counted(rows, n_inputs, subject="cover"):
        calls.append(tuple(rows))
        return classify_cover(rows, n_inputs, subject)

    monkeypatch.setattr(revmap.blif, "_KNOWN_COVERS", {})
    monkeypatch.setattr(revmap.blif, "classify_cover", counted)
    or_two = "1- 1\n-1 1\n"
    or_three = "01 1\n10 1\n11 1\n"
    or_five = or_three + "1- 1\n-1 1\n"
    body = "".join(
        f".names a b n{k}\n{rows}"
        for k, rows in enumerate([or_two, or_three, or_two, or_five, or_five])
    )
    text = f".model m\n.inputs a b\n.outputs n0\n{body}.end\n"
    c = parse_blif(text)
    assert [g.kind for g in c.gates] == [K.OR] * 5
    # covers above four rows are classified every time and never kept
    assert len(calls) == 4
    assert len(revmap.blif._KNOWN_COVERS) == 2


def test_zero_input_names_is_constant_cover():
    text = ".model m\n.inputs a\n.outputs c\n.names c\n1 1\n.end\n"
    with pytest.raises(UnsupportedError, match="constant cover"):
        parse_blif(text)


def test_three_input_names_rejected():
    text = ".model m\n.inputs a b c\n.outputs z\n.names a b c z\n111 1\n.end\n"
    with pytest.raises(UnsupportedError, match="3 inputs"):
        parse_blif(text)


@pytest.mark.parametrize("directive", [".latch", ".subckt", ".gate"])
def test_sequential_and_hierarchy_rejected(directive):
    text = f".model m\n.inputs a\n.outputs z\n{directive} a z\n.end\n"
    with pytest.raises(UnsupportedError, match="unsupported construct"):
        parse_blif(text)


def test_unknown_directive_is_syntax_error():
    with pytest.raises(BlifError, match="unknown directive"):
        parse_blif(".model m\n.frobnicate\n.end\n")


def test_second_model_rejected():
    text = AND_BLIF + ".model again\n.end\n"
    with pytest.raises(BlifError, match="one .model"):
        parse_blif(text)


def test_content_after_end_rejected():
    with pytest.raises(BlifError, match="after .end"):
        parse_blif(AND_BLIF + ".inputs q\n")


def test_bad_cover_rows():
    base = ".model m\n.inputs a b\n.outputs c\n.names a b c\n{row}\n.end\n"
    for row in ("1 1 1", "2- 1", "111 1", "1- x"):
        with pytest.raises(BlifError):
            parse_blif(base.format(row=row))


def test_copy_rejected_in_plain_blif():
    text = ".model m\n.inputs a\n.outputs p q\n.copy a p q\n.end\n"
    with pytest.raises(BlifError, match="intermediate"):
        parse_blif(text)
    c = parse_intermediate(text)
    assert c.gates == (IrGate(K.COPY, ("a",), ("p", "q")),)


def test_copy_arity_checked():
    with pytest.raises(BlifError):
        parse_intermediate(".model m\n.inputs a\n.outputs p\n.copy a p\n.end\n")


def test_write_intermediate_golden():
    c = parse_blif(AND_BLIF)
    assert write_intermediate(c) == AND_BLIF


EIGHT_KINDS_INTERMEDIATE = """\
.model kinds
.inputs a b
.outputs n y1 y2 y3 y4 y5 y6
.copy a a0 a1
.names a0 n
0 1
.names a1 b y1
11 1
.names a b y2
00 1
01 1
10 1
.names a b y3
01 1
10 1
11 1
.names a b y4
00 1
.names a b y5
01 1
10 1
.names a b y6
00 1
11 1
.end
"""


def test_write_intermediate_golden_all_kinds():
    gates = (
        IrGate(K.COPY, ("a",), ("a0", "a1")),
        IrGate(K.NOT, ("a0",), ("n",)),
        IrGate(K.AND, ("a1", "b"), ("y1",)),
        *(
            IrGate(kind, ("a", "b"), (f"y{k}",))
            for k, kind in enumerate((K.NAND, K.OR, K.NOR, K.XOR, K.XNOR), 2)
        ),
    )
    outputs = ("n", "y1", "y2", "y3", "y4", "y5", "y6")
    c = IrCircuit("kinds", ("a", "b"), outputs, gates)
    assert write_intermediate(c) == EIGHT_KINDS_INTERMEDIATE


def test_round_trip_plain():
    for text in (AND_BLIF, HALF_ADDER_BLIF):
        c = parse_blif(text)
        assert parse_blif(write_intermediate(c)) == c


def test_round_trip_with_copy():
    c = IrCircuit(
        "m",
        ("a",),
        ("p", "q"),
        (IrGate(K.COPY, ("a",), ("p", "q")),),
    )
    assert parse_intermediate(write_intermediate(c)) == c


def test_missing_end_is_tolerated():
    c = parse_blif(".model m\n.inputs a\n.outputs z\n.names a z\n0 1\n")
    assert c.gates[0].kind is K.NOT
