"""The block-at-a-time readers against the checked readers alone.

parse_intermediate first tries blif._read_blocks, which reads well-formed
text a .names block at a time and hands anything else to the line reader,
blif._read_lines.  parse_real first builds the leading plain gate rows in
realfmt._plain_gates and hands the first other row, and every row after
it, to its checked loop.  Both fast paths must give what the checked
readers give alone, on every text, down to the error and its line; and
the text revmap writes must never fall back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revmap.blif as blif
import revmap.realfmt as realfmt
from revmap import (
    RevGate,
    convert_circuit,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    parse_intermediate,
    parse_real,
    slot_circuit,
    write_intermediate,
    write_real,
)
from samples import (
    CANONICAL_ROWS,
    HALF_ADDER_BLIF,
    buffer_chain_blif,
    not_chain_blif,
    not_chain_real,
)


def outcome(parse, text):
    """What parse makes of text: its result, or its error and line."""
    try:
        return parse(text)
    except Exception as exc:  # every error must match, not only revmap's
        return type(exc), str(exc), getattr(exc, "line", None)


def lines_only(text, allow_copy=True):
    return blif._resolve_aliases(*blif._read_lines(text, allow_copy))


def checked_rows_only(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realfmt, "_plain_gates", lambda rows, index_of: [])
        return parse_real(text)


# ------------------------------------------------------------------ BLIF

NETS = ["a", "b", "c", "y", "z"]
# covers of each supported kind, the buffer's among them, written as
# write_intermediate writes them or not, and a few that no reader accepts
ROWS = [*CANONICAL_ROWS.values(), ("1 1",), ("1 1",), ("1- 1", "-1 1"),
        ("11 1", "1- 1")] * 3 + [("0 0",), ("11 0",), ()]
# lines that make the line reader start, join or drop a line, or that the
# block reader must hand over to it
ODD_LINES = [
    "", "  ", "# a comment", ".names a y # a comment", ".names a \\", "y",
    "  .names a y", "\t.end", ". names a y", ".", ".latch a b", ".foo",
    ".model m", ".model", ".model m n", ".inputs", ".outputs y y",
    ".copy a c", ".copy a c d", ".names", ".names y", ".names a b c y",
    "11", "11 1 1", "2 1", "11 2", "111 1", "0 1", "x y", ".end", ".end x",
    "1 1 # buffer", "11 1\\", "  11 1",
]


@st.composite
def blif_texts(draw):
    """BLIF text that is mostly as write_intermediate writes it, with a few
    lines changed, added or dropped and any of the line breaks."""
    lines = [".model m", ".inputs a b", ".outputs " + " ".join(
        draw(st.lists(st.sampled_from(NETS), min_size=1, max_size=3)))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(".copy " + " ".join(draw(st.permutations(NETS))[:3]))
            continue
        rows = draw(st.sampled_from(ROWS))
        n = len(rows[0].split()[0]) if rows else draw(st.integers(1, 2))
        nets = draw(st.lists(st.sampled_from(NETS), min_size=n + 1, max_size=n + 1))
        lines += [".names " + " ".join(nets), *rows]
    if draw(st.booleans()):
        lines.append(".end")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["insert", "insert", "drop"]))
        if action == "drop" and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
    breaks = st.sampled_from(["\n"] * 4 + ["\r\n", "\u2028", " ", "\x0c"])
    if draw(st.booleans()):
        breaks = st.just("\n")
    text = lines[0] + "".join(draw(breaks) + line for line in lines[1:])
    return text + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(blif_texts())
def test_blif_fast_path_reads_as_the_line_reader(text):
    assert outcome(parse_intermediate, text) == outcome(lines_only, text)
    assert outcome(parse_blif, text) == outcome(
        lambda t: lines_only(t, allow_copy=False), text)


@pytest.mark.parametrize("text", [
    HALF_ADDER_BLIF,
    buffer_chain_blif(4),
    # a buffer chain declared backwards, and an alias cycle
    ".model m\n.inputs a\n.outputs y\n.names b y\n1 1\n.names a b\n1 1\n.end\n",
    ".model m\n.inputs a\n.outputs y\n.names z y\n1 1\n.names y z\n1 1\n.end\n",
    # a bad row first, in the middle and last
    ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n0 1\n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n01 1\n1 1\n10 1\n.end\n",
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n0 2",
    # .end missing, repeated or followed by text
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n",
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n.end\n",
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\ny\n",
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n.model n\n",
    # a directive repeated, after whitespace, or run into the next line
    ".model m\n.model n\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n",
    ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.model n\n.end\n",
    ".model m\n.inputs a\u2028b\n.outputs y\n.names a b y\n11 1\n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\x0c.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\x1c\n",
    # a cover too wide for its .names, and a second driver for a buffer's net
    ".model m\n.inputs a b\n.outputs y\n.names a y\n11 1\n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n",
    ".model m\n.inputs a\n.outputs y\n  .names a y\n0 1\n.end\n",
    ".model m\n.inputs a\n.outputs y\n. names a y\n0 1\n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n",
    # rows that are blank or spaced apart, and a cover that is not supported
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n01  1\n\n10 1 \n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n01 1\n11 0\n.end\n",
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n.end\n",
    "\n.model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n",
    "",
])
def test_blif_samples_read_as_the_line_reader(text):
    for variant in (text, text.replace("\n", "\r\n"), text.replace("\n", "\u2028")):
        assert outcome(parse_intermediate, variant) == outcome(lines_only, variant)


def test_the_cover_cache_is_shared_by_both_readers(monkeypatch):
    # a cover either reader has classified, the other looks up
    calls = []
    classify = blif.classify_cover

    def counted(rows, n_inputs, subject="cover"):
        calls.append(n_inputs)
        return classify(rows, n_inputs, subject)

    monkeypatch.setattr(blif, "_KNOWN_COVERS", {})
    monkeypatch.setattr(blif, "classify_cover", counted)
    base = ".model m\n.inputs a b\n.outputs y\n.names a b y{}\n{}.end\n"
    for rows in ("1- 1\n-1 1\n", "01 1\n10 1\n11 1\n"):
        commented = base.format(" # or", rows)  # only the line reader
        plain = base.format("", rows)  # the block reader
        spaced = base.format("", rows.replace(" ", "  "))  # blocks, not as keyed
        first, then = (commented, plain) if rows.startswith("1-") else (plain, commented)
        assert parse_blif(first) == parse_blif(then) == parse_blif(spaced)
    assert calls == [2, 2]


# ----------------------------------------------------------------- .real

HEADER = [".version 2.0", ".numvars 3", ".variables a b c", ".inputs a b c",
          ".outputs a b c", ".constants ---", ".garbage ---", ".begin"]
# header lines that break the header, or repeat a directive
ODD_HEADER = [".numvars 4", ".numvars x", ".variables a b", ".variables a a c",
              ".inputs a b", ".constants --", ".garbage 1-1-", ".constants 01x",
              ".garbage", ".begin", ".end", ".foo", "", "# a comment"]
GOOD_ROWS = ["t1 a", "t1 c", "t2 a b", "t2 c a", "t3 a b c", "t3 c b a"]
# rows that the plain-gate loop must hand over to the checked loop
ODD_ROWS = ["", "  ", "# a comment", "t1 a # a comment", "t01 a", "t2 a a",
            "t3 a b a", "t3 a a b", "t3 a b b", "t1 x", "t2 a x", "t4 a b c a", "t0",
            "t2 a", "t1 a b", "x a", ".end", ".begin", "  t1 a", "t3 a b c c"]


@st.composite
def real_texts(draw):
    """.real text that is mostly as write_real writes it, with header lines
    dropped, changed or added, odd rows anywhere, and any .end."""
    header = list(HEADER)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(header) - 1))
        action = draw(st.sampled_from(["keep", "keep", "drop", "insert"]))
        if action == "drop" and header[at] != ".begin":
            del header[at]
        elif action == "insert":
            header.insert(at, draw(st.sampled_from(ODD_HEADER)))
    rows = draw(st.lists(st.sampled_from(GOOD_ROWS), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, draw(st.sampled_from(ODD_ROWS)))
    end = draw(st.sampled_from([[".end"], [".end"], [], [".end", ".end"],
                                [".end", "t1 a"], [".end", ""]]))
    lines = header + rows + end
    breaks = st.sampled_from(["\n"] * 4 + ["\r\n", "\u2028", " "])
    if draw(st.booleans()):
        breaks = st.just("\n")
    text = lines[0] + "".join(draw(breaks) + line for line in lines[1:])
    return text + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(real_texts())
def test_real_fast_path_reads_as_the_checked_loop(text):
    assert outcome(parse_real, text) == outcome(checked_rows_only, text)


@pytest.mark.parametrize("body, end", [
    (["t2 a b", "t2 a a", "t1 c"], ".end"),  # a bad row in the middle
    (["t2 a b", "t3 a a b"], ".end"),  # each line that a t3 may repeat
    (["t2 a b", "t3 a b a"], ".end"),
    (["t2 a b", "t3 a b b"], ".end"),
    (["t1 x", "t2 a b"], ".end"),  # a bad row first
    (["t2 a b", "t4 a b c a"], ".end"),  # a bad row last
    (["t2 a b", "t01 a", "t1 b"], ".end"),
    (["t2 a b", "t1 b"], ""),  # .end missing
    (["t2 a b"], ".end\n.end"),
    (["t2 a b"], ".end\nt1 a"),
])
@pytest.mark.parametrize("header", [HEADER, [".numvars 4", *HEADER[2:]],
                                    [HEADER[0], *HEADER[2:]],
                                    [*HEADER[:5], ".constants --", *HEADER[6:]]])
def test_real_samples_read_as_the_checked_loop(header, body, end):
    # the header's errors take precedence over the first bad row
    text = "\n".join([*header, *body, end]) + "\n"
    assert outcome(parse_real, text) == outcome(checked_rows_only, text)


# ------------------------------------------- canonical text never falls back

def canonical_circuits():
    for seed in range(12):
        c = gen_random_circuit(seed, 2 + seed % 5, 5 + 3 * seed)
        yield c
        yield insert_copiers(c)  # .copy lines
    for text in (HALF_ADDER_BLIF, buffer_chain_blif(5), not_chain_blif(40),
                 # a corpus-style arithmetic file, one output through a BUF cover
                 ".model add1\n.inputs a0 b0\n.outputs s0 s1\n.names a0 b0 s0\n"
                 "01 1\n10 1\n.names a0 b0 c\n11 1\n.names c s1\n1 1\n.end\n"):
        yield parse_blif(text)


def test_canonical_blif_never_reaches_the_line_reader(monkeypatch):
    expected = [(write_intermediate(c), c) for c in canonical_circuits()]
    expected += [(text, lines_only(text)) for text in (
        buffer_chain_blif(5),
        ".model add1\n.inputs a0 b0\n.outputs s0 s1\n.names a0 b0 s0\n"
        "01 1\n10 1\n.names a0 b0 c\n11 1\n.names c s1\n1 1\n.end\n")]

    def refuse(text, allow_copy):
        raise AssertionError(f"fell back to the line reader:\n{text}")

    monkeypatch.setattr(blif, "_read_lines", refuse)
    for text, c in expected:
        assert parse_intermediate(text) == c


def test_canonical_real_never_reaches_the_checked_loop(monkeypatch):
    texts = [write_real(convert_circuit(slot_circuit(insert_copiers(c))))
             for c in canonical_circuits()]
    texts.append(not_chain_real(40))
    expected = [(text, parse_real(text)) for text in texts]

    def refuse(self, controls, target):
        raise AssertionError("a gate row reached the checked loop")

    # the checked loop builds each gate through RevGate.__init__, and the
    # plain-gate loop builds none that way; .end and the header pass
    monkeypatch.setattr(RevGate, "__init__", refuse)
    for text, r in expected:
        assert parse_real(text) == r
