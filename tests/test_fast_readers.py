"""The one reader of each format, against outcomes pinned in advance.

parse_intermediate and parse_blif read text a directive block at a time
in blif._read_blocks.  Text that revmap writes is read as it is; any
other (a comment, a continuation, a line break other than "\\n", text
before the first directive) is first rewritten by blif._logical_lines to
one logical line per "\\n", with each line's number in the file.
parse_real reads its body in one loop: a row as write_real spells it
becomes its packed row directly, and any other row keeps its place and
takes the checked branch once, after the header checks.

An outcome is what a reader makes of a text: its result, or its error's
type, message and line.  The outcomes on fixed seeded families of texts,
twenty texts to a digest, and on each sample below and its variants are
pinned as sha256 digests of the results as write_intermediate and
write_real spell them and of the errors' type, line and message.  They
were recorded with the line-at-a-time readers that these readers
replaced.  A mismatch names the texts that now read differently, down to
an error's line.  The text revmap writes must never be rewritten, nor any
of its gate rows take the checked branch, and text with an indented
directive is rewritten once, so that it costs no more than its length.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revmap.blif as blif
import revmap.realfmt as realfmt
from revmap import (
    IrCircuit,
    RealFormatError,
    RevCircuit,
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
    is_well_formed,
    not_chain_blif,
    not_chain_real,
)


def outcome(parse, text):
    """What parse makes of text: its result, or its error and line."""
    try:
        return parse(text)
    except Exception as exc:  # every error must match, not only revmap's
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def encoded(result):
    """An outcome as text: a circuit as its writer spells it, an error as
    its type, line and message."""
    if isinstance(result, IrCircuit):
        return write_intermediate(result)
    if isinstance(result, RevCircuit):
        return write_real(result)
    name, message, line = result
    return f"{name} at line {line}: {message}\n"


def digest(parses, texts):
    """The sha256 of each parse's encoded outcome on each text, in order,
    cut to 16 digits."""
    h = hashlib.sha256()
    for text in texts:
        for parse in parses:
            h.update(encoded(outcome(parse, text)).encode() + b"\0")
    return h.hexdigest()[:16]


def assert_pinned(parses, texts, pinned):
    """Each equal run of texts, one for each pinned digest, must read as
    that digest; a run that does not is shown with its outcomes."""
    size = len(texts) // len(pinned)
    assert size * len(pinned) == len(texts)
    for k, want in enumerate(pinned):
        run = texts[k * size:(k + 1) * size]
        if digest(parses, run) != want:
            shown = "".join(
                f"{text!r}\n" + "".join(encoded(outcome(p, text)) for p in parses)
                for text in run)
            pytest.fail(f"texts {k * size} to {(k + 1) * size - 1} of {len(texts)} "
                        f"read differently from the pinned outcomes:\n{shown}")


# ways to respell a text's line breaks, indents, line ends and token gaps
VARIANTS = [
    lambda t: t,
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "\u2028"),
    lambda t: t.replace("\n", "\u2029"),
    lambda t: t.replace("\n", "\x1f"),
    lambda t: t.replace("\n", "\n "),
    lambda t: t.replace("\n", "\t\n"),
    lambda t: t.replace(" ", " \u3000"),
]

# whitespace and line breaks that seeded texts gain at line starts, line
# ends and between tokens
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000", "\x0b", "\x0c", "\r", "\x1c",
          "\x85", "\u2028", "\u2029", "\r\n", "  "]


def sprinkle(rng, text):
    for _ in range(rng.choice([0, 0, 1, 2])):
        spots = [0, len(text), *(i for i, ch in enumerate(text) if ch in " \n")]
        at = rng.choice(spots)
        if text[at:at + 1] == "\n":
            at += rng.randrange(2)  # before or after the break
        text = text[:at] + rng.choice(SPACES) + text[at:]
    return text


def join(rng, lines, breaks, ends):
    if rng.randrange(2):
        breaks = ["\n"]
    first, *rest = lines or [""]
    text = first + "".join(rng.choice(breaks) + line for line in rest)
    return sprinkle(rng, text + rng.choice(ends))


# ------------------------------------------------------------------ BLIF

NETS = ["a", "b", "c", "y", "z"]
# covers of each supported kind, the buffer's among them, written as
# write_intermediate writes them or not, and a few that no reader accepts
ROWS = [*CANONICAL_ROWS.values(), ("1 1",), ("1 1",), ("1- 1", "-1 1"),
        ("11 1", "1- 1")] * 3 + [("0 0",), ("11 0",), ()]
# lines that start, join or drop a logical line, or that no block holds
ODD_LINES = [
    "", "  ", "# a comment", ".names a y # a comment", ".names a \\", "y",
    "  .names a y", "\t.end", ". names a y", ".", ".latch a b", ".foo",
    ".model m", ".model", ".model m n", ".inputs", ".outputs y y",
    ".copy a c", ".copy a c d", ".names", ".names y", ".names a b c y",
    "11", "11 1 1", "2 1", "11 2", "111 1", "0 1", "x y", ".end", ".end x",
    "1 1 # buffer", "11 1\\", "  11 1",
]
BLIF_BREAKS = ["\n"] * 4 + ["\r\n", "\u2028", " ", "\x0c"]


def seeded_blif(rng):
    """BLIF text that is mostly as write_intermediate writes it, with a few
    lines changed, added or dropped and any of the line breaks."""
    outputs = [rng.choice(NETS) for _ in range(rng.randrange(1, 4))]
    lines = [".model m", ".inputs a b", " ".join((".outputs", *outputs))]
    for _ in range(rng.randrange(7)):
        if rng.randrange(8) == 0:
            nets = list(NETS)
            rng.shuffle(nets)
            lines.append(" ".join((".copy", *nets[:3])))
            continue
        rows = rng.choice(ROWS)
        n = len(rows[0].split()[0]) if rows else rng.randrange(1, 3)
        nets = [rng.choice(NETS) for _ in range(n + 1)]
        lines += [" ".join((".names", *nets)), *rows]
    if rng.randrange(2):
        lines.append(".end")
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        at = rng.randrange(len(lines) + 1)
        if rng.randrange(3) == 0 and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, rng.choice(ODD_LINES))
    return join(rng, lines, BLIF_BREAKS, ["\n", "", "\n\n", "\r\n"])


BLIF_READERS = (parse_intermediate, parse_blif)


def test_seeded_blif_reads_as_pinned():
    rng = random.Random(18)
    texts = [seeded_blif(rng) for _ in range(1000)]
    assert_pinned(BLIF_READERS, texts, SEEDED_BLIF_DIGESTS)


BLIF_SAMPLES = [
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
]


@pytest.mark.parametrize("k", range(len(BLIF_SAMPLES)))
def test_blif_sample_reads_as_pinned(k):
    texts = [variant(BLIF_SAMPLES[k]) for variant in VARIANTS]
    assert_pinned(BLIF_READERS, texts, [BLIF_SAMPLE_DIGESTS[k]])


def rewritten(text, allow_copy):
    """text read through its rewrite, plain or not."""
    return blif._resolve_aliases(
        *blif._read_blocks(*blif._logical_lines(text), allow_copy))


# lines of plain text: as write_intermediate writes them, or odd, but
# with no comment or continuation; and what may pad them
PLAIN_LINES = [".inputs a b", ".outputs y", ".names a b y", "11 1", "01 1",
               ".names a y", "0 1", "1 1", ".copy a y z", ".end",
               *(line for line in ODD_LINES if "#" not in line and "\\" not in line)]
PADS = ["", "", " ", "\t", "\x1f", "\xa0", "\u3000"]


@st.composite
def plain_blif_texts(draw):
    """Text that opens with .model and is read as it is, each line of it
    padded at either end or not."""
    lines = draw(st.lists(st.tuples(st.sampled_from(PADS), st.sampled_from(PLAIN_LINES),
                                    st.sampled_from(PADS)), max_size=16))
    body = [f"{before}{line}{after}" for before, line, after in lines]
    return "\n".join([".model m", *body]) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plain_blif_texts())
def test_plain_text_reads_as_its_rewritten_form(text):
    assert not any(map(text.__contains__, blif._LINE_BREAKERS))
    assert outcome(parse_intermediate, text) == outcome(
        lambda t: rewritten(t, True), text)
    assert outcome(parse_blif, text) == outcome(
        lambda t: rewritten(t, False), text)


def indented_blif(n):
    """A netlist of n gates in which every directive after the first is
    indented."""
    gates = "".join(f"  .names a b w{i}\n  11 1\n" for i in range(n))
    return f".model m\n  .inputs a b\n  .outputs w0\n{gates}  .end\n"


def test_indented_directives_cost_the_text_once(monkeypatch):
    # Text with an indented directive is rewritten once, and the reader
    # reads the rewritten text: what it reads must grow as the text grows,
    # not as the text times its directives.
    read = blif._read_blocks
    sizes = []

    def counted(text, numbers, allow_copy):
        assert numbers is not None  # rewritten
        sizes.append(len(text))
        return read(text, numbers, allow_copy)

    monkeypatch.setattr(blif, "_read_blocks", counted)
    small, large = indented_blif(1000), indented_blif(4000)
    for text in (small, large):
        assert len(parse_intermediate(text).gates) == text.count(".names")
    assert sizes[1] / sizes[0] < 1.25 * len(large) / len(small)


INDENTED = """.model m
.inputs a b
.outputs y z
.names a b w
11 1
.names w y
0 1
.copy a z q
.names b q v
01 1
10 1
bad row
.end
"""


def indent(text, pad):
    """text with pad before every directive but .model."""
    return "\n".join(pad + line if line[:1] == "." and line[:6] != ".model" else line
                     for line in text.split("\n"))


@pytest.mark.parametrize("pad", [" ", "\t", "\x1f", "\xa0", "\u3000", " \t\u3000"])
def test_indented_directives_read_as_flush_left(pad):
    # the same circuit, and the same error on the same file line
    for text in (INDENTED, INDENTED.replace("bad row\n", "")):
        for parse in (parse_intermediate, parse_blif):
            assert outcome(parse, indent(text, pad)) == outcome(parse, text)
    assert outcome(parse_intermediate, indent(INDENTED, pad)) == (
        "BlifError", "line 12: bad cover pattern 'bad'", 12)


def test_the_cover_cache_serves_every_spelling(monkeypatch):
    # a cover classified once is looked up in every later spelling of it
    calls = []
    classify = blif.classify_cover

    def counted(rows, n_inputs, subject="cover"):
        calls.append(n_inputs)
        return classify(rows, n_inputs, subject)

    monkeypatch.setattr(blif, "_KNOWN_COVERS", {})
    monkeypatch.setattr(blif, "classify_cover", counted)
    base = ".model m\n.inputs a b\n.outputs y\n.names a b y{}\n{}.end\n"
    for rows in ("1- 1\n-1 1\n", "01 1\n10 1\n11 1\n"):
        commented = base.format(" # or", rows)  # rewritten, then read
        plain = base.format("", rows)  # read as it is
        spaced = base.format("", rows.replace(" ", "  "))  # read a row at a time
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
# rows that take the checked branch
ODD_ROWS = ["", "  ", "# a comment", "t1 a # a comment", "t01 a", "t2 a a",
            "t3 a b a", "t3 a a b", "t3 a b b", "t1 x", "t2 a x", "t4 a b c a", "t0",
            "t2 a", "t1 a b", "x a", ".end", ".begin", "  t1 a", "t3 a b c c"]
ENDS = [[".end"], [".end"], [], [".end", ".end"], [".end", "t1 a"], [".end", ""]]
REAL_BREAKS = ["\n"] * 4 + ["\r\n", "\u2028", " "]


def seeded_real(rng):
    """.real text that is mostly as write_real writes it, with header lines
    dropped, changed or added, odd rows anywhere, and any .end."""
    header = list(HEADER)
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(header))
        action = rng.choice(["keep", "keep", "drop", "insert"])
        if action == "drop" and header[at] != ".begin":
            del header[at]
        elif action == "insert":
            header.insert(at, rng.choice(ODD_HEADER))
    rows = [rng.choice(GOOD_ROWS) for _ in range(rng.randrange(9))]
    for _ in range(rng.randrange(3)):
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(ODD_ROWS))
    lines = header + rows + rng.choice(ENDS)
    return join(rng, lines, REAL_BREAKS, ["\n", ""])


def test_seeded_real_reads_as_pinned():
    rng = random.Random(18)
    texts = [seeded_real(rng) for _ in range(1000)]
    assert_pinned([parse_real], texts, SEEDED_REAL_DIGESTS)
    # no constructor judges what parse_real builds, so the reference does
    for text in texts:
        r = outcome(parse_real, text)
        if isinstance(r, RevCircuit):
            assert is_well_formed(r)
            assert RevCircuit(r.name, r.lines, r.gates) == r


REAL_BODIES = [
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
]
REAL_HEADERS = [HEADER, [".numvars 4", *HEADER[2:]], [HEADER[0], *HEADER[2:]],
                [*HEADER[:5], ".constants --", *HEADER[6:]]]


@pytest.mark.parametrize("b", range(len(REAL_BODIES)))
@pytest.mark.parametrize("h", range(len(REAL_HEADERS)))
def test_real_sample_reads_as_pinned(h, b):
    # the header's errors take precedence over the first bad row
    body, end = REAL_BODIES[b]
    text = "\n".join([*REAL_HEADERS[h], *body, end]) + "\n"
    texts = [variant(text) for variant in VARIANTS]
    want = REAL_SAMPLE_DIGESTS[h * len(REAL_BODIES) + b]
    assert_pinned([parse_real], texts, [want])


# -------------------------------------------- canonical text takes one path

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


def test_canonical_blif_is_never_rewritten(monkeypatch):
    expected = [(write_intermediate(c), c) for c in canonical_circuits()]
    expected += [(text, rewritten(text, True)) for text in (
        buffer_chain_blif(5),
        ".model add1\n.inputs a0 b0\n.outputs s0 s1\n.names a0 b0 s0\n"
        "01 1\n10 1\n.names a0 b0 c\n11 1\n.names c s1\n1 1\n.end\n")]

    def refuse(text):
        raise AssertionError(f"rewrote canonical text:\n{text}")

    monkeypatch.setattr(blif, "_logical_lines", refuse)
    for text, c in expected:
        assert parse_intermediate(text) == c


ONE_PASS_TEXTS = {
    "plain": HALF_ADDER_BLIF,
    "commented": HALF_ADDER_BLIF.replace("a b s\n", "a b s # the sum\n"),
    "crlf": HALF_ADDER_BLIF.replace("\n", "\r\n"),
    "continued": HALF_ADDER_BLIF.replace(".inputs a b", ".inputs a \\\n  b"),
    "malformed": HALF_ADDER_BLIF.replace("11 1", "12 1"),
    "indented": HALF_ADDER_BLIF.replace("\n.names a b c", "\n  .names a b c"),
}
REWRITTEN = {"commented", "crlf", "continued", "indented"}


@pytest.mark.parametrize("kind", ONE_PASS_TEXTS)
def test_the_interpreter_runs_once_per_parse(monkeypatch, kind):
    calls = []
    read = blif._read_blocks

    def counted(text, numbers, allow_copy):
        calls.append(numbers is not None)
        return read(text, numbers, allow_copy)

    monkeypatch.setattr(blif, "_read_blocks", counted)
    outcome(parse_intermediate, ONE_PASS_TEXTS[kind])
    assert calls == [kind in REWRITTEN]


def test_canonical_real_never_takes_the_checked_branch(monkeypatch):
    texts = [write_real(convert_circuit(slot_circuit(insert_copiers(c))))
             for c in canonical_circuits()]
    texts.append(not_chain_real(40))
    expected = [(text, parse_real(text)) for text in texts]

    def refuse(tokens, index_of, lineno):
        raise AssertionError("a gate row took the checked branch")

    # the checked branch reads each row through _checked_row, and the
    # plain rows do not; .end and the header pass
    monkeypatch.setattr(realfmt, "_checked_row", refuse)
    for text, r in expected:
        assert parse_real(text) == r


ABC_HEADER = (".version 2.0\n.numvars 3\n.variables a b c\n.inputs a b c\n"
              ".outputs a b c\n.constants ---\n.garbage ---\n.begin\n")


def test_each_odd_row_is_judged_at_most_once(monkeypatch):
    # t01 a is good and t2 a a is the first bad row; the rows after it
    # are never judged, and no row twice
    text = ABC_HEADER + "t2 a b\nt01 a\nt2 a a\nt4 a b c a\nt1 b\n.end\n"
    calls = []
    checked_row = realfmt._checked_row

    def counted(tokens, index_of, lineno):
        calls.append(lineno)
        return checked_row(tokens, index_of, lineno)

    monkeypatch.setattr(realfmt, "_checked_row", counted)
    with pytest.raises(RealFormatError) as err:
        parse_real(text)
    assert str(err.value) == "line 11: gate touches a line twice: (0, 0)"
    assert calls == [10, 11]


def test_odd_rows_keep_their_place():
    r = parse_real(ABC_HEADER + "t1 a\nt02 a b\nt1 b\n.end\n")
    assert r._rows == ((0,), (0, 1), (1,))
    assert r == parse_real(ABC_HEADER + "t1 a\nt2 a b\nt1 b\n.end\n")


SEEDED_BLIF_DIGESTS = """
e5aa06111142cd3d 9f479b042b75298d d3928fd384d50635 1df7b73f3cc9cb53
48d5a6607fc8228b 647359fa6de1fcca 8d055175dc5bc79d ec8e6066107dbaf6
bf91aa66bd15e595 baa53352fe152cf8 fa024d382e75a12f 01ceac73be88d7f2
493d74b22024b84d 86118080412d1218 1bbe07e0dbc66213 35e2cca82d0609df
467712125ef17b1d 18ab1eb8d2bfc354 ea3111f50f91faf0 397201f320352d87
090fdf4fe6d40bc8 404d886fd1bdb8ec 1c6d65493fdfce8e a12773e9f2fd958c
9a84804d0ab30013 a22ae69fdf0e71b4 ddb41949380796a9 60a89e5d5dd34c74
31dd5f2a6cc5fe07 b327d2eb59a221de 5779e612496a51a2 5c574a995c47c660
b45382359239ad54 816226a1a90f2bd5 92beb490128a21e5 9944b378cf082126
498863759e40087f 4f341b861b89d57e 6894049b37717337 40192a25e35834a2
e05ad8bcb16549a7 20666fcd8232a888 d6dd50ed28ce7cf7 09b3cf7ffd5282e9
70821c0bb0809fa5 f46c6f69675b1541 beea79bb26d6abef 2e75b8b34248999e
2d77e055f80298d6 91fcbcb789551a16
""".split()
SEEDED_REAL_DIGESTS = """
72dc8396fbda955c 9daf2e9ebac6ee64 394cfc3809fd01a0 3b6cf1d77fd603f3
42ff81d0bf4efac6 e6427a08e146c57d ab4d46e0ead319f2 09e09ca7715c352d
d1da38265ef62235 ebafc0695425f2a4 0aec1d7d20125281 3f00c41c6878713a
13e60a6c2087032d 31c64abe8bcc0bc6 90710076101ce893 dc7b63ff724fa714
0c3040c6c116c8a8 6798076b71913c78 76a42f69848fc4d7 50ace59444dcdd25
ef6cb3a77c25e0e8 72dfcdfe52b8a113 fcbe35fc241b7ed1 8a71bc2ff6b0e966
8d943980ad2b1f6f 6d2434b3ba802369 96353ff838d8ca82 ccecc09f8adc53bb
c441f9912daa4099 b3c190f1c7d17e87 c655bd8a3ba340b7 4ef85e921f20e07a
d4f7eecb02942eac b362e217f6582d54 57c77cd58a08fefa 794c0814bc01183f
a8d145a5b139face 089cce2f1f274eb0 df4c3034444af738 67af6dcd98271b79
3e6c7bca9cb08743 12deb5f80f38bc7c 61bb8ab65c3bf431 8525cd9fdc66f69f
c5e676457a9af8f2 684ed9d1e9b30dcd 94afe709b4ecb899 78e9b6640ed32534
4236bfcc5143fb87 55ece87ce86134d8
""".split()
BLIF_SAMPLE_DIGESTS = """
1860e701f66fb8c4 39598c2550823042 ea1039f8693a0ccc c773d357aeeb6ce5
2a2df3264f9a6a13 e61add353b6652ff b38d3a0d0c932747 2abd43424cade3e4
68c05c2e98add901 68c05c2e98add901 2ce6c57d0a80d792 fb0f55bfea7d7ae4
f135bfdbdceecf21 234db9d4b74c6325 8a5742d5ef86818b 8a5742d5ef86818b
6de2b8dcf41329a2 6f007111d4256c7d 2abd43424cade3e4 25301a23b28add17
ab5d7fd9a1dd4535 f5db56d038d0b80a 778ca7522a354ec2 d6753417dd4fe51e
2abd43424cade3e4 70ea08a334fa9760
""".split()
REAL_SAMPLE_DIGESTS = """
0c964aff55cad848 4b9a9607cd816481 58526ece4ea03c89 69747f2f37c61d9c
9ac5b4ae6a361161 0d50709cd1d6ef7e c315a49b85cd5977 4d7e273f1bcf95b2
7894a7d487dd96c2 7894a7d487dd96c2 0ec2f948f92a1f1f 0ec2f948f92a1f1f
0ec2f948f92a1f1f 0ec2f948f92a1f1f 0ec2f948f92a1f1f 0ec2f948f92a1f1f
0ec2f948f92a1f1f a76bda2cf884d57f b7575dba1f0f1c40 b7575dba1f0f1c40
18309a3337d2ad55 18309a3337d2ad55 18309a3337d2ad55 18309a3337d2ad55
18309a3337d2ad55 18309a3337d2ad55 18309a3337d2ad55 18309a3337d2ad55
8db04dc71cc5c858 8db04dc71cc5c858 9f8710441b8028b1 9f8710441b8028b1
9f8710441b8028b1 9f8710441b8028b1 9f8710441b8028b1 9f8710441b8028b1
9f8710441b8028b1 4d7e273f1bcf95b2 7894a7d487dd96c2 7894a7d487dd96c2
""".split()
