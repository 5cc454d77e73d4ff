"""RevLib-style .real serialization.

write_real emits, in this order: .version 2.0, .numvars, .variables (one
name per line of the circuit), .inputs (the net name for a primary-input
line, the constant's bit for an ancilla line), .outputs (the primary
output name, or g<k> for the k-th garbage line), .constants (a word over
{0,1,-}, '-' marking non-constant lines), .garbage (a word over {1,-}),
then the gate list between .begin and .end with one ``t<n>`` gate per
line, controls first and target last.

parse_real accepts that layout plus ``#`` comments and blank lines, with
the header directives in any order before .begin, each at most once
(.version, which is ignored, may repeat).  Gates above two controls (t4
and up) are out of the supported set.  The format carries no circuit
name, so a parsed circuit is named "".  The gate rows are read in one
loop into the packed rows a RevCircuit holds: a row as write_real spells
it becomes its tuple of line indices directly, and any other row is
parsed and checked.
"""

from itertools import count
from operator import length_hint

from .errors import RealFormatError, UnsupportedError
from .ir import _rev_circuit


def _output_labels(lines):
    """Each line's .outputs label: its primary output, or g<k> for garbage."""
    garbage = count()
    return [
        f"g{next(garbage)}" if ln.output is None else ln.output for ln in lines
    ]


def write_real(r):
    out = [".version 2.0", f".numvars {r.width}"]
    out.append(" ".join((".variables", *(ln.name for ln in r.lines))))
    out.append(
        " ".join(
            (
                ".inputs",
                *(
                    ln.name if ln.constant is None else str(ln.constant)
                    for ln in r.lines
                ),
            )
        )
    )
    out.append(" ".join((".outputs", *_output_labels(r.lines))))
    out.append(
        ".constants "
        + "".join(
            "-" if ln.constant is None else str(ln.constant) for ln in r.lines
        )
    )
    out.append(
        ".garbage " + "".join("1" if ln.output is None else "-" for ln in r.lines)
    )
    out.append(".begin")
    names = [ln.name for ln in r.lines]
    for row in r._rows:
        n = len(row)
        if n == 1:
            out.append(f"t1 {names[row[0]]}")
        elif n == 2:
            a, target = row
            out.append(f"t2 {names[a]} {names[target]}")
        else:
            a, b, target = row
            out.append(f"t3 {names[a]} {names[b]} {names[target]}")
    out.append(".end")
    return "\n".join(out) + "\n"


def _tokens(raw):
    """The tokens of one line, without its # comment."""
    return (raw.split("#", 1)[0] if "#" in raw else raw).split()


# each .constants character as a Line's constant
_CONSTANT = {"-": None, "0": 0, "1": 1}

# the header's per-line directives, in the order their lengths are judged:
# lists of names, then words over each one's alphabet
_LISTS = (".variables", ".inputs", ".outputs")
_WORDS = {".constants": "01-", ".garbage": "1-"}


def parse_real(text):
    header = {}  # directive -> its value, for each directive read
    in_body = False

    split = _tokens if "#" in text else str.split
    raws = text.splitlines()
    for lineno, raw in enumerate(raws, start=1):
        tokens = split(raw)
        if not tokens:
            continue
        head = tokens[0]
        if head == ".version":
            continue
        if head in header:
            raise RealFormatError(f"{head} given twice", lineno)
        if head in _LISTS:
            header[head] = tokens[1:]
        elif head in _WORDS:
            header[head] = _word(tokens, _WORDS[head], lineno)
        elif head == ".numvars":
            if len(tokens) != 2 or not _is_number(tokens[1]):
                raise RealFormatError(".numvars takes one number", lineno)
            header[head] = int(tokens[1])
        elif head == ".begin":
            in_body = True
            break
        else:
            raise RealFormatError(f"unknown directive {head}", lineno)
    width = header.get(".numvars")
    variables = header.get(".variables")

    index_of = {name: i for i, name in enumerate(variables or ())}

    # The body is read a row at a time, against the header read so far.  A
    # row as write_real spells it, on distinct lines that index_of knows,
    # becomes its tuple of line indices at once; any other row is parsed
    # and checked, until the first bad one.  That row is kept, with its
    # line, and judged again only after the checks below on the body's end
    # and on the header, which take precedence over it.
    rows = []
    append = rows.append
    bad = None  # the first bad row, as (tokens, lineno)
    ended = False
    body = iter(raws[lineno:] if in_body else ())
    for tokens in map(split, body):
        n = len(tokens)
        try:
            if n == 3:
                head, a, target = tokens
                if head == "t2":
                    a, target = index_of[a], index_of[target]
                    if a != target:
                        append((a, target))
                        continue
            elif n == 2:
                head, target = tokens
                if head == "t1":
                    append((index_of[target],))
                    continue
            elif n == 4:
                head, a, b, target = tokens
                if head == "t3":
                    a, b, target = index_of[a], index_of[b], index_of[target]
                    if a != b and a != target and b != target:
                        append((a, b, target))
                        continue
        except KeyError:
            pass  # an unknown line, which the checked branch reports
        if not tokens:
            continue
        if tokens[0] == ".end":
            ended = True
            break
        if bad is None:
            lineno = len(raws) - length_hint(body)
            try:
                append(_checked_row(tokens, index_of, lineno))
            except (RealFormatError, UnsupportedError):
                bad = tokens, lineno
    for tokens in map(split, body):
        if tokens:
            lineno = len(raws) - length_hint(body)
            raise RealFormatError("content after .end", lineno)

    if width is None:
        raise RealFormatError("missing .numvars")
    if variables is None:
        raise RealFormatError("missing .variables")
    if not in_body or not ended:
        raise RealFormatError("missing .begin/.end body")

    for head in _LISTS:
        row = header.get(head)
        if row is not None and len(row) != width:
            raise RealFormatError(
                f"inconsistent header: {head} lists {len(row)} entries "
                f"for {width} lines"
            )
    for head in _WORDS:
        word = header.setdefault(head, "-" * width)  # left out: no line marked
        if len(word) != width:
            raise RealFormatError(
                f"inconsistent header: {head} word has length {len(word)} "
                f"for {width} lines"
            )
    if len(index_of) != width:
        raise RealFormatError("duplicate names in .variables")
    if bad is not None:
        tokens, lineno = bad
        _checked_row(tokens, index_of, lineno)  # raises, as it did above

    # a line's output is None for garbage, else its .outputs label, which
    # defaults to the line's name
    labels = zip(header[".garbage"], header.get(".outputs", variables))
    outputs = [None if g == "1" else label for g, label in labels]
    named = [label for label in outputs if label is not None]
    if len(set(named)) != len(named):
        raise RealFormatError("a primary output appears on two lines")
    return _rev_circuit(
        "",
        variables,
        map(_CONSTANT.__getitem__, header[".constants"]),
        outputs,
        tuple(rows),
    )


def _checked_row(tokens, index_of, lineno):
    """The row of a gate line that is not spelled as write_real spells it,
    or its RealFormatError or UnsupportedError."""
    head = tokens[0]
    n = _gate_size(head, lineno)
    if len(tokens) != n + 1:
        raise RealFormatError(f"t{n} takes exactly {n} lines", lineno)
    # controls first, target last; the first unknown name is reported
    unknown = [name for name in tokens[1:] if name not in index_of]
    if unknown:
        raise RealFormatError(f"unknown line {unknown[0]!r}", lineno)
    row = tuple(map(index_of.__getitem__, tokens[1:]))
    if len(set(row)) != n:
        raise RealFormatError(f"gate touches a line twice: {row}", lineno)
    return row


def _word(tokens, alphabet, lineno):
    # no word is the empty word, which write_real gives a zero-line circuit;
    # the header check judges its length
    word = tokens[1] if len(tokens) > 1 else ""
    if len(tokens) > 2 or not set(word).issubset(alphabet):
        raise RealFormatError(
            f"{tokens[0]} takes one word over {{{','.join(alphabet)}}}", lineno
        )
    return word


def _is_number(text):
    # str.isdigit alone also accepts digits such as '²' and '٢'
    return text.isascii() and text.isdigit()


def _gate_size(head, lineno):
    """Lines touched by a gate row with this head."""
    if head[:1] != "t" or not _is_number(head[1:]):
        raise RealFormatError(f"unknown gate {head!r}", lineno)
    n = int(head[1:])
    if n > 3:
        raise UnsupportedError(f"unsupported gate t{n}: at most 2 controls")
    if n < 1:
        raise RealFormatError(f"bad gate size t{n}", lineno)
    return n
