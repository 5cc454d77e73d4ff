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
(.version, which is ignored, may repeat).  .inputs, if given, must list
what write_real would: each line's name, or its bit if .constants makes
it an ancilla.  Gates above two controls (t4 and up) are out of the
supported set.  The format carries no circuit name, so a parsed circuit
is named "".

Both functions work on the packed form a RevCircuit holds.  write_real
reads its three line columns and its gate rows.  parse_real turns the
header into the columns and reads the gate rows in one loop: a row as
write_real spells it becomes its tuple of line indices directly, and any
other row keeps its place and is parsed and checked once, after the
checks on the body's end and on the header, which take precedence.
"""

from itertools import count
from operator import length_hint

from .errors import RealFormatError, UnsupportedError
from .ir import _rev_circuit


def _output_labels(outputs):
    """Each line's .outputs label, from the outputs column: its primary
    output, or g<k> for garbage."""
    garbage = count()
    return [
        f"g{next(garbage)}" if output is None else output for output in outputs
    ]


def _input_entries(names, constants):
    """Each line's .inputs entry, from the names and constants columns: its
    name on a primary-input line, its constant's bit on an ancilla line."""
    return [
        name if bit is None else _BIT[bit] for name, bit in zip(names, constants)
    ]


def write_real(r):
    names, constants, outputs = r._names, r._constants, r._outputs
    out = [".version 2.0", f".numvars {len(names)}"]
    out.append(" ".join((".variables", *names)))
    out.append(" ".join((".inputs", *_input_entries(names, constants))))
    out.append(" ".join((".outputs", *_output_labels(outputs))))
    out.append(".constants " + "".join(map(_BIT.__getitem__, constants)))
    out.append(
        ".garbage " + "".join("1" if output is None else "-" for output in outputs)
    )
    out.append(".begin")
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


# each .constants character as a Line's constant, and back
_CONSTANT = {"-": None, "0": 0, "1": 1}
_BIT = {None: "-", 0: "0", 1: "1"}

# the header's per-line directives, in the order their lengths are judged:
# lists of names, then words over each one's alphabet
_LISTS = (".variables", ".inputs", ".outputs")
_WORDS = {".constants": "01-", ".garbage": "1-"}


def parse_real(text):
    header = {}  # directive -> its value, for each directive read
    lineno = 0  # after the loop, the line of .begin, or the last line

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
            try:
                header[head] = int(tokens[1])
            except ValueError:  # more digits than int() reads
                raise RealFormatError(".numvars has too many digits", lineno) from None
        elif head == ".begin":
            break
        else:
            raise RealFormatError(f"unknown directive {head}", lineno)
    width = header.get(".numvars")
    variables = header.get(".variables")

    index_of = {name: i for i, name in enumerate(variables or ())}

    # The body is read a row at a time, against the header read so far.  A
    # row as write_real spells it, on distinct lines that index_of knows,
    # becomes its tuple of line indices at once; any other row holds its
    # place with None and is judged only after the checks below on the
    # body's end and on the header, which take precedence over it.
    rows = []
    append = rows.append
    odd = []  # each other row, as (its place in rows, tokens, lineno)
    ended = False
    body = iter(raws[lineno:])  # empty if the loop above found no .begin
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
        odd.append((len(rows), tokens, len(raws) - length_hint(body)))
        append(None)
    for tokens in map(split, body):
        if tokens:
            lineno = len(raws) - length_hint(body)
            raise RealFormatError("content after .end", lineno)

    if width is None:
        raise RealFormatError("missing .numvars")
    if variables is None:
        raise RealFormatError("missing .variables")
    if not ended:
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
    constants = tuple(map(_CONSTANT.__getitem__, header[".constants"]))
    inputs = header.get(".inputs")
    if inputs is not None:
        expected = _input_entries(variables, constants)
        if inputs != expected:  # a whole-list test; walked only to report
            for k, (got, want) in enumerate(zip(inputs, expected), start=1):
                if got != want:
                    raise RealFormatError(
                        f"inconsistent header: .inputs entry {k} is {got!r}, "
                        f"not {want!r}"
                    )
    for at, tokens, lineno in odd:  # in file order, so the first bad raises
        rows[at] = _checked_row(tokens, index_of, lineno)

    # a line's output is None for garbage, else its .outputs label, which
    # defaults to the line's name
    labels = zip(header[".garbage"], header.get(".outputs", variables))
    outputs = tuple([None if g == "1" else label for g, label in labels])
    named = [label for label in outputs if label is not None]
    if len(set(named)) != len(named):
        raise RealFormatError("a primary output appears on two lines")
    return _rev_circuit("", tuple(variables), constants, outputs, tuple(rows))


def _checked_row(tokens, index_of, lineno):
    """The row of a gate line that is not spelled as write_real spells it;
    raise its RealFormatError or UnsupportedError if it is bad."""
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
    # the number as int() spells it, without building an int of a number
    # of any length
    digits = head[1:].lstrip("0")
    if len(digits) > 1 or digits > "3":
        raise UnsupportedError(f"unsupported gate t{digits}: at most 2 controls")
    if not digits:
        raise RealFormatError("bad gate size t0", lineno)
    return int(digits)
