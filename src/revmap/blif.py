"""BLIF-subset reader and writer.

Accepted directives: .model, .inputs, .outputs, .names with one- or
two-input single-output covers, and .end.  A ``#`` starts a comment and a
trailing backslash continues a logical line.  Sequential and hierarchical
constructs (.latch, .subckt, .gate) are rejected as unsupported.

The intermediate format is the same dialect plus one extension,
``.copy <in> <out1> <out2>``, the explicit fanout gate.  parse_blif
rejects it; parse_intermediate accepts it.

Covers are classified by their on-set, so any row spelling of a supported
function is accepted: for example ``1- 1`` / ``-1 1`` and the three
minterm rows both read as OR.  A one-input cover with on-set {1} is the
identity; it emits no gate and instead aliases the output name to the
input name everywhere downstream, including in .outputs.

Both dialects have one reader, _read_blocks, which reads a directive block
at a time and raises every syntax error with its line.  Text as
write_intermediate writes it is read as it is; any other text, an
indented directive included, is first rewritten by _logical_lines to one
single-spaced logical line per "\n".
"""

import re
from itertools import chain, product, repeat

from .errors import BlifError, UnsupportedError, ValidationError
from .ir import IrGateKind, Violation, _ir_circuit, validate_circuit

_COVER_KINDS = {
    (1, frozenset({"0"})): IrGateKind.NOT,
    (2, frozenset({"11"})): IrGateKind.AND,
    (2, frozenset({"00", "01", "10"})): IrGateKind.NAND,
    (2, frozenset({"01", "10", "11"})): IrGateKind.OR,
    (2, frozenset({"00"})): IrGateKind.NOR,
    (2, frozenset({"01", "10"})): IrGateKind.XOR,
    (2, frozenset({"00", "11"})): IrGateKind.XNOR,
}

_BUFFER = (1, frozenset({"1"}))

_EMIT_ROWS = {kind: tuple(sorted(onset)) for (_, onset), kind in _COVER_KINDS.items()}

_REJECTED_DIRECTIVES = (".latch", ".subckt", ".gate", ".exdc", ".clock")

# the valid cover patterns of a one- and a two-input .names
_PATTERNS = {n: frozenset(map("".join, product("01-", repeat=n))) for n in (1, 2)}

# The verdict of classify_cover on each cover spelling classified so far,
# keyed by (n_inputs, rows), the rows spelled as write_intermediate writes
# them, one "<pattern> <bit>" a line, so that _read_blocks looks up such a
# cover as it reads it.  Only covers of at most four rows are kept, and at
# most 1104 of those are supported functions, so no input can grow the
# table past that; a cover that classify_cover rejects is never kept.
_KNOWN_COVERS = {}
_UNKNOWN = object()


def classify_cover(rows, n_inputs, subject="cover"):
    """Classify a cover by its on-set; return a gate kind or None for identity.

    rows are (pattern, output_bit) pairs with patterns over {0,1,-}.  The
    expansion of the patterns must equal the on-set of one supported
    function exactly.  Rows with output bit 0 belong to off-set cover
    style, which this subset does not accept.
    """
    onset = set()
    for pattern, out in rows:
        if out != "1":
            raise UnsupportedError(
                f"{subject}: rows with output 0 are not supported"
            )
        choices = ["01" if ch == "-" else ch for ch in pattern]
        for minterm in product(*choices):
            onset.add("".join(minterm))
    key = (n_inputs, frozenset(onset))
    if key == _BUFFER:
        return None
    try:
        return _COVER_KINDS[key]
    except KeyError:
        shown = ",".join(sorted(onset)) or "empty"
        raise UnsupportedError(
            f"{subject}: unrecognized cover with on-set {{{shown}}}"
        ) from None


def _logical_lines(text):
    """The text rewritten as plain lines, and each one's line in the file.

    Comments are stripped, continuations joined and blank lines dropped;
    each logical line becomes its tokens, single-spaced, and the lines are
    joined by "\n".  The list holds the file line each of them starts on.
    """
    raw = text.splitlines()
    lines = []
    numbers = []
    i = 0
    while i < len(raw):
        start = i + 1
        piece = raw[i].split("#", 1)[0]
        while piece.rstrip().endswith("\\"):
            piece = piece.rstrip()[:-1]
            i += 1
            if i < len(raw):
                piece += " " + raw[i].split("#", 1)[0]
        tokens = piece.split()
        i += 1
        if tokens:
            lines.append(" ".join(tokens))
            numbers.append(start)
    return "\n".join(lines), numbers


# What makes a logical line start, join or drop other than at a plain
# "\n": a comment, a continuation, and every other line break that
# str.splitlines honours
_LINE_BREAKERS = ("#", "\\", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                  "\x85", "\u2028", "\u2029")


# a line that opens with whitespace and then a directive
_INDENTED_DIRECTIVE = re.compile(r"\n[^\S\n]+\.")


def _parse(text, allow_copy):
    # Text that opens with a directive, has no character of _LINE_BREAKERS
    # and no indented directive, as revmap writes it, has one logical line
    # per "\n" and every directive at a "\n.", so it is read as it is; any
    # other text is rewritten once.
    numbers = None
    if (text[:1] != "." or any(map(text.__contains__, _LINE_BREAKERS))
            or _INDENTED_DIRECTIVE.search(text)):
        text, numbers = _logical_lines(text)
    return _resolve_aliases(*_read_blocks(text, numbers, allow_copy))


def _read_blocks(text, numbers, allow_copy):
    """Read text a directive block at a time; return (circuit, buffer aliases).

    Each "\n"-ended line of text is a logical line, and numbers, unless it
    is None, holds each one's line in the file.  Every directive opens a
    block at a "\n." (_parse rewrote any text that indents one), and a
    .names block holds its head and its cover rows, so a cover as
    write_intermediate spells it is looked up whole.  Any other block body
    is split into rows.  The circuit's names are as written:
    _resolve_aliases renames the buffers' outputs.  Every syntax error of
    the dialect is raised here, and only then is its line counted.
    """
    model = None
    inputs = []
    outputs = []
    # the gate columns: each gate's kind, input nets and output nets
    kinds = []
    ins_col = []
    outs_col = []
    aliases = {}
    ended = False
    if text and text[0] != ".":  # a rewritten text whose first line is no directive
        first = text.split(None, 1)[0]
        raise BlifError(f"expected a directive, got {first!r}", numbers[0])
    blocks = text[1:].split("\n.") if text else []

    def line(offset=0):
        """The file line of the offset-th line of the block being read."""
        n = k + offset + sum(map(str.count, blocks[:k], repeat("\n")))
        return n + 1 if numbers is None else numbers[n]

    def body_rows(body):
        """(offset, tokens) for each non-blank line of body."""
        return [(j, tokens) for j, tokens in
                enumerate(map(str.split, body.split("\n")), 1) if tokens]

    add_kind, add_ins, add_outs = kinds.append, ins_col.append, outs_col.append
    known = _KNOWN_COVERS.get
    for k, block in enumerate(blocks):
        head, _, body = block.partition("\n")
        tokens = head.split()
        if ended or not tokens or head[0].isspace():
            # a line after .end, or a "." that no name follows
            if not ended:
                raise BlifError("unknown directive .", line())
            if tokens[:1] == ["model"] and not head[0].isspace():
                raise BlifError("only one .model block is supported", line())
            raise BlifError("content after .end", line())
        directive = tokens[0]
        if directive == "names":  # the most frequent directive, tested first
            n = len(tokens) - 2
            if n == 2:
                ins = (tokens[1], tokens[2])
            elif n == 1:
                ins = (tokens[1],)
            elif n == 0:
                raise UnsupportedError(
                    f"constant cover for '{tokens[1]}': .names needs at least one input"
                )
            elif n < 0:
                raise BlifError(".names needs nets", line())
            else:
                raise UnsupportedError(
                    f"gate '{tokens[-1]}' has {n} inputs; at most 2 are supported"
                )
            out = tokens[-1]
            # a cover as write_intermediate spells it is its own key
            kind = known((n, body), _UNKNOWN)
            if kind is _UNKNOWN:
                rows = body_rows(body)
                patterns = _PATTERNS[n]
                for j, row in rows:
                    if len(row) != 2:
                        raise BlifError("cover row must be '<pattern> <bit>'", line(j))
                    pattern, bit = row
                    if pattern not in patterns:
                        raise BlifError(f"bad cover pattern {pattern!r}", line(j))
                    if bit != "1" and bit != "0":
                        raise BlifError(f"bad cover output bit {bit!r}", line(j))
                cover = [row for _, row in rows]
                key = (n, "\n".join(map(" ".join, cover)))
                kind = known(key, _UNKNOWN)
                if kind is _UNKNOWN:
                    kind = classify_cover(cover, n, subject=f"gate '{out}'")
                    if len(cover) <= 4:
                        _KNOWN_COVERS[key] = kind
            if kind is not None:
                add_kind(kind)
                add_ins(ins)
                add_outs((out,))
            elif out in aliases:
                # a gate driving the same net is caught by _resolve_aliases
                raise BlifError(f"multiple drivers for net '{out}'", line())
            else:
                aliases[out] = ins[0]
            continue
        if directive == "inputs":
            inputs += tokens[1:]
        elif directive == "outputs":
            outputs += tokens[1:]
        elif directive == "copy":
            if not allow_copy:
                raise BlifError(".copy is only valid in the intermediate format", line())
            if len(tokens) != 4:
                raise BlifError(".copy takes one input and two outputs", line())
            add_kind(IrGateKind.COPY)
            add_ins((tokens[1],))
            add_outs((tokens[2], tokens[3]))
        elif directive == "model":
            if model is not None:
                raise BlifError("only one .model block is supported", line())
            if len(tokens) != 2:
                raise BlifError(".model takes exactly one name", line())
            model = tokens[1]
        elif directive == "end":
            ended = True
        elif "." + directive in _REJECTED_DIRECTIVES:
            raise UnsupportedError(f"unsupported construct .{directive}")
        else:
            raise BlifError(f"unknown directive .{directive}", line())
        if body and not body.isspace():  # lines under a one-line directive
            rows = body_rows(body)
            if rows:  # the first is out of place
                j, row = rows[0]
                if ended:
                    raise BlifError("content after .end", line(j))
                raise BlifError(f"expected a directive, got {row[0]!r}", line(j))
    c = _ir_circuit(model or "top", tuple(inputs), tuple(outputs),
                    tuple(kinds), tuple(ins_col), tuple(outs_col))
    return c, aliases


def _resolve_aliases(c, aliases):
    if not aliases:
        return c
    driven = set(chain.from_iterable(c._outs)).union(c.inputs)
    clash = sorted(set(aliases) & driven)
    if clash:
        raise BlifError(f"multiple drivers for net '{clash[0]}'")

    def resolve(name):
        seen = set()
        while name in aliases:
            if name in seen:
                raise BlifError(f"buffer alias cycle involving '{name}'")
            seen.add(name)
            name = aliases[name]
        # point every walked alias at the root, so each chain is walked once
        for alias in seen:
            aliases[alias] = name
        return name

    # only a gate that reads an alias gets new input nets
    ins_col = tuple(
        tuple(map(resolve, ins)) if not aliases.keys().isdisjoint(ins) else ins
        for ins in c._ins
    )
    outputs = tuple(map(resolve, c.outputs))
    if len(set(outputs)) < len(set(c.outputs)):
        # two distinct outputs alias one net, which a line cannot carry twice
        first = {}
        for name, net in zip(c.outputs, outputs):
            if first.setdefault(net, name) != name:
                raise UnsupportedError(
                    f"primary outputs '{first[net]}' and '{name}' are both net "
                    f"'{net}' after buffer aliasing; one net cannot be two outputs"
                )
    resolved = _ir_circuit(c.name, c.inputs, outputs, c._kinds, ins_col, c._outs)
    repeated = []  # each repeat of a name in .outputs, in order
    if len(outputs) > len(set(outputs)):
        seen = set()
        for name in c.outputs:
            if name in seen:
                repeated.append(name)
            seen.add(name)

    # A buffer that nothing reads leaves no trace in the circuit, so its
    # chain is resolved here: a cycle is rejected as above, and an undriven
    # root is listed after the circuit's violations, as a read one would be.
    # A repeated output that is an alias is reported here too, as the
    # resolved circuit names it by its net.
    roots = [r for r in dict.fromkeys(map(resolve, aliases)) if r not in driven]
    lost = []
    if roots:
        read = set(chain.from_iterable(ins_col)).union(outputs)
        lost = [Violation("undriven-input", r) for r in roots if r not in read]
    if lost or not aliases.keys().isdisjoint(repeated):
        # validate_circuit names a repeated output by its net; name it as
        # .outputs writes it.  No parsed name is bad, so the violations
        # open with the repeats in .inputs, then those in .outputs.
        found = validate_circuit(resolved)
        start = len(c.inputs) - len(set(c.inputs))
        found[start:start + len(repeated)] = [
            Violation("duplicate-name", name) for name in repeated
        ]
        raise ValidationError(found + lost)
    return resolved


def parse_blif(text):
    """Parse plain BLIF text into an IrCircuit.

    The circuit is not validated, except that a buffer nothing reads must
    lead to a driven net without a cycle (BlifError); if it does not, the
    ValidationError lists the circuit's other violations first.
    """
    return _parse(text, allow_copy=False)


def parse_intermediate(text):
    """Parse intermediate-format text, which may contain .copy gates."""
    return _parse(text, allow_copy=True)


def write_intermediate(c):
    """Serialize a circuit to intermediate-format text.

    COPY gates become .copy lines and every other kind becomes a .names
    block with its canonical minterm rows, so a COPY-free circuit is plain
    BLIF.  Emission is deterministic: same circuit, same bytes.
    """
    out = [f".model {c.name}"]
    out.append(" ".join((".inputs", *c.inputs)).rstrip())
    out.append(" ".join((".outputs", *c.outputs)).rstrip())
    for kind, ins, outs in zip(c._kinds, c._ins, c._outs):
        if kind is IrGateKind.COPY:
            out.append(f".copy {ins[0]} {outs[0]} {outs[1]}")
            continue
        out.append(" ".join((".names", *ins, outs[0])))
        for pattern in _EMIT_ROWS[kind]:
            out.append(f"{pattern} 1")
    out.append(".end")
    return "\n".join(out) + "\n"
