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
"""

from itertools import product

from .errors import BlifError, UnsupportedError, ValidationError
from .ir import IrCircuit, IrGate, IrGateKind, Violation, validate_circuit

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
# them (see _cover_kind).  Only covers of at most four rows are kept, and at
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


def _tokens(raw):
    """The tokens of one physical line, without its # comment."""
    return (raw.split("#", 1)[0] if "#" in raw else raw).split()


def _logical_lines(text):
    """List (line_number, tokens) with comments stripped and continuations joined."""
    raw = text.splitlines()
    if "\\" not in text:
        split = _tokens if "#" in text else str.split
        return [
            (lineno, tokens)
            for lineno, tokens in enumerate(map(split, raw), start=1)
            if tokens
        ]
    lines = []
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
            lines.append((start, tokens))
    return lines


# What makes the line reader start, join or drop a line other than at a
# plain "\n": a comment, a continuation, and every other line break that
# str.splitlines honours
_LINE_BREAKERS = ("#", "\\", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                  "\x85", "\u2028", "\u2029")


def _parse(text, allow_copy):
    read = _read_blocks(text, allow_copy) or _read_lines(text, allow_copy)
    return _resolve_aliases(*read)


def _read_blocks(text, allow_copy):
    """Read well-formed text a directive block at a time, or return None.

    Without the characters of _LINE_BREAKERS, each logical line is one
    "\n"-ended line, so every directive opens a block at a "\n.", and a
    .names block holds its head and its cover rows.  What this reads, it
    reads as _read_lines would, and it returns the same pair.  On anything
    else it returns None, for _read_lines to read the text and raise its
    error: text before the first directive or after .end, a directive
    line that starts with whitespace or that is unknown, rejected or
    malformed, a bad cover row or an unsupported cover, a second driver
    for a buffer's net.
    """
    if text[:1] != "." or any(map(text.__contains__, _LINE_BREAKERS)):
        return None
    model = None
    inputs = []
    outputs = []
    gates = []
    aliases = {}
    ended = False
    append = gates.append
    known = _KNOWN_COVERS.get
    for block in text[1:].split("\n."):
        head, _, cover = block.partition("\n")
        tokens = head.split()
        if ended or not tokens or head[0].isspace():
            return None
        directive = tokens[0]
        if directive == "names":  # the most frequent directive, tested first
            n = len(tokens) - 2
            if n == 2:
                ins = (tokens[1], tokens[2])
            elif n == 1:
                ins = (tokens[1],)
            else:
                return None
            out = tokens[-1]
            # a cover as write_intermediate spells it is its own key
            kind = known((n, cover), _UNKNOWN)
            if kind is _UNKNOWN:
                kind = _block_cover(n, cover, out)
                if kind is _UNKNOWN:
                    return None
            if kind is not None:
                append(IrGate(kind, ins, (out,)))
            elif out in aliases:
                return None
            else:
                aliases[out] = ins[0]
        elif cover and not cover.isspace():
            return None  # a second line under a one-line directive
        elif directive == "inputs":
            inputs += tokens[1:]
        elif directive == "outputs":
            outputs += tokens[1:]
        elif directive == "copy":
            if not allow_copy or len(tokens) != 4:
                return None
            append(IrGate(IrGateKind.COPY, (tokens[1],), (tokens[2], tokens[3])))
        elif directive == "model":
            if model is not None or len(tokens) != 2:
                return None
            model = tokens[1]
        elif directive == "end":
            ended = True
        else:
            return None
    return _circuit(model, inputs, outputs, gates), aliases


def _block_cover(n_inputs, cover, out):
    """The verdict on a .names block's cover text, _UNKNOWN if it is bad."""
    rows = [row for row in map(str.split, cover.split("\n")) if row]
    patterns = _PATTERNS[n_inputs]
    for row in rows:
        if len(row) != 2 or row[0] not in patterns or row[1] not in ("0", "1"):
            return _UNKNOWN
    try:
        return _cover_kind(n_inputs, rows, out)
    except UnsupportedError:
        return _UNKNOWN


def _cover_kind(n_inputs, rows, out):
    """classify_cover's verdict on well-formed rows, kept in _KNOWN_COVERS.

    The key is the rows as write_intermediate spells them, one
    "<pattern> <bit>" a line, which _read_blocks looks up as it reads.
    """
    key = (n_inputs, "\n".join(map(" ".join, rows)))
    kind = _KNOWN_COVERS.get(key, _UNKNOWN)
    if kind is _UNKNOWN:
        kind = classify_cover(rows, n_inputs, subject=f"gate '{out}'")
        if len(rows) <= 4:
            _KNOWN_COVERS[key] = kind
    return kind


def _circuit(model, inputs, outputs, gates):
    return IrCircuit(model or "top", tuple(inputs), tuple(outputs), tuple(gates))


def _read_lines(text, allow_copy):
    """Read text a logical line at a time; return (circuit, buffer aliases).

    The circuit's names are as written: _resolve_aliases renames the
    buffers' outputs.  Every syntax error of the dialect is raised here.
    """
    model = None
    inputs = []
    outputs = []
    gates = []
    aliases = {}
    ended = False

    lines = _logical_lines(text)
    pos = 0
    while pos < len(lines):
        lineno, tokens = lines[pos]
        head = tokens[0]
        if ended:
            if head == ".model":
                raise BlifError("only one .model block is supported", lineno)
            raise BlifError("content after .end", lineno)
        if head == ".names":  # the most frequent directive, tested first
            pos = _parse_names(lines, pos, gates, aliases)
        elif not head.startswith("."):
            raise BlifError(f"expected a directive, got {head!r}", lineno)
        elif head == ".model":
            if model is not None:
                raise BlifError("only one .model block is supported", lineno)
            if len(tokens) != 2:
                raise BlifError(".model takes exactly one name", lineno)
            model = tokens[1]
            pos += 1
        elif head == ".inputs":
            inputs.extend(tokens[1:])
            pos += 1
        elif head == ".outputs":
            outputs.extend(tokens[1:])
            pos += 1
        elif head == ".copy":
            if not allow_copy:
                raise BlifError(
                    ".copy is only valid in the intermediate format", lineno
                )
            if len(tokens) != 4:
                raise BlifError(".copy takes one input and two outputs", lineno)
            gates.append(IrGate(IrGateKind.COPY, (tokens[1],), (tokens[2], tokens[3])))
            pos += 1
        elif head == ".end":
            ended = True
            pos += 1
        elif head in _REJECTED_DIRECTIVES:
            raise UnsupportedError(f"unsupported construct {head}")
        else:
            raise BlifError(f"unknown directive {head}", lineno)

    return _circuit(model, inputs, outputs, gates), aliases


def _parse_names(lines, pos, gates, aliases):
    lineno, tokens = lines[pos]
    if len(tokens) < 3:
        if len(tokens) == 2:
            raise UnsupportedError(
                f"constant cover for '{tokens[1]}': .names needs at least one input"
            )
        raise BlifError(".names needs nets", lineno)
    ins, out = tuple(tokens[1:-1]), tokens[-1]
    if len(ins) > 2:
        raise UnsupportedError(
            f"gate '{out}' has {len(ins)} inputs; at most 2 are supported"
        )

    patterns = _PATTERNS[len(ins)]
    rows = []
    end = len(lines)
    pos += 1
    while pos < end:
        row_no, row = lines[pos]
        if row[0].startswith("."):
            break
        if len(row) != 2:
            raise BlifError("cover row must be '<pattern> <bit>'", row_no)
        pattern, bit = row
        if pattern not in patterns:
            raise BlifError(f"bad cover pattern {pattern!r}", row_no)
        if bit != "1" and bit != "0":
            raise BlifError(f"bad cover output bit {bit!r}", row_no)
        rows.append((pattern, bit))
        pos += 1

    kind = _cover_kind(len(ins), rows, out)
    if kind is None:
        # a gate driving the same net is caught by _resolve_aliases
        if out in aliases:
            raise BlifError(f"multiple drivers for net '{out}'", lineno)
        aliases[out] = ins[0]
    else:
        gates.append(IrGate(kind, ins, (out,)))
    return pos


def _resolve_aliases(c, aliases):
    if not aliases:
        return c
    driven = {net for g in c.gates for net in g.outputs} | set(c.inputs)
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

    # only a gate that reads an alias is rebuilt
    gates = tuple(
        IrGate(g.kind, tuple(map(resolve, g.inputs)), g.outputs)
        if not aliases.keys().isdisjoint(g.inputs) else g
        for g in c.gates
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
    resolved = IrCircuit(c.name, c.inputs, outputs, gates)
    repeated = []  # each repeat of a name in .outputs, in order
    if len(outputs) > len(set(outputs)):
        seen = set()
        for name in c.outputs:
            if name in seen:
                repeated.append(name)
            seen.add(name)

    def violations():
        # validate_circuit names a repeated output by its net; name it as
        # .outputs writes it.  No parsed name is bad, so the violations
        # open with the repeats in .inputs, then those in .outputs.
        found = validate_circuit(resolved)
        start = len(c.inputs) - len(set(c.inputs))
        found[start:start + len(repeated)] = [
            Violation("duplicate-name", name) for name in repeated
        ]
        return found

    # A buffer that nothing reads leaves no trace in the circuit, so its
    # chain is resolved here: a cycle is rejected as above, and an undriven
    # root is listed after the circuit's violations, as a read one would be.
    roots = [r for r in dict.fromkeys(map(resolve, aliases)) if r not in driven]
    if roots:
        read = {net for g in gates for net in g.inputs}.union(resolved.outputs)
        lost = [Violation("undriven-input", r) for r in roots if r not in read]
        if lost:
            raise ValidationError(violations() + lost)
    if not aliases.keys().isdisjoint(repeated):
        raise ValidationError(violations())
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
    for g in c.gates:
        if g.kind is IrGateKind.COPY:
            out.append(f".copy {g.inputs[0]} {g.outputs[0]} {g.outputs[1]}")
            continue
        out.append(" ".join((".names", *g.inputs, g.outputs[0])))
        for pattern in _EMIT_ROWS[g.kind]:
            out.append(f"{pattern} 1")
    out.append(".end")
    return "\n".join(out) + "\n"
