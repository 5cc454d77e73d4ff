"""Core circuit representations.

Two worlds live here.  The conventional side is a flat combinational
netlist (IrCircuit) of one- and two-input gates wired by named nets, as
read from BLIF.  The reversible side is a line circuit (RevCircuit) of
NOT/CNOT/Toffoli gates acting on a fixed set of lines, each line entering
as a primary input or a constant and leaving as a primary output or
garbage.  Both are immutable value types; every pipeline stage maps one
value to another.  Each holds one packed form, whoever builds it: an
IrCircuit its gates as three columns, _kinds, _ins and _outs (each gate's
kind, input nets and output nets), and a RevCircuit its lines as three
columns and its gates as rows of line indices.  Their IrGates, Lines and
RevGates are views: each a cached_property, like an IrCircuit's _index,
built on its first read and kept.  The pipeline reads only the columns
and rows.

Gates carry no explicit id: a gate is identified by its position in the
circuit's gate columns, and diagnostics label position ``i`` as ``g<i>``.

Every graph question about an IrCircuit (is it sound, which gate drives a
net, in what order can gates fire, where is a loop) is answered from one
_NetIndex, memoized on the circuit as its _index.  The memo is sound
because an IrCircuit's names and columns are tuples, and so are an
IrGate's, so nothing the index was built from can change.
validate_circuit, check_circuit and detect_cycles are views of it;
build_netlist takes only the driver map from it and walks the gates
itself for each net's sinks.  Only this module builds an index or its
driver map, and it builds every index one way, whoever made the circuit:
a parsed circuit, a caller's and the one insert_copiers builds alike get
theirs on first use.  Set checks build the driver map; then one placement
walk goes through the gates in declaration order, placing each gate after
its drivers (walking down to any that are not placed yet) and so looking
up each gate input in the map.  It gives every gate its level and finds
the gates behind a loop.  The ordered walk, which alone lists violations,
runs only when a set check or a lookup fails.
"""

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count

from .errors import ValidationError

PO_SINK = "PO"


class IrGateKind(Enum):
    """The supported conventional gate kinds.

    COPY is the explicit fanout gate of the intermediate format: it takes
    one net and yields the same value on two fresh nets.  Plain BLIF input
    never contains it; the fanout preprocessor introduces it.
    """

    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    COPY = "copy"

    def __init__(self, value):
        # each member's arity, stored on it once: a plain attribute read
        # costs a fraction of a property call or a dict lookup by member
        self.n_inputs = 1 if value in ("not", "copy") else 2
        self.n_outputs = 2 if value == "copy" else 1

    # members are singletons that compare by identity, so the identity hash
    # agrees with ==; Enum's own hashes the name in a Python frame, which a
    # dict keyed by kind would pay on every lookup
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True, init=False)
class IrGate:
    kind: IrGateKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __init__(self, kind, inputs, outputs):
        # by hand, not a generated __init__ plus __post_init__, so that a
        # gate costs one Python frame: the gates views of the four parsed
        # and copier-inserted compile_deep circuits (52814 gates) build in
        # about 27 ms against 40 ms (2-vCPU x86-64 Xeon, best of 15, GC
        # paused).  The slots' own setters write past the frozen
        # __setattr__, as a generated __init__ would.
        if type(kind) is not IrGateKind:
            raise TypeError(f"not an IrGateKind: {kind!r}")
        _set_kind(self, kind)
        _set_inputs(self, inputs if type(inputs) is tuple else tuple(inputs))
        _set_outputs(self, outputs if type(outputs) is tuple else tuple(outputs))


_set_kind, _set_inputs, _set_outputs = (
    IrGate.kind.__set__, IrGate.inputs.__set__, IrGate.outputs.__set__
)


@dataclass(frozen=True, init=False)
class IrCircuit:
    """A combinational netlist with named primary inputs and outputs.

    Whoever builds it, a circuit holds one packed form: its gates as three
    columns, _kinds, _ins and _outs, one entry per gate (its IrGateKind,
    and its input and output nets as tuples, as an IrGate holds them).
    gates is a view of them, a cached_property like _index: built as
    IrGates on its first read and kept.  The pipeline reads only the
    columns, so for it no IrGate is built.  The constructor requires
    IrGates, packs them and keeps the caller's gates, as a tuple, as the
    view.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[IrGate, ...] = cached_property(
        lambda c: tuple(map(IrGate, c._kinds, c._ins, c._outs))
    )

    def __init__(self, name, inputs, outputs, gates=()):
        gates = gates if type(gates) is tuple else tuple(gates)
        for g in gates:
            if not isinstance(g, IrGate):
                raise TypeError(f"not an IrGate: {g!r}")
        _ir_pack(
            self, name, inputs, outputs, tuple(g.kind for g in gates),
            tuple(g.inputs for g in gates), tuple(g.outputs for g in gates),
        )
        self.__dict__["gates"] = gates

    @cached_property
    def _index(self):
        return _NetIndex(self)


def _ir_pack(c, name, inputs, outputs, kinds, ins, outs):
    # the one form every IrCircuit holds, whichever of its two builders
    # made it
    c.__dict__.update(
        name=name,
        inputs=inputs if type(inputs) is tuple else tuple(inputs),
        outputs=outputs if type(outputs) is tuple else tuple(outputs),
        _kinds=kinds, _ins=ins, _outs=outs,
    )


def _ir_circuit(name, inputs, outputs, kinds, ins, outs):
    """The IrCircuit whose primary inputs and outputs are inputs and
    outputs and whose gate columns are kinds, ins and outs, each a tuple.

    Trusted: it checks nothing and only stores them.  Only the BLIF
    reader, insert_copiers and gen_random_circuit call it, and each gives
    one IrGateKind and one tuple of input nets and one of output nets per
    gate, as IrGate would hold them.  Whether the circuit is sound is
    judged, as for any circuit, by its index.
    """
    c = object.__new__(IrCircuit)
    _ir_pack(c, name, inputs, outputs, kinds, ins, outs)
    return c


@dataclass(frozen=True, slots=True, init=False)
class NetRecord:
    """Driver and consumers of one net.

    source is the driving gate's position, or None for a primary input.
    sinks holds (gate, pin) pairs in declaration order; a net listed in
    .outputs additionally has the PO_SINK marker, always first.
    """

    net: str
    source: int | None
    sinks: tuple

    def __init__(self, net, source, sinks):
        # by hand for one Python frame per record, as IrGate's
        _set_net(self, net)
        _set_source(self, source)
        _set_sinks(self, sinks)


_set_net, _set_source, _set_sinks = (
    NetRecord.net.__set__, NetRecord.source.__set__, NetRecord.sinks.__set__
)


@dataclass(frozen=True, slots=True)
class RevGate:
    """A generalized Toffoli gate with 0, 1 or 2 controls.

    The target flips exactly when every control line carries 1, so zero
    controls is NOT, one is CNOT and two is the Toffoli gate.
    """

    controls: tuple[int, ...]
    target: int

    def __post_init__(self):
        # controls are frozen into a tuple, as IrGate's sequences are; four
        # rules, reported in this order
        controls = self.controls
        if type(controls) is not tuple:
            controls = tuple(controls)
            object.__setattr__(self, "controls", controls)
        touched = (*controls, self.target)
        if not all(type(i) is int for i in touched):
            raise TypeError(f"line indices are not ints: {touched}")
        if len(set(touched)) != len(touched):
            raise ValueError(f"gate touches a line twice: {touched}")
        if len(controls) > 2:
            raise ValueError("at most two controls are supported")
        if min(touched) < 0:
            raise ValueError("negative line index")


def t1(target):
    return RevGate((), target)


def t2(control, target):
    return RevGate((control,), target)


def t3(control_a, control_b, target):
    return RevGate((control_a, control_b), target)


@dataclass(frozen=True, slots=True)
class Line:
    """One line of a reversible circuit.

    constant is None for a primary-input line (name is then the input's
    net name) and 0 or 1 for an ancilla line.  output names the primary
    output the line carries at the end, or None for a garbage line.
    """

    name: str
    constant: int | None = None
    output: str | None = None


@dataclass(frozen=True, init=False)
class RevCircuit:
    """A reversible netlist: equal-width in/out, lines indexed from 0.

    The name is a label only and does not take part in equality; the
    .real format does not carry one.

    Whoever builds it, a circuit holds one packed form: its lines as three
    columns, _names, _constants and _outputs (each line's name, constant
    and output, as a Line holds them), and its gates as _rows, each gate as
    the line indices its .real row names, its controls and then its
    target.  lines and gates are views of them, each a cached_property:
    built as Lines and RevGates on its first read and kept.  The commands
    read only the columns and rows, so for them no Line or RevGate is
    built.

    Every row names one to three distinct lines, all in range, so every
    gate is a NOT, CNOT or Toffoli gate whose target is not a control, and
    is its own inverse.  That rule is enforced once, where a circuit
    enters: .real text by parse_real, a caller's RevGates by this
    constructor (RevGate checks each gate's own lines, the constructor
    their range), and the converter's rows by its binding.  The
    constructor also requires Lines whose names, and outputs, are distinct
    and spelled as write_real can spell them, and whose constants are
    None, 0 or 1; then it packs them.
    """

    name: str = field(compare=False)
    lines: tuple[Line, ...] = cached_property(
        lambda r: tuple(map(Line, r._names, r._constants, r._outputs))
    )
    gates: tuple[RevGate, ...] = cached_property(
        lambda r: tuple(RevGate(row[:-1], row[-1]) for row in r._rows)
    )

    def __init__(self, name, lines, gates):
        lines, gates = tuple(lines), tuple(gates)
        width = len(lines)
        for ln in lines:
            if not isinstance(ln, Line):
                raise TypeError(f"not a Line: {ln!r}")
            bit = ln.constant
            if bit is not None and (type(bit) is not int or bit not in (0, 1)):
                raise ValueError(f"line {ln!r}: its constant is not None, 0 or 1")
            output = ln.output
            if not _is_name(ln.name) or not (output is None or _is_name(output)):
                raise ValueError(
                    f"line {ln!r}: its name or output is not a nonempty str "
                    "without whitespace or '#'"
                )
        names = tuple(ln.name for ln in lines)
        constants = tuple(ln.constant for ln in lines)
        outputs = tuple(ln.output for ln in lines)
        if len(set(names)) != width:
            raise ValueError("line names are not unique")
        named = [output for output in outputs if output is not None]
        if len(set(named)) != len(named):
            raise ValueError("a primary output appears on two lines")
        for g in gates:
            if not isinstance(g, RevGate):
                raise TypeError(f"not a RevGate: {g!r}")
        rows = tuple((*g.controls, g.target) for g in gates)
        for g, row in zip(gates, rows):
            if max(row) >= width:
                raise ValueError(f"gate {g} exceeds line count {width}")
        _pack(self, name, names, constants, outputs, rows)

    @property
    def width(self):
        return len(self._names)

    @property
    def primary_inputs(self):
        return tuple(
            name for name, bit in zip(self._names, self._constants) if bit is None
        )

    @property
    def primary_outputs(self):
        return tuple(output for output in self._outputs if output is not None)

    @property
    def constant_count(self):
        return len(self._constants) - self._constants.count(None)

    @property
    def garbage_count(self):
        return self._outputs.count(None)


def _pack(r, name, names, constants, outputs, rows):
    # the one form every RevCircuit holds, whichever of its two builders
    # made it
    r.__dict__.update(
        name=name, _names=names, _constants=constants, _outputs=outputs,
        _rows=rows,
    )


def _rev_circuit(name, names, constants, outputs, rows):
    """The RevCircuit whose line columns are names, constants and outputs
    and whose gates are the packed rows, each a tuple.

    Trusted: it checks nothing and only stores them.  Only parse_real and
    convert_circuit call it, and each guarantees what RevCircuit's
    constructor checks: distinct names and outputs that write_real can
    spell, constants None, 0 or 1, and rows of one to three distinct
    lines, all in range.
    """
    r = object.__new__(RevCircuit)
    _pack(r, name, names, constants, outputs, rows)
    return r


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_circuit."""

    code: str
    subject: str

    def __str__(self):
        return f"{self.code}: {self.subject}"


def _fresh_names(stem, taken, n):
    """Return the n names stem0, stem1, ..., each with '_' appended until
    it is not in taken.

    No two of them clash, as each ends in its own number and then only
    underscores, so taken need not learn them in between.
    """
    names = list(map(stem.__add__, map(str, range(n))))
    if not taken.isdisjoint(names):
        for k, name in enumerate(names):
            while name in taken:
                name += "_"
            names[k] = name
    return names


def validate_circuit(c):
    """Check structural invariants; return a list of violations (empty if ok).

    Checked: the model name and every net name are nonempty strs free of
    whitespace and '#' (which the BLIF and .real readers take for a
    comment) that do not end in '\\' (which the BLIF reader takes, at the
    end of a line, for a line continuation), so that write_intermediate
    spells each as one token that reads back; primary inputs and outputs
    are duplicate-free, gate arities match their kind, every net has
    exactly one driver, and every referenced net is driven.  A bad model
    name is reported first.
    """
    return list(c._index.violations)


def check_circuit(c):
    """Raise ValidationError if the circuit is structurally unsound."""
    found = validate_circuit(c)
    if found:
        raise ValidationError(found)


def build_netlist(c):
    """Map every net to its NetRecord.

    Records appear in definition order: primary inputs, then nets first
    referenced by .outputs, then nets first referenced by gates.  The
    circuit must validate.
    """
    check_circuit(c)
    sinks = {net: [] for net in c.inputs}
    for net in c.outputs:
        sinks.setdefault(net, []).append(PO_SINK)
    get = sinks.get
    for i, (ins, outs) in enumerate(zip(c._ins, c._outs)):
        for pin, net in enumerate(ins):
            found = get(net)
            if found is None:
                sinks[net] = [(i, pin)]
            else:
                found.append((i, pin))
        for net in outs:
            if net not in sinks:
                sinks[net] = []
    driver = c._index.driver
    return {net: NetRecord(net, driver[net], tuple(s)) for net, s in sinks.items()}


def detect_cycles(c):
    """Return an ordered gate-position cycle, or None if the graph is acyclic.

    Gate a depends on gate b when some input net of a is driven by b.  The
    witness is found by starting at the lowest-position gate that depends,
    directly or not, on a cycle and following each gate's first such
    driver (in input order) until a gate repeats; the cycle runs from that
    gate's first visit, in the order walked.
    """
    check_circuit(c)
    cycle = c._index.cycle
    return None if cycle is None else list(cycle)


class _NetIndex:
    """The answers to every graph question about one IrCircuit.

    violations is validate_circuit's list as a tuple.  Only if it is empty
    are the rest set.  driver maps each driven net to its gate's position,
    None for a primary input: the primary inputs first, then each gate's
    outputs in gate order.  level holds, per gate, 1 + the highest level
    of its drivers (1 if it reads only primary inputs), or -1 if the gate
    is behind a loop: it depends, directly or not, on a cycle.  order
    lists the other gates, each after its drivers; if the gates are
    declared in dependency order, it is their declaration order.  cycle
    is detect_cycles' witness as a tuple, None if no gate is behind a
    loop.

    _NetIndex(c) takes its driver map from the set checks of _sound_driver
    and then places the gates in one walk, looking up each gate input in
    the map; if the checks fail, or a lookup finds an undriven or
    unhashable name, _walk lists the violations, in their documented
    order.
    """

    __slots__ = ("violations", "driver", "order", "level", "cycle")

    def __init__(self, c):
        ins = c._ins
        driver = _sound_driver(c)
        self.order = self.level = self.cycle = None
        if driver is not None:
            try:
                self.order, self.level = _place(ins, driver)
            except (KeyError, TypeError):  # an undriven or unhashable read
                driver = None
        self.driver = driver
        if driver is None:
            self.violations = tuple(_walk(c))
            return
        self.violations = ()
        level = self.level
        if len(self.order) == len(ins):
            return
        # every gate behind a loop has a driver behind one, so the walk
        # must repeat
        walked = {}  # gate -> step of the walk, in walk order
        node = level.index(-1)
        while node not in walked:
            walked[node] = len(walked)
            node = next(
                d for d in map(driver.get, ins[node])
                if d is not None and level[d] < 0
            )
        self.cycle = tuple(walked)[walked[node]:]


def _place(ins, driver):
    """Return the order and level of _NetIndex, placing the gates, whose
    input nets are ins, in declaration order and, before a gate, its
    unplaced drivers, depth first.

    Every gate input is looked up in driver, behind a loop too, so an
    undriven or unhashable read raises KeyError or TypeError.  level
    also marks the walk: 0 for a gate not reached yet and -1 for one on
    the walk or behind a loop, never a search of the stack, so that the
    walk is linear however deep it goes.
    """
    level = [0] * len(ins)
    order = []
    for i, names in enumerate(ins):
        if level[i]:
            continue
        top = 0
        for name in names:
            d = driver[name]
            if d is not None:
                k = level[d]
                if k > top:
                    top = k
                elif k <= 0:
                    break
        else:  # every driver is placed: the common case
            level[i] = top + 1
            order.append(i)
            continue
        level[i] = -1
        stack = [i]
        while stack:
            j = stack[-1]
            top = 0
            for name in ins[j]:
                d = driver[name]
                if d is not None:
                    k = level[d]
                    if k > top:
                        top = k
                    elif k == 0:  # place d first
                        level[d] = -1
                        stack.append(d)
                        break
                    elif k < 0:  # a loop: the whole walk is behind it
                        for behind in stack:
                            # every input is still looked up: an undriven
                            # read behind a loop is a violation too
                            for name in ins[behind]:
                                driver[name]
                        stack.clear()
                        break
            else:
                level[j] = top + 1
                order.append(j)
                stack.pop()
    return order, level


# whitespace, exactly the characters str.split splits on, and the .real and
# BLIF comment mark
_BAD_NAME_CHAR = re.compile(r"[\s#]")


def _is_name(name):
    """Whether name is a nonempty str without whitespace or '#', so that
    the BLIF and .real writers spell it as one token that reads back.

    An IR name must not end in '\\' either, which _walk and _sound_driver
    check: the BLIF writer may put it last on a line.  A .real name may,
    as .real has no line continuation."""
    return isinstance(name, str) and name != "" and not _BAD_NAME_CHAR.search(name)


def _sound_driver(c):
    """Return c's driver map if the set checks find c sound, else None.

    If, in addition, no gate reads a net that is not a key of the map,
    sound means that _walk finds no violation: the map has one key per
    primary input and gate output (so no net has two drivers and no list
    repeats a name), the .outputs are distinct and driven, every gate has
    its kind's arity, and no name is empty, holds whitespace or '#', or
    ends in '\\'.  The model name is checked on its own.  Every net name
    such a circuit mentions is a key of the map, so the keys are checked
    for those characters in one search of their concatenation; only if it
    holds a '\\' is each key's end looked at.
    A name that is unhashable or not a str makes the map, the
    concatenation or a set of the .outputs fail, and c unsound here.
    """
    inputs, outputs = c.inputs, c.outputs
    try:
        driver = dict.fromkeys(inputs)
        size = len(inputs)
        arity = True
        for i, kind, ins, outs in zip(count(), c._kinds, c._ins, c._outs):
            if len(ins) != kind.n_inputs or len(outs) != kind.n_outputs:
                arity = False
            size += len(outs)
            for name in outs:
                driver[name] = i
        names = "".join(driver)
        sound = (
            arity
            and len(driver) == size
            and len(set(outputs)) == len(outputs)
            and all(map(driver.__contains__, outputs))
            and _is_name(c.name) and not c.name.endswith("\\")
            and "" not in driver
            and not _BAD_NAME_CHAR.search(names)
            and ("\\" not in names or not any(n.endswith("\\") for n in driver))
        )
    except TypeError:  # a name that is unhashable or not a str
        return None
    return driver if sound else None


def _key(name):
    """name as a set or map key: itself, or if it is unhashable, a fresh
    object, which equals no other key, so that the name is never a repeat
    and never driven."""
    try:
        hash(name)
    except TypeError:
        return object()
    return name


def _walk(c):
    """List c's violations in their documented order.

    The reference judge of soundness, and the slow path: an index calls
    it only on a circuit its set checks or lookups find unsound.
    Each read of an undriven net, in read order, comes last.
    """
    found = []

    def check_name(name):
        if not _is_name(name) or name.endswith("\\"):
            found.append(Violation("bad-name", repr(name)))

    for name in (c.name, *c.inputs, *c.outputs):
        check_name(name)
    for seq in (c.inputs, c.outputs):
        seen = set()
        for name in seq:
            key = _key(name)
            if key in seen:
                found.append(Violation("duplicate-name", name))
            seen.add(key)

    driven = set(map(_key, c.inputs))
    for i, kind, ins, outs in zip(count(), c._kinds, c._ins, c._outs):
        for name in (*ins, *outs):
            check_name(name)
        if len(ins) != kind.n_inputs or len(outs) != kind.n_outputs:
            found.append(Violation("bad-arity", f"g{i} ({kind.value})"))
        seen = set()
        for name in outs:
            key = _key(name)
            if key in seen:
                found.append(Violation("duplicate-name", name))
            seen.add(key)
            if key in driven:
                found.append(Violation("multiple-drivers", name))
            else:
                driven.add(key)

    for name in c.outputs:
        if _key(name) not in driven:
            found.append(Violation("undriven-output", name))
    for ins in c._ins:
        for name in ins:
            if _key(name) not in driven:
                found.append(Violation("undriven-input", name))
    return found
