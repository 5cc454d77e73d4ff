"""Slot-by-slot replacement of conventional gates with reversible sequences.

Lines come up in a fixed order: one per primary input first, then one per
constant a template asks for, in allocation order.  Constant lines are
named x0, x1, ... (a trailing underscore is added if a net already claims
the name).  Each live net is bound to the one line that carries its value.
A gate's template consumes its input nets, taking them out of the
binding, may allocate an ancilla, and binds its output nets; so a net is
read at most once, no two live nets share a line, and the lines a
template touches are distinct.  A read of a net that is not bound (its
driver has not fired, or another read consumed it) is a ValueError, as
is a primary output left unbound once the last slot has fired.  The
line carrying each primary output net then gets that output name and
every other line is garbage.

convert_circuit and conversion_trace walk the binding in one private
function, _bind, so a slotting that one rejects the other rejects too.
It reads the circuit's gate columns and, per gate, appends its
template's rows to one list, with no Python frame of its own per gate.
"""

from dataclasses import dataclass
from operator import itemgetter

from .ir import IrGateKind, _fresh_names, _rev_circuit, check_circuit
from .templates import Role, template_for


@dataclass(frozen=True)
class TraceEntry:
    """One gate replacement: where it sat and which lines it added."""

    slot: int
    gate: int
    kind: IrGateKind
    new_lines: tuple[int, ...]


def _bind(s, restore_controls, trace=None):
    """Walk the gates of s in slot order, binding each net to its line.

    Returns the binding, the constants column and the rows.  The binding
    maps each primary output, and every other live net, to the line
    carrying it once the walk is done.  The constants column holds, per
    line, its constant bit, None on a primary-input line.  The rows hold
    each gate's template gates in order, each as the tuple of lines its
    .real row names (controls, then target).  A template gate is a getter
    that maps the gate's binding to its row: the lines of IN1, IN2 (IN1
    again for a one-input gate) and ANC, the first line the template's
    constants take.  With a trace list, each gate's TraceEntry is
    appended to it.  The circuit must validate (ValidationError); a read
    of an unbound net and a primary output left unbound are ValueErrors.
    """
    c = s.circuit
    check_circuit(c)
    kinds, ins_col, outs_col = c._kinds, c._ins, c._outs
    constants = [None] * len(c.inputs)
    line_of_net = dict(zip(c.inputs, range(len(c.inputs))))
    take = line_of_net.pop
    width = len(c.inputs)
    rows = []
    append = rows.append
    # kind -> its template's constants, gates as row getters and outputs
    plans = {}
    # no two bound nets share a line and a template gate names distinct
    # roles, so each row names distinct lines
    for slot_no, wave in enumerate(s._waves, start=1):
        for gi in wave:
            kind = kinds[gi]
            plan = plans.get(kind)
            if plan is None:
                tpl = template_for(kind, restore_controls)
                ops = tuple(map(_row_getter, tpl.gates))
                plan = plans[kind] = (tpl.constants, ops, tpl.outputs)
            added, ops, roles = plan
            ins = ins_col[gi]
            try:
                first = take(ins[0])
                second = take(ins[1]) if len(ins) == 2 else first
            except KeyError as exc:
                raise ValueError(
                    f"g{gi} in slot {slot_no} reads net {exc.args[0]!r}, "
                    "which no line carries"
                ) from None
            bind = (first, second, width)
            if added:
                constants += added
                width += len(added)
            for op in ops:
                append(op(bind))
            for role, net in zip(roles, outs_col[gi]):
                line_of_net[net] = bind[role]
            if trace is not None:
                new_lines = tuple(range(bind[Role.ANC], width))
                trace.append(TraceEntry(slot_no, gi, kind, new_lines))
    missing = set(c.outputs).difference(line_of_net)
    if missing:
        raise ValueError(f"primary outputs left unbound: {sorted(missing)}")
    return line_of_net, constants, rows


def _row_getter(tg):
    """The getter that maps a binding to template gate tg's row of lines,
    its controls and then its target, as a tuple."""
    roles = tuple(map(int, (*tg.controls, tg.target)))
    if len(roles) == 1:  # a NOT: a slice, so that its row is a tuple too
        return itemgetter(slice(roles[0], roles[0] + 1))
    return itemgetter(*roles)


def convert_circuit(s, restore_controls=True):
    """Convert a slotted fanout-free circuit into a reversible one.

    The circuit must validate (ValidationError); for slot_circuit's output
    that check is a lookup.  Every gate must read only nets that are bound
    when it fires, each once: a gate that fires before its driver, a net
    read twice, a gate placed twice, or a primary output that a gate reads
    or whose gate is left out is a ValueError.
    """
    c = s.circuit
    line_of_net, constants, rows = _bind(s, restore_controls)
    # the constants' names avoid every net: each is a key of the driver map
    width = len(constants)
    added = width - len(c.inputs)
    names = (*c.inputs, *_fresh_names("x", c._index.driver.keys(), added))
    ends = {line_of_net[net]: net for net in c.outputs}
    outputs = tuple(map(ends.get, range(width)))
    return _rev_circuit(c.name, names, tuple(constants), outputs, tuple(rows))


def conversion_trace(s, restore_controls=True):
    """Return the TraceEntry sequence that reproduces convert_circuit(s).

    It rejects what convert_circuit rejects, with the same error.
    """
    trace = []
    _bind(s, restore_controls, trace)
    return tuple(trace)
