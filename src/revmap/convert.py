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
generator, _bind, so a slotting that one rejects the other rejects too.
"""

from dataclasses import dataclass

from .ir import IrGateKind, _fresh_names, _rev_circuit, check_circuit
from .templates import Role, template_for


@dataclass(frozen=True)
class TraceEntry:
    """One gate replacement: where it sat and which lines it added."""

    slot: int
    gate: int
    kind: IrGateKind
    new_lines: tuple[int, ...]


def _bind(s, restore_controls, line_of_net):
    """Walk the gates of s in slot order, binding each net to its line.

    line_of_net starts empty and is given the primary inputs' lines; once
    the walk is done it maps each primary output, and every other live
    net, to the line carrying it.  Per gate, yields its slot number, its
    position, its kind, its template's constants, its template's gates as
    rows of roles (controls, then target) and its binding: the lines of
    IN1, IN2 (IN1 again for a one-input gate) and ANC, the first line its
    constants take.  The circuit must validate (ValidationError); a read of
    an unbound net and a primary output left unbound are ValueErrors.
    """
    c = s.circuit
    check_circuit(c)
    line_of_net.update(zip(c.inputs, range(len(c.inputs))))
    take = line_of_net.pop
    width = len(c.inputs)
    # kind -> its template and the template's gates as rows of roles
    plans = {}
    for slot_no, wave in enumerate(s._waves, start=1):
        for gi in wave:
            gate = c.gates[gi]
            plan = plans.get(gate.kind)
            if plan is None:
                tpl = template_for(gate.kind, restore_controls)
                ops = tuple(
                    tuple(map(int, (*tg.controls, tg.target))) for tg in tpl.gates
                )
                plan = plans[gate.kind] = (tpl, ops)
            tpl, ops = plan
            ins = gate.inputs
            try:
                first = take(ins[0])
                second = take(ins[1]) if len(ins) == 2 else first
            except KeyError as exc:
                raise ValueError(
                    f"g{gi} in slot {slot_no} reads net {exc.args[0]!r}, "
                    "which no line carries"
                ) from None
            bind = (first, second, width)
            width += len(tpl.constants)
            yield slot_no, gi, gate.kind, tpl.constants, ops, bind
            for role, net in zip(tpl.outputs, gate.outputs):
                line_of_net[net] = bind[role]
    missing = set(c.outputs).difference(line_of_net)
    if missing:
        raise ValueError(f"primary outputs left unbound: {sorted(missing)}")


def convert_circuit(s, restore_controls=True):
    """Convert a slotted fanout-free circuit into a reversible one.

    The circuit must validate (ValidationError); for slot_circuit's output
    that check is a lookup.  Every gate must read only nets that are bound
    when it fires, each once: a gate that fires before its driver, a net
    read twice, a gate placed twice, or a primary output that a gate reads
    or whose gate is left out is a ValueError.
    """
    c = s.circuit
    # per line, its constant bit (None on a primary input); the constants'
    # names are drawn once all lines are known
    constants = [None] * len(c.inputs)
    line_of_net = {}
    rows = []
    append = rows.append
    # no two bound nets share a line and a template gate names distinct
    # roles, so each row names distinct lines
    for _, _, _, added, ops, bind in _bind(s, restore_controls, line_of_net):
        constants += added
        for op in ops:
            if len(op) == 2:
                append((bind[op[0]], bind[op[1]]))
            elif len(op) == 3:
                append((bind[op[0]], bind[op[1]], bind[op[2]]))
            else:
                append((bind[op[0]],))
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
    for slot_no, gi, kind, added, _, bind in _bind(s, restore_controls, {}):
        first = bind[Role.ANC]
        new_lines = tuple(range(first, first + len(added)))
        trace.append(TraceEntry(slot_no, gi, kind, new_lines))
    return tuple(trace)
