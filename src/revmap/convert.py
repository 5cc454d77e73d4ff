"""Slot-by-slot replacement of conventional gates with reversible sequences.

Lines come up in a fixed order: one per primary input first, then one per
constant a template asks for, in allocation order.  Constant lines are
named x0, x1, ... (a trailing underscore is added if a net already claims
the name).  Each net is bound to the line that carries its value; a
gate's template reads its input bindings, may allocate an ancilla, and
rebinds its output nets.  When the last slot has fired, the line carrying
each primary output net gets that output name and every other line is
garbage.
"""

from dataclasses import dataclass, replace

from .ir import IrGateKind, Line, RevCircuit, RevGate, _fresh_names
from .templates import Role, template_for


@dataclass(frozen=True)
class TraceEntry:
    """One gate replacement: where it sat and which lines it added."""

    slot: int
    gate: int
    kind: IrGateKind
    new_lines: tuple[int, ...]


def convert_circuit(s, restore_controls=True):
    """Convert a slotted fanout-free circuit into a reversible one."""
    rev, _ = _convert(s, restore_controls)
    return rev


def conversion_trace(s, restore_controls=True):
    """Return the TraceEntry sequence that reproduces convert_circuit(s)."""
    _, trace = _convert(s, restore_controls)
    return trace


def _convert(s, restore_controls):
    c = s.circuit
    lines = [Line(name) for name in c.inputs]
    carrier = list(c.inputs)
    binding_of_net = {name: i for i, name in enumerate(c.inputs)}
    # every net of a sound circuit is a key of its drivers, and only nets
    # named x... can clash with the constants' names x0, x1, ...
    taken = {net for net in c._index.driver if net.startswith("x")}
    constant_names = _fresh_names("x", taken)
    gates = []
    trace = []

    for slot_no, slot in enumerate(s.slots[1:], start=1):
        for gi in slot.gates:
            gate = c.gates[gi]
            tpl = template_for(gate.kind, restore_controls)
            bind = {Role.IN1: binding_of_net[gate.inputs[0]]}
            if len(gate.inputs) == 2:
                bind[Role.IN2] = binding_of_net[gate.inputs[1]]
                if bind[Role.IN2] == bind[Role.IN1]:
                    raise RuntimeError(
                        f"gate g{gi} reads one line twice; "
                        "the circuit was not fanout-preprocessed"
                    )
            added = []
            for bit in tpl.constants:
                index = len(lines)
                lines.append(Line(next(constant_names), constant=bit))
                carrier.append(None)
                bind[Role.ANC] = index
                added.append(index)
            for tg in tpl.gates:
                gates.append(
                    RevGate(tuple(bind[r] for r in tg.controls), bind[tg.target])
                )
            for role, net in zip(tpl.outputs, gate.outputs):
                binding_of_net[net] = bind[role]
                carrier[bind[role]] = net
            trace.append(TraceEntry(slot_no, gi, gate.kind, tuple(added)))

    outputs = set(c.outputs)
    final = tuple(
        replace(ln, output=carrier[i]) if carrier[i] in outputs else ln
        for i, ln in enumerate(lines)
    )
    missing = outputs - {ln.output for ln in final}
    if missing:
        raise RuntimeError(f"primary outputs left unbound: {sorted(missing)}")
    return RevCircuit(c.name, final, tuple(gates)), tuple(trace)
