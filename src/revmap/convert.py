"""Slot-by-slot replacement of conventional gates with reversible sequences.

Lines come up in a fixed order: one per primary input first, then one per
constant a template asks for, in allocation order.  Constant lines are
named x0, x1, ... (a trailing underscore is added if a net already claims
the name).  Each net is bound to the line that carries its value; a
gate's template reads its input bindings, may allocate an ancilla, and
rebinds its output nets.  When the last slot has fired, the line carrying
each primary output net gets that output name and every other line is
garbage.

Because ancillas are numbered after the primary inputs in the order the
slots allocate them, the lines each gate adds follow from the slot table
and the templates' constants alone: conversion_trace derives them without
running a conversion.
"""

from dataclasses import dataclass

from .ir import IrGateKind, Line, RevCircuit, RevGate, _fresh_names, check_circuit
from .templates import template_for


@dataclass(frozen=True)
class TraceEntry:
    """One gate replacement: where it sat and which lines it added."""

    slot: int
    gate: int
    kind: IrGateKind
    new_lines: tuple[int, ...]


def convert_circuit(s, restore_controls=True):
    """Convert a slotted fanout-free circuit into a reversible one.

    The circuit must validate (ValidationError); for slot_circuit's output
    that check is a lookup.
    """
    c = s.circuit
    check_circuit(c)
    # per line: its constant bit (None on a primary input) and the net it
    # carries; the constants' names are drawn once all lines are known
    constants = [None] * len(c.inputs)
    carrier = list(c.inputs)
    line_of_net = {name: i for i, name in enumerate(c.inputs)}
    gates = []
    append = gates.append
    # kind -> its template, the template's gates as (controls, target)
    # pairs, and one carrier entry per constant line it adds
    plans = {}

    for wave in s._waves:
        for gi in wave:
            gate = c.gates[gi]
            plan = plans.get(gate.kind)
            if plan is None:
                tpl = template_for(gate.kind, restore_controls)
                ops = tuple((tg.controls, tg.target) for tg in tpl.gates)
                plan = plans[gate.kind] = (tpl, ops, (None,) * len(tpl.constants))
            tpl, ops, pad = plan
            # indexed by Role: IN1, IN2 (IN1 again for a one-input gate)
            # and ANC, the line a constant would be allocated on
            ins = gate.inputs
            bind = [line_of_net[ins[0]], line_of_net[ins[-1]], len(carrier)]
            if len(ins) == 2 and bind[0] == bind[1]:
                raise RuntimeError(
                    f"gate g{gi} reads one line twice; "
                    "the circuit was not fanout-preprocessed"
                )
            constants += tpl.constants
            carrier += pad
            for controls, target in ops:
                if not controls:
                    append(RevGate((), bind[target]))
                elif len(controls) == 1:
                    append(RevGate((bind[controls[0]],), bind[target]))
                else:
                    a, b = controls
                    append(RevGate((bind[a], bind[b]), bind[target]))
            for role, net in zip(tpl.outputs, gate.outputs):
                line_of_net[net] = bind[role]
                carrier[bind[role]] = net

    # the constants' names avoid every net: each is a key of the driver map
    added = len(carrier) - len(c.inputs)
    names = [*c.inputs, *_fresh_names("x", c._index.driver.keys(), added)]
    outputs = set(c.outputs)
    final = tuple(
        map(Line, names, constants, [n if n in outputs else None for n in carrier])
    )
    missing = outputs.difference(carrier)
    if missing:
        raise RuntimeError(f"primary outputs left unbound: {sorted(missing)}")
    return RevCircuit(c.name, final, tuple(gates))


def conversion_trace(s, restore_controls=True):
    """Return the TraceEntry sequence that reproduces convert_circuit(s)."""
    c = s.circuit
    trace = []
    next_line = len(c.inputs)
    for slot_no, wave in enumerate(s._waves, start=1):
        for gi in wave:
            kind = c.gates[gi].kind
            added = len(template_for(kind, restore_controls).constants)
            new_lines = tuple(range(next_line, next_line + added))
            trace.append(TraceEntry(slot_no, gi, kind, new_lines))
            next_line += added
    return tuple(trace)
