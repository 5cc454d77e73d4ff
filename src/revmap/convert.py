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

Because ancillas are numbered after the primary inputs in the order the
slots allocate them, the lines each gate adds follow from the slot table
and the templates' constants alone: conversion_trace derives them without
running a conversion.
"""

from dataclasses import dataclass

from .ir import (
    _REV_GATE_SETTERS,
    IrGateKind,
    Line,
    RevCircuit,
    RevGate,
    _fresh_names,
    check_circuit,
)
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
    that check is a lookup.  Every gate must read only nets that are bound
    when it fires, each once: a gate that fires before its driver, a net
    read twice, a gate placed twice, or a primary output that a gate reads
    or whose gate is left out is a ValueError.
    """
    c = s.circuit
    check_circuit(c)
    # per line, its constant bit (None on a primary input); the constants'
    # names are drawn once all lines are known
    constants = [None] * len(c.inputs)
    line_of_net = {name: i for i, name in enumerate(c.inputs)}
    take = line_of_net.pop
    gates = []
    append = gates.append
    # no two bound nets share a line, a template gate names distinct roles
    # (at most two as controls) and a one-input template never names IN2,
    # so every rule of RevGate holds without its checks
    new = object.__new__
    set_controls, set_target = _REV_GATE_SETTERS
    # kind -> its template and the template's gates as (controls, target)
    plans = {}

    for slot_no, wave in enumerate(s._waves, start=1):
        for gi in wave:
            gate = c.gates[gi]
            plan = plans.get(gate.kind)
            if plan is None:
                tpl = template_for(gate.kind, restore_controls)
                ops = tuple((tg.controls, tg.target) for tg in tpl.gates)
                plan = plans[gate.kind] = (tpl, ops)
            tpl, ops = plan
            # indexed by Role: IN1, IN2 (IN1 again for a one-input gate)
            # and ANC, the line a constant would be allocated on
            ins = gate.inputs
            try:
                first = take(ins[0])
                second = take(ins[1]) if len(ins) == 2 else first
            except KeyError as exc:
                raise ValueError(
                    f"g{gi} in slot {slot_no} reads net {exc.args[0]!r}, "
                    "which no line carries"
                ) from None
            bind = [first, second, len(constants)]
            constants += tpl.constants
            for controls, target in ops:
                rev = new(RevGate)
                if not controls:
                    set_controls(rev, ())
                elif len(controls) == 1:
                    set_controls(rev, (bind[controls[0]],))
                else:
                    a, b = controls
                    set_controls(rev, (bind[a], bind[b]))
                set_target(rev, bind[target])
                append(rev)
            for role, net in zip(tpl.outputs, gate.outputs):
                line_of_net[net] = bind[role]

    missing = set(c.outputs).difference(line_of_net)
    if missing:
        raise ValueError(f"primary outputs left unbound: {sorted(missing)}")
    # the constants' names avoid every net: each is a key of the driver map
    width = len(constants)
    added = width - len(c.inputs)
    names = [*c.inputs, *_fresh_names("x", c._index.driver.keys(), added)]
    ends = {line_of_net[net]: net for net in c.outputs}
    final = tuple(map(Line, names, constants, map(ends.get, range(width))))
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
