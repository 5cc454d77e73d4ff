"""Gate-by-gate conversion: frozen outputs, trace replay, edge cases."""

import sys

import pytest

from revmap import (
    IrCircuit,
    IrGate,
    IrGateKind,
    RevGate,
    Role,
    Slot,
    SlottedCircuit,
    ValidationError,
    check_equivalence,
    convert_circuit,
    gen_random_circuit,
    insert_copiers,
    slot_circuit,
    template_for,
    write_real,
)
from revmap.convert import conversion_trace
from samples import AND_BLIF, HALF_ADDER_BLIF, pipeline, single_gate_blif

K = IrGateKind


def replay(slotted, trace, restore_controls=True):
    """Rebuild the reversible gate list from a trace, without convert_circuit.

    The trace pins ancilla line numbers; input bindings are recomputed from
    the slotted circuit alone.  Returns (gates, net -> line binding).
    """
    c = slotted.circuit
    binding = {net: i for i, net in enumerate(c.inputs)}
    gates = []
    entries = iter(trace)
    for slot_no, slot in enumerate(slotted.slots):
        if slot_no == 0:
            continue
        for gi in slot.gates:
            entry = next(entries)
            assert (entry.slot, entry.gate, entry.kind) == (slot_no, gi, c.gates[gi].kind)
            g = c.gates[gi]
            tpl = template_for(g.kind, restore_controls)
            bind = dict(zip((Role.IN1, Role.IN2), (binding[n] for n in g.inputs)))
            assert len(entry.new_lines) == len(tpl.constants)
            for idx in entry.new_lines:
                bind[Role.ANC] = idx
            for tg in tpl.gates:
                gates.append(RevGate(tuple(bind[r] for r in tg.controls), bind[tg.target]))
            for role, net in zip(tpl.outputs, g.outputs):
                binding[net] = bind[role]
    assert next(entries, None) is None
    return gates, binding


def test_single_and_frozen():
    c, slotted = pipeline(AND_BLIF)
    rev = convert_circuit(slotted)
    assert [ln.name for ln in rev.lines] == ["a", "b", "x0"]
    assert [ln.constant for ln in rev.lines] == [None, None, 0]
    assert [ln.output for ln in rev.lines] == [None, None, "c"]
    assert rev.gates == (RevGate((0, 1), 2),)


def test_single_and_trace():
    _, slotted = pipeline(AND_BLIF)
    trace = conversion_trace(slotted)
    assert len(trace) == 1
    entry = trace[0]
    assert (entry.slot, entry.gate, entry.kind, entry.new_lines) == (1, 0, K.AND, (2,))


def test_single_xor_lands_on_second_input_line():
    _, slotted = pipeline(single_gate_blif(K.XOR))
    rev = convert_circuit(slotted)
    assert rev.width == 2
    assert rev.gates == (RevGate((0,), 1),)
    assert rev.lines[1].output == "y"
    assert rev.lines[0].output is None
    assert conversion_trace(slotted)[0].new_lines == ()


def test_single_or_gate_sequence():
    _, slotted = pipeline(single_gate_blif(K.OR))
    rev = convert_circuit(slotted)
    assert rev.gates == (
        RevGate((), 0),
        RevGate((), 1),
        RevGate((0, 1), 2),
        RevGate((), 0),
        RevGate((), 1),
    )
    assert rev.lines[2].constant == 1
    assert rev.lines[2].output == "y"


def test_half_adder_frozen():
    c, slotted = pipeline(HALF_ADDER_BLIF)
    rev = convert_circuit(slotted)
    assert [ln.name for ln in rev.lines] == ["a", "b", "x0", "x1", "x2"]
    assert [ln.constant for ln in rev.lines] == [None, None, 0, 0, 0]
    assert [ln.output for ln in rev.lines] == [None, "s", None, None, "c"]
    assert rev.gates == (
        RevGate((0,), 2),
        RevGate((1,), 3),
        RevGate((0,), 1),
        RevGate((2, 3), 4),
    )


def test_trace_replay_matches_converter():
    # the trace is derived without converting, so replaying it must rebuild
    # the converter's gates and output lines exactly
    slotted = [pipeline(text)[1] for text in (
        AND_BLIF, HALF_ADDER_BLIF, single_gate_blif(K.XNOR), single_gate_blif(K.NOR)
    )]
    slotted += [
        slot_circuit(insert_copiers(gen_random_circuit(seed, 1 + seed % 6, 3 * seed)))
        for seed in range(50)
    ]
    for s in slotted:
        for restore in (True, False):
            rev = convert_circuit(s, restore)
            trace = conversion_trace(s, restore)
            gates, binding = replay(s, trace, restore)
            assert tuple(gates) == rev.gates
            for name in s.circuit.outputs:
                assert rev.lines[binding[name]].output == name


def test_no_restore_variant_still_equivalent():
    c, slotted = pipeline(single_gate_blif(K.NOR))
    full = convert_circuit(slotted, restore_controls=True)
    bare = convert_circuit(slotted, restore_controls=False)
    assert len(bare.gates) == 3
    assert len(full.gates) == 5
    assert check_equivalence(c, bare).equivalent
    assert check_equivalence(c, full).equivalent


def test_gate_reading_one_net_twice_is_rejected():
    c = IrCircuit("dup", ("a",), ("y",), (IrGate(K.AND, ("a", "a"), ("y",)),))
    s = SlottedCircuit(c, (Slot((), ("a",)), Slot((0,), ("y",))))
    with pytest.raises(RuntimeError, match="reads one line twice"):
        convert_circuit(s)


def test_an_unsound_circuit_is_rejected_before_conversion():
    # a caller-built slotting of a circuit whose input name holds a space
    # would convert to a .real that declares one line under two names
    c = IrCircuit("m", ("a b",), ("y",), (IrGate(K.NOT, ("a b",), ("y",)),))
    s = SlottedCircuit(c, (Slot((), ("a b",)), Slot((0,), ("y",))))
    with pytest.raises(ValidationError, match="bad-name: 'a b'"):
        write_real(convert_circuit(s))


def test_constant_names_dodge_existing_nets():
    text = "\n".join([
        ".model clash",
        ".inputs x0 b",
        ".outputs y",
        ".names x0 b y",
        "11 1",
        ".end",
    ])
    _, slotted = pipeline(text)
    rev = convert_circuit(slotted)
    assert [ln.name for ln in rev.lines] == ["x0", "b", "x0_"]
    assert rev.lines[2].constant == 0


def test_every_kind_converts_and_verifies():
    for kind in K:
        if kind is K.COPY:
            continue
        c, slotted = pipeline(single_gate_blif(kind))
        rev = convert_circuit(slotted)
        report = check_equivalence(c, rev)
        assert report.equivalent, f"{kind}: {report.summary()}"


def test_fanout_heavy_circuit_converts():
    text = "\n".join([
        ".model fan",
        ".inputs a b",
        ".outputs p q r",
        ".names a b p",
        "11 1",
        ".names a b q",
        "00 1",
        ".names a r",
        "0 1",
        ".end",
    ])
    from revmap import parse_blif

    c = parse_blif(text)
    prepped = insert_copiers(c)
    rev = convert_circuit(slot_circuit(prepped))
    assert check_equivalence(c, rev).equivalent
    # every original PI still owns the first lines
    assert [ln.name for ln in rev.lines[:2]] == ["a", "b"]


def test_convert_runs_no_python_hash_per_gate():
    # the per-kind plans are looked up by kind once per gate: a Python
    # __hash__ (as Enum's own) would add a frame to every one of them
    s = slot_circuit(insert_copiers(gen_random_circuit(7, 6, 200)))
    hashed = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            hashed.append(frame.f_code.co_filename)

    sys.setprofile(record)
    try:
        convert_circuit(s)
        convert_circuit(s, restore_controls=False)
    finally:
        sys.setprofile(None)
    assert hashed == []
    assert {IrGateKind.AND: 1}[IrGateKind("and")] == 1
