"""Levelization: the worked example, invariants, and a longest-path oracle."""

import pytest

from revmap import (
    FanoutError,
    IrCircuit,
    IrGate,
    IrGateKind,
    UnsupportedError,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    slot_circuit,
)
from samples import HALF_ADDER_BLIF, pipeline

K = IrGateKind


def longest_path_levels(c):
    """Independent leveler: gate level = 1 + max over input-net depths."""
    depth = {net: 0 for net in c.inputs}
    level = {}
    remaining = set(range(len(c.gates)))
    while remaining:
        progressed = False
        for i in sorted(remaining):
            g = c.gates[i]
            if all(net in depth for net in g.inputs):
                level[i] = 1 + max(depth[net] for net in g.inputs)
                for net in g.outputs:
                    depth[net] = level[i]
                remaining.discard(i)
                progressed = True
        if not progressed:
            raise AssertionError("oracle stuck; circuit is not acyclic")
    return level


def test_two_stage_example():
    # Gates X,Y read only primary inputs; Z,T read only slot-1 nets; E
    # passes through slot 1 untouched.
    c = IrCircuit(
        "staged",
        ("A", "B", "C", "D", "E"),
        ("H", "I"),
        (
            IrGate(K.AND, ("A", "B"), ("F",)),   # X
            IrGate(K.OR, ("C", "D"), ("G",)),    # Y
            IrGate(K.NOT, ("F",), ("H",)),       # Z
            IrGate(K.XOR, ("G", "E"), ("I",)),   # T
        ),
    )
    s = slot_circuit(c)
    assert len(s.slots) == 3
    assert s.slots[0].gates == ()
    assert s.slots[0].nets == ("A", "B", "C", "D", "E")
    assert s.slots[1].gates == (0, 1)
    assert s.slots[1].nets == ("F", "G", "E")
    assert s.slots[2].gates == (2, 3)
    assert s.slots[2].nets == ("H", "I")


def test_half_adder_slots():
    _, s = pipeline(HALF_ADDER_BLIF)
    assert [slot.gates for slot in s.slots] == [(), (0, 1), (2, 3)]
    assert set(s.slots[2].nets) == {"s", "c"}


def test_wire_through_is_single_slot():
    s = slot_circuit(IrCircuit("w", ("a",), ("a",), ()))
    assert len(s.slots) == 1
    assert s.slots[0].nets == ("a",)


def test_unused_input_listed_in_slot_zero_only():
    c = IrCircuit(
        "u", ("a", "spare"), ("z",), (IrGate(K.NOT, ("a",), ("z",)),)
    )
    s = slot_circuit(c)
    assert s.slots[0].nets == ("a", "spare")
    assert s.slots[1].nets == ("z",)


def test_dangling_gate_output_is_dropped():
    c = IrCircuit(
        "d",
        ("a", "b"),
        ("z",),
        (IrGate(K.NOT, ("a",), ("z",)), IrGate(K.NOT, ("b",), ("junk",))),
    )
    s = slot_circuit(c)
    assert set(s.slots[1].gates) == {0, 1}
    assert s.slots[1].nets == ("z",)


def test_fanout_rejected():
    with pytest.raises(FanoutError, match="2 sinks"):
        slot_circuit(parse_blif(HALF_ADDER_BLIF))


def test_stuck_on_unreachable_loop():
    c = IrCircuit(
        "loop",
        ("a", "b", "c"),
        ("o",),
        (
            IrGate(K.AND, ("a", "b"), ("o",)),
            IrGate(K.AND, ("c", "w1"), ("w0",)),
            IrGate(K.NOT, ("w0",), ("w1",)),
        ),
    )
    with pytest.raises(
        UnsupportedError,
        match="^slotting made no progress; unplaced gates: g1, g2$",
    ):
        slot_circuit(c)


def test_stuck_on_loop_that_reads_no_input():
    # no net of the loop is ever available, so it cannot be left out of
    # the slot table without dropping its gates
    c = IrCircuit(
        "island",
        ("a", "b"),
        ("o",),
        (
            IrGate(K.AND, ("a", "b"), ("o",)),
            IrGate(K.NOT, ("w1",), ("w0",)),
            IrGate(K.NOT, ("w0",), ("w1",)),
        ),
    )
    with pytest.raises(
        UnsupportedError,
        match="^slotting made no progress; unplaced gates: g1, g2$",
    ):
        slot_circuit(c)


def test_slots_match_longest_path_oracle():
    for seed in range(40):
        c = insert_copiers(gen_random_circuit(seed, 1 + seed % 6, seed % 11))
        s = slot_circuit(c)
        level = longest_path_levels(c)
        placed = set()
        for k, slot in enumerate(s.slots):
            for gi in slot.gates:
                assert level[gi] == k
                placed.add(gi)
        assert placed == set(range(len(c.gates)))


def test_gate_inputs_available_in_previous_slot():
    for seed in range(40):
        c = insert_copiers(gen_random_circuit(seed, 1 + seed % 6, seed % 11))
        s = slot_circuit(c)
        for prev, slot in zip(s.slots, s.slots[1:]):
            ready = set(prev.nets)
            for gi in slot.gates:
                assert set(c.gates[gi].inputs) <= ready


def test_final_net_set_equals_outputs():
    for seed in range(40):
        c = insert_copiers(gen_random_circuit(seed, 1 + seed % 6, seed % 11))
        s = slot_circuit(c)
        assert set(s.slots[-1].nets) == set(c.outputs)
        assert s.slots[0].nets == c.inputs
