"""Levelization: the worked example, invariants, and a longest-path oracle."""

import dataclasses
import pickle
import tracemalloc

import pytest

import revmap.slotting as slotting
from revmap import (
    FanoutError,
    FeedbackError,
    IrCircuit,
    IrGate,
    IrGateKind,
    Slot,
    SlottedCircuit,
    convert_circuit,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    slot_circuit,
    write_intermediate,
)
from revmap.cli import main
from revmap.convert import conversion_trace
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
        FeedbackError, match="^feedback loop through gates g1 -> g2$"
    ) as exc:
        slot_circuit(c)
    assert exc.value.cycle == (1, 2)


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
        FeedbackError, match="^feedback loop through gates g1 -> g2$"
    ) as exc:
        slot_circuit(c)
    assert exc.value.cycle == (1, 2)


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


# ------------------------------------------------ slots built on first read


def test_slot_nets_are_listed_in_one_walk_on_first_read(monkeypatch):
    walks = []
    build = slotting._slots
    monkeypatch.setattr(slotting, "_slots",
                        lambda c, waves: walks.append(c) or build(c, waves))
    c = insert_copiers(gen_random_circuit(3, 4, 30))
    s = slot_circuit(c)
    convert_circuit(s)
    conversion_trace(s)
    assert walks == []
    assert len(s.slots) > 2 and all(slot.gates for slot in s.slots[1:])
    assert [slot.nets for slot in s.slots] and s.slots is s.slots
    assert walks == [c]
    assert [slot.gates for slot in s.slots[1:]] == list(s._waves)
    assert set(s.slots[-1].nets) == set(c.outputs)


def test_slots_of_slot_circuit_are_plain_slots():
    # before and after its slots are built, slot_circuit's result compares,
    # hashes, prints, pickles and copies as one a caller would build
    c = insert_copiers(gen_random_circuit(5, 5, 40))
    twin = SlottedCircuit(c, tuple(Slot(slot.gates, slot.nets)
                                   for slot in slot_circuit(c).slots))
    assert twin._waves == slot_circuit(c)._waves
    for fresh in (slot_circuit(c) for _ in range(4)):
        copied = pickle.loads(pickle.dumps(fresh))
        assert "slots" not in vars(copied)
        assert copied == fresh == twin
        assert dataclasses.replace(fresh) == twin
        assert hash(fresh) == hash(twin) and repr(fresh) == repr(twin)
        assert all(type(slot) is Slot for slot in fresh.slots)
        assert fresh.slots == twin.slots
    slotted = slot_circuit(c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        slotted.slots = ()
    with pytest.raises(AttributeError, match="'SlottedCircuit' object has no attribute 'slot'"):
        slotted.slot
    assert not hasattr(slotted.slots[0], "__dict__")  # Slot keeps its __slots__


def test_caller_built_slots_convert_as_slot_circuits():
    # a SlottedCircuit built from slots finds its waves in them
    for seed in range(40):
        c = insert_copiers(gen_random_circuit(seed, 1 + seed % 7, seed % 50))
        slotted = slot_circuit(c)
        built = SlottedCircuit(c, tuple(slotted.slots))
        assert built._waves == slotted._waves
        assert convert_circuit(built) == convert_circuit(slotted)
        assert conversion_trace(built, False) == conversion_trace(slotted, False)


def wide_fanout(n):
    """One input read by n NOT gates, each output a primary output."""
    return IrCircuit("wide", ("a",), tuple(f"y{k}" for k in range(n)), tuple(
        IrGate(K.NOT, ("a",), (f"y{k}",)) for k in range(n)))


def compile_peak(c):
    """The tracemalloc peak of fanout removal, slotting and conversion."""
    tracemalloc.start()
    try:
        convert_circuit(slot_circuit(insert_copiers(c)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_fanout_memory_grows_linearly():
    # the copier chain makes n + 1 slots; holding every slot's nets would
    # take n^2 / 2 names, 16x the memory for a 4x wider fanout
    small, large = compile_peak(wide_fanout(1000)), compile_peak(wide_fanout(4000))
    assert large / small < 6


def test_wide_fanout_converts_and_verifies(tmp_path, capsys):
    n = 20000
    blif, real = tmp_path / "wide.blif", tmp_path / "wide.real"
    blif.write_text(write_intermediate(wide_fanout(n)))
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert main(["verify", str(blif), str(real)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=Equivalent checked=2 ")
    assert f"bijectivity=skipped lines={n} " in out


def test_convert_builds_no_slot_nets(tmp_path, monkeypatch):
    # no slot's nets are listed unless something reads them
    blif, real = tmp_path / "rand.blif", tmp_path / "rand.real"
    blif.write_text(write_intermediate(gen_random_circuit(8, 6, 60)))

    def refuse(c, waves):
        raise AssertionError("the slots' nets were listed")

    monkeypatch.setattr(slotting, "_slots", refuse)
    for extra in ([], ["--trace"], ["--no-restore-controls"]):
        assert main(["convert", str(blif), "-o", str(real), *extra]) == 0
    with pytest.raises(AssertionError, match="nets were listed"):
        main(["slots", str(blif)])
