"""Copier insertion: naming, placement, arithmetic and behavior preservation."""

from itertools import product

import pytest

from revmap import (
    IrCircuit,
    IrGate,
    IrGateKind,
    UnsupportedError,
    build_netlist,
    eval_ir,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    parse_intermediate,
    write_intermediate,
)
from samples import HALF_ADDER_BLIF, fanouts

K = IrGateKind


def assert_same_function(a, b):
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    for bits in product((0, 1), repeat=len(a.inputs)):
        assignment = dict(zip(a.inputs, bits))
        assert eval_ir(a, assignment) == eval_ir(b, assignment)


def test_half_adder_report():
    c = parse_blif(HALF_ADDER_BLIF)
    assert fanouts(c) == [("a", 2), ("b", 2)]


def test_half_adder_copies():
    c = parse_blif(HALF_ADDER_BLIF)
    p = insert_copiers(c)
    assert [g.kind for g in p.gates] == [K.COPY, K.COPY, K.XOR, K.AND]
    assert p.gates[0] == IrGate(K.COPY, ("a",), ("a__cp0", "a__cp1"))
    assert p.gates[1] == IrGate(K.COPY, ("b",), ("b__cp0", "b__cp1"))
    assert p.gates[2].inputs == ("a__cp0", "b__cp0")
    assert p.gates[3].inputs == ("a__cp1", "b__cp1")
    assert_same_function(c, p)


def test_every_net_single_sink_after():
    c = parse_blif(HALF_ADDER_BLIF)
    p = insert_copiers(c)
    assert all(len(r.sinks) == 1 for r in build_netlist(p).values())
    assert fanouts(p) == []


def test_idempotent():
    c = parse_blif(HALF_ADDER_BLIF)
    p = insert_copiers(c)
    assert insert_copiers(p) == p


def test_gate_count_arithmetic():
    c = parse_blif(HALF_ADDER_BLIF)
    extra = sum(d - 1 for _, d in fanouts(c))
    assert len(insert_copiers(c).gates) == len(c.gates) + extra


def test_degree_three_chain():
    c = IrCircuit(
        "m",
        ("a",),
        ("x", "y", "z"),
        (
            IrGate(K.NOT, ("a",), ("x",)),
            IrGate(K.NOT, ("a",), ("y",)),
            IrGate(K.NOT, ("a",), ("z",)),
        ),
    )
    p = insert_copiers(c)
    assert p.gates[0] == IrGate(K.COPY, ("a",), ("a__cp0", "a__cp1"))
    assert p.gates[1] == IrGate(K.COPY, ("a__cp1",), ("a__cp2", "a__cp3"))
    assert [g.inputs[0] for g in p.gates[2:]] == ["a__cp0", "a__cp2", "a__cp3"]
    assert_same_function(c, p)


def test_copiers_follow_their_driver():
    # The fanned-out net is gate-driven, so its chain sits right after g0.
    c = IrCircuit(
        "m",
        ("a",),
        ("x", "y"),
        (
            IrGate(K.NOT, ("a",), ("n",)),
            IrGate(K.NOT, ("n",), ("x",)),
            IrGate(K.NOT, ("n",), ("y",)),
        ),
    )
    p = insert_copiers(c)
    assert [g.kind for g in p.gates] == [K.NOT, K.COPY, K.NOT, K.NOT]
    assert p.gates[1] == IrGate(K.COPY, ("n",), ("n__cp0", "n__cp1"))
    assert_same_function(c, p)


def test_primary_output_keeps_its_name():
    # Net n is a PO and feeds a gate: the driver is renamed, the chain's
    # first output takes the PO's name back.
    c = IrCircuit(
        "m",
        ("a",),
        ("n", "y"),
        (IrGate(K.NOT, ("a",), ("n",)), IrGate(K.NOT, ("n",), ("y",))),
    )
    p = insert_copiers(c)
    assert p.outputs == c.outputs
    assert p.gates[0] == IrGate(K.NOT, ("a",), ("n__cp0",))
    assert p.gates[1] == IrGate(K.COPY, ("n__cp0",), ("n", "n__cp1"))
    assert p.gates[2] == IrGate(K.NOT, ("n__cp1",), ("y",))
    assert all(len(r.sinks) == 1 for r in build_netlist(p).values())
    assert_same_function(c, p)


def test_gates_no_copier_touches_are_kept():
    # only a gate that a copier feeds gets new input nets, and only one
    # whose output it renames new output nets; every other gate of the
    # result holds the input's own tuples
    # x is a primary output that feeds two gates, so its driver's output
    # is renamed
    po_fanout = parse_blif(
        ".model m\n.inputs a b\n.outputs x y z\n.names a b x\n11 1\n"
        ".names x y\n0 1\n.names x b z\n11 1\n.end\n"
    )
    fed, moved = [], []
    for c in (gen_random_circuit(4, 5, 60), po_fanout):
        fanned = {net for net, rec in build_netlist(c).items() if len(rec.sinks) > 1}
        renamed = fanned.intersection(c.outputs)
        p = insert_copiers(c)
        # c has no copier, so the result's other gates are c's, in order
        own = [j for j, kind in enumerate(p._kinds) if kind is not K.COPY]
        assert len(own) == len(c._kinds)
        for i, j in enumerate(own):
            fed.append(not fanned.isdisjoint(c._ins[i]))
            moved.append(not renamed.isdisjoint(c._outs[i]))
            assert p._kinds[j] is c._kinds[i]
            assert (p._ins[j] is c._ins[i]) is not fed[-1]
            assert (p._outs[j] is c._outs[i]) is not moved[-1]
        assert_same_function(c, p)
    assert any(fed) and not all(fed) and any(moved) and not all(moved)


def test_both_outputs_of_a_copy_fan_out():
    # a gate with two fanned-out outputs is followed by both chains, in
    # output order; x is also a primary output, so its driver is renamed
    text = (
        ".model m\n.inputs a b\n.outputs x p q r s\n.copy a x y\n"
        ".names x b p\n11 1\n.names y b q\n01 1\n10 1\n"
        ".names y r\n0 1\n.names b s\n0 1\n.end\n"
    )
    c = parse_intermediate(text)
    p = insert_copiers(c)
    assert write_intermediate(p) == (
        ".model m\n.inputs a b\n.outputs x p q r s\n"
        ".copy b b__cp0 b__cp1\n.copy b__cp1 b__cp2 b__cp3\n"
        ".copy a x__cp0 y\n.copy x__cp0 x x__cp1\n.copy y y__cp0 y__cp1\n"
        ".names x__cp1 b__cp0 p\n11 1\n.names y__cp0 b__cp2 q\n01 1\n10 1\n"
        ".names y__cp1 r\n0 1\n.names b__cp3 s\n0 1\n.end\n"
    )
    assert_same_function(c, p)


def test_fanned_out_primary_input_po_rejected():
    c = IrCircuit(
        "m", ("a",), ("a", "y"), (IrGate(K.NOT, ("a",), ("y",)),)
    )
    with pytest.raises(UnsupportedError, match="listed in .outputs"):
        insert_copiers(c)


def test_same_net_on_both_pins_becomes_two_copies():
    c = IrCircuit("m", ("a",), ("z",), (IrGate(K.AND, ("a", "a"), ("z",)),))
    p = insert_copiers(c)
    assert p.gates[1].inputs == ("a__cp0", "a__cp1")
    assert_same_function(c, p)


def test_copy_name_collision_gets_underscore():
    c = IrCircuit(
        "m",
        ("a", "a__cp0"),
        ("x", "y", "z"),
        (
            IrGate(K.NOT, ("a",), ("x",)),
            IrGate(K.NOT, ("a",), ("y",)),
            IrGate(K.NOT, ("a__cp0",), ("z",)),
        ),
    )
    p = insert_copiers(c)
    assert p.gates[0].outputs == ("a__cp0_", "a__cp1")
    assert_same_function(c, p)


def test_random_circuits_preserved():
    for seed in range(24):
        c = gen_random_circuit(seed, 1 + seed % 5, seed % 9)
        p = insert_copiers(c)
        assert all(len(r.sinks) == 1 for r in build_netlist(p).values())
        assert_same_function(c, p)
