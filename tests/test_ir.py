"""Structural checks: validation, net records, cycle detection, rev types."""

import dataclasses
import pickle
from collections import namedtuple

import pytest

from revmap import (
    PO_SINK,
    IrCircuit,
    IrGate,
    IrGateKind,
    Line,
    NetRecord,
    RevCircuit,
    RevGate,
    ValidationError,
    build_netlist,
    check_circuit,
    detect_cycles,
    eval_ir,
    t1,
    t2,
    t3,
    validate_circuit,
)

K = IrGateKind


def circuit(inputs, outputs, gates, name="t"):
    return IrCircuit(name, tuple(inputs), tuple(outputs), tuple(gates))


def gate(kind, ins, outs):
    return IrGate(kind, tuple(ins), tuple(outs))


AND_C = circuit("ab", "c", [gate(K.AND, "ab", "c")])


def codes(c):
    return [(v.code, v.subject) for v in validate_circuit(c)]


def test_clean_circuit_validates():
    assert validate_circuit(AND_C) == []
    check_circuit(AND_C)


def test_multiple_drivers():
    c = circuit("ab", "c", [gate(K.AND, "ab", "c"), gate(K.OR, "ab", "c")])
    assert ("multiple-drivers", "c") in codes(c)


def test_gate_output_shadowing_input_is_multiple_drivers():
    c = circuit("ab", "a", [gate(K.AND, "ab", "a")])
    assert ("multiple-drivers", "a") in codes(c)


def test_undriven_output():
    c = circuit("ab", "z", [gate(K.AND, "ab", "c")])
    assert ("undriven-output", "z") in codes(c)


def test_undriven_gate_input():
    c = circuit("a", "c", [gate(K.AND, ("a", "ghost"), "c")])
    assert ("undriven-input", "ghost") in codes(c)


def test_bad_arity():
    c = circuit("abc", "z", [IrGate(K.AND, ("a", "b", "c"), ("z",))])
    assert any(code == "bad-arity" for code, _ in codes(c))


def test_duplicate_primary_inputs():
    c = circuit(("a", "a"), (), [])
    assert ("duplicate-name", "a") in codes(c)


def test_duplicate_primary_outputs_rejected():
    c = circuit("ab", ("c", "c"), [gate(K.AND, "ab", "c")])
    assert ("duplicate-name", "c") in codes(c)


def test_whitespace_name_rejected():
    c = circuit(("a b",), ("a b",), [])
    assert any(code == "bad-name" for code, _ in codes(c))


@pytest.mark.parametrize(
    "name, bad",
    [
        ("", True),
        (" a", True),
        ("a b", True),
        ("a\tb", True),
        ("a\nb", True),
        ("a\u00a0b", True),
        ("\u2003", True),
        ("a\x1cb", True),
        (None, True),
        ("a[3]", False),
        ("n$1", False),
        ("\u00fc", False),
        ("a\u200bb", False),  # zero-width space is not whitespace
        (5, True),  # a name that is not a str
        (1.5, True),
        ((1,), True),
        (b"a", True),
        ("a#b", True),  # the BLIF and .real readers cut a comment there
        ("#", True),
    ],
)
def test_name_rule(name, bad):
    c = circuit((name,), (name,), [])
    expected = [("bad-name", repr(name))] * 2 if bad else []
    assert codes(c) == expected


def test_check_circuit_raises_with_all_violations():
    c = circuit("ab", "z", [gate(K.AND, "ab", "c"), gate(K.OR, "ab", "c")])
    with pytest.raises(ValidationError) as err:
        check_circuit(c)
    assert len(err.value.violations) == 2


def test_netlist_single_and():
    records = build_netlist(AND_C)
    assert records["a"] == NetRecord("a", None, ((0, 0),))
    assert records["b"] == NetRecord("b", None, ((0, 1),))
    assert records["c"] == NetRecord("c", 0, (PO_SINK,))


def test_netlist_po_sink_precedes_gate_sinks():
    c = circuit(
        "a", ("c", "d"), [gate(K.NOT, "a", "c"), gate(K.NOT, "c", "d")]
    )
    assert build_netlist(c)["c"].sinks == (PO_SINK, (1, 0))


def test_netlist_wire_through():
    c = circuit("a", "a", [])
    assert build_netlist(c)["a"] == NetRecord("a", None, (PO_SINK,))


def test_netlist_sink_order_is_declaration_order():
    c = circuit(
        "a", ("x", "y"), [gate(K.NOT, "a", "x"), gate(K.NOT, "a", "y")]
    )
    assert build_netlist(c)["a"].sinks == ((0, 0), (1, 0))


def test_detect_cycles_none_on_acyclic():
    assert detect_cycles(AND_C) is None


def test_detect_cycles_two_gate_loop():
    c = circuit(
        "ab",
        ("p", "q"),
        [gate(K.XOR, ("a", "q"), "p"), gate(K.XOR, ("b", "p"), "q")],
    )
    assert detect_cycles(c) == [0, 1]


def test_detect_cycles_self_loop():
    c = circuit("a", "p", [gate(K.XOR, ("a", "p"), "p")])
    assert detect_cycles(c) == [0]


def test_detect_cycles_reports_inner_loop_only():
    c = circuit(
        "a",
        ("z",),
        [
            gate(K.NOT, "a", "n"),
            gate(K.AND, ("n", "q"), "p"),
            gate(K.NOT, "p", "q"),
            gate(K.NOT, "n", "z"),
        ],
    )
    # g0 feeds the loop but is not part of it; g3 hangs off g0.
    assert detect_cycles(c) == [1, 2]


def test_detect_cycles_lowest_gate_hangs_off_loop():
    c = circuit(
        "a",
        ("z",),
        [
            gate(K.NOT, "q", "z"),
            gate(K.AND, ("a", "q"), "p"),
            gate(K.NOT, "p", "q"),
        ],
    )
    # g0 reads the loop but is not part of it; the witness starts where
    # the walk from g0 first meets a gate it has already passed.
    assert detect_cycles(c) == [2, 1]


def test_detect_cycles_skips_acyclic_first_driver():
    c = circuit(
        "ab",
        ("z",),
        [
            gate(K.NOT, "a", "n"),
            gate(K.AND, ("n", "r"), "p"),
            gate(K.NOT, "p", ("r2",)),
            gate(K.NOT, ("r2",), "r"),
            gate(K.NOT, "b", "z"),
        ],
    )
    # g1's first input comes from the acyclic g0, its second from the loop
    assert detect_cycles(c) == [1, 3, 2]


def test_detect_cycles_reports_first_of_two_disjoint_loops():
    c = circuit(
        "ab",
        ("z",),
        [
            gate(K.NOT, "a", "z"),
            gate(K.XOR, ("b", "v"), "u"),
            gate(K.AND, ("a", "y"), "x"),
            gate(K.NOT, "u", "v"),
            gate(K.NOT, "x", "y"),
        ],
    )
    assert detect_cycles(c) == [1, 3]


def test_memoized_index_leaves_the_value_alone():
    # validate_circuit and detect_cycles answer from an index memoized on
    # the circuit; it takes no part in equality, hashing or repr, and
    # callers get copies they may change
    loop = circuit("a", "p", [gate(K.XOR, ("a", "p"), "p"), gate(K.NOT, "b", "c")])
    twin = circuit("a", "p", [gate(K.XOR, ("a", "p"), "p"), gate(K.NOT, "b", "c")])
    found = validate_circuit(loop)
    assert [str(v) for v in found] == ["undriven-input: b"]
    found.clear()
    assert validate_circuit(loop) != []
    assert loop == twin and hash(loop) == hash(twin) and repr(loop) == repr(twin)
    c = circuit("a", "p", [gate(K.XOR, ("a", "p"), "p")])
    cycle = detect_cycles(c)
    cycle.append(5)
    assert detect_cycles(c) == [0]
    assert c == circuit("a", "p", [gate(K.XOR, ("a", "p"), "p")])


def test_list_built_circuit_is_frozen():
    # lists given for a circuit's fields are copied into tuples, so a later
    # change to the list neither reaches the circuit nor its memoized index
    gates = [IrGate(K.NOT, ("a",), ("y",))]
    c = IrCircuit("m", ["a"], ["y"], gates)
    assert validate_circuit(c) == []
    gates[0] = IrGate(K.NOT, ("zz",), ("y",))
    assert c.gates == (IrGate(K.NOT, ("a",), ("y",)),)
    assert (c.inputs, c.outputs) == (("a",), ("y",))
    assert eval_ir(c, {"a": 1}) == {"y": 0}
    assert hash(c) == hash(circuit("a", "y", [gate(K.NOT, "a", "y")], name="m"))


def test_list_built_gate_is_frozen():
    ins, outs = ["a"], ["y"]
    g = IrGate(K.NOT, ins, outs)
    c = circuit("a", "y", [g])
    assert validate_circuit(c) == []
    ins[0], outs[0] = "q", "z"
    assert (g.inputs, g.outputs) == (("a",), ("y",))
    assert eval_ir(c, {"a": 0}) == {"y": 1}
    assert hash(g) == hash(IrGate(K.NOT, ("a",), ("y",)))


def test_tuple_fields_are_kept_as_given():
    # a field that already is a tuple is not copied; any other sequence,
    # a tuple subclass included, becomes a plain tuple
    Pair = namedtuple("Pair", "x y")
    ins, outs = ("a", "b"), Pair("y", "z")
    g = IrGate(K.COPY, ins, outs)
    assert g.inputs is ins
    assert type(g.outputs) is tuple and g.outputs == ("y", "z")
    gates = (g,)
    c = IrCircuit("m", ins, ["y"], gates)
    assert c.inputs is ins and c.gates is gates and c.outputs == ("y",)


@pytest.mark.parametrize("g", [
    "junk", None, ("not", ("a",), ("y",)), RevGate((), 0),
], ids=["str", "none", "tuple", "rev-gate"])
def test_ir_circuit_takes_only_ir_gates(g):
    # judged where the gate enters, not as a bare AttributeError of the
    # first validation
    with pytest.raises(TypeError) as err:
        IrCircuit("m", ("a",), ("y",), (IrGate(K.NOT, ("a",), ("y",)), g))
    assert str(err.value) == f"not an IrGate: {g!r}"


@pytest.mark.parametrize("kind", ["not", None, 1, K], ids=["str", "none", "int", "enum"])
def test_ir_gate_takes_only_gate_kinds(kind):
    with pytest.raises(TypeError) as err:
        IrGate(kind, ("a",), ("y",))
    assert str(err.value) == f"not an IrGateKind: {kind!r}"
    with pytest.raises(TypeError) as err:
        dataclasses.replace(IrGate(K.NOT, ("a",), ("y",)), kind=kind)
    assert str(err.value) == f"not an IrGateKind: {kind!r}"


def test_rev_gate_rejects_repeated_lines():
    with pytest.raises(ValueError):
        t3(0, 0, 1)
    with pytest.raises(ValueError):
        t2(2, 2)


@pytest.mark.parametrize("controls, target, message", [
    # a repeated line is reported before too many controls
    ((0, 0, 1), 2, "gate touches a line twice: (0, 0, 1, 2)"),
    ((1, 2), 1, "gate touches a line twice: (1, 2, 1)"),
    ((1,), 1, "gate touches a line twice: (1, 1)"),
    ((-1, -1), 0, "gate touches a line twice: (-1, -1, 0)"),
    # too many controls is reported before a negative line
    ((0, 1, 2), 3, "at most two controls are supported"),
    ((0, 1, -2), 3, "at most two controls are supported"),
    ((-1,), 0, "negative line index"),
    ((0, -1), 2, "negative line index"),
    ((), -1, "negative line index"),
    ((0,), -3, "negative line index"),
])
def test_rev_gate_messages(controls, target, message):
    with pytest.raises(ValueError) as err:
        RevGate(controls, target)
    assert str(err.value) == message


@pytest.mark.parametrize("controls, target", [
    ((0.5,), 2), ((), 2.0), ((True,), 1), ((0, "1"), 2),
    # judged before the rules above, which these would otherwise break
    ((0.0, 0), 1), ((), -1.0), ((0, 1, 2.5), 3),
])
def test_rev_gate_rejects_indices_that_are_not_ints(controls, target):
    with pytest.raises(TypeError) as err:
        RevGate(controls, target)
    assert str(err.value) == f"line indices are not ints: {(*controls, target)}"


@pytest.mark.parametrize("lines, gates, message", [
    # the first gate out of range is named, whichever of its lines it is
    ((Line("a"), Line("b")), (t2(0, 1), t3(0, 1, 2), t2(3, 1), t1(5)),
     "gate RevGate(controls=(0, 1), target=2) exceeds line count 2"),
    ((Line("a"), Line("b")), (t1(1), t2(4, 0), t1(2)),
     "gate RevGate(controls=(4,), target=0) exceeds line count 2"),
    ((Line("a"),), (t1(0), t1(1)),
     "gate RevGate(controls=(), target=1) exceeds line count 1"),
    # duplicate names win over duplicate outputs, which win over range
    ((Line("a"), Line("a"), Line("b", output="z"), Line("c", output="z")),
     (t1(9),), "line names are not unique"),
    ((Line("a", output="z"), Line("b", output="z")), (t1(9),),
     "a primary output appears on two lines"),
    # a line write_real cannot spell is named, before the rules above
    ((Line("a"), Line("x", 2, "y"), Line("x")), (t1(9),),
     "line Line(name='x', constant=2, output='y'): its constant is not None, 0 or 1"),
    ((Line("x", True),), (), "line Line(name='x', constant=True, output=None): "
     "its constant is not None, 0 or 1"),
    ((Line("x", 1.0),), (), "line Line(name='x', constant=1.0, output=None): "
     "its constant is not None, 0 or 1"),
    *(((Line("a"), line), (), f"line {line!r}: its name or output is not a "
       "nonempty str without whitespace or '#'") for line in (
        Line(""), Line("a b"), Line("a#b"), Line("\u2003"), Line(3), Line(None),
        Line("x", output=""), Line("x", output="y z"), Line("x", output="#"),
        Line("x", 0, ("y",)))),
])
def test_rev_circuit_messages(lines, gates, message):
    with pytest.raises(ValueError) as err:
        RevCircuit("r", lines, gates)
    assert str(err.value) == message


@pytest.mark.parametrize("line", [("a", None, None), "a", None])
def test_rev_circuit_takes_only_lines(line):
    with pytest.raises(TypeError) as err:
        RevCircuit("r", (Line("b"), line), ())
    assert str(err.value) == f"not a Line: {line!r}"


def test_rev_gate_helpers():
    assert t1(3) == RevGate((), 3)
    assert t2(0, 1) == RevGate((0,), 1)
    assert t3(0, 1, 2) == RevGate((0, 1), 2)


def test_rev_circuit_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        RevCircuit("r", (Line("a"),), (t2(0, 1),))


def test_rev_circuit_rejects_duplicate_line_names():
    with pytest.raises(ValueError):
        RevCircuit("r", (Line("a"), Line("a")), ())


def test_rev_circuit_rejects_duplicate_output_names():
    with pytest.raises(ValueError):
        RevCircuit(
            "r", (Line("a", output="z"), Line("b", output="z")), ()
        )


def test_rev_circuit_name_not_compared():
    a = RevCircuit("x", (Line("a"),), ())
    b = RevCircuit("y", (Line("a"),), ())
    assert a == b


def test_rev_circuit_counts():
    r = RevCircuit(
        "r",
        (Line("a"), Line("x0", constant=0, output="z"), Line("x1", constant=1)),
        (t2(0, 1),),
    )
    assert r.width == 3
    assert r.primary_inputs == ("a",)
    assert r.primary_outputs == ("z",)
    assert r.constant_count == 2
    assert r.garbage_count == 2


# ------------------------------------------------- the gate value types


@pytest.mark.parametrize("value, fields, bad", [
    (RevGate((0, 1), 2), {"controls": (0, 1), "target": 2},
     ({"target": 1}, "gate touches a line twice: (0, 1, 1)")),
    (RevGate((), 3), {"controls": (), "target": 3},
     ({"target": -1}, "negative line index")),
    (IrGate(K.AND, ("a", "b"), ("c",)),
     {"kind": K.AND, "inputs": ("a", "b"), "outputs": ("c",)}, None),
    (Line("x0", 1, "z"), {"name": "x0", "constant": 1, "output": "z"}, None),
    (NetRecord("c", 0, (PO_SINK, (1, 0))),
     {"net": "c", "source": 0, "sinks": (PO_SINK, (1, 0))}, None),
], ids=["toffoli", "not", "and", "line", "net-record"])
def test_gate_value_types(value, fields, bad):
    assert [f.name for f in dataclasses.fields(value)] == list(fields)
    assert {name: getattr(value, name) for name in fields} == fields
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    assert not hasattr(value, "__dict__")
    twin = type(value)(**fields)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert repr(value) == f"{type(value).__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in fields.items()) + ")"
    assert pickle.loads(pickle.dumps(value)) == value
    assert dataclasses.replace(value) == value
    if bad is not None:
        # replace builds through the same checks as the constructor
        changes, message = bad
        with pytest.raises(ValueError) as err:
            dataclasses.replace(value, **changes)
        assert str(err.value) == message


def test_line_defaults():
    assert Line("a") == Line("a", None, None) == Line(name="a")
    assert Line("x0", output="z") == Line("x0", None, "z")
    assert [f.default for f in dataclasses.fields(Line)][1:] == [None, None]
    assert dataclasses.replace(Line("a"), constant=0) == Line("a", 0)


def test_rev_gate_controls_are_a_tuple():
    # controls are frozen into a tuple, as IrGate's sequences are, so a
    # gate built from a list equals and hashes as the tuple-built one
    g = RevGate([0], 1)
    assert type(g.controls) is tuple
    assert g == RevGate((0,), 1) == t2(0, 1)
    assert hash(g) == hash(RevGate((0,), 1))
    assert RevGate(iter([0, 1]), 2) == t3(0, 1, 2)
    with pytest.raises(ValueError, match="gate touches a line twice: \\(0, 0\\)"):
        RevGate([0], 0)


def test_ir_gate_replace_freezes_lists():
    g = dataclasses.replace(IrGate(K.NOT, ("a",), ("y",)), inputs=["b"],
                            outputs=["z"])
    assert g == IrGate(K.NOT, ("b",), ("z",))
    assert type(g.inputs) is tuple and type(g.outputs) is tuple
