"""A RevCircuit holds one packed form, whoever builds it: its lines as
three columns (names, constants, outputs) and its gates as the rows of
line indices a .real gate row names, controls first, target last.  An
IrCircuit does too: its gates as three columns (kinds, input nets,
output nets), which the BLIF reader, insert_copiers and
gen_random_circuit build and every stage of the pipeline reads, so no
command builds an IrGate; IrCircuit.gates is built on its first read.

parse_real and convert_circuit build only these columns and rows, and
eval_rev, write_real, stats, check_equivalence and the sim command read
only them, so the CLI commands build no Line and no RevGate.
RevCircuit() packs a caller's Lines and RevGates the same way.
RevCircuit.lines and RevCircuit.gates are built from the packed form on
their first read and kept; the circuit compares, hashes, prints, pickles
and copies as one a caller built from Lines and RevGates.  Each row names
one to three distinct lines, all in range, which is what makes each gate
its own inverse.  RevCircuit's constructor judges that of a caller's
gates; the two builders guarantee it of their rows and build through
ir._rev_circuit, which judges nothing, so their output is judged here
against a plain reference, samples.is_well_formed.
"""

import copy
import dataclasses
import pickle

import pytest

import revmap.ir as ir
import revmap.realfmt as realfmt
from revmap import (
    IrCircuit,
    IrGate,
    IrGateKind,
    Line,
    ValidationError,
    RevCircuit,
    RevGate,
    check_equivalence,
    convert_circuit,
    eval_ir,
    eval_rev,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    parse_intermediate,
    parse_real,
    slot_circuit,
    validate_circuit,
    stats,
    t1,
    t2,
    t3,
    write_intermediate,
    write_real,
)
from revmap.cli import main
from revmap.convert import conversion_trace
from samples import HALF_ADDER_BLIF, is_well_formed

K = IrGateKind


def refuse(*args, **kwargs):
    raise AssertionError("a RevGate or Line was built, or a row checked")


@pytest.fixture
def no_rev_gates(monkeypatch):
    # the commands build no gate and no Line, and send no row that
    # write_real spells down the checked path
    monkeypatch.setattr(RevGate, "__init__", refuse)
    monkeypatch.setattr(Line, "__init__", refuse)
    monkeypatch.setattr(realfmt, "_checked_row", refuse)


def test_commands_build_no_rev_gate(no_rev_gates, monkeypatch, tmp_path, capsys):
    blif = tmp_path / "ha.blif"
    real = tmp_path / "ha.real"
    bad = tmp_path / "bad.real"
    blif.write_text(HALF_ADDER_BLIF)
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert main(["convert", str(blif), "-o", str(real), "--trace"]) == 0
    text = real.read_text()
    bad.write_text(text.replace("t3 x0 x1 x2\n", ""))
    assert main(["verify", str(blif), str(real)]) == 0
    assert main(["verify", str(blif), str(bad)]) == 1
    assert main(["stats", str(real)]) == 0
    assert main(["sim", str(real), "--input", "11"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "status=Equivalent" in out and "status=Mismatch" in out
    assert "gates=4 quantum_cost=8" in out
    assert "g0=1 s=0 g1=1 g2=1 c=1" in out
    # the gates are still there to read, once they may be built
    monkeypatch.undo()
    assert parse_real(text).gates == (t2(0, 2), t2(1, 3), t2(0, 1), t3(2, 3, 4))


def circuits():
    for seed in range(6):
        c = insert_copiers(gen_random_circuit(seed, 2 + seed, 4 * seed))
        yield convert_circuit(slot_circuit(c))


@pytest.mark.parametrize("r", list(circuits()))
def test_packed_circuit_is_a_plain_value(r):
    parsed = parse_real(write_real(r))
    # what a caller builds from the same lines and RevGates
    twin = RevCircuit(
        "",
        tuple(Line(ln.name, ln.constant, ln.output) for ln in r.lines),
        tuple(RevGate(g.controls, g.target) for g in r.gates),
    )
    fresh = parse_real(write_real(r))
    copied = pickle.loads(pickle.dumps(fresh))
    assert "gates" not in vars(fresh) and "gates" not in vars(copied)
    assert copied == fresh == parsed == twin == r
    assert hash(fresh) == hash(twin) and repr(fresh) == repr(twin)
    assert "gates" in vars(fresh)  # built by the reads above, and kept
    assert fresh.gates is fresh.gates
    assert all(type(g) is RevGate for g in fresh.gates)
    assert pickle.loads(pickle.dumps(fresh)) == twin
    assert dataclasses.replace(fresh) == twin
    assert copy.copy(fresh) == copy.deepcopy(fresh) == twin
    assert dataclasses.replace(parse_real(write_real(r)), name="n").name == "n"
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.gates = ()
    with pytest.raises(AttributeError, match="'RevCircuit' object has no attribute 'gate'"):
        fresh.gate


def test_caller_sequences_are_frozen():
    lines = [Line("a"), Line("b")]
    gates = [t2(0, 1)]
    r = RevCircuit("r", lines, gates)
    lines.append(Line("c"))
    gates.append(t1(2))
    assert type(r.lines) is tuple and type(r.gates) is tuple
    assert r == RevCircuit("r", (Line("a"), Line("b")), (t2(0, 1),))
    assert hash(r) == hash(RevCircuit("r", (Line("a"), Line("b")), (t2(0, 1),)))


LINES = ("a", "b", "c")


@pytest.mark.parametrize("rows, message", [
    (((0, 1), (1, 1)), "gate touches a line twice: (1, 1)"),
    (((0, 1, 0),), "gate touches a line twice: (0, 1, 0)"),
    (((0, 0, 1),), "gate touches a line twice: (0, 0, 1)"),
    (((0, 1, 2, 3),), "at most two controls are supported"),
    (((-1, 2),), "negative line index"),
    (((2,), (0, 3)), "gate RevGate(controls=(0,), target=3) exceeds line count 3"),
])
def test_packed_rows_are_checked(rows, message):
    # the rule check_bijectivity relies on: a caller's gates are judged as
    # they are built, and the trusted constructor takes the same rows
    # unjudged, which the reference rejects
    with pytest.raises(ValueError) as err:
        gates = [RevGate(row[:-1], row[-1]) for row in rows]
        RevCircuit("r", map(Line, LINES), gates)
    assert str(err.value) == message
    trusted = ir._rev_circuit("r", LINES, (None,) * 3, (None,) * 3, rows)
    assert not is_well_formed(trusted)


@pytest.mark.parametrize("restore", [True, False])
def test_builders_keep_the_gate_rule(restore):
    # what convert_circuit builds, and parse_real reads back, is judged by
    # nothing but its builder, so it is judged here
    for seed in range(200):
        c = gen_random_circuit(seed, 1 + seed % 10, 7 * seed % 41)
        r = convert_circuit(slot_circuit(insert_copiers(c)), restore)
        for built in (r, parse_real(write_real(r))):
            assert is_well_formed(built)
            assert RevCircuit(built.name, built.lines, built.gates) == built
    # an empty row, which no RevGate spells
    empty = ir._rev_circuit("r", LINES, (None,) * 3, (None,) * 3, ((1,), ()))
    assert not is_well_formed(empty)


def test_packed_circuit_equals_the_one_built_from_gates():
    r = ir._rev_circuit("r", LINES, (None, 0, 1), ("y", None, "z"),
                        ((1,), (0, 2), (0, 1, 2)))
    assert r == RevCircuit("x", (Line("a", None, "y"), Line("b", 0), Line("c", 1, "z")),
                           (t1(1), t2(0, 2), t3(0, 1, 2)))
    assert r.gates == (t1(1), t2(0, 2), t3(0, 1, 2))
    assert not hasattr(r.lines[0], "__dict__")


def test_gate_order_is_kept():
    c = IrCircuit("m", ("a",), ("y",), (IrGate(K.NOT, ("a",), ("n",)),
                                        IrGate(K.NOT, ("n",), ("y",))))
    r = convert_circuit(slot_circuit(c))
    assert r._rows == ((0,), (0,))
    assert r.gates == (t1(0), t1(0))


PACKED = {"name", "_names", "_constants", "_outputs", "_rows"}


def test_every_builder_stores_only_the_packed_form():
    c = insert_copiers(gen_random_circuit(7, 5, 20))
    r = convert_circuit(slot_circuit(c))
    parsed = parse_real(write_real(r))
    twin = RevCircuit("", parsed.lines, parsed.gates)
    for built in (r, parse_real(write_real(r)), twin):
        assert set(vars(built)) == PACKED
        # what the commands run reads the packed form only
        write_real(built)
        assert check_equivalence(c, built).equivalent
        stats(built)
        eval_rev(built, [0] * built.width)
        assert set(vars(built)) == PACKED
        # read once, the views are the Lines and RevGates that built twin,
        # and are kept
        assert built.lines == parsed.lines and built.gates == parsed.gates
        assert set(vars(built)) == PACKED | {"lines", "gates"}
        assert built.lines is built.lines and built.gates is built.gates


def test_an_unbuilt_circuit_has_no_views():
    bare = object.__new__(RevCircuit)
    assert not hasattr(bare, "lines") and not hasattr(bare, "gates")
    with pytest.raises(AttributeError, match="no attribute 'lines'"):
        bare.lines


# ---------------------------------------------- the conventional side

# every gate kind; x is a primary output that feeds two gates, so its
# driver is renamed, and y is a buffer of an AND
FANOUT_BLIF = """\
.model m
.inputs a b
.outputs x p q r s t u
.names a b x
1- 1
-1 1
.names x b p
11 1
.names x a q
00 1
.names a b y
11 1
.names y r
1 1
.names r a s
01 1
10 1
.names b t
0 1
.names b a u
00 1
11 1
.names b a v
0- 1
-0 1
.end
"""


def refuse_ir_gate(*args, **kwargs):
    raise AssertionError("an IrGate was built")


@pytest.fixture
def no_ir_gates(monkeypatch):
    # the commands read and build only the gate columns
    monkeypatch.setattr(IrGate, "__init__", refuse_ir_gate)


def test_commands_build_no_ir_gate(no_ir_gates, monkeypatch, tmp_path, capsys):
    blif = tmp_path / "m.blif"
    real = tmp_path / "m.real"
    prep = tmp_path / "prep.blif"
    bad = tmp_path / "bad.blif"
    gen = tmp_path / "gen.blif"
    blif.write_text(FANOUT_BLIF)
    bad.write_text(FANOUT_BLIF.replace(".names b t", ".names z t"))
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert main(["convert", str(blif), "-o", str(real), "--trace"]) == 0
    assert main(["convert", str(blif), "-o", str(tmp_path / "bare.real"),
                 "--no-restore-controls"]) == 0
    assert main(["verify", str(blif), str(real)]) == 0
    assert main(["prep", str(blif), "-o", str(prep)]) == 0
    assert main(["verify", str(prep), str(real)]) == 0
    assert main(["slots", str(blif)]) == 0
    assert main(["sim", str(blif), "--input", "10"]) == 0
    assert main(["gen", "--seed", "3", "--inputs", "4", "--gates", "30",
                 "-o", str(gen)]) == 0
    assert main(["sim", str(gen), "--input", "1011"]) == 0
    # an unsound circuit's violations are listed from the columns too
    assert main(["convert", str(bad), "-o", str(real)]) == 2
    out, err = capsys.readouterr()
    assert err == "error[2]: undriven-input: z\n"
    assert "status=Equivalent" in out and "kind=COPY" in out
    # r is a buffer of y, so .outputs names y
    assert "x=1 p=0 q=0 y=0 s=1 t=1 u=0" in out
    assert ".copy x__cp0 x x__cp1" in prep.read_text()
    # the gates are still there to read, once they may be built
    monkeypatch.undo()
    c = parse_blif(FANOUT_BLIF)
    assert c.gates[0] == IrGate(K.OR, ("a", "b"), ("x",))
    assert [g.kind for g in c.gates] == [K.OR, K.AND, K.NOR, K.AND, K.XOR,
                                         K.NOT, K.XNOR, K.NAND]


def ir_circuits():
    yield parse_blif(FANOUT_BLIF)
    for seed in range(4):
        c = gen_random_circuit(seed, 2 + seed, 5 * seed)
        yield c
        yield insert_copiers(c)


@pytest.mark.parametrize("c", list(ir_circuits()))
def test_packed_ir_circuit_is_a_plain_value(c):
    text = write_intermediate(c)
    # what a caller builds from the same IrGates
    twin = IrCircuit(c.name, c.inputs, c.outputs, tuple(
        IrGate(g.kind, g.inputs, g.outputs) for g in parse_intermediate(text).gates
    ))
    fresh = parse_intermediate(text)
    copied = pickle.loads(pickle.dumps(fresh))
    assert "gates" not in vars(fresh) and "gates" not in vars(copied)
    assert copied == fresh == twin == c
    assert hash(fresh) == hash(twin) and repr(fresh) == repr(twin)
    assert "gates" in vars(fresh)  # built by the reads above, and kept
    assert fresh.gates is fresh.gates
    assert all(type(g) is IrGate for g in fresh.gates)
    assert pickle.loads(pickle.dumps(fresh)) == twin
    assert dataclasses.replace(fresh) == twin
    assert copy.copy(fresh) == copy.deepcopy(fresh) == twin
    renamed = dataclasses.replace(parse_intermediate(text), name="n")
    assert renamed.name == "n" and renamed.gates == twin.gates
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.gates = ()
    with pytest.raises(AttributeError, match="'IrCircuit' object has no attribute 'gate'"):
        fresh.gate


def test_caller_gates_are_kept_as_the_view():
    gates = (IrGate(K.NOT, ("a",), ("n",)), IrGate(K.NOT, ("n",), ("y",)))
    c = IrCircuit("m", ("a",), ("y",), gates)
    assert c.gates is gates
    assert c._kinds == (K.NOT, K.NOT)
    assert c._ins == (("a",), ("n",)) and c._outs == (("n",), ("y",))
    assert c._ins[0] is gates[0].inputs and c._outs[1] is gates[1].outputs
    assert IrCircuit("m", ("a",), ("y",)).gates == ()
    assert IrCircuit("m", ("a",), ("y",))._kinds == ()


def test_trusted_ir_circuit_equals_the_one_built_from_gates():
    c = ir._ir_circuit("m", ("a", "b"), ("y", "z"), (K.COPY, K.AND),
                       (("a",), ("a1", "b")), (("a1", "z"), ("y",)))
    twin = IrCircuit("m", ("a", "b"), ("y", "z"), (
        IrGate(K.COPY, ("a",), ("a1", "z")), IrGate(K.AND, ("a1", "b"), ("y",)),
    ))
    assert c == twin and hash(c) == hash(twin)
    assert c.gates == twin.gates
    assert eval_ir(c, {"a": 1, "b": 1}) == {"y": 1, "z": 1}


IR_PACKED = {"name", "inputs", "outputs", "_kinds", "_ins", "_outs"}


@pytest.mark.parametrize("build", [
    lambda: parse_blif(FANOUT_BLIF),
    lambda: parse_blif(HALF_ADDER_BLIF),
    lambda: parse_intermediate(write_intermediate(insert_copiers(parse_blif(FANOUT_BLIF)))),
    lambda: insert_copiers(parse_blif(FANOUT_BLIF)),
    lambda: gen_random_circuit(7, 5, 20),
    lambda: insert_copiers(gen_random_circuit(7, 5, 20)),
], ids=["blif-aliases", "blif", "intermediate", "copiers", "gen", "gen-copiers"])
def test_every_ir_builder_stores_only_the_packed_form(build):
    c = build()
    assert set(vars(c)) == IR_PACKED
    assert all(type(col) is tuple for col in (c.inputs, c.outputs, c._kinds,
                                              c._ins, c._outs))
    assert all(type(kind) is IrGateKind for kind in c._kinds)
    assert all(type(nets) is tuple for nets in (*c._ins, *c._outs))
    # what the commands run reads the columns only
    assert validate_circuit(c) == []
    write_intermediate(c)
    p = insert_copiers(c)
    s = slot_circuit(p)
    r = convert_circuit(s)
    conversion_trace(s)
    s.slots
    assert check_equivalence(c, r).equivalent
    for built in (c, p):
        assert set(vars(built)) == IR_PACKED | {"_index"}
        # read once, the view is the IrGates the columns hold, and is kept
        assert [(g.kind, g.inputs, g.outputs) for g in built.gates] == list(
            zip(built._kinds, built._ins, built._outs))
        assert set(vars(built)) == IR_PACKED | {"_index", "gates"}
        assert built.gates is built.gates


def test_an_unsound_circuit_is_judged_from_its_columns(no_ir_gates):
    with pytest.raises(ValidationError) as err:
        convert_circuit(slot_circuit(insert_copiers(
            parse_blif(FANOUT_BLIF.replace(".inputs a b", ".inputs a"))
        )))
    assert [str(v) for v in err.value.violations] == [
        "undriven-input: b", "undriven-input: b", "undriven-input: b",
        "undriven-input: b", "undriven-input: b", "undriven-input: b",
    ]


def test_an_unbuilt_ir_circuit_has_no_view():
    bare = object.__new__(IrCircuit)
    assert not hasattr(bare, "gates")
    with pytest.raises(AttributeError, match="no attribute 'gates'"):
        bare.gates
