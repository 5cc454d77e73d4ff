"""A RevCircuit holds one packed form, whoever builds it: its lines as
three columns (names, constants, outputs) and its gates as the rows of
line indices a .real gate row names, controls first, target last.

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
    RevCircuit,
    RevGate,
    check_equivalence,
    convert_circuit,
    eval_rev,
    gen_random_circuit,
    insert_copiers,
    parse_real,
    slot_circuit,
    stats,
    t1,
    t2,
    t3,
    write_real,
)
from revmap.cli import main
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
