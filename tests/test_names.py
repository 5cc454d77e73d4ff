"""Violations name what the caller wrote.

A name repeated in .outputs is reported by that name, also when a buffer
renames its net, and a name that cannot be hashed is reported as a bad
name instead of raising.  The model name is judged as a net name is, so
that a circuit which validates reads back under its own name.
"""

import pytest

from revmap import (
    IrCircuit,
    IrGate,
    IrGateKind,
    parse_intermediate,
    validate_circuit,
    write_intermediate,
)
from revmap.cli import main

K = IrGateKind

ONE_NOT_REAL = (
    ".version 2.0\n.numvars 1\n.variables a\n.inputs a\n.outputs y\n"
    ".constants -\n.garbage -\n.begin\nt1 a\n.end\n"
)


def run(tmp_path, capsys, text, command):
    blif, real = tmp_path / "x.blif", tmp_path / "x.real"
    blif.write_text(text)
    real.write_text(ONE_NOT_REAL)
    argv = {"convert": ["convert", str(blif), "-o", "-"],
            "verify": ["verify", str(blif), str(real)]}[command]
    code = main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("command", ["convert", "verify"])
def test_a_buffered_output_listed_twice_is_named_as_written(tmp_path, capsys, command):
    buffered = ".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n"
    assert run(tmp_path, capsys, buffered, command) == (
        2, ("", "error[2]: duplicate-name: y\n"))
    # as the same file reports it with a gate in place of the buffer
    inverted = buffered.replace("1 1", "0 1")
    assert run(tmp_path, capsys, inverted, "convert") == (
        2, ("", "error[2]: duplicate-name: y\n"))


@pytest.mark.parametrize("command", ["convert", "verify"])
def test_repeats_among_other_violations_are_named_as_written(tmp_path, capsys, command):
    # every violation, in validate_circuit's order, as with a gate in place
    # of the buffer; the buffers read through a chain
    text = (".model m\n.inputs a a b\n.outputs y z y z q\n.names w y\n1 1\n"
            ".names a w\n1 1\n.names b z\n0 1\n.names b z\n0 1\n.end\n")
    want = ("error[2]: duplicate-name: a; duplicate-name: y; duplicate-name: z; "
            "multiple-drivers: z; undriven-output: q\n")
    assert run(tmp_path, capsys, text, command) == (2, ("", want))
    inverted = text.replace(".names a w\n1 1", ".names a w\n0 1")
    assert run(tmp_path, capsys, inverted, "convert") == (2, ("", want))


def test_a_buffer_that_nothing_reads_still_lists_repeats_as_written(tmp_path, capsys):
    # an undriven buffer root comes last, after the repeat named as written
    text = (".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n"
            ".names u v\n1 1\n.end\n")
    assert run(tmp_path, capsys, text, "convert") == (
        2, ("", "error[2]: duplicate-name: y; undriven-input: u\n"))


LISTED = ["a"]


@pytest.mark.parametrize("c, want", [
    (IrCircuit("m", (LISTED,), ()), ["bad-name: ['a']"]),
    (IrCircuit("m", ("a",), (LISTED,)),
     ["bad-name: ['a']", "undriven-output: ['a']"]),
    (IrCircuit("m", ("a",), ("y",), (IrGate(K.NOT, (LISTED,), ("y",)),)),
     ["bad-name: ['a']", "undriven-input: ['a']"]),
    (IrCircuit("m", ("a",), ("y",), (IrGate(K.NOT, ("a",), (LISTED,)),
                                      IrGate(K.NOT, (LISTED,), ("y",)))),
     ["bad-name: ['a']", "bad-name: ['a']", "undriven-input: ['a']"]),
    (IrCircuit("m", ((LISTED,), "a"), ("a",)), ["bad-name: (['a'],)"]),
], ids=["input", "output", "gate-input", "gate-output", "nested"])
def test_an_unhashable_name_is_a_bad_name(c, want):
    # an unhashable name is never a repeat and never driven, so it is
    # reported as an undriven name of the same place would be
    assert [str(v) for v in validate_circuit(c)] == want


@pytest.mark.parametrize("model", ["a#b", "", "a b", "x\\", "#", None, 5, ["m"]])
def test_a_model_name_that_cannot_be_written_back_is_a_bad_name(model):
    # reported first, before the net names' violations
    c = IrCircuit(model, ("a", "a"), ("y",), (IrGate(K.NOT, ("a",), ("y",)),))
    assert [str(v) for v in validate_circuit(c)] == [
        f"bad-name: {model!r}", "duplicate-name: a"]
    sound = IrCircuit(model, ("a",), ("y",), (IrGate(K.NOT, ("a",), ("y",)),))
    assert [str(v) for v in validate_circuit(sound)] == [f"bad-name: {model!r}"]


@pytest.mark.parametrize("model", ["m", "top", "a[3]", "n$1", "\u00fc", "a\\b"])
def test_a_valid_model_name_reads_back(model):
    c = IrCircuit(model, ("a",), ("y",), (IrGate(K.NOT, ("a",), ("y",)),))
    assert validate_circuit(c) == []
    assert parse_intermediate(write_intermediate(c)) == c
