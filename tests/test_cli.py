"""End-to-end CLI behavior: outputs, exit codes, error reporting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import revmap.cli
import revmap.convert
import revmap.ir
from revmap.cli import main
from samples import (
    AND_BLIF,
    FEEDBACK_BLIF,
    HALF_ADDER_BLIF,
    not_chain_blif,
    not_chain_real,
)

HALF_ADDER_REAL = (
    ".version 2.0\n"
    ".numvars 5\n"
    ".variables a b x0 x1 x2\n"
    ".inputs a b 0 0 0\n"
    ".outputs g0 s g1 g2 c\n"
    ".constants --000\n"
    ".garbage 1-11-\n"
    ".begin\n"
    "t2 a x0\n"
    "t2 b x1\n"
    "t2 a b\n"
    "t3 x0 x1 x2\n"
    ".end\n"
)


@pytest.fixture
def half_adder(tmp_path):
    src = tmp_path / "ha.blif"
    src.write_text(HALF_ADDER_BLIF)
    return src


def test_convert_writes_real_file(half_adder, tmp_path):
    out = tmp_path / "ha.real"
    assert main(["convert", str(half_adder), "-o", str(out)]) == 0
    assert out.read_text() == HALF_ADDER_REAL


@pytest.fixture
def validations(monkeypatch):
    """The circuits passed to revmap.ir.validate_circuit, in call order."""
    calls = []
    original = revmap.ir.validate_circuit

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(revmap.ir, "validate_circuit", counted)
    return calls


def test_convert_validates_each_circuit_before_use(half_adder, tmp_path, validations):
    # the parsed circuit before fanout removal; the prepared one before
    # slotting and again, from its memo, before conversion
    out = tmp_path / "ha.real"
    assert main(["convert", str(half_adder), "-o", str(out)]) == 0
    assert out.read_text() == HALF_ADDER_REAL
    assert len(validations) == 3 and validations[1] is validations[2]


def test_verify_validates_the_circuit_once(half_adder, tmp_path, validations):
    real = tmp_path / "ha.real"
    real.write_text(HALF_ADDER_REAL)
    assert main(["verify", str(half_adder), str(real)]) == 0
    assert len(validations) == 1


def test_sim_validates_the_circuit_once(half_adder, capsys, validations):
    assert main(["sim", str(half_adder), "--input", "11"]) == 0
    assert capsys.readouterr().out == "s=0 c=1\n"
    assert len(validations) == 1


def test_convert_to_stdout(half_adder, capsys):
    assert main(["convert", str(half_adder), "-o", "-"]) == 0
    assert capsys.readouterr().out == HALF_ADDER_REAL


def test_convert_trace_lines(half_adder, tmp_path, capsys):
    out = tmp_path / "ha.real"
    assert main(["convert", str(half_adder), "-o", str(out), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "slot=1 gate=g0 kind=COPY lines=2",
        "slot=1 gate=g1 kind=COPY lines=3",
        "slot=2 gate=g2 kind=XOR lines=-",
        "slot=2 gate=g3 kind=AND lines=4",
    ]


@pytest.mark.parametrize("flags", [[], ["--trace"]])
def test_convert_runs_the_public_converter_once(half_adder, monkeypatch, capsys, flags):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return revmap.convert.convert_circuit(*args, **kwargs)

    monkeypatch.setattr(revmap.cli, "convert_circuit", counted)
    assert main(["convert", str(half_adder), "-o", "-", *flags]) == 0
    assert len(calls) == 1


def test_convert_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(AND_BLIF))
    assert main(["convert", "-", "-o", "-"]) == 0
    assert "t3 a b x0" in capsys.readouterr().out


def test_prep_round_trips_through_verify(half_adder, tmp_path, capsys):
    prepped = tmp_path / "ha_prep.blif"
    real = tmp_path / "ha.real"
    assert main(["prep", str(half_adder), "-o", str(prepped)]) == 0
    text = prepped.read_text()
    assert ".copy a a__cp0 a__cp1" in text.splitlines()
    assert main(["convert", str(prepped), "-o", str(real)]) == 0
    assert main(["verify", str(half_adder), str(real)]) == 0


def test_prep_is_idempotent_at_the_cli(half_adder, tmp_path):
    once = tmp_path / "once.blif"
    twice = tmp_path / "twice.blif"
    assert main(["prep", str(half_adder), "-o", str(once)]) == 0
    assert main(["prep", str(once), "-o", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()


def test_slots_table(half_adder, capsys):
    assert main(["slots", str(half_adder)]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.splitlines()]
    assert lines[0] == ["slot", "gates", "nets"]
    assert lines[1] == ["0", "-", "a", "b"]
    assert lines[2] == ["1", "g0:COPY", "g1:COPY", "a__cp0", "a__cp1", "b__cp0", "b__cp1"]
    assert lines[3] == ["2", "g2:XOR", "g3:AND", "s", "c"]


def test_verify_reports_equivalence(half_adder, tmp_path, capsys):
    real = tmp_path / "ha.real"
    main(["convert", str(half_adder), "-o", str(real)])
    assert main(["verify", str(half_adder), str(real)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "status=Equivalent checked=4 witness=none",
        "mode=exhaustive seed=-",
        "bijectivity=ok states=32",
    ]


def test_verify_detects_mismatch(half_adder, tmp_path, capsys):
    real = tmp_path / "bad.real"
    real.write_text(HALF_ADDER_REAL.replace("t3 x0 x1 x2\n", ""))
    assert main(["verify", str(half_adder), str(real)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("status=Mismatch")
    assert "witness=11" in out


@pytest.mark.parametrize("extra", [
    ".numvars 5", ".variables a b x0 x1 x2", ".inputs a b 0 0 0",
    ".outputs g0 s g1 g2 c", ".constants --000", ".garbage 1-11-",
], ids=lambda extra: extra.split()[0])
def test_verify_rejects_a_repeated_header_directive(half_adder, tmp_path,
                                                    capsys, extra):
    # a copy of a directive, placed before .begin, made the last one win
    real = tmp_path / "twice.real"
    real.write_text(HALF_ADDER_REAL.replace(".begin\n", extra + "\n.begin\n"))
    assert main(["verify", str(half_adder), str(real)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[2]: line 8: {extra.split()[0]} given twice\n"


def test_verify_skips_bijectivity_over_cap(half_adder, tmp_path, capsys):
    real = tmp_path / "ha.real"
    main(["convert", str(half_adder), "-o", str(real)])
    assert main(["verify", str(half_adder), str(real), "--max-bijective", "4"]) == 0
    assert "bijectivity=skipped lines=5 cap=4" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["", ".model m\n.inputs\n.outputs\n.end\n"],
                         ids=["empty", "no-ports"])
def test_zero_line_circuit_round_trips(tmp_path, capsys, text):
    blif = tmp_path / "z.blif"
    real = tmp_path / "z.real"
    blif.write_text(text)
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert ".constants \n.garbage \n" in real.read_text()
    assert main(["verify", str(blif), str(real)]) == 0
    assert main(["stats", str(real)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "status=Equivalent checked=1 witness=none",
        "mode=exhaustive seed=-",
        "bijectivity=ok states=1",
        "lines=0 constants=0 garbage=0 gates=0 quantum_cost=0",
    ]


def test_verify_sampled_mode(tmp_path, capsys):
    blif = tmp_path / "wide.blif"
    real = tmp_path / "wide.real"
    assert main(["gen", "--seed", "5", "--inputs", "14", "--gates", "6",
                 "-o", str(blif)]) == 0
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert main(["verify", str(blif), str(real), "--samples", "128",
                 "--seed", "77"]) == 0
    out = capsys.readouterr().out
    assert "checked=128" in out
    assert "mode=sampled seed=77" in out


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_without_samples_is_exit_4(tmp_path, capsys, samples):
    blif = tmp_path / "wide.blif"
    real = tmp_path / "wide.real"
    assert main(["gen", "--seed", "3", "--inputs", "14", "--gates", "20",
                 "-o", str(blif)]) == 0
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    capsys.readouterr()
    assert main(["verify", str(blif), str(real), "--samples", samples]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[4]: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("flag, value, floor", [
    ("--inputs", "0", 1),
    ("--inputs", "-3", 1),
    ("--gates", "-1", 0),
])
def test_gen_bad_size_is_exit_4(tmp_path, capsys, flag, value, floor):
    sizes = {"--inputs": "2", "--gates": "3", flag: value}
    out_file = tmp_path / "g.blif"
    argv = ["gen", "--seed", "1", *(x for kv in sizes.items() for x in kv),
            "-o", str(out_file)]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[4]: {flag} must be at least {floor}, got {value}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("flag", ["--max-exhaustive", "--max-bijective"])
@pytest.mark.parametrize("value", ["25", "1000000"])
def test_verify_cap_above_ceiling_is_exit_4(half_adder, tmp_path, capsys,
                                            flag, value):
    # rejected before either file is read: the .real does not exist
    missing = tmp_path / "missing.real"
    assert main(["verify", str(half_adder), str(missing), flag, value]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[4]: {flag} must be at most 24, got {value}\n"


@pytest.mark.parametrize("value", ["16777217", "100000000"])
def test_verify_samples_above_ceiling_is_exit_4(half_adder, tmp_path, capsys,
                                                value):
    # at most 2^24 assignments, like the caps; rejected before either file
    # is read: the .real does not exist
    missing = tmp_path / "missing.real"
    assert main(["verify", str(half_adder), str(missing), "--samples",
                 value]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[4]: --samples must be at most 16777216, got {value}\n"


def test_verify_samples_at_the_ceiling(half_adder, tmp_path, capsys):
    real = tmp_path / "ha.real"
    assert main(["convert", str(half_adder), "-o", str(real)]) == 0
    assert main(["verify", str(half_adder), str(real), "--samples",
                 "16777216"]) == 0
    assert "status=Equivalent" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--max-exhaustive", "--max-bijective"])
@pytest.mark.parametrize("value", ["-1", "-1000000"])
def test_verify_cap_below_zero_is_exit_4(half_adder, tmp_path, capsys, flag,
                                         value):
    # rejected before either file is read: the .real does not exist
    missing = tmp_path / "missing.real"
    assert main(["verify", str(half_adder), str(missing), flag, value]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[4]: {flag} must be at least 0, got {value}\n"


@pytest.mark.parametrize("flag, line", [
    ("--max-exhaustive", "mode=sampled seed=0"),
    ("--max-bijective", "bijectivity=skipped lines=5 cap=0"),
])
def test_verify_cap_at_zero_is_accepted(half_adder, tmp_path, capsys, flag,
                                        line):
    real = tmp_path / "ha.real"
    real.write_text(HALF_ADDER_REAL)
    assert main(["verify", str(half_adder), str(real), flag, "0"]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flag", ["--max-exhaustive", "--max-bijective"])
def test_verify_cap_at_ceiling_is_accepted(half_adder, tmp_path, capsys, flag):
    real = tmp_path / "ha.real"
    real.write_text(HALF_ADDER_REAL)
    assert main(["verify", str(half_adder), str(real), flag, "24"]) == 0
    out = capsys.readouterr().out
    assert "status=Equivalent checked=4" in out
    assert "bijectivity=ok states=32" in out


def test_deep_chain_declared_output_first(tmp_path, capsys):
    blif = tmp_path / "chain.blif"
    real = tmp_path / "chain.real"
    blif.write_text(not_chain_blif(3000))
    real.write_text(not_chain_real(3000))
    assert main(["sim", str(blif), "--input", "1"]) == 0
    assert capsys.readouterr().out == "y=1\n"
    assert main(["verify", str(blif), str(real)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "status=Equivalent checked=2 witness=none",
        "mode=exhaustive seed=-",
        "bijectivity=ok states=2",
    ]


def test_sim_blif(half_adder, capsys):
    assert main(["sim", str(half_adder), "--input", "11"]) == 0
    assert capsys.readouterr().out == "s=0 c=1\n"
    assert main(["sim", str(half_adder), "--input", "10"]) == 0
    assert capsys.readouterr().out == "s=1 c=0\n"


def test_sim_real(half_adder, tmp_path, capsys):
    real = tmp_path / "ha.real"
    main(["convert", str(half_adder), "-o", str(real)])
    capsys.readouterr()
    assert main(["sim", str(real), "--input", "11"]) == 0
    assert capsys.readouterr().out == "g0=1 s=0 g1=1 g2=1 c=1\n"


def test_sim_format_override(half_adder, capsys):
    # .blif suffix but forced through the real parser: parse error, exit 2
    assert main(["sim", str(half_adder), "--input", "11", "--format", "real"]) == 2
    assert capsys.readouterr().err.startswith("error[2]:")


def test_sim_wrong_bit_count(half_adder, capsys):
    assert main(["sim", str(half_adder), "--input", "101"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error[4]:")
    assert "2 bits" in err


def test_stats_line(half_adder, tmp_path, capsys):
    real = tmp_path / "ha.real"
    main(["convert", str(half_adder), "-o", str(real)])
    capsys.readouterr()
    assert main(["stats", str(real)]) == 0
    assert capsys.readouterr().out == (
        "lines=5 constants=3 garbage=3 gates=4 quantum_cost=8\n"
    )


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.blif"
    b = tmp_path / "b.blif"
    for path in (a, b):
        assert main(["gen", "--seed", "9", "--inputs", "4", "--gates", "7",
                     "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.blif"), "-o", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[2]: cannot read")


def test_unwritable_output_is_exit_2(half_adder, tmp_path, capsys):
    assert main(["convert", str(half_adder), "-o", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error[2]: cannot write {tmp_path}: ")


def test_bad_blif_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model x\n.inputs a\n.outputs y\n.wat\n.end\n")
    assert main(["convert", str(bad), "-o", "-"]) == 2
    assert capsys.readouterr().err.startswith("error[2]:")


def test_latch_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "seq.blif"
    bad.write_text(".model x\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n")
    assert main(["convert", str(bad), "-o", "-"]) == 3
    assert capsys.readouterr().err.startswith("error[3]:")


def test_feedback_is_exit_3_with_witness(tmp_path, capsys):
    bad = tmp_path / "loop.blif"
    bad.write_text(FEEDBACK_BLIF)
    assert main(["convert", str(bad), "-o", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[3]: feedback loop through gates ")
    assert "g0" in err


def test_three_input_names_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "wide.blif"
    bad.write_text(
        ".model x\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n.end\n"
    )
    assert main(["convert", str(bad), "-o", "-"]) == 3
    assert "3 inputs" in capsys.readouterr().err


def test_unrecognized_cover_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "odd.blif"
    bad.write_text(".model x\n.inputs a b\n.outputs y\n.names a b y\n10 1\n.end\n")
    assert main(["convert", str(bad), "-o", "-"]) == 3
    assert "unrecognized cover" in capsys.readouterr().err


def test_t4_gate_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "wide.real"
    bad.write_text(".numvars 4\n.variables a b c d\n.begin\nt4 a b c d\n.end\n")
    assert main(["stats", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error[3]:")


def test_usage_error_is_exit_4(capsys):
    assert main(["convert"]) == 4
    assert capsys.readouterr().err.startswith("error[4]:")
    assert main(["frobnicate"]) == 4
    capsys.readouterr()


def test_verify_invalid_source_reaches_no_verdict(tmp_path, capsys):
    src = tmp_path / "bad.blif"
    src.write_text(".model bad\n.inputs a\n.outputs z\n.end\n")
    real = tmp_path / "one.real"
    real.write_text(
        ".version 2.0\n.numvars 1\n.variables a\n.inputs a\n.outputs z\n"
        ".constants -\n.garbage -\n.begin\nt1 a\n.end\n"
    )
    assert main(["verify", str(src), str(real)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error[2]: undriven-output: z\n"
    assert "status=" not in captured.out


def test_verify_name_mismatch_is_exit_2(half_adder, tmp_path, capsys):
    other = tmp_path / "other.real"
    other.write_text(HALF_ADDER_REAL.replace(".variables a b", ".variables a q")
                     .replace(".inputs a b", ".inputs a q")
                     .replace("t2 b x1", "t2 q x1")
                     .replace("t2 a b", "t2 a q"))
    assert main(["verify", str(half_adder), str(other)]) == 2
    assert "primary inputs differ" in capsys.readouterr().err


def test_verify_output_mismatch_is_exit_2(half_adder, tmp_path, capsys):
    other = tmp_path / "other.real"
    other.write_text(HALF_ADDER_REAL.replace(".outputs g0 s", ".outputs g0 t"))
    assert main(["verify", str(half_adder), str(other)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error[2]: primary outputs differ: ['c', 's'] vs ['c', 't']\n"
    )


def test_main_builds_the_parser_once(half_adder, monkeypatch, capsys):
    builds = []
    original = revmap.cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(revmap.cli, "_parser", None)
    monkeypatch.setattr(revmap.cli, "build_parser", counted)
    assert main(["slots", str(half_adder)]) == 0
    assert main(["sim", str(half_adder), "--input", "11"]) == 0
    assert len(builds) == 1


def test_no_option_carries_over_to_the_next_command(tmp_path, capsys):
    blif = tmp_path / "wide.blif"
    real = tmp_path / "wide.real"
    assert main(["gen", "--seed", "5", "--inputs", "14", "--gates", "6",
                 "-o", str(blif)]) == 0
    assert main(["convert", str(blif), "-o", str(real), "--trace"]) == 0
    assert capsys.readouterr().out != ""
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", str(blif), str(real), "--samples", "3",
                 "--seed", "5"]) == 0
    assert "checked=3 " in capsys.readouterr().out
    assert main(["verify", str(blif), str(real)]) == 0
    out = capsys.readouterr().out
    assert "checked=4096 " in out
    assert "mode=sampled seed=0" in out
    assert main(["verify", str(blif)]) == 4
    assert capsys.readouterr().err.startswith("error[4]:")
    assert main(["stats", str(real)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tail, code, err", [
    # a buffer that nothing reads, from an undriven net, reports the net
    # exactly as a gate reading it would
    (".names x dead\n1 1\n", 2, "error[2]: undriven-input: x\n"),
    (".names x dead\n0 1\n", 2, "error[2]: undriven-input: x\n"),
    (".names x u\n1 1\n.names u dead\n1 1\n", 2,
     "error[2]: undriven-input: x\n"),
    (".names p q\n1 1\n.names q p\n1 1\n", 2,
     "error[2]: buffer alias cycle involving 'q'\n"),
    (".names a dead\n1 1\n", 0, ""),
], ids=[
    "undriven-buffer",
    "undriven-not",
    "undriven-chain",
    "alias-cycle",
    "driven-buffer",
])
def test_unread_buffer_is_checked(tmp_path, capsys, tail, code, err):
    src = tmp_path / "dead.blif"
    src.write_text(".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n"
                   + tail + ".end\n")
    assert main(["convert", str(src), "-o", "-"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (captured.out != "") == (code == 0)


@pytest.mark.parametrize("cover", ["1 1", "0 1"], ids=["buffer", "not"])
@pytest.mark.parametrize("extra, err", [
    ("", "error[2]: undriven-output: z; undriven-input: x\n"),
    (".names w v\n0 1\n",
     "error[2]: undriven-output: z; undriven-input: w; undriven-input: x\n"),
], ids=["undriven-output", "undriven-gate-input"])
def test_unread_buffer_does_not_hide_other_faults(tmp_path, capsys, cover,
                                                  extra, err):
    # an unread buffer from an undriven net is listed after the file's
    # other violations, in the line a NOT gate in its place gives
    src = tmp_path / "dead.blif"
    src.write_text(".model m\n.inputs a\n.outputs y z\n.names a y\n0 1\n"
                   + extra + f".names x dead\n{cover}\n.end\n")
    assert main(["convert", str(src), "-o", "-"]) == 2
    assert capsys.readouterr().err == err


REAL_HEADER = (
    ".version 2.0\n.numvars 3\n.variables a b c\n.inputs a b c\n"
    ".outputs a b c\n.constants ---\n.garbage ---\n.begin\n"
)


# stats output or error line of each .real, as the two-pass parser gave them
@pytest.mark.parametrize("text, code, line", [
    (REAL_HEADER + "t2 a b # flip b\nt1 c#x\n.end\n", 0,
     "lines=3 constants=0 garbage=0 gates=2 quantum_cost=2"),
    (REAL_HEADER + "\n\nt2 a b\n   \n.end\n\n", 0,
     "lines=3 constants=0 garbage=0 gates=1 quantum_cost=1"),
    (REAL_HEADER + "t2 a a\n.end\n", 2,
     "error[2]: line 9: gate touches a line twice: (0, 0)"),
    (REAL_HEADER + "t3 a b a\n.end\n", 2,
     "error[2]: line 9: gate touches a line twice: (0, 1, 0)"),
    (REAL_HEADER + "t4 a b c a\n.end\n", 3,
     "error[3]: unsupported gate t4: at most 2 controls"),
    (REAL_HEADER + "t0\n.end\n", 2, "error[2]: line 9: bad gate size t0"),
    (REAL_HEADER + "tx a\n.end\n", 2, "error[2]: line 9: unknown gate 'tx'"),
    (REAL_HEADER + "t3 a b\n.end\n", 2,
     "error[2]: line 9: t3 takes exactly 3 lines"),
    (REAL_HEADER + "t1 a b\n.end\n", 2,
     "error[2]: line 9: t1 takes exactly 1 lines"),
    (REAL_HEADER + "t2 a zz\n.end\n", 2, "error[2]: line 9: unknown line 'zz'"),
    (REAL_HEADER + "t1 a\n.end\nt1 b\n", 2,
     "error[2]: line 11: content after .end"),
    (REAL_HEADER + ".numvars 3\n.end\n", 2,
     "error[2]: line 9: unknown gate '.numvars'"),
    (REAL_HEADER.replace(".outputs a b c", ".outputs a a c") + "t1 a\n.end\n",
     2, "error[2]: a primary output appears on two lines"),
    # a bad gate is reported after the body's shape and the header
    (REAL_HEADER + "t2 a a\n.end\nt1 b\n", 2,
     "error[2]: line 11: content after .end"),
    (REAL_HEADER + "t4 a b c a\n", 2, "error[2]: missing .begin/.end body"),
    (REAL_HEADER.replace(".inputs a b c", ".inputs a b") + "tx\n.end\n", 2,
     "error[2]: inconsistent header: .inputs lists 2 entries for 3 lines"),
    (REAL_HEADER.replace(".variables a b c", ".variables a a c")
     + "t1 a\n.end\n", 2, "error[2]: duplicate names in .variables"),
    # .inputs names each primary-input line and gives each constant's bit
    (REAL_HEADER.replace(".inputs a b c", ".inputs b a c") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .inputs entry 1 is 'b', not 'a'"),
    (REAL_HEADER.replace(".constants ---", ".constants --1") + "t1 a\n.end\n",
     2, "error[2]: inconsistent header: .inputs entry 3 is 'c', not '1'"),
    (REAL_HEADER.replace(".inputs a b c", ".inputs a b 0") + "t2 a a\n.end\n",
     2, "error[2]: inconsistent header: .inputs entry 3 is '0', not 'c'"),
    (REAL_HEADER.replace(".variables a b c\n", "") + "t1 a\n.end\n", 2,
     "error[2]: missing .variables"),
    # the first bad gate wins
    (REAL_HEADER + "t1 zz\nt4 a b c a\n.end\n", 2,
     "error[2]: line 9: unknown line 'zz'"),
    (REAL_HEADER + "t4 a b c a\nt1 zz\n.end\n", 3,
     "error[3]: unsupported gate t4: at most 2 controls"),
    # rows as write_real spells them, after a bad one, change none of that
    (REAL_HEADER + "t2 a a\nt1 b\n.end\n", 2,
     "error[2]: line 9: gate touches a line twice: (0, 0)"),
    (REAL_HEADER + "t1 zz\nt2 a b\nt2 c c\n.end\n", 2,
     "error[2]: line 9: unknown line 'zz'"),
    (REAL_HEADER + "t2 a a\nt1 b\nt3 a b c\n", 2,
     "error[2]: missing .begin/.end body"),
    # numbers are ASCII digits: other digits are a bad gate or .numvars
    (REAL_HEADER + "t\u00b2 a\n.end\n", 2,
     "error[2]: line 9: unknown gate 't\u00b2'"),
    (REAL_HEADER + "t\u0661 a\n.end\n", 2,
     "error[2]: line 9: unknown gate 't\u0661'"),
    (REAL_HEADER.replace(".numvars 3", ".numvars \u00b2") + "t1 a\n.end\n", 2,
     "error[2]: line 2: .numvars takes one number"),
    (REAL_HEADER.replace(".numvars 3", ".numvars \u0663") + "t1 a\n.end\n", 2,
     "error[2]: line 2: .numvars takes one number"),
    (REAL_HEADER.replace(".variables a b c", ".variables a b")
     + "t\u00b2 a\n.end\n", 2,
     "error[2]: inconsistent header: .variables lists 2 entries for 3 lines"),
    # a number of any length is read: a gate size by its digits, and a
    # .numvars beyond the int-string limit is a bad .numvars row
    (REAL_HEADER + "t" + "1" * 5000 + " a\n.end\n", 3,
     "error[3]: unsupported gate t" + "1" * 5000 + ": at most 2 controls"),
    (REAL_HEADER + "t" + "0" * 5000 + "2 a b\n.end\n", 0,
     "lines=3 constants=0 garbage=0 gates=1 quantum_cost=1"),
    (REAL_HEADER.replace(".numvars 3", ".numvars " + "9" * 5000)
     + "t1 a\n.end\n", 2,
     "error[2]: line 2: .numvars has too many digits"),
    (REAL_HEADER.replace(".numvars 3", ".numvars 1" + "0" * 4299)
     + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .variables lists 3 entries for 1"
     + "0" * 4299 + " lines"),
    # a directive with no word reads as the empty word, judged by its length
    (".version 2.0\n.numvars 2\n.variables a b\n.constants\n.begin\n.end\n",
     2, "error[2]: inconsistent header: .constants word has length 0 for 2 lines"),
    # each header row whose length is not .numvars
    (REAL_HEADER.replace(".variables a b c", ".variables a b c d")
     + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .variables lists 4 entries for 3 lines"),
    (REAL_HEADER.replace(".inputs a b c", ".inputs a b c d") + "t1 a\n.end\n",
     2, "error[2]: inconsistent header: .inputs lists 4 entries for 3 lines"),
    (REAL_HEADER.replace(".outputs a b c", ".outputs a b") + "t1 a\n.end\n",
     2, "error[2]: inconsistent header: .outputs lists 2 entries for 3 lines"),
    (REAL_HEADER.replace(".constants ---", ".constants ----")
     + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .constants word has length 4 for 3 lines"),
    (REAL_HEADER.replace(".garbage ---", ".garbage --") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .garbage word has length 2 for 3 lines"),
    # lists are judged before words, each in header order, and every
    # length before the names
    (REAL_HEADER.replace(".variables a b c", ".variables a b c d")
     .replace(".inputs a b c", ".inputs a b") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .variables lists 4 entries for 3 lines"),
    (REAL_HEADER.replace(".constants ---", ".constants --")
     .replace(".garbage ---", ".garbage -") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .constants word has length 2 for 3 lines"),
    (REAL_HEADER.replace(".outputs a b c", ".outputs a b")
     .replace(".constants ---", ".constants --") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .outputs lists 2 entries for 3 lines"),
    (REAL_HEADER.replace(".variables a b c", ".variables a a c")
     .replace(".garbage ---", ".garbage -") + "t1 a\n.end\n", 2,
     "error[2]: inconsistent header: .garbage word has length 1 for 3 lines"),
    # a missing directive or body, in the order they are judged
    (REAL_HEADER.replace(".numvars 3\n", "") + "t1 a\n.end\n", 2,
     "error[2]: missing .numvars"),
    (REAL_HEADER.replace(".numvars 3\n", "").replace(".variables a b c\n", "")
     + ".end\n", 2, "error[2]: missing .numvars"),
    (REAL_HEADER.replace(".variables a b c\n", "") + ".end\n", 2,
     "error[2]: missing .variables"),
    (REAL_HEADER.replace(".begin\n", ""), 2,
     "error[2]: missing .begin/.end body"),
    (REAL_HEADER + "t1 a\n", 2, "error[2]: missing .begin/.end body"),
    # malformed header rows
    (REAL_HEADER.replace(".numvars 3", ".numvars x") + "t1 a\n.end\n", 2,
     "error[2]: line 2: .numvars takes one number"),
    (REAL_HEADER.replace(".numvars 3", ".numvars 3 3") + "t1 a\n.end\n", 2,
     "error[2]: line 2: .numvars takes one number"),
    (REAL_HEADER.replace(".constants ---", ".constants -2-") + "t1 a\n.end\n",
     2, "error[2]: line 6: .constants takes one word over {0,1,-}"),
    (REAL_HEADER.replace(".garbage ---", ".garbage --- ---") + "t1 a\n.end\n",
     2, "error[2]: line 7: .garbage takes one word over {1,-}"),
    (REAL_HEADER.replace(".garbage ---", ".garbage -0-") + "t1 a\n.end\n", 2,
     "error[2]: line 7: .garbage takes one word over {1,-}"),
    (REAL_HEADER.replace(".garbage ---", ".model m") + "t1 a\n.end\n", 2,
     "error[2]: line 7: unknown directive .model"),
    # the header in any order, and without its optional directives
    (".garbage 1--\n.constants 0--\n.outputs g0 y c\n.inputs 0 b c\n"
     ".variables a b c\n.numvars 3\n.version 2.0\n.begin\nt3 b c a\n.end\n",
     0, "lines=3 constants=1 garbage=1 gates=1 quantum_cost=5"),
    (".numvars 3\n.variables a b c\n.begin\nt3 a b c\nt1 a\n.end\n", 0,
     "lines=3 constants=0 garbage=0 gates=2 quantum_cost=6"),
], ids=[
    "comments",
    "blank-lines",
    "t2-twice",
    "t3-twice",
    "t4",
    "t0",
    "tx",
    "t3-short",
    "t1-long",
    "unknown-line",
    "after-end",
    "header-in-body",
    "duplicate-output",
    "bad-gate-then-after-end",
    "bad-gate-no-end",
    "bad-gate-bad-header",
    "bad-gate-duplicate-variables",
    "inputs-order",
    "inputs-name-for-constant",
    "inputs-before-bad-gate",
    "bad-gate-no-variables",
    "unknown-line-then-t4",
    "t4-then-unknown-line",
    "bad-gate-then-good-gate",
    "bad-gate-good-gate-bad-gate",
    "bad-gate-good-gates-no-end",
    "superscript-gate",
    "arabic-indic-gate",
    "superscript-numvars",
    "arabic-indic-numvars",
    "superscript-gate-bad-header",
    "huge-gate",
    "zero-padded-gate",
    "huge-numvars",
    "longest-numvars",
    "constants-no-word",
    "variables-length",
    "inputs-length",
    "outputs-length",
    "constants-length",
    "garbage-length",
    "variables-before-inputs",
    "constants-before-garbage",
    "list-before-word",
    "length-before-duplicate-variables",
    "no-numvars",
    "no-numvars-no-variables",
    "no-variables",
    "no-begin",
    "no-end",
    "numvars-word",
    "numvars-two-numbers",
    "constants-alphabet",
    "garbage-two-words",
    "garbage-alphabet",
    "unknown-directive",
    "shuffled-header",
    "optional-directives-left-out",
])
def test_real_parse_golden(tmp_path, capsys, text, code, line):
    path = tmp_path / "x.real"
    path.write_text(text)
    assert main(["stats", str(path)]) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err) == line + "\n"


# error line of each BLIF, as the parser before the one-pass rewrite gave it
@pytest.mark.parametrize("text, line", [
    # continuations joined across comments keep the first line's number
    (".model m # name\n.inputs a \\\n b # tail\n.outputs s\n"
     ".names a b \\\n  s # out\n01 1 # row\n1x 1\n.end\n",
     "error[2]: line 8: bad cover pattern '1x'"),
    (".model m\n.inputs a b # not continued \\\n.outputs s\n"
     ".names a b s\n11 \\\n1\n.foo\n",
     "error[2]: line 7: unknown directive .foo"),
    (".model m\n.inputs a b\n.outputs s\n.names a b s\n01 \\\n# c\n1\n"
     "10 1 1\n.end\n",
     "error[2]: line 5: cover row must be '<pattern> <bit>'"),
    # one cover spelled two ways, then a spelling seen before in a bad block
    (".model m\n.inputs a b\n.outputs x y\n.names a b x\n1- 1\n-1 1\n"
     ".names a b y\n01 1\n10 1\n11 1\n.names a y z\n1- 1\n-1 1\n11 0\n"
     ".end\n",
     "error[3]: gate 'z': rows with output 0 are not supported"),
    (".model m\n.inputs a b\n.outputs x y\n.names a b x\n1- 1\n-1 1\n"
     ".names a b y\n1- 1\n-1 1\n1 1\n.end\n",
     "error[2]: line 10: bad cover pattern '1'"),
    (".model m\n.inputs a b\n.outputs x y\n.names a b x\n11 1\n"
     ".names a b y\n10 1\n.end\n",
     "error[3]: gate 'y': unrecognized cover with on-set {10}"),
    # the output bit is one character; '01' is not a bit
    (".model m\n.inputs a b\n.outputs c\n.names a b c\n11 01\n.end\n",
     "error[2]: line 5: bad cover output bit '01'"),
    # two buffers onto one net: the second cover's .names line
    (".model m\n.inputs a b\n.outputs z\n.names a z\n1 1\n.names b z\n1 1\n"
     ".end\n",
     "error[2]: line 6: multiple drivers for net 'z'"),
    # a name ending in a backslash reads, but written last on a line it
    # would read back as a continuation; the buffered output y is b\ too
    (".model m\n.inputs b\\ a\n.outputs y\n.names b\\ y\n1 1\n.end\n",
     "error[2]: bad-name: 'b\\\\'; bad-name: 'b\\\\'"),
], ids=[
    "continuations",
    "backslash-in-comment",
    "continued-row",
    "two-spellings",
    "two-spellings-bad-row",
    "good-then-bad-cover",
    "two-char-output-bit",
    "two-buffers-one-net",
    "name-ends-in-backslash",
])
def test_blif_parse_golden(tmp_path, capsys, text, line):
    path = tmp_path / "x.blif"
    path.write_text(text)
    assert main(["convert", str(path), "-o", "-"]) == int(line[6])
    assert capsys.readouterr().err == line + "\n"


COLLAPSED = {
    # two buffered outputs of one net
    "two-buffers": (".model m\n.inputs a\n.outputs y z\n.names a y\n1 1\n"
                    ".names a z\n1 1\n.end\n",
                    "error[3]: primary outputs 'y' and 'z' are both net 'a' "
                    "after buffer aliasing; one net cannot be two outputs\n"),
    # an output that buffers a primary input also listed in .outputs
    "buffered-input": (".model m\n.inputs a\n.outputs a y\n.names a y\n1 1\n"
                       ".end\n",
                       "error[3]: primary outputs 'a' and 'y' are both net "
                       "'a' after buffer aliasing; one net cannot be two "
                       "outputs\n"),
}
ONE_INPUT_COMMANDS = [
    ["convert", "{blif}", "-o", "-"],
    ["verify", "{blif}", "{real}"],
    ["sim", "{blif}", "--input", "1"],
]


@pytest.mark.parametrize("command", ONE_INPUT_COMMANDS,
                         ids=["convert", "verify", "sim"])
@pytest.mark.parametrize("case", sorted(COLLAPSED))
def test_outputs_collapsed_by_buffers_are_exit_3(tmp_path, capsys, case, command):
    text, err = COLLAPSED[case]
    blif, real = tmp_path / "x.blif", tmp_path / "x.real"
    blif.write_text(text)
    real.write_text(HALF_ADDER_REAL)
    argv = [arg.format(blif=blif, real=real) for arg in command]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", [["convert", "-o", "-"], ["sim", "--input", "1"]],
                         ids=["convert", "sim"])
def test_an_output_listed_twice_is_still_exit_2(tmp_path, capsys, command):
    # a name listed twice is malformed, not a collapse (verify is left out:
    # no .real can list an output twice, so it stops at the .real)
    blif = tmp_path / "x.blif"
    blif.write_text(".model m\n.inputs a\n.outputs y y\n.names a y\n0 1\n.end\n")
    assert main([command[0], str(blif), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error[2]: duplicate-name: y\n")


@pytest.mark.parametrize("command, name, data", [
    (["convert", "{path}", "-o", "-"], "x.blif",
     b".model m\n.inputs a\xff\n.outputs y\n.names a y\n0 1\n.end\n"),
    (["stats", "{path}"], "x.real",
     HALF_ADDER_REAL.encode().replace(b"t2 a b", b"t2 a\xff b")),
], ids=["convert", "stats"])
def test_input_that_is_not_utf8_is_exit_2(tmp_path, capsys, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([arg.format(path=path) for arg in command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[2]: 'utf-8' codec can't decode byte 0xff ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_module_run_reports_the_exit_code(half_adder, tmp_path):
    # python -m revmap.cli must exit as the installed revmap script does
    good, bad = tmp_path / "good.real", tmp_path / "bad.real"
    good.write_text(HALF_ADDER_REAL)
    bad.write_text(HALF_ADDER_REAL.replace("t2 a b\n", ""))
    src = Path(revmap.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for real, code in ((good, 0), (bad, 1)):
        run = subprocess.run(
            [sys.executable, "-m", "revmap.cli", "verify", str(half_adder), str(real)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == code, run.stderr
        assert run.stdout.startswith("status=")
