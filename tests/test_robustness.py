"""Any input, valid or not, ends in a documented exit code and one error line.

Mutated copies of the sample circuits and of their .real files are run
through every subcommand that reads a circuit, in process through
cli.main.  A traceback fails the test, and so does an exit code outside
0-4 or an error path that prints anything but one ``error[<code>]:`` line.
Every .real that convert writes must read back through verify and stats.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revmap import convert_circuit, write_real
from revmap.cli import main
from samples import (
    AND_BLIF,
    FEEDBACK_BLIF,
    HALF_ADDER_BLIF,
    buffer_chain_blif,
    pipeline,
)

BLIFS = [AND_BLIF, HALF_ADDER_BLIF, FEEDBACK_BLIF, buffer_chain_blif(3)]
REALS = [write_real(convert_circuit(pipeline(text)[1])) for text in BLIFS[:2]]

# lines and tokens that the formats give a meaning to, or almost do
LINES = [
    "", "# note", ".names a b y", ".names x dead", ".names p q", ".names q p",
    "11 1", "1- 1", "0 1", "1 1", "10 0", "2 1", ".copy a b c", ".latch a b",
    ".model other", ".inputs a", ".outputs y", ".end", ".begin", ".numvars 2",
    ".constants 0-", ".garbage 1", "t1 a", "t2 a a", "t3 a b", "t4 a b c d",
    "t0", "tx a", "t2 a zz", "\\",
]
TOKENS = ["a", "b", "y", "zz", "t1", "t2", "t3", "t4", "1", "0", "-", "#", "\\"]

edit = st.tuples(
    st.sampled_from(["drop", "copy", "insert", "replace", "append", "cut"]),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(LINES),
    st.sampled_from(TOKENS),
)


def mutate(text, edits):
    lines = text.split("\n")
    for op, at, line, token in edits:
        i = at % len(lines)
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, line)
        elif op == "replace":
            words = lines[i].split(" ")
            words[at % len(words)] = token
            lines[i] = " ".join(words)
        elif op == "append":
            lines[i] += " " + token
        elif op == "cut":
            lines[i] = lines[i][: at % (len(lines[i]) + 1)]
    return "\n".join(lines)


def run(argv):
    """Exit code, stdout and stderr of one command run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


@settings(max_examples=150, deadline=500, derandomize=True, database=None)
@given(
    command=st.sampled_from(["convert", "verify", "sim", "stats", "slots"]),
    base=st.integers(min_value=0, max_value=len(BLIFS) - 1),
    edits=st.lists(edit, max_size=4),
    mutate_real=st.booleans(),
    bits=st.text(alphabet="01", max_size=3),
)
@example(command="convert", base=0, edits=[("insert", 5, ".names x dead", "a"),
                                           ("insert", 6, "1 1", "a")],
         mutate_real=False, bits="")
@example(command="stats", base=1, edits=[("insert", 9, "t2 a a", "a")],
         mutate_real=True, bits="")
def test_every_outcome_is_documented(workdir, command, base, edits,
                                     mutate_real, bits):
    blif = workdir / "c.blif"
    real = workdir / "c.real"
    blif_text = BLIFS[base]
    real_text = REALS[base % len(REALS)]
    if mutate_real or command == "stats":
        real_text = mutate(real_text, edits)
    else:
        blif_text = mutate(blif_text, edits)
    blif.write_text(blif_text)
    real.write_text(real_text)
    argv = {
        "convert": ["convert", str(blif), "-o", "-"],
        "verify": ["verify", str(blif), str(real)],
        "sim": ["sim", str(real if mutate_real else blif), "--input", bits],
        "stats": ["stats", str(real)],
        "slots": ["slots", str(blif)],
    }[command]
    code, _, err = run(argv)
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert err.startswith(f"error[{code}]: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


@settings(max_examples=100, deadline=1000, derandomize=True, database=None)
@given(
    base=st.integers(min_value=0, max_value=len(BLIFS) - 1),
    edits=st.lists(edit, max_size=4),
)
# AND_BLIF cut down to no inputs, outputs or gates: a zero-line .real
@example(base=0, edits=[("cut", 43, "", "a"), ("cut", 30, "", "a"),
                        ("drop", 3, "", "a"), ("drop", 3, "", "a")])
def test_converted_real_round_trips(workdir, base, edits):
    blif = workdir / "rt.blif"
    real = workdir / "rt.real"
    blif.write_text(mutate(BLIFS[base], edits))
    if run(["convert", str(blif), "-o", str(real)])[0] != 0:
        return
    code, out, _ = run(["verify", str(blif), str(real)])
    assert (code, out.split(" ")[0]) == (0, "status=Equivalent")
    assert run(["stats", str(real)])[0] == 0
