"""The cyclic garbage collector around CLI commands.

`cli.main` runs each command with the collector paused, which is sound
only while a command leaves no reference cycles behind.  These tests pin
both halves: the collector's state is restored on every exit, and a
successful command, run with the collector off, leaves nothing for it.
"""

import gc

import pytest

from revmap.cli import main


@pytest.fixture
def files(tmp_path):
    """A random circuit, its conversion, a mutant of that, and bad inputs."""
    blif = tmp_path / "rand.blif"
    real = tmp_path / "rand.real"
    assert main(["gen", "--seed", "4", "--inputs", "6", "--gates", "40",
                 "-o", str(blif)]) == 0
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    text = real.read_text()
    head, body = text.split(".begin\n")
    mutant = tmp_path / "mutant.real"
    mutant.write_text(head + ".begin\n" + body.split("\n", 1)[1])
    bad = tmp_path / "bad.real"
    bad.write_text(text.replace(".end\n", "t2 a nowhere\n.end\n"))
    wide = tmp_path / "wide.real"
    wide.write_text(".numvars 4\n.variables a b c d\n.begin\nt4 a b c d\n.end\n")
    return {"blif": str(blif), "real": str(real), "mutant": str(mutant),
            "bad": str(bad), "wide": str(wide), "out": str(tmp_path / "out")}


def _argv(template, files):
    return [arg.format(**files) for arg in template]


EXITS = [
    (["convert", "{blif}", "-o", "{out}"], 0),
    (["verify", "{blif}", "{mutant}"], 1),
    (["stats", "{bad}"], 2),
    (["stats", "{wide}"], 3),
    (["convert", "{blif}"], 4),
]


@pytest.mark.parametrize("template, code", EXITS,
                         ids=["ok", "exit1", "exit2", "exit3", "exit4"])
def test_main_restores_the_collector(files, capsys, template, code):
    assert gc.isenabled()
    assert main(_argv(template, files)) == code
    assert gc.isenabled()


def test_main_restores_the_collector_after_help(capsys):
    with pytest.raises(SystemExit) as info:
        main(["convert", "--help"])
    assert info.value.code == 0
    assert gc.isenabled()


@pytest.mark.parametrize("template, code", EXITS,
                         ids=["ok", "exit1", "exit2", "exit3", "exit4"])
def test_main_leaves_a_disabled_collector_disabled(files, capsys, template, code):
    gc.disable()
    try:
        assert main(_argv(template, files)) == code
        assert not gc.isenabled()
    finally:
        gc.enable()


COMMANDS = {
    "convert": (["convert", "{blif}", "-o", "{out}"], 0),
    "convert-trace": (["convert", "{blif}", "-o", "{out}", "--trace"], 0),
    "prep": (["prep", "{blif}", "-o", "{out}"], 0),
    "slots": (["slots", "{blif}"], 0),
    "verify": (["verify", "{blif}", "{real}"], 0),
    "verify-mismatch": (["verify", "{blif}", "{mutant}"], 1),
    "sim-blif": (["sim", "{blif}", "--input", "101100"], 0),
    "sim-real": (["sim", "{real}", "--input", "101100"], 0),
    "stats": (["stats", "{real}"], 0),
    "gen": (["gen", "--seed", "9", "--inputs", "5", "--gates", "30",
             "-o", "{out}"], 0),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_leaves_no_cycles(files, capsys, name):
    # the premise of pausing the collector: whatever a command allocates,
    # reference counting frees, so a collection afterwards finds nothing
    template, code = COMMANDS[name]
    argv = _argv(template, files)
    assert main(argv) == code  # warm up: lazy set-up and caches
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
    finally:
        gc.enable()
    assert gc.collect() == 0
