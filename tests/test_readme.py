"""The README's worked example and Library block, run against the code.

The transcript's commands go through cli.main in a scratch directory; the
file each ``cat`` shows and the stdout of each ``revmap`` command must equal
the lines the README prints under it.
"""

import re
from pathlib import Path

from revmap.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
EXAMPLE = "`ha.blif`, a half adder:"


def block(after, lang=""):
    """The first fenced block tagged `lang` that follows the text `after`."""
    found = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(
        README, README.index(after)
    )
    return found.group(1)


def transcript():
    """(argv, expected stdout) for each ``$`` command of the example."""
    steps = re.findall(r"^\$ (.*)\n((?:[^$].*\n)*)", block(EXAMPLE, "sh"), re.M)
    return [(command.split(), expected) for command, expected in steps]


def test_worked_example_matches_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("ha.blif").write_text(block(EXAMPLE))
    steps = transcript()
    assert [argv[:2] for argv, _ in steps] == [
        ["revmap", "convert"], ["cat", "ha.real"],
        ["revmap", "verify"], ["revmap", "stats"],
    ]
    for argv, expected in steps:
        if argv[0] == "cat":
            assert Path(argv[1]).read_text() == expected
        else:
            assert main(argv[1:]) == 0
            assert capsys.readouterr() == (expected, "")


def test_library_block_runs(capsys):
    steps = {" ".join(argv[:2]): out for argv, out in transcript()}
    exec(block("## Library", "python"), {"text": block(EXAMPLE)})
    # print(write_real(rev)) adds one newline to the file's text
    assert capsys.readouterr().out == (
        steps["cat ha.real"] + "\n" + steps["revmap stats"]
    )
