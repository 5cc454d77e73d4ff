"""Count the code lines of Python files.

A line counts when it holds a token other than a comment, NEWLINE, NL,
INDENT, DEDENT or ENDMARKER, and that token is not a docstring: a string
that makes up a statement by itself.  A token that spans lines counts on
each of them.

    python tools/code_lines.py src/revmap

prints each file's count and then the total.
"""

import sys
import tokenize
from pathlib import Path

# tokens that make no line count; ENCODING is the file's, not a line's
_SKIPPED = {
    tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(path):
    """The number of code lines in the Python file at path."""
    lines = set()
    statement = []  # the counted tokens of the logical line read so far
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _SKIPPED:
                statement.append(tok)
    return len(lines)


def main(argv):
    total = 0
    for arg in argv or ["src/revmap"]:
        root = Path(arg)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path)
            total += n
            print(f"{n:6} {path}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
