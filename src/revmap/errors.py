"""Exception types shared across the package.

Every error the command-line tool can surface derives from RevmapError and
carries the process exit code the CLI contract assigns to it: 2 for
malformed input, 3 for constructs the tool deliberately does not handle,
4 for bad invocations.
"""


class RevmapError(Exception):
    """Base class for all tool-level errors."""

    exit_code = 2


class _LocatedError(RevmapError):
    """An input error that may name the line of the file it was found on."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BlifError(_LocatedError):
    """Syntax error in a BLIF or intermediate-format file."""


class RealFormatError(_LocatedError):
    """Syntax or header error in a .real file."""


class ValidationError(RevmapError):
    """The circuit violates a structural invariant."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class FanoutError(RevmapError):
    """A net drives more than one sink where single-sink form is required."""


class NameMismatchError(RevmapError):
    """Interface names of two circuits under comparison differ."""


class UnsupportedError(RevmapError):
    """Input uses a construct outside the supported subset."""

    exit_code = 3


class FeedbackError(UnsupportedError):
    """The gate dependency graph contains a combinational loop."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        path = " -> ".join(f"g{i}" for i in self.cycle)
        super().__init__(f"feedback loop through gates {path}")


class UsageError(RevmapError):
    """The command line was malformed."""

    exit_code = 4
