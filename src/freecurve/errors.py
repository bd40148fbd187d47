"""Exception hierarchy shared by all freecurve modules, and the input reader."""

from pathlib import Path


class FreecurveError(Exception):
    """Base class for all library errors."""


class InputError(FreecurveError):
    """Bad user input: unparsable expression, malformed file, invalid flag.

    Maps to CLI exit code 2.
    """


class PolyParseError(InputError):
    """Syntax or semantic error in a polynomial expression.

    Carries the 0-based character position when the error is positional.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotReducedError(FreecurveError):
    """An operation requiring a reduced curve was run on a non-reduced one."""


class InternalInconsistencyError(FreecurveError):
    """Computed quantities violate a proved identity.

    This signals a bug in the implementation (or an unlucky-prime cascade
    that survived cross-checking), never a property of the input curve.
    Maps to CLI exit code 3.
    """


def read_input(path) -> str:
    """The UTF-8 text of an input file.  A path that cannot be read (missing,
    a directory, no permission) or decoded raises InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
