"""Exception types raised deliberately by the engine.

Everything user-visible derives from RelangError so the shell can catch one
base class; errors carrying a source position derive from SourceError.
"""


class RelangError(Exception):
    """Base class for every engine error."""


ECHO_MAX = 40  # characters of an input an error message repeats at most


def echo(text: str, quote: bool = True) -> str:
    """An input as an error message repeats it: quoted (``repr``) unless
    ``quote`` is false, or named by its length when it is longer than
    ``ECHO_MAX`` characters, so a message stays short whatever the input."""
    if len(text) > ECHO_MAX:
        return f"<{len(text)} characters>"
    return repr(text) if quote else text


class SourceError(RelangError):
    """An error tied to a position in source text."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is None:
            return base
        if self.column is None:
            return f"{base} (line {self.line})"
        return f"{base} (line {self.line}, column {self.column})"


# --- lexing / parsing -------------------------------------------------------

class UnterminatedString(SourceError):
    pass


class IllegalCharacter(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, message, line=None, column=None, expected=()):
        super().__init__(message, line, column)
        self.expected = tuple(expected)


# --- catalog ----------------------------------------------------------------

class DuplicateName(RelangError):
    pass


class UnknownType(RelangError):
    pass


class SelfReference(RelangError):
    pass


class UnknownRelation(RelangError):
    pass


# --- store ------------------------------------------------------------------

class ArityMismatch(RelangError):
    pass


class DomainTypeMismatch(RelangError):
    pass


class RowNotFound(RelangError):
    pass


class NotEnumerable(RelangError):
    pass


# --- evaluation -------------------------------------------------------------

class TypeMismatch(RelangError):
    pass


class UnknownName(RelangError):
    pass


class BadCast(RelangError):
    pass


class BadRegex(RelangError):
    pass


class SchemaMismatch(RelangError):
    pass


class UnknownAttr(RelangError):
    pass


class NotARelation(RelangError):
    pass


class NoConnection(RelangError):
    pass


class CallTooDeep(RelangError):
    pass


class AmbiguousPath(RelangError):
    def __init__(self, message, paths=()):
        super().__init__(message)
        self.paths = tuple(paths)


# --- transactions -----------------------------------------------------------

class Rebind(RelangError):
    pass


class NameCollision(RelangError):
    pass


class IntegrityError(RelangError):
    pass


# --- snapshots --------------------------------------------------------------

class SnapshotFormatError(SourceError):
    pass


class DanglingOrdinal(RelangError):
    pass
