"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "ParseError", "SchemaError"]


class ConfigError(ValueError):
    """An invalid configuration value or a mismatched array shape."""


class ParseError(ValueError):
    """A malformed annotation file.

    Carries its path and 1-based line number, when known, to point a user
    at the offending input; ``str`` reads them, so a reader may set them late.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line

    def __str__(self) -> str:
        prefix = "" if self.path is None else str(self.path)
        if self.line is not None:
            prefix += f":{self.line}" if prefix else f"line {self.line}"
        return f"{prefix}: {self.args[0]}" if prefix else self.args[0]


class SchemaError(ParseError, ConfigError):
    """A value that violates the expected schema, located at its field.

    A file's content raises it, and so does a payload or a config built in
    Python; it is a :class:`ConfigError` too, which such callers catch.
    """

    def __init__(self, message: str, *, field: str | None = None,
                 path: str | None = None, line: int | None = None):
        self.field = field
        if field is not None:
            message = f"field '{field}': {message}"
        super().__init__(message, path=path, line=line)
