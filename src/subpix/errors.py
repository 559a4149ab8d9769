"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "ParseError", "SchemaError"]


class ConfigError(ValueError):
    """An invalid configuration value or a mismatched array shape."""


class ParseError(ValueError):
    """A malformed annotation file.

    Carries enough context (path and 1-based line number when known) to
    point a user at the offending input instead of crashing.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}" if prefix else f"line {line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class SchemaError(ParseError):
    """A structurally valid file whose content violates the expected schema."""

    def __init__(self, message: str, *, field: str | None = None,
                 path: str | None = None, line: int | None = None):
        self.field = field
        if field is not None:
            message = f"field '{field}': {message}"
        super().__init__(message, path=path, line=line)
