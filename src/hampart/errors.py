"""Exception types shared across the package."""


class HampartError(Exception):
    """Base class for all package errors."""


class DimensionError(HampartError, ValueError):
    """Operands act on different qubit or mode counts."""


class DomainError(HampartError, ValueError):
    """Input is outside an operation's domain (bad parameter, wrong operator class)."""


class ParseError(HampartError, ValueError):
    """Malformed text input; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(HampartError, ValueError):
    """Well-formed input with inconsistent content (e.g. out-of-range index)."""


class ResourceError(HampartError, RuntimeError):
    """A size cap (qubit count, block dimension) was exceeded."""


class ConstraintError(HampartError, RuntimeError):
    """A structural constraint required by an algorithm does not hold."""


def read_text(path) -> str:
    """A file's UTF-8 text; bytes that do not decode raise DataError, not UnicodeDecodeError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
