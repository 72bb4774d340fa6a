"""Exception types shared across the toolkit."""


class LogvarError(Exception):
    """Base class for all toolkit errors."""


class EmptyLog(LogvarError):
    """Raised when a log message contains no non-whitespace characters."""


class FormatError(LogvarError):
    """Malformed input file (annotation file, vector file, model file)."""


class TagError(FormatError):
    """Unknown tag string."""


class IOBError(LogvarError):
    """Tag sequence violates IOB well-formedness."""


class AlignmentError(LogvarError):
    """Content tokens cannot be aligned against a wildcard template."""


class DimensionMismatch(LogvarError):
    """Pretrained vectors' dimension or matrix shape differs from the one required."""


class EmptyInput(LogvarError):
    """An input holds too few logs for the step that reads it; ``which``
    names the input (say "training") when the step reads more than one."""

    def __init__(self, message: str, which: str | None = None):
        super().__init__(message)
        self.which = which


class ModeError(LogvarError):
    """A model's tagging mode does not fit the step it is given to."""


class DivergenceError(LogvarError):
    """Training loss or gradient became non-finite."""


class NonFiniteScores(LogvarError):
    """A model's scores overflowed to a non-finite value while tagging."""


class VersionError(FormatError):
    """Model file has an unknown format version."""


class ChecksumError(FormatError):
    """Model file checksum does not match its contents."""


class TokenMismatch(LogvarError):
    """Predicted and gold logs disagree on tokenization."""
