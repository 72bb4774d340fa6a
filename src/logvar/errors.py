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
    """Pretrained vector dimension differs from the requested dimension."""


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
