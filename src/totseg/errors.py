"""Exception types shared across the package.

Programmer mistakes (bad shapes, out-of-range arguments) raise plain
ValueError at the call site. The classes below cover conditions a caller
may want to catch and handle: malformed or inconsistent data on disk, and
numerical routines that lost the plot.
"""


class DataError(Exception):
    """Problem with on-disk data: files, formats, labels, or layout."""


class BadMagicError(DataError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(DataError):
    """File declares a format version this build does not understand."""


class TruncatedPayloadError(DataError):
    """File header promises more payload bytes than the file contains."""


class UnknownLabelError(DataError):
    """A ground-truth file uses a name absent from the label mapping."""


class CatalogError(DataError):
    """Dataset directory layout is missing pieces or internally inconsistent."""


class TooFewVideosError(DataError, ValueError):
    """An activity has fewer videos of at least one block's length than a
    batch draws. Also a ValueError, as for any argument of ``trainer.train``
    that does not fit its catalog."""


class NothingToScoreError(DataError, ValueError):
    """Background exclusion drops every ground-truth frame of an activity.
    Also a ValueError, as for any ``evaluate_activity`` argument that leaves
    nothing to match."""


class UsageError(Exception):
    """Bad command-line arguments or configuration values."""


class NumericalError(Exception):
    """A numerical routine produced non-finite values or diverged."""
