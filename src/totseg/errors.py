"""Exception types shared across the package.

Programmer mistakes (bad shapes, out-of-range arguments) raise plain
ValueError at the call site. The classes below cover conditions a caller
may want to catch and handle: malformed or inconsistent data on disk, and
numerical routines that lost the plot.
"""


class DataError(Exception):
    """Problem with on-disk data: files, formats, labels, or layout."""


class UsageError(Exception):
    """Bad command-line arguments or configuration values."""


class NumericalError(Exception):
    """A numerical routine produced non-finite values or diverged."""
