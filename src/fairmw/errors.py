"""Exception types shared across the package, and the UTF-8 line reader
that turns undecodable input into one of them.

There is one class per exit code: everything raised on purpose derives from
FairmwError, and each class carries the ``code`` the CLI exits with and the
``prefix`` its stderr line starts with.  OS-level read failures (missing
file, permissions) are left as the builtin OSError; the CLI maps them to the
data-error exit code.
"""


class FairmwError(Exception):
    """A run that cannot go on: an argument outside its domain, a non-finite
    input, a stream or prediction file that ran out before the horizon."""

    code = 4
    prefix = "runtime error"


class ConfigError(FairmwError):
    """Invalid run configuration (bad key, bad value, missing section)."""

    code = 2
    prefix = "config error"


class DataError(FairmwError):
    """Unusable input data: a dataset, preset or prediction file that is
    malformed, not UTF-8, empty, or degenerate for training."""

    code = 3
    prefix = "data error"


def utf8_lines(fh, path):
    """The lines of an open UTF-8 text file; undecodable bytes raise DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None
