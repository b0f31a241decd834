"""Exception types shared across the package.

Everything raised on purpose derives from FairmwError so callers can catch
one base class.  OS-level read failures (missing file, permissions) are
left as the builtin OSError; the CLI maps them to the data-error exit code.
"""


class FairmwError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FairmwError):
    """Invalid run configuration (bad key, bad value, missing section)."""


class InvalidExpertCount(FairmwError):
    """Expert count d < 2 (or otherwise unusable)."""


class InvalidHorizon(ConfigError):
    """Horizon T < 1."""


class NonFiniteInput(FairmwError):
    """A numeric input was NaN or infinite."""


class DomainError(FairmwError):
    """Argument outside the mathematical domain of the function."""


class StreamExhausted(FairmwError):
    """The arrival stream or prediction file ran out before the horizon."""


class EmptyStream(FairmwError):
    """A trial was started on an empty stream without allow_empty."""


class FormatError(FairmwError):
    """Malformed prediction file (bad header, non-binary cell, ragged row)."""


class DegenerateData(FairmwError):
    """Training data unusable (e.g. all labels identical for a stump)."""


class EmptyTrajectory(FairmwError):
    """A metric was requested on a zero-round trajectory."""


class EngineMismatch(FairmwError):
    """A bound check was requested for an engine that does not produce it."""


class SchemaError(FairmwError):
    """Dataset file does not match the schema (missing column, no positives)."""


class EmptyDataset(FairmwError):
    """No rows survived loading/filtering, or stats requested on nothing."""
