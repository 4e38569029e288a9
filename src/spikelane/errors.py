"""Exception types raised by the spikelane package."""


class SpikeLaneError(Exception):
    """Base class for all spikelane errors."""


class UsageError(SpikeLaneError):
    """An operation was called with inconsistent or empty arguments."""


class ShapeError(UsageError):
    """An array argument has the wrong shape: the cast helpers in dataset take
    the expected shape, where None matches any length.  A UsageError, so the
    CLI exits 2."""


class NumericError(SpikeLaneError):
    """A value that must be a finite real number is NaN, infinite, complex or
    not a number at all."""


class ConfigError(SpikeLaneError):
    """A configuration value is out of its allowed range."""


class ParseError(SpikeLaneError):
    """An input file could not be parsed; message carries the line number."""


class CheckpointError(SpikeLaneError):
    """A checkpoint blob is corrupt or has an unsupported layout."""


class DivergenceError(SpikeLaneError):
    """Training produced a non-finite loss."""


class DegenerateFeatureError(SpikeLaneError):
    """A feature column has zero variance and cannot be normalized."""


class DegenerateLabelsError(SpikeLaneError):
    """A binary metric was asked for labels that are all one class."""


class SplitError(SpikeLaneError):
    """A dataset split cannot be formed (too few vehicles)."""
