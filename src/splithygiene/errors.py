"""Exception types shared across the package."""


class SplitHygieneError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SplitHygieneError):
    """A query is outside the supported subset; ``position`` is the character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position
        self.message = message


class PatternError(SplitHygieneError):
    """A question pattern violates a structural rule."""


class AdjacentSlots(PatternError):
    """Two slots ended up next to each other with no word between them."""


class PlaceholderPredicate(SplitHygieneError):
    """A concrete predicate list was requested but a predicate is a placeholder."""


class LineCountMismatch(SplitHygieneError):
    """Parallel corpus files disagree on the number of lines."""


class UnlocatableEntity(SplitHygieneError):
    """No query IRI corresponds to a labeled surface-form span."""

    def __init__(self, label: str, message: str = ""):
        super().__init__(message or f"no query IRI matches the span for label {label!r}")
        self.label = label


class UnboundVariable(SplitHygieneError):
    """A selected variable never occurs in the query's triple patterns."""


class ConfigError(SplitHygieneError):
    """A config value has the wrong type or lies outside its range; ``key`` names it."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class InputFileError(SplitHygieneError):
    """An input file is not UTF-8, or a record in it is malformed or repeats an id.

    The message starts with the path, and with ``:<line>`` where a line applies.
    """


class RatioError(SplitHygieneError):
    """Split ratios or a subsample fraction are out of range."""


class EmptyCorpus(SplitHygieneError):
    """An operation that needs at least one record received none."""


class InvalidLogProb(SplitHygieneError):
    """A log probability was positive or non-finite."""
