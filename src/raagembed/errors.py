"""Shared exception types."""


class GraphParseError(ValueError):
    """Malformed graph, word or witness input; message carries position."""


class InvariantViolation(RuntimeError):
    """A check that should hold by a proved statement failed; this flags an
    implementation bug, not bad user input."""
