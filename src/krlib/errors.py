"""Exception types shared across the library."""

from __future__ import annotations


class ChainConditionError(ValueError):
    """A base-set enumeration violates a required difference condition."""

    def __init__(self, message: str, pair: tuple = ()):  # pair: offending weights
        super().__init__(message)
        self.pair = pair


class TheoremCheckError(AssertionError):
    """A computed decomposition contradicts an asserted identity."""


class DimensionGuardError(RuntimeError):
    """A computation was aborted because it exceeded the dimension guard.

    Its one setting is the KR_MAX_DIM environment variable, read by
    charlib.dimension_guard; each guard bounds the space its step works in.
    """


class ScopeError(ValueError):
    """The requested object is outside the matrix-realization scope."""
