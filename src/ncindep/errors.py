"""Domain errors shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for errors raised by moment-domain operations."""


class DegreeExceeded(EngineError):
    """A moment of higher order than the functional stores was requested.

    Moment tables are total up to a declared maximum degree; asking beyond
    it is an error, never a silent zero.  The message names the monomial's
    algebra, its length, and at most its first SHOWN_LETTERS letters.  A
    ``length`` given apart from the monomial is the length of a longer one
    that the given monomial begins, so that a request for a huge monomial
    can be reported without building it.
    """

    SHOWN_LETTERS = 8

    def __init__(self, monomial, max_degree, length=None):
        self.monomial = monomial
        self.max_degree = max_degree
        letters = monomial.letters[:self.SHOWN_LETTERS]
        length = len(monomial.letters) if length is None else length
        shown = " ".join(letters)
        if length > len(letters):
            shown += " ..."
        super().__init__(
            "monomial %s[%s] has length %d, beyond the stored maximum degree %d"
            % (monomial.algebra.name, shown, length, max_degree)
        )


class RegimeMismatch(EngineError):
    """Unital/non-unital (or graded/evenness) requirements were violated."""


class StateDocumentError(EngineError):
    """A state or probability-space document failed validation."""


class ExpressionError(EngineError):
    """An expression failed to parse; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__("%s (at offset %d)" % (message, offset))
