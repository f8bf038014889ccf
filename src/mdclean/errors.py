"""Exception types shared across the package, and the chase's step budget,
which the command line reads without loading the chase."""

from __future__ import annotations


class MdcleanError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MdcleanError):
    """Syntax error in one of the text formats, with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ValidationError(MdcleanError):
    """Input is syntactically fine but violates a structural constraint."""


class UnknownDomain(ValidationError):
    """A domain name was used that the schema does not declare."""


class SemilatticeViolation(ValidationError):
    """A matching-function table cannot be completed to a join semilattice."""


class UnsafeRule(ValidationError):
    """A rule's head or negated/built-in literals use variables no positive literal binds."""


class UndefinedMatch(MdcleanError):
    """The matching function is not defined on a pair of values it was asked to merge."""

    def __init__(self, domain: str, left: str, right: str):
        self.domain = domain
        self.pair = (left, right)
        super().__init__(f"matching function on domain {domain!r} is undefined for ({left!r}, {right!r})")


class StepNotApplicable(MdcleanError):
    """An enforcement step was replayed on an instance it no longer applies to."""


class StepLimitExceeded(MdcleanError):
    """The chase gave up after the configured number of enforcement steps."""


DEFAULT_STEP_LIMIT = 20000


def check_step_limit(step_limit: int) -> None:
    """Refuse a negative step budget as invalid input."""
    if step_limit < 0:
        raise ValidationError(f"step limit must not be negative, got {step_limit}")


class NotSci(MdcleanError):
    """Datalog generation requested for a rule set not certified single-clean-instance."""


class NotStratifiable(MdcleanError):
    """The program has a cycle through negation."""


class EmptyCleanSet(MdcleanError):
    """Certain answers requested over an empty set of clean instances."""
