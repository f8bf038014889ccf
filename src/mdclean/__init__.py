"""Matching-dependency cleaning: chase, classification, and program generation."""

from .errors import (
    EmptyCleanSet,
    MdcleanError,
    NotSci,
    NotStratifiable,
    ParseError,
    SemilatticeViolation,
    StepLimitExceeded,
    StepNotApplicable,
    UndefinedMatch,
    UnknownDomain,
    UnsafeRule,
    ValidationError,
)
from .model import (
    Instance,
    MatchingFunction,
    Relation,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

__all__ = [
    "EmptyCleanSet",
    "Instance",
    "MatchingFunction",
    "MdcleanError",
    "NotSci",
    "NotStratifiable",
    "ParseError",
    "Relation",
    "SaturatedMatchingFunction",
    "Schema",
    "SemilatticeViolation",
    "SimilarityRelation",
    "StepLimitExceeded",
    "StepNotApplicable",
    "UndefinedMatch",
    "UnknownDomain",
    "UnsafeRule",
    "ValidationError",
    "collect_active_values",
]

__version__ = "0.1.0"
