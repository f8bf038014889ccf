"""Terms shared by the query and Datalog layers.

A term is either a `Var` or a plain string constant.  `Compound` only occurs
in generated ASP text (order terms built from matched tuples); the Datalog
evaluator never sees one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]


Term = Union[Var, Compound, str]


def is_var(term: Term) -> bool:
    return isinstance(term, Var)

