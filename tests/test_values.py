"""The package's value types are immutable NamedTuples: assigning a field
fails, equal values hash equal, and no container holds two of them that could
compare equal."""

import importlib
import operator
import re
from pathlib import Path

import pytest

from mdclean.chase import ChaseResult, EnforcementStep
from mdclean.classify import Classification, InteractionPair, QueryCheck, Verdict
from mdclean.codegen import AspText, ResidualProgram
from mdclean.datalog import Builtin, Compound, Literal, Program, Rule, Token, Var
from mdclean.mdlang import parse_mds, validate_mds
from mdclean.model import MatchingFunction, Relation, Schema
from mdclean.query import parse_queries

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdclean"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))

SCHEMA = Schema.parse("R(A: doma, B: domb)")
PROGRAM = Program([])
RULE = "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;"


def bound():
    return validate_mds(parse_mds(RULE), SCHEMA, MatchingFunction(builtins={"domb": "value-min"}))[0]


def query():
    return parse_queries("q(X) :- R(T, X, Y), X ~ a.")[0]


# a fresh value of each class per call, equal to the one of any other call
SAMPLES = {
    "EnforcementStep": lambda: EnforcementStep("m", ("t1", "t2"), (), ("b1", "b2"), "b1"),
    "ChaseResult": lambda: ChaseResult(
        (), ((EnforcementStep("m", ("t1", "t2"), (), ("b1", "b2"), None),),)),
    "InteractionPair": lambda: InteractionPair("m", "m", "R", "B"),
    "QueryCheck": lambda: QueryCheck(query(), None),
    "Classification": lambda: Classification(
        Verdict.SFAI, (InteractionPair("m", "m", "R", "B"),), (QueryCheck(query(), None),), None),
    "AspText": lambda: AspText({1: [Rule((Literal("r", ("t1", "a")),))]}),
    "ResidualProgram": lambda: ResidualProgram(PROGRAM, SCHEMA, dict),
    "Var": lambda: Var("X"),
    "Compound": lambda: Compound("mt", (Var("X"), "a")),
    "Literal": lambda: Literal("p", (Var("X"), "a"), True),
    "Rule": lambda: Rule((Literal("p", (Var("X"),)),), (Literal("q", (Var("X"),)),)),
    "Builtin": lambda: Builtin("!=", 2, operator.ne),
    "Token": lambda: Token("ident", "md", 1, 1),
    "MDAtom": lambda: bound().lead[0],
    "SimilarityConstraint": lambda: bound().md.similarities[0],
    "MatchingDependency": lambda: bound().md,
    "BoundMD": bound,
    "Relation": lambda: Relation("R", ("A", "B"), ("doma", "domb")),
    "QueryAtom": lambda: query().atoms[0],
    "SimLiteral": lambda: query().sims[0],
    "ConjunctiveQuery": query,
}
UNHASHABLE = {"AspText"}  # its blocks are a dict


def value_classes() -> dict[str, type]:
    """The public NamedTuple classes the package's modules define."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"mdclean.{name}")
        for attr, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                    and obj.__module__ == module.__name__ and not attr.startswith("_")):
                out[attr] = obj
    return out


def test_every_value_class_has_a_sample():
    classes = value_classes()
    assert sorted(classes) == sorted(SAMPLES)
    for name, make in SAMPLES.items():
        assert type(make()) is classes[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_value_refuses_assignment(name):
    value = SAMPLES[name]()
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_values_hash_equal(name):
    first, second = SAMPLES[name](), SAMPLES[name]()
    assert first == second and first is not second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_no_container_mixes_value_classes_of_one_length():
    # A NamedTuple equals any tuple of the same items, so a `QueryAtom` equals
    # the `Compound` with its fields.  A container the package types as
    # holding more than one class names them in a union (`A | B` or
    # `Union[...]`); the only union of value classes is `Term`, and a `Var`
    # (one field) never equals a `Compound` (two) or a string constant.
    classes = value_classes()
    unions = set()
    for name in MODULES:
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        found = re.findall(r"Union\[([^\]]*)\]", source)
        found += re.findall(r"\w+(?:\s*\|\s*\w+)+", source)
        for union in found:
            members = frozenset(re.findall(r"\w+", union)) & set(classes)
            if len(members) > 1:
                unions.add(members)
    assert unions == {frozenset({"Var", "Compound"})}
    assert len(Var._fields) != len(Compound._fields)
    assert Var("x") != "x" and Compound("x", ()) != "x"
