"""The general program's stable models, enumerated by `naive_asp`, against the chase."""

from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.codegen import emit_general_asp
from mdclean.mdlang import MDSet, load_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

from naive_asp import ShiftedProgram, clean_projections, endpoint_sets

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_setting(name, tids=None, rule=None):
    """A fixture's inputs, keeping only the tuples `tids` and the rule `rule` if given."""
    d = FIXTURES / name
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    mds = load_mds(d / "mds.txt")
    if tids is not None:
        rows = instance.tuples.items()
        instance = Instance(schema, {rel: {t: r[t] for t in r if t in tids} for rel, r in rows})
    if rule is not None:
        mds = MDSet([mds.by_name[rule]])
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    return schema, instance, mds, sim, smf


FIXTURE_NAMES = ("convergent", "divergent", "reversed", "bibliography", "crossrel")
SETTINGS = {
    **{name: (name,) for name in FIXTURE_NAMES},
    # one symmetric step: its two orientations must not both be forced
    "convergent-t1-t2-md1": ("convergent", {"t1", "t2"}, "md1"),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_stable_models_project_onto_the_chase_endpoints(name):
    schema, instance, mds, sim, smf = fixture_setting(*SETTINGS[name])
    text = emit_general_asp(schema, instance, mds, sim, smf).text()
    models = ShiftedProgram(text).stable_models()
    endpoints = ChaseEngine(schema, mds, sim, smf).chase_all(instance).instances
    assert clean_projections(models, schema.relation_names()) == endpoint_sets(endpoints)


def models_of(text):
    return [
        {pred: rows for pred, rows in model.items() if pred in ("a", "b")}
        for model in ShiftedProgram(text).stable_models()
    ]


def test_oracle_enumerates_minimal_models_and_applies_constraints():
    assert models_of("p(x). p(y). a(X) | b(X) :- p(X). :- a(x), a(y).") == [
        {"a": {("x",)}, "b": {("y",)}},
        {"a": {("y",)}, "b": {("x",)}},
        {"b": {("x",), ("y",)}},
    ]
    # choosing b also derives a, so {a, b} is not minimal
    assert models_of("p(x). a(X) | b(X) :- p(X). a(X) :- b(X).") == [{"a": {("x",)}}]


def test_oracle_refuses_a_head_cycle():
    with pytest.raises(ValueError, match="positive cycle"):
        ShiftedProgram("p(x). a(X) | b(X) :- p(X). a(X) :- b(X). b(X) :- a(X).")
