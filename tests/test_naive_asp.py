"""The general program's stable models, enumerated by `naive_asp`, against the chase."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.codegen import emit_general_asp
from mdclean.mdlang import load_mds, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

import naive_asp
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
        mds = [md for md in mds if md.name == rule]
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    smf = mf.saturate(collect_active_values(instance, sim))
    return schema, instance, validate_mds(mds, schema, mf), sim, smf


FIXTURE_NAMES = ("convergent", "divergent", "reversed", "bibliography", "crossrel")
SETTINGS = {
    **{name: (name,) for name in FIXTURE_NAMES},
    # one symmetric step: its two orientations must not both be forced
    "convergent-t1-t2-md1": ("convergent", {"t1", "t2"}, "md1"),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_stable_models_project_onto_the_chase_endpoints(name):
    schema, instance, rules, sim, smf = fixture_setting(*SETTINGS[name])
    text = emit_general_asp(instance, rules, sim, smf).text()
    models = ShiftedProgram(text).stable_models()
    endpoints = ChaseEngine(rules, sim, smf).chase_all(instance).instances
    assert clean_projections(models, schema.relation_names()) == endpoint_sets(endpoints)


def test_stable_models_reach_an_endpoint_only_a_chain_of_matchings_orders():
    # only (t3, t4), (t2, t3), (t1, t2) applies, in that order, and its first
    # and last matchings share no tuple: only the closure of `prec` orders them
    schema = Schema.parse("R(A: doma, B: domb)")
    rows = {"t1": ("a1", "b4"), "t2": ("a2", "b3"), "t3": ("a3", "b2"), "t4": ("a4", "b1")}
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction.parse("domb: builtin value-min\n")
    rules = validate_mds(parse_mds(
        "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2, y1 ~domb~ y2 -> y1 := y2;"
    ), schema, mf)
    sim = SimilarityRelation.parse(
        "doma: a1 ~ a2\ndoma: a2 ~ a3\ndoma: a3 ~ a4\n"
        "domb: b1 ~ b2\ndomb: b1 ~ b3\ndomb: b1 ~ b4\n"
    )
    smf = mf.saturate(collect_active_values(instance, sim))
    endpoints = ChaseEngine(rules, sim, smf).chase_all(instance).instances
    assert len(endpoints) == 1
    text = emit_general_asp(instance, rules, sim, smf).text()
    models = ShiftedProgram(text).stable_models()
    assert len(models) == 8
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


SCAN_ARGS = ["--draws", "30", "--max-tuples", "3", "--timeout", "5"]


def test_the_oracle_scan_runs_as_a_module():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"}
    done = subprocess.run(
        [sys.executable, "-m", "naive_asp", *SCAN_ARGS],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["agree=13 mismatch=0 timeout=0 larger=17"]


def test_the_oracle_scan_fails_on_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(naive_asp, "clean_projections", lambda models, relations: set())
    assert naive_asp._scan(SCAN_ARGS) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "agree=0 mismatch=13 timeout=0 larger=17"
