"""Acceptance gate: ten end-to-end checks, one test per gate line.

Everything runs off the committed fixtures or seeded random populations,
so a pass here is reproducible byte for byte.  Timing budgets are part of
the gate and asserted where they apply.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.classify import InteractionPair, Verdict, classify, interaction_pairs
from mdclean.codegen import emit_general_asp, emit_residual_datalog, evaluate_residual
from mdclean.datalog import (
    Program,
    evaluate,
    parse_asp,
    parse_program,
    stratify,
    value_builtins,
)
from mdclean.errors import NotStratifiable, SemilatticeViolation
from mdclean.mdlang import load_mds, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.query import certain_answers, load_queries

from naive_dl import VALUE_USES, naive_evaluate, random_program
from population import random_setting
from program_parts import role

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# seed and draw count of the shared random population; with this seed the
# first 745 draws contain exactly 500 converging (non-general) settings
SOAK_SEED = 20260823
SOAK_DRAWS = 745
SOAK_TARGET = 500


class Fixture:
    def __init__(self, name: str):
        d = FIXTURES / name
        self.dir = d
        self.schema = Schema.load(d / "schema.txt")
        self.instance = Instance.load(self.schema, d)
        self.sim = SimilarityRelation.load(d / "sim.txt")
        self.mf = MatchingFunction.load(d / "mf.txt")
        self.rules = validate_mds(load_mds(d / "mds.txt"), self.schema, self.mf)
        self.smf = self.mf.saturate(
            collect_active_values(self.instance, self.sim)
        )

    def report(self):
        return classify(self.instance, self.rules, self.sim, self.smf)

    def engine(self) -> ChaseEngine:
        return ChaseEngine(self.rules, self.sim, self.smf)


def tuple_sets(instances):
    return {
        frozenset((tid, *vals) for _, tid, vals in inst.iter_tuples())
        for inst in instances
    }


def by_relation(instance: Instance):
    return {rel: dict(rows) for rel, rows in instance.tuples.items()}


def test_diverging_pair_of_rules_reaches_exactly_two_clean_instances():
    fx = Fixture("divergent")
    start = time.perf_counter()
    result = fx.engine().chase_all(fx.instance)
    elapsed = time.perf_counter() - start
    assert len(result.instances) == 2
    assert tuple_sets(result.instances) == {
        frozenset({("t1", "a1", "b12"), ("t2", "a2", "b12"), ("t3", "a3", "b3")}),
        frozenset({("t1", "a1", "b123"), ("t2", "a2", "b123"), ("t3", "a3", "b23")}),
    }
    assert elapsed < 1.0


def test_converging_rules_classify_sfai_and_residual_matches_chase():
    fx = Fixture("convergent")
    start = time.perf_counter()
    report = fx.report()
    assert report.verdict is Verdict.SFAI
    assert report.queries and all(not q.satisfied for q in report.queries)
    residual = emit_residual_datalog(fx.instance, fx.rules, fx.sim, fx.smf, report)
    clean = evaluate_residual(residual, fx.engine())
    expected = {
        "R": {
            "t1": ("a1", "b12"),
            "t2": ("a2", "b12"),
            "t3": ("a3", "b34"),
            "t4": ("a4", "b34"),
        }
    }
    assert clean.tuples == expected
    result = fx.engine().chase_all(fx.instance)
    assert len(result.instances) == 1
    assert by_relation(result.instances[0]) == expected
    assert time.perf_counter() - start < 1.0


CROSSED_RULES = """
md to_a: lead R(t1; x1, y1), lead R(t2; x2, y2), y1 ~domb~ y2 -> x1 := x2;
md to_b: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;
"""


def test_interaction_pairs_for_chained_and_crossed_rules_are_exact():
    fx = Fixture("divergent")
    assert interaction_pairs(fx.rules) == [
        InteractionPair("md1", "md2", "R", "B"),
        InteractionPair("md2", "md2", "R", "B"),
    ]
    crossed = parse_mds(CROSSED_RULES)
    both = MatchingFunction(builtins={"doma": "value-min", "domb": "value-min"})
    assert interaction_pairs(validate_mds(crossed, fx.schema, both)) == [
        InteractionPair("to_a", "to_b", "R", "A"),
        InteractionPair("to_b", "to_a", "R", "B"),
    ]


def test_residual_program_equals_chase_on_converging_random_settings():
    rng = random.Random(SOAK_SEED)
    start = time.perf_counter()
    checked = 0
    for _ in range(SOAK_DRAWS):
        s = random_setting(rng)
        report = classify(s.instance, s.rules, s.sim, s.smf)
        if report.verdict is Verdict.GENERAL:
            continue
        engine = ChaseEngine(s.rules, s.sim, s.smf)
        result = engine.chase_all(s.instance)
        assert len(result.instances) == 1, s.describe()
        residual = emit_residual_datalog(s.instance, s.rules, s.sim, s.smf, report)
        clean = evaluate_residual(residual, engine).tuples
        assert clean == by_relation(result.instances[0]), s.describe()
        # the text, its value tables read as facts, computes the same instance
        reparsed = parse_program(residual.text())
        assert reparsed.rules == residual.program.rules, s.describe()
        builtins = residual.program.builtins
        plain = {p: ts for p, ts in reparsed.facts.items() if p not in builtins}
        assert plain == residual.program.facts, s.describe()
        model = evaluate(reparsed)
        for rel in residual.schema.relation_names():
            rows = {(tid, *vals) for tid, vals in clean[rel].items()}
            assert model.get(f"{rel.lower()}_clean") == rows, s.describe()
        checked += 1
    assert checked == SOAK_TARGET
    assert time.perf_counter() - start < 60.0


def test_clean_instance_count_follows_the_verdict():
    rng = random.Random(SOAK_SEED)
    multi = 0
    for _ in range(SOAK_DRAWS):
        s = random_setting(rng)
        report = classify(s.instance, s.rules, s.sim, s.smf)
        result = ChaseEngine(s.rules, s.sim, s.smf).chase_all(s.instance)
        if report.verdict is not Verdict.GENERAL:
            assert len(result.instances) == 1, s.describe()
        if len(result.instances) > 1:
            multi += 1
            assert report.verdict is Verdict.GENERAL, s.describe()
    # the diverging direction must actually occur in the population
    assert multi > 0


def test_merge_table_is_a_join_semilattice():
    smf = MatchingFunction.load(FIXTURES / "divergent" / "mf.txt").saturate({})
    values = sorted(smf.values("domb"))
    assert {"b1", "b2", "b3", "b4", "b12", "b23", "b123", "b34"} <= set(values)
    for a in values:
        assert smf.try_match("domb", a, a) == a
        for b in values:
            ab = smf.try_match("domb", a, b)
            assert ab == smf.try_match("domb", b, a)
            for c in values:
                bc = smf.try_match("domb", b, c)
                if ab is not None and bc is not None:
                    assert smf.try_match("domb", ab, c) == smf.try_match("domb", a, bc)
    # absorption is derived, not declared
    assert smf.try_match("domb", "b1", "b12") == "b12"
    with pytest.raises(SemilatticeViolation):
        MatchingFunction({"domb": [("b1", "b2", "b12"), ("b2", "b1", "b21")]}).saturate({})


def test_datalog_engine_agrees_with_the_naive_reference():
    sim = SimilarityRelation({"doma": [("a1", "a2")], "domb": [("b1", "b2"), ("b2", "b3")]})
    smf = MatchingFunction.load(FIXTURES / "divergent" / "mf.txt").saturate({})
    for seed in range(100):
        rng = random.Random(5000 + seed)
        rules, facts = random_program(rng, with_builtins=seed % 2 == 1)
        assert sum(len(ts) for ts in facts.values()) <= 200
        program = Program(rules, value_builtins(VALUE_USES, sim, smf))
        assert evaluate(program, facts).relations == naive_evaluate(rules, facts, sim, smf), f"seed {seed}"
    with pytest.raises(NotStratifiable):
        stratify(parse_program("q(a). p(X) :- q(X), not p(X)."))
    fx = Fixture("convergent")
    residual = emit_residual_datalog(fx.instance, fx.rules, fx.sim, fx.smf, fx.report())
    strata = stratify(residual.program)
    assert len(strata) == 2
    assert strata[1] == ["r_clean"]


def test_author_blocks_merge_iff_their_papers_share_a_block():
    fx = Fixture("bibliography")
    report = fx.report()
    residual = emit_residual_datalog(fx.instance, fx.rules, fx.sim, fx.smf, report)
    clean = evaluate_residual(residual, fx.engine())
    expected = json.loads((fx.dir / "expected_clean.json").read_text())
    assert clean.to_json_dict() == expected
    result = fx.engine().chase_all(fx.instance)
    assert len(result.instances) == 1
    assert by_relation(result.instances[0]) == clean.tuples

    # moving the second paper into the first paper's block satisfies the
    # context join for the jones pair, so their blocks must now merge too
    rows = {rel: dict(r) for rel, r in fx.instance.tuples.items()}
    rows["Paper"]["p2"] = ("entity matching", "v2", "pb1")
    variant = Instance(fx.schema, rows)
    active = collect_active_values(variant, fx.sim)
    smf = fx.mf.saturate(active)
    moved = ChaseEngine(fx.rules, fx.sim, smf).chase_all(variant)
    assert len(moved.instances) == 1
    assert by_relation(moved.instances[0]) == {
        "Author": {
            "a1": ("j smith", "er overview", "k12"),
            "a2": ("john smith", "er survey", "k12"),
            "a3": ("a jones", "er study", "k34"),
            "a4": ("anne jones", "matching study", "k34"),
        },
        "Paper": {
            "p1": ("entity resolution", "v1", "pb1"),
            "p2": ("entity matching", "v2", "pb1"),
        },
    }


def test_emitted_asp_census_reparses_and_is_byte_stable():
    fx = Fixture("divergent")
    asp = emit_general_asp(fx.instance, fx.rules, fx.sim, fx.smf)
    census = Counter(
        role(block, rule) for block, rules in asp.blocks.items() for rule in rules if block != 1
    )
    assert census == {
        "disjunctive": 2,
        "oldversion": 1,
        "notmatch-constraint": 2,
        "insertion": 4,
        "prec-newer-version": 16,
        "prec-shared-version": 16,
        "prec-antisymmetry": 1,
        "prec-transitivity": 1,
        "collect": 1,
    }
    assert parse_asp(asp.text()) == asp.statements
    again = Fixture("divergent")
    assert emit_general_asp(again.instance, again.rules, again.sim, again.smf).text() == asp.text()


def test_certain_answers_over_the_diverging_clean_pair():
    fx = Fixture("divergent")
    queries = load_queries(fx.dir / "queries.txt")
    assert [q.name for q in queries] == ["q_b", "q_a"]
    result = fx.engine().chase_all(fx.instance)
    assert len(result.instances) == 2
    answers = {q.name: set(certain_answers(result.instances, q, fx.sim)) for q in queries}
    assert answers["q_b"] == set()
    assert answers["q_a"] == {("a1",), ("a2",), ("a3",)}
