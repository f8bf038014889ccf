"""Emission of the disjunctive cleaning program and its stratified residual."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.classify import Verdict, classify
from mdclean.codegen import emit_general_asp, emit_residual_datalog, evaluate_residual
from mdclean.datalog import evaluate, format_rule_ast, parse_asp, parse_program, stratify
from mdclean.errors import NotSci, UndefinedMatch, ValidationError
from mdclean.mdlang import load_mds, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

import naive_order
from population import random_setting
from program_parts import census

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir())

TWO_RULES = """
md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;
md md2: lead R(t1; x1, y1), lead R(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;
"""

MF_TABLE = {
    "domb": [
        ("b1", "b2", "b12"),
        ("b2", "b3", "b23"),
        ("b1", "b23", "b123"),
        ("b3", "b4", "b34"),
    ]
}


def setting(sim_pairs, rows, rules=TWO_RULES, mf_table=None):
    schema = Schema.parse("R(A: doma, B: domb)")
    sim = SimilarityRelation(sim_pairs)
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction(mf_table if mf_table is not None else MF_TABLE)
    bound = validate_mds(parse_mds(rules), schema, mf)
    smf = mf.saturate(collect_active_values(instance, sim))
    return schema, bound, instance, sim, smf


def divergent_setting():
    return setting(
        {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
    )


def convergent_setting():
    return setting(
        {"doma": [("a1", "a2")], "domb": [("b3", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3"), "t4": ("a4", "b4")},
    )


def biblio_setting():
    schema = Schema.parse(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )
    mf = MatchingFunction({"blk": [("k1", "k2", "k12")]})
    rules = validate_mds(parse_mds(
        "md coblock: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),"
        " lead Author(t2; x2, y2, bl2), Paper(t4; p2, z2, bl4),"
        " x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2"
        " -> bl1 := bl2;"
    ), schema, mf)
    sim = SimilarityRelation(
        {
            "name": [("j smith", "john smith")],
            "title": [
                ("er overview", "entity resolution"),
                ("er survey", "entity resolution"),
                ("er overview", "er survey"),
            ],
        }
    )
    instance = Instance(
        schema,
        {
            "Author": {
                "a1": ("j smith", "er overview", "k1"),
                "a2": ("john smith", "er survey", "k2"),
            },
            "Paper": {"p1": ("entity resolution", "v1", "pb1")},
        },
    )
    smf = mf.saturate(collect_active_values(instance, sim))
    return schema, rules, instance, sim, smf


def emitted(setting_fn=divergent_setting):
    schema, rules, instance, sim, smf = setting_fn()
    return emit_general_asp(instance, rules, sim, smf)


def body_preds(rule):
    return sorted(lit.pred for lit in rule.body)


# ---------------------------------------------------------------------------
# general program


def test_general_statement_counts():
    asp = emitted()
    counts = {kind: len(rules) for kind, rules in census(asp.blocks).items()}
    assert counts["version-fact"] == 3
    assert counts["disjunctive"] == 2
    assert counts["oldversion"] == 1
    assert counts["notmatch-constraint"] == 2
    assert counts["insertion"] == 4
    # 2x2 rule pairs, 4 placements of the shared tuple each
    assert counts["prec-newer-version"] == 16
    assert counts["prec-shared-version"] == 16
    assert counts["prec-antisymmetry"] == 1
    assert counts["prec-transitivity"] == 1
    assert counts["collect"] == 1


def test_general_fact_tables():
    schema, rules, instance, sim, smf = divergent_setting()
    asp = emit_general_asp(instance, rules, sim, smf)
    text = asp.text()
    assert "r_v(t1, a1, b1)." in text
    values = smf.values("domb")
    merges = [(a, b) for a in values for b in values if smf.try_match("domb", a, b) is not None]
    assert len(census(asp.blocks)["mf-fact"]) == len(merges)
    assert "mf_domb(b1, b2, b12)." in text
    assert "mf_domb(b2, b1, b12)." in text
    assert "pre_domb(b1, b123)." in text
    assert "pre_domb(b12, b34)." not in text  # incomparable merge results
    assert "sim_doma(a1, a2)." in text
    assert "sim_doma(a2, a1)." in text
    assert "sim_doma(a3, a3)." in text


def test_general_disjunctive_rule_shape():
    asp = emitted()
    rules = census(asp.blocks)["disjunctive"]
    first = rules[0]
    assert [h.pred for h in first.heads] == ["match_md1", "notmatch_md1"]
    assert all(len(h.args) == 6 for h in first.heads)
    assert body_preds(first) == ["!=", "r_v", "r_v", "sim_doma"]
    reads = [lit for lit in first.body if lit.pred == "r_v"]
    assert first.heads[0].args == reads[0].args + reads[1].args
    second = rules[1]
    assert body_preds(second) == ["!=", "r_v", "r_v", "sim_domb"]


def test_general_oldversion_collect_and_notmatch():
    asp = emitted()
    old = census(asp.blocks)["oldversion"][0]
    reads = [lit for lit in old.body if lit.pred == "r_v"]
    assert len(reads) == 2
    assert reads[0].args[0] == reads[1].args[0]  # same tuple id
    assert reads[0].args[1] == reads[1].args[1]  # no order on doma: equality
    assert reads[0].args[2] != reads[1].args[2]
    assert [lit.pred for lit in old.body if lit.pred.startswith("pre_")] == ["pre_domb"]

    collect = census(asp.blocks)["collect"][0]
    assert collect.heads[0].pred == "r_clean"
    negated = [lit for lit in collect.body if lit.negated]
    assert [lit.pred for lit in negated] == ["oldversion_r"]

    veto = census(asp.blocks)["notmatch-constraint"][0]
    assert veto.heads == ()
    assert [lit.pred for lit in veto.body] == [
        "notmatch_md1",
        "oldversion_r",
        "oldversion_r",
    ]
    assert all(lit.negated for lit in veto.body[1:])


def test_general_insertion_writes_merge_into_both_components():
    asp = emitted()
    rules = census(asp.blocks)["insertion"]
    first_pair = rules[:2]
    for side, rule in enumerate(first_pair):
        assert rule.heads[0].pred == "r_v"
        match = next(lit for lit in rule.body if lit.pred == "match_md1")
        merge = next(lit for lit in rule.body if lit.pred == "mf_domb")
        component = match.args[:3] if side == 0 else match.args[3:]
        assert rule.heads[0].args[:2] == component[:2]
        assert rule.heads[0].args[2] == merge.args[2]  # merged value
        assert merge.args[:2] == (match.args[2], match.args[5])


def test_general_prec_rules_share_one_tuple_id():
    asp = emitted()
    for kind in ("prec-newer-version", "prec-shared-version"):
        for rule in census(asp.blocks)[kind]:
            head = rule.heads[0]
            assert head.pred == "prec"
            left, right = head.args
            assert left.functor == right.functor == "mt"
            matches = [lit for lit in rule.body if lit.pred.startswith("match_")]
            assert len(matches) == 2
            shared = {matches[0].args[0], matches[0].args[3]} & {
                matches[1].args[0],
                matches[1].args[3],
            }
            assert shared, format_rule_ast(rule)
    closure = census(asp.blocks)["prec-transitivity"][0]
    assert [h.pred for h in closure.heads] == ["prec"]
    assert [(lit.pred, lit.negated) for lit in closure.body] == [("prec", False)] * 2


def fixture_inputs(name):
    """A fixture's instance, bound rules, similarity and saturated merges."""
    d = FIXTURES / name
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    rules = validate_mds(load_mds(d / "mds.txt"), schema, mf)
    return instance, rules, sim, mf.saturate(collect_active_values(instance, sim))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_order_blocks_equal_the_per_combination_builder_on_the_fixtures(name):
    assert naive_order.disagreement(*fixture_inputs(name)) is None


def test_order_blocks_equal_the_per_combination_builder_when_rules_spell_generated_names():
    # `mv` and `y1q` spell the merge variable and a renamed-apart name
    rules = (
        "md m1: lead R(t1; mv, y1), lead R(t2; mvq, y2), mv ~doma~ mvq -> y1 := y2;\n"
        "md m2: lead R(t1; x1, y1q), lead R(t2; x2, y2), y1q ~domb~ y2 -> y1q := y2;\n"
    )
    schema, bound, instance, sim, smf = setting(
        {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
        rules,
    )
    blocks = emit_general_asp(instance, bound, sim, smf).blocks
    assert any("Mvq" in format_rule_ast(rule) for rule in blocks[5])
    assert naive_order.disagreement(instance, bound, sim, smf) is None


def test_order_blocks_equal_the_per_combination_builder_over_the_population():
    # every other draw of the acceptance population, to stay under two seconds
    rng = random.Random(20260823)
    draws = [random_setting(rng) for _ in range(745)][::2]
    assert sum(len(s.rules) > 1 for s in draws) > 150
    for i, s in enumerate(draws):
        found = naive_order.disagreement(s.instance, s.rules, s.sim, s.smf)
        assert found is None, f"draw {2 * i}: {found}\n{s.describe()}"


def test_the_order_oracle_scan_runs_as_a_module():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"}
    done = subprocess.run(
        [sys.executable, "-m", "naive_order", "--draws", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "5 draws agree\n", "")


def test_general_reparses_and_is_byte_stable():
    schema, rules, instance, sim, smf = divergent_setting()
    one = emit_general_asp(instance, rules, sim, smf)
    two = emit_general_asp(instance, rules, sim, smf)
    assert one.text() == two.text()
    assert parse_asp(one.text()) == one.statements


def test_general_empty_rule_set_is_facts_plus_collection():
    schema, rules, instance, sim, smf = setting({}, {"t1": ("a1", "b1")}, rules="")
    asp = emit_general_asp(instance, rules, sim, smf)
    assert set(census(asp.blocks)) == {"version-fact", "collect"}
    collect = census(asp.blocks)["collect"][0]
    assert not any(lit.negated for lit in collect.body)


def test_general_relational_rule_keeps_context_join():
    schema, rules, instance, sim, smf = biblio_setting()
    asp = emit_general_asp(instance, rules, sim, smf)
    rule = census(asp.blocks)["disjunctive"][0]
    preds = body_preds(rule)
    assert preds.count("author_v") == 2
    assert preds.count("paper_v") == 2
    assert preds.count("sim_title") == 3
    assert preds.count("sim_name") == 1
    papers = [lit for lit in rule.body if lit.pred == "paper_v"]
    # both context papers carry the same block variable
    assert papers[0].args[3] == papers[1].args[3]


def test_general_rejects_unsaturated_merge_tables():
    schema, rules, instance, sim, _ = setting(
        {"doma": [("a1", "a2")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b9")},
    )
    bare = MatchingFunction(MF_TABLE).saturate({})  # b9 never folded in
    with pytest.raises(ValidationError) as err:
        emit_general_asp(instance, rules, sim, bare)
    assert "not saturated" in str(err.value)


# ---------------------------------------------------------------------------
# residual program


def residual(setting_fn):
    schema, rules, instance, sim, smf = setting_fn()
    verdict = classify(instance, rules, sim, smf)
    return emit_residual_datalog(instance, rules, sim, smf, verdict)


def clean_of(setting_fn, rp=None):
    """The clean instance of the residual program `rp` (by default the
    setting's), checked against the chase engine of the setting's rules."""
    schema, rules, instance, sim, smf = setting_fn()
    rp = rp or residual(setting_fn)
    return evaluate_residual(rp, ChaseEngine(rules, sim, smf))


def test_residual_matches_exhaustive_chase_on_convergent_input():
    schema, rules, instance, sim, smf = convergent_setting()
    engine = ChaseEngine(rules, sim, smf)
    clean = evaluate_residual(residual(convergent_setting), engine).tuples
    assert clean == {
        "R": {
            "t1": ("a1", "b12"),
            "t2": ("a2", "b12"),
            "t3": ("a3", "b34"),
            "t4": ("a4", "b34"),
        }
    }
    result = engine.chase_all(instance)
    assert len(result.instances) == 1
    assert clean["R"] == dict(result.instances[0].tuples["R"])


def test_residual_program_shape_and_strata():
    rp = residual(convergent_setting)
    text = rp.text()
    assert "|" not in text
    assert "prec" not in text
    assert "notmatch" not in text
    assert not any(line.startswith(":-") for line in text.splitlines())
    assert "r(T1, X1, Y1)" in text  # reads current tuples, not versions
    # the value relations are built-ins; only the text holds their tables
    assert set(rp.program.facts) == {"r"}
    assert set(rp.program.builtins) == {"!=", "mf_domb", "pre_domb", "sim_doma", "sim_domb"}
    strata = stratify(rp.program)
    assert len(strata) == 2
    assert strata[1] == ["r_clean"]
    assert "oldversion_r" in strata[0]


def test_residual_relational_rule_evaluates_with_context():
    rp = residual(biblio_setting)
    clean = clean_of(biblio_setting, rp).tuples
    assert clean["Author"] == {
        "a1": ("j smith", "er overview", "k12"),
        "a2": ("john smith", "er survey", "k12"),
    }
    assert clean["Paper"] == {"p1": ("entity resolution", "v1", "pb1")}
    match_rules = [
        r for r in rp.program.rules if r.head.pred == "match_coblock"
    ]
    assert len(match_rules) == 1
    assert body_preds(match_rules[0]).count("paper") == 2


def test_residual_single_rule_on_chained_values():
    def one_rule():
        return setting(
            {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
            {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
            rules="md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;",
        )

    clean = clean_of(one_rule).tuples
    assert clean["R"] == {"t1": ("a1", "b12"), "t2": ("a2", "b12"), "t3": ("a3", "b3")}


def test_residual_refuses_divergent_combination():
    schema, rules, instance, sim, smf = divergent_setting()
    verdict = classify(instance, rules, sim, smf)
    assert verdict.verdict is Verdict.GENERAL
    with pytest.raises(NotSci):
        emit_residual_datalog(instance, rules, sim, smf, verdict)


def test_residual_is_byte_stable_and_lists_clean_predicates():
    one = residual(convergent_setting)
    two = residual(convergent_setting)
    assert one.text() == two.text()
    assert one.text() == (GOLDEN / "convergent.emit-datalog.txt").read_text()
    clean = [rule.head.pred for rule in one.program.rules if rule.head.pred.endswith("_clean")]
    assert clean == ["r_clean"]


def test_evaluate_residual_detects_incomparable_versions():
    # partial merge table: t1 merges with both neighbours but the two results
    # never merge with each other, so two final versions survive
    def gapped():
        return setting(
            {"doma": [("a1", "a2"), ("a1", "a3")]},
            {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b4")},
            rules="md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;",
            mf_table={"domb": [("b1", "b2", "b12"), ("b1", "b4", "b14")]},
        )

    with pytest.raises(NotSci) as err:
        clean_of(gapped)
    assert "two versions" in str(err.value)


def test_evaluate_residual_refuses_an_undefined_merge():
    # b3 ~ b4 but the merge table has no m(b3, b4): the chase stops there
    def unmergeable():
        table = {"domb": [t for t in MF_TABLE["domb"] if t != ("b3", "b4", "b34")]}
        return setting(
            {"doma": [("a1", "a2")], "domb": [("b3", "b4")]},
            {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3"), "t4": ("a4", "b4")},
            mf_table=table,
        )

    schema, rules, instance, sim, smf = unmergeable()
    with pytest.raises(UndefinedMatch):
        ChaseEngine(rules, sim, smf).chase_one(instance)
    with pytest.raises(UndefinedMatch) as err:
        clean_of(unmergeable)
    assert err.value.pair == ("b3", "b4")


def test_evaluate_residual_refuses_an_unstable_result():
    # the program of an empty rule set copies the input, which the two rules
    # still change; checked against the engine of those rules it is refused
    schema, rules, instance, sim, smf = convergent_setting()
    rp = residual(lambda: (schema, [], instance, sim, smf))
    copied = evaluate_residual(rp, ChaseEngine([], sim, smf))
    assert copied.tuples == {"R": dict(instance.tuples["R"])}
    with pytest.raises(NotSci) as err:
        evaluate_residual(rp, ChaseEngine(rules, sim, smf))
    assert "not stable" in str(err.value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_programs_reparse_to_their_statements_value_tables_included(name):
    instance, rules, sim, smf = fixture_inputs(name)
    asp = emit_general_asp(instance, rules, sim, smf)
    assert parse_asp(asp.text()) == asp.statements
    report = classify(instance, rules, sim, smf)
    if report.verdict is Verdict.GENERAL:
        return
    rp = emit_residual_datalog(instance, rules, sim, smf, report)
    blocks = rp.blocks()
    assert {"sim-fact", "mf-fact", "pre-fact"} & set(census(blocks))
    assert parse_asp(rp.text()) == [rule for rules in blocks.values() for rule in rules]


def test_programs_over_escaped_values_reparse_to_the_emitted_asts():
    def escaped():
        return setting(
            {"doma": [("a\\1", 'a "2"')], "domb": [("b3", "b4")]},
            {"t1": ("a\\1", "b1"), "t2": ('a "2"', "b2"), "t3": ("A3", "b3"), "t4": ("_a4", "b4")},
        )

    schema, rules, instance, sim, smf = escaped()
    asp = emit_general_asp(instance, rules, sim, smf)
    assert parse_asp(asp.text()) == asp.statements
    rp = residual(escaped)
    reparsed = parse_program(rp.text())
    assert reparsed.rules == rp.program.rules
    # the text, its value tables read as facts, computes the same instance
    plain = {p: ts for p, ts in reparsed.facts.items() if p not in rp.program.builtins}
    assert plain == rp.program.facts
    clean = clean_of(escaped, rp).tuples
    assert clean["R"]["t1"] == ("a\\1", "b12")
    rows = {(tid, *vals) for tid, vals in clean["R"].items()}
    assert evaluate(reparsed).get("r_clean") == rows
