"""Interaction analysis and single-clean-instance classification."""

from mdclean import query
from mdclean.classify import (
    InteractionPair,
    Verdict,
    _Body,
    _embeddings,
    classify,
    interaction_pairs,
    is_sfai,
    is_similarity_preserving,
    sfai_queries,
)
from mdclean.mdlang import parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.query import eval_cq

import naive_match
from fixture_edits import fixture_setting

TWO_RULES = """
md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;
md md2: lead R(t1; x1, y1), lead R(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;
"""

CROSSED_RULES = """
md to_a: lead R(t1; x1, y1), lead R(t2; x2, y2), y1 ~domb~ y2 -> x1 := x2;
md to_b: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;
"""

MF_TABLE = {
    "domb": [
        ("b1", "b2", "b12"),
        ("b2", "b3", "b23"),
        ("b1", "b23", "b123"),
        ("b3", "b4", "b34"),
    ]
}


# a matching function on every domain these tests' rules write
WRITES = MatchingFunction(builtins=dict.fromkeys(["doma", "domb", "blk"], "value-min"))


def r_schema():
    return Schema.parse("R(A: doma, B: domb)")


def setting(sim_pairs, rows, rules=TWO_RULES, mf_table=None):
    schema = r_schema()
    sim = SimilarityRelation(sim_pairs)
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction(mf_table if mf_table is not None else MF_TABLE)
    bound = validate_mds(parse_mds(rules), schema, mf)
    return schema, bound, instance, sim, mf.saturate(collect_active_values(instance, sim))


def interacting_setting():
    return setting(
        {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
    )


def sfai_setting():
    return setting(
        {"doma": [("a1", "a2")], "domb": [("b3", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3"), "t4": ("a4", "b4")},
    )


def test_interaction_pairs_for_chained_rules():
    schema, mds = r_schema(), parse_mds(TWO_RULES)
    assert interaction_pairs(validate_mds(mds, schema, WRITES)) == [
        InteractionPair("md1", "md2", "R", "B"),
        InteractionPair("md2", "md2", "R", "B"),
    ]


def test_interaction_pairs_for_crossed_rules():
    schema, mds = r_schema(), parse_mds(CROSSED_RULES)
    assert interaction_pairs(validate_mds(mds, schema, WRITES)) == [
        InteractionPair("to_a", "to_b", "R", "A"),
        InteractionPair("to_b", "to_a", "R", "B"),
    ]


def test_single_rule_does_not_interact_with_itself_across_attributes():
    schema = r_schema()
    only_md1 = parse_mds("md md1: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    assert interaction_pairs(validate_mds(only_md1, schema, WRITES)) == []
    # a rule reading what it writes interacts with itself
    only_md2 = parse_mds("md md2: R(t1; x1, y1), R(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;")
    pairs = interaction_pairs(validate_mds(only_md2, schema, WRITES))
    assert pairs == [InteractionPair("md2", "md2", "R", "B")]


def test_sfai_queries_shapes():
    schema, mds = r_schema(), parse_mds(TWO_RULES)
    queries = sfai_queries(validate_mds(mds, schema, WRITES), schema)
    assert [q.name for q in queries] == ["md1__md2__R_B", "md2__md2__R_B"]
    for q in queries:
        assert q.head == ()
        assert q.distinct_tids
        assert len(q.atoms) == 3
        assert all(a.relation == "R" for a in q.atoms)
        assert len(q.sims) == 2
    assert sorted(lit.domain for lit in queries[0].sims) == ["doma", "domb"]
    assert sorted(lit.domain for lit in queries[1].sims) == ["domb", "domb"]


def test_isomorphic_embeddings_collapse_within_a_pair_only():
    schema = r_schema()
    crossed = parse_mds(CROSSED_RULES)
    queries = sfai_queries(validate_mds(crossed, schema, WRITES), schema)
    # the two pairs yield isomorphic queries, and both are kept
    assert [q.name for q in queries] == ["to_a__to_b__R_A", "to_b__to_a__R_B"]


def test_interaction_query_satisfied_on_chained_instance():
    schema, rules, instance, sim, smf = interacting_setting()
    sfai, checks = is_sfai(instance, rules, sim)
    assert not sfai
    by_name = {c.query.name: c for c in checks}
    first = by_name["md1__md2__R_B"]
    assert first.satisfied
    tids = sorted(v for k, v in first.witness.items() if k.startswith("T"))
    assert tids == ["t1", "t2", "t3"]
    assert not by_name["md2__md2__R_B"].satisfied


def test_interaction_queries_unsatisfied_on_separated_instance():
    schema, rules, instance, sim, smf = sfai_setting()
    sfai, checks = is_sfai(instance, rules, sim)
    assert sfai
    assert all(not c.satisfied for c in checks)


def test_interaction_queries_respect_distinct_identifiers():
    # with b2 ~ b2 reflexivity a two-tuple binding would satisfy the chained
    # query; distinctness of the three identifiers must prevent that
    schema, rules, instance, sim, smf = setting(
        {"doma": [("a1", "a2")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2")},
    )
    sfai, checks = is_sfai(instance, rules, sim)
    assert sfai
    relaxed = [
        type(q)(q.name, q.head, q.atoms, q.sims, distinct_tids=False)
        for q in sfai_queries(rules, schema)
    ]
    assert any(eval_cq(instance, q, sim) for q in relaxed)


def test_similarity_preservation_fails_for_plain_tables():
    schema, rules, instance, sim, smf = interacting_setting()
    preserving, cex = is_similarity_preserving(rules, sim, smf)
    assert not preserving
    dom, a, a2, a3, merged = cex
    assert dom == "domb"
    assert sim.similar(dom, a, a2)
    assert smf.try_match(dom, a2, a3) == merged
    assert not sim.similar(dom, a, merged)


def test_similarity_preservation_includes_reflexive_pairs():
    # no declared pairs at all: a ~ a still requires a ~ m(a, a''),
    # which a plain table immediately breaks
    schema, rules, instance, sim, smf = setting(
        {},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2")},
    )
    preserving, cex = is_similarity_preserving(rules, sim, smf)
    assert not preserving
    dom, a, a2, a3, merged = cex
    assert a == a2  # reflexive pair is the earliest counterexample


def test_similarity_preservation_trivial_when_nothing_merges():
    schema, rules, instance, sim, smf = setting(
        {},
        {"t1": ("a1", "b1")},
        mf_table={"domb": []},
    )
    preserving, cex = is_similarity_preserving(rules, sim, smf)
    assert preserving and cex is None


def test_token_union_with_token_overlap_preserves_similarity():
    schema = Schema.parse("R(A: doma, B: toks)")
    mds = parse_mds(
        "md md1: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n"
        "md md2: R(t1; x1, y1), R(t2; x2, y2), y1 ~toks~ y2 -> y1 := y2;"
    )
    sim = SimilarityRelation({"doma": [("a1", "a2")]}, {"toks": "token-overlap"})
    instance = Instance(
        schema,
        {"R": {"t1": ("a1", "main st"), "t2": ("a2", "main ave"), "t3": ("a3", "elm rd")}},
    )
    mf = MatchingFunction(builtins={"toks": "token-union"})
    smf = mf.saturate(collect_active_values(instance, sim))
    rules = validate_mds(mds, schema, mf)
    preserving, cex = is_similarity_preserving(rules, sim, smf)
    assert preserving, cex
    result = classify(instance, rules, sim, smf)
    assert result.verdict is Verdict.SIMILARITY_PRESERVING
    assert result.pairs  # interacting, but safely so


def test_classify_verdicts():
    schema, rules, instance, sim, smf = interacting_setting()
    assert classify(instance, rules, sim, smf).verdict is Verdict.GENERAL

    schema, rules, instance, sim, smf = sfai_setting()
    result = classify(instance, rules, sim, smf)
    assert result.verdict is Verdict.SFAI
    assert len(result.queries) == 2

    only_md1 = parse_mds("md md1: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    schema2, _, instance2, sim2, smf2 = interacting_setting()
    result2 = classify(instance2, validate_mds(only_md1, schema2, WRITES), sim2, smf2)
    assert result2.verdict is Verdict.NON_INTERACTING
    assert result2.pairs == ()
    assert result2.queries == ()


def test_classification_json_report():
    schema, rules, instance, sim, smf = interacting_setting()
    report = classify(instance, rules, sim, smf).to_json_dict()
    assert report["verdict"] == "general"
    assert report["interaction_pairs"] == [
        {"writer": "md1", "reader": "md2", "attribute": "R[B]"},
        {"writer": "md2", "reader": "md2", "attribute": "R[B]"},
    ]
    assert report["queries"][0]["satisfied"] is True
    assert "witness" in report["queries"][0]
    assert report["queries"][1]["satisfied"] is False
    assert "witness" not in report["queries"][1]
    assert "preservation_counterexample" in report

    schema, rules, instance, sim, smf = sfai_setting()
    report = classify(instance, rules, sim, smf).to_json_dict()
    assert report["verdict"] == "sfai"
    assert all(not q["satisfied"] for q in report["queries"])


def test_relational_rule_with_disjoint_write_read_is_non_interacting():
    schema = Schema.parse(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )
    mds = parse_mds(
        "md coblock: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),"
        " lead Author(t2; x2, y2, bl2), Paper(t4; p2, z2, bl4),"
        " x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2"
        " -> bl1 := bl2;"
    )
    assert interaction_pairs(validate_mds(mds, schema, WRITES)) == []
    assert sfai_queries(validate_mds(mds, schema, WRITES), schema) == []


def test_a_reader_variable_that_meets_two_writer_variables_makes_them_one():
    schema = Schema.parse("R(A: d, B: d, C: e)")
    rules = validate_mds(parse_mds(
        "md w: lead R(t1; a1, b1, c1), lead R(t2; a2, b2, c2), c1 ~e~ c2 -> b1 := b2;\n"
        "md r: lead R(t1; x1, x1, z1), lead R(t2; x2, y2, z2), x1 ~d~ x2 -> z1 := z2;\n"
    ), schema, MatchingFunction(builtins={"d": "value-min", "e": "value-min"}))
    queries = {q.name: q for q in sfai_queries(rules, schema)}
    assert "w__r__R_B" in queries
    written = queries["w__r__R_B"].atoms[0]
    assert written.args[1] == written.args[2]


def test_twin_related_embeddings_share_a_class_without_a_search(monkeypatch):
    # each rule writes B through either of its two leading atoms, and md2
    # reads B through either of its two: each rule's swap exchanges them,
    # so a pair's four embeddings have one orbit pair and one class
    setting = fixture_setting("convergent")
    instance, rules = setting[:2]
    for pair in interaction_pairs(rules):
        writer, reader = (next(r for r in rules if r.md.name == n) for n in (pair.writer, pair.reader))
        orbits = [orbit for orbit, _ in _embeddings(writer, reader, pair, instance.schema)]
        assert len(orbits) == 4 and len(set(orbits)) == 1
    searches = []
    search = _Body.isomorphic_to
    monkeypatch.setattr(_Body, "isomorphic_to", lambda a, b: searches.append(b) or search(a, b))
    result = classify(*setting)
    assert searches == []
    assert [c.query for c in result.queries] == naive_match.sfai_queries_by_key(rules, instance.schema)
    assert [c.query.name for c in result.queries] == ["md1__md2__R_B", "md2__md2__R_B"]


def test_is_sfai_evaluates_its_queries_as_one_program(monkeypatch):
    calls = []
    evaluate = query.evaluate
    monkeypatch.setattr(query, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
    instance, rules, sim, _ = fixture_setting("convergent")
    sfai, checks = is_sfai(instance, rules, sim)
    assert len(checks) == 2 and len(calls) == 1
    calls.clear()
    # no rule reads what another writes: no query, and nothing to evaluate
    instance, rules, sim, _ = fixture_setting("bibliography")
    assert is_sfai(instance, rules, sim) == (True, [])
    assert calls == []
