"""Interaction analysis and single-clean-instance classification."""

from mdclean.classify import (
    InteractionPair,
    Verdict,
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


def r_schema():
    return Schema.parse("R(A: doma, B: domb)")


def setting(sim_pairs, rows, rules=TWO_RULES, mf_table=None):
    schema = r_schema()
    mds = parse_mds(rules)
    sim = SimilarityRelation(sim_pairs)
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction(mf_table if mf_table is not None else MF_TABLE)
    return schema, mds, instance, sim, mf.saturate(collect_active_values(schema, instance, sim, mf))


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
    assert interaction_pairs(validate_mds(mds, schema)) == [
        InteractionPair("md1", "md2", "R", "B"),
        InteractionPair("md2", "md2", "R", "B"),
    ]


def test_interaction_pairs_for_crossed_rules():
    schema, mds = r_schema(), parse_mds(CROSSED_RULES)
    assert interaction_pairs(validate_mds(mds, schema)) == [
        InteractionPair("to_a", "to_b", "R", "A"),
        InteractionPair("to_b", "to_a", "R", "B"),
    ]


def test_single_rule_does_not_interact_with_itself_across_attributes():
    schema = r_schema()
    only_md1 = parse_mds("md md1: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    assert interaction_pairs(validate_mds(only_md1, schema)) == []
    # a rule reading what it writes interacts with itself
    only_md2 = parse_mds("md md2: R(t1; x1, y1), R(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;")
    assert interaction_pairs(validate_mds(only_md2, schema)) == [InteractionPair("md2", "md2", "R", "B")]


def test_sfai_queries_shapes():
    schema, mds = r_schema(), parse_mds(TWO_RULES)
    queries = sfai_queries(validate_mds(mds, schema), schema)
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
    queries = sfai_queries(validate_mds(crossed, schema), schema)
    # the two pairs yield isomorphic queries, and both are kept
    assert [q.name for q in queries] == ["to_a__to_b__R_A", "to_b__to_a__R_B"]


def test_interaction_query_satisfied_on_chained_instance():
    schema, mds, instance, sim, smf = interacting_setting()
    sfai, checks = is_sfai(validate_mds(mds, schema), schema, instance, sim)
    assert not sfai
    by_name = {c.query.name: c for c in checks}
    first = by_name["md1__md2__R_B"]
    assert first.satisfied
    tids = sorted(v for k, v in first.witness.items() if k.startswith("T"))
    assert tids == ["t1", "t2", "t3"]
    assert not by_name["md2__md2__R_B"].satisfied


def test_interaction_queries_unsatisfied_on_separated_instance():
    schema, mds, instance, sim, smf = sfai_setting()
    sfai, checks = is_sfai(validate_mds(mds, schema), schema, instance, sim)
    assert sfai
    assert all(not c.satisfied for c in checks)


def test_interaction_queries_respect_distinct_identifiers():
    # with b2 ~ b2 reflexivity a two-tuple binding would satisfy the chained
    # query; distinctness of the three identifiers must prevent that
    schema, mds, instance, sim, smf = setting(
        {"doma": [("a1", "a2")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2")},
    )
    sfai, checks = is_sfai(validate_mds(mds, schema), schema, instance, sim)
    assert sfai
    relaxed = [
        type(q)(q.name, q.head, q.atoms, q.sims, distinct_tids=False)
        for q in sfai_queries(validate_mds(mds, schema), schema)
    ]
    assert any(eval_cq(instance, q, sim) for q in relaxed)


def test_similarity_preservation_fails_for_plain_tables():
    schema, mds, instance, sim, smf = interacting_setting()
    preserving, cex = is_similarity_preserving(validate_mds(mds, schema), sim, smf)
    assert not preserving
    dom, a, a2, a3, merged = cex
    assert dom == "domb"
    assert sim.similar(dom, a, a2)
    assert smf.match(dom, a2, a3) == merged
    assert not sim.similar(dom, a, merged)


def test_similarity_preservation_includes_reflexive_pairs():
    # no declared pairs at all: a ~ a still requires a ~ m(a, a''),
    # which a plain table immediately breaks
    schema, mds, instance, sim, smf = setting(
        {},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2")},
    )
    preserving, cex = is_similarity_preserving(validate_mds(mds, schema), sim, smf)
    assert not preserving
    dom, a, a2, a3, merged = cex
    assert a == a2  # reflexive pair is the earliest counterexample


def test_similarity_preservation_trivial_when_nothing_merges():
    schema, mds, instance, sim, smf = setting(
        {},
        {"t1": ("a1", "b1")},
        mf_table={"domb": []},
    )
    preserving, cex = is_similarity_preserving(validate_mds(mds, schema), sim, smf)
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
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    preserving, cex = is_similarity_preserving(validate_mds(mds, schema), sim, smf)
    assert preserving, cex
    result = classify(mds, schema, instance, sim, smf)
    assert result.verdict is Verdict.SIMILARITY_PRESERVING
    assert result.pairs  # interacting, but safely so


def test_classify_verdicts():
    schema, mds, instance, sim, smf = interacting_setting()
    assert classify(mds, schema, instance, sim, smf).verdict is Verdict.GENERAL

    schema, mds, instance, sim, smf = sfai_setting()
    result = classify(mds, schema, instance, sim, smf)
    assert result.verdict is Verdict.SFAI
    assert len(result.queries) == 2

    only_md1 = parse_mds("md md1: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    schema2, _, instance2, sim2, smf2 = interacting_setting()
    result2 = classify(only_md1, schema2, instance2, sim2, smf2)
    assert result2.verdict is Verdict.NON_INTERACTING
    assert result2.pairs == ()
    assert result2.queries == ()


def test_classification_json_report():
    schema, mds, instance, sim, smf = interacting_setting()
    report = classify(mds, schema, instance, sim, smf).to_json_dict()
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

    schema, mds, instance, sim, smf = sfai_setting()
    report = classify(mds, schema, instance, sim, smf).to_json_dict()
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
    assert interaction_pairs(validate_mds(mds, schema)) == []
    assert sfai_queries(validate_mds(mds, schema), schema) == []
