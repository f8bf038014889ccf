"""Chase enforcement: step discovery, enforcement, exhaustive and seeded runs."""

import itertools
import math
import time

import pytest

from mdclean import model
from mdclean.chase import ChaseEngine, EnforcementStep, rule_priority
from mdclean.errors import (
    InstanceTooLarge,
    StepLimitExceeded,
    StepNotApplicable,
    UndefinedMatch,
)
from mdclean.mdlang import parse_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

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


def engine(sim_pairs, rows, mf_table=None, rules=TWO_RULES):
    schema = Schema.parse("R(A: doma, B: domb)")
    mds = parse_mds(rules)
    sim = SimilarityRelation(sim_pairs)
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction(mf_table if mf_table is not None else MF_TABLE)
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    return ChaseEngine(schema, mds, sim, smf), instance


def interacting():
    return engine(
        {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
    )


def convergent():
    return engine(
        {"doma": [("a1", "a2")], "domb": [("b3", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3"), "t4": ("a4", "b4")},
    )


def by_tid(instance):
    return {tid: vals for _, tid, vals in instance.iter_tuples()}


def history_from(eng, instance, path):
    """Each tuple's successive value vectors, replaying the steps from `instance`."""
    history = {
        rel: {tid: (vals,) for tid, vals in rows.items()}
        for rel, rows in instance.tuples.items()
    }
    for step in path:
        instance = eng.enforce(instance, step)
        for rel, tid, vals in instance.iter_tuples():
            if history[rel][tid][-1] != vals:
                history[rel][tid] += (vals,)
    return history


def test_applicable_steps_on_interacting_start():
    eng, inst = interacting()
    steps = eng.applicable_steps(inst)
    assert [(s.md, s.lead_tids, s.new_value) for s in steps] == [
        ("md1", ("t1", "t2"), "b12"),
        ("md2", ("t2", "t3"), "b23"),
    ]


def test_enforce_updates_both_tuples_and_history():
    eng, inst = interacting()
    steps = eng.applicable_steps(inst)
    after = eng.enforce(inst, steps[0])
    assert by_tid(after) == {"t1": ("a1", "b12"), "t2": ("a2", "b12"), "t3": ("a3", "b3")}
    history = history_from(eng, inst, steps[:1])
    assert history["R"]["t1"] == (("a1", "b1"), ("a1", "b12"))
    assert history["R"]["t3"] == (("a3", "b3"),)
    assert by_tid(inst)["t1"] == ("a1", "b1")


def test_enforcement_chain_through_merged_values():
    eng, inst = interacting()
    second = next(s for s in eng.applicable_steps(inst) if s.md == "md2")
    mid = eng.enforce(inst, second)
    assert by_tid(mid) == {"t1": ("a1", "b1"), "t2": ("a2", "b23"), "t3": ("a3", "b23")}
    follow = eng.applicable_steps(mid)
    assert [(s.md, s.lead_tids, s.new_value) for s in follow] == [
        ("md1", ("t1", "t2"), "b123")
    ]
    final = eng.enforce(mid, follow[0])
    assert by_tid(final) == {"t1": ("a1", "b123"), "t2": ("a2", "b123"), "t3": ("a3", "b23")}
    assert eng.is_stable(final)


def test_enforce_rejects_stale_or_agreeing_steps():
    eng, inst = interacting()
    step = eng.applicable_steps(inst)[0]
    after = eng.enforce(inst, step)
    with pytest.raises(StepNotApplicable):
        eng.enforce(after, step)  # values moved on
    agree = EnforcementStep("md1", ("t1", "t2"), (), ("b12", "b12"), "b12")
    with pytest.raises(StepNotApplicable):
        eng.enforce(after, agree)


def test_chase_all_interacting_yields_two_endpoints():
    eng, inst = interacting()
    result = eng.chase_all(inst)
    endpoints = sorted(tuple(sorted(by_tid(i).items())) for i in result.instances)
    assert endpoints == [
        (("t1", ("a1", "b12")), ("t2", ("a2", "b12")), ("t3", ("a3", "b3"))),
        (("t1", ("a1", "b123")), ("t2", ("a2", "b123")), ("t3", ("a3", "b23"))),
    ]
    assert all(eng.is_stable(i) for i in result.instances)
    # each witness sequence replays to its endpoint
    for endpoint, seq in zip(result.instances, result.sequences):
        replay = inst
        for step in seq:
            replay = eng.enforce(replay, step)
        assert by_tid(replay) == by_tid(endpoint)


def test_chase_all_convergent_yields_single_endpoint():
    eng, inst = convergent()
    result = eng.chase_all(inst)
    assert len(result.instances) == 1
    assert by_tid(result.instances[0]) == {
        "t1": ("a1", "b12"),
        "t2": ("a2", "b12"),
        "t3": ("a3", "b34"),
        "t4": ("a4", "b34"),
    }


def test_chase_all_empty_rule_set_returns_input():
    eng, inst = engine({}, {"t1": ("a1", "b1")}, rules="")
    result = eng.chase_all(inst)
    assert len(result.instances) == 1
    assert by_tid(result.instances[0]) == {"t1": ("a1", "b1")}
    assert result.sequences == ((),)


def test_chase_all_is_exploration_order_independent():
    class ReversedEngine(ChaseEngine):
        def applicable_steps(self, instance):
            return list(reversed(super().applicable_steps(instance)))

    eng, inst = interacting()
    schema, mds, sim, smf = eng.schema, eng.mds, eng.sim, eng.smf
    rev = ReversedEngine(schema, mds, sim, smf)
    canonical = {i.canonical_key() for i in eng.chase_all(inst).instances}
    reversed_keys = {i.canonical_key() for i in rev.chase_all(inst).instances}
    assert canonical == reversed_keys


def test_chase_one_seed_selects_rule_priority():
    eng, inst = interacting()
    first = eng.chase_one(inst, seed=0)
    assert by_tid(first.instances[0]) == {
        "t1": ("a1", "b12"),
        "t2": ("a2", "b12"),
        "t3": ("a3", "b3"),
    }
    second = eng.chase_one(inst, seed=1)
    assert by_tid(second.instances[0]) == {
        "t1": ("a1", "b123"),
        "t2": ("a2", "b123"),
        "t3": ("a3", "b23"),
    }
    # seeds agree when every order converges
    eng2, inst2 = convergent()
    assert by_tid(eng2.chase_one(inst2, seed=0).instances[0]) == by_tid(
        eng2.chase_one(inst2, seed=5).instances[0]
    )


def test_rule_priority_unranks_the_permutation_order():
    for k in range(6):
        names = [f"m{i}" for i in range(k)]
        perms = list(itertools.permutations(names))
        for seed in range(-1, 2 * len(perms)):
            assert rule_priority(names, seed) == list(perms[seed % len(perms)])


def test_chase_one_with_twelve_rules_and_the_last_seed_returns_quickly():
    rules = "".join(
        f"md m{i}: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n"
        for i in range(12)
    )
    eng, inst = engine({"doma": [("a1", "a2")]}, {"t1": ("a1", "b1"), "t2": ("a2", "b2")},
                       rules=rules)
    start = time.perf_counter()
    result = eng.chase_one(inst, seed=math.factorial(12) - 1)
    assert time.perf_counter() - start < 1.0
    # the last seed ranks the rules in reverse
    assert [step.md for step in result.sequences[0]] == ["m11"]
    assert by_tid(result.instances[0]) == {"t1": ("a1", "b12"), "t2": ("a2", "b12")}


def test_chase_one_never_closes_token_union_values(monkeypatch):
    def closure(active):
        raise AssertionError("token-union values closed")

    monkeypatch.setattr(model, "_token_union_closure", closure)
    schema = Schema.parse("R(A: grp, B: toks)")
    mds = parse_mds("md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;")
    sim = SimilarityRelation()
    instance = Instance(schema, {"R": {"t1": ("g", "a b"), "t2": ("g", "b c"), "t3": ("h", "d")}})
    mf = MatchingFunction(builtins={"toks": "token-union"})
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    result = ChaseEngine(schema, mds, sim, smf).chase_one(instance)
    assert by_tid(result.instances[0]) == {
        "t1": ("g", "a b c"), "t2": ("g", "a b c"), "t3": ("h", "d"),
    }
    with pytest.raises(AssertionError, match="closed"):
        smf.values("toks")


def test_chase_one_endpoint_is_stable_and_monotone():
    eng, inst = interacting()
    result = eng.chase_one(inst, seed=1)
    assert eng.is_stable(result.instances[0])
    for step in result.sequences[0]:
        for old in step.old_values:
            assert eng.smf.precedes("domb", old, step.new_value)


def test_step_limit_guard():
    eng, inst = interacting()
    with pytest.raises(StepLimitExceeded):
        eng.chase_all(inst, step_limit=1)
    with pytest.raises(StepLimitExceeded):
        eng.chase_one(inst, seed=0, step_limit=0)


def test_enumeration_gate():
    rows = {f"t{i}": (f"a{i}", f"b{i}") for i in range(13)}
    eng, inst = engine({}, rows, mf_table={"domb": []})
    with pytest.raises(InstanceTooLarge):
        eng.chase_all(inst)
    del rows["t12"]
    eng, inst = engine({}, rows, mf_table={"domb": []})
    assert len(eng.chase_all(inst).instances) == 1


def test_undefined_match_aborts_with_pair():
    eng, inst = engine(
        {"domb": [("b1", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b4")},
    )
    with pytest.raises(UndefinedMatch) as err:
        eng.applicable_steps(inst)
    assert err.value.pair == ("b1", "b4")
    assert err.value.domain == "domb"


def test_relational_context_join_gates_enforcement():
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
    sim = SimilarityRelation(
        {
            "name": [("j smith", "john smith"), ("a jones", "anne jones")],
            "title": [
                ("er overview", "entity resolution"),
                ("er survey", "entity resolution"),
                ("er overview", "er survey"),
                ("er study", "entity resolution"),
                ("matching study", "entity matching"),
                ("er study", "matching study"),
            ],
        }
    )
    instance = Instance(
        schema,
        {
            "Author": {
                "a1": ("j smith", "er overview", "k1"),
                "a2": ("john smith", "er survey", "k2"),
                "a3": ("a jones", "er study", "k3"),
                "a4": ("anne jones", "matching study", "k4"),
            },
            "Paper": {
                "p1": ("entity resolution", "v1", "pb1"),
                "p2": ("entity matching", "v2", "pb2"),
            },
        },
    )
    mf = MatchingFunction({"blk": [("k1", "k2", "k12"), ("k3", "k4", "k34")]})
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    eng = ChaseEngine(schema, mds, sim, smf)

    steps = eng.applicable_steps(instance)
    # the smiths share one paper, hence one block; the joneses' papers differ
    assert [(s.md, s.lead_tids, s.context_tids) for s in steps] == [
        ("coblock", ("a1", "a2"), ("p1", "p1"))
    ]
    result = eng.chase_all(instance)
    assert len(result.instances) == 1
    clean = result.instances[0]
    assert clean.value_of("Author", "a1", "ABlock") == "k12"
    assert clean.value_of("Author", "a2", "ABlock") == "k12"
    assert clean.value_of("Author", "a3", "ABlock") == "k3"
    assert clean.value_of("Author", "a4", "ABlock") == "k4"

    # moving the second paper into the first block enables the second merge
    moved = instance.with_updates({("Paper", "p2"): ("entity matching", "v2", "pb1")})
    result2 = eng.chase_all(moved)
    assert len(result2.instances) == 1
    assert result2.instances[0].value_of("Author", "a3", "ABlock") == "k34"
    assert result2.instances[0].value_of("Author", "a4", "ABlock") == "k34"


def test_step_json_shape():
    step = EnforcementStep("md1", ("t1", "t2"), ("p1",), ("b1", "b2"), "b12")
    assert step.to_json_dict() == {
        "md": "md1",
        "tuples": ["t1", "t2"],
        "old": ["b1", "b2"],
        "new": "b12",
        "context": ["p1"],
    }
