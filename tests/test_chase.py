"""Chase enforcement: step discovery, enforcement, exhaustive and seeded runs."""

import itertools
import math
import operator
import random
import time
from pathlib import Path

import pytest

from mdclean import chase, unions
from mdclean.chase import ChaseEngine, EnforcementStep, _Agenda, rule_priority
from mdclean.datalog import _TEST, Database, Program, Rule, evaluate, fire_rules
from mdclean.errors import (
    StepLimitExceeded,
    StepNotApplicable,
    UndefinedMatch,
    ValidationError,
)
from mdclean.mdlang import BoundMD, load_mds, md_body, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.query import instance_facts, relation_pred

from fixture_edits import fixture_setting, with_p2_in_first_block
from population import random_setting

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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


def engine(sim_pairs, rows, mf_table=None, rules=TWO_RULES, engine_class=ChaseEngine):
    schema = Schema.parse("R(A: doma, B: domb)")
    sim = SimilarityRelation(sim_pairs)
    instance = Instance(schema, {"R": rows})
    mf = MatchingFunction(mf_table if mf_table is not None else MF_TABLE)
    bound = validate_mds(parse_mds(rules), schema, mf)
    smf = mf.saturate(collect_active_values(instance, sim))
    return engine_class(bound, sim, smf), instance


def interacting(engine_class=ChaseEngine):
    return engine(
        {"doma": [("a1", "a2")], "domb": [("b2", "b3")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b3")},
        engine_class=engine_class,
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
    assert eng.applicable_steps(final) == []


def test_enforce_rejects_stale_or_agreeing_steps():
    eng, inst = interacting()
    step = eng.applicable_steps(inst)[0]
    after = eng.enforce(inst, step)
    with pytest.raises(StepNotApplicable, match="values are now"):
        eng.enforce(after, step)  # values moved on
    agree = EnforcementStep("md1", ("t1", "t2"), (), ("b12", "b12"), "b12")
    with pytest.raises(StepNotApplicable, match="already agree"):
        eng.enforce(after, agree)
    unknown = EnforcementStep("md9", ("t1", "t2"), (), ("b1", "b2"), "b12")
    with pytest.raises(ValidationError, match="unknown rule 'md9'"):
        eng.enforce(inst, unknown)
    missing = EnforcementStep("md1", ("t1", "t9"), (), ("b1", "b2"), "b12")
    with pytest.raises(StepNotApplicable, match="missing tuples"):
        eng.enforce(inst, missing)


def test_enforce_rejects_a_leading_tuple_of_the_other_relation():
    eng, instance = fixture_engine("crossrel")
    step = eng.applicable_steps(instance)[0]
    assert (step.md, step.lead_tids) == ("cross", ("r1", "s1"))
    swapped = EnforcementStep("cross", ("s1", "r1"), (), step.old_values[::-1], step.new_value)
    with pytest.raises(StepNotApplicable, match="missing tuples"):
        eng.enforce(instance, swapped)
    after = eng.enforce(instance, step)
    assert after.tuples["R"]["r1"] == ("a1", "b12") and after.tuples["S"]["s1"] == ("b12", "a2")


def test_chase_all_interacting_yields_two_endpoints():
    eng, inst = interacting()
    result = eng.chase_all(inst)
    endpoints = sorted(tuple(sorted(by_tid(i).items())) for i in result.instances)
    assert endpoints == [
        (("t1", ("a1", "b12")), ("t2", ("a2", "b12")), ("t3", ("a3", "b3"))),
        (("t1", ("a1", "b123")), ("t2", ("a2", "b123")), ("t3", ("a3", "b23"))),
    ]
    assert all(eng.applicable_steps(i) == [] for i in result.instances)
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
    # `_listed` hands `chase_all` the steps of each state it visits
    class ReversedEngine(ChaseEngine):
        def _listed(self, agenda):
            return list(reversed(super()._listed(agenda)))

    eng, inst = interacting()
    rev, _ = interacting(ReversedEngine)
    canonical = {tuple(i.iter_tuples()) for i in eng.chase_all(inst).instances}
    reversed_keys = {tuple(i.iter_tuples()) for i in rev.chase_all(inst).instances}
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
    def spellings(self):
        raise AssertionError("token-union values closed")

    monkeypatch.setattr(unions.TokenUnions, "_spellings", spellings)
    schema = Schema.parse("R(A: grp, B: toks)")
    mf = MatchingFunction(builtins={"toks": "token-union"})
    md = "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;"
    rules = validate_mds(parse_mds(md), schema, mf)
    sim = SimilarityRelation()
    instance = Instance(schema, {"R": {"t1": ("g", "a b"), "t2": ("g", "b c"), "t3": ("h", "d")}})
    smf = mf.saturate(collect_active_values(instance, sim))
    result = ChaseEngine(rules, sim, smf).chase_one(instance)
    assert by_tid(result.instances[0]) == {
        "t1": ("g", "a b c"), "t2": ("g", "a b c"), "t3": ("h", "d"),
    }
    with pytest.raises(AssertionError, match="closed"):
        list(smf.values("toks"))


def test_chase_one_endpoint_is_stable_and_monotone():
    eng, inst = interacting()
    result = eng.chase_one(inst, seed=1)
    assert eng.applicable_steps(result.instances[0]) == []
    for step in result.sequences[0]:
        for old in step.old_values:
            assert eng.smf.domain("domb")[1](old, step.new_value)


def test_step_limit_guard():
    eng, inst = interacting()
    with pytest.raises(StepLimitExceeded):
        eng.chase_all(inst, step_limit=1)
    with pytest.raises(StepLimitExceeded):
        eng.chase_one(inst, seed=0, step_limit=0)


def test_both_chases_charge_one_step_budget_alike():
    # every state has at most one step, so both chases follow the same path
    eng, inst = engine({"doma": [("a1", "a2")]}, {"t1": ("a1", "b1"), "t2": ("a2", "b2")})
    for run in (eng.chase_all, eng.chase_one):
        with pytest.raises(StepLimitExceeded, match="exceeded 0 enforcement steps"):
            run(inst, step_limit=0)
        result = run(inst, step_limit=1)
        assert [len(seq) for seq in result.sequences] == [1]
        assert by_tid(result.instances[0]) == {"t1": ("a1", "b12"), "t2": ("a2", "b12")}


def test_the_step_budget_alone_bounds_chase_all():
    # tuples sharing an `A` value form one block, in which the value-min
    # merges of `B` can happen in any order
    schema = Schema.parse("R(A: doma, B: domb)")
    sim, mf = SimilarityRelation({}), MatchingFunction(builtins={"domb": "value-min"})
    md = "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;"
    rules = validate_mds(parse_mds(md), schema, mf)

    def chase_all(blocks):
        rows = {f"t{i:02}": (f"a{block}", f"b{i:02}") for i, block in enumerate(blocks)}
        instance = Instance(schema, {"R": rows})
        smf = mf.saturate(collect_active_values(instance, sim))
        return ChaseEngine(rules, sim, smf).chase_all(instance)

    # 13 tuples with no step between them
    assert len(chase_all(range(13)).instances) == 1
    # 7 independent two-tuple blocks: 2^7 states, one endpoint
    (clean,) = chase_all([i // 2 for i in range(14)]).instances
    assert set(by_tid(clean).values()) == {(f"a{i}", f"b{2 * i:02}") for i in range(7)}
    # one block of 13 tuples needs more steps than the default budget
    with pytest.raises(StepLimitExceeded):
        chase_all([0] * 13)


def test_undefined_match_aborts_with_pair():
    eng, inst = engine(
        {"domb": [("b1", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b4")},
    )
    # the step is listed, and refused only when enforced
    (step,) = eng.applicable_steps(inst)
    assert step.old_values == ("b1", "b4") and step.new_value is None
    for run in (lambda: eng.enforce(inst, step), lambda: eng.chase_one(inst)):
        with pytest.raises(UndefinedMatch) as err:
            run()
        assert err.value.pair == ("b1", "b4")
        assert err.value.domain == "domb"


def test_relational_context_join_gates_enforcement():
    schema = Schema.parse(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )
    rules = validate_mds(parse_mds(
        "md coblock: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),"
        " lead Author(t2; x2, y2, bl2), Paper(t4; p2, z2, bl4),"
        " x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2"
        " -> bl1 := bl2;"
    ), schema, MatchingFunction(builtins={"blk": "value-min"}))
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
    smf = mf.saturate(collect_active_values(instance, sim))
    eng = ChaseEngine(rules, sim, smf)

    steps = eng.applicable_steps(instance)
    # the smiths share one paper, hence one block; the joneses' papers differ
    assert [(s.md, s.lead_tids, s.context_tids) for s in steps] == [
        ("coblock", ("a1", "a2"), ("p1", "p1"))
    ]
    result = eng.chase_all(instance)
    assert len(result.instances) == 1
    blocks = {tid: vals[2] for tid, vals in result.instances[0].tuples["Author"].items()}
    assert blocks == {"a1": "k12", "a2": "k12", "a3": "k3", "a4": "k4"}

    # moving the second paper into the first block enables the second merge
    moved = with_p2_in_first_block(instance)
    result2 = eng.chase_all(moved)
    assert len(result2.instances) == 1
    moved_blocks = result2.instances[0].tuples["Author"]
    assert moved_blocks["a3"][2] == moved_blocks["a4"][2] == "k34"


def test_step_json_shape():
    step = EnforcementStep("md1", ("t1", "t2"), ("p1",), ("b1", "b2"), "b12")
    assert step.to_json_dict() == {
        "md": "md1",
        "tuples": ["t1", "t2"],
        "old": ["b1", "b2"],
        "new": "b12",
        "context": ["p1"],
    }


# -- the step rule of a swap-symmetric rule ---------------------------------


def test_a_swap_symmetric_step_rule_derives_one_orientation_of_each_match():
    # mirroring a row swaps the leading tuples, the papers (t3 with t4) and
    # the values, as swapping `coblock`'s leading atoms renames its body
    instance, (rule,), sim, smf = fixture_setting("bibliography")
    assert rule.swap_symmetric()
    program = ChaseEngine([rule], sim, smf)._program
    unguarded = Program(
        [Rule(program.rules[0].heads, tuple(md_body(rule, relation_pred)))], program.builtins
    )
    for state in (instance, with_p2_in_first_block(instance)):
        db = Database(instance_facts(state))
        rows = fire_rules(program, [0], db, None)["step_0"]
        mirrors = {(t2, t1, c4, c3, v2, v1) for t1, t2, c3, c4, v1, v2 in rows}
        assert rows and all(row[0] < row[1] for row in rows)
        assert not rows & mirrors
        assert rows | mirrors == fire_rules(unguarded, [0], db, None)["step_0"]


def test_an_engine_asks_each_rule_for_its_swap_symmetry_once(monkeypatch):
    asked = []
    swap_symmetric = BoundMD.swap_symmetric
    monkeypatch.setattr(BoundMD, "swap_symmetric", lambda rule: asked.append(rule.md.name) or swap_symmetric(rule))
    instance, rules, sim, smf = fixture_setting("convergent")
    eng = ChaseEngine(rules, sim, smf)
    assert asked == ["md1", "md2"]
    steps = eng.applicable_steps(instance)
    eng.enforce(instance, steps[0])
    eng.chase_one(instance, seed=1)
    eng.chase_all(instance)
    assert asked == ["md1", "md2"]


def test_the_identifier_guard_runs_before_the_similarities():
    instance, rules, sim, smf = fixture_setting("bibliography")
    program = ChaseEngine(rules, sim, smf)._program
    # a full round, and a round reading either leading atom's new versions
    for first in (None, 0, 1):
        tests = [op[1] for _, ops in program.plan(0, first).levels for op in ops if op[0] == _TEST]
        assert tests[0] is operator.lt
        assert len(tests) == 5 and operator.lt not in tests[1:]


# -- the agenda against evaluation from scratch -----------------------------


class AgendaOracle(ChaseEngine):
    """Checks the chase's database and agenda at every state it visits: the
    database holds exactly that state's `rel_*` facts, so no old version and
    no step row is in it, and the agenda is the one built from the step
    rules' rows in the model `evaluate` computes over the state from
    scratch, and so are its steps."""

    visited = 0

    def _move(self, layout, db, agenda, held, state):
        super()._move(layout, db, agenda, held, state)
        instance = layout.instance(state)
        facts = {pred: set(ts) for pred, ts in instance_facts(instance).items() if ts}
        assert db.relations == facts
        scratch = _Agenda(self._sorts, self._heads)
        scratch.add(evaluate(self._program, facts).relations)
        assert vars(agenda) == vars(scratch)
        assert self._listed(agenda) == self.applicable_steps(instance)
        self.visited += 1


def chase_every_way(eng, instance) -> None:
    """`chase_one` under every rule order, checking that each step it takes
    is the least applicable one under that order, and `chase_all`."""
    names = list(eng._rules)
    for seed in range(math.factorial(len(names))):
        rank = rule_priority(names, seed).index
        result = eng.chase_one(instance, seed=seed)
        current = instance
        for step in result.sequences[0]:
            steps = eng.applicable_steps(current)
            assert step == min(steps, key=lambda s: (rank(s.md), s.lead_tids))
            current = eng.enforce(current, step)
        assert eng.applicable_steps(current) == []
        assert by_tid(current) == by_tid(result.instances[0])
    eng.chase_all(instance)


def fixture_engine(name):
    d = FIXTURES / name
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    smf = mf.saturate(collect_active_values(instance, sim))
    return AgendaOracle(validate_mds(load_mds(d / "mds.txt"), schema, mf), sim, smf), instance


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_agenda_equals_discovery_from_scratch_on_the_fixtures(name):
    eng, instance = fixture_engine(name)
    chase_every_way(eng, instance)
    assert eng.visited > 2


def test_agenda_equals_discovery_from_scratch_over_the_population():
    # the acceptance tests' random population
    rng = random.Random(20260823)
    visited = 0
    for _ in range(745):
        s = random_setting(rng)
        eng = AgendaOracle(s.rules, s.sim, s.smf)
        chase_every_way(eng, s.instance)
        visited += eng.visited
    assert visited > 10000


def test_agenda_lists_context_witnesses_and_undefined_merges():
    eng, instance = fixture_engine("bibliography")
    moved = with_p2_in_first_block(instance)
    chase_every_way(eng, moved)
    assert eng.visited > 2
    # the first merge makes a similarity whose merge the table leaves undefined
    eng, inst = engine(
        {"domb": [("b1", "b2"), ("b12", "b4")]},
        {"t1": ("a1", "b1"), "t2": ("a2", "b2"), "t3": ("a3", "b4")},
        engine_class=AgendaOracle,
    )
    with pytest.raises(UndefinedMatch) as err:
        eng.chase_all(inst)
    assert err.value.pair == ("b12", "b4")
    assert eng.visited == 2


def test_agenda_drops_rows_whose_context_tuple_is_rewritten():
    # `ms` moves s1 off the value that made it `mr`'s context witness
    schema = Schema.parse("R(A: doma, B: domb)\nS(A: doma, C: domc)")
    mf = MatchingFunction(builtins={"doma": "value-min", "domb": "value-min"})
    rules = validate_mds(parse_mds(
        "md mr: lead R(t1; x1, y1), lead R(t2; x2, y2), S(t3; x1, c3), x1 ~doma~ x2"
        " -> y1 := y2;\n"
        "md ms: lead S(t1; u1, c1), lead S(t2; u2, c2), c1 ~domc~ c2 -> u1 := u2;"
    ), schema, mf)
    sim = SimilarityRelation({"doma": [("a3", "a2")], "domc": [("c1", "c2")]})
    instance = Instance(schema, {
        "R": {"r1": ("a3", "b3"), "r2": ("a2", "b2")},
        "S": {"s1": ("a3", "c1"), "s2": ("a1", "c2")},
    })
    smf = mf.saturate(collect_active_values(instance, sim))
    eng = AgendaOracle(rules, sim, smf)
    assert [(s.md, s.context_tids) for s in eng.applicable_steps(instance)] == [
        ("mr", ("s1",)), ("ms", ()),
    ]
    chase_every_way(eng, instance)
    result = eng.chase_all(instance)
    assert [by_tid(i) for i in result.instances] == [
        {"r1": ("a3", "b2"), "r2": ("a2", "b2"), "s1": ("a1", "c1"), "s2": ("a1", "c2")},
        {"r1": ("a3", "b3"), "r2": ("a2", "b2"), "s1": ("a1", "c1"), "s2": ("a1", "c2")},
    ]


def test_agenda_moves_a_step_to_its_next_context_witness():
    # `ms` moves s0, `mr`'s least context witness, off its value; s1 still
    # witnesses the pair, so the step stays with s1 as its witness
    schema = Schema.parse("R(A: doma, B: domb)\nS(A: doma, C: domc)")
    mf = MatchingFunction(builtins={"doma": "value-min", "domb": "value-min"})
    rules = validate_mds(parse_mds(
        "md mr: lead R(t1; x1, y1), lead R(t2; x2, y2), S(t3; x1, c3), x1 ~doma~ x2"
        " -> y1 := y2;\n"
        "md ms: lead S(t1; u1, c1), lead S(t2; u2, c2), c1 ~domc~ c2 -> u1 := u2;"
    ), schema, mf)
    sim = SimilarityRelation({"doma": [("a3", "a2")], "domc": [("c1", "c2")]})
    instance = Instance(schema, {
        "R": {"r1": ("a3", "b3"), "r2": ("a2", "b2")},
        "S": {"s0": ("a3", "c1"), "s1": ("a3", "c5"), "s2": ("a1", "c2")},
    })
    smf = mf.saturate(collect_active_values(instance, sim))
    eng = AgendaOracle(rules, sim, smf)
    mr, ms = eng.applicable_steps(instance)
    assert (mr.md, mr.context_tids, ms.md, ms.lead_tids) == ("mr", ("s0",), "ms", ("s0", "s2"))
    after = eng.enforce(instance, ms)
    assert [(s.md, s.context_tids) for s in eng.applicable_steps(after)] == [("mr", ("s1",))]
    chase_every_way(eng, instance)
    assert eng.visited > 3


# -- work per step -----------------------------------------------------------


COAUTHOR_RULE = """
md coblock: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),
            lead Author(t2; x2, y2, bl2), Paper(t4; p2, z2, bl4),
            x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2
            -> bl1 := bl2;
"""


def coauthor(authors):
    """`authors` authors in coauthor pairs, one paper per pair.

    Author j of pair i has name `f<j % 16> s<i>` and title `t<i> g<j % 16>`;
    paper i has title `t<i> h<i % 4>` and block `pb<i // 2>`.  Each pair
    merges once; authors of different pairs that agree modulo 16 pass both
    leading similarities, and their context join fails.
    """
    schema = Schema.parse(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )
    authors_rows = {
        f"a{j:04d}": (f"f{j % 16} s{j // 2}", f"t{j // 2} g{j % 16}", f"ab{j:04d}")
        for j in range(authors)
    }
    papers = {
        f"p{i:04d}": (f"t{i} h{i % 4}", f"v{i % 4}", f"pb{i // 2}") for i in range(authors // 2)
    }
    instance = Instance(schema, {"Author": authors_rows, "Paper": papers})
    sim = SimilarityRelation(builtins={"name": "token-overlap", "title": "token-overlap"})
    mf = MatchingFunction(builtins={"blk": "value-min"})
    smf = mf.saturate(collect_active_values(instance, sim))
    return instance, validate_mds(parse_mds(COAUTHOR_RULE), schema, mf), sim, smf


def test_chase_one_probes_grow_less_than_cubically(monkeypatch):
    probes = []
    similar = SimilarityRelation.similar

    def counted(self, domain, a, b):
        probes[-1] += 1
        return similar(self, domain, a, b)

    monkeypatch.setattr(SimilarityRelation, "similar", counted)
    for authors in (32, 64):
        instance, rules, sim, smf = coauthor(authors)
        eng = ChaseEngine(rules, sim, smf)
        probes.append(0)
        result = eng.chase_one(instance)
        assert len(result.sequences[0]) == authors // 2
        blocks = {vals[2] for _, _, vals in result.instances[0].iter_tuples() if vals[2][0] == "a"}
        assert len(blocks) == authors // 2
    # rescanning every pair after each of the N/2 steps is O(N^3): 8x per doubling
    assert probes[1] < 8 * probes[0]


def test_similarity_partners_are_reached_through_blocking_keys(monkeypatch):
    # testing each pair's similarity made 13,120 calls in `applicable_steps`
    # and 35,008 in `chase_one`; the keys reach the pairs sharing a token
    probes = [0]
    similar = SimilarityRelation.similar

    def counted(self, domain, a, b):
        probes[0] += 1
        return similar(self, domain, a, b)

    monkeypatch.setattr(SimilarityRelation, "similar", counted)
    instance, rules, sim, smf = coauthor(64)
    eng = ChaseEngine(rules, sim, smf)
    assert len(eng.applicable_steps(instance)) == 32
    assert probes[0] < 64 ** 2
    probes[0] = 0
    assert len(eng.chase_one(instance).sequences[0]) == 32
    assert probes[0] < 8000


def token_union():
    """16 tuples in 4 blocks of equal keys whose B values are single tokens
    of 10, merged by token-union: each state has up to 24 steps."""
    schema = Schema.parse("R(A: grp, B: toks)")
    mf = MatchingFunction(builtins={"toks": "token-union"})
    md = "md union: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;"
    rules = validate_mds(parse_mds(md), schema, mf)
    sim = SimilarityRelation(builtins={"grp": "exact-equality"})
    rows = {f"t{j:03d}": (f"k{j % 4}", f"w{j % 10}") for j in range(16)}
    instance = Instance(schema, {"R": rows})
    return rows, instance, rules, sim, mf.saturate(collect_active_values(instance, sim))


def test_chase_one_merges_only_the_steps_it_follows():
    # building all of a state's steps merged every pair of every state
    rows, instance, rules, sim, smf = token_union()
    merge, order, values = smf.domain("toks")
    merges = [0]

    def counted(a, b):
        merges[0] += 1
        return merge(a, b)

    counting = SaturatedMatchingFunction({"toks": (counted, order, values)})
    result = ChaseEngine(rules, sim, counting).chase_one(instance)
    (sequence,) = result.sequences
    assert merges[0] == len(sequence) > 8
    union = {}
    for key, tok in rows.values():
        union.setdefault(key, set()).add(tok)
    assert by_tid(result.instances[0]) == {
        tid: (key, " ".join(sorted(union[key]))) for tid, (key, _) in rows.items()
    }


def test_chase_one_runs_one_round_per_step_it_follows_plus_one(monkeypatch):
    # one round in full at the start, then one per move reading only the
    # moved tuples' new versions
    rounds = [0]

    def counted(*args):
        rounds[0] += 1
        return fire_rules(*args)

    monkeypatch.setattr(chase, "fire_rules", counted)
    _, instance, rules, sim, smf = token_union()
    (sequence,) = ChaseEngine(rules, sim, smf).chase_one(instance).sequences
    assert rounds[0] == len(sequence) + 1 > 9
