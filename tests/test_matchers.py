"""The engine's rule evaluation against the backtracking matchers it replaced.

Chase steps and queries are Datalog rules evaluated by `datalog`;
`naive_match` keeps the backtracking searches that found them before, and
these checks require the same step lists (with context witnesses and
merges), the same least witnesses and the same answer sets.
"""

import random
from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.classify import sfai_queries
from mdclean.mdlang import load_mds, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.query import ConjunctiveQuery, certain_answers, eval_cq, find_witness, parse_query

import naive_match
from population import random_setting

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the acceptance tests' random population
POPULATION_SEED = 20260823
POPULATION_DRAWS = 745


@pytest.fixture(scope="module")
def population():
    rng = random.Random(POPULATION_SEED)
    return [random_setting(rng) for _ in range(POPULATION_DRAWS)]


def all_answers(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The query with every variable in its head."""
    return ConjunctiveQuery(
        query.name, tuple(query.variables()), query.atoms, query.sims, query.distinct_tids
    )


def check_steps(eng: ChaseEngine, instance: Instance) -> list:
    steps = eng.applicable_steps(instance)
    assert steps == naive_match.applicable_steps(
        eng.schema, eng.mds, eng.sim, eng.smf, instance
    )
    return steps


def check_every_state(eng: ChaseEngine, instance: Instance) -> int:
    """Compare the step lists of every state `chase_all` reaches."""
    seen, stack = set(), [instance]
    while stack:
        current = stack.pop()
        if current.canonical_key() in seen:
            continue
        seen.add(current.canonical_key())
        stack.extend(eng.enforce(current, step) for step in check_steps(eng, current))
    return len(seen)


def test_sfai_queries_match_backtracking_over_the_population(population):
    satisfied = 0
    for s in population:
        for query in sfai_queries(validate_mds(s.mds, s.schema), s.schema):
            witness = find_witness(s.instance, query, s.sim)
            assert witness == naive_match.find_witness(s.instance, query, s.sim), query
            satisfied += witness is not None
            full = all_answers(query)
            assert eval_cq(s.instance, full, s.sim) == naive_match.eval_cq(
                s.instance, full, s.sim
            ), query
    assert satisfied > 100


def test_steps_match_the_pair_loop_along_chase_paths_of_the_population(population):
    states = 0
    for s in population:
        eng = ChaseEngine(s.schema, s.mds, s.sim, s.smf)
        current = s.instance
        for _ in range(50):
            steps = check_steps(eng, current)
            states += 1
            if not steps:
                break
            current = eng.enforce(current, steps[-1])
    assert states > 1000


def bibliography(mds_text=None):
    d = FIXTURES / "bibliography"
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    mds = parse_mds(mds_text) if mds_text else load_mds(d / "mds.txt")
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    return ChaseEngine(schema, mds, sim, smf), instance


# one context atom, on the first leading atom only: which orientation of a
# pair matches decides the step's context witness
ONE_SIDED = """
md one_sided: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),
              lead Author(t2; x2, y2, bl2), x1 ~name~ x2, y1 ~title~ p1
              -> bl1 := bl2;
md by_venue: lead Paper(t1; p1, v1, b1), lead Paper(t2; p2, v2, b2),
             Author(t3; n3, p1, k3), Author(t4; n4, p2, k4), n3 ~name~ n4
             -> v1 := v2;
"""


def test_steps_match_the_pair_loop_on_context_atoms():
    eng, instance = bibliography()
    assert check_every_state(eng, instance) == 2
    moved = instance.with_updates({("Paper", "p2"): ("entity matching", "v2", "pb1")})
    assert check_every_state(eng, moved) > 2

    eng, instance = bibliography(ONE_SIDED)
    steps = check_steps(eng, instance)
    assert ("one_sided", ("a1", "a2"), ("p1",)) in [
        (s.md, s.lead_tids, s.context_tids) for s in steps
    ]
    assert check_every_state(eng, instance) > 1


def test_relations_named_like_builtins_and_heads_chase_and_answer():
    schema = Schema.parse(
        "sim(A: doma, B: domb)\nmf(A: doma, B: domb)\npre(A: doma, B: domb)\n"
        "answer(A: doma, B: domb)\nrel_sim(A: doma, B: domb)\n"
    )
    mds = parse_mds(
        "md step_0: lead sim(t1; x1, y1), lead mf(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n"
        "md pre: lead pre(t1; x1, y1), lead answer(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;\n"
        "md m3: lead rel_sim(t1; x1, y1), lead rel_sim(t2; x2, y2), "
        "sim(t3; x1, z1), x1 ~ x2 -> y1 := y2;\n"
    )
    instance = Instance(schema, {
        "sim": {"t1": ("a1", "b1")},
        "mf": {"t2": ("a2", "b2")},
        "pre": {"t3": ("a3", "b3"), "t4": ("a4", "b1")},
        "answer": {"t5": ("a5", "b2")},
        "rel_sim": {"t6": ("a1", "b3"), "t7": ("a1", "b4")},
    })
    sim = SimilarityRelation({"doma": [("a1", "a2")], "domb": [("b1", "b2")]})
    mf = MatchingFunction(builtins={"domb": "value-min"})
    smf = mf.saturate(collect_active_values(schema, instance, sim, mf))
    eng = ChaseEngine(schema, mds, sim, smf)
    steps = check_steps(eng, instance)
    assert [(s.md, s.lead_tids) for s in steps] == [
        ("step_0", ("t1", "t2")), ("pre", ("t4", "t5")), ("m3", ("t6", "t7")),
    ]
    assert check_every_state(eng, instance) > 1
    [clean] = eng.chase_all(instance).instances
    for text in (
        "sim(X, Y) :- answer(T, X, Y), mf(U, W, Y).",
        "answer(Y) :- pre(T, X, Y), sim(U, W, Z), Y ~ Z.",
        "rel_sim(T) :- rel_sim(T, X, Y), sim(U, X, Z).",
    ):
        query = parse_query(text)
        assert certain_answers([clean], query, sim) == naive_match.eval_cq(clean, query, sim)
        assert certain_answers([clean], query, sim)
