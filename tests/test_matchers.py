"""The engine's rule evaluation against the backtracking matchers it replaced.

Chase steps and queries are Datalog rules evaluated by `datalog`;
`naive_match` keeps the backtracking searches that found them before, and
these checks require the same step lists (with context witnesses and
merges), the same least witnesses and the same answer sets.  It also keeps
the permutation search for an interaction query's canonical key, which the
classifier's keys and queries must agree with.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean.chase import ChaseEngine
from mdclean.classify import _Body, _embeddings, interaction_pairs, is_sfai, sfai_queries
from mdclean.datalog import Var
from mdclean.mdlang import load_mds, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.query import (
    ConjunctiveQuery,
    QueryAtom,
    SimLiteral,
    certain_answers,
    eval_cq,
    find_witness,
    parse_queries,
)

import naive_match
from fixture_edits import fixture_setting, with_p2_in_first_block
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


def check_steps(eng: ChaseEngine, sim: SimilarityRelation, instance: Instance) -> list:
    steps = eng.applicable_steps(instance)
    assert steps == naive_match.applicable_steps(
        instance.schema, [rule.md for rule in eng._rules.values()], sim, eng.smf, instance
    )
    return steps


def check_every_state(eng: ChaseEngine, sim: SimilarityRelation, instance: Instance) -> int:
    """Compare the step lists of every state `chase_all` reaches."""
    seen, stack = set(), [instance]
    while stack:
        current = stack.pop()
        key = tuple(current.iter_tuples())
        if key in seen:
            continue
        seen.add(key)
        stack.extend(eng.enforce(current, step) for step in check_steps(eng, sim, current))
    return len(seen)


def test_sfai_queries_match_backtracking_over_the_population(population, monkeypatch):
    # every drawn rule's leading atoms are exchanged by a renaming of it, so
    # each pair's embeddings share one orbit: no `_Body` is built, and no
    # key computed
    built = []
    init = _Body.__init__
    monkeypatch.setattr(_Body, "__init__", lambda body, *args: built.append(args) or init(body, *args))
    satisfied = total = 0
    for s in population:
        queries = sfai_queries(s.rules, s.schema)
        _, checks = is_sfai(s.instance, s.rules, s.sim)
        assert [c.query for c in checks] == queries
        total += len(queries)
        for query, check in zip(queries, checks):
            witness = find_witness(s.instance, query, s.sim)
            assert witness == check.witness == naive_match.find_witness(s.instance, query, s.sim), query
            satisfied += witness is not None
            full = all_answers(query)
            assert eval_cq(s.instance, full, s.sim) == naive_match.eval_cq(
                s.instance, full, s.sim
            ), query
    assert satisfied > 100
    assert (total, built) == (2276, [])


def test_interaction_queries_match_the_permutation_keys_over_the_population(population):
    keyed = 0

    def checked_key(atoms, sims):
        nonlocal keyed
        keyed += 1
        key = naive_match.canonical_key(atoms, sims)
        assert _Body(*naive_match.numbered(atoms, sims)).key() == key, (atoms, sims)
        return key

    for s in population:
        rules = s.rules
        by_name = {rule.md.name: rule for rule in rules}
        for pair in interaction_pairs(rules):
            for _, embed in _embeddings(by_name[pair.writer], by_name[pair.reader], pair, s.schema):
                atoms, sims = embed()
                held = {term for _, terms in atoms for term in terms}
                assert all({left, right} <= held for _, left, right in sims), (
                    "a literal reads a variable no atom of its embedding holds",
                    atoms,
                    sims,
                )
        expected = naive_match.sfai_queries_by_key(rules, s.schema, checked_key)
        assert sfai_queries(rules, s.schema) == expected, s.describe()
    assert keyed > 7000


ASYMMETRIC_SCHEMA = Schema.parse("R(A: doma, B: domb)\nP(C: doma, D: domb)")


def asymmetric_rule(rng: random.Random, name: str) -> str:
    """A rule over R whose leading atoms no renaming of it mostly exchanges
    (`BoundMD.orbits`): a context atom joins one of them, a similarity reads
    one of them with the context atom's value, or a similarity compares one
    of them with itself."""
    atoms = ["lead R(t1; x1, y1)", "lead R(t2; x2, y2)"]
    sims = [sim for sim in ("x1 ~doma~ x2", "y1 ~domb~ y2") if rng.random() < 0.6]
    joined = rng.choice(["x1", "x2", None])
    if joined:
        atoms.append(f"P(t3; {joined}, w)")
        if rng.random() < 0.5:
            sims.append(f"w ~domb~ {rng.choice(['y1', 'y2'])}")
    elif rng.random() < 0.5:
        sims.append("x1 ~doma~ x1")
    return f"md {name}: {', '.join(atoms + (sims or ['y1 ~domb~ y2']))} -> y1 := y2;"


def test_interaction_queries_match_the_permutation_keys_when_leading_atoms_are_no_twins(
    monkeypatch,
):
    # the population's leading atoms are exchanged, so each pair's embeddings
    # fall into one orbit and no key is computed; here they fall into
    # several, and only the canonical keys tell which are one class
    keys = 0
    key = _Body.key

    def counted(self):
        nonlocal keys
        keys += 1
        return key(self)

    monkeypatch.setattr(_Body, "key", counted)
    mf = MatchingFunction(builtins={"domb": "value-min"})
    rng = random.Random(20261020)
    several = 0
    for _ in range(20):
        text = "\n".join(asymmetric_rule(rng, f"m{k}") for k in range(rng.randint(1, 2)))
        rules = validate_mds(parse_mds(text), ASYMMETRIC_SCHEMA, mf)
        queries = sfai_queries(rules, ASYMMETRIC_SCHEMA)
        assert queries == naive_match.sfai_queries_by_key(rules, ASYMMETRIC_SCHEMA), text
        several += any(query.name.endswith("_2") for query in queries)
    assert keys > 50 and several > 5


@pytest.mark.parametrize("repeat", ["c1 ~ y1", "y1 ~ c1"])
def test_a_repeated_literal_is_listed_once_in_each_embedding(repeat):
    # the rules' symmetry reads the literals as a set; were the repeat kept,
    # the embeddings would differ in multiplicity and the permutation keys
    # would tell three classes apart where the orbits see one
    schema = Schema.parse("R(A: d, B: e, C: e)")
    text = f"md a: lead R(t1; x1, y1, c1), lead R(t2; x2, y2, c2), c1 ~ y1, {repeat}, c2 ~ y2 -> c1 := c2;"
    rules = validate_mds(parse_mds(text), schema, MatchingFunction(builtins={"e": "value-min"}))
    queries = sfai_queries(rules, schema)
    assert queries == naive_match.sfai_queries_by_key(rules, schema)
    assert [(q.name, len(q.sims)) for q in queries] == [("a__a__R_C", 4)]


def test_keys_match_the_permutation_keys_on_random_bodies_and_their_copies():
    rng = random.Random(20261019)
    bodies = [naive_match.random_body(rng, 5) for _ in range(150)]
    bodies += [naive_match.random_body(rng, 7) for _ in range(4)]
    isomorphic = []
    for body in bodies:
        problem, verdicts = naive_match.check_body(rng, body)
        assert problem is None, problem
        isomorphic += verdicts
    assert isomorphic.count(True) > 150 and isomorphic.count(False) > 30
    assert any(len({t for a in atoms for t in a.args if isinstance(t, Var)}) > 10
               for atoms, _ in bodies)
    assert any(len(atoms) == 7 for atoms, _ in bodies)
    # copies of an atom with its private variables renamed apart are twins
    assert sum(
        any(
            _Body(*naive_match.numbered(*body))._twin(i, j)
            for i, j in itertools.combinations(range(len(body[0])), 2)
        )
        for body in bodies
    ) > 30


def test_the_search_follows_one_of_each_set_of_twin_atoms():
    # six atoms that differ only in their private variables, each compared
    # with the shared one, serialise alike in every order: the search
    # follows one ordering where the permutations number 6! = 720
    x = Var("x")
    atoms = tuple(QueryAtom("R", (Var(f"t{i}"), x, Var(f"y{i}"))) for i in range(6))
    sims = tuple(SimLiteral(x, Var(f"y{i}"), "d") for i in range(6))
    body = _Body(*naive_match.numbered(atoms, sims))

    def least(depth, entries):
        return min(entry for (entry, _), _ in entries)

    assert sum(1 for _ in body._leaves(least)) == 1
    assert body.key() == naive_match.canonical_key(atoms, sims)
    copy = naive_match.relabelled(random.Random(1), atoms, sims)
    assert _Body(*naive_match.numbered(*copy)).key() == body.key()


def test_the_oracle_scan_runs_as_a_module():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"}
    done = subprocess.run(
        [sys.executable, "-m", "naive_match", "--draws", "5", "--bodies", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "5 draws, 40 embeddings: keys and queries agree",
        "10 random bodies: keys agree (14 isomorphic copies, 6 not)",
        "10 random rules: swap symmetry and orbits agree with brute force (7 symmetric, 3 not)",
    ]


def test_steps_match_the_pair_loop_along_chase_paths_of_the_population(population):
    states = 0
    for s in population:
        eng = ChaseEngine(s.rules, s.sim, s.smf)
        current = s.instance
        for _ in range(50):
            steps = check_steps(eng, s.sim, current)
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
    # the fixture's blocks, and venues for `ONE_SIDED`'s `by_venue` to write
    mf = MatchingFunction(MatchingFunction.load(d / "mf.txt").triples, {"venue": "value-min"})
    smf = mf.saturate(collect_active_values(instance, sim))
    return ChaseEngine(validate_mds(mds, schema, mf), sim, smf), sim, instance


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


# rules at the edges of swap symmetry, with whether each is swap-symmetric;
# `r` is the reader of ROADMAP item 1's identity repro (defect B)
EDGE_SCHEMA = "R(A: d, B: d, C: e, D: f)\nS(A: d, C: e)\nP(A: d, B: d)"
EDGE_RULES = {
    # a similarity on one side only, and with its mirror written the other
    # way round and without its domain
    "md one_side: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " a1 ~d~ a2, a1 ~d~ b1 -> c1 := c2;": False,
    "md both_sides: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " a1 ~d~ b1, b2 ~ a2 -> c1 := c2;": True,
    # a similarity repeated, once the other way round, on one side only:
    # the rule requires each once, so the swap maps the set onto itself
    "md repeats: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " a1 ~d~ b1, b1 ~d~ a1, a2 ~d~ b2 -> c1 := c2;": True,
    # a similarity across the leading atoms whose mirror is missing, and two
    # in different domains on different sides
    "md crossed: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " a1 ~d~ b2, u1 ~f~ u2 -> c1 := c2;": False,
    "md two_domains: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " a1 ~d~ b1, u2 ~f~ u2 -> c1 := c2;": False,
    # a variable repeated in one leading atom, with a similarity the swap
    # maps onto itself or not, and in both
    "md r: lead R(t1; x1, x1, z1, v1), lead R(t2; x2, y2, z2, v2), x1 ~d~ x2 -> z1 := z2;": False,
    "md r_by_f: lead R(t1; x1, x1, z1, v1), lead R(t2; x2, y2, z2, v2), v1 ~f~ v2"
    " -> z1 := z2;": False,
    "md repeated: lead R(t1; x1, x1, z1, v1), lead R(t2; x2, x2, z2, v2), x1 ~d~ x2"
    " -> z1 := z2;": True,
    # a context atom both leading atoms join: alone, with its mirror, and
    # through a variable they share, which it maps onto itself
    "md joined: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2), P(t3; a1, a2),"
    " u1 ~f~ u2 -> c1 := c2;": False,
    "md joined_both: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2), P(t3; a1, a2),"
    " P(t4; a2, a1), u1 ~f~ u2 -> c1 := c2;": True,
    "md shared: lead R(t1; w, b1, c1, u1), lead R(t2; w, b2, c2, u2), S(t3; w, e3),"
    " u1 ~f~ u2 -> c1 := c2;": True,
    # two relations, and two written positions
    "md across: lead R(t1; a1, b1, c1, u1), lead S(t2; a2, c2), a1 ~d~ a2 -> c1 := c2;": False,
    "md two_positions: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2),"
    " u1 ~f~ u2 -> a1 := b2;": False,
}


def edge_setting():
    schema = Schema.parse(EDGE_SCHEMA)
    mf = MatchingFunction(builtins={"d": "value-min", "e": "value-min", "f": "value-min"})
    rules = validate_mds(parse_mds("\n".join(EDGE_RULES)), schema, mf)
    instance = Instance(schema, {
        "R": {"r1": ("a", "c", "c1", "f1"), "r2": ("b", "b", "c2", "f2"), "r3": ("a", "a", "c3", "f1")},
        "S": {"s1": ("a", "c5"), "s2": ("b", "c6")},
        "P": {"p1": ("a", "b"), "p2": ("b", "a")},
    })
    # `c` is similar to nothing else, so which orientation of a pair
    # matches `one_side` or `r` depends on which tuple comes first
    sim = SimilarityRelation({"d": [("a", "b")], "f": [("f1", "f2")]})
    return rules, sim, mf.saturate(collect_active_values(instance, sim)), instance


def test_swap_symmetry_is_the_brute_force_one(population):
    rules = [rule for s in population for rule in s.rules]
    for name in sorted(p.name for p in FIXTURES.iterdir()):
        rules += fixture_setting(name)[1]
    eng, _, _ = bibliography(ONE_SIDED)
    rules += eng._rules.values()
    edges, _, _, _ = edge_setting()
    rules += edges
    rng = random.Random(3)
    rules += [naive_match.random_rule(rng) for _ in range(300)]
    exchanged = 0
    for rule in rules:
        assert rule.swap_symmetric() == naive_match.swap_symmetric(rule), rule.md
        for a, b in itertools.combinations(range(len(rule.md.atoms)), 2):
            expected = naive_match.exchanges(rule, a, b)
            assert rule.orbits((a, b)) == {a: a, b: a if expected else b}, (rule.md, a, b)
            exchanged += expected and not rule.md.atoms[a].leading
    # context atoms that a renaming exchanges
    assert exchanged > 100
    assert [rule.swap_symmetric() for rule in edges] == list(EDGE_RULES.values())
    assert [rule.swap_symmetric() for rule in eng._rules.values()] == [False, True]
    # the bench's rules, `coblock` (the bibliography fixture's) and `union`
    by_name = {rule.md.name: rule for rule in rules}
    assert by_name["coblock"].swap_symmetric()
    (union,) = validate_mds(
        parse_mds("md union: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;"),
        Schema.parse("R(A: grp, B: toks)"), MatchingFunction(builtins={"toks": "token-union"}),
    )
    assert union.swap_symmetric() and naive_match.swap_symmetric(union)


def test_steps_match_the_pair_loop_on_context_atoms():
    eng, sim, instance = bibliography()
    assert check_every_state(eng, sim, instance) == 2
    moved = with_p2_in_first_block(instance)
    assert check_every_state(eng, sim, moved) > 2

    eng, sim, instance = bibliography(ONE_SIDED)
    steps = check_steps(eng, sim, instance)
    assert ("one_sided", ("a1", "a2"), ("p1",)) in [
        (s.md, s.lead_tids, s.context_tids) for s in steps
    ]
    assert check_every_state(eng, sim, instance) > 1

    rules, sim, smf, instance = edge_setting()
    eng = ChaseEngine(rules, sim, smf)
    assert {step.md for step in check_steps(eng, sim, instance)} == {rule.md.name for rule in rules}
    assert check_every_state(eng, sim, instance) > 100


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
    smf = mf.saturate(collect_active_values(instance, sim))
    eng = ChaseEngine(validate_mds(mds, schema, mf), sim, smf)
    steps = check_steps(eng, sim, instance)
    assert [(s.md, s.lead_tids) for s in steps] == [
        ("step_0", ("t1", "t2")), ("pre", ("t4", "t5")), ("m3", ("t6", "t7")),
    ]
    assert check_every_state(eng, sim, instance) > 1
    [clean] = eng.chase_all(instance).instances
    for text in (
        "sim(X, Y) :- answer(T, X, Y), mf(U, W, Y).",
        "answer(Y) :- pre(T, X, Y), sim(U, W, Z), Y ~ Z.",
        "rel_sim(T) :- rel_sim(T, X, Y), sim(U, X, Z).",
    ):
        (query,) = parse_queries(text)
        assert certain_answers([clean], query, sim) == naive_match.eval_cq(clean, query, sim)
        assert certain_answers([clean], query, sim)
