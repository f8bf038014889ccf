from __future__ import annotations

import random
from pathlib import Path

import pytest

from mdclean.datalog import (
    _COMPUTE,
    _MEMBER,
    _NEQ,
    _TEST,
    Database,
    Literal,
    Program,
    Rule,
    evaluate,
    format_rule_ast,
    parse_asp,
    parse_program,
    stratify,
    value_builtins,
)
from mdclean.errors import (
    NotStratifiable,
    ParseError,
    UnsafeRule,
    ValidationError,
)
from mdclean.chase import ChaseEngine
from mdclean.mdlang import load_mds, parse_mds
from mdclean.model import MatchingFunction, Schema, SimilarityRelation
from mdclean.terms import Compound, Var

from naive_dl import VALUE_USES, naive_evaluate, random_program

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CHAIN_MF = MatchingFunction(
    {
        "domb": [
            ("b1", "b2", "b12"),
            ("b2", "b3", "b23"),
            ("b1", "b23", "b123"),
            ("b3", "b4", "b34"),
        ]
    }
)


def chain_env():
    sim = SimilarityRelation({"domb": [("b1", "b2"), ("b2", "b3")], "doma": [("a1", "a2")]})
    smf = CHAIN_MF.saturate()
    return sim, smf


# multi-token values: "x" is a token of two others, and the declared pair
# relates two values that share no token
TOKEN_VALUES = ["a1 x", "x a2", "a3", "x", "b y"]


def token_env():
    sim = SimilarityRelation({"doma": [("a3", "b y")]}, {"doma": "token-overlap"})
    return sim, CHAIN_MF.saturate()


def scan_kinds(plan):
    """How each scan of a compiled rule body reads its relation: through a
    hash index ("hash"), through blocking keys ("keys") or in full ("full")."""
    return [
        "keys" if keys is not None else "full" if tuple_key is None else "hash"
        for (_, tuple_key, _, _, _, keys), _ in plan.levels[1:]
    ]


# -- parsing ---------------------------------------------------------------


def test_parse_plain_rule():
    program = parse_program(
        """
        % transitive closure
        edge(a, b).
        edge(b, c).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    assert program.facts == {"edge": {("a", "b"), ("b", "c")}}
    assert len(program.rules) == 2
    head = program.rules[1].head
    assert head == Literal("reach", (Var("X"), Var("Y")))


def test_parse_asp_disjunction_and_constraint():
    rules = parse_asp("a(X) | b(X) :- c(X). :- a(X), b(X). d(k).")
    assert [len(r.heads) for r in rules] == [2, 0, 1]
    assert rules[1].is_constraint
    assert rules[2].is_fact
    assert rules[0] == Rule(
        (Literal("a", (Var("X"),)), Literal("b", (Var("X"),))),
        (Literal("c", (Var("X"),)),),
    )


def test_parse_quoted_and_numeric_constants():
    program = parse_program('p("Hello World", 42).')
    assert program.facts == {"p": {("Hello World", "42")}}
    assert format_rule_ast(Rule((Literal("p", ("Hello World", "42")),))) == 'p("Hello World", 42).'


@pytest.mark.parametrize(
    "value",
    ["a\\b", "ends\\", "\\", 'say "hi"', '\\"', "two words", "Upper", "_under", "a.b", ""],
)
def test_quoted_constants_round_trip(value):
    fact = Rule((Literal("p", (value, "k")),))
    text = format_rule_ast(fact)
    assert parse_asp(text) == [fact]
    assert parse_program(text).facts == {"p": {(value, "k")}}


def test_parse_function_terms():
    [rule] = parse_asp("prec(mt(T, A), mt(U, B)) :- q(T, A), q(U, B).")
    left, right = rule.heads[0].args
    assert left == Compound("mt", (Var("T"), Var("A")))
    assert right == Compound("mt", (Var("U"), Var("B")))
    assert format_rule_ast(rule) == "prec(mt(T, A), mt(U, B)) :- q(T, A), q(U, B)."


def test_parse_negation_and_neq():
    [rule] = parse_asp("p(X) :- q(X), not r(X), X != c.")
    assert rule.body[1].negated
    assert rule.body[2] == Literal("!=", (Var("X"), "c"))
    assert format_rule_ast(rule) == "p(X) :- q(X), not r(X), X != c."


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_asp("p(X")
    with pytest.raises(ParseError):
        parse_asp("p(X) :- .")
    with pytest.raises(ParseError):
        parse_asp("X :- a.")
    with pytest.raises(ParseError):
        parse_asp("p(X)")  # missing final dot
    err = None
    try:
        parse_asp("p(a).\nq(b) :- $.")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        # end of input after a trailing comment: the column counts the comment
        (parse_mds, "md m: # note", 1, 13),
        (parse_mds, "md m: R(t1; x1, y1),\n  R(t2; x2, y2) -> y1 = y2;", 2, 23),
        (parse_mds, "md m: R(t1; x1)\nR(t2; x2) -> x1 := x2;", 2, 1),
        (parse_mds, "md lead: R(t1; x1, y1), R(t2; x2, y2) -> y1 := y2;", 1, 4),
        (parse_mds, "md m:\f", 1, 6),
        # a token that spans lines is placed where it starts
        (parse_asp, 'p "x\ny".', 1, 3),
        (parse_asp, "p(a).\nq(b) :- $.", 2, 9),
        (parse_asp, "p(a).\n  X :- a.", 2, 3),
        (parse_asp, "p(a) :- not q(a), r(a)\n", 2, 1),
    ],
)
def test_parse_errors_carry_line_and_column(parse, text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (type(err.value), err.value.line, err.value.column) == (ParseError, line, column)


def test_datalog_layer_rejects_asp_forms():
    with pytest.raises(ValidationError):
        parse_program("a(X) | b(X) :- c(X).")
    with pytest.raises(ValidationError):
        parse_program(":- a(X).")
    with pytest.raises(ValidationError):
        parse_program("p(X).")
    with pytest.raises(ValidationError):
        parse_program("p(mt(a, b)).")


X = Var("X")


@pytest.mark.parametrize(
    "statement, message",
    [
        (Rule((), (Literal("a", (X,)),)), "constraints are not part of the Datalog layer"),
        (
            Rule((Literal("a", (X,)), Literal("b", (X,))), (Literal("c", (X,)),)),
            "disjunctive heads are not part of the Datalog layer",
        ),
        (Rule((Literal("p", (X,)),)), "fact 'p[(]X[)]' must be ground and function-free"),
        (
            Rule((Literal("p", (Compound("mt", ("a", "b")),)),)),
            "fact 'p[(]mt[(]a, b[)][)]' must be ground and function-free",
        ),
        (Rule((Literal("p", ("a",), negated=True),)), "rule head cannot be negated"),
        # a built-in computes its rows, so a fact of one would be ignored
        (Rule((Literal("sim_doma", ("x", "y")),)), "rule head 'sim_doma' is a built-in"),
    ],
)
def test_a_program_built_from_statements_refuses_what_it_cannot_evaluate(statement, message):
    # the parser never writes a negated head, but a statement built directly can
    builtins = value_builtins([("sim", "doma")], SimilarityRelation())
    with pytest.raises(ValidationError, match=message):
        Program([Rule((Literal("c", ("k",)),)), statement], builtins)


def test_a_statement_without_exactly_one_head_has_no_head():
    constraint, disjunction, fact = parse_asp(":- a(X). a(X) | b(X) :- c(X). d(k).")
    for statement in (constraint, disjunction):
        with pytest.raises(ValidationError, match="does not have exactly one head"):
            statement.head
    assert fact.head == Literal("d", ("k",))
    assert Program([fact]).facts == {"d": {("k",)}}


@pytest.mark.parametrize(
    "ast",
    [
        Rule((Literal("sim_dom-a", ("a1", "a1")),)),
        Rule((Literal("Upper", ("a",)),)),
        Rule((Literal("not", ()),)),
        Rule((Literal("p", (Var("first name"),)),)),
        Rule((Literal("p", (Compound("m t", ("a",)),)),)),
        Rule((Literal("p", (Var("X"),)),), (Literal("q-r", (Var("X"),)),)),
    ],
)
def test_format_refuses_names_that_do_not_read_back(ast):
    with pytest.raises(ValidationError, match="cannot be written as a Datalog"):
        format_rule_ast(ast)


def test_every_random_rule_and_fact_reads_back_as_itself():
    for seed in range(100):
        rules, facts = random_program(random.Random(seed), with_builtins=seed % 2 == 1)
        facts = [Rule((Literal(pred, t),)) for pred, ts in facts.items() for t in sorted(ts)]
        for rule in (*rules, *facts):
            assert parse_asp(format_rule_ast(rule)) == [rule], f"seed {seed}"


def test_format_round_trip_is_stable():
    text = """
    q(a2). q(b).
    p(X, Y) :- q(X), q(Y), X != Y.
    r(X) :- p(X, Y), not q(Y).
    """
    once = "\n".join(format_rule_ast(rule) for rule in parse_asp(text))
    assert "\n".join(format_rule_ast(rule) for rule in parse_asp(once)) == once


# -- validation ------------------------------------------------------------


def test_mixed_arity_rejected():
    with pytest.raises(ValidationError):
        parse_program("p(a). p(a, b).")
    with pytest.raises(ValidationError):
        parse_program("p(a). q(X) :- p(X, Y).")


def test_builtin_heads_and_negation_rejected():
    with pytest.raises(ValidationError):
        Program([Rule((Literal("sim_doma", (Var("X"),) * 2),), (Literal("p", (Var("X"),)),))],
                builtins=value_builtins([("sim", "doma")], SimilarityRelation()))
    with pytest.raises(ValidationError):
        parse_program("p(X) :- q(X), not X != X.")


def test_unsafe_rules_rejected():
    with pytest.raises(UnsafeRule):
        parse_program("q(a). p(X) :- q(Y).")
    with pytest.raises(UnsafeRule):
        parse_program("q(a). p(X) :- q(X), not r(X, Y).")
    with pytest.raises(UnsafeRule):
        parse_program("q(a). p(X) :- q(X), X != Y.")


# -- planning --------------------------------------------------------------


OP_NAMES = {_NEQ: "neq", _TEST: "test", _COMPUTE: "compute", _MEMBER: "member"}

# per rule shape and first read (None: a full run): the body literals in the
# order they are read, and per level the operations run after its scan
READ_ORDERS = [
    # `!=` waits for both sides, after the scan that binds the second
    (
        "p(X, Y) :- a(X), X != Y, b(Y), c(X, Y).",
        {
            None: ([0, 3, 2], [[], [], ["neq", "member"]]),
            0: ([0, 3, 2], [[], [], ["neq", "member"]]),
            2: ([2, 3, 0], [[], [], ["neq", "member"]]),
            3: ([3, 0, 2], [[], ["neq", "member", "member"]]),
        },
    ),
    # `mf_domb` binds Z, so c(Z, W) shares a bound variable before b(W) does
    (
        "p(X, W) :- a(X, Y), b(W), c(Z, W), mf_domb(X, Y, Z).",
        {
            None: ([0, 2, 1], [[], ["compute"], ["member"]]),
            0: ([0, 2, 1], [[], ["compute"], ["member"]]),
            1: ([1, 2, 0], [[], [], [], ["compute"]]),
            2: ([2, 1, 0], [[], ["member"], ["compute"]]),
        },
    ),
    # the negated literal waits for Y
    (
        "p(X) :- a(X), not c(X, Y), b(Y), d(X).",
        {
            None: ([0, 3, 2, 1], [[], ["member"], ["member"]]),
            0: ([0, 3, 2, 1], [[], ["member"], ["member"]]),
            2: ([2, 0, 1, 3], [[], [], ["member", "member"]]),
            3: ([3, 0, 2, 1], [[], ["member"], ["member"]]),
        },
    ),
    # b(Y) is reached through the blocking keys of `sim_domb`, yet read last
    (
        "p(X, Y) :- a(X), c(Z), b(Y), sim_domb(X, Y).",
        {
            None: ([0, 1, 2], [[], [], [], ["test"]]),
            0: ([0, 1, 2], [[], [], [], ["test"]]),
            1: ([1, 0, 2], [[], [], [], ["test"]]),
            2: ([2, 0, 1], [[], [], ["test"], []]),
        },
    ),
    # constants bind no variable, so b(c2, Y) shares none with a(X, c1)
    (
        "p(X) :- a(X, c1), b(c2, Y), c(Y, X).",
        {
            None: ([0, 2, 1], [[], [], ["member"]]),
            0: ([0, 2, 1], [[], [], ["member"]]),
            1: ([1, 2, 0], [[], [], ["member"]]),
            2: ([2, 0, 1], [[], ["member", "member"]]),
        },
    ),
    # a variable repeated inside one literal
    (
        "p(X) :- a(X, X), b(Y, Y), c(X, Y).",
        {
            None: ([0, 2, 1], [[], [], ["member"]]),
            0: ([0, 2, 1], [[], [], ["member"]]),
            1: ([1, 2, 0], [[], [], ["member"]]),
            2: ([2, 0, 1], [[], ["member", "member"]]),
        },
    ),
    # no literal shares a variable with a(X), so b(Y) is next in body order
    (
        "p(X, Y) :- a(X), b(Y), c(Y, Z), d(Z).",
        {
            None: ([0, 1, 2, 3], [[], [], [], ["member"]]),
            0: ([0, 1, 2, 3], [[], [], [], ["member"]]),
            1: ([1, 2, 3, 0], [[], [], ["member"], []]),
            2: ([2, 1, 3, 0], [[], ["member", "member"], []]),
            3: ([3, 2, 1, 0], [[], [], ["member"], []]),
        },
    ),
]


@pytest.mark.parametrize("text, expected", READ_ORDERS, ids=[text for text, _ in READ_ORDERS])
def test_a_body_reads_its_literals_in_the_planned_order(text, expected):
    sim, smf = chain_env()
    program = parse_program(text, value_builtins(VALUE_USES, sim, smf))
    found = {}
    for first in expected:
        plan = program.plan(0, first)
        found[first] = (plan.reads, [[OP_NAMES[op[0]] for op in ops] for _, ops in plan.levels])
    assert found == expected


# -- stratification --------------------------------------------------------


def test_stratify_layers():
    program = parse_program(
        """
        node(a). edge(a, b).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        blocked(X, Y) :- node(X), node(Y), not reach(X, Y).
        """
    )
    assert stratify(program) == [["edge", "node", "reach"], ["blocked"]]


def test_stratify_facts_only():
    assert stratify(parse_program("e(a).")) == [["e"]]


def dependencies(program):
    """The (head, body predicate, negated) edges of a program's rules."""
    return {
        (rule.head.pred, lit.pred, lit.negated)
        for rule in program.rules
        for lit in rule.body
        if lit.pred not in program.builtins
    }


def named_cycle(program):
    """The predicates `stratify` names in its error, first and last alike."""
    with pytest.raises(NotStratifiable) as exc:
        stratify(program)
    prefix = "negation cycle through "
    assert str(exc.value).startswith(prefix)
    return str(exc.value)[len(prefix):].split(" -> ")


def assert_negation_cycle(program, cycle):
    """`cycle` is a closed walk of dependency edges through a negated one."""
    edges = dependencies(program)
    steps = list(zip(cycle, cycle[1:]))
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    assert all((a, b, False) in edges or (a, b, True) in edges for a, b in steps), cycle
    assert any((a, b, True) in edges for a, b in steps), cycle


def test_not_stratifiable():
    assert named_cycle(parse_program("q(a). p(X) :- q(X), not p(X).")) == ["p", "p"]
    win = parse_program("move(a, b). win(X) :- move(X, Y), not win(Y).")
    assert named_cycle(win) == ["win", "win"]
    program = parse_program("a(k). b(X) :- a(X), not c(X). c(X) :- a(X), d(X). d(X) :- b(X).")
    cycle = named_cycle(program)
    assert_negation_cycle(program, cycle)
    assert cycle[:-1] in (["b", "c", "d"], ["c", "d", "b"], ["d", "b", "c"])


def test_strata_are_the_levels_of_the_dependencies_and_a_back_edge_breaks_them():
    sim, smf = chain_env()
    builtins = value_builtins(VALUE_USES, sim, smf)
    for seed in range(200):
        rng = random.Random(seed)
        rules, facts = random_program(rng, with_builtins=seed % 2 == 1)
        program = Program(rules, builtins)
        level = {p: i for i, stratum in enumerate(stratify(program)) for p in stratum}
        assert sorted(level) == sorted(program.all_preds())
        edges = dependencies(program)
        for pred in level:
            needs = [level[dep] + negated for head, dep, negated in edges if head == pred]
            assert level[pred] == max([0, *needs]), f"seed {seed}: {pred}"
        # a chain of positive rules from the first predicate to the last, and
        # the last reading the first under negation
        arity = {p: len(next(iter(ts))) for p, ts in facts.items()}
        for rule in rules:
            for lit in (rule.head, *rule.body):
                arity.setdefault(lit.pred, len(lit.args))
        chain = rng.sample(["i0", "i1", "i2"], rng.randint(1, 3))
        atom = {p: Literal(p, (X,) * arity.get(p, 1)) for p in chain + ["e0"]}
        back = [Rule((atom[a],), (atom[b],)) for a, b in zip(chain, chain[1:])]
        back.append(Rule((atom[chain[-1]],), (atom["e0"], Literal(chain[0], atom[chain[0]].args, True))))
        broken = Program(rules + back, builtins)
        assert_negation_cycle(broken, named_cycle(broken))


# -- evaluation ------------------------------------------------------------


def test_transitive_closure():
    program = parse_program(
        """
        edge(a, b). edge(b, c). edge(c, d).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    model = evaluate(program)
    assert model.get("reach") == {
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "c"), ("b", "d"),
        ("c", "d"),
    }


def test_negation_against_lower_stratum():
    program = parse_program(
        """
        node(a). node(b). node(c).
        edge(a, b).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        apart(X, Y) :- node(X), node(Y), X != Y, not reach(X, Y).
        """
    )
    model = evaluate(program)
    assert model.get("apart") == {
        ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"),
    }


def test_double_recursion_needs_both_delta_sides():
    program = parse_program(
        """
        edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), path(Z, Y).
        """
    )
    nodes = ["n1", "n2", "n3", "n4", "n5"]
    expected = {
        (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
    }
    assert evaluate(program).get("path") == expected


def test_sim_builtin():
    sim, smf = chain_env()
    program = parse_program(
        """
        item(a1). item(a2). item(a3).
        buddy(X, Y) :- item(X), item(Y), sim_doma(X, Y), X != Y.
        """,
        value_builtins(VALUE_USES, sim, smf),
    )
    assert evaluate(program).get("buddy") == {("a1", "a2"), ("a2", "a1")}


def test_mf_builtin_binds_result():
    sim, smf = chain_env()
    program = parse_program(
        """
        pair(b1, b2). pair(b2, b4). pair(b12, b3).
        merged(Z) :- pair(X, Y), mf_domb(X, Y, Z).
        """,
        value_builtins(VALUE_USES, sim, smf),
    )
    assert evaluate(program).get("merged") == {("b12",), ("b123",)}


def test_mf_builtin_checks_bound_result():
    sim, smf = chain_env()
    program = parse_program(
        """
        pair(b1, b2). pair(b2, b3).
        hit(X, Y) :- pair(X, Y), mf_domb(X, Y, b12).
        """,
        value_builtins(VALUE_USES, sim, smf),
    )
    assert evaluate(program).get("hit") == {("b1", "b2")}


def test_pre_builtin():
    sim, smf = chain_env()
    program = parse_program(
        """
        candidate(b1). candidate(b23). candidate(b34). candidate(b4).
        below(X) :- candidate(X), pre_domb(X, b123).
        """,
        value_builtins(VALUE_USES, sim, smf),
    )
    assert evaluate(program).get("below") == {("b1",), ("b23",)}


def test_value_builtins_cover_the_used_domains_only():
    sim, smf = chain_env()
    builtins = value_builtins([("sim", "doma"), ("mf", "domb"), ("sim", "doma")], sim, smf)
    assert sorted(builtins) == ["!=", "mf_domb", "sim_doma"]
    assert (builtins["mf_domb"].arity, builtins["sim_doma"].arity) == (3, 2)
    with pytest.raises(ValidationError, match="'Dom' and 'dom' share predicate 'sim_dom'"):
        value_builtins([("sim", "Dom"), ("sim", "dom")], SimilarityRelation())


def test_model_ignores_empty_relations():
    program = parse_program("e(a). p(X) :- e(X), X != a.")
    model = evaluate(program)
    assert model.get("p") == frozenset()
    assert "p" not in model.relations


def test_matches_reference_on_handwritten_programs():
    sim, smf = chain_env()
    texts = [
        """
        e0(c1). e0(c2). l(X, Y) :- e0(X), e0(Y).
        t(X) :- l(X, Y), X != Y.
        """,
        """
        edge(a, b). edge(b, a). edge(b, c).
        r(X, Y) :- edge(X, Y).
        r(X, Y) :- r(X, Z), r(Z, Y).
        s(X) :- r(X, X).
        q(X) :- edge(X, Y), not s(X).
        """,
    ]
    for text in texts:
        program = parse_program(text, value_builtins(VALUE_USES, sim, smf))
        expected = naive_evaluate(program.rules, program.facts, sim, smf)
        assert evaluate(program).relations == expected


def test_matches_reference_on_random_programs():
    sim, smf = chain_env()
    for seed in range(30):
        rng = random.Random(seed)
        rules, facts = random_program(rng)
        program = Program(rules, value_builtins(VALUE_USES, sim, smf))
        expected = naive_evaluate(rules, facts, sim, smf)
        assert evaluate(program, facts).relations == expected, f"seed {seed}"


def test_matches_reference_on_random_builtin_programs():
    # the reference tests each similarity and knows nothing of blocking keys,
    # through which the token environment's scans mostly read
    keyed = 0
    for (sim, smf), token_values in ((chain_env(), None), (token_env(), TOKEN_VALUES)):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            rules, facts = random_program(rng, with_builtins=True, token_values=token_values)
            program = Program(rules, value_builtins(VALUE_USES, sim, smf))
            expected = naive_evaluate(rules, facts, sim, smf)
            assert evaluate(program, facts).relations == expected, f"seed {seed}"
            keyed += sum(scan_kinds(program.plan(i, None)).count("keys") for i in range(len(rules)))
    assert keyed > 20


def test_a_similarity_literal_tests_only_the_candidates_its_keys_reach(monkeypatch):
    # "a x" shares two tokens with "x a" and is tested once; "b" shares none
    calls = []
    similar = SimilarityRelation.similar
    monkeypatch.setattr(
        SimilarityRelation, "similar", lambda self, d, a, b: calls.append((a, b)) or similar(self, d, a, b)
    )
    sim, smf = token_env()
    program = parse_program(
        """
        e("x a"). f("a x"). f(b).
        p(X, Y) :- e(X), f(Y), sim_doma(X, Y).
        """,
        value_builtins(VALUE_USES, sim, smf),
    )
    assert scan_kinds(program.plan(0, None)) == ["full", "keys"]
    assert evaluate(program).get("p") == {("x a", "a x")}
    assert calls == [("x a", "a x")]


def test_the_step_rule_reaches_the_second_leading_tuple_through_blocking_keys():
    d = FIXTURES / "bibliography"
    schema, sim = Schema.load(d / "schema.txt"), SimilarityRelation.load(d / "sim.txt")
    engine = ChaseEngine(schema, load_mds(d / "mds.txt"), sim, MatchingFunction.load(d / "mf.txt").saturate())
    program = engine._program
    plan = program.plan(0, None)
    reads = [program.rules[0].body[i].pred for i in plan.reads]
    assert reads == ["rel_Author", "rel_Author", "rel_Paper", "rel_Paper"]
    # the second author is a partner of the first by `x1 ~name~ x2`, the
    # first paper by `y1 ~title~ p1`, and the second shares the first's block
    assert scan_kinds(plan) == ["full", "keys", "keys", "hash"]


# -- a database that outlives an evaluation ----------------------------------


EDB = ("e0", "e1")


def positive(rules):
    """The rules with their negated literals left out, which keeps them safe."""
    return [Rule(rule.heads, tuple(lit for lit in rule.body if not lit.negated)) for rule in rules]


def union(*parts):
    out = {}
    for part in parts:
        for pred, ts in part.items():
            out.setdefault(pred, set()).update(ts)
    return out


def test_adding_facts_to_a_model_gives_the_model_of_all_the_facts():
    # recursive rules and new facts of derived predicates included
    recursive = 0
    for (sim, smf), token_values in ((chain_env(), None), (token_env(), TOKEN_VALUES)):
        for seed in range(200):
            rng = random.Random(5000 + seed)
            with_builtins = seed % 2 == 1
            rules, facts = random_program(rng, with_builtins=with_builtins, token_values=token_values)
            rules = positive(rules)
            recursive += any(lit.pred == rule.head.pred for rule in rules for lit in rule.body)
            if token_values is not None:
                consts = token_values
            else:
                consts = ["b1", "b2", "b3", "b12", "b23"] if with_builtins else [f"c{i}" for i in range(5)]
            arity = {pred: len(t) for pred, ts in facts.items() for t in ts}
            arity.update((rule.head.pred, len(rule.head.args)) for rule in rules)
            kept, new = {}, {}
            for pred, ts in facts.items():
                for t in sorted(ts):
                    (kept if rng.random() < 0.5 else new).setdefault(pred, set()).add(t)
            for pred in rng.sample(sorted(arity), 2):
                new.setdefault(pred, set()).add(tuple(rng.choice(consts) for _ in range(arity[pred])))
            program = Program(rules, value_builtins(VALUE_USES, sim, smf))
            grown = evaluate(program, new, evaluate(program, kept))
            assert grown == evaluate(program, union(kept, new)), f"seed {seed}"
            assert grown.relations == naive_evaluate(rules, union(kept, new), sim, smf), f"seed {seed}"
    assert recursive > 100


def test_delta_rows_maintain_rows_that_name_their_facts():
    # every fact has its own identifier and every head names the identifiers
    # of the facts it read, as the chase's step rows do: then the rows that
    # read a changed fact are the ones naming it
    sim, smf = chain_env()
    values = ["b1", "b2", "b3", "b12"]
    changed_rows = 0
    for seed in range(100):
        rng = random.Random(7000 + seed)
        rules = []
        for k in range(rng.randint(1, 3)):
            body, ids = [], []
            for j in range(rng.randint(1, 3)):
                pred = rng.choice(EDB)
                ident = Var(f"I{j}")
                ids.append(ident)
                args = [rng.choice([Var("X"), Var("Y"), Var(f"F{j}"), "b1"])]
                if pred == "e1":
                    args.append(rng.choice([Var("X"), Var(f"G{j}")]))
                body.append(Literal(pred, (ident, *args)))
            bound = sorted({a for lit in body for a in lit.args[1:] if isinstance(a, Var)}, key=str)
            if len(bound) >= 2 and rng.random() < 0.5:
                body.append(Literal("sim_domb", tuple(rng.sample(bound, 2))))
            rules.append(Rule((Literal(f"h{k}", tuple(ids)),), tuple(body)))
        program = Program(rules, value_builtins(VALUE_USES, sim, smf))
        facts = {"e0": set(), "e1": set()}
        for n in range(rng.randint(2, 8)):
            pred = rng.choice(EDB)
            facts[pred].add((f"id{n}", *(rng.choice(values) for _ in range(1 if pred == "e0" else 2))))
        db = evaluate(program, facts)
        before = {rule.head.pred: set(db.get(rule.head.pred)) for rule in rules}
        # rewrite the values of one or two facts, keeping their identifiers
        changed = rng.sample(sorted((pred, t) for pred, ts in facts.items() for t in ts), rng.randint(1, 2))
        names = {t[0] for _, t in changed}
        new = {}
        for pred, t in changed:
            facts[pred].discard(t)
            db.discard(pred, [t])
            fresh = (t[0], *(rng.choice(values) for _ in t[1:]))
            facts[pred].add(fresh)
            new.setdefault(pred, set()).add(fresh)
        for rule in rules:
            head = rule.head.pred
            db.discard(head, [row for row in db.get(head) if not names.isdisjoint(row)])
        evaluate(program, new, db)
        assert db == evaluate(program, facts), f"seed {seed}"
        changed_rows += any(db.get(head) != rows for head, rows in before.items())
    assert changed_rows > 30


def test_adding_facts_refuses_a_program_that_negates():
    program = parse_program("p(X) :- e(X, Y), not f(Y).")
    db = evaluate(program, {"e": {("a", "b")}})
    with pytest.raises(ValidationError) as info:
        evaluate(program, {"e": {("b", "c")}}, db)
    assert str(info.value) == "rule 'p(X) :- e(X, Y), not f(Y).' reads 'f' under negation"


def test_delta_rows_refuse_a_builtin_delta():
    sim, smf = chain_env()
    program = parse_program("p(X) :- e(X, Y), sim_domb(X, Y).", value_builtins(VALUE_USES, sim, smf))
    for db in (None, evaluate(program)):
        with pytest.raises(ValidationError, match="built-in 'sim_domb' has no facts"):
            evaluate(program, {"sim_domb": {("b1", "b2")}}, db)
    assert evaluate(program, {"e": {("b1", "b2")}}, evaluate(program)).get("p") == {("b1",)}


def index_from_scratch(tuples, key, keys):
    """What `Database.index(pred, key, keys)` holds over `tuples`: a hash
    index keys a tuple by its values at `key` (one value at one position),
    a blocking-key index by each blocking key of its value at `key`."""
    index = {}
    for stored in tuples:
        if keys is not None:
            found = keys(stored[key])
        elif len(key) == 1:
            found = [stored[key[0]]]
        else:
            found = [tuple(stored[p] for p in key)]
        for k in found:
            index.setdefault(k, set()).add(stored)
    return index


def test_a_database_keeps_every_index_it_built_current():
    sim = SimilarityRelation({"toks": [("a", "d e")]}, {"toks": "token-overlap"})
    keys = sim.keys("toks")
    values = ["a", "b", "a b", "b c", "c", "a c", "d e", "e"]
    specs = [(0,), (1,), (0, 2), (2, 1), 0, 1, 2]
    checked = 0
    for seed in range(60):
        rng = random.Random(9000 + seed)
        db = Database()
        built = {}
        for _ in range(80):
            pred = rng.choice(("p", "q"))
            roll = rng.random()
            if roll < 0.15:
                spec = rng.choice(specs)
                spec = (pred, spec, keys if isinstance(spec, int) else None)
                built.setdefault(spec, db.index(*spec))
            elif roll < 0.6:
                db.add(pred, [tuple(rng.choice(values) for _ in range(3)) for _ in range(rng.randint(1, 3))])
            else:
                held = sorted(db.get(pred))
                gone = rng.sample(held, min(len(held), rng.randint(0, 2)))
                db.discard(pred, gone + [tuple(rng.choice(values) for _ in range(3))])
            for spec, index in built.items():
                assert db.index(*spec) is index
                assert index == index_from_scratch(db.get(spec[0]), *spec[1:]), f"seed {seed}"
                checked += 1
    assert checked > 10000
