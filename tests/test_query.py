"""Conjunctive queries and certain answers."""

import pytest

from mdclean.errors import EmptyCleanSet, ParseError, UnknownDomain, ValidationError
from mdclean.model import Instance, Schema, SimilarityRelation
from mdclean.query import (
    ConjunctiveQuery,
    QueryAtom,
    SimLiteral,
    certain_answers,
    eval_cq,
    find_witness,
    parse_queries,
    parse_query,
)
from mdclean.terms import Var


def schema():
    return Schema.parse("R(A: doma, B: domb)")


def inst(rows):
    return Instance(schema(), {"R": rows})


def test_parse_query_shapes():
    q = parse_query("q(X) :- R(T, X, Y), Y ~domb~ b23.")
    assert q.name == "q"
    assert q.head == (Var("X"),)
    assert q.atoms == (QueryAtom("R", (Var("T"), Var("X"), Var("Y"))),)
    assert q.sims == (SimLiteral(Var("Y"), "b23", "domb"),)

    boolean = parse_query("q() :- R(T, a1, Y).")
    assert boolean.head == ()
    assert boolean.atoms[0].args[1] == "a1"


def test_parse_query_multi_and_errors():
    qs = parse_queries("q1(X) :- R(T, X, Y).\nq2(Y) :- R(T, a1, Y).\n")
    assert [q.name for q in qs] == ["q1", "q2"]
    with pytest.raises(ParseError):
        parse_query("q(X) :- R(T, X, Y)")  # no final dot
    with pytest.raises(ParseError):
        parse_query("q(X) :- R(T, X, Y). q2(X) :- R(T, X, Y).")
    with pytest.raises(ParseError):
        parse_query("q(Z) :- R(T, X, Y).")  # unbound head


def test_quoted_constants_keep_spaces():
    q = parse_query('q(T) :- Author(T, "j smith", P, B).')
    assert q.atoms[0].args[1] == "j smith"
    q = parse_query('q(T) :- R(T, X, "b#1").  # a comment outside the quotes')
    assert q.atoms[0].args[2] == "b#1"


def test_similarity_reads_quoted_tildes_and_parentheses_as_constants():
    q = parse_query('q(T) :- R(T, X, Y), "b~2" ~domb~ Y, "b(2" ~domb~ Y, Y ~domb~ "b~2".')
    assert q.sims == (
        SimLiteral("b~2", Var("Y"), "domb"),
        SimLiteral("b(2", Var("Y"), "domb"),
        SimLiteral(Var("Y"), "b~2", "domb"),
    )
    # unquoted, the right side keeps every `~` after the domain
    q = parse_query("q(T) :- R(T, X, Y), X ~d~ b ~ c, X ~ Y.")
    assert q.sims == (SimLiteral(Var("X"), "b ~ c", "d"), SimLiteral(Var("X"), Var("Y"), None))
    assert parse_query('q(T) :- R(T, X, "a~b").').atoms[0].args[2] == "a~b"


@pytest.mark.parametrize(
    "literal, message",
    [
        # the quote after `"a"` opens a constant that the line never closes
        ('R(T, X, "a"b")', 'line 1, column 21: unterminated quote'),
        ('R(T, X, "ab)', "line 1, column 17: unterminated quote"),
        ('R(T, X, "a""b")', """stray quote in term '"a""b"'"""),
        ('R(T, X, a"b"c)', """stray quote in term 'a"b"c'"""),
        ('R(T, X, "a" b)', """stray quote in term '"a" b'"""),
        ('R(T, X, Y), Y ~domb~ "b" ~ c', """stray quote in term '"b" ~ c'"""),
        ('R(T, X, Y), Y ~"domb"~ b', """stray quote in domain '"domb"'"""),
        ('"R"(T, X, Y)', """stray quote in relation name '"R"'"""),
    ],
)
def test_a_quote_may_only_open_and_close_a_constant(literal, message):
    with pytest.raises(ParseError) as err:
        parse_query(f"q(X) :- {literal}.")
    assert str(err.value) == message


def test_an_unterminated_quote_is_placed_where_it_opens():
    with pytest.raises(ParseError) as err:
        parse_queries('# "a comment may hold a quote\nq1(X) :- R(T, X, Y).\nq2(X) :- R(T, X, "b).\n')
    assert (err.value.line, err.value.column) == (3, 18)
    with pytest.raises(ParseError, match="stray quote in query name"):
        parse_query('"q"(X) :- R(T, X, Y).')


def test_eval_simple_selection():
    d = inst({"t1": ("a1", "b12"), "t2": ("a2", "b12"), "t3": ("a3", "b3")})
    sim = SimilarityRelation()
    q = parse_query("q(X) :- R(T, X, b12).")
    assert eval_cq(d, q, sim) == {("a1",), ("a2",)}
    q_tid = parse_query("q(T) :- R(T, X, b12).")
    assert eval_cq(d, q_tid, sim) == {("t1",), ("t2",)}


def test_eval_with_similarity_literal():
    d = inst({"t1": ("a1", "b1"), "t2": ("a2", "b2")})
    sim = SimilarityRelation({"domb": [("b1", "b2")]})
    q = parse_query("q(T, U) :- R(T, X, Y), R(U, W, Z), Y ~domb~ Z.")
    answers = eval_cq(d, q, sim)
    assert ("t1", "t2") in answers and ("t2", "t1") in answers
    assert ("t1", "t1") in answers  # reflexivity


def test_eval_join_through_shared_variable():
    d = inst({"t1": ("a1", "b1"), "t2": ("a2", "b1"), "t3": ("a3", "b2")})
    q = parse_query("q(T, U) :- R(T, X, Y), R(U, W, Y).")
    answers = eval_cq(d, q, SimilarityRelation())
    assert ("t1", "t2") in answers
    assert ("t1", "t3") not in answers


def test_distinct_tids_flag():
    d = inst({"t1": ("a1", "b1"), "t2": ("a2", "b1")})
    base = parse_query("q(T, U) :- R(T, X, Y), R(U, W, Y).")
    strict = ConjunctiveQuery(base.name, base.head, base.atoms, base.sims, distinct_tids=True)
    answers = eval_cq(d, strict, SimilarityRelation())
    assert ("t1", "t1") not in answers
    assert ("t1", "t2") in answers


def test_find_witness_is_deterministic_first_assignment():
    d = inst({"t1": ("a1", "b1"), "t2": ("a2", "b1")})
    q = parse_query("q(T, U) :- R(T, X, Y), R(U, W, Y).")
    witness = find_witness(d, q, SimilarityRelation())
    assert witness == {"T": "t1", "U": "t1", "W": "a1", "X": "a1", "Y": "b1"}
    empty = parse_query("q() :- R(T, X, zz).")
    assert find_witness(d, empty, SimilarityRelation()) is None


def test_query_without_atoms_checks_its_similarities():
    d = inst({"t1": ("a1", "b1")})
    sim = SimilarityRelation({"domb": [("b1", "b2")]})
    assert eval_cq(d, parse_query("q() :- b1 ~domb~ b9."), sim) == set()
    assert find_witness(d, parse_query("q() :- b1 ~domb~ b9."), sim) is None
    assert eval_cq(d, parse_query("q() :- b1 ~domb~ b2."), sim) == {()}
    assert find_witness(d, parse_query("q() :- b2 ~domb~ b1."), sim) == {}


def test_validation_errors():
    d = inst({"t1": ("a1", "b1")})
    with pytest.raises(ValidationError):
        eval_cq(d, parse_query("q(X) :- R(T, X)."), SimilarityRelation())
    with pytest.raises(ValidationError):
        eval_cq(d, parse_query("q(X) :- S(T, X, Y)."), SimilarityRelation())
    # similarity between two constants has no resolvable domain
    with pytest.raises(ValidationError):
        eval_cq(d, parse_query("q() :- R(T, X, Y), b1 ~ b2."), SimilarityRelation())
    # nor can a similarity range over a variable no atom binds
    with pytest.raises(ValidationError):
        eval_cq(d, parse_query("q() :- R(T, X, Y), Z ~domb~ Y."), SimilarityRelation())
    # two domains whose `sim_<domain>` predicates would coincide
    with pytest.raises(ValidationError):
        eval_cq(d, parse_query("q() :- R(T, X, Y), a ~Dom~ b, a ~dom~ b."), SimilarityRelation())
    # a similarity on a domain the schema lacks, even between two constants
    with pytest.raises(UnknownDomain, match="similarity on unknown domain 'nodom'"):
        eval_cq(d, parse_query("q() :- R(T, X, Y), a1 ~nodom~ a1."), SimilarityRelation())


def test_certain_answers_intersect():
    sim = SimilarityRelation()
    d1 = inst({"t1": ("a1", "b12"), "t2": ("a2", "b12"), "t3": ("a3", "b3")})
    d2 = inst({"t1": ("a1", "b123"), "t2": ("a2", "b123"), "t3": ("a3", "b23")})
    by_value = parse_query("q(Y) :- R(T, X, Y), Y ~domb~ b12.")
    # each instance satisfies the query with its own merged value, but none is shared
    sim_b = SimilarityRelation({"domb": [("b12", "b12")]})
    assert certain_answers([d1, d2], by_value, sim_b) == set()
    names = parse_query("q(X) :- R(T, X, Y).")
    assert certain_answers([d1, d2], names, sim) == {("a1",), ("a2",), ("a3",)}
    assert certain_answers([d1], by_value, sim_b) == {("b12",)}


def test_certain_answers_empty_set_rejected():
    with pytest.raises(EmptyCleanSet):
        certain_answers([], parse_query("q() :- R(T, X, Y)."), SimilarityRelation())


def test_certain_answers_anti_monotone_under_more_instances():
    sim = SimilarityRelation()
    d1 = inst({"t1": ("a1", "b1")})
    d2 = inst({"t1": ("a1", "b2")})
    q = parse_query("q(Y) :- R(T, X, Y).")
    only_d1 = certain_answers([d1], q, sim)
    both = certain_answers([d1, d2], q, sim)
    assert both <= only_d1
