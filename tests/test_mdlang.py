"""Rule language: parsing, validation, attribute sets."""

import pytest

from mdclean.errors import ParseError, ValidationError
from mdclean.mdlang import parse_mds, validate_mds
from mdclean.model import MatchingFunction, Schema

TWO_RULES = """
# two rules over one relation
md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;
md md2: lead R(t1; x1, y1), lead R(t2; x2, y2), y1 ~domb~ y2 -> y1 := y2;
"""

RELATIONAL = """
md coblock:
    lead Author(t1; x1, y1, bl1),
    Paper(t3; p1, z1, bl4),
    lead Author(t2; x2, y2, bl2),
    Paper(t4; p2, z2, bl4),
    x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2
    -> bl1 := bl2;
"""


# a matching function on every domain these tests' rules write
WRITES = MatchingFunction(builtins=dict.fromkeys(["doma", "domb", "blk", "e"], "value-min"))


def r_schema():
    return Schema.parse("R(A: doma, B: domb)")


def bib_schema():
    return Schema.parse(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )


def test_parse_two_classical_rules():
    mds = parse_mds(TWO_RULES)
    assert [md.name for md in mds] == ["md1", "md2"]
    md1 = mds[0]
    assert [a.relation for a in md1.atoms] == ["R", "R"]
    assert all(a.leading for a in md1.atoms)
    assert md1.similarities[0].domain == "doma"
    assert (md1.rhs_left, md1.rhs_right) == ("y1", "y2")


def test_lead_markers_optional_for_two_atoms():
    (md,) = parse_mds("md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~ x2 -> y1 := y2;")
    assert all(a.leading for a in md.atoms)
    assert md.similarities[0].domain is None


def test_parse_relational_rule_with_context():
    (md,) = parse_mds(RELATIONAL)
    assert md.name == "coblock"
    lead1, lead2 = md.leading_atoms()
    assert (lead1.tid_var, lead2.tid_var) == ("t1", "t2")
    assert [a.relation for a in md.context_atoms()] == ["Paper", "Paper"]
    # bl4 shared across both context atoms is the block-level join
    assert [a.attr_vars[-1] for a in md.context_atoms()] == ["bl4", "bl4"]
    assert len(md.similarities) == 4


def test_rhs_variable_must_come_from_leading_atoms():
    with pytest.raises((ParseError, ValidationError)):
        parse_mds("md bad: lead R(t1; x1), lead R(t2; x2) -> z := x2;")


def test_rhs_must_take_one_variable_per_side():
    with pytest.raises((ParseError, ValidationError)):
        parse_mds("md bad: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~ x2 -> x1 := y1;")


def test_more_than_two_atoms_require_lead_markers():
    with pytest.raises(ParseError):
        parse_mds("md bad: R(t1; x1), R(t2; x2), S(t3; z) -> x1 := x2;")


def test_exactly_two_lead_markers():
    with pytest.raises(ParseError):
        parse_mds("md bad: lead R(t1; x1), lead R(t2; x2), lead R(t3; x3) -> x1 := x2;")


def test_duplicate_rule_names_rejected():
    # the parser reads both; binding refuses the repeated name before any rule
    mds = parse_mds("md m: R(t1; x1), R(t2; x2) -> x1 := x2;\nmd m: R(t1; x1), R(t2; x2) -> x1 := x2;")
    assert [md.name for md in mds] == ["m", "m"]
    with pytest.raises(ValidationError, match="^duplicate rule name 'm'$"):
        validate_mds(mds, r_schema(), WRITES)


def test_validate_mds_refuses_a_hand_built_list_that_repeats_a_name():
    md1, md2 = parse_mds(TWO_RULES)
    assert validate_mds([md1, md2], r_schema(), WRITES)
    with pytest.raises(ValidationError, match="^duplicate rule name 'md1'$"):
        validate_mds([md1, md2, md1], r_schema(), WRITES)


def test_tid_variable_cannot_be_an_attribute():
    with pytest.raises(ParseError):
        parse_mds("md bad: R(t1; t1, y1), R(t2; x2, y2) -> y1 := y2;")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_mds("md m: R(t1; x1)\nR(t2; x2) -> x1 := x2;")
    assert err.value.line is not None


def test_variable_starting_with_a_digit_rejected():
    # `1x` would read as a constant once capitalised into a Datalog variable,
    # and the Datalog lexer reads no `Éx` at all
    for text in (
        "md m: lead R(t1; 1x, y1), lead R(t2; 2x, y2), 1x ~doma~ 2x -> y1 := y2;",
        "md m: lead R(1t; x1, y1), lead R(t2; x2, y2) -> y1 := y2;",
        "md m: lead R(t1; éx, y1), lead R(t2; éy, y2), éx ~doma~ éy -> y1 := y2;",
    ):
        with pytest.raises(ParseError) as err:
            parse_mds(text)
        assert err.value.line == 1 and err.value.column is not None
        assert "must start with a letter" in str(err.value)
    parse_mds("md m: lead R(_t1; x1, y1), lead R(t2; x2, y2), x1 ~ x2 -> y1 := y2;")


def test_similarity_over_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_mds("md bad: R(t1; x1), R(t2; x2), x1 ~ zz -> x1 := x2;")


def test_validate_against_schema_checks_arity_and_domains():
    schema = r_schema()
    mds = parse_mds(TWO_RULES)
    validate_mds(mds, schema, WRITES)
    with pytest.raises(ValidationError):
        validate_mds(parse_mds("md m: R(t1; x1), R(t2; x2) -> x1 := x2;"), schema, WRITES)
    # joining attributes from different domains through one variable
    with pytest.raises(ValidationError):
        validate_mds(
            parse_mds("md m: R(t1; x1, y1), R(t2; y1, y2), x1 ~ y2 -> x1 := y2;"),
            schema,
            WRITES,
        )


def test_validate_requires_mf_on_written_domain():
    schema = r_schema()
    mds = parse_mds(TWO_RULES)
    validate_mds(mds, schema, MatchingFunction({"domb": [("b1", "b2", "b12")]}))
    with pytest.raises(ValidationError):
        validate_mds(mds, schema, MatchingFunction({"doma": [("a1", "a2", "a12")]}))


def test_rhs_domain_and_targets():
    schema = r_schema()
    md1, _ = validate_mds(parse_mds(TWO_RULES), schema, WRITES)
    assert md1.rhs_domain == "domb"
    assert md1.lead == md1.md.leading_atoms()
    assert md1.rhs == (1, 1)
    assert md1.symmetric_write()
    # a right-hand side naming the second leading atom first, over two
    # relations written at different positions: positions in leading order
    schema = Schema.parse("R(A: doma, B: domb)\nS(C: domb, D: doma)")
    (cross,) = validate_mds(
        parse_mds("md m: lead R(t1; x1, y1), lead S(t2; y2, x2), x1 ~ x2 -> y2 := y1;"),
        schema,
        WRITES,
    )
    assert cross.rhs == (1, 0)
    assert cross.rhs_domain == "domb"
    assert cross.arhs == {("R", "B"), ("S", "C")}
    assert not cross.symmetric_write()


def test_sim_domain_resolution_and_mismatch():
    schema = r_schema()
    (rule,) = validate_mds(
        parse_mds("md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~ x2, y1 ~domb~ y2 -> y1 := y2;"),
        schema,
        WRITES,
    )
    assert rule.sim_domains == ("doma", "domb")
    bad = parse_mds("md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~ y2 -> y1 := y2;")
    with pytest.raises(ValidationError, match="mixes domains"):
        validate_mds(bad, schema, WRITES)
    wrong = parse_mds("md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~domb~ x2 -> y1 := y2;")
    with pytest.raises(ValidationError, match="mixes domains"):
        validate_mds(wrong, schema, WRITES)


def test_alhs_arhs_classical():
    md1, md2 = validate_mds(parse_mds(TWO_RULES), r_schema(), WRITES)
    assert md1.alhs == {("R", "A")}
    assert md1.arhs == {("R", "B")}
    assert md2.alhs == {("R", "B")}
    assert md2.arhs == {("R", "B")}


def test_alhs_arhs_relational_with_joins():
    (rule,) = validate_mds(parse_mds(RELATIONAL), bib_schema(), WRITES)
    # the similarity variables, and bl4 for its equality join
    assert rule.compared == {"x1", "x2", "y1", "y2", "p1", "p2", "bl4"}
    assert rule.alhs == {
        ("Author", "Name"),
        ("Author", "PTitle"),
        ("Paper", "PTitle"),
        ("Paper", "PBlock"),
    }
    assert rule.arhs == {("Author", "ABlock")}


def test_identifier_attributes_never_appear_in_attribute_sets():
    schema = bib_schema()
    (rule,) = validate_mds(parse_mds(RELATIONAL), schema, WRITES)
    for rel, attr in rule.alhs | rule.arhs:
        assert attr != "tid"
        assert attr in schema.relation(rel).attrs


def test_equality_join_lands_in_alhs():
    schema = Schema.parse("R(A: d, B: e)\nS(C: d, E: e)")
    mds = parse_mds("md m: lead R(t1; x, y1), lead S(t2; x, y2) -> y1 := y2;")
    (rule,) = validate_mds(mds, schema, WRITES)
    assert rule.compared == {"x"}
    assert rule.alhs == {("R", "A"), ("S", "C")}


def test_two_atoms_without_lead_are_both_leading():
    unmarked = parse_mds("md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    marked = parse_mds("md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;")
    assert unmarked == marked


def test_an_atom_reusing_its_identifier_is_refused_at_parse():
    with pytest.raises(ParseError) as err:
        parse_mds("md m:\n  lead R(t; t, x), lead R(t2; x2, y2) -> x := y2;")
    assert (err.value.line, err.value.column) == (2, 17)
    assert str(err.value) == (
        "line 2, column 17: atom R: identifier variable 't' reused as an attribute variable")
