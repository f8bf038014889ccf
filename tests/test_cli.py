"""End-to-end command-line runs over the committed fixtures."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean import codegen
from mdclean.cli import main
from mdclean.datalog import Literal, parse_asp, parse_program

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def dir_args(d):
    """Arguments for a setting whose files sit in directory `d`."""
    return [
        "--schema", str(d / "schema.txt"),
        "--instance", str(d),
        "--mds", str(d / "mds.txt"),
        "--sim", str(d / "sim.txt"),
        "--mf", str(d / "mf.txt"),
    ]


def fixture_args(name):
    return dir_args(FIXTURES / name)


def edited_fixture_args(tmp_path, name, file, old, new):
    """Arguments for a copy of fixture `name` with `old` replaced in `file`."""
    d = tmp_path / name
    shutil.copytree(FIXTURES / name, d)
    path = d / file
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    return dir_args(d)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_every_input(capsys):
    query = str(FIXTURES / "divergent" / "queries.txt")
    code, out, err = run(capsys, ["validate", *fixture_args("divergent"), "--query", query])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["checked"]) == {"schema", "instance", "sim", "mf", "mds", "query"}


def test_validate_rejects_non_commutative_merge_table(tmp_path, capsys):
    bad = tmp_path / "mf.txt"
    bad.write_text("domb: m(b1, b2) = b12\ndomb: m(b2, b1) = b21\n")
    schema = str(FIXTURES / "divergent" / "schema.txt")
    code, out, err = run(capsys, ["validate", "--schema", schema, "--mf", str(bad)])
    assert code == 1
    assert "SemilatticeViolation" in err
    assert str(bad) in err


def test_parse_error_names_offending_file(tmp_path, capsys):
    bad = tmp_path / "mds.txt"
    bad.write_text("md broken: lead R(t1; x1, y1) ->\n")
    args = fixture_args("divergent")
    args[args.index("--mds") + 1] = str(bad)
    code, out, err = run(capsys, ["classify", *args])
    assert code == 1
    assert str(bad) in err


def test_missing_file_is_an_io_error(capsys):
    args = fixture_args("divergent")
    args[args.index("--schema") + 1] = str(FIXTURES / "nope.txt")
    code, out, err = run(capsys, ["classify", *args])
    assert code == 3
    assert "nope.txt" in err


def test_classify_verdicts_across_fixtures(capsys):
    code, out, _ = run(capsys, ["classify", *fixture_args("divergent")])
    assert code == 0
    assert json.loads(out)["verdict"] == "general"
    code, out, _ = run(capsys, ["classify", *fixture_args("convergent")])
    assert code == 0
    assert json.loads(out)["verdict"] == "sfai"
    code, out, _ = run(capsys, ["classify", *fixture_args("bibliography")])
    assert code == 0
    assert json.loads(out)["verdict"] == "non-interacting"


def test_chase_all_lists_both_endpoints(capsys):
    code, out, _ = run(capsys, ["chase", "--all", *fixture_args("divergent")])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    values = [
        {row["tid"]: row["B"] for row in inst["R"]} for inst in payload["instances"]
    ]
    assert values == [
        {"t1": "b12", "t2": "b12", "t3": "b3"},
        {"t1": "b123", "t2": "b123", "t3": "b23"},
    ]
    assert len(payload["steps"][0]) == 1 and len(payload["steps"][1]) == 2


def test_chase_one_follows_seeded_order(capsys):
    code, first, _ = run(capsys, ["chase", "--one", "--seed", "0", *fixture_args("divergent")])
    assert code == 0
    code, second, _ = run(capsys, ["chase", "--one", "--seed", "1", *fixture_args("divergent")])
    assert code == 0
    pick = lambda out: {row["tid"]: row["B"] for row in json.loads(out)["instances"][0]["R"]}
    assert pick(first) == {"t1": "b12", "t2": "b12", "t3": "b3"}
    assert pick(second) == {"t1": "b123", "t2": "b123", "t3": "b23"}


def test_emit_datalog_refuses_diverging_fixture(capsys):
    code, out, err = run(capsys, ["emit-datalog", *fixture_args("divergent")])
    assert code == 2
    assert "NotSci" in err
    assert out == ""


def test_solve_prints_clean_tuples(capsys):
    code, out, _ = run(capsys, ["solve", "--format", "text", *fixture_args("convergent")])
    assert code == 0
    assert out.splitlines() == [
        "R(t1, a1, b12)",
        "R(t2, a2, b12)",
        "R(t3, a3, b34)",
        "R(t4, a4, b34)",
    ]


def test_solve_bibliography_matches_committed_oracle(capsys):
    code, out, _ = run(capsys, ["solve", *fixture_args("bibliography")])
    assert code == 0
    expected = json.loads((FIXTURES / "bibliography" / "expected_clean.json").read_text())
    assert json.loads(out) == expected


def test_answer_intersects_diverging_endpoints(capsys):
    query = str(FIXTURES / "divergent" / "queries.txt")
    code, out, _ = run(capsys, ["answer", *fixture_args("divergent"), "--query", query])
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"query": "q_b", "answers": []},
        {"query": "q_a", "answers": [["a1"], ["a2"], ["a3"]]},
    ]


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    for command in (["emit-asp"], ["chase", "--all"], ["solve"]):
        name = "convergent" if command == ["solve"] else "divergent"
        code, first, _ = run(capsys, [*command, *fixture_args(name)])
        assert code == 0
        code, second, _ = run(capsys, [*command, *fixture_args(name)])
        assert code == 0
        assert first == second


def test_out_flag_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "program.lp"
    code, out, _ = run(capsys, ["emit-asp", *fixture_args("convergent"), "--out", str(target)])
    assert code == 0 and out == ""
    code, stdout_text, _ = run(capsys, ["emit-asp", *fixture_args("convergent")])
    assert code == 0
    assert target.read_text() == stdout_text


def test_solve_and_answer_refuse_an_undefined_merge_like_the_chase(tmp_path, capsys):
    # without m(b3, b4) the similar pair t3, t4 cannot be merged; the residual
    # program leaves both values alone, which is not a stable instance
    args = edited_fixture_args(tmp_path, "convergent", "mf.txt", "domb: m(b3, b4) = b34\n", "")
    query = tmp_path / "queries.txt"
    query.write_text("q_b(Y) :- R(T, X, Y).\n")
    code, out, chase_err = run(capsys, ["chase", "--one", *args])
    assert code == 2 and "UndefinedMatch" in chase_err
    for command in (["solve"], ["answer", "--query", str(query)]):
        code, out, err = run(capsys, [*command, *args])
        assert code == 2, command
        assert out == ""
        assert err == chase_err


def test_backslash_value_survives_every_program_command(tmp_path, capsys):
    args = edited_fixture_args(tmp_path, "convergent", "R.csv", "t4,a4,b4", "t4,a4\\,b4")
    code, out, _ = run(capsys, ["chase", "--one", *args])
    assert code == 0
    endpoint = json.loads(out)["instances"][0]
    code, out, _ = run(capsys, ["solve", *args])
    assert code == 0
    assert json.loads(out) == endpoint
    code, out, _ = run(capsys, ["emit-datalog", *args])
    assert code == 0
    assert ("t4", "a4\\", "b4") in parse_program(out).facts["r"]
    code, out, _ = run(capsys, ["emit-asp", *args])
    assert code == 0
    facts = [rule.heads[0] for rule in parse_asp(out) if rule.is_fact]
    assert Literal("r_v", ("t4", "a4\\", "b4")) in facts


def write_setting(tmp_path, schema, rows, mds, sim, mf):
    """Arguments for a setting written out from text, with a CSV per relation."""
    (tmp_path / "schema.txt").write_text(schema)
    for rel, text in rows.items():
        (tmp_path / f"{rel}.csv").write_text(text)
    (tmp_path / "mds.txt").write_text(mds)
    (tmp_path / "sim.txt").write_text(sim)
    (tmp_path / "mf.txt").write_text(mf)
    return dir_args(tmp_path)


def test_solve_never_matches_a_tuple_with_itself(tmp_path, capsys):
    # the rule writes two different positions of one relation, so a tuple
    # paired with itself would merge its own A and B values
    args = write_setting(
        tmp_path,
        "R(A: d, B: d)\n",
        {"R": "tid,A,B\nt1,a,b\n"},
        "md m1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~d~ x2 -> x1 := y2;\n",
        "d: builtin exact-equality\n",
        "d: m(a, b) = ab\n",
    )
    code, out, _ = run(capsys, ["chase", "--one", *args])
    assert code == 0
    chased = json.loads(out)
    assert chased["steps"] == [[]]
    code, out, _ = run(capsys, ["solve", *args])
    assert code == 0
    assert json.loads(out) == chased["instances"][0]
    code, out, _ = run(capsys, ["emit-datalog", *args])
    assert code == 0
    assert (
        "match_m1(T1, X1, Y1, T2, X2, Y2) :- r(T1, X1, Y1), r(T2, X2, Y2), "
        "sim_d(X1, X2), T1 != T2, X1 != Y2.\n"
    ) in out
    code, out, _ = run(capsys, ["emit-asp", *args])
    assert code == 0
    assert "sim_d(X1, X2), T1 != T2, X1 != Y2.\n" in out


def test_chase_one_needs_only_the_merges_its_order_makes(tmp_path, capsys):
    # m(b1, b2) is undefined, but the seeded order merges t1 with t2 first and
    # then needs only m(b13, b2); the exhaustive chase also tries (b1, b2)
    args = write_setting(
        tmp_path,
        "R(A: doma, B: domb)\n",
        {"R": "tid,A,B\nt1,a1,b1\nt2,a1,b3\nt3,a1,b2\n"},
        "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n",
        "",
        "domb: m(b1, b3) = b13\ndomb: m(b13, b2) = b123\n",
    )
    code, solved, err = run(capsys, ["solve", "--format", "text", *args])
    assert (code, err) == (0, "")
    assert solved == "R(t1, a1, b123)\nR(t2, a1, b123)\nR(t3, a1, b123)\n"
    code, out, err = run(capsys, ["chase", "--one", "--format", "text", *args])
    assert (code, err) == (0, "")
    assert out == "clean instance 1 (3 steps)\n" + "".join("  " + row for row in solved.splitlines(True))
    code, out, err = run(capsys, ["chase", "--all", *args])
    assert (code, out) == (2, "")
    assert err.startswith("error: UndefinedMatch: ") and err.endswith("('b1', 'b2')\n")


def test_a_tuple_identifier_repeated_within_a_relation_is_refused(tmp_path, capsys):
    rows = [{"tid": "t1", "A": "a1", "B": "b1"}, {"tid": "t1", "A": "a1", "B": "b3"}]
    (tmp_path / "instance.json").write_text(json.dumps({"R": rows}))
    (tmp_path / "csv").mkdir()
    (tmp_path / "csv" / "R.csv").write_text("tid,A,B\nt1,a1,b1\nt1,a1,b3\n")
    for instance in (tmp_path / "instance.json", tmp_path / "csv"):
        args = fixture_args("convergent")
        args[args.index("--instance") + 1] = str(instance)
        for command in ("validate", "chase"):
            code, out, err = run(capsys, [command, *args])
            assert (code, out) == (1, ""), (instance, command)
            assert err == (
                f"error: ValidationError: {instance}: tuple identifier 't1' used more than once\n"
            )


def test_answer_reads_a_hash_inside_a_quoted_constant(tmp_path, capsys):
    args = write_setting(
        tmp_path,
        "R(A: doma, B: domb)\n",
        {"R": "tid,A,B\nt1,a1,b#1\nt2,a2,b2\n"},
        "md md1: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n",
        "doma: a1 ~ a3\n",
        "domb: m(b2, b3) = b23\n",
    )
    query = tmp_path / "queries.txt"
    query.write_text('q1(T) :- R(T, X, "b#1").  # the value holds a hash\n')
    code, out, err = run(capsys, ["validate", *args, "--query", str(query)])
    assert code == 0, err
    code, out, err = run(capsys, ["answer", *args, "--query", str(query), "--format", "text"])
    assert (code, out) == (0, "q1(t1)\n"), err


def test_answer_refuses_a_quote_inside_a_constant(tmp_path, capsys):
    query = tmp_path / "queries.txt"
    query.write_text('q(X) :- R(T, X, "a""b").\n')
    code, out, err = run(capsys, ["answer", *fixture_args("convergent"), "--query", str(query)])
    assert (code, out) == (1, "")
    assert err == f"""error: ParseError: {query}: stray quote in term '"a""b"'\n"""


def test_answer_reads_a_tilde_or_parenthesis_inside_a_quoted_left_constant(tmp_path, capsys):
    args = fixture_args("convergent")
    outputs = []
    for literal in ('"b~2" ~domb~ Y', '"b(2" ~domb~ Y', 'Y ~domb~ "b~2"'):
        query = tmp_path / "queries.txt"
        query.write_text(f"q(T) :- R(T, X, Y), {literal}.\n")
        code, out, err = run(capsys, ["answer", *args, "--query", str(query), "--format", "text"])
        assert (code, err) == (0, ""), literal
        outputs.append(out)
    assert outputs == ["q: no certain answers\n"] * 3


def test_malformed_json_instance_is_an_input_error(tmp_path, capsys):
    for text, kind in (('{"R": [', "ParseError"), ("[1]", "ValidationError"),
                       ('{"R": 1}', "ValidationError"), ('{"R": ["t1"]}', "ValidationError")):
        instance = tmp_path / "instance.json"
        instance.write_text(text)
        args = fixture_args("convergent")
        args[args.index("--instance") + 1] = str(instance)
        code, out, err = run(capsys, ["chase", "--one", *args])
        assert code == 1, text
        assert out == ""
        assert err.startswith(f"error: {kind}: {instance}: "), err


def test_solve_and_answer_build_no_value_table(monkeypatch, capsys):
    def tables(*args):
        raise AssertionError("value tables built")

    monkeypatch.setattr(codegen, "_value_tables", tables)
    args = fixture_args("convergent")
    code, out, _ = run(capsys, ["solve", "--format", "text", *args])
    assert code == 0
    assert out == (GOLDEN / "convergent.solve.txt").read_text()
    queries = FIXTURES / "divergent" / "queries.txt"
    code, out, _ = run(capsys, ["answer", "--query", str(queries), *args])
    assert code == 0
    assert out == (GOLDEN / "convergent.answer.txt").read_text()
    with pytest.raises(AssertionError, match="value tables built"):
        main(["emit-datalog", *args])


def test_names_differing_only_by_case_are_refused(tmp_path, capsys):
    # generated programs lower-case these names: the `Dom` pairs would leak
    # into `sim_dom`, and the tuples of `R` and `r` would share one predicate
    (tmp_path / "domains").mkdir()
    (tmp_path / "relations").mkdir()
    domains = write_setting(
        tmp_path / "domains",
        "R(A: Dom, B: dom)\n",
        {"R": "tid,A,B\nt1,x,x\nt2,y,y\n"},
        "md md1: lead R(t1; a1, b1), lead R(t2; a2, b2), b1 ~dom~ b2 -> b1 := b2;\n"
        "md md2: lead R(t1; a1, b1), lead R(t2; a2, b2), a1 ~Dom~ a2 -> a1 := a2;\n",
        "Dom: x ~ y\n",
        "Dom: m(x, y) = xy\ndom: m(x, y) = xy\n",
    )
    relations = write_setting(
        tmp_path / "relations",
        "R(A: d)\nr(A: d)\n",
        {"R": "tid,A\nt1,a\n", "r": "tid,A\nt2,b\n"},
        "",
        "",
        "",
    )
    for args, message in ((domains, "'Dom' and 'dom'"), (relations, "'R' and 'r'")):
        for command in (["solve"], ["chase", "--all"], ["chase", "--one"]):
            code, out, err = run(capsys, [*command, *args])
            assert code == 1, command
            assert out == ""
            assert "ValidationError" in err and message in err


# every command that reads the file, `validate` first
READERS = [["classify"], ["chase", "--one"], ["chase", "--all"], ["emit-asp"],
           ["emit-datalog"], ["solve"], ["answer"]]


@pytest.mark.parametrize(
    "file, line, error, commands",
    [
        ("sim.txt", "nodom: q1 ~ q2\n", "UnknownDomain", [["validate"], *READERS]),
        ("mf.txt", "nodom: m(q1, q2) = q12\n", "ValidationError", [["validate"], *READERS]),
        ("queries.txt", "q1() :- R(T, X, Y), a1 ~nodom~ a1.\n", "UnknownDomain",
         [["validate"], ["answer"]]),
    ],
    ids=["sim", "mf", "query"],
)
def test_every_command_refuses_an_undeclared_domain_like_validate(
    tmp_path, capsys, file, line, error, commands
):
    d = tmp_path / "convergent"
    shutil.copytree(FIXTURES / "convergent", d)
    shutil.copy(FIXTURES / "divergent" / "queries.txt", d / "queries.txt")
    path = d / file
    path.write_text(path.read_text() + line)
    for command in commands:
        code, out, err = run(capsys, [*command, *dir_args(d), "--query", str(d / "queries.txt")])
        assert code == 1, command
        assert out == ""
        assert err.startswith(f"error: {error}: {path}: "), (command, err)


@pytest.mark.parametrize(
    "schema, rows, rule",
    [
        # the attribute `t` (or `b`) spells the identifier's (or `B`'s) variable
        ("R(t: d, B: e)\n", "tid,t,B\nt1,a,b1\nt2,a,b2\n",
         "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~d~ x2 -> y1 := y2;\n"),
        ("R(b: d, B: e)\n", "tid,b,B\nt1,a,b1\nt2,a,b2\n",
         "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~d~ x2 -> y1 := y2;\n"),
        # `Bq` spells the second version of `B`
        ("R(B: e, Bq: d)\n", "tid,B,Bq\nt1,b1,a\nt2,b2,a\n",
         "md m: lead R(t1; y1, x1), lead R(t2; y2, x2), x1 ~d~ x2 -> y1 := y2;\n"),
    ],
    ids=["attribute-t", "attributes-b-B", "attributes-B-Bq"],
)
def test_solve_agrees_with_the_chase_when_attributes_spell_generated_variables(
    tmp_path, capsys, schema, rows, rule
):
    args = write_setting(tmp_path, schema, {"R": rows}, rule, "", "e: m(b1, b2) = b12\n")
    code, out, _ = run(capsys, ["chase", "--one", *args])
    assert code == 0
    endpoint = json.loads(out)["instances"][0]
    assert [row["B"] for row in endpoint["R"]] == ["b12", "b12"]
    code, out, err = run(capsys, ["solve", *args])
    assert code == 0, err
    assert json.loads(out) == endpoint


@pytest.mark.parametrize(
    "schema, rows, rules, sim, mf, message, asp_refuses",
    [
        ("sim_d(A: d)\nR(A: d, B: e)\n",
         {"sim_d": "tid,A\ns1,a\n", "R": "tid,A,B\nt1,a,b1\nt2,b,b2\n"},
         "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~d~ x2 -> y1 := y2;\n",
         "d: a ~ b\n", "e: m(b1, b2) = b12\n",
         "the tuples of relation 'sim_d' and the sim built-in of domain 'd' "
         "share predicate 'sim_d'", False),
        ("R(A: d, B: e)\nR_clean(A: d)\n",
         {"R": "tid,A,B\nt1,a,b1\nt2,b,b2\n", "R_clean": "tid,A\nu1,a\n"},
         "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~d~ x2 -> y1 := y2;\n",
         "d: a ~ b\n", "e: m(b1, b2) = b12\n",
         "the tuples of relation 'R_clean' and the clean relation of 'R' "
         "share predicate 'r_clean'", False),
        ("R(A: d, B: e, C: f)\n",
         {"R": "tid,A,B,C\nt1,a1,b1,c1\nt2,a2,b2,c2\n"},
         "md m1: lead R(t1; x1, y1, z1), lead R(t2; x2, y2, z2), x1 ~d~ x2 -> y1 := y2;\n"
         "md M1: lead R(t1; x1, y1, z1), lead R(t2; x2, y2, z2), z1 ~f~ z2 -> x1 := x2;\n",
         "d: a1 ~ a2\n", "e: m(b1, b2) = b12\nd: m(a1, a2) = a12\n",
         "the matches of rule 'm1' and the matches of rule 'M1' share predicate 'match_m1'",
         True),
    ],
    ids=["relation-sim_d", "relation-R_clean", "rules-m1-M1"],
)
def test_programs_refuse_names_that_share_a_generated_predicate(
    tmp_path, capsys, schema, rows, rules, sim, mf, message, asp_refuses
):
    args = write_setting(tmp_path, schema, rows, rules, sim, mf)
    # no rule's matches spill into another's: the chase keeps every A value
    a_values = [line.split(",")[1] for line in rows["R"].splitlines()[1:]]
    for command in (["chase", "--one"], ["chase", "--all"]):
        code, out, err = run(capsys, [*command, *args])
        assert code == 0, err
        for instance in json.loads(out)["instances"]:
            assert [row["A"] for row in instance["R"]] == a_values
    refusing = [["solve"], ["emit-datalog"]] + [["emit-asp"]] * asp_refuses
    for command in refusing:
        code, out, err = run(capsys, [*command, *args])
        assert code == 1, command
        assert out == ""
        assert err == f"error: ValidationError: {message}\n"
    if not asp_refuses:
        code, out, _ = run(capsys, ["emit-asp", *args])
        assert code == 0
        parse_asp(out)


def test_unreadable_names_refuse_emission_but_solve_answers(tmp_path, capsys):
    d = tmp_path / "convergent"
    shutil.copytree(FIXTURES / "convergent", d)
    for file in ("schema.txt", "sim.txt"):
        (d / file).write_text((d / file).read_text().replace("doma", "dom-a"))
    mds = d / "mds.txt"
    mds.write_text(mds.read_text().replace("x1 ~doma~ x2", "x1 ~ x2"))
    for command in (["emit-datalog"], ["emit-asp"]):
        code, out, err = run(capsys, [*command, *dir_args(d)])
        assert code == 1, command
        assert out == ""
        assert "ValidationError: predicate 'sim_dom-a' cannot be written" in err
    code, out, _ = run(capsys, ["solve", "--format", "text", *dir_args(d)])
    assert code == 0
    assert out == (GOLDEN / "convergent.solve.txt").read_text()


def test_a_similarity_value_may_begin_with_builtin(tmp_path, capsys):
    # a line holding `~` declares a pair, whatever its first value spells
    args = write_setting(
        tmp_path,
        "R(A: doma, B: domb)\n",
        {"R": "tid,A,B\nt1,builtinA,b1\nt2,a2,b2\nt3,builtin,b3\nt4,a3,b4\n"},
        "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~doma~ x2 -> y1 := y2;\n",
        "doma: builtinA ~ a2\ndoma: builtin ~ a3\ndomb: builtin exact-equality\n",
        "domb: m(b1, b2) = b12\ndomb: m(b3, b4) = b34\n",
    )
    code, out, err = run(capsys, ["validate", *args])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, ["chase", "--one", "--format", "text", *args])
    assert (code, err) == (0, "")
    assert out == (
        "clean instance 1 (2 steps)\n"
        "  R(t1, builtinA, b12)\n  R(t2, a2, b12)\n  R(t3, builtin, b34)\n  R(t4, a3, b34)\n"
    )


def test_chase_one_step_limit_admits_a_chase_of_exactly_that_many_steps(capsys):
    args = ["chase", "--one", "--format", "text", *fixture_args("convergent")]
    code, out, err = run(capsys, [*args, "--step-limit", "2"])
    assert (code, err) == (0, "")
    assert out == (
        "clean instance 1 (2 steps)\n"
        "  R(t1, a1, b12)\n  R(t2, a2, b12)\n  R(t3, a3, b34)\n  R(t4, a4, b34)\n"
    )
    code, out, err = run(capsys, [*args, "--step-limit", "1"])
    assert (code, out) == (2, "")
    assert err == "error: StepLimitExceeded: chase exceeded 1 enforcement steps\n"


def test_a_negative_step_limit_is_refused_as_invalid_input(capsys):
    # it used to read as a budget already spent ("exceeded -3 enforcement
    # steps", exit 2), or answer where no step applies
    query = ["--query", str(FIXTURES / "divergent" / "queries.txt")]
    for command in (["chase", "--all"], ["chase", "--one"], ["answer", *query]):
        code, out, err = run(capsys, [*command, *fixture_args("divergent"), "--step-limit", "-3"])
        assert (code, out) == (1, "")
        assert err == "error: ValidationError: step limit must not be negative, got -3\n"
    code, out, err = run(capsys, ["chase", "--all", *fixture_args("divergent"), "--step-limit", "0"])
    assert (code, err) == (2, "error: StepLimitExceeded: chase exceeded 0 enforcement steps\n")


def test_answer_refuses_a_negative_step_limit_on_a_converging_setting(tmp_path, capsys):
    # the residual route runs no chase, so it used to print the answers (exit 0)
    query = tmp_path / "queries.txt"
    query.write_text("q(X, Y) :- R(T, X, Y).\n")
    argv = ["answer", *fixture_args("convergent"), "--query", str(query)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, [*argv, "--step-limit", "-3"])
    assert (code, out) == (1, "")
    assert err == "error: ValidationError: step limit must not be negative, got -3\n"


def test_chase_all_and_answer_enumerate_more_than_twelve_tuples(tmp_path, capsys):
    # the diverging fixture plus eleven tuples no rule touches: an instance
    # of 14 tuples used to be refused before the chase started (exit 2)
    idle = "".join(f"t{i},c{i},d{i}\n" for i in range(4, 15))
    args = edited_fixture_args(tmp_path, "divergent", "R.csv", "t3,a3,b3\n", "t3,a3,b3\n" + idle)
    code, out, err = run(capsys, ["classify", *args])
    assert (code, err) == (0, "") and json.loads(out)["verdict"] == "general"
    code, out, err = run(capsys, ["chase", "--all", *args])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["count"] == 2
    assert [len(steps) for steps in payload["steps"]] == [1, 2]
    query = str(FIXTURES / "divergent" / "queries.txt")
    code, out, err = run(capsys, ["answer", *args, "--query", query])
    assert (code, err) == (0, "")
    # the idle tuples' values are certain; of the fixture's, only `A`'s are
    assert json.loads(out) == [
        {"query": "q_b", "answers": sorted([f"d{i}"] for i in range(4, 15))},
        {"query": "q_a", "answers": sorted([[f"a{i}"] for i in range(1, 4)] + [[f"c{i}"] for i in range(4, 15)])},
    ]


@pytest.mark.parametrize("file, text, message", [
    ("schema.txt", "R(A: d)(B: e)\n", "line 1: unexpected ')' in name 'd)(B: e'"),
    ("mf.txt", "domb: m(b1, b2) = b12\ndomb: m(b1, b2, b3) = x\n",
     "line 2: m(...) takes two comma-separated values"),
    ("mf.txt", "domb: m(b1, b2) = b12 = x\n", "line 1: unexpected '=' in value 'b12 = x'"),
])
def test_validate_refuses_a_declaration_line_with_extra_separators(
    tmp_path, capsys, file, text, message
):
    # each line used to be read as one name or value holding the rest
    (tmp_path / file).write_text(text)
    args = ["--schema", str(tmp_path / "schema.txt")]
    if file == "mf.txt":
        (tmp_path / "schema.txt").write_text("R(A: doma, B: domb)\n")
        args += ["--mf", str(tmp_path / "mf.txt")]
    code, out, err = run(capsys, ["validate", *args])
    assert (code, out) == (1, "")
    assert err == f"error: ParseError: {tmp_path / file}: {message}\n"


def test_classify_queries_a_reader_atom_that_repeats_a_variable(tmp_path, capsys):
    # `r` reads R[B] through x1, which it also compares at A; `w` writes B, so
    # its written atom meets x1 at two variables, which become one
    args = write_setting(
        tmp_path,
        "R(A: d, B: d, C: e, D: f)\n",
        {"R": "tid,A,B,C,D\nt1,c,c,g,p\nt2,c,b,f,q\nt3,b,b,g,q\n"},
        "md w: lead R(t1; a1, b1, c1, u1), lead R(t2; a2, b2, c2, u2), u1 ~f~ u2"
        " -> b1 := b2;\n"
        "md r: lead R(t1; x1, x1, z1, v1), lead R(t2; x2, y2, z2, v2), x1 ~d~ x2"
        " -> z1 := z2;\n",
        "f: p ~ q\n",
        "d: builtin value-min\ne: builtin value-min\n",
    )
    code, out, _ = run(capsys, ["classify", *args])
    assert code == 0
    payload = json.loads(out)
    assert [(q["name"], q["satisfied"]) for q in payload["queries"]] == [("w__r__R_B", True)]
    assert payload["verdict"] == "general"
    # merging t1's B with t2's before `r` pairs t1 with t2 keeps t1's C
    code, out, _ = run(capsys, ["chase", "--all", *args])
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, err = run(capsys, ["solve", *args])
    assert (code, out) == (2, "") and err.startswith("error: NotSci: ")


def test_classify_numbers_a_pairs_query_classes_in_key_order(tmp_path, capsys):
    # each pair's embeddings fall into two isomorphism classes; the classes'
    # queries are suffixed in the order of their least serialisations
    args = write_setting(
        tmp_path,
        "R(A: doma, B: domb, C: domb)\n",
        {"R": "tid,A,B,C\nt1,a1,b1,b2\nt2,a2,b5,b6\nt3,a3,b2,b9\n"},
        "md w: lead R(t1; a1, b1, c1), lead R(t2; a2, b2, c2), a1 ~doma~ a2 -> b1 := b2;\n"
        "md r: lead R(t1; x1, y1, z1), lead R(t2; x2, y2, z2), y1 ~domb~ z2, y2 ~domb~ z2"
        " -> x1 := x2;\n",
        "doma: a1 ~ a2\ndomb: b1 ~ b2\n",
        "doma: builtin value-min\ndomb: builtin value-min\n",
    )
    code, out, err = run(capsys, ["classify", "--format", "text", *args])
    assert (code, err) == (0, "")
    assert out == (
        "verdict: general\n"
        "pair: w writes R[B] read by r\n"
        "pair: r writes R[A] read by w\n"
        "query w__r__R_B_1: unsatisfied\n"
        "query w__r__R_B_2: satisfied\n"
        "query r__w__R_A_1: unsatisfied\n"
        "query r__w__R_A_2: satisfied\n"
    )


def context_family_args(tmp_path, j):
    """The bibliography inputs under one rule that reads j Paper atoms beside
    its two Author atoms, paper k similar to y1 for odd k and to y2 for even
    k, and writes y1 := y2 (token-union)."""
    d = tmp_path / f"context{j}"
    shutil.copytree(FIXTURES / "bibliography", d)
    (d / "mf.txt").write_text("blk: builtin value-min\ntitle: builtin token-union\n")
    papers = "".join(f", Paper(t{k + 2}; p{k}, z{k}, bl4)" for k in range(1, j + 1))
    sims = "".join(f", y{2 - k % 2} ~title~ p{k}" for k in range(1, j + 1))
    (d / "mds.txt").write_text(
        f"md ctx: lead Author(t1; x1, y1, bl1), lead Author(t2; x2, y2, bl2){papers},"
        f" x1 ~name~ x2, y1 ~title~ y2{sims} -> y1 := y2;\n"
    )
    return dir_args(d)


# sha256 of `classify` stdout at j = 3, recorded from the permutation keys,
# which took over a minute to print it
CONTEXT_3_CLASSIFY = "a33f4a3828d90fd0b306017d538dd8734930c6c8b24ba68df3316657eb0fd069"


@pytest.mark.parametrize("j, classes", [(3, 3), (4, 1), (5, 3), (6, 1)])
def test_classify_reads_many_context_atoms_without_a_factorial_search(tmp_path, j, classes):
    # in a child process, so that a search that does not end fails the test
    # at the timeout instead of stalling the suite
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "mdclean", "classify", *context_family_args(tmp_path, j)],
        capture_output=True, env=env, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    payload = json.loads(done.stdout)
    assert payload["verdict"] == "sfai"
    base = "ctx__ctx__Author_PTitle"
    names = [base] if classes == 1 else [f"{base}_{k}" for k in range(1, classes + 1)]
    assert [q["name"] for q in payload["queries"]] == names
    if j == 3:
        assert hashlib.sha256(done.stdout).hexdigest() == CONTEXT_3_CLASSIFY


def test_every_command_prints_a_relation_the_instance_omits(tmp_path, capsys):
    args = write_setting(
        tmp_path,
        "R(A: d, B: e)\nS(A: d, B: e)\n",
        {},
        "md m: R(t1; x1, y1), R(t2; x2, y2), x1 ~d~ x2 -> y1 := y2;\n",
        "d: builtin exact-equality\n",
        "e: builtin value-min\n",
    )
    rows = [{"tid": "t1", "A": "a", "B": "b1"}, {"tid": "t2", "A": "a", "B": "b2"}]
    (tmp_path / "instance.json").write_text(json.dumps({"R": rows}))
    args[args.index("--instance") + 1] = str(tmp_path / "instance.json")
    clean = {"R": [{**row, "B": "b1"} for row in rows], "S": []}
    code, out, err = run(capsys, ["solve", *args])
    assert (code, err) == (0, "") and json.loads(out) == clean
    for flag in ("--one", "--all"):
        code, out, err = run(capsys, ["chase", flag, *args])
        assert (code, err) == (0, "") and json.loads(out)["instances"] == [clean], flag


def test_a_csv_file_named_after_no_relation_is_refused(tmp_path, capsys):
    d = tmp_path / "setting"
    shutil.copytree(FIXTURES / "convergent", d)
    (d / "R.csv").rename(d / "r.csv")
    for command in ("validate", "solve"):
        code, out, err = run(capsys, [command, *dir_args(d)])
        assert (code, out) == (1, ""), command
        assert err == f"error: ValidationError: {d}: unknown relation 'r'\n"


@pytest.mark.parametrize(
    "option, file",
    [
        ("--schema", "schema.txt"),
        ("--instance", "instance.json"),
        ("--instance", "R.csv"),
        ("--mds", "mds.txt"),
        ("--sim", "sim.txt"),
        ("--mf", "mf.txt"),
        ("--query", "queries.txt"),
    ],
)
def test_an_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, option, file):
    d = tmp_path / "divergent"
    shutil.copytree(FIXTURES / "divergent", d)
    instance = d / "instance.json"
    instance.write_text('{"R": {"t1": ["a1", "b1"], "t2": ["a2", "b2"]}}')
    path = d / file
    path.write_bytes(path.read_bytes() + b"\xff\n")
    args = [*dir_args(d), "--query", str(d / "queries.txt")]
    if file == "instance.json":
        args[args.index("--instance") + 1] = str(instance)
    code, out, err = run(capsys, ["validate", *args])
    blamed = args[args.index(option) + 1]
    assert (code, out) == (1, "")
    assert err.startswith(f"error: ParseError: {blamed}: "), err
    assert "codec can't decode byte 0xff" in err
    assert "Traceback" not in err
    if file == "R.csv":
        # a CSV of an instance directory is named, as its other errors are
        assert err.startswith(f"error: ParseError: {blamed}: {path}: "), err


@pytest.mark.parametrize("instance", ["R.csv", "instance.json"])
def test_inputs_that_start_with_a_byte_order_mark_read_as_without_it(tmp_path, capsys, instance):
    d = tmp_path / "divergent"
    shutil.copytree(FIXTURES / "divergent", d)
    rows = [{"tid": f"t{i}", "A": f"a{i}", "B": f"b{i}"} for i in (1, 2, 3)]
    (d / "instance.json").write_text(json.dumps({"R": rows}))
    for path in d.iterdir():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    args = [*dir_args(d), "--query", str(d / "queries.txt")]
    args[args.index("--instance") + 1] = str(d if instance == "R.csv" else d / instance)
    for command, golden in (("classify", "divergent.classify.txt"), ("answer", "divergent.answer.txt")):
        code, out, err = run(capsys, [command, *args])
        assert (code, err) == (0, ""), err
        assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("command", [
    ["classify"],
    ["chase", "--one"],
    ["chase", "--all"],
    ["solve"],
    ["answer", "--query", str(FIXTURES / "divergent" / "queries.txt")],
    ["emit-datalog", "--out", "{out}"],
])
def test_inputs_and_outputs_are_utf8_whatever_the_locale(tmp_path, command):
    # a file opened without an encoding warns under `warn_default_encoding`
    out = tmp_path / "residual.dl"
    argv = [arg.format(out=out) for arg in command]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "mdclean", *argv, *fixture_args("convergent")],
        capture_output=True, text=True, encoding="utf-8", env=env,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    if "--out" in command:
        assert out.read_text(encoding="utf-8") == (GOLDEN / "convergent.emit-datalog.txt").read_text(
            encoding="utf-8")
