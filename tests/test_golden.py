"""CLI outputs compared byte for byte with recorded goldens.

The files under `tests/golden/` hold the stdout of each command as recorded
before the code it exercises was last rewritten: the generated programs, the
classifier's report, the chase's instances and step sequences, and certain
answers on both the chase and the residual path.  A rewrite must reproduce
the same bytes.
"""

from pathlib import Path

import pytest

from mdclean.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
QUERIES = FIXTURES / "divergent" / "queries.txt"

CASES = [
    ("convergent.emit-asp.txt", "emit-asp", "convergent", False, []),
    ("convergent.emit-datalog.txt", "emit-datalog", "convergent", False, []),
    ("bibliography.emit-asp.txt", "emit-asp", "bibliography", False, []),
    ("bibliography.emit-datalog.txt", "emit-datalog", "bibliography", False, []),
    ("divergent.emit-asp.txt", "emit-asp", "divergent", False, []),
    ("convergent.solve.txt", "solve", "convergent", False, ["--format", "text"]),
    ("bibliography.solve.txt", "solve", "bibliography", False, ["--format", "text"]),
    # an empty rule file: the residual keeps the headers of its empty blocks,
    # the ASP program skips them
    ("convergent-norules.emit-asp.txt", "emit-asp", "convergent", True, []),
    ("convergent-norules.emit-datalog.txt", "emit-datalog", "convergent", True, []),
    ("convergent.classify.txt", "classify", "convergent", False, []),
    ("divergent.classify.txt", "classify", "divergent", False, []),
    ("bibliography.classify.txt", "classify", "bibliography", False, []),
    ("divergent.chase-all.txt", "chase", "divergent", False, ["--all"]),
    ("bibliography.chase-all.txt", "chase", "bibliography", False, ["--all"]),
    ("bibliography.chase-one.txt", "chase", "bibliography", False, ["--one"]),
    # a diverging setting answers over every chase endpoint, a converging one
    # over the residual program's instance
    ("divergent.answer.txt", "answer", "divergent", False, ["--query", str(QUERIES)]),
    ("convergent.answer.txt", "answer", "convergent", False, ["--query", str(QUERIES)]),
    # rules that list the t2 atom first or name the second leading atom's
    # variable left of `:=`, and a rule over two relations writing a
    # different position in each
    *(
        (f"{fixture}.{name}.txt", command, fixture, False, extra)
        for fixture in ("reversed", "crossrel")
        for name, command, extra in (
            ("classify", "classify", []),
            ("chase-one", "chase", ["--one"]),
            ("chase-all", "chase", ["--all"]),
            ("emit-asp", "emit-asp", []),
            ("emit-datalog", "emit-datalog", []),
            ("solve", "solve", ["--format", "text"]),
        )
    ),
    # three rules over a three-attribute relation, two writing one position
    # and one another, a column whose domain has no matching function, and
    # a rule across two relations; the verdict is general, so no residual
    ("mixed.emit-asp.txt", "emit-asp", "mixed", False, []),
    ("mixed.classify.txt", "classify", "mixed", False, []),
]


@pytest.mark.parametrize("golden, command, fixture, no_rules, extra", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, capsysbinary, golden, command, fixture, no_rules, extra):
    d = FIXTURES / fixture
    mds = d / "mds.txt"
    if no_rules:
        mds = tmp_path / "mds.txt"
        mds.write_text("")
    argv = [
        command,
        "--schema", str(d / "schema.txt"),
        "--instance", str(d),
        "--mds", str(mds),
        "--sim", str(d / "sim.txt"),
        "--mf", str(d / "mf.txt"),
        *extra,
    ]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()
