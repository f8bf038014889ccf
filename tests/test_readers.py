"""The three declaration-file readers, one table of files each.

Every refused file names its error class, message and line; every accepted
file is compared through the reader's public view.
"""

import pytest

from mdclean.errors import ParseError, ValidationError
from mdclean.model import MatchingFunction, Schema, SimilarityRelation


def schema_view(schema):
    return [(r.name, r.attrs, r.domains) for r in schema.relations.values()]


def sim_view(sim):
    # the probe pair shares a token but is neither equal nor declared
    return {
        dom: (sim.declared_pairs(dom), sim.similar(dom, "p q", "q r"))
        for dom in sim.declared_domains()
    }


def mf_view(mf):
    return mf.triples, mf.builtins


READERS = {
    "schema": (Schema.parse, schema_view),
    "sim": (SimilarityRelation.parse, sim_view),
    "mf": (MatchingFunction.parse, mf_view),
}

REFUSED = [
    # schema
    ("schema", "R A: d\n", ParseError, "expected `Name(attr: domain, ...)`", 1),
    ("schema", "# c\n\nR(A: d\n", ParseError, "expected `Name(attr: domain, ...)`", 3),
    ("schema", "R(A: d # )\n", ParseError, "expected `Name(attr: domain, ...)`", 1),
    ("schema", "R(A: d)\nS(A d)\n", ParseError, "attribute 'A d' needs a `: domain`", 2),
    ("schema", "R(A: d,)\n", ParseError, "attribute '' needs a `: domain`", 1),
    ("schema", "R(A: )\n", ParseError, "empty attribute or domain name", 1),
    ("schema", "R(: d)\n", ParseError, "empty attribute or domain name", 1),
    ("schema", "R(A: d)\nR(B: e)\n", ValidationError, "duplicate relation R", None),
    ("schema", "(A: d)\n", ValidationError, "relation name must be non-empty", None),
    ("schema", "R(A: d)(B: e)\n", ParseError, "unexpected ')' in name 'd)(B: e'", 1),
    ("schema", "R(A: d)\nR)(A: d)\n", ParseError, "unexpected ')' in name 'R)'", 2),
    ("schema", "R:S(A: d)\n", ParseError, "unexpected ':' in name 'R:S'", 1),
    ("schema", "R(A(: d)\n", ParseError, "unexpected '(' in name 'A('", 1),
    ("schema", "R(A: d: e)\n", ParseError, "unexpected ':' in name 'd: e'", 1),
    # similarity
    ("sim", "a1 ~ a2\n", ParseError, "expected `domain: ...`", 1),
    ("sim", "\n# c\ndoma a1 ~ a2\n", ParseError, "expected `domain: ...`", 3),
    ("sim", "doma: a1 ~\n", ParseError, "similarity needs two values", 1),
    ("sim", "doma: ~ a2\n", ParseError, "similarity needs two values", 1),
    ("sim", "doma: a1 ~ # a2\n", ParseError, "similarity needs two values", 1),
    ("sim", "doma: a1\n", ParseError, "expected `v1 ~ v2` or `builtin <rule>`", 1),
    ("sim", "doma:\n", ParseError, "expected `v1 ~ v2` or `builtin <rule>`", 1),
    ("sim", "doma: builtin fuzzy\n", ParseError, "unknown similarity built-in 'fuzzy'", 1),
    ("sim", "doma: builtin\n", ParseError, "unknown similarity built-in ''", 1),
    ("sim", "doma: builtintoken-overlapx\n", ParseError,
     "unknown similarity built-in 'token-overlapx'", 1),
    ("sim", "doma: builtin token-union\n", ParseError,
     "unknown similarity built-in 'token-union'", 1),
    ("sim", "doma: builtin token-overlap\ndoma: builtin exact-equality\n", ParseError,
     "conflicting built-in for domain 'doma'", 2),
    ("sim", "x: builtin token-overlap\ny: oops\nx: builtin exact-equality\n", ParseError,
     "expected `v1 ~ v2` or `builtin <rule>`", 2),
    ("sim", "doma: builtin fuzzy\ndoma: a1\n", ParseError, "unknown similarity built-in 'fuzzy'", 1),
    # matching functions
    ("mf", "m(b1, b2) = b12\n", ParseError, "expected `domain: ...`", 1),
    ("mf", "domb: m(b1, b2)\n", ParseError, "expected `m(v1, v2) = v3` or `builtin <rule>`", 1),
    ("mf", "domb: n(b1, b2) = c\n", ParseError, "expected `m(v1, v2) = v3` or `builtin <rule>`", 1),
    ("mf", "domb:\n", ParseError, "expected `m(v1, v2) = v3` or `builtin <rule>`", 1),
    ("mf", "domb: m(b1, b2 = b12\n", ParseError, "expected `m(v1, v2)` on the left of `=`", 1),
    ("mf", "domb: m(b1) = b1\n", ParseError, "m(...) takes two comma-separated values", 1),
    ("mf", "domb: m(b1, ) = b1\n", ParseError, "empty value in matching equation", 1),
    ("mf", "domb: m(b1, b2, b3) = x\n", ParseError, "m(...) takes two comma-separated values", 1),
    ("mf", "domb: m(b1, b2) = b12 = x\n", ParseError, "unexpected '=' in value 'b12 = x'", 1),
    ("mf", "\ndomb: m(b1, b2) = b12, x\n", ParseError, "unexpected ',' in value 'b12, x'", 2),
    ("mf", "\ndomb: m(b1, b2) =  # b12\n", ParseError, "empty value in matching equation", 2),
    ("mf", "domb: builtin token-overlap\n", ParseError,
     "unknown matching built-in 'token-overlap'", 1),
    ("mf", "domb: builtin\n", ParseError, "unknown matching built-in ''", 1),
    ("mf", "domb: builtin m(b1, b2) = b12\n", ParseError,
     "unknown matching built-in 'm(b1, b2) = b12'", 1),
    ("mf", "domb: builtin value-min\ndomb: builtin value-max\n", ParseError,
     "conflicting built-in for domain 'domb'", 2),
    ("mf", "domb: builtin value-min\ndomb: m(b1, b2)\ndomb: builtin value-max\n", ParseError,
     "expected `m(v1, v2) = v3` or `builtin <rule>`", 2),
    ("mf", "domb: m(b1, b2) = b12\ndomb: builtin value-min\n", ParseError,
     "domain 'domb' has both a table and a built-in rule", None),
]


@pytest.mark.parametrize("reader, text, cls, message, line", REFUSED)
def test_reader_refuses_with_class_message_and_line(reader, text, cls, message, line):
    parse, _ = READERS[reader]
    with pytest.raises(cls) as info:
        parse(text)
    assert type(info.value) is cls
    if cls is ParseError:
        assert info.value.line == line
        assert str(info.value) == (f"line {line}: " if line else "") + message
    else:
        assert str(info.value) == message


ACCEPTED = [
    ("schema", "# bibliography\n\nR(A: d, B: e)  # two\n  S()\nT( X :x )\n",
     [("R", ("A", "B"), ("d", "e")), ("S", (), ()), ("T", ("X",), ("x",))]),
    ("schema", "", []),
    ("sim",
     "# pairs and rules\n\ndoma: a1 ~ a2  # pair\ndoma:a2~a3\n"
     "title: builtin token-overlap\ntitle: builtin token-overlap\n"
     "name: j smith ~ john smith\nkeyed: builtin exact-equality\nx: a ~ b ~ c\n",
     {
         "doma": ([("a1", "a2"), ("a2", "a3")], False),
         "keyed": ([], False),
         "name": ([("j smith", "john smith")], False),
         "title": ([], True),
         "x": ([("a", "b ~ c")], False),
     }),
    ("sim", "doma: a1 ~ a1\ndoma: a2 ~ a1\ndoma: a1 ~ a2\n",
     {"doma": ([("a1", "a1"), ("a1", "a2")], False)}),
    # a line holding `~` is a pair, whatever its first value spells
    ("sim", "doma: builtinA ~ a2\ndoma: builtin ~ a3\ndoma: builtin token-overlap\n",
     {"doma": ([("a2", "builtinA"), ("a3", "builtin")], True)}),
    ("mf",
     "# tables and rules\n\ndomb: m(b1, b2) = b12  # join\ndomb:m(b12,b3)=b123\n"
     "addr: builtin token-union\naddr: builtin token-union\n"
     "lo: builtin value-min\nhi: builtin value-max\n",
     ({"domb": [("b1", "b2", "b12"), ("b12", "b3", "b123")]},
      {"addr": "token-union", "lo": "value-min", "hi": "value-max"})),
]


@pytest.mark.parametrize("reader, text, view", ACCEPTED)
def test_reader_accepts_mixed_files(reader, text, view):
    parse, show = READERS[reader]
    assert show(parse(text)) == view
