"""Core model: schema/instance loading, similarity, matching-function saturation."""

import random

import pytest

from mdclean.errors import (
    SemilatticeViolation,
    ValidationError,
)
from mdclean import model
from mdclean.model import (
    Instance,
    MatchingFunction,
    Relation,
    Schema,
    SimilarityRelation,
    collect_active_values,
    tokens,
)

# The table used throughout: four declared merges on domain "domb" whose
# completion must also name the joins reachable through unnamed spellings.
CHAIN_TRIPLES = {
    "domb": [
        ("b1", "b2", "b12"),
        ("b2", "b3", "b23"),
        ("b1", "b23", "b123"),
        ("b3", "b4", "b34"),
    ]
}


def merge_table(sat, domain):
    """Every defined merge over the domain's values, as (a, b, m(a, b))."""
    values = sorted(sat.values(domain))
    return [
        (a, b, c) for a in values for b in values
        if (c := sat.try_match(domain, a, b)) is not None
    ]


def equational_closure(triples):
    """Close a table under idempotence, commutativity, and associativity.

    Independent derivation used as an oracle: repeatedly rewrite
    m(m(a, b), c) = m(a, m(b, c)) over named values only, never inventing new
    ones.  Everything it derives must appear in the saturated table.
    """
    values = set()
    for a, b, c in triples:
        values.update((a, b, c))
    table = {(v, v): v for v in values}
    for a, b, c in triples:
        table[(a, b)] = c
        table[(b, a)] = c

    def put(key, result):
        prev = table.setdefault(key, result)
        assert prev == result, "oracle derived conflicting results"
        return key not in before

    changed = True
    while changed:
        before = set(table)
        for (a, b), ab in list(table.items()):
            for c in values:
                bc = table.get((b, c))
                ab_c = table.get((ab, c))
                if bc is not None and ab_c is not None:
                    # m(a, m(b, c)) = m(m(a, b), c)
                    put((a, bc), ab_c)
                    put((bc, a), ab_c)
                if bc is not None and (a, bc) in table:
                    # the mirror direction names m(m(a, b), c) instead
                    put((ab, c), table[(a, bc)])
                    put((c, ab), table[(a, bc)])
        changed = len(table) != len(before)
    return table


def test_saturation_contains_all_equationally_forced_merges():
    mf = MatchingFunction(CHAIN_TRIPLES)
    sat = mf.saturate({})
    oracle = equational_closure(CHAIN_TRIPLES["domb"])
    for (a, b), c in oracle.items():
        assert sat.try_match("domb", a, b) == c


def test_saturation_matches_oracle_exactly_on_chain_table():
    # On this table the equational closure already reaches every defined pair.
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    oracle = equational_closure(CHAIN_TRIPLES["domb"])
    table = {(a, b): c for a, b, c in merge_table(sat, "domb")}
    assert table == oracle


def test_saturation_derives_absorbed_and_bridged_pairs():
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    assert sat.try_match("domb", "b12", "b3") == "b123"
    assert sat.try_match("domb", "b1", "b12") == "b12"
    assert sat.try_match("domb", "b1", "b23") == "b123"
    assert sat.try_match("domb", "b12", "b23") == "b123"
    assert sat.try_match("domb", "b12", "b123") == "b123"


def test_saturation_leaves_unjoinable_pairs_undefined():
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    assert sat.try_match("domb", "b1", "b4") is None
    assert sat.try_match("domb", "b12", "b34") is None


def test_saturation_rejects_functional_conflict():
    mf = MatchingFunction({"d": [("a", "b", "c"), ("a", "b", "e")]})
    with pytest.raises(SemilatticeViolation):
        mf.saturate({})


def test_saturation_rejects_commutativity_conflict():
    mf = MatchingFunction({"d": [("a", "b", "c"), ("b", "a", "e")]})
    with pytest.raises(SemilatticeViolation):
        mf.saturate({})


def test_saturation_rejects_two_names_for_one_join():
    mf = MatchingFunction({"d": [("a", "b", "c"), ("b", "a", "c"), ("a", "b2", "c")]})
    # c cannot be both a|b and a|b2 unless b and b2 coincide
    with pytest.raises(SemilatticeViolation):
        mf.saturate({})


def test_saturation_rejects_cyclic_definitions():
    mf = MatchingFunction({"d": [("a", "b", "c"), ("c", "d", "a")]})
    with pytest.raises(SemilatticeViolation):
        mf.saturate({})


def test_saturation_is_idempotent():
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    again = MatchingFunction({"domb": merge_table(sat, "domb")}).saturate({})
    assert merge_table(sat, "domb") == merge_table(again, "domb")


def test_saturated_table_satisfies_semilattice_laws():
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    vals = sorted(sat.values("domb"))
    for a in vals:
        assert sat.try_match("domb", a, a) == a
        for b in vals:
            assert sat.try_match("domb", a, b) == sat.try_match("domb", b, a)
            for c in vals:
                ab = sat.try_match("domb", a, b)
                bc = sat.try_match("domb", b, c)
                if ab is not None and bc is not None:
                    left = sat.try_match("domb", ab, c)
                    right = sat.try_match("domb", a, bc)
                    if left is not None and right is not None:
                        assert left == right


def test_precedes_is_a_partial_order_matching_the_join():
    sat = MatchingFunction(CHAIN_TRIPLES).saturate({})
    precedes = sat.domain("domb")[1]
    vals = sorted(sat.values("domb"))
    for a in vals:
        assert precedes(a, a)
        for b in vals:
            assert precedes(a, b) == (sat.try_match("domb", a, b) == b)
            if precedes(a, b) and precedes(b, a):
                assert a == b
            for c in vals:
                if precedes(a, b) and precedes(b, c):
                    assert precedes(a, c)
    assert precedes("b1", "b12")
    assert precedes("b1", "b123")
    assert not precedes("b12", "b34")
    # a value the table does not hold is ordered by equality alone
    assert precedes("zz", "zz")
    assert not precedes("zz", "b12")
    assert not precedes("b1", "zz")


def test_precedes_without_mf_is_equality():
    sat = MatchingFunction({}).saturate({"doma": {"a1", "a2"}})
    assert sat.domain("doma")[1]("a1", "a1")
    assert not sat.domain("doma")[1]("a1", "a2")
    # nor does such a domain merge or hold a value
    assert sat.try_match("doma", "a1", "a1") is None
    assert sat.values("doma") == frozenset()
    assert not sat.has_mf("doma")


def test_saturated_domains_are_the_declared_ones_sorted():
    mf = MatchingFunction({"domb": [("b1", "b2", "b12")]}, {"addr": "token-union"})
    assert mf.saturate({"doma": {"a1"}}).domains() == ["addr", "domb"]


def random_free_table(rng, domain="d"):
    """A random sub-table of the free semilattice on 2-3 atoms.

    Every composite value keeps one defining equation, so the table stays
    presentable over its own base values; without that, dropped definitions
    can force identifications the completion rightly rejects.
    """
    n = rng.choice([2, 3])
    atoms = [f"g{i}" for i in range(n)]
    names = {}
    for r in range(1, n + 1):
        for combo in _combos(atoms, r):
            names[frozenset(combo)] = "_".join(combo) if r > 1 else combo[0]
    keys = sorted(names, key=sorted)
    triples = []
    for s in keys:
        if len(s) < 2:
            continue
        splits = [
            (x, y)
            for x in keys
            for y in keys
            if x != s and y != s and x | y == s
        ]
        x, y = rng.choice(splits)
        triples.append((names[x], names[y], names[s]))
    for left in keys:
        for right in keys:
            if rng.random() < 0.5:
                triples.append((names[left], names[right], names[left | right]))
    return {domain: triples}, names


def _combos(items, r):
    import itertools

    return itertools.combinations(items, r)


def test_random_free_tables_always_saturate_and_respect_laws():
    rng = random.Random(20240817)
    for _ in range(60):
        table, names = random_free_table(rng)
        sat = MatchingFunction(table).saturate({})
        by_name = {v: k for k, v in names.items()}
        for a, b, c in merge_table(sat, "d"):
            assert by_name[a] | by_name[b] == by_name[c]
        oracle = equational_closure(table["d"])
        for (a, b), c in oracle.items():
            assert sat.try_match("d", a, b) == c


def test_token_union_builtin_merges_by_token_set():
    mf = MatchingFunction(builtins={"addr": "token-union"})
    sat = mf.saturate({"addr": {"25 main st", "main st springfield"}})
    assert sat.try_match("addr", "25 main st", "main st springfield") == "25 main springfield st"
    assert sat.try_match("addr", "x", "x") == "x"
    assert sat.domain("addr")[1]("main st", "25 main st")
    assert not sat.domain("addr")[1]("25 main st", "main st")
    assert "25 main springfield st" in sat.values("addr")
    # every union of the active token sets is a value, spelled in token order,
    # and the values are read in sorted order
    sat = mf.saturate({"addr": {"b a", "c", "d e"}})
    assert list(sat.values("addr")) == [
        "a b", "a b c", "a b c d e", "a b d e", "b a", "c", "c d e", "d e",
    ]


def test_value_min_max_builtins():
    mf = MatchingFunction(builtins={"lo": "value-min", "hi": "value-max"})
    sat = mf.saturate({"lo": {"3", "5"}, "hi": {"3", "5"}})
    assert sat.try_match("lo", "3", "5") == "3"
    assert sat.try_match("hi", "3", "5") == "5"
    assert sat.domain("lo")[1]("5", "3")
    assert sat.domain("hi")[1]("3", "5")
    assert not sat.domain("lo")[1]("3", "5")


def test_builtin_and_table_on_same_domain_rejected():
    with pytest.raises(ValidationError):
        MatchingFunction({"d": [("a", "b", "c")]}, {"d": "token-union"})


def test_similarity_is_reflexive_symmetric_and_declared():
    sim = SimilarityRelation({"doma": [("a2", "a3")]})
    assert sim.similar("doma", "a2", "a2")
    assert sim.similar("doma", "a2", "a3")
    assert sim.similar("doma", "a3", "a2")
    assert not sim.similar("doma", "a1", "a2")


def test_similarity_token_overlap_builtin():
    sim = SimilarityRelation(builtins={"title": "token-overlap"})
    assert sim.similar("title", "data cleaning", "cleaning rules")
    assert not sim.similar("title", "data cleaning", "entity matching")
    assert sim.similar("title", "", "")  # reflexivity wins over empty overlap


def test_similar_values_share_a_blocking_key():
    vocabulary = ["x", "y", "a1", "b2"]
    for seed in range(20):
        rng = random.Random(seed)
        # multi-token values, repeated tokens, stray spaces, the empty value,
        # and each token also a value of its own
        values = {
            rng.choice(("", " ")).join(rng.choice(vocabulary) for _ in range(rng.randint(1, 3)))
            + rng.choice(("", " "))
            for _ in range(8)
        }
        values = sorted(values | set(vocabulary) | {""})
        pairs = [tuple(rng.sample(values, 2)) for _ in range(3)]
        sim = SimilarityRelation(
            {"eq": pairs, "tok": pairs, "declared": pairs},
            {"eq": "exact-equality", "tok": "token-overlap"},
        )
        for dom in ("eq", "tok", "declared", "undeclared"):
            keys = sim.keys(dom)
            for a in values:
                assert keys(a)[0] == a and len(set(keys(a))) == len(keys(a)), (seed, dom, a)
                for b in values:
                    if sim.similar(dom, a, b):
                        assert set(keys(a)) & set(keys(b)), (seed, dom, a, b)


def test_token_overlap_splits_each_value_once_per_relation(monkeypatch):
    split = []
    monkeypatch.setattr(model, "tokens", lambda value: split.append(value) or frozenset(value.split()))
    sim = SimilarityRelation(builtins={"name": "token-overlap", "title": "token-overlap"})
    values = ["data cleaning", "cleaning rules", "entity matching"]
    for _ in range(3):
        for dom in ("name", "title"):
            for a in values:
                for b in values:
                    assert sim.similar(dom, a, b) == (a == b or "cleaning" in a and "cleaning" in b)
    assert sorted(split) == sorted(values)
    # another relation splits afresh
    SimilarityRelation(builtins={"name": "token-overlap"}).similar("name", "a b", "b c")
    assert sorted(split) == sorted(values + ["a b", "b c"])


def test_sim_and_mf_file_formats_round_trip():
    sim = SimilarityRelation.parse(
        """
        # declared pairs
        doma: a1 ~ a2
        title: builtin token-overlap
        name: j smith ~ john smith
        """
    )
    assert sim.similar("doma", "a1", "a2")
    assert sim.similar("name", "j smith", "john smith")
    assert sim.similar("title", "data cleaning", "cleaning rules")
    assert not sim.similar("title", "data cleaning", "query answering")
    assert sim.declared_pairs("name") == [("j smith", "john smith")]

    mf = MatchingFunction.parse(
        """
        domb: m(b1, b2) = b12
        domb: m(b2, b3) = b23
        addr: builtin token-union
        """
    )
    assert mf.triples["domb"] == [("b1", "b2", "b12"), ("b2", "b3", "b23")]
    assert mf.builtins["addr"] == "token-union"


def test_schema_parse_and_validation():
    schema = Schema.parse(
        """
        # bibliography
        Author(Name: name, PTitle: title, ABlock: blk)
        Paper(PTitle: title, Venue: venue, PBlock: blk)
        """
    )
    assert schema.relation("Author").domains == ("name", "title", "blk")
    assert schema.relation("Paper").arity == 3
    assert schema.domains() == {"name", "title", "blk", "venue"}
    with pytest.raises(ValidationError):
        Relation("R", ("A", "A"), ("d", "d"))
    with pytest.raises(ValidationError):
        Relation("R", ("tid", "A"), ("d", "d"))
    with pytest.raises(ValidationError):
        schema.relation("Nope")
    # generated programs lower-case relation and domain names
    with pytest.raises(ValidationError, match="domain names 'Dom' and 'dom'"):
        Schema.parse("R(A: Dom, B: dom)")
    with pytest.raises(ValidationError, match="relation names 'R' and 'r'"):
        Schema.parse("R(A: d)\nr(A: d)")


def test_instance_validation():
    schema = Schema.parse("R(A: doma, B: domb)")
    inst = Instance(schema, {"R": {"t1": ("a1", "b1"), "t2": ("a2", "b2")}})
    assert inst.tuples["R"]["t1"] == ("a1", "b1")
    assert inst.tuples["R"]["t2"][schema.relation("R").position("B")] == "b2"
    with pytest.raises(ValidationError):
        Instance(schema, {"R": {"t1": ("a1",)}})
    with pytest.raises(ValidationError):
        Instance(
            Schema.parse("R(A: d)\nS(A: d)"),
            {"R": {"t1": ("a1",)}, "S": {"t1": ("a2",)}},
        )


def test_instance_csv_and_json_loading(tmp_path):
    schema = Schema.parse("R(A: doma, B: domb)")
    (tmp_path / "R.csv").write_text("tid,A,B\nt1,a1,b1\nt2,a2,b2\n")
    inst = Instance.load(schema, tmp_path)
    assert inst.tuples["R"]["t2"] == ("a2", "b2")

    json_path = tmp_path / "inst.json"
    json_path.write_text('{"R": [{"tid": "t3", "A": "a3", "B": "b3"}]}')
    inst2 = Instance.load(schema, json_path)
    assert inst2.tuples["R"]["t3"] == ("a3", "b3")
    assert inst2.to_json_dict() == {"R": [{"tid": "t3", "A": "a3", "B": "b3"}]}

    (tmp_path / "R.csv").write_text("tid,B,A\nt1,b1,a1\n")
    with pytest.raises(ValidationError):
        Instance.load(schema, tmp_path)


def test_a_csv_directory_loads_a_missing_file_empty_and_skips_blank_lines(tmp_path):
    schema = Schema.parse("R(A: doma, B: domb)\nS(A: doma)")
    (tmp_path / "R.csv").write_text("tid,A,B\n\nt1,a1,b1\n   \nt2,a2,b2\n\n")
    inst = Instance.load(schema, tmp_path)
    assert inst.tuples == {"R": {"t1": ("a1", "b1"), "t2": ("a2", "b2")}, "S": {}}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Relation("R", ("A", "B"), ("d",)), "relation R: attribute/domain count mismatch"),
        (lambda: Relation("R", ("A",), ("d",)).position("B"), "relation R has no attribute 'B'"),
        (lambda: SimilarityRelation(builtins={"d": "nope"}),
         "unknown similarity built-in 'nope' (expected one of ('exact-equality', 'token-overlap'))"),
        (lambda: MatchingFunction(builtins={"d": "nope"}),
         "unknown matching built-in 'nope' "
         "(expected one of ('token-union', 'value-min', 'value-max'))"),
        (lambda: Instance(Schema.parse("R(A: d)"), {"R": {"": ("a",)}}), "R: empty tuple identifier"),
    ],
    ids=["arity", "position", "sim-builtin", "mf-builtin", "empty-tid"],
)
def test_a_library_caller_meets_the_same_refusals(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, field, spelled",
    [
        ('{"tid": "t2", "A": "a2", "B": null}', "B", "null"),
        ('{"tid": "t2", "A": true, "B": "b2"}', "A", "true"),
        ('{"tid": "t2", "A": "a2", "B": 1.50}', "B", "1.5"),
        ('{"tid": "t2", "A": "a2", "B": {"x": [1]}}', "B", '{"x": [1]}'),
        ('{"tid": 2, "A": "a2", "B": "b2"}', "tid", "2"),
    ],
    ids=["null", "true", "number", "object", "tid"],
)
def test_a_json_instance_refuses_a_value_that_is_not_a_string(tmp_path, row, field, spelled):
    # a value that is not a string has no one spelling as a value: refused, not converted
    schema = Schema.parse("R(A: doma, B: domb)")
    path = tmp_path / "inst.json"
    path.write_text('{"R": [{"tid": "t1", "A": "a1", "B": "b1"}, ' + row + "]}")
    with pytest.raises(ValidationError) as err:
        Instance.load(schema, path)
    assert str(err.value) == f"R: row 2: field {field!r} must be a string, got {spelled}"


def test_collect_active_values_gathers_all_sources():
    schema = Schema.parse("R(A: doma, B: domb)")
    inst = Instance(schema, {"R": {"t1": ("a1", "b1")}})
    sim = SimilarityRelation({"doma": [("a1", "a2")]})
    active = collect_active_values(inst, sim)
    assert active == {"doma": {"a1", "a2"}, "domb": {"b1"}}
    # a table's own values join when it is saturated
    smf = MatchingFunction({"domb": [("b1", "b2", "b12")]}).saturate(active)
    assert smf.values("domb") == {"b1", "b2", "b12"}


def test_tokens_helper():
    assert tokens("a b  c") == {"a", "b", "c"}
    assert tokens("") == frozenset()
