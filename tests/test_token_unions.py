"""Token-union domains: their values read lazily in sorted order, checked
against the closure built whole, and the commands that never close them."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean.classify import is_similarity_preserving
from mdclean.cli import main
from mdclean.mdlang import parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from mdclean.unions import TokenUnions

from fixture_edits import FIXTURES, fixture_setting
from naive_values import preserving, token_union_closure
from population import random_setting

SRC = Path(__file__).resolve().parent.parent / "src"

# "\x01" sorts below the space that joins tokens, "ab" and "b0" extend
# other tokens
TOKENS = ["a", "b", "c", "ab", "b0", "a\x01", "c\x01d", "é"]


def spelling(rng, toks) -> str:
    """`toks` in their order, joined by one space or by other whitespace."""
    return rng.choice([" ", " ", " ", "  ", "\t"]).join(toks)


def random_active(rng, tokens=TOKENS) -> frozenset[str]:
    """Up to six values: shuffled token lists in assorted spellings, and
    now and then an empty or a whitespace-only value."""
    active = set()
    for _ in range(rng.randint(0, 6)):
        draw = rng.random()
        if draw < 0.07:
            active.add("")
        elif draw < 0.14:
            active.add(" " * rng.randint(1, 2))
        else:
            active.add(spelling(rng, rng.sample(tokens, rng.randint(1, min(3, len(tokens))))))
    return frozenset(active)


def test_values_iterate_as_the_sorted_closure_and_in_tests_membership():
    rng = random.Random(20261020)
    for _ in range(3000):
        active = random_active(rng)
        closure = token_union_closure(active)
        values = TokenUnions(active)
        assert list(values) == sorted(closure), active
        assert len(values) == len(closure), active
        probes = {spelling(rng, rng.sample(TOKENS, rng.randint(0, 4))) for _ in range(8)}
        for probe in closure | probes | {"", " ", "a  b", "b a", "a b", "zz"}:
            assert (probe in values) == (probe in closure), (active, probe)


def test_a_union_can_sort_before_the_sets_it_joins():
    values = TokenUnions(frozenset({"b", "c a"}))
    assert list(values) == ["a b c", "a c", "b", "c a"]
    assert "a b c" in values and "b c" not in values and "a b" not in values


def token_union_setting(rng):
    """`(rules, sim, smf)` of a random setting that writes a token-union
    domain over at most six tokens, under one of the similarity shapes:
    none, declared pairs, `token-overlap`, or both, now and then with a
    token-free value."""
    schema = Schema.parse("R(A: grp, B: toks)")
    mf = MatchingFunction(builtins={"toks": "token-union"})
    rules = validate_mds(parse_mds(
        "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;"
    ), schema, mf)
    tokens = rng.sample(["u", "v", "w", "x", "uv", "v\x01"], rng.randint(1, 6))
    active = sorted(random_active(rng, tokens) - {""} - {" ", "  "})
    if not active or rng.random() < 0.15:
        active.append(rng.choice(["", " "]))
    rows = {f"t{i}": ("g", value) for i, value in enumerate(active)}
    instance = Instance(schema, {"R": rows})
    shape = rng.choice(["none", "pairs", "overlap", "overlap and pairs"])
    pairs = {}
    if "pairs" in shape:
        spelled = [spelling(rng, rng.sample(tokens, rng.randint(1, min(2, len(tokens)))))
                   for _ in range(4)]
        pairs["toks"] = [(a, b) for a, b in zip(spelled, spelled[1:]) if a != b][:2]
    builtins = {"toks": "token-overlap"} if "overlap" in shape else {}
    sim = SimilarityRelation(pairs, builtins)
    return rules, sim, mf.saturate(collect_active_values(instance, sim))


def test_similarity_preservation_equals_the_brute_force_loop():
    settings = [fixture_setting(d.name)[1:] for d in sorted(FIXTURES.iterdir())]
    rng = random.Random(20260823)
    settings += [(s.rules, s.sim, s.smf) for s in (random_setting(rng) for _ in range(745))]
    rng = random.Random(20261020)
    settings += [token_union_setting(rng) for _ in range(300)]
    closed_form = token_free = 0
    for rules, sim, smf in settings:
        assert is_similarity_preserving(rules, sim, smf) == preserving(rules, sim, smf)
        values = smf.values("toks")
        if "toks" in sim.builtins and not sim.declared_pairs("toks"):
            closed_form += not values.token_free
            token_free += values.token_free
    # both sides of the closed form's condition are reached
    assert closed_form > 20 and token_free > 5


def test_a_token_free_value_breaks_token_overlap_preservation():
    schema = Schema.parse("R(A: grp, B: toks)")
    mf = MatchingFunction(builtins={"toks": "token-union"})
    rules = validate_mds(parse_mds(
        "md m: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;"
    ), schema, mf)
    sim = SimilarityRelation(builtins={"toks": "token-overlap"})
    instance = Instance(schema, {"R": {"t1": ("g", "u"), "t2": ("g", " ")}})
    smf = mf.saturate(collect_active_values(instance, sim))
    # " " ~ " " by reflexivity, but its merge with itself is "", and no
    # token is shared with ""
    assert is_similarity_preserving(rules, sim, smf) == (False, ("toks", "", "", "u", "u"))


def single_token_setting(directory: Path, k: int) -> list[str]:
    """CLI arguments of 2 * (k // 2) tuples, tuple j holding token j and
    sharing its key with tuple j + k // 2, merged by token-union: the
    domain closes to 2^k - 1 values, and each key's two tokens join."""
    half = k // 2
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text("R(A: grp, B: toks)\n")
    (directory / "R.csv").write_text(
        "tid,A,B\n" + "".join(f"r{j:02d},g{j % half:02d},t{j:02d}\n" for j in range(2 * half))
    )
    (directory / "mds.txt").write_text(
        "md union: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;\n"
    )
    (directory / "sim.txt").write_text("grp: builtin exact-equality\n")
    (directory / "mf.txt").write_text("toks: builtin token-union\n")
    (directory / "queries.txt").write_text("q(X, Y) :- R(T, X, Y).\n")
    return [
        "--schema", str(directory / "schema.txt"), "--instance", str(directory),
        "--mds", str(directory / "mds.txt"), "--sim", str(directory / "sim.txt"),
        "--mf", str(directory / "mf.txt"),
    ]


def expected_unions(k: int) -> dict[str, str]:
    half = k // 2
    return {f"g{j:02d}": f"t{j:02d} t{j + half:02d}" for j in range(half)}


COUNTEREXAMPLE = {
    "domain": "toks", "value": "t00", "similar_to": "t00",
    "merged_with": "t00 t01", "merge_result": "t00 t01",
}


def check_output(command: str, out: str, k: int) -> None:
    payload = json.loads(out)
    if command == "classify":
        assert payload["verdict"] == "non-interacting"
        # the least counterexample, from the domain's two least values
        assert payload["preservation_counterexample"] == COUNTEREXAMPLE
    elif command == "answer":
        answers = {tuple(a) for a in payload[0]["answers"]}
        assert answers == set(expected_unions(k).items())
    else:
        instance = payload["instances"][0] if command == "chase" else payload
        assert {row["A"]: row["B"] for row in instance["R"]} == expected_unions(k)


COMMANDS = {
    "classify": ["classify"],
    "chase": ["chase", "--one"],
    "solve": ["solve"],
    "answer": ["answer", "--query"],
}


def command_argv(command, directory, args):
    argv = [*COMMANDS[command], *args]
    if command == "answer":
        argv.insert(2, str(directory / "queries.txt"))
    return argv


def one_gigabyte():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_but_emit_closes_a_domain_of_2_to_the_24_values(tmp_path, command):
    # in a child process with a timeout and a memory cap, so that a command
    # that closes the 2^24 - 1 values fails instead of stalling the suite
    args = single_token_setting(tmp_path, 24)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "mdclean", *command_argv(command, tmp_path, args)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=one_gigabyte,
    )
    assert (done.returncode, done.stderr) == (0, "")
    check_output(command, done.stdout, 24)


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_classify_and_solve_never_close_token_union_values(tmp_path, capsys, monkeypatch, command):
    spellings = TokenUnions._spellings

    def read_to_the_end(self):
        yield from spellings(self)
        raise AssertionError("token-union values closed")

    monkeypatch.setattr(TokenUnions, "_spellings", read_to_the_end)
    args = single_token_setting(tmp_path, 6)
    assert main(command_argv(command, tmp_path, args)) == 0
    check_output(command, capsys.readouterr().out, 6)
    with pytest.raises(AssertionError, match="closed"):
        list(TokenUnions(frozenset({"t00", "t01"})))
