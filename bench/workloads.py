"""Seeded workload generators for the mdclean benchmark.

Each generator writes one or more cleaning settings in the CLI's own file
formats and returns, per setting, the command lines to run and what their
outputs must be.  The seed only relabels values (random token spellings,
block labels); the structure that decides how much work the program does is
fixed, so every seed gives inputs of the same shape and cost.  Nothing here
imports the test suite, so editing the tests cannot change the benchmark.
"""

from __future__ import annotations

import itertools
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Command:
    """One CLI invocation: the verb (for metric names) and its argv."""

    verb: str
    argv: list[str]
    when: str | None = None  # run only when the verdict is "converging" or "general"


@dataclass
class Setting:
    """One cleaning setting: its files, its commands, and its oracle data."""

    name: str
    commands: list[Command]
    expected: dict = field(default_factory=dict)


def _words(rng: random.Random, count: int, length: int = 6) -> list[str]:
    """Distinct random lowercase words."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _input_flags(directory: Path, instance: Path, query: bool) -> list[str]:
    flags = [
        "--schema", str(directory / "schema.txt"),
        "--instance", str(instance),
        "--mds", str(directory / "mds.txt"),
        "--sim", str(directory / "sim.txt"),
        "--mf", str(directory / "mf.txt"),
    ]
    if query:
        flags += ["--query", str(directory / "queries.txt")]
    return flags


# ---------------------------------------------------------------------------
# coauthor: the bibliography rule at scale


COAUTHOR_AUTHORS = 32

COAUTHOR_MDS = """\
md coblock: lead Author(t1; x1, y1, bl1), Paper(t3; p1, z1, bl4),
            lead Author(t2; x2, y2, bl2), Paper(t4; p2, z2, bl4),
            x1 ~name~ x2, y1 ~title~ y2, y1 ~title~ p1, y2 ~title~ p2
            -> bl1 := bl2;
"""

COAUTHOR_QUERIES = """\
q_block(N, B) :- Author(T, N, P, B).
q_coauthor(N1, N2) :- Author(T1, N1, P1, B), Author(T2, N2, P2, B).
"""


def coauthor(seed: int, directory: Path) -> list[Setting]:
    """N authors in N/2 coauthor pairs, one paper per pair.

    Author j of pair i is named `F[j % 16] S[i]` and has title `T[i] G[j % 16]`;
    paper i has title `T[i] H[i % 4]` and block PB[i // 2].  The two authors
    of a pair share a surname, a topic and a paper, so their blocks merge.
    Authors of different pairs whose indices agree modulo 16 share a first name
    and a title filler, so they pass both leading similarities and send the
    chase into the context join, which fails: their papers' topics differ and
    the only papers sharing a block belong to adjacent pairs, whose author
    indices never agree modulo 16.  Every pair therefore merges exactly once
    (N/2 steps) and no two pairs ever merge, whatever the labels are.
    """
    rng = random.Random(seed)
    authors = COAUTHOR_AUTHORS
    pairs = authors // 2
    vocab = iter(_words(rng, 2 * pairs + 16 + 16 + 4 + 4 + authors + pairs // 2))
    surname = [next(vocab) for _ in range(pairs)]
    topic = [next(vocab) for _ in range(pairs)]
    first = [next(vocab) for _ in range(16)]
    filler = [next(vocab) for _ in range(16)]
    paper_filler = [next(vocab) for _ in range(4)]
    venue = [next(vocab) for _ in range(4)]
    ablock = [next(vocab) for _ in range(authors)]
    pblock = [next(vocab) for _ in range(pairs // 2)]

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text(
        "Author(Name: name, PTitle: title, ABlock: blk)\n"
        "Paper(PTitle: title, Venue: venue, PBlock: blk)\n"
    )
    (directory / "mds.txt").write_text(COAUTHOR_MDS)
    (directory / "sim.txt").write_text("name: builtin token-overlap\ntitle: builtin token-overlap\n")
    (directory / "mf.txt").write_text("blk: builtin value-min\n")
    (directory / "queries.txt").write_text(COAUTHOR_QUERIES)

    author_rows, clean_rows = [], []
    for j in range(authors):
        i = j // 2
        name = f"{first[j % 16]} {surname[i]}"
        title = f"{topic[i]} {filler[j % 16]}"
        tid = f"a{j:04d}"
        author_rows.append([tid, name, title, ablock[j]])
        merged = min(ablock[2 * i], ablock[2 * i + 1])
        clean_rows.append({"tid": tid, "Name": name, "PTitle": title, "ABlock": merged})
    paper_rows, paper_clean = [], []
    for i in range(pairs):
        row = [f"p{i:04d}", f"{topic[i]} {paper_filler[i % 4]}", venue[i % 4], pblock[i // 2]]
        paper_rows.append(row)
        paper_clean.append(dict(zip(["tid", "PTitle", "Venue", "PBlock"], row)))
    _write_csv(directory / "Author.csv", ["tid", "Name", "PTitle", "ABlock"], author_rows)
    _write_csv(directory / "Paper.csv", ["tid", "PTitle", "Venue", "PBlock"], paper_rows)

    clean = {"Author": clean_rows, "Paper": paper_clean}
    blocks: dict[str, list[str]] = {}
    for row in clean_rows:
        blocks.setdefault(row["ABlock"], []).append(row["Name"])
    answers = [
        {"query": "q_block", "answers": sorted([r["Name"], r["ABlock"]] for r in clean_rows)},
        {
            "query": "q_coauthor",
            "answers": sorted(
                [n1, n2] for names in blocks.values() for n1 in names for n2 in names
            ),
        },
    ]
    flags = _input_flags(directory, directory, query=False)
    commands = [
        Command("classify", ["classify", *flags]),
        Command("chase_one", ["chase", "--one", *flags]),
        Command("solve", ["solve", *flags]),
        Command("answer", ["answer", *_input_flags(directory, directory, query=True)]),
    ]
    expected = {
        "verdict": "non-interacting",
        "clean": clean,
        "steps": pairs,
        "answers": answers,
    }
    return [Setting("coauthor", commands, expected)]


# ---------------------------------------------------------------------------
# token-lattice: token-union closure cost


LATTICE_TOKENS = 10
LATTICE_BLOCKS = 4
LATTICE_TUPLES = 16


def token_lattice(seed: int, directory: Path) -> list[Setting]:
    """Tuples in equal-key blocks whose B values are single tokens.

    Tuple j sits in block j % LATTICE_BLOCKS and carries token
    j % LATTICE_TOKENS, so the B column holds LATTICE_TOKENS distinct values
    and every command saturates the token-union domain over all
    2^LATTICE_TOKENS - 1 unions of them.  The chase itself is small: each
    block's B values union to the block's token set.
    """
    rng = random.Random(seed)
    tokens, blocks, tuples = LATTICE_TOKENS, LATTICE_BLOCKS, LATTICE_TUPLES
    words = _words(rng, tokens + blocks)
    toks, keys = words[:tokens], words[tokens:]

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text("R(A: grp, B: toks)\n")
    (directory / "mds.txt").write_text(
        "md union: lead R(t1; x1, y1), lead R(t2; x2, y2), x1 ~grp~ x2 -> y1 := y2;\n"
    )
    (directory / "sim.txt").write_text("grp: builtin exact-equality\n")
    (directory / "mf.txt").write_text("toks: builtin token-union\n")

    rows = [[f"t{j:03d}", keys[j % blocks], toks[j % tokens]] for j in range(tuples)]
    _write_csv(directory / "R.csv", ["tid", "A", "B"], rows)
    union: dict[str, set[str]] = {}
    for _, key, tok in rows:
        union.setdefault(key, set()).add(tok)
    final_b = {key: " ".join(sorted(ts)) for key, ts in union.items()}

    flags = _input_flags(directory, directory, query=False)
    commands = [
        Command("classify", ["classify", *flags]),
        Command("chase_one", ["chase", "--one", *flags]),
    ]
    expected = {"verdict": "non-interacting", "final_b": final_b}
    return [Setting("token-lattice", commands, expected)]


# ---------------------------------------------------------------------------
# soak: many small random settings


SOAK_DRAWS = 149
SOAK_POPULATION_SEED = 20260823
SOAK_STEP_LIMIT = 1_000_000


def _join_name(parts: frozenset) -> str:
    return "b" + "".join(sorted(parts))


def _union_table() -> list[tuple[str, str, str]]:
    """Every merge over the seven joins of three base values."""
    subsets = [
        frozenset(combo) for size in (1, 2, 3) for combo in itertools.combinations("123", size)
    ]
    return [
        (_join_name(s), _join_name(t), _join_name(s | t))
        for s, t in itertools.combinations(subsets, 2)
    ]


# value pools per matching-function flavour, at most four distinct values each
_POOLS = {
    "table": ["b1", "b1", "b2", "b2", "b3", "b3", "b12"],
    "value-min": ["b1", "b2", "b3", "b4"],
    "token-union": ["u", "v", "w", "u v"],
}
_A_POOL = ["a1", "a2", "a3", "a4"]

# values a domb similarity pair may name: the pool less its joins (b12 is
# m(b1, b2), "u v" the union of u and v).  A pair naming a join lets a merge
# create a similarity the input lacks; the classifier's SFAI check evaluates
# its queries on the input only, so it then calls a draw with two or three
# clean instances sfai (an open defect, about one draw in 2,500).
_SIM_POOLS = {
    "table": ["b1", "b2", "b3"],
    "value-min": ["b1", "b2", "b3", "b4"],
    "token-union": ["u", "v", "w"],
}


def _sample_pairs(rng: random.Random, values, count: int):
    pairs = list(itertools.combinations(sorted(set(values)), 2))
    rng.shuffle(pairs)
    return pairs[:count]


def _md_line(name: str, rel0: str, rel1: str, arity: int, constraint: str) -> str:
    if arity == 2:
        leads = f"lead {rel0}(t1; x1, y1), lead {rel1}(t2; x2, y2)"
    else:
        leads = f"lead {rel0}(t1; x1, y1, z1), lead {rel1}(t2; x2, y2, z2)"
    sims = {
        "a": "x1 ~doma~ x2",
        "b": "y1 ~domb~ y2",
        "ab": "x1 ~doma~ x2, y1 ~domb~ y2",
        "c": "z1 ~doma~ z2",
    }[constraint]
    return f"md {name}: {leads}, {sims} -> y1 := y2;"


def _relabel(rng: random.Random, names) -> dict[str, str]:
    """Fresh equal-length words for `names`, in the same sorted order.

    Every comparison between values (value-min, sorted output, token order
    inside a union) comes out as before, so the draw does the same work.
    """
    names = sorted(set(names))
    return dict(zip(names, sorted(_words(rng, len(names)))))


def _soak_draw(rng: random.Random, labels: random.Random, directory: Path) -> Setting:
    """One small setting: 1-3 rules, 2-6 tuples, one of three merge flavours.

    `rng` draws the setting in the order the acceptance population draws
    its own; `labels` then renames every value.  Every matching function is
    total on its domain, so no merge is undefined; whether a draw converges
    depends only on the rules and similarity pairs.
    """
    shape = rng.random()
    two_relations = shape < 0.2
    three_attrs = not two_relations and shape < 0.45
    flavor = rng.choice(["table", "table", "table", "table", "value-min", "token-union"])
    b_pool = _POOLS[flavor]
    if two_relations:
        schema = "R(A: doma, B: domb)\nS(A: doma, B: domb)\n"
        relations = ["R", "S"]
    elif three_attrs:
        schema = "R(A: doma, B: domb, C: doma)\n"
        relations = ["R"]
    else:
        schema = "R(A: doma, B: domb)\n"
        relations = ["R"]
    arity = 3 if three_attrs else 2

    constraints = ["a", "b", "ab"] + (["c"] if three_attrs else [])
    lines = []
    for i in range(rng.randint(1, 3)):
        if two_relations and rng.random() < 0.5:
            rel0, rel1 = "R", "S"
        else:
            rel0 = rel1 = rng.choice(["R", "S"]) if two_relations else "R"
        lines.append(_md_line(f"md{i + 1}", rel0, rel1, arity, rng.choice(constraints)))

    # round-robin assignment keeps every relation inhabited
    rows: dict[str, list[dict[str, str]]] = {rel: [] for rel in relations}
    for i in range(rng.randint(2, 6)):
        rel = relations[i % len(relations)]
        row = {"tid": f"t{i + 1}", "A": rng.choice(_A_POOL), "B": rng.choice(b_pool)}
        if three_attrs:
            row["C"] = rng.choice(_A_POOL)
        rows[rel].append(row)

    sim_pairs = {"doma": _sample_pairs(rng, _A_POOL, rng.randint(0, 3))}
    if rng.random() < 0.5:
        sim_pairs["domb"] = _sample_pairs(rng, _SIM_POOLS[flavor], rng.randint(1, 2))

    name = _relabel(labels, _A_POOL)
    if flavor == "table":
        table = _union_table()
        name.update(_relabel(labels, {v for triple in table for v in triple}))
        mf = "".join(f"domb: m({name[a]}, {name[b]}) = {name[c]}\n" for a, b, c in table)
    else:
        mf = f"domb: builtin {flavor}\n"
        if flavor == "token-union":
            token = _relabel(labels, ["u", "v", "w"])
            name.update({v: " ".join(token[t] for t in v.split()) for v in b_pool})
        else:
            name.update(_relabel(labels, b_pool))
    for rel_rows in rows.values():
        for row in rel_rows:
            row.update({attr: name[v] for attr, v in row.items() if attr != "tid"})

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text(schema)
    (directory / "mds.txt").write_text("\n".join(lines) + "\n")
    (directory / "sim.txt").write_text("".join(
        f"{dom}: {name[a]} ~ {name[b]}\n" for dom, pairs in sim_pairs.items() for a, b in pairs
    ))
    (directory / "mf.txt").write_text(mf)
    instance = directory / "instance.json"
    instance.write_text(json.dumps(rows, indent=1) + "\n")
    tail = ", Z" if three_attrs else ""
    (directory / "queries.txt").write_text(
        "".join(f"q_{rel}(X, Y) :- {rel}(T, X, Y{tail}).\n" for rel in relations)
    )

    flags = _input_flags(directory, instance, query=False)
    # a few draws need more than the default 20000 enumeration steps; they
    # are the heavy tail this workload exists to measure, so let them finish
    limit = ["--step-limit", str(SOAK_STEP_LIMIT)]
    commands = [
        Command("classify", ["classify", *flags]),
        Command("chase_all", ["chase", "--all", *limit, *flags]),
        Command("chase_one", ["chase", "--one", *flags]),
        Command("solve", ["solve", *flags], when="converging"),
        Command("emit_asp", ["emit-asp", *flags], when="general"),
        Command("answer", ["answer", *limit, *_input_flags(directory, instance, query=True)]),
    ]
    return Setting(directory.name, commands, {"relations": relations})


def soak(seed: int, directory: Path) -> list[Setting]:
    """The same draws for every seed; the seed renames their values.

    Drawing fresh settings per seed changed how many of the rare draws with
    a large `chase --all` a run met, which moved throughput by a sixth from
    seed to seed.  Renaming keeps the work and changes every input file.
    """
    rng, labels = random.Random(SOAK_POPULATION_SEED), random.Random(seed)
    return [_soak_draw(rng, labels, directory / f"d{i:04d}") for i in range(SOAK_DRAWS)]


WORKLOADS = {"coauthor": coauthor, "soak": soak, "token-lattice": token_lattice}
