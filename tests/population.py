"""Random small cleaning settings for the randomized acceptance checks.

Every drawn matching function is total on its domain (a full union table
over three base values, token unions, or string minimum), so enforcement
never hits an undefined merge; whether a draw converges depends only on
the rules and similarity pairs it picked up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from mdclean.mdlang import BoundMD, MatchingDependency, parse_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)


def _join_name(parts: frozenset) -> str:
    return "b" + "".join(sorted(parts))


def union_table() -> list[tuple[str, str, str]]:
    """Every merge over the seven joins of three base values."""
    subsets = [
        frozenset(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations("123", size)
    ]
    return [
        (_join_name(s), _join_name(t), _join_name(s | t))
        for s, t in itertools.combinations(subsets, 2)
    ]


# value pools per matching-function flavor, at most four distinct values
# each; the table pool leans on base values so drawn instances usually
# start below the top of the lattice
_POOLS = {
    "table": ["b1", "b1", "b2", "b2", "b3", "b3", "b12"],
    "value-min": ["b1", "b2", "b3", "b4"],
    "token-union": ["u", "v", "w", "u v"],
}

_A_POOL = ["a1", "a2", "a3", "a4"]


@dataclass
class Setting:
    schema: Schema
    instance: Instance
    mds: list[MatchingDependency]
    rules: list[BoundMD]
    sim: SimilarityRelation
    smf: "object"
    mds_text: str
    sim_pairs: dict
    mf_flavor: str

    def describe(self) -> str:
        rows = [f"{rel}/{tid}={vals}" for rel, tid, vals in self.instance.iter_tuples()]
        return (
            f"mf={self.mf_flavor} sim={self.sim_pairs} rows={rows}\n{self.mds_text}"
        )


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


def random_setting(rng: random.Random) -> Setting:
    shape = rng.random()
    two_relations = shape < 0.2
    three_attrs = not two_relations and shape < 0.45

    flavor = rng.choice(["table", "table", "table", "table", "value-min", "token-union"])
    b_pool = _POOLS[flavor]

    if two_relations:
        schema = Schema.parse("R(A: doma, B: domb)\nS(A: doma, B: domb)")
    elif three_attrs:
        schema = Schema.parse("R(A: doma, B: domb, C: doma)")
    else:
        schema = Schema.parse("R(A: doma, B: domb)")
    arity = 3 if three_attrs else 2

    constraints = ["a", "b", "ab"] + (["c"] if three_attrs else [])
    lines = []
    for i in range(rng.randint(1, 3)):
        if two_relations and rng.random() < 0.5:
            rel0, rel1 = "R", "S"
        else:
            rel0 = rel1 = rng.choice(["R", "S"]) if two_relations else "R"
        lines.append(_md_line(f"md{i + 1}", rel0, rel1, arity, rng.choice(constraints)))
    mds_text = "\n".join(lines)
    mds = parse_mds(mds_text)

    # round-robin assignment keeps every relation inhabited (total >= 2)
    total = rng.randint(2, 6)
    rows: dict[str, dict[str, tuple[str, ...]]] = {}
    relations = ["R", "S"] if two_relations else ["R"]
    for i in range(total):
        rel = relations[i % len(relations)]
        vals = [rng.choice(_A_POOL), rng.choice(b_pool)]
        if three_attrs:
            vals.append(rng.choice(_A_POOL))
        rows.setdefault(rel, {})[f"t{i + 1}"] = tuple(vals)
    instance = Instance(schema, rows)

    sim_pairs = {"doma": _sample_pairs(rng, _A_POOL, rng.randint(0, 3))}
    if rng.random() < 0.5:
        sim_pairs["domb"] = _sample_pairs(rng, b_pool, rng.randint(1, 2))
    sim = SimilarityRelation(sim_pairs)

    if flavor == "table":
        mf = MatchingFunction({"domb": union_table()})
    else:
        mf = MatchingFunction(builtins={"domb": flavor})
    rules = validate_mds(mds, schema, mf)
    smf = mf.saturate(collect_active_values(instance, sim))
    return Setting(schema, instance, mds, rules, sim, smf, mds_text, sim_pairs, flavor)
