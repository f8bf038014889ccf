"""Reference builder of the general program's order blocks (4 and 5).

`order_blocks` builds the ordering rules one combination at a time: for
every ordered rule pair, every pair of leading atoms over one relation and
each of the two shared-position sets, it renames the second rule apart from
the first from scratch, makes fresh variables for every name, and builds
both `match_` literals and `mt(...)` terms anew.  `codegen` builds what
depends only on the rule pair once and overrides the shared positions per
pair of leading atoms; blocks 4 and 5 of `emit_general_asp` must equal these
rule for rule, in order.

Run `PYTHONPATH=src:tests python -m naive_order --draws 745` to compare the
two on the acceptance population; it prints the first disagreement.
"""

from __future__ import annotations

import argparse
import random
from itertools import product

from mdclean.codegen import emit_general_asp
from mdclean.datalog import NEQ, Compound, Literal, Rule, Var, value_pred
from mdclean.mdlang import var_name

from population import random_setting


def _lit(pred, names) -> Literal:
    return Literal(pred, tuple(Var(n) for n in names))


def _fresh(base: str, taken: set[str]) -> str:
    while base in taken:
        base += "q"
    taken.add(base)
    return base


def _match_args(rule, rename=None) -> list[str]:
    names = [v for atom in rule.lead for v in (atom.tid_var, *atom.attr_vars)]
    if rename is None:
        return [var_name(v) for v in names]
    return [rename[v] for v in names]


def _ordered_pair(rj, rk, lead_j, lead_k, shared):
    """`rk` renamed apart from `rj`, except that `lead_k`'s identifier and
    its attributes at the positions `shared` take `lead_j`'s names; the
    renaming, the names taken, both `match_` literals and the `prec` head."""
    taken = {var_name(v) for v in rj.md.variables()}
    ren = {v: _fresh(var_name(v) + "q", taken) for v in rk.md.variables()}
    for pos in shared:
        ren[lead_k.attr_vars[pos]] = var_name(lead_j.attr_vars[pos])
    ren[lead_k.tid_var] = var_name(lead_j.tid_var)
    first, second = _match_args(rj), _match_args(rk, ren)
    matches = (
        _lit(f"match_{rj.md.name.lower()}", first),
        _lit(f"match_{rk.md.name.lower()}", second),
    )
    mts = (Compound("mt", tuple(map(Var, first))), Compound("mt", tuple(map(Var, second))))
    return ren, taken, matches, Literal("prec", mts)


def order_blocks(rules, schema, smf) -> tuple[list[Rule], list[Rule]]:
    """Blocks 4 and 5 of the general program over `rules`."""
    written: dict[str, set[int]] = {}
    for rule in rules:
        for atom, pos in zip(rule.lead, rule.rhs):
            written.setdefault(atom.relation, set()).add(pos)
    newer, shared_version = [], []
    for rj, rk in product(rules, rules):
        for lead_j, (ip, lead_k) in product(rj.lead, enumerate(rk.lead)):
            if lead_j.relation != lead_k.relation:
                continue
            doms = schema.relation(lead_j.relation).domains
            ordered = [pos for pos, dom in enumerate(doms) if smf.has_mf(dom)]
            unordered = [pos for pos, dom in enumerate(doms) if not smf.has_mf(dom)]
            ren, _, matches, head = _ordered_pair(rj, rk, lead_j, lead_k, unordered)
            pairs = [(var_name(vj), ren[vk]) for vj, vk in zip(lead_j.attr_vars, lead_k.attr_vars)]
            pre = [_lit(value_pred("pre", doms[pos]), pairs[pos]) for pos in ordered]
            for pos in sorted(written[lead_j.relation]):
                newer.append(Rule((head,), (*matches, *pre, _lit(NEQ, pairs[pos]))))

            ren, taken, matches, head = _ordered_pair(rj, rk, lead_j, lead_k, range(len(doms)))
            merged = _fresh("Mv", taken)
            rhs_k = [ren[a.attr_vars[pos]] for a, pos in zip(rk.lead, rk.rhs)]
            shared, other = rhs_k[ip], rhs_k[1 - ip]
            body = (
                *matches,
                _lit(value_pred("mf", rk.rhs_domain), [shared, other, merged]),
                _lit(NEQ, [shared, merged]),
            )
            shared_version.append(Rule((head,), body))
    return newer, shared_version


def disagreement(instance, rules, sim, smf) -> str | None:
    """The first rule where `emit_general_asp`'s blocks 4 and 5 differ from
    `order_blocks`, or None."""
    blocks = emit_general_asp(instance, rules, sim, smf).blocks
    for block, expected in zip((4, 5), order_blocks(rules, instance.schema, smf)):
        got = blocks[block]
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return f"block {block}, rule {i}: {a} != {b}"
        if len(got) != len(expected):
            return f"block {block}: {len(got)} rules, expected {len(expected)}"
    return None


def _scan(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=745)
    parser.add_argument("--seed", type=int, default=20260823)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for i in range(args.draws):
        s = random_setting(rng)
        found = disagreement(s.instance, s.rules, s.sim, s.smf)
        if found is not None:
            print(f"draw {i}: {found}\n{s.describe()}")
            return 1
    print(f"{args.draws} draws agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(_scan())
