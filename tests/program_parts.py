"""The parts the rules of a generated program play, as tests name them.

A program is its numbered blocks of rules; the part of each rule follows
from its block and the shape of its head.
"""


def role(block, rule):
    """The part `rule` plays in block `block` of a generated program, read off
    the block and the shape of its head."""
    if block == 1:
        table = rule.head.pred.split("_")[0]
        return f"{table}-fact" if table in ("sim", "mf", "pre") else "version-fact"
    if len(rule.heads) == 2:
        return "disjunctive"
    if not rule.heads:
        return "prec-antisymmetry" if block == 6 else "notmatch-constraint"
    if rule.head.pred.startswith("oldversion_"):
        return "oldversion"
    if block == 2:
        return "match"
    return {3: "insertion", 4: "prec-newer-version", 5: "prec-shared-version",
            6: "prec-transitivity", 7: "collect"}[block]


def census(blocks):
    """The rules of `blocks` by the part they play, in program order."""
    out = {}
    for block, rules in blocks.items():
        for rule in rules:
            out.setdefault(role(block, rule), []).append(rule)
    return out
