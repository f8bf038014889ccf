"""Generate cleaning programs from a rule set and an instance.

Two related outputs.  The general form targets answer-set solvers: tuple
versions accumulate in `<rel>_v` predicates, every applicable rule pair opens
a disjunctive match-or-not choice, and an order `prec` on matchings discards
models whose merges cannot be ordered into a valid enforcement sequence: it
is recorded between matchings that share a tuple, closed transitively by a
rule, and must be antisymmetric.  Projected onto `<rel>_clean`, its stable
models are the clean instances the chase enumerates; a pair whose two
orientations the chase counts as one step may be matched in either, so
several stable models can share one projection.  When the classifier shows
the rule set converges to one clean instance, the residual form drops the
disjunction, the `prec` machinery, and all constraints, leaving stratified
Datalog that computes that instance bottom-up.

Both programs are built as rule ASTs, kept as numbered blocks of
`datalog.Rule`s filled in block order, a fact being a rule with no body.  The
similarity, merge, and order relations (`sim_<dom>`, `mf_<dom>`,
`pre_<dom>`) are built-ins of `datalog.value_builtins`: the residual's
`Program`, built from its version facts and rules, evaluates them as such,
and the text renders each as a table of ground facts over its domain's
values, so a program is self-contained.  Text is rendered from
the blocks by one `datalog.RuleWriter` only for output and never parsed
back.  Matchings are reified as `mt(...)` terms holding the two tuple
versions, which keeps `prec` binary even when rules range over relations of
different arities.

The order blocks (4 and 5) hold a few rules per pair of leading atoms of
every ordered rule pair, so they share what depends only on the rules: each
rule's `match_` literal and `mt(...)` term are built once, and each ordered
rule pair's renaming apart once; each pair of leading atoms over one
relation then only overrides the shared positions of that renaming.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, NamedTuple

from .datalog import (
    NEQ,
    Builtin,
    Compound,
    Literal,
    Program,
    Rule,
    RuleWriter,
    Var,
    evaluate,
    value_builtins,
    value_pred,
)
from .errors import NotSci, ValidationError
from .mdlang import BoundMD, MDAtom, md_body, var_name
from .model import (
    Instance,
    Relation,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

if TYPE_CHECKING:
    from .classify import Classification

BLOCK_TITLES = {
    1: "initial tuple versions and value tables",
    2: "match choices, superseded versions, forced-match filter",
    3: "merged tuple insertion",
    4: "ordering: matchings of successive versions",
    5: "ordering: matchings sharing one version",
    6: "ordering is a partial order",
    7: "clean relation collection",
}

# the residual prints every one of its headers, also over an empty block
RESIDUAL_TITLES = {
    1: BLOCK_TITLES[1],
    2: "matches over current tuples, superseded versions",
    3: BLOCK_TITLES[3],
    7: BLOCK_TITLES[7],
}


def _render(blocks: dict[int, list[Rule]], titles: dict[int, str]) -> str:
    """One section per block of `titles`, in block order: its `% <block>.
    <title>` header, then the block's rules in their order, all written by
    one `RuleWriter`."""
    write = RuleWriter().rule
    sections = (
        [f"% {block}. {title}", *map(write, blocks[block])]
        for block, title in sorted(titles.items())
    )
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


class AspText(NamedTuple):
    # the rules of each block, in block order; the text heads only those that hold one
    blocks: dict[int, list[Rule]]

    @property
    def statements(self) -> list[Rule]:
        """The program's rules in the order the text writes them."""
        return [rule for rules in self.blocks.values() for rule in rules]

    def text(self) -> str:
        titles = {block: BLOCK_TITLES[block] for block, rules in self.blocks.items() if rules}
        return _render(self.blocks, titles)


class ResidualProgram(NamedTuple):
    program: Program
    schema: Schema
    # the text's blocks, built when called: evaluation needs no value table
    blocks: Callable[[], dict[int, list[Rule]]]

    def text(self) -> str:
        return _render(self.blocks(), RESIDUAL_TITLES)


# ---------------------------------------------------------------------------
# naming and AST pieces


def _pred(name: str) -> str:
    return name.lower()


def _version_pred(rel: str) -> str:
    return f"{_pred(rel)}_v"


def _clean_pred(rel: str) -> str:
    return f"{_pred(rel)}_clean"


def _oldversion_pred(rel: str) -> str:
    return f"oldversion_{_pred(rel)}"


def _lit(pred: str, names, negated: bool = False) -> Literal:
    """A literal whose arguments are the variables called `names`."""
    return Literal(pred, tuple(Var(n) for n in names), negated)


def _neq(left: str, right: str) -> Literal:
    return Literal(NEQ, (Var(left), Var(right)))


class _Vars(dict):
    """One `Var` per name."""

    def __missing__(self, name: str) -> Var:
        var = self[name] = Var(name)
        return var


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "q"
    taken.add(name)
    return name


def _tuple_vars(rel: Relation) -> list[str]:
    """Distinct variables for a tuple: `T` for its identifier, then one per
    attribute, named after it."""
    taken: set[str] = set()
    return [_fresh("T", taken), *(_fresh(var_name(a), taken) for a in rel.attrs)]


def _lead_args(atom: MDAtom) -> list[str]:
    return [var_name(v) for v in (atom.tid_var, *atom.attr_vars)]


def _match_args(rule: BoundMD) -> list[str]:
    return _lead_args(rule.lead[0]) + _lead_args(rule.lead[1])


def _written_positions(rules: list[BoundMD]) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for rule in rules:
        for atom, pos in zip(rule.lead, rule.rhs):
            out.setdefault(atom.relation, set()).add(pos)
    return out


# ---------------------------------------------------------------------------
# shared pieces


def _insertion_rules(rules: list[BoundMD], relation_pred) -> list[Rule]:
    """Block 3: per rule, one head per leading atom, writing the merged value
    over the match."""
    out = []
    for rule in rules:
        md, dom = rule.md, rule.rhs_domain
        taken = {var_name(v) for v in md.variables()}
        merged = _fresh("Mv", taken)
        body = (
            _lit(f"match_{_pred(md.name)}", _match_args(rule)),
            _lit(value_pred("mf", dom), [var_name(md.rhs_left), var_name(md.rhs_right), merged]),
        )
        for atom, pos in zip(rule.lead, rule.rhs):
            head_args = _lead_args(atom)
            head_args[1 + pos] = merged
            out.append(Rule((_lit(relation_pred(atom.relation), head_args),), body))
    return out


def _oldversion_rules(
    schema: Schema,
    smf: SaturatedMatchingFunction,
    written: dict[str, set[int]],
    relation_pred,
) -> list[Rule]:
    """Superseded-version rules, per written relation one per position a rule
    can write.

    The version order compares attribute-wise: positions whose domain has a
    matching function get a `pre_<dom>` literal, the rest share one variable
    (their order is equality).  Versions of a tuple can only differ at
    written positions, so the tuple-inequality guard splits over those.
    """
    out = []
    for rel_name in sorted(written):
        rel = schema.relation(rel_name)
        tid, *first = _tuple_vars(rel)
        taken = {tid, *first}
        second = [
            _fresh(v + "q", taken) if smf.has_mf(dom) else v for v, dom in zip(first, rel.domains)
        ]
        pred = relation_pred(rel_name)
        body = [_lit(pred, [tid, *first]), _lit(pred, [tid, *second])]
        for i, dom in enumerate(rel.domains):
            if smf.has_mf(dom):
                body.append(_lit(value_pred("pre", dom), [first[i], second[i]]))
        head = _lit(_oldversion_pred(rel_name), [tid, *first])
        out += [
            Rule((head,), (*body, _neq(first[pos], second[pos])))
            for pos in sorted(written[rel_name])
        ]
    return out


def _version_facts(instance: Instance, relation_pred) -> list[Rule]:
    """Block 1: one fact per input tuple."""
    out = []
    for rel_name in instance.schema.relation_names():
        pred = relation_pred(rel_name)
        rows = instance.tuples[rel_name]
        out += [Rule((Literal(pred, (tid, *rows[tid])),)) for tid in sorted(rows)]
    return out


def _value_uses(
    rules: list[BoundMD],
    schema: Schema,
    smf: SaturatedMatchingFunction,
    written_rels,
    active: dict[str, set[str]],
) -> list[tuple[str, str]]:
    """The (kind, domain) of every value relation the rules read, in table order.

    Refuses a domain whose merge or order relation the rules read when its
    matching function was not saturated over the instance's values.
    """
    mf_domains = sorted({rule.rhs_domain for rule in rules})
    domains = {dom for rel in written_rels for dom in schema.relation(rel).domains}
    pre_domains = sorted(dom for dom in domains if smf.has_mf(dom))
    for dom in sorted(set(mf_domains) | set(pre_domains)):
        values = smf.values(dom)
        missing = sorted(v for v in active.get(dom, ()) if v not in values)
        if missing:
            raise ValidationError(
                f"matching function for domain {dom!r} was not saturated over the "
                f"instance values; missing {missing}"
            )
    sim_domains = sorted({dom for rule in rules for dom in rule.sim_domains})
    kinds = (("mf", mf_domains), ("pre", pre_domains), ("sim", sim_domains))
    return [(kind, dom) for kind, domains in kinds for dom in domains]


def _value_tables(
    uses: list[tuple[str, str]],
    builtins: dict[str, Builtin],
    smf: SaturatedMatchingFunction,
    active: dict[str, set[str]],
) -> list[Rule]:
    """Block 1's value tables: each used built-in over its domain's values."""
    out = []
    for kind, dom in uses:
        name, arity, fn, _ = builtins[value_pred(kind, dom)]
        universe = sorted({*smf.values(dom), *active.get(dom, ())})
        if arity == 2:
            rows = [(a, b) for a in universe for b in universe if fn(a, b)]
        else:
            rows = [(a, b, c) for a in universe for b in universe if (c := fn(a, b)) is not None]
        out += [Rule((Literal(name, row),)) for row in rows]
    return out


def _check_predicates(
    schema: Schema, rules: list[BoundMD], written, uses, relation_pred, general: bool
) -> None:
    """Refuse a program in which two roles would share one predicate.

    Relation, rule and domain names are lower-cased into the predicates of
    tuples, clean relations, superseded versions, matches, the general
    program's non-matches and `prec`, and the value built-ins; a name can
    spell another role's predicate (relation `sim_d`, rules `m1` and `M1`).
    """
    rels = schema.relation_names()
    roles = [(relation_pred(rel), f"the tuples of relation {rel!r}") for rel in rels]
    roles += [(_clean_pred(rel), f"the clean relation of {rel!r}") for rel in rels]
    roles += [(_oldversion_pred(rel), f"the superseded versions of {rel!r}") for rel in written]
    names = [rule.md.name for rule in rules]
    roles += [(f"match_{_pred(n)}", f"the matches of rule {n!r}") for n in names]
    if general:
        roles += [(f"notmatch_{_pred(n)}", f"the non-matches of rule {n!r}") for n in names]
        roles.append(("prec", "the matching order"))
    roles += [(value_pred(k, dom), f"the {k} built-in of domain {dom!r}") for k, dom in uses]
    owner: dict[str, str] = {}
    for pred, role in roles:
        other = owner.setdefault(pred, role)
        if other != role:
            raise ValidationError(f"{other} and {role} share predicate {pred!r}")


def _collect_rules(schema: Schema, written, relation_pred) -> list[Rule]:
    """Block 7: the clean relations, read off versions no merge superseded."""
    out = []
    for rel_name in schema.relation_names():
        args = _tuple_vars(schema.relation(rel_name))
        body = [_lit(relation_pred(rel_name), args)]
        if rel_name in written:
            body.append(_lit(_oldversion_pred(rel_name), args, negated=True))
        head = _lit(_clean_pred(rel_name), args)
        out.append(Rule((head,), tuple(body)))
    return out


# ---------------------------------------------------------------------------
# general ASP


def emit_general_asp(
    instance: Instance,
    rules: list[BoundMD],
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
) -> AspText:
    """The disjunctive cleaning program; its stable models project onto clean
    instances.  Every domain `rules` write has a matching function (`validate_mds`)."""
    schema = instance.schema
    written = _written_positions(rules)
    active = collect_active_values(instance, sim)
    uses = _value_uses(rules, schema, smf, sorted(written), active)
    _check_predicates(schema, rules, written, uses, _version_pred, general=True)
    facts = _version_facts(instance, _version_pred)
    facts += _value_tables(uses, value_builtins(uses, sim, smf), smf, active)

    choices, vetoes = [], []
    for rule in rules:
        name = _pred(rule.md.name)
        args = _match_args(rule)
        heads = (_lit(f"match_{name}", args), _lit(f"notmatch_{name}", args))
        choices.append(Rule(heads, tuple(md_body(rule, _version_pred))))
        veto = [_lit(f"notmatch_{name}", args)]
        for atom in rule.lead:
            veto.append(_lit(_oldversion_pred(atom.relation), _lead_args(atom), negated=True))
        vetoes.append(Rule((), tuple(veto)))

    newer, shared = _prec_recording(rules, schema, smf, written)
    order = []
    if rules:
        antisymmetry = (_lit("prec", ["M1", "M2"]), _lit("prec", ["M2", "M1"]), _neq("M1", "M2"))
        closure = (_lit("prec", ["M1", "M2"]), _lit("prec", ["M2", "M3"]))
        order = [Rule((), antisymmetry), Rule((_lit("prec", ["M1", "M3"]),), closure)]

    return AspText({
        1: facts,
        2: [*choices, *_oldversion_rules(schema, smf, written, _version_pred), *vetoes],
        3: _insertion_rules(rules, _version_pred),
        4: newer,
        5: shared,
        6: order,
        7: _collect_rules(schema, written, _version_pred),
    })


def _prec_recording(
    rules: list[BoundMD],
    schema: Schema,
    smf: SaturatedMatchingFunction,
    written: dict[str, set[int]],
) -> tuple[list[Rule], list[Rule]]:
    """Blocks 4 and 5: order every two matchings touching a common tuple.

    Each ordered rule pair yields up to four positional variants, one per
    choice of which component of each matching carries the shared tuple;
    variants whose components live in different relations are skipped.
    Block 4 covers matchings of two comparable versions (the earlier version
    matches first), block 5 matchings sharing one version (the matching that
    changes the tuple goes last).  Block 6 closes these pairs transitively,
    which orders matchings that share no tuple.

    What depends only on the rules is built once: each rule's `match_`
    literal and `mt(...)` term, and per ordered rule pair `rk`'s variables
    renamed apart from `rj`'s and the fresh merge variable.  A variant
    copies that renaming and overrides only the positions its two versions
    share: the identifier and the unordered positions in block 4, all
    positions in block 5.  Each name has one `Var`.
    """
    var = _Vars()
    # per written relation: the `pre_` predicate of each ordered position,
    # the unordered positions and the written ones
    layout = {}
    for rel_name, positions in written.items():
        doms = schema.relation(rel_name).domains
        pres = [(pos, value_pred("pre", dom)) for pos, dom in enumerate(doms) if smf.has_mf(dom)]
        unordered = [pos for pos, dom in enumerate(doms) if not smf.has_mf(dom)]
        layout[rel_name] = (pres, unordered, sorted(positions))
    # per rule: its `match_` literal, its `mt(...)` term, the variables of
    # each leading atom, and their names in the rule
    matchings = []
    for rule in rules:
        leads = [tuple(map(var.__getitem__, _lead_args(atom))) for atom in rule.lead]
        args = leads[0] + leads[1]
        names = [v for atom in rule.lead for v in (atom.tid_var, *atom.attr_vars)]
        literal = Literal(f"match_{_pred(rule.md.name)}", args)
        matchings.append((literal, Compound("mt", args), leads, names))

    newer, shared_version = [], []
    for (rj, j), (rk, k) in product(zip(rules, matchings), repeat=2):
        (match_j, mt_j, leads_j, _), (match_k, _, _, names_k) = j, k
        taken = {var_name(v) for v in rj.md.variables()}
        renamed = {v: var[_fresh(var_name(v) + "q", taken)] for v in rk.md.variables()}
        merged = var[_fresh("Mv", taken)]
        mf_k = value_pred("mf", rk.rhs_domain)
        rhs_k = [a.attr_vars[pos] for a, pos in zip(rk.lead, rk.rhs)]
        lead_pairs = product(zip(rj.lead, leads_j), enumerate(rk.lead))
        pred_k = match_k.pred
        for (lead_j, (tid_j, *attrs_j)), (ip, lead_k) in lead_pairs:
            relation, tid_k, attrs_k, _ = lead_k
            if lead_j.relation != relation:
                continue
            pres, unordered, positions = layout[relation]

            ren = renamed | {tid_k: tid_j}
            ren.update((attrs_k[pos], attrs_j[pos]) for pos in unordered)
            second = tuple(map(ren.__getitem__, names_k))
            matches = (match_j, Literal(pred_k, second))
            head = Literal("prec", (mt_j, Compound("mt", second)))
            pairs = [(vj, ren[vk]) for vj, vk in zip(attrs_j, attrs_k)]
            pre = [Literal(pred, pairs[pos]) for pos, pred in pres]
            for pos in positions:
                newer.append(Rule((head,), (*matches, *pre, Literal(NEQ, pairs[pos]))))

            ren.update((attrs_k[pos], attrs_j[pos]) for pos, _ in pres)
            second = tuple(map(ren.__getitem__, names_k))
            matches = (match_j, Literal(pred_k, second))
            head = Literal("prec", (mt_j, Compound("mt", second)))
            shared, other = ren[rhs_k[ip]], ren[rhs_k[1 - ip]]
            body = (
                *matches,
                Literal(mf_k, (shared, other, merged)),
                Literal(NEQ, (shared, merged)),
            )
            shared_version.append(Rule((head,), body))
    return newer, shared_version


# ---------------------------------------------------------------------------
# residual Datalog


def emit_residual_datalog(
    instance: Instance,
    rules: list[BoundMD],
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
    classification: Classification,
) -> ResidualProgram:
    """The non-disjunctive rewriting; only sound when the chase converges."""
    # imported here, so that `emit-asp`, which never classifies, never loads it
    from .classify import Verdict

    if classification.verdict is Verdict.GENERAL:
        raise NotSci(
            "rule set and instance classify as general; the residual rewriting "
            "is only sound for converging combinations"
        )
    schema = instance.schema
    written = _written_positions(rules)
    active = collect_active_values(instance, sim)
    uses = _value_uses(rules, schema, smf, sorted(written), active)
    _check_predicates(schema, rules, written, uses, _pred, general=False)
    version_facts = _version_facts(instance, _pred)
    matches = []
    for rule in rules:
        head = _lit(f"match_{_pred(rule.md.name)}", _match_args(rule))
        matches.append(Rule((head,), tuple(md_body(rule, _pred))))
    derived = {
        2: [*matches, *_oldversion_rules(schema, smf, written, _pred)],
        3: _insertion_rules(rules, _pred),
        7: _collect_rules(schema, written, _pred),
    }
    builtins = value_builtins(uses, sim, smf)
    program = Program([*version_facts, *(r for rs in derived.values() for r in rs)], builtins)

    def blocks() -> dict[int, list[Rule]]:
        return {1: [*version_facts, *_value_tables(uses, builtins, smf, active)], **derived}

    return ResidualProgram(program, schema, blocks)


def evaluate_residual(residual: ResidualProgram, engine) -> Instance:
    """The clean instance over `residual.schema` that the program computes.

    A clean relation that keeps two versions of a tuple raises `NotSci`: the
    rules did not converge on this input.  The instance must also be stable
    under the rules of `engine`, a `chase.ChaseEngine` over the rules the
    program was emitted from.  A merge the matching function leaves undefined
    raises `UndefinedMatch`, as the chase does; any other step that still
    applies raises `NotSci`.
    """
    model = evaluate(residual.program)
    out: dict[str, dict[str, tuple[str, ...]]] = {}
    for rel_name in residual.schema.relation_names():
        rows: dict[str, tuple[str, ...]] = {}
        for row in sorted(model.get(_clean_pred(rel_name))):
            tid, vals = row[0], row[1:]
            if rows.setdefault(tid, vals) != vals:
                raise NotSci(
                    f"clean relation {rel_name!r} keeps two versions of {tid!r}; "
                    "the combination was not actually convergent"
                )
        out[rel_name] = rows
    clean = Instance(residual.schema, out)
    steps = engine.applicable_steps(clean)
    for step in steps:
        if step.new_value is None:
            engine.enforce(clean, step)  # raises UndefinedMatch
    if steps:
        raise NotSci(
            "the residual program's result is not stable under the rules; "
            "the combination was not actually convergent"
        )
    return clean
