"""Generate cleaning programs from a rule set and an instance.

Two related outputs.  The general form targets answer-set solvers: tuple
versions accumulate in `<rel>_v` predicates, every applicable rule pair opens
a disjunctive match-or-not choice, and constraints over a `prec` relation on
matchings discard models whose merges cannot be ordered into a valid
enforcement sequence.  When the classifier shows the rule set converges to
one clean instance, the residual form drops the disjunction, the `prec`
machinery, and all constraints, leaving stratified Datalog that computes that
instance bottom-up.

Both programs are built as rule ASTs (`AspRule`s over `Literal`s), kept in one
ordered list of statements tagged with their block.  The similarity, merge,
and order relations (`sim_<dom>`, `mf_<dom>`, `pre_<dom>`) are built-ins of
`datalog.value_builtins`: the residual's `Program` evaluates them as such over
the version facts, and the text renders each as a table of ground facts over
its domain's values, so a program is self-contained.  Text is rendered from
the statements through `datalog.format_rule_ast` only for output and never
parsed back.  Matchings are reified as `mt(...)` terms holding the two tuple
versions, which keeps `prec` binary even when rules range over relations of
different arities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from .chase import ChaseEngine
from .classify import Classification, Verdict
from .datalog import (
    NEQ,
    AspRule,
    Builtin,
    Literal,
    Program,
    Rule,
    evaluate,
    format_rule_ast,
    value_builtins,
    value_pred,
)
from .errors import NotSci, ValidationError
from .mdlang import BoundMD, MatchingDependency, MDAtom, MDSet, md_body, validate_mds, var_name
from .model import (
    Instance,
    Relation,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from .terms import Compound, Var

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


@dataclass(frozen=True)
class AspStatement:
    """One statement of a generated program: a rule, or a `Literal` fact."""

    block: int
    kind: str
    ast: AspRule | Literal

    @property
    def text(self) -> str:
        return format_rule_ast(self.ast)


def _render(statements, titles: dict[int, str]) -> str:
    """Statements under a `% <block>. <title>` header at each change of block.

    A block named in `titles` that has no statement still gets its header,
    in block order.
    """
    lines: list[str] = []
    pending = sorted(titles)
    last = None

    def header(block: int) -> None:
        if lines:
            lines.append("")
        lines.append(f"% {block}. {titles[block]}")

    for st in statements:
        if st.block != last:
            while pending and pending[0] <= st.block:
                empty = pending.pop(0)
                if empty != st.block:
                    header(empty)
            header(st.block)
            last = st.block
        lines.append(st.text)
    for block in pending:
        header(block)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AspText:
    statements: tuple[AspStatement, ...]

    def text(self) -> str:
        titles = {st.block: BLOCK_TITLES[st.block] for st in self.statements}
        return _render(self.statements, titles)

    def of_kind(self, kind: str) -> list[AspStatement]:
        return [st for st in self.statements if st.kind == kind]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for st in self.statements:
            out[st.kind] = out.get(st.kind, 0) + 1
        return out


@dataclass(frozen=True)
class ResidualProgram:
    program: Program
    clean_predicates: tuple[tuple[str, str], ...]
    # checks that the evaluated instance is stable under the rules
    engine: ChaseEngine
    # the text's statements, built when called: evaluation needs no value table
    statements: Callable[[], list[AspStatement]]

    def text(self) -> str:
        return _render(self.statements(), RESIDUAL_TITLES)


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


def _matching(names) -> Compound:
    return Compound("mt", tuple(Var(n) for n in names))


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


def _rename_map(md: MatchingDependency, taken: set[str]) -> dict[str, str]:
    """Fresh capitalised names for every variable of `md`, avoiding `taken`."""
    out = {}
    for v in md.variables():
        out[v] = _fresh(var_name(v) + "q", taken)
    return out


def _lead_args(atom: MDAtom, rename=None) -> list[str]:
    names = [atom.tid_var, *atom.attr_vars]
    if rename is None:
        return [var_name(v) for v in names]
    return [rename[v] for v in names]


def _match_args(rule: BoundMD, rename=None) -> list[str]:
    return _lead_args(rule.lead[0], rename) + _lead_args(rule.lead[1], rename)


def _written_positions(rules: list[BoundMD]) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for rule in rules:
        for atom, pos in zip(rule.lead, rule.rhs):
            out.setdefault(atom.relation, set()).add(pos)
    return out


def _context_symmetric(md: MatchingDependency) -> bool:
    """Whether swapping the two leading tuples maps the context onto itself."""
    context = md.context_atoms()
    if not context:
        return True
    lead0, lead1 = md.leading_atoms()
    swap = {lead0.tid_var: lead1.tid_var, lead1.tid_var: lead0.tid_var}
    for a, b in zip(lead0.attr_vars, lead1.attr_vars):
        swap[a] = b
        swap[b] = a
    for perm in permutations(range(len(context))):
        mapping = dict(swap)
        ok = True
        for i, j in enumerate(perm):
            src, dst = context[i], context[j]
            if src.relation != dst.relation:
                ok = False
                break
            for x, y in zip((src.tid_var, *src.attr_vars), (dst.tid_var, *dst.attr_vars)):
                if mapping.setdefault(x, y) != y:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# shared pieces


def _insertion_rules(rule: BoundMD, relation_pred) -> list[AspStatement]:
    """One head per leading atom, writing the merged value over the match."""
    md, dom = rule.md, rule.rhs_domain
    taken = {var_name(v) for v in md.variables()}
    merged = _fresh("Mv", taken)
    body = (
        _lit(f"match_{_pred(md.name)}", _match_args(rule)),
        _lit(value_pred("mf", dom), [var_name(md.rhs_left), var_name(md.rhs_right), merged]),
    )
    rules = []
    for atom, pos in zip(rule.lead, rule.rhs):
        head_args = _lead_args(atom)
        head_args[1 + pos] = merged
        head = _lit(relation_pred(atom.relation), head_args)
        rules.append(AspStatement(3, "insertion", AspRule((head,), body)))
    return rules


def _oldversion_rules(
    rel_name: str,
    schema: Schema,
    smf: SaturatedMatchingFunction,
    written: set[int],
    relation_pred,
) -> list[AspStatement]:
    """Superseded-version rules, one per position a rule can write.

    The version order compares attribute-wise: positions whose domain has a
    matching function get a `pre_<dom>` literal, the rest share one variable
    (their order is equality).  Versions of a tuple can only differ at
    written positions, so the tuple-inequality guard splits over those.
    """
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
    return [
        AspStatement(2, "oldversion", AspRule((head,), (*body, _neq(first[pos], second[pos]))))
        for pos in sorted(written)
    ]


def _version_facts(schema: Schema, instance: Instance, relation_pred) -> list[AspStatement]:
    """Block 1: one fact per input tuple."""
    out = []
    for rel_name in schema.relation_names():
        pred = relation_pred(rel_name)
        rows = instance.tuples.get(rel_name, {})
        for tid in sorted(rows):
            out.append(AspStatement(1, "version-fact", Literal(pred, (tid, *rows[tid]))))
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
        missing = active.get(dom, set()) - smf.values(dom)
        if missing:
            raise ValidationError(
                f"matching function for domain {dom!r} was not saturated over the "
                f"instance values; missing {sorted(missing)}"
            )
    sim_domains = sorted({dom for rule in rules for dom in rule.sim_domains})
    kinds = (("mf", mf_domains), ("pre", pre_domains), ("sim", sim_domains))
    return [(kind, dom) for kind, domains in kinds for dom in domains]


def _value_tables(
    uses: list[tuple[str, str]],
    builtins: dict[str, Builtin],
    smf: SaturatedMatchingFunction,
    active: dict[str, set[str]],
) -> list[AspStatement]:
    """Block 1's value tables: each used built-in over its domain's values."""
    out = []
    for kind, dom in uses:
        builtin = builtins[value_pred(kind, dom)]
        fn = builtin.fn
        universe = sorted(smf.values(dom) | active.get(dom, set()))
        if builtin.arity == 2:
            rows = [(a, b) for a in universe for b in universe if fn(a, b)]
        else:
            rows = [(a, b, c) for a in universe for b in universe if (c := fn(a, b)) is not None]
        out.extend(AspStatement(1, f"{kind}-fact", Literal(builtin.name, row)) for row in rows)
    return out


def _check_predicates(
    schema: Schema, mds: MDSet, written, uses, relation_pred, general: bool
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
    roles += [(f"match_{_pred(md.name)}", f"the matches of rule {md.name!r}") for md in mds]
    if general:
        roles += [
            (f"notmatch_{_pred(md.name)}", f"the non-matches of rule {md.name!r}") for md in mds
        ]
        roles.append(("prec", "the matching order"))
    roles += [(value_pred(k, dom), f"the {k} built-in of domain {dom!r}") for k, dom in uses]
    owner: dict[str, str] = {}
    for pred, role in roles:
        other = owner.setdefault(pred, role)
        if other != role:
            raise ValidationError(f"{other} and {role} share predicate {pred!r}")


def _collect_rules(schema: Schema, written, relation_pred) -> list[AspStatement]:
    """Block 7: the clean relations, read off versions no merge superseded."""
    out = []
    for rel_name in schema.relation_names():
        args = _tuple_vars(schema.relation(rel_name))
        body = [_lit(relation_pred(rel_name), args)]
        if rel_name in written:
            body.append(_lit(_oldversion_pred(rel_name), args, negated=True))
        head = _lit(_clean_pred(rel_name), args)
        out.append(AspStatement(7, "collect", AspRule((head,), tuple(body))))
    return out


# ---------------------------------------------------------------------------
# general ASP


def emit_general_asp(
    schema: Schema,
    instance: Instance,
    mds: MDSet,
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
) -> AspText:
    """The disjunctive cleaning program; stable models are the clean instances."""
    rules = validate_mds(mds, schema)
    for rule in rules:
        dom = rule.rhs_domain
        if not smf.has_mf(dom):
            raise ValidationError(
                f"rule {rule.md.name!r} writes domain {dom!r}, which has no matching function"
            )
    written = _written_positions(rules)
    active = collect_active_values(schema, instance, sim)
    uses = _value_uses(rules, schema, smf, sorted(written), active)
    _check_predicates(schema, mds, written, uses, _version_pred, general=True)
    statements = _version_facts(schema, instance, _version_pred)
    statements += _value_tables(uses, value_builtins(uses, sim, smf), smf, active)

    for rule in rules:
        name = _pred(rule.md.name)
        args = _match_args(rule)
        heads = (_lit(f"match_{name}", args), _lit(f"notmatch_{name}", args))
        body = tuple(md_body(rule, _version_pred))
        statements.append(AspStatement(2, "disjunctive", AspRule(heads, body)))
    for rule in rules:
        if rule.symmetric_write() and _context_symmetric(rule.md):
            name = _pred(rule.md.name)
            forward = _lit(f"match_{name}", _match_args(rule))
            swapped = _lit(f"match_{name}", _lead_args(rule.lead[1]) + _lead_args(rule.lead[0]))
            statements.append(AspStatement(2, "symmetry", AspRule((swapped,), (forward,))))
    for rel_name in sorted(written):
        statements.extend(
            _oldversion_rules(rel_name, schema, smf, written[rel_name], _version_pred)
        )
    for rule in rules:
        body = [_lit(f"notmatch_{_pred(rule.md.name)}", _match_args(rule))]
        for atom in rule.lead:
            body.append(_lit(_oldversion_pred(atom.relation), _lead_args(atom), negated=True))
        statements.append(AspStatement(2, "notmatch-constraint", AspRule((), tuple(body))))

    for rule in rules:
        statements.extend(_insertion_rules(rule, _version_pred))

    statements.extend(_prec_recording(rules, schema, smf, written))

    for rule in rules:
        args = _match_args(rule)
        head = Literal("prec", (_matching(args), _matching(args)))
        body = (_lit(f"match_{_pred(rule.md.name)}", args),)
        statements.append(AspStatement(6, "prec-reflexivity", AspRule((head,), body)))
    if rules:
        antisymmetry = (_lit("prec", ["M1", "M2"]), _lit("prec", ["M2", "M1"]), _neq("M1", "M2"))
        statements.append(AspStatement(6, "prec-antisymmetry", AspRule((), antisymmetry)))
        transitivity = (
            _lit("prec", ["M1", "M2"]),
            _lit("prec", ["M2", "M3"]),
            _lit("prec", ["M1", "M3"], negated=True),
        )
        statements.append(AspStatement(6, "prec-transitivity", AspRule((), transitivity)))

    statements.extend(_collect_rules(schema, written, _version_pred))
    return AspText(tuple(statements))


def _prec_recording(
    rules: list[BoundMD],
    schema: Schema,
    smf: SaturatedMatchingFunction,
    written: dict[str, set[int]],
) -> list[AspStatement]:
    """Blocks 4 and 5: order every two matchings touching a common tuple.

    Each ordered rule pair yields up to four positional variants, one per
    choice of which component of each matching carries the shared tuple;
    variants whose components live in different relations are skipped.
    Block 4 covers matchings of two comparable versions (the earlier version
    matches first), block 5 matchings sharing one version (the matching that
    changes the tuple goes last).
    """
    out = []
    for rj in rules:
        for rk in rules:
            mdj, mdk = rj.md, rk.md
            for lead_j in rj.lead:
                for ip, lead_k in enumerate(rk.lead):
                    if lead_j.relation != lead_k.relation:
                        continue
                    rel = schema.relation(lead_j.relation)
                    first_vars = {var_name(v) for v in mdj.variables()}

                    taken = set(first_vars)
                    ren = _rename_map(mdk, taken)
                    for pos, (vj, vk) in enumerate(
                        zip(lead_j.attr_vars, lead_k.attr_vars)
                    ):
                        if not smf.has_mf(rel.domains[pos]):
                            ren[vk] = var_name(vj)
                    ren[lead_k.tid_var] = var_name(lead_j.tid_var)
                    body = [
                        _lit(f"match_{_pred(mdj.name)}", _match_args(rj)),
                        _lit(f"match_{_pred(mdk.name)}", _match_args(rk, ren)),
                    ]
                    for pos, (vj, vk) in enumerate(
                        zip(lead_j.attr_vars, lead_k.attr_vars)
                    ):
                        if smf.has_mf(rel.domains[pos]):
                            body.append(
                                _lit(value_pred("pre", rel.domains[pos]), [var_name(vj), ren[vk]])
                            )
                    head = Literal(
                        "prec",
                        (_matching(_match_args(rj)), _matching(_match_args(rk, ren))),
                    )
                    for pos in sorted(written.get(lead_j.relation, ())):
                        guard = _neq(var_name(lead_j.attr_vars[pos]), ren[lead_k.attr_vars[pos]])
                        out.append(
                            AspStatement(
                                4, "prec-newer-version", AspRule((head,), (*body, guard))
                            )
                        )

                    taken = set(first_vars)
                    ren5 = _rename_map(mdk, taken)
                    for vj, vk in zip(lead_j.attr_vars, lead_k.attr_vars):
                        ren5[vk] = var_name(vj)
                    ren5[lead_k.tid_var] = var_name(lead_j.tid_var)
                    merged = _fresh("Mv", taken)
                    rhs_k = [ren5[a.attr_vars[pos]] for a, pos in zip(rk.lead, rk.rhs)]
                    shared_rhs, other_rhs = rhs_k[ip], rhs_k[1 - ip]
                    body5 = (
                        _lit(f"match_{_pred(mdj.name)}", _match_args(rj)),
                        _lit(f"match_{_pred(mdk.name)}", _match_args(rk, ren5)),
                        _lit(value_pred("mf", rk.rhs_domain), [shared_rhs, other_rhs, merged]),
                        _neq(shared_rhs, merged),
                    )
                    head5 = Literal(
                        "prec",
                        (_matching(_match_args(rj)), _matching(_match_args(rk, ren5))),
                    )
                    out.append(
                        AspStatement(5, "prec-shared-version", AspRule((head5,), body5))
                    )
    return out


# ---------------------------------------------------------------------------
# residual Datalog


def emit_residual_datalog(
    schema: Schema,
    instance: Instance,
    mds: MDSet,
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
    classification: Classification,
) -> ResidualProgram:
    """The non-disjunctive rewriting; only sound when the chase converges."""
    if classification.verdict is Verdict.GENERAL:
        raise NotSci(
            "rule set and instance classify as general; the residual rewriting "
            "is only sound for converging combinations"
        )
    engine = ChaseEngine(schema, mds, sim, smf)
    rules = validate_mds(mds, schema)
    written = _written_positions(rules)
    active = collect_active_values(schema, instance, sim)
    uses = _value_uses(rules, schema, smf, sorted(written), active)
    _check_predicates(schema, mds, written, uses, _pred, general=False)
    version_facts = _version_facts(schema, instance, _pred)
    derived = []
    for rule in rules:
        head = _lit(f"match_{_pred(rule.md.name)}", _match_args(rule))
        body = tuple(md_body(rule, _pred))
        derived.append(AspStatement(2, "match", AspRule((head,), body)))
    for rel_name in sorted(written):
        derived.extend(_oldversion_rules(rel_name, schema, smf, written[rel_name], _pred))
    for rule in rules:
        derived.extend(_insertion_rules(rule, _pred))
    derived.extend(_collect_rules(schema, written, _pred))

    facts: dict[str, list[tuple[str, ...]]] = {}
    for st in version_facts:
        facts.setdefault(st.ast.pred, []).append(st.ast.args)
    builtins = value_builtins(uses, sim, smf)
    program = Program([Rule(st.ast.heads[0], st.ast.body) for st in derived], facts, builtins)
    clean_preds = tuple((rel, _clean_pred(rel)) for rel in schema.relation_names())

    def statements() -> list[AspStatement]:
        return [*version_facts, *_value_tables(uses, builtins, smf, active), *derived]

    return ResidualProgram(program, clean_preds, engine, statements)


def evaluate_residual(residual: ResidualProgram) -> dict[str, dict[str, tuple[str, ...]]]:
    """Clean tuples per relation, keyed by tuple identifier.

    The result must be stable under the rules.  A merge the matching function
    leaves undefined raises `UndefinedMatch`, as the chase does; any other
    step that still applies raises `NotSci`.
    """
    model = evaluate(residual.program)
    out: dict[str, dict[str, tuple[str, ...]]] = {}
    for rel_name, pred in residual.clean_predicates:
        rows: dict[str, tuple[str, ...]] = {}
        for row in sorted(model.get(pred)):
            tid, vals = row[0], row[1:]
            if rows.setdefault(tid, vals) != vals:
                raise ValidationError(
                    f"clean relation {rel_name!r} keeps two versions of {tid!r}; "
                    "the combination was not actually convergent"
                )
            rows[tid] = vals
        out[rel_name] = rows
    engine = residual.engine
    clean = Instance(engine.schema, out)
    steps = engine.applicable_steps(clean)
    for step in steps:
        if step.new_value is None:
            engine.enforce(clean, step)  # raises UndefinedMatch
    if steps:
        raise NotSci(
            "the residual program's result is not stable under the rules; "
            "the combination was not actually convergent"
        )
    return out
