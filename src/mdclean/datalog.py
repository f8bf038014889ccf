"""Stratified Datalog with table-backed built-ins, plus the ASP rule syntax.

One grammar covers both layers.  Rules look like

    r_clean(T, X, Y) :- r(T, X, Y), not oldversion_r(T, X, Y).

with `%` comments, upper-case/underscore initials for variables, and quoting
for constants that would otherwise read as variables.  Disjunctive heads
(`a | b :- ...`) and headless constraints are parsed for the ASP layer but
rejected by `Program`, which only evaluates plain stratified rules.

Built-ins are literals over reserved predicate names: `X != Y`,
`sim(dom, X, Y)`, `mf(dom, X, Y, Z)`, and `pre(dom, X, Y)`.  The first three
arguments of `mf` must be bound; it binds its result argument.  Everything
else requires fully bound arguments, so rule bodies must ground them through
ordinary literals first.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    NotStratifiable,
    ParseError,
    UnboundBuiltin,
    UnsafeRule,
    ValidationError,
)
from .model import SaturatedMatchingFunction, SimilarityRelation
from .terms import Compound, Term, Var, is_var, term_vars

logger = logging.getLogger("mdclean.datalog")

NEQ = "!="


@dataclass(frozen=True)
class Literal:
    pred: str
    args: tuple[Term, ...]
    negated: bool = False

    def vars(self) -> Iterator[Var]:
        for arg in self.args:
            yield from term_vars(arg)


@dataclass(frozen=True)
class Rule:
    head: Literal
    body: tuple[Literal, ...]


@dataclass(frozen=True)
class AspRule:
    """A rule as written: possibly disjunctive, possibly a constraint."""

    heads: tuple[Literal, ...]
    body: tuple[Literal, ...]

    @property
    def is_constraint(self) -> bool:
        return not self.heads

    @property
    def is_fact(self) -> bool:
        return len(self.heads) == 1 and not self.body


# ---------------------------------------------------------------------------
# built-ins


class Builtin:
    name: str
    arity: int
    # positions that must be bound before evaluation; others may bind
    required: tuple[int, ...]

    def ready(self, args: Sequence[Term], bound) -> bool:
        return all(
            not is_var(args[i]) or args[i] in bound for i in self.required
        )

    def solutions(self, args: Sequence[Term], binding: dict) -> Iterator[dict]:
        raise NotImplementedError

    def _value(self, term: Term, binding: dict) -> str:
        if is_var(term):
            if term not in binding:
                raise UnboundBuiltin(
                    f"built-in {self.name!r} needs {term.name!r} bound"
                )
            return binding[term]
        if isinstance(term, Compound):
            raise ValidationError(f"built-in {self.name!r} cannot take a function term")
        return term


class NeqBuiltin(Builtin):
    name = NEQ
    arity = 2
    required = (0, 1)

    def solutions(self, args, binding):
        if self._value(args[0], binding) != self._value(args[1], binding):
            yield binding


class SimBuiltin(Builtin):
    name = "sim"
    arity = 3
    required = (0, 1, 2)

    def __init__(self, sim: SimilarityRelation):
        self._sim = sim

    def solutions(self, args, binding):
        dom, a, b = (self._value(t, binding) for t in args)
        if self._sim.similar(dom, a, b):
            yield binding


class MfBuiltin(Builtin):
    name = "mf"
    arity = 4
    required = (0, 1, 2)

    def __init__(self, smf: SaturatedMatchingFunction):
        self._smf = smf
        self._warned: set[tuple[str, str, str]] = set()

    def solutions(self, args, binding):
        dom, a, b = (self._value(t, binding) for t in args[:3])
        merged = self._smf.try_match(dom, a, b)
        if merged is None:
            key = (dom, a, b)
            if key not in self._warned:
                self._warned.add(key)
                logger.warning(
                    "matching function on %r undefined for (%r, %r); rule not fired",
                    dom,
                    a,
                    b,
                )
            return
        out = args[3]
        if is_var(out):
            if out in binding:
                if binding[out] == merged:
                    yield binding
            else:
                extended = dict(binding)
                extended[out] = merged
                yield extended
        elif out == merged:
            yield binding


class PreBuiltin(Builtin):
    name = "pre"
    arity = 3
    required = (0, 1, 2)

    def __init__(self, smf: SaturatedMatchingFunction):
        self._smf = smf

    def solutions(self, args, binding):
        dom, a, b = (self._value(t, binding) for t in args)
        if self._smf.precedes(dom, a, b):
            yield binding


def make_builtins(
    sim: SimilarityRelation | None = None,
    smf: SaturatedMatchingFunction | None = None,
) -> dict[str, Builtin]:
    out: dict[str, Builtin] = {NEQ: NeqBuiltin()}
    if sim is not None:
        out["sim"] = SimBuiltin(sim)
    if smf is not None:
        out["mf"] = MfBuiltin(smf)
        out["pre"] = PreBuiltin(smf)
    return out


# ---------------------------------------------------------------------------
# programs


class Program:
    """Facts plus single-head rules, validated for safety and plannability."""

    def __init__(
        self,
        rules: Iterable[Rule],
        facts: Mapping[str, Iterable[tuple[str, ...]]] | None = None,
        builtins: Mapping[str, Builtin] | None = None,
    ):
        self.builtins: dict[str, Builtin] = dict(builtins or {})
        self.builtins.setdefault(NEQ, NeqBuiltin())
        self.rules: list[Rule] = list(rules)
        self.facts: dict[str, set[tuple[str, ...]]] = {
            pred: {tuple(t) for t in ts} for pred, ts in (facts or {}).items()
        }
        self._plans: dict[tuple[int, int | None], list[int]] = {}
        self._validate()

    def idb_preds(self) -> set[str]:
        return {rule.head.pred for rule in self.rules}

    def all_preds(self) -> set[str]:
        preds = set(self.facts) | self.idb_preds()
        for rule in self.rules:
            for lit in rule.body:
                if lit.pred not in self.builtins:
                    preds.add(lit.pred)
        return preds

    def _validate(self) -> None:
        arities: dict[str, int] = {b.name: b.arity for b in self.builtins.values()}
        for pred, ts in self.facts.items():
            for t in ts:
                if arities.setdefault(pred, len(t)) != len(t):
                    raise ValidationError(f"predicate {pred!r} used with mixed arities")
        for rule in self.rules:
            if rule.head.pred in self.builtins:
                raise ValidationError(f"rule head {rule.head.pred!r} is a built-in")
            if rule.head.negated:
                raise ValidationError("rule head cannot be negated")
            for lit in (rule.head, *rule.body):
                if arities.setdefault(lit.pred, len(lit.args)) != len(lit.args):
                    raise ValidationError(f"predicate {lit.pred!r} used with mixed arities")
                for arg in lit.args:
                    if isinstance(arg, Compound):
                        raise ValidationError(
                            "function terms are not supported in evaluated programs"
                        )
                if lit.negated and lit.pred in self.builtins:
                    raise ValidationError(f"built-in {lit.pred!r} cannot be negated")
        for index, rule in enumerate(self.rules):
            plan = self._make_plan(rule, None)
            if plan is None:
                raise UnsafeRule(f"rule {format_rule_ast(rule)!r} cannot be safely evaluated")
            self._plans[(index, None)] = plan

    # -- planning ----------------------------------------------------------

    def plan(self, index: int, delta_occurrence: int | None) -> list[int]:
        key = (index, delta_occurrence)
        if key not in self._plans:
            plan = self._make_plan(self.rules[index], delta_occurrence)
            if plan is None:
                raise UnsafeRule(
                    f"rule {format_rule_ast(self.rules[index])!r} cannot be safely evaluated"
                )
            self._plans[key] = plan
        return self._plans[key]

    def _make_plan(self, rule: Rule, first: int | None) -> list[int] | None:
        body = rule.body
        order: list[int] = []
        bound: set[Var] = set()
        remaining = set(range(len(body)))
        if first is not None:
            order.append(first)
            remaining.remove(first)
            bound.update(body[first].vars())
        while remaining:
            pick = None
            for i in sorted(remaining):
                lit = body[i]
                if lit.negated:
                    if all(v in bound for v in lit.vars()):
                        pick = i
                        break
                elif lit.pred in self.builtins:
                    if self.builtins[lit.pred].ready(lit.args, bound):
                        pick = i
                        break
            if pick is None:
                positives = [
                    i
                    for i in sorted(remaining)
                    if not body[i].negated and body[i].pred not in self.builtins
                ]
                if not positives:
                    return None
                sharing = [i for i in positives if set(body[i].vars()) & bound]
                pick = sharing[0] if bound and sharing else positives[0]
            order.append(pick)
            remaining.remove(pick)
            bound.update(body[pick].vars())
        if any(v not in bound for v in rule.head.vars()):
            return None
        return order


# ---------------------------------------------------------------------------
# stratification


def stratify(program: Program) -> list[list[str]]:
    """Predicate strata, bottom first; negation must point strictly down."""
    preds = sorted(program.all_preds())
    edges: list[tuple[str, str, bool]] = []
    for rule in program.rules:
        for lit in rule.body:
            if lit.pred in program.builtins:
                continue
            edges.append((rule.head.pred, lit.pred, lit.negated))
    level = {p: 0 for p in preds}
    for _ in range(len(preds) + 1):
        changed = False
        for head, dep, negated in edges:
            need = level[dep] + (1 if negated else 0)
            if level[head] < need:
                level[head] = need
                changed = True
        if not changed:
            break
    else:
        cycle = _find_negative_cycle(preds, edges)
        raise NotStratifiable(f"negation cycle through {' -> '.join(cycle)}")
    by_level: dict[int, list[str]] = {}
    for p in preds:
        by_level.setdefault(level[p], []).append(p)
    return [sorted(by_level[lv]) for lv in sorted(by_level)]


def _find_negative_cycle(preds, edges) -> list[str]:
    adjacency: dict[str, list[tuple[str, bool]]] = {}
    for head, dep, negated in edges:
        adjacency.setdefault(head, []).append((dep, negated))

    def walk(start: str) -> list[str] | None:
        stack = [(start, [start], False)]
        while stack:
            node, path, has_neg = stack.pop()
            for dep, negated in adjacency.get(node, ()):
                neg = has_neg or negated
                if dep == start and neg:
                    return path + [dep]
                if dep in path:
                    continue
                stack.append((dep, path + [dep], neg))
        return None

    for p in sorted(preds):
        found = walk(p)
        if found:
            return found
    return ["<unknown>"]


# ---------------------------------------------------------------------------
# evaluation


class Model:
    """Computed relations; empty and absent predicates compare equal."""

    def __init__(self, relations: Mapping[str, Iterable[tuple[str, ...]]]):
        self.relations: dict[str, frozenset[tuple[str, ...]]] = {
            pred: frozenset(ts) for pred, ts in relations.items() if ts
        }

    def get(self, pred: str) -> frozenset[tuple[str, ...]]:
        return self.relations.get(pred, frozenset())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.relations == other.relations

    def __repr__(self) -> str:
        return f"Model({sorted(self.relations)})"


def evaluate(program: Program) -> Model:
    """Minimal model of a stratified program, computed stratum by stratum."""
    strata = stratify(program)
    db: dict[str, set[tuple[str, ...]]] = {p: set(ts) for p, ts in program.facts.items()}
    for stratum in strata:
        in_stratum = set(stratum)
        rule_indices = [
            i for i, rule in enumerate(program.rules) if rule.head.pred in in_stratum
        ]
        delta: dict[str, set[tuple[str, ...]]] = {}
        for i in rule_indices:
            rule = program.rules[i]
            derived = _eval_rule(program, i, db, None, None)
            fresh = derived - db.get(rule.head.pred, set())
            if fresh:
                delta.setdefault(rule.head.pred, set()).update(fresh)
        for pred, ts in delta.items():
            db.setdefault(pred, set()).update(ts)
        while delta:
            round_delta: dict[str, set[tuple[str, ...]]] = {}
            for i in rule_indices:
                rule = program.rules[i]
                for occ, lit in enumerate(rule.body):
                    if lit.negated or lit.pred in program.builtins:
                        continue
                    if lit.pred not in in_stratum or lit.pred not in delta:
                        continue
                    derived = _eval_rule(program, i, db, occ, delta[lit.pred])
                    fresh = derived - db.get(rule.head.pred, set())
                    if fresh:
                        round_delta.setdefault(rule.head.pred, set()).update(fresh)
            for pred, ts in round_delta.items():
                db.setdefault(pred, set()).update(ts)
            delta = round_delta
    return Model({p: frozenset(ts) for p, ts in db.items()})


def _eval_rule(
    program: Program,
    index: int,
    db: Mapping[str, set],
    delta_occurrence: int | None,
    delta_rel: set | None,
) -> set[tuple[str, ...]]:
    rule = program.rules[index]
    plan = program.plan(index, delta_occurrence)
    bindings: list[dict] = [{}]
    for step in plan:
        if not bindings:
            return set()
        lit = rule.body[step]
        if lit.negated:
            rel = db.get(lit.pred, set())
            bindings = [
                b for b in bindings if _ground_args(lit.args, b) not in rel
            ]
        elif lit.pred in program.builtins:
            handler = program.builtins[lit.pred]
            if len(lit.args) != handler.arity:
                raise ValidationError(
                    f"built-in {lit.pred!r} takes {handler.arity} arguments"
                )
            bindings = [b2 for b in bindings for b2 in handler.solutions(lit.args, b)]
        else:
            rel = delta_rel if step == delta_occurrence else db.get(lit.pred, set())
            bindings = _join(bindings, lit, rel)
    return {_ground_args(rule.head.args, b) for b in bindings}


def _join(bindings: list[dict], lit: Literal, rel: Iterable[tuple[str, ...]]) -> list[dict]:
    if not bindings:
        return []
    sample = bindings[0]
    bound_pos = [
        i for i, a in enumerate(lit.args) if not is_var(a) or a in sample
    ]
    index: dict[tuple, list[tuple[str, ...]]] = {}
    for tup in rel:
        key = tuple(tup[i] for i in bound_pos)
        index.setdefault(key, []).append(tup)
    out = []
    for b in bindings:
        key = tuple(
            lit.args[i] if not is_var(lit.args[i]) else b[lit.args[i]] for i in bound_pos
        )
        for tup in index.get(key, ()):
            new = dict(b)
            ok = True
            for arg, val in zip(lit.args, tup):
                if is_var(arg):
                    if new.setdefault(arg, val) != val:
                        ok = False
                        break
                elif arg != val:
                    ok = False
                    break
            if ok:
                out.append(new)
    return out


def _ground_args(args: Sequence[Term], binding: dict) -> tuple[str, ...]:
    out = []
    for arg in args:
        if is_var(arg):
            out.append(binding[arg])
        else:
            out.append(arg)
    return tuple(out)


# ---------------------------------------------------------------------------
# text format


_CONST_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")
_UNESCAPE_RE = re.compile(r"\\(.)")


def format_term(term: Term) -> str:
    if is_var(term):
        return term.name
    if isinstance(term, Compound):
        inner = ", ".join(format_term(a) for a in term.args)
        return f"{term.functor}({inner})"
    if _CONST_RE.match(term):
        return term
    return '"' + term.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_literal(lit: Literal) -> str:
    prefix = "not " if lit.negated else ""
    if lit.pred == NEQ:
        left, right = lit.args
        return f"{prefix}{format_term(left)} != {format_term(right)}"
    if not lit.args:
        return prefix + lit.pred
    args = ", ".join(format_term(a) for a in lit.args)
    return f"{prefix}{lit.pred}({args})"


def format_rule_ast(rule: Rule | AspRule | Literal) -> str:
    """One statement; a bare `Literal` is written as a fact."""
    if isinstance(rule, Literal):
        heads, body = [rule], ()
    elif isinstance(rule, Rule):
        heads, body = [rule.head], rule.body
    else:
        heads, body = list(rule.heads), rule.body
    head_text = " | ".join(format_literal(h) for h in heads)
    if not body:
        return f"{head_text}."
    body_text = ", ".join(format_literal(lit) for lit in body)
    if not heads:
        return f":- {body_text}."
    return f"{head_text} :- {body_text}."


# -- parsing ----------------------------------------------------------------


class _Lexer:
    _TOKEN_RE = re.compile(
        r"""
        (?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<implication>:-)
      | (?P<neq>!=)
      | (?P<punct>[(),.|])
      | (?P<quoted>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z0-9_][A-Za-z0-9_]*)
        """,
        re.VERBOSE,
    )

    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        line = 1
        while pos < len(text):
            match = self._TOKEN_RE.match(text, pos)
            if match is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line)
            kind = match.lastgroup
            value = match.group()
            line += value.count("\n")
            if kind not in ("ws", "comment"):
                self.tokens.append((kind, value, line))
            pos = match.end()
        self.tokens.append(("eof", "", line))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None):
        token = self.next()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {token[1] or 'end of input'!r}", token[2])
        return token


def parse_asp(text: str) -> list[AspRule]:
    """Every statement, keeping disjunctions and constraints."""
    lexer = _Lexer(text)
    rules = []
    while lexer.peek()[0] != "eof":
        rules.append(_parse_statement(lexer))
    return rules


def parse_program(
    text: str, builtins: Mapping[str, Builtin] | None = None
) -> Program:
    """A plain Datalog program: ground facts and single-head rules."""
    rules: list[Rule] = []
    facts: dict[str, list[tuple[str, ...]]] = {}
    for asp_rule in parse_asp(text):
        if asp_rule.is_constraint:
            raise ValidationError("constraints are not part of the Datalog layer")
        if len(asp_rule.heads) > 1:
            raise ValidationError("disjunctive heads are not part of the Datalog layer")
        head = asp_rule.heads[0]
        if asp_rule.is_fact:
            if any(is_var(a) or isinstance(a, Compound) for a in head.args):
                raise ValidationError(
                    f"fact {format_literal(head)!r} must be ground and function-free"
                )
            facts.setdefault(head.pred, []).append(tuple(head.args))
        else:
            rules.append(Rule(head, asp_rule.body))
    return Program(rules, facts, builtins)


def _parse_statement(lexer: _Lexer) -> AspRule:
    heads: list[Literal] = []
    kind, value, _ = lexer.peek()
    if kind == "implication":
        lexer.next()
        body = _parse_body(lexer)
        lexer.expect("punct", ".")
        return AspRule((), tuple(body))
    heads.append(_parse_literal(lexer, allow_not=False))
    while lexer.peek()[:2] == ("punct", "|"):
        lexer.next()
        heads.append(_parse_literal(lexer, allow_not=False))
    kind, value, line = lexer.next()
    if (kind, value) == ("punct", "."):
        return AspRule(tuple(heads), ())
    if kind != "implication":
        raise ParseError(f"expected ':-' or '.', found {value!r}", line)
    body = _parse_body(lexer)
    lexer.expect("punct", ".")
    return AspRule(tuple(heads), tuple(body))


def _parse_body(lexer: _Lexer) -> list[Literal]:
    body = [_parse_literal(lexer, allow_not=True)]
    while lexer.peek()[:2] == ("punct", ","):
        lexer.next()
        body.append(_parse_literal(lexer, allow_not=True))
    return body


def _parse_literal(lexer: _Lexer, allow_not: bool) -> Literal:
    negated = False
    kind, value, line = lexer.peek()
    if kind == "ident" and value == "not":
        if not allow_not:
            raise ParseError("negation is not allowed here", line)
        lexer.next()
        negated = True
    term = _parse_term(lexer)
    if lexer.peek()[0] == "neq":
        lexer.next()
        right = _parse_term(lexer)
        return Literal(NEQ, (term, right), negated)
    if isinstance(term, Compound):
        return Literal(term.functor, term.args, negated)
    if is_var(term):
        raise ParseError(f"predicate name expected, found variable {term.name!r}", line)
    return Literal(term, (), negated)


def _parse_term(lexer: _Lexer) -> Term:
    kind, value, line = lexer.next()
    if kind == "quoted":
        return _UNESCAPE_RE.sub(r"\1", value[1:-1])
    if kind != "ident":
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", line)
    if lexer.peek()[:2] == ("punct", "("):
        lexer.next()
        args = []
        if lexer.peek()[:2] != ("punct", ")"):
            args.append(_parse_term(lexer))
            while lexer.peek()[:2] == ("punct", ","):
                lexer.next()
                args.append(_parse_term(lexer))
        lexer.expect("punct", ")")
        return Compound(value, tuple(args))
    if value[0].isupper() or value[0] == "_":
        return Var(value)
    return value
