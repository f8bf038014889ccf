"""Matching-dependency rules: syntax, validation, and attribute sets.

A rule file holds declarations such as

    md same_person: lead R(t1; x1, y1), lead R(t2; x2, y2),
                    x1 ~doma~ x2 -> y1 := y2;

Two atoms are the leading atoms whose identified tuples get their right-hand
attribute merged; further atoms are context that must join against the
current instance.  With exactly two atoms the `lead` markers may be dropped.
Repeating a variable across attribute positions is an equality join; `~` with
an optional explicit domain is a similarity requirement.  The right-hand side
names one attribute variable from each leading atom.

`validate_mds` checks a rule set against a schema and returns each rule bound
to it (`BoundMD`): the positions it writes, its domains and its attribute
sets, resolved once for the chase, the classifier and the program emitters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .datalog import NEQ, Lexer, Literal, Token, value_pred
from .errors import ParseError, ValidationError
from .model import MatchingFunction, Schema, read_text
from .terms import Var

_KEYWORDS = {"md", "lead"}

# `\w` is `str.isalnum()` plus '_'; whitespace is only these four characters
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?: (?P<arrow>->)
      | (?P<assign>:=)
      | (?P<punct>[(),;:~])
      | (?P<ident>\w+)
      | (?P<eof>\Z)
      | (?P<error>(?s:.))
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class MDAtom:
    relation: str
    tid_var: str
    attr_vars: tuple[str, ...]
    leading: bool

    def __post_init__(self) -> None:
        if self.tid_var in self.attr_vars:
            raise ValidationError(
                f"atom {self.relation}: identifier variable {self.tid_var!r} reused "
                "as an attribute variable"
            )


@dataclass(frozen=True)
class SimilarityConstraint:
    left: str
    right: str
    domain: str | None = None


@dataclass(frozen=True)
class MatchingDependency:
    name: str
    atoms: tuple[MDAtom, ...]
    similarities: tuple[SimilarityConstraint, ...]
    rhs_left: str
    rhs_right: str

    def leading_atoms(self) -> tuple[MDAtom, MDAtom]:
        first, second = [a for a in self.atoms if a.leading]
        return first, second

    def context_atoms(self) -> tuple[MDAtom, ...]:
        return tuple(a for a in self.atoms if not a.leading)

    def same_relation(self) -> bool:
        a, b = self.leading_atoms()
        return a.relation == b.relation

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.tid_var)
            for v in atom.attr_vars:
                seen.setdefault(v)
        return list(seen)


class MDSet:
    """An ordered collection of matching dependencies with unique names."""

    def __init__(self, mds: Iterator[MatchingDependency] | list[MatchingDependency]):
        self.mds: list[MatchingDependency] = []
        self.by_name: dict[str, MatchingDependency] = {}
        for md in mds:
            if md.name in self.by_name:
                raise ValidationError(f"duplicate rule name {md.name!r}")
            self.mds.append(md)
            self.by_name[md.name] = md

    def __iter__(self) -> Iterator[MatchingDependency]:
        return iter(self.mds)

    def __len__(self) -> int:
        return len(self.mds)

    def names(self) -> list[str]:
        return [md.name for md in self.mds]


class _Parser(Lexer):
    def ident(self, what: str) -> Token:
        return self.expect("ident", what=what)

    def parse_file(self) -> MDSet:
        mds = []
        while self.peek().kind != "eof":
            mds.append(self.parse_md())
        return MDSet(mds)

    def parse_md(self) -> MatchingDependency:
        kw = self.ident("'md'")
        if kw.text != "md":
            raise ParseError(f"expected 'md', found {kw.text!r}", kw.line, kw.column)
        name_tok = self.ident("rule name")
        if name_tok.text in _KEYWORDS:
            raise ParseError(f"{name_tok.text!r} cannot name a rule", name_tok.line, name_tok.column)
        self.expect("punct", ":")
        atoms: list[tuple[MDAtom, Token]] = []
        sims: list[SimilarityConstraint] = []
        while True:
            self.parse_item(atoms, sims)
            tok = self.next()
            if tok.kind == "arrow":
                break
            if not (tok.kind == "punct" and tok.text == ","):
                raise ParseError(f"expected ',' or '->', found {tok.text or 'end of input'!r}", tok.line, tok.column)
        left = self.ident("attribute variable").text
        self.expect("assign")
        right = self.ident("attribute variable").text
        self.expect("punct", ";")
        return self._finish(name_tok, atoms, sims, left, right)

    def parse_item(self, atoms, sims) -> None:
        tok = self.ident("atom or similarity")
        leading = False
        if tok.text == "lead":
            leading = True
            tok = self.ident("relation name")
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == "(":
            atoms.append((self._parse_atom_body(tok, leading), tok))
            return
        if leading:
            raise ParseError("'lead' must be followed by an atom", tok.line, tok.column)
        # similarity: tok is the left variable
        self.expect("punct", "~")
        after = self.next()
        if after.kind == "ident" and self.peek().kind == "punct" and self.peek().text == "~":
            self.next()  # closing ~
            right = self.ident("variable")
            sims.append(SimilarityConstraint(tok.text, right.text, after.text))
        elif after.kind == "ident":
            sims.append(SimilarityConstraint(tok.text, after.text, None))
        else:
            raise ParseError(f"expected variable or domain, found {after.text!r}", after.line, after.column)

    def _parse_atom_body(self, rel_tok: Token, leading: bool) -> MDAtom:
        self.expect("punct", "(")
        tid = self.ident("identifier variable").text
        self.expect("punct", ";")
        attr_vars = [self.ident("attribute variable").text]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            attr_vars.append(self.ident("attribute variable").text)
        close = self.expect("punct", ")")
        try:
            return MDAtom(rel_tok.text, tid, tuple(attr_vars), leading)
        except ValidationError as exc:
            raise ParseError(str(exc), close.line, close.column) from exc

    def _finish(self, name_tok, atoms, sims, left, right) -> MatchingDependency:
        if len(atoms) < 2:
            raise ParseError(f"rule {name_tok.text!r} needs two leading atoms", name_tok.line, name_tok.column)
        marked = [a for a, _ in atoms if a.leading]
        if not marked and len(atoms) == 2:
            atoms = [(MDAtom(a.relation, a.tid_var, a.attr_vars, True), t) for a, t in atoms]
            marked = [a for a, _ in atoms]
        if len(marked) != 2:
            raise ParseError(
                f"rule {name_tok.text!r} must mark exactly two atoms with 'lead' "
                f"(found {len(marked)})",
                name_tok.line,
                name_tok.column,
            )
        md = MatchingDependency(name_tok.text, tuple(a for a, _ in atoms), tuple(sims), left, right)
        _check_structure(md, name_tok)
        return md


def _check_structure(md: MatchingDependency, name_tok: Token) -> None:
    """Schema-independent shape checks, reported as parse errors with position."""
    for v in md.variables():
        # so that `var_name` spells it as a Datalog variable, which the
        # Datalog lexer reads in ASCII letters, digits and '_' only
        if not (v.isascii() and (v[0].isalpha() or v[0] == "_")):
            raise ParseError(
                f"rule {md.name!r}: variable {v!r} must start with a letter or '_' "
                "and use only ASCII letters, digits and '_'",
                name_tok.line,
                name_tok.column,
            )
    tid_vars = [a.tid_var for a in md.atoms]
    if len(set(tid_vars)) != len(tid_vars):
        raise ParseError(f"rule {md.name!r}: identifier variables must be distinct", name_tok.line, name_tok.column)
    attr_vars = {v for a in md.atoms for v in a.attr_vars}
    if set(tid_vars) & attr_vars:
        shared = sorted(set(tid_vars) & attr_vars)
        raise ParseError(
            f"rule {md.name!r}: {shared[0]!r} is used both as identifier and attribute",
            name_tok.line,
            name_tok.column,
        )
    for sc in md.similarities:
        for v in (sc.left, sc.right):
            if v not in attr_vars:
                raise ParseError(
                    f"rule {md.name!r}: similarity mentions unknown variable {v!r}",
                    name_tok.line,
                    name_tok.column,
                )
    # the leading atom, 0 or 1, of each occurrence of each right-hand variable
    lead_sides = {
        v: [side for side, atom in enumerate(md.leading_atoms()) for w in atom.attr_vars if w == v]
        for v in (md.rhs_left, md.rhs_right)
    }
    for v in (md.rhs_left, md.rhs_right):
        if not lead_sides[v]:
            raise ParseError(
                f"rule {md.name!r}: right-hand variable {v!r} does not occur in a leading atom",
                name_tok.line,
                name_tok.column,
            )
    if md.rhs_left == md.rhs_right:
        raise ParseError(
            f"rule {md.name!r}: right-hand side must name two distinct variables",
            name_tok.line,
            name_tok.column,
        )
    for v in (md.rhs_left, md.rhs_right):
        if any(v in atom.attr_vars for atom in md.context_atoms()):
            raise ValidationError(
                f"rule {md.name!r}: right-hand variable {v!r} also occurs in a context atom"
            )
        if len(lead_sides[v]) != 1:
            raise ValidationError(
                f"rule {md.name!r}: right-hand variable {v!r} must occur exactly once "
                "among the leading atoms' attributes"
            )
    if {lead_sides[md.rhs_left][0], lead_sides[md.rhs_right][0]} != {0, 1}:
        raise ParseError(
            f"rule {md.name!r}: right-hand side needs one variable from each leading atom",
            name_tok.line,
            name_tok.column,
        )


def parse_mds(text: str) -> MDSet:
    return _Parser(text, _TOKEN_RE).parse_file()


def load_mds(path: str | Path) -> MDSet:
    return parse_mds(read_text(path))


# ---------------------------------------------------------------------------
# schema-aware validation: rules bound to the schema


@dataclass(frozen=True)
class BoundMD:
    """A rule bound to the schema it was validated against.

    `lead` are its leading atoms and `rhs` the position each of them writes,
    both in leading order; `rhs_domain` is the written domain and
    `sim_domains` the domain of each similarity, in rule order.  `compared`
    are the attribute variables the left-hand side compares, through a
    similarity or an equality join, and `alhs` their (relation, attribute)
    pairs; `arhs` are the ones the rule writes.
    """

    md: MatchingDependency
    lead: tuple[MDAtom, MDAtom]
    rhs: tuple[int, int]
    rhs_domain: str
    sim_domains: tuple[str, ...]
    compared: frozenset[str]
    alhs: frozenset[tuple[str, str]]
    arhs: frozenset[tuple[str, str]]

    def symmetric_write(self) -> bool:
        """Whether both orientations of a pair write the same cells: the
        leading atoms share a relation and write one position."""
        return self.lead[0].relation == self.lead[1].relation and self.rhs[0] == self.rhs[1]


def _bind(md: MatchingDependency, schema: Schema) -> BoundMD:
    """Check one rule against the schema and resolve its positions and domains."""
    # every attribute occurrence of each variable, as (relation, attribute, domain)
    occurrences: dict[str, list[tuple[str, str, str]]] = {}
    for atom in md.atoms:
        rel = schema.relation(atom.relation)
        if len(atom.attr_vars) != rel.arity:
            raise ValidationError(
                f"rule {md.name!r}: atom {atom.relation} has {len(atom.attr_vars)} "
                f"attribute variables, schema says {rel.arity}"
            )
        for v, attr, dom in zip(atom.attr_vars, rel.attrs, rel.domains):
            occurrences.setdefault(v, []).append((atom.relation, attr, dom))
    lowered = {}
    for v in md.variables():
        other = lowered.setdefault(v.lower(), v)
        if other != v:
            raise ValidationError(
                f"rule {md.name!r}: variables {other!r} and {v!r} differ only by case"
            )
    for v, occs in occurrences.items():
        domains = {dom for _, _, dom in occs}
        if len(domains) > 1:
            raise ValidationError(
                f"rule {md.name!r}: variable {v!r} joins attributes of different "
                f"domains {sorted(domains)}"
            )
    sim_domains = []
    for sc in md.similarities:
        domains = {occurrences[v][0][2] for v in (sc.left, sc.right)}
        if sc.domain is not None:
            domains.add(sc.domain)
        if len(domains) != 1:
            raise ValidationError(
                f"rule {md.name!r}: similarity {sc.left} ~ {sc.right} mixes domains {sorted(domains)}"
            )
        sim_domains.append(domains.pop())
    lead = md.leading_atoms()
    rhs_vars = (md.rhs_left, md.rhs_right)
    if md.rhs_left not in lead[0].attr_vars:
        rhs_vars = rhs_vars[::-1]
    written = [occurrences[v][0] for v in rhs_vars]
    (_, _, d0), (_, _, d1) = written
    if d0 != d1:
        raise ValidationError(
            f"rule {md.name!r}: right-hand attributes live in different domains "
            f"({d0!r} vs {d1!r})"
        )
    in_sims = {v for sc in md.similarities for v in (sc.left, sc.right)}
    compared = frozenset(v for v, occs in occurrences.items() if v in in_sims or len(occs) > 1)
    alhs = frozenset((rel, attr) for v in compared for rel, attr, _ in occurrences[v])
    rhs = tuple(atom.attr_vars.index(v) for atom, v in zip(lead, rhs_vars))
    arhs = frozenset((rel, attr) for rel, attr, _ in written)
    return BoundMD(md, lead, rhs, d0, tuple(sim_domains), compared, alhs, arhs)


def validate_mds(mds: MDSet, schema: Schema, mf: MatchingFunction | None = None) -> list[BoundMD]:
    """Schema (and optionally matching-function) conformance for a rule set;
    returns the rules bound to the schema, in rule order."""
    bound = []
    for md in mds:
        rule = _bind(md, schema)
        if mf is not None and rule.rhs_domain not in mf.declared_domains():
            raise ValidationError(
                f"rule {md.name!r}: right-hand domain {rule.rhs_domain!r} has no matching function"
            )
        bound.append(rule)
    return bound


# ---------------------------------------------------------------------------
# Datalog bodies


def var_name(var: str) -> str:
    """The Datalog spelling of a rule variable: its initial upper-cased."""
    return var[0].upper() + var[1:]


def md_body(rule: BoundMD, relation_pred: Callable[[str], str]) -> list[Literal]:
    """The rule's left-hand side as a Datalog body over its `var_name`s.

    Leading and context atoms over `relation_pred(relation)`, identifier
    first; one `sim_<domain>(left, right)` per similarity; then the step
    guards.  The leading identifiers differ when the atoms share a
    relation written at two positions (a tuple matched with itself would
    merge two of its own values), and the right-hand values differ, so only
    a step that changes a value matches; with one written position that
    also rules out a self-pair.
    """

    def atom(a: MDAtom) -> Literal:
        names = (a.tid_var, *a.attr_vars)
        return Literal(relation_pred(a.relation), tuple(Var(var_name(v)) for v in names))

    md = rule.md
    lead0, lead1 = rule.lead
    body = [atom(lead0), atom(lead1), *(atom(a) for a in md.context_atoms())]
    for sc, dom in zip(md.similarities, rule.sim_domains):
        sides = (Var(var_name(sc.left)), Var(var_name(sc.right)))
        body.append(Literal(value_pred("sim", dom), sides))
    if lead0.relation == lead1.relation and rule.rhs[0] != rule.rhs[1]:
        tids = (Var(var_name(lead0.tid_var)), Var(var_name(lead1.tid_var)))
        body.append(Literal(NEQ, tids))
    body.append(Literal(NEQ, (Var(var_name(md.rhs_left)), Var(var_name(md.rhs_right)))))
    return body
