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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .datalog import NEQ, Lexer, Literal, Token, value_pred
from .errors import ParseError, ValidationError
from .model import MatchingFunction, Schema
from .terms import Var

_KEYWORDS = {"md", "lead"}

# `\w` is `str.isalnum()` plus '_'; whitespace is only these four characters
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<assign>:=)
  | (?P<punct>[(),;:~])
  | (?P<ident>\w+)
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
    first, second = md.leading_atoms()
    lead_positions = {
        v: (idx, pos)
        for idx, atom in enumerate((first, second))
        for pos, v in enumerate(atom.attr_vars)
    }
    for v in (md.rhs_left, md.rhs_right):
        if v not in lead_positions:
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
    sides = {_rhs_side(md, md.rhs_left), _rhs_side(md, md.rhs_right)}
    if sides != {0, 1}:
        raise ParseError(
            f"rule {md.name!r}: right-hand side needs one variable from each leading atom",
            name_tok.line,
            name_tok.column,
        )


def _rhs_side(md: MatchingDependency, var: str) -> int:
    """0 or 1 depending on which leading atom holds the variable (unique occurrence)."""
    first, second = md.leading_atoms()
    occurrences = []
    for side, atom in enumerate((first, second)):
        for pos, v in enumerate(atom.attr_vars):
            if v == var:
                occurrences.append((side, pos))
    for atom in md.context_atoms():
        if var in atom.attr_vars:
            raise ValidationError(
                f"rule {md.name!r}: right-hand variable {var!r} also occurs in a context atom"
            )
    if len(occurrences) != 1:
        raise ValidationError(
            f"rule {md.name!r}: right-hand variable {var!r} must occur exactly once "
            "among the leading atoms' attributes"
        )
    return occurrences[0][0]


def parse_mds(text: str) -> MDSet:
    return _Parser(text, _TOKEN_RE).parse_file()


def load_mds(path: str | Path) -> MDSet:
    return parse_mds(Path(path).read_text())


# ---------------------------------------------------------------------------
# schema-aware validation and derived attribute sets


def rhs_targets(md: MatchingDependency) -> tuple[tuple[int, int], tuple[int, int]]:
    """(leading side, attribute position) for the two right-hand variables.

    Ordered so the first entry belongs to leading atom 0.
    """
    a = (_rhs_side(md, md.rhs_left), _position_in_lead(md, md.rhs_left))
    b = (_rhs_side(md, md.rhs_right), _position_in_lead(md, md.rhs_right))
    return (a, b) if a[0] == 0 else (b, a)


def _position_in_lead(md: MatchingDependency, var: str) -> int:
    side = _rhs_side(md, var)
    atom = md.leading_atoms()[side]
    return atom.attr_vars.index(var)


def _var_positions(md: MatchingDependency) -> dict[str, list[tuple[MDAtom, int]]]:
    positions: dict[str, list[tuple[MDAtom, int]]] = {}
    for atom in md.atoms:
        for pos, v in enumerate(atom.attr_vars):
            positions.setdefault(v, []).append((atom, pos))
    return positions


def sim_domain(md: MatchingDependency, schema: Schema, sc: SimilarityConstraint) -> str:
    """Resolve (and cross-check) the domain a similarity constraint ranges over."""
    positions = _var_positions(md)
    domains = set()
    for v in (sc.left, sc.right):
        for atom, pos in positions.get(v, ()):
            domains.add(schema.relation(atom.relation).domains[pos])
    if sc.domain is not None:
        domains.add(sc.domain)
    if len(domains) != 1:
        raise ValidationError(
            f"rule {md.name!r}: similarity {sc.left} ~ {sc.right} mixes domains {sorted(domains)}"
        )
    return domains.pop()


def alhs(md: MatchingDependency, schema: Schema) -> frozenset[tuple[str, str]]:
    """Attributes the left-hand side compares, via similarity or equality joins."""
    out: set[tuple[str, str]] = set()
    positions = _var_positions(md)
    compared = {v for sc in md.similarities for v in (sc.left, sc.right)}
    for v, occs in positions.items():
        if v in compared or len(occs) > 1:
            for atom, pos in occs:
                rel = schema.relation(atom.relation)
                out.add((atom.relation, rel.attrs[pos]))
    return frozenset(out)


def arhs(md: MatchingDependency, schema: Schema) -> frozenset[tuple[str, str]]:
    """Attributes the rule writes."""
    out = set()
    for side, pos in rhs_targets(md):
        atom = md.leading_atoms()[side]
        rel = schema.relation(atom.relation)
        out.add((atom.relation, rel.attrs[pos]))
    return frozenset(out)


def rhs_domain(md: MatchingDependency, schema: Schema) -> str:
    (s0, p0), (s1, p1) = rhs_targets(md)
    lead = md.leading_atoms()
    d0 = schema.relation(lead[s0].relation).domains[p0]
    d1 = schema.relation(lead[s1].relation).domains[p1]
    if d0 != d1:
        raise ValidationError(
            f"rule {md.name!r}: right-hand attributes live in different domains "
            f"({d0!r} vs {d1!r})"
        )
    return d0


def validate_mds(mds: MDSet, schema: Schema, mf: MatchingFunction | None = None) -> None:
    """Schema (and optionally matching-function) conformance for a rule set."""
    for md in mds:
        for atom in md.atoms:
            rel = schema.relation(atom.relation)
            if len(atom.attr_vars) != rel.arity:
                raise ValidationError(
                    f"rule {md.name!r}: atom {atom.relation} has {len(atom.attr_vars)} "
                    f"attribute variables, schema says {rel.arity}"
                )
        lowered = {}
        for v in md.variables():
            other = lowered.setdefault(v.lower(), v)
            if other != v:
                raise ValidationError(
                    f"rule {md.name!r}: variables {other!r} and {v!r} differ only by case"
                )
        for v, occs in _var_positions(md).items():
            domains = {schema.relation(a.relation).domains[p] for a, p in occs}
            if len(domains) > 1:
                raise ValidationError(
                    f"rule {md.name!r}: variable {v!r} joins attributes of different "
                    f"domains {sorted(domains)}"
                )
        for sc in md.similarities:
            sim_domain(md, schema, sc)
        dom = rhs_domain(md, schema)
        if mf is not None and dom not in mf.declared_domains():
            raise ValidationError(
                f"rule {md.name!r}: right-hand domain {dom!r} has no matching function"
            )


# ---------------------------------------------------------------------------
# Datalog bodies


def var_name(var: str) -> str:
    """The Datalog spelling of a rule variable: its initial upper-cased."""
    return var[0].upper() + var[1:]


def md_body(
    md: MatchingDependency,
    schema: Schema,
    relation_pred: Callable[[str], str],
) -> list[Literal]:
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

    lead0, lead1 = md.leading_atoms()
    body = [atom(lead0), atom(lead1), *(atom(a) for a in md.context_atoms())]
    for sc in md.similarities:
        dom = sim_domain(md, schema, sc)
        sides = (Var(var_name(sc.left)), Var(var_name(sc.right)))
        body.append(Literal(value_pred("sim", dom), sides))
    (_, p0), (_, p1) = rhs_targets(md)
    if md.same_relation() and p0 != p1:
        tids = (Var(var_name(lead0.tid_var)), Var(var_name(lead1.tid_var)))
        body.append(Literal(NEQ, tids))
    body.append(Literal(NEQ, (Var(var_name(md.rhs_left)), Var(var_name(md.rhs_right)))))
    return body
