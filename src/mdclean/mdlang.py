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
sets, resolved once by the caller for the chase, the classifier and the emitters.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, NamedTuple

from .datalog import NEQ, Lexer, Literal, Token, Var, value_pred
from .errors import ParseError, ValidationError
from .model import MatchingFunction, Schema, read_text

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


class MDAtom(NamedTuple):
    relation: str
    tid_var: str
    attr_vars: tuple[str, ...]
    leading: bool


class SimilarityConstraint(NamedTuple):
    left: str
    right: str
    domain: str | None = None


class MatchingDependency(NamedTuple):
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

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.tid_var)
            for v in atom.attr_vars:
                seen.setdefault(v)
        return list(seen)


class _Parser(Lexer):
    def ident(self, what: str) -> Token:
        return self.expect("ident", what=what)

    def parse_file(self) -> list[MatchingDependency]:
        mds = []
        while self.peek().kind != "eof":
            mds.append(self.parse_md())
        return mds

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
        if tid in attr_vars:
            raise ParseError(
                f"atom {rel_tok.text}: identifier variable {tid!r} reused as an attribute variable",
                close.line,
                close.column,
            )
        return MDAtom(rel_tok.text, tid, tuple(attr_vars), leading)

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


def parse_mds(text: str) -> list[MatchingDependency]:
    return _Parser(text, _TOKEN_RE).parse_file()


def load_mds(path: str | Path) -> list[MatchingDependency]:
    return parse_mds(read_text(path))


# ---------------------------------------------------------------------------
# schema-aware validation: rules bound to the schema


class BoundMD(NamedTuple):
    """A rule bound to the schema it was validated against.

    `lead` are its leading atoms and `rhs` the position each of them writes,
    both in leading order; `rhs_domain` is the written domain and
    `sim_domains` the domain of each similarity, in rule order.  `compared`
    are the attribute variables the left-hand side compares, through a
    similarity or an equality join, and `alhs` their (relation, attribute)
    pairs; `arhs` are the ones the rule writes.  `symmetric_write` and
    `swap_symmetric` say how the rule's two orientations relate, and
    `orbits` which of its atoms a renaming of the rule onto itself exchanges.
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

    def swap_symmetric(self) -> bool:
        """Whether the rule writes symmetrically and a renaming of the rule
        onto itself exchanges its leading atoms (`orbits`): then every match
        of the body has a mirror that swaps the leading tuples and values."""
        first, second = (i for i, atom in enumerate(self.md.atoms) if atom.leading)
        return self.symmetric_write() and self.orbits((first, second))[second] == first

    def numbered_body(self, offset: int):
        """The body's atoms `(relation, terms)` and literals `(domain, left,
        right)`, its variables numbered from `offset` in `md.variables()`
        order; a literal the rule repeats, either way round, is listed once."""
        ids = {var: offset + k for k, var in enumerate(self.md.variables())}
        atoms = [(a.relation, tuple(ids[v] for v in (a.tid_var, *a.attr_vars))) for a in self.md.atoms]
        sims: dict[tuple, tuple[str, int, int]] = {}
        for sc, dom in zip(self.md.similarities, self.sim_domains):
            left, right = ids[sc.left], ids[sc.right]
            sims.setdefault((dom, frozenset((left, right))), (dom, left, right))
        return atoms, list(sims.values())

    def orbits(self, indices) -> dict[int, int]:
        """Each body atom of `indices` mapped to the first of them that a
        chain of renamings of the rule onto itself, each exchanging two of
        them, joins it to: the one search for the rule's symmetry."""
        atoms, sims = self.numbered_body(0)
        first: dict[int, int] = {}
        for i in indices:
            first[i] = next((first[j] for j in first if _exchanges(atoms, sims, j, i)), i)
        return first


def _bind(md: MatchingDependency, schema: Schema) -> BoundMD:
    """Check one rule against the schema and resolve its positions and domains."""
    # every attribute occurrence of each variable, as (relation, attribute, domain)
    occurrences: dict[str, list[tuple[str, str, str]]] = {}
    for atom in md.atoms:
        relation, attr_vars = atom.relation, atom.attr_vars
        rel = schema.relation(relation)
        if len(attr_vars) != rel.arity:
            raise ValidationError(
                f"rule {md.name!r}: atom {relation} has {len(attr_vars)} "
                f"attribute variables, schema says {rel.arity}"
            )
        for v, attr, dom in zip(attr_vars, rel.attrs, rel.domains):
            occurrences.setdefault(v, []).append((relation, attr, dom))
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


def _exchanges(atoms, sims, a: int, b: int) -> bool:
    """Whether a renaming maps the body `atoms`, `sims` (`BoundMD.numbered_body`)
    onto itself with atoms `a` and `b` exchanged position by position, every
    other atom onto a distinct one and the literals, read either way round,
    onto themselves.  It is extended one other atom at a time, onto an unused
    atom of the same relation whose arguments agree with it so far, and is
    undone where no later atom fits; the atom with the fewest such images
    goes next, and a branch fails once a literal with both variables renamed
    maps outside the set."""
    (rel_a, args_a), (rel_b, args_b) = atoms[a], atoms[b]
    if rel_a != rel_b:
        return False
    mapping: dict[int, int] = {}
    for x, y in zip(args_a, args_b):
        if mapping.setdefault(x, y) != y or mapping.setdefault(y, x) != x:
            return False
    either_way = {*sims, *((dom, y, x) for dom, x, y in sims)}
    free = set(range(len(atoms))) - {a, b}

    def extend(todo: set[int]) -> bool:
        for dom, left, right in sims:
            x, y = mapping.get(left), mapping.get(right)
            if x is not None and y is not None and (dom, x, y) not in either_way:
                return False
        if not todo:
            return True
        best = None
        for i in todo:
            relation, args = atoms[i]
            images = [
                (j, new) for j in free
                if atoms[j][0] == relation
                and (new := _extension(mapping, args, atoms[j][1])) is not None
            ]
            if best is None or len(images) < len(best[1]):
                best = i, images
                if len(images) < 2:
                    break
        i, images = best
        for j, new in images:
            mapping.update(new)
            free.remove(j)
            if extend(todo - {i}):
                return True
            free.add(j)
            for x in new:
                del mapping[x]
        return False

    return extend(set(free))


def _extension(mapping: dict[int, int], src: tuple[int, ...],
               dst: tuple[int, ...]) -> dict[int, int] | None:
    """The bindings `mapping` needs to map the arguments `src` onto `dst`
    position by position, or None if it cannot."""
    new: dict[int, int] = {}
    for x, y in zip(src, dst):
        bound = mapping.get(x, new.get(x))
        if bound is None:
            new[x] = y
        elif bound != y:
            return None
    return new


def validate_mds(mds: list[MatchingDependency], schema: Schema,
                 mf: MatchingFunction) -> list[BoundMD]:
    """Unique names, then schema conformance and a matching function for each
    written domain; returns the rules bound to the schema, in rule order."""
    for i, md in enumerate(mds):
        if any(md.name == other.name for other in mds[:i]):
            raise ValidationError(f"duplicate rule name {md.name!r}")
    bound = []
    for md in mds:
        rule = _bind(md, schema)
        if rule.rhs_domain not in mf.declared_domains():
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
