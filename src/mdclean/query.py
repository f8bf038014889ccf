"""Conjunctive queries with similarity literals, and certain answers.

Query text follows the usual rule shape, with the first argument of every
atom standing for the tuple identifier:

    q(X) :- R(T, X, Y), Y ~domb~ c.

Identifiers starting with an upper-case letter or underscore are variables;
everything else (or anything double-quoted) is a constant.  A query is
evaluated as one Datalog rule over the instance's tuples, and several
queries as one program of such rules: the engine that runs the cleaning
programs finds their answers and least witnesses.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import AbstractSet, NamedTuple, Sequence

from .datalog import NEQ, Literal, Program, Rule, Term, Var, evaluate, value_builtins, value_pred
from .errors import EmptyCleanSet, ParseError, UnknownDomain, ValidationError
from .model import Instance, Schema, SimilarityRelation, read_text


class QueryAtom(NamedTuple):
    relation: str
    args: tuple[Term, ...]  # identifier first, then attribute terms


class SimLiteral(NamedTuple):
    left: Term
    right: Term
    domain: str | None = None


class ConjunctiveQuery(NamedTuple):
    name: str
    head: tuple[Var, ...]
    atoms: tuple[QueryAtom, ...]
    sims: tuple[SimLiteral, ...] = ()
    distinct_tids: bool = False

    def variables(self) -> list[Var]:
        seen: dict[Var, None] = {}
        for atom in self.atoms:
            for arg in atom.args:
                if isinstance(arg, Var):
                    seen.setdefault(arg)
        return list(seen)


def validate_query(query: ConjunctiveQuery, schema: Schema) -> list[str]:
    """Check the query against the schema; the domains of its similarities,
    each one of the schema's."""
    body_vars = set(query.variables())
    for atom in query.atoms:
        rel = schema.relation(atom.relation)
        if len(atom.args) != 1 + rel.arity:
            raise ValidationError(
                f"query {query.name!r}: atom {atom.relation} has {len(atom.args)} "
                f"arguments, expected {1 + rel.arity}"
            )
    for v in query.head:
        if v not in body_vars:
            raise ValidationError(f"query {query.name!r}: head variable {v.name!r} not bound by the body")
    for lit in query.sims:
        for term in (lit.left, lit.right):
            if isinstance(term, Var) and term not in body_vars:
                raise ValidationError(
                    f"query {query.name!r}: similarity variable {term.name!r} not bound by an atom"
                )
    domains = [resolve_sim_domain(query, schema, lit) for lit in query.sims]
    known = schema.domains()
    for dom in domains:
        if dom not in known:
            raise UnknownDomain(f"query {query.name!r}: similarity on unknown domain {dom!r}")
    return domains


def resolve_sim_domain(query: ConjunctiveQuery, schema: Schema, lit: SimLiteral) -> str:
    domains = set()
    if lit.domain is not None:
        domains.add(lit.domain)
    for term in (lit.left, lit.right):
        if not isinstance(term, Var):
            continue
        for atom in query.atoms:
            rel = schema.relation(atom.relation)
            for pos, arg in enumerate(atom.args[1:]):
                if arg == term:
                    domains.add(rel.domains[pos])
    if len(domains) != 1:
        side = f"{_term_text(lit.left)} ~ {_term_text(lit.right)}"
        raise ValidationError(
            f"query {query.name!r}: cannot resolve a single domain for {side} "
            f"(candidates {sorted(domains)})"
        )
    return domains.pop()


def _term_text(term: Term) -> str:
    return term.name if isinstance(term, Var) else str(term)


# ---------------------------------------------------------------------------
# evaluation


def relation_pred(name: str) -> str:
    """The predicate of a relation's tuples in compiled rules.

    Its prefix keeps it apart from the built-ins and from rule heads.
    """
    return "rel_" + name


def instance_facts(instance: Instance) -> dict[str, list[tuple[str, ...]]]:
    """Each relation's tuples as facts of `relation_pred`, identifier first."""
    return {
        relation_pred(rel): [(tid, *vals) for tid, vals in rows.items()]
        for rel, rows in instance.tuples.items()
    }


def _answers(
    instance: Instance,
    queries: Sequence[tuple[ConjunctiveQuery, tuple[Term, ...]]],
    sim: SimilarityRelation,
) -> list[AbstractSet[tuple[str, ...]]]:
    """For each (query, head), the `head` tuples of the query's solutions.

    The queries are one program evaluated once, each query one rule with its
    own head predicate.  A rule's body has the query's atoms, one
    `sim_<domain>` literal per similarity and, under `distinct_tids`, a `!=`
    between every two distinct identifier terms (a variable shared by two
    atoms is one term).
    """
    if not queries:
        return []
    rules, uses = [], []
    for index, (query, head) in enumerate(queries):
        domains = validate_query(query, instance.schema)
        uses.extend(("sim", dom) for dom in domains)
        body = [Literal(relation_pred(atom.relation), atom.args) for atom in query.atoms]
        for lit, dom in zip(query.sims, domains):
            body.append(Literal(value_pred("sim", dom), (lit.left, lit.right)))
        if query.distinct_tids:
            tids = dict.fromkeys(atom.args[0] for atom in query.atoms)
            body.extend(Literal(NEQ, pair) for pair in itertools.combinations(tids, 2))
        rules.append(Rule((Literal(f"answer_{index}", head),), tuple(body)))
    model = evaluate(Program(rules, value_builtins(uses, sim)), instance_facts(instance))
    return [model.get(f"answer_{index}") for index in range(len(rules))]


def eval_cq(
    instance: Instance, query: ConjunctiveQuery, sim: SimilarityRelation
) -> set[tuple[str, ...]]:
    """Answer tuples of the query on one instance."""
    return set(_answers(instance, [(query, query.head)], sim)[0])


def find_witnesses(
    instance: Instance, queries: Sequence[ConjunctiveQuery], sim: SimilarityRelation
) -> list[dict[str, str] | None]:
    """Each query's satisfying assignment least in its atom-order
    identifiers, or None; the queries are evaluated as one program."""
    heads = [(q, tuple(atom.args[0] for atom in q.atoms) + tuple(q.variables())) for q in queries]
    witnesses = []
    for (query, head), rows in zip(heads, _answers(instance, heads, sim)):
        witness = None
        if rows:
            # the identifiers fix every variable, so the least row has the least ones
            pairs = zip(head[len(query.atoms):], min(rows)[len(query.atoms):])
            witness = {v.name: val for v, val in sorted(pairs, key=lambda kv: kv[0].name)}
        witnesses.append(witness)
    return witnesses


def find_witness(
    instance: Instance, query: ConjunctiveQuery, sim: SimilarityRelation
) -> dict[str, str] | None:
    """The satisfying assignment least in its atom-order identifiers, or None."""
    return find_witnesses(instance, [query], sim)[0]


def certain_answers(
    instances: Sequence[Instance], query: ConjunctiveQuery, sim: SimilarityRelation
) -> set[tuple[str, ...]]:
    """Answers that hold in every given clean instance."""
    if not instances:
        raise EmptyCleanSet("certain answers need at least one clean instance")
    result: set[tuple[str, ...]] | None = None
    for instance in instances:
        answers = eval_cq(instance, query, sim)
        result = answers if result is None else result & answers
    return result


# ---------------------------------------------------------------------------
# parsing


def _is_var_name(text: str) -> bool:
    return bool(text) and (text[0].isupper() or text[0] == "_")


def parse_queries(text: str) -> list[ConjunctiveQuery]:
    *statements, rest = _split_top("\n".join(text.splitlines()), ".")
    if rest.strip():
        raise ParseError("query does not end with '.'")
    return [_parse_statement(s.lstrip()) for s in statements]


def _parse_statement(text: str) -> ConjunctiveQuery:
    """One statement as written, without its final '.'."""
    if ":-" not in text:
        raise ParseError(f"missing ':-' in {text + '.'!r}")
    head_text, body_text = text.split(":-", 1)
    name, head_vars = _parse_head(head_text.strip())
    atoms: list[QueryAtom] = []
    sims: list[SimLiteral] = []
    for chunk in _split_top(body_text, ","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty literal in query body")
        parts = _split_top(chunk, "~")
        if len(parts) > 1 and "(" not in "".join(parts[0].split('"')[::2]):
            sims.append(_parse_sim(parts))
        else:
            atoms.append(_parse_atom(chunk))
    head = tuple(Var(v) for v in head_vars)
    query = ConjunctiveQuery(name, head, tuple(atoms), tuple(sims))
    body_vars = set(query.variables())
    for v in head:
        if v not in body_vars:
            raise ParseError(f"head variable {v.name!r} not bound by the body")
    return query


def _parse_head(text: str) -> tuple[str, list[str]]:
    if "(" not in text:
        if not text:
            raise ParseError("query head missing")
        return _unquoted(text, "query name"), []
    if not text.endswith(")"):
        raise ParseError(f"malformed query head {text!r}")
    name, inner = text[:-1].split("(", 1)
    name = name.strip()
    args = [a.strip() for a in _split_top(inner, ",")] if inner.strip() else []
    for arg in args:
        if not arg:
            raise ParseError("empty term")
        if not _is_var_name(arg):
            raise ParseError(f"query head argument {arg!r} must be a variable")
    return _unquoted(name, "query name"), args


def _parse_atom(chunk: str) -> QueryAtom:
    if "(" not in chunk or not chunk.endswith(")"):
        raise ParseError(f"malformed atom {chunk!r}")
    rel, inner = chunk[:-1].split("(", 1)
    rel = _unquoted(rel.strip(), "relation name")
    # `_split_top` yields at least one piece, and `_parse_term` refuses an empty one
    args = tuple(_parse_term(a.strip()) for a in _split_top(inner, ","))
    return QueryAtom(rel, args)


def _parse_sim(parts: list[str]) -> SimLiteral:
    """A similarity from its literal's pieces between `~`s outside quotes and
    parentheses: `left ~ right`, or `left ~dom~ right` whose right side keeps
    any further `~`."""
    dom = _unquoted(parts[1].strip(), "domain") if len(parts) > 2 else None
    right = "~".join(parts[1:] if dom is None else parts[2:])
    return SimLiteral(_parse_term(parts[0].strip()), _parse_term(right.strip()), dom)


def _parse_term(text: str) -> Term:
    if not text:
        raise ParseError("empty term")
    if len(text) >= 2 and text[0] == text[-1] == '"' and '"' not in text[1:-1]:
        return text[1:-1]
    _unquoted(text, "term")
    if _is_var_name(text):
        return Var(text)
    return text


def _split_top(text: str, sep: str) -> list[str]:
    """The pieces of `text` between the `sep` characters that are outside
    parentheses and quotes, with each `#` comment outside quotes dropped up
    to its line's end; the text after the last `sep` is the last piece.  A
    quote left open is refused, placed where it opens."""
    parts, piece, depth, quote, in_comment = [], [], 0, None, False
    for at, ch in enumerate(text):
        if in_comment:
            if ch != "\n":
                continue
            in_comment = False
        elif ch == '"':
            quote = at if quote is None else None
        elif quote is not None:
            pass
        elif ch == "#":
            in_comment = True
            continue
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append("".join(piece))
            piece = []
            continue
        piece.append(ch)
    if quote is not None:
        line_start = text.rfind("\n", 0, quote) + 1
        raise ParseError("unterminated quote", text.count("\n", 0, quote) + 1, quote - line_start + 1)
    parts.append("".join(piece))
    return parts


def _unquoted(text: str, what: str) -> str:
    """`text`, refused when it holds a quote: one may only open and close a term."""
    if '"' in text:
        raise ParseError(f"stray quote in {what} {text!r}")
    return text


def load_queries(path: str | Path) -> list[ConjunctiveQuery]:
    return parse_queries(read_text(path))
