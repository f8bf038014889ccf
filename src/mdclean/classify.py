"""Classification of rule sets whose chase has a single clean instance.

Three sufficient conditions are checked in order: no rule writes an attribute
another rule reads (non-interacting); merging never breaks similarity on any
written domain (similarity-preserving); and, per interacting pair, a Boolean
query asking whether a merge could feed a rule body is unsatisfied on the
instance at hand (similarity-free attribute intersection).  Anything else is
reported as the general case, where enforcement order can matter.  The
checks read the rules as bound to the schema by `mdlang.validate_mds`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Mapping

from .mdlang import BoundMD, MDSet, validate_mds
from .model import (
    Instance,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
)
from .query import ConjunctiveQuery, QueryAtom, SimLiteral, find_witness
from .terms import Term, Var, is_var


class Verdict(enum.Enum):
    NON_INTERACTING = "non-interacting"
    SIMILARITY_PRESERVING = "similarity-preserving"
    SFAI = "sfai"
    GENERAL = "general"


@dataclass(frozen=True)
class InteractionPair:
    writer: str
    reader: str
    relation: str
    attribute: str

    def to_json_dict(self) -> dict:
        return {
            "writer": self.writer,
            "reader": self.reader,
            "attribute": f"{self.relation}[{self.attribute}]",
        }


def interaction_pairs(rules: list[BoundMD]) -> list[InteractionPair]:
    """Ordered rule pairs (self-pairs included) sharing a written/read attribute."""
    out = []
    for writer in rules:
        for reader in rules:
            for rel, attr in sorted(writer.arhs & reader.alhs):
                out.append(InteractionPair(writer.md.name, reader.md.name, rel, attr))
    return out


# ---------------------------------------------------------------------------
# similarity preservation


def is_similarity_preserving(
    rules: list[BoundMD],
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
) -> tuple[bool, tuple[str, str, str, str, str] | None]:
    """Check a ~ a' implies a ~ m(a', a'') over every written domain.

    Quantifies over the saturated values of each domain written by some rule
    (they include the domain's active values), including every reflexive
    pair, since similarity itself is reflexive.  A written domain without a
    matching function merges nothing, so it yields no counterexample.
    Returns (True, None) or (False, (domain, a, a2, a3, merged)).
    """
    for dom in sorted({rule.rhs_domain for rule in rules}):
        values = sorted(smf.values(dom))
        for a in values:
            for a2 in values:
                if not sim.similar(dom, a, a2):
                    continue
                for a3 in values:
                    merged = smf.try_match(dom, a2, a3)
                    if merged is not None and not sim.similar(dom, a, merged):
                        return False, (dom, a, a2, a3, merged)
    return True, None


# ---------------------------------------------------------------------------
# interaction queries


def sfai_queries(rules: list[BoundMD], schema: Schema) -> list[ConjunctiveQuery]:
    """Boolean queries, one per interaction pair per shared attribute.

    Each query embeds a written atom of the first rule into an occurrence of
    the shared attribute in the second rule's body and asks whether the
    combined body can match with pairwise-distinct identifiers.  Structurally
    equal embeddings (up to renaming) collapse; distinct pairs keep their own
    query even when isomorphic across pairs.
    """
    by_name = {rule.md.name: rule for rule in rules}
    queries: list[ConjunctiveQuery] = []
    for pair in interaction_pairs(rules):
        writer = by_name[pair.writer]
        reader = by_name[pair.reader]
        group: dict[tuple, tuple] = {}
        for merged in _embeddings(writer, reader, pair, schema):
            atoms, sims = merged
            group.setdefault(_canonical_key(atoms, sims), merged)
        base = f"{pair.writer}__{pair.reader}__{pair.relation}_{pair.attribute}"
        for index, key in enumerate(sorted(group)):
            atoms, sims = group[key]
            name = base if len(group) == 1 else f"{base}_{index + 1}"
            queries.append(_readable_query(name, atoms, sims))
    return queries


def _rename_md(rule: BoundMD, prefix: str):
    """The rule body as query structures over prefixed variables."""
    md = rule.md
    fresh = {v: Var(prefix + v) for v in md.variables()}
    atoms = [
        QueryAtom(a.relation, (fresh[a.tid_var],) + tuple(fresh[v] for v in a.attr_vars))
        for a in md.atoms
    ]
    sims = [
        SimLiteral(fresh[sc.left], fresh[sc.right], dom)
        for sc, dom in zip(md.similarities, rule.sim_domains)
    ]
    return atoms, sims


def _embeddings(writer, reader, pair, schema):
    attr_pos = schema.relation(pair.relation).position(pair.attribute)
    writer_atoms, writer_sims = _rename_md(writer, "w_")
    lead_indices = [idx for idx, a in enumerate(writer.md.atoms) if a.leading]
    written_atoms = [
        writer_atoms[index]
        for index, atom, pos in zip(lead_indices, writer.lead, writer.rhs)
        if atom.relation == pair.relation and pos == attr_pos
    ]
    reader_occurrences = [
        idx
        for idx, atom in enumerate(reader.md.atoms)
        if atom.relation == pair.relation and atom.attr_vars[attr_pos] in reader.compared
    ]
    reader_atoms, reader_sims = _rename_md(reader, "r_")
    for written in written_atoms:
        for occ_index in reader_occurrences:
            sub = _unify(reader_atoms[occ_index], written)
            kept = [
                _apply_atom(a, sub)
                for i, a in enumerate(reader_atoms)
                if i != occ_index
            ]
            atoms = [_apply_atom(a, sub) for a in writer_atoms] + kept
            sims = [_apply_sim(s, sub) for s in writer_sims + reader_sims]
            yield tuple(atoms), tuple(sims)


def _unify(atom_a: QueryAtom, atom_b: QueryAtom) -> dict[Var, Term]:
    """The substitution making two atoms of one relation, which hold only
    variables, equal: variables that meet positionwise become one, so a
    variable of `atom_a` that meets two of `atom_b` makes those one too."""
    sub: dict[Var, Term] = {}

    def find(var: Term) -> Term:
        while var in sub:
            var = sub[var]
        return var

    for left, right in zip(atom_a.args, atom_b.args):
        left, right = find(left), find(right)
        if left != right:
            sub[left] = right
    return {var: find(var) for var in sub}


def _apply_term(term: Term, sub: Mapping[Var, Term]) -> Term:
    return sub.get(term, term) if is_var(term) else term


def _apply_atom(atom: QueryAtom, sub: Mapping[Var, Term]) -> QueryAtom:
    return QueryAtom(atom.relation, tuple(_apply_term(t, sub) for t in atom.args))


def _apply_sim(lit: SimLiteral, sub: Mapping[Var, Term]) -> SimLiteral:
    return SimLiteral(_apply_term(lit.left, sub), _apply_term(lit.right, sub), lit.domain)


def _canonical_key(atoms, sims):
    """Isomorphism-invariant key: best serialization over atom orderings."""
    best = None
    for perm in itertools.permutations(range(len(atoms))):
        mapping: dict[Var, str] = {}

        def rn(term):
            if is_var(term):
                if term not in mapping:
                    mapping[term] = f"v{len(mapping)}"
                return ("var", mapping[term])
            return ("const", term)

        atom_part = tuple(
            (atoms[i].relation, tuple(rn(t) for t in atoms[i].args)) for i in perm
        )
        sim_part = tuple(
            sorted((lit.domain or "", tuple(sorted((rn(lit.left), rn(lit.right))))) for lit in sims)
        )
        key = (atom_part, sim_part)
        if best is None or key < best:
            best = key
    return best


def _readable_query(name: str, atoms, sims) -> ConjunctiveQuery:
    """Rename to T1.., X1.. in first-occurrence order; Boolean, distinct tids."""
    mapping: dict[Var, Var] = {}
    tids = attrs = 0
    for atom in atoms:
        for pos, term in enumerate(atom.args):
            if is_var(term) and term not in mapping:
                if pos == 0:
                    tids += 1
                    mapping[term] = Var(f"T{tids}")
                else:
                    attrs += 1
                    mapping[term] = Var(f"X{attrs}")
    new_atoms = tuple(_apply_atom(a, mapping) for a in atoms)
    new_sims = tuple(_apply_sim(s, mapping) for s in sims)
    return ConjunctiveQuery(name, (), new_atoms, new_sims, distinct_tids=True)


# ---------------------------------------------------------------------------
# overall classification


@dataclass(frozen=True)
class QueryCheck:
    query: ConjunctiveQuery
    witness: dict[str, str] | None

    @property
    def satisfied(self) -> bool:
        return self.witness is not None

    def to_json_dict(self) -> dict:
        out = {"name": self.query.name, "satisfied": self.satisfied}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    pairs: tuple[InteractionPair, ...]
    queries: tuple[QueryCheck, ...]
    preservation_counterexample: tuple[str, str, str, str, str] | None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "interaction_pairs": [p.to_json_dict() for p in self.pairs],
            "queries": [q.to_json_dict() for q in self.queries],
        }
        if self.preservation_counterexample is not None:
            dom, a, a2, a3, merged = self.preservation_counterexample
            out["preservation_counterexample"] = {
                "domain": dom,
                "value": a,
                "similar_to": a2,
                "merged_with": a3,
                "merge_result": merged,
            }
        return out


def is_sfai(
    rules: list[BoundMD], schema: Schema, instance: Instance, sim: SimilarityRelation
) -> tuple[bool, list[QueryCheck]]:
    """True when every interaction query is unsatisfied on the instance."""
    checks = []
    for query in sfai_queries(rules, schema):
        checks.append(QueryCheck(query, find_witness(instance, query, sim)))
    return all(not c.satisfied for c in checks), checks


def classify(
    mds: MDSet,
    schema: Schema,
    instance: Instance,
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
) -> Classification:
    rules = validate_mds(mds, schema)
    pairs = tuple(interaction_pairs(rules))
    preserving, counterexample = is_similarity_preserving(rules, sim, smf)
    sfai, checks = is_sfai(rules, schema, instance, sim)
    if not pairs:
        verdict = Verdict.NON_INTERACTING
    elif preserving:
        verdict = Verdict.SIMILARITY_PRESERVING
    elif sfai:
        verdict = Verdict.SFAI
    else:
        verdict = Verdict.GENERAL
    return Classification(verdict, pairs, tuple(checks), counterexample)
