"""Classification of rule sets whose chase has a single clean instance.

Three sufficient conditions are checked in order: no rule writes an attribute
another rule reads (non-interacting); merging never breaks similarity on any
written domain (similarity-preserving); and, per interacting pair, a Boolean
query asking whether a merge could feed a rule body is unsatisfied on the
instance at hand (similarity-free attribute intersection).  Anything else is
reported as the general case, where enforcement order can matter.  The
checks read the rules as bound to the schema by `mdlang.validate_mds`.

A pair gets one query per isomorphism class of its embeddings.  Embeddings
that renamings of the two rules onto themselves (`BoundMD.orbits`) map onto
each other share a class without a search.  When a pair has several
embeddings left, each gets a canonical key, which a branch-and-bound search
computes without enumerating atom permutations; embeddings with equal keys
share a class, and the classes are ordered by key.  `is_sfai` evaluates all
the queries as one program.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .datalog import Var
from .mdlang import BoundMD
from .model import (
    Instance,
    SaturatedMatchingFunction,
    Schema,
    SimilarityRelation,
)
from .query import ConjunctiveQuery, QueryAtom, SimLiteral, find_witnesses


class Verdict(enum.Enum):
    NON_INTERACTING = "non-interacting"
    SIMILARITY_PRESERVING = "similarity-preserving"
    SFAI = "sfai"
    GENERAL = "general"


class InteractionPair(NamedTuple):
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
    Returns (True, None) or (False, (domain, a, a2, a3, merged)), the least
    counterexample in sorted value order: a token-union domain's values are
    read in that order only as far as the search gets, and one whose
    similarity is `token-overlap` alone, over values that all hold a token,
    preserves it without a search, since a ~ a' then shares a token with a'
    and a union keeps every token of a'.
    """
    for dom in sorted({rule.rhs_domain for rule in rules}):
        merge = smf.domain(dom)[0]
        values = smf.values(dom)
        # a frozenset, or a token-union domain's `unions.TokenUnions`, which
        # `classify` does not import, so that only such a domain loads it
        if isinstance(values, frozenset):
            values = sorted(values)
        elif sim.builtins.get(dom) == "token-overlap" and not (
            sim.declared_pairs(dom) or values.token_free
        ):
            continue
        else:
            values = _ReadAsNeeded(values)
        for a in values:
            for a2 in values:
                if not sim.similar(dom, a, a2):
                    continue
                for a3 in values:
                    merged = merge(a2, a3)
                    if merged is not None and not sim.similar(dom, a, merged):
                        return False, (dom, a, a2, a3, merged)
    return True, None


class _ReadAsNeeded:
    """An iterable's items, which every pass reads in order; each is taken
    from it only when the first pass reaches it."""

    def __init__(self, items):
        self._items, self._read = iter(items), []

    def __iter__(self):
        index = 0
        while index < len(self._read) or self._more():
            yield self._read[index]
            index += 1

    def _more(self) -> bool:
        for item in self._items:
            self._read.append(item)
            return True
        return False


# ---------------------------------------------------------------------------
# interaction queries


def sfai_queries(rules: list[BoundMD], schema: Schema) -> list[ConjunctiveQuery]:
    """Boolean queries, one per isomorphism class of each interaction pair's
    embeddings.

    Each embedding puts a written atom of the first rule in place of an
    occurrence of the shared attribute in the second rule's body, and its
    query asks whether the combined body can match with pairwise-distinct
    identifiers.  Embeddings equal up to renaming and the order of atoms and
    literals form one class, which the first of them stands for; distinct
    pairs keep their own queries even when isomorphic across pairs.  An
    embedding whose orbit pair an earlier one has joins that one's class
    unbuilt (see `_embeddings`); the rest are grouped by their canonical keys
    (see `_Body`), computed only when two or more are left.  A pair with one
    class names its query `<writer>__<reader>__<relation>_<attr>`; with
    several, the names take the suffixes `_1`, `_2`, ... in the order of the
    classes' keys.
    """
    by_name = {rule.md.name: rule for rule in rules}
    queries: list[ConjunctiveQuery] = []
    for pair in interaction_pairs(rules):
        bodies: list[tuple] = []
        orbits: set[tuple[int, int]] = set()
        for orbit, embed in _embeddings(by_name[pair.writer], by_name[pair.reader], pair, schema):
            if orbit not in orbits:  # else the rules' symmetry maps it onto one kept
                orbits.add(orbit)
                bodies.append(embed())
        if len(bodies) > 1:
            classes: dict[tuple, tuple] = {}
            for body in bodies:
                classes.setdefault(_Body(*body).key(), body)
            bodies = [classes[key] for key in sorted(classes)]
        base = f"{pair.writer}__{pair.reader}__{pair.relation}_{pair.attribute}"
        for index, (atoms, sims) in enumerate(bodies):
            name = base if len(bodies) == 1 else f"{base}_{index + 1}"
            queries.append(_readable_query(name, atoms, sims))
    return queries


def _embeddings(writer, reader, pair, schema):
    """Each written atom of `writer` unified with each occurrence of the
    shared attribute in `reader`'s body, as its orbit pair and a function
    that builds it as `(atoms, sims)` in `_Body`'s form.  It is built from the two rules' `numbered_body`s, the
    writer's variables numbered from 0 and then the reader's.  Variables that
    meet positionwise become one, so a reader variable that meets two writer
    variables makes those one too.

    The orbit pair names the first written atom and the first occurrence
    that each rule's `orbits` join each to.  Those renamings map their rule
    onto itself, so two embeddings with one orbit pair are isomorphic, and
    only the first of them need be built."""
    attr_pos = schema.relation(pair.relation).position(pair.attribute)
    offset = len(writer.md.variables())
    writer_atoms, writer_sims = writer.numbered_body(0)
    reader_atoms, reader_sims = reader.numbered_body(offset)
    lead_indices = [idx for idx, a in enumerate(writer.md.atoms) if a.leading]
    written = [
        index
        for index, atom, pos in zip(lead_indices, writer.lead, writer.rhs)
        if atom.relation == pair.relation and pos == attr_pos
    ]
    occurrences = [
        idx
        for idx, atom in enumerate(reader.md.atoms)
        if atom.relation == pair.relation and atom.attr_vars[attr_pos] in reader.compared
    ]
    written_orbit = writer.orbits(written)
    occurrence_orbit = reader.orbits(occurrences)

    def embed(w_index, occ_index):
        parent: dict[int, int] = {}

        def find(var: int) -> int:
            while var in parent:
                var = parent[var]
            return var

        for left, right in zip(reader_atoms[occ_index][1], writer_atoms[w_index][1]):
            left, right = find(left), find(right)
            if left != right:
                parent[left] = right
        kept = writer_atoms + reader_atoms[:occ_index] + reader_atoms[occ_index + 1:]
        atoms = tuple((rel, tuple(find(t) for t in terms)) for rel, terms in kept)
        sims = tuple((dom, find(l), find(r)) for dom, l, r in writer_sims + reader_sims)
        return atoms, sims

    for w_index in written:
        for occ_index in occurrences:
            orbit = written_orbit[w_index], occurrence_orbit[occ_index]
            yield orbit, functools.partial(embed, w_index, occ_index)


class _Body:
    """An embedding's atoms and similarity literals, searched for its
    canonical key.

    The canonical key of a body is its least serialisation over all orderings
    of its atoms: the atoms in order, each as its relation and arguments,
    variables renamed `v0`, `v1`, ... in order of first occurrence, then the
    sorted similarity literals under that renaming.  Names compare as
    strings, so `v10` sorts before `v2`.  Since every variable of a literal
    is held by an atom, two bodies are isomorphic exactly when their keys
    are equal.

    One depth-first search computes it, by branch and bound: it grows an
    ordering one atom at a time, follows only the atoms whose serialisation
    under the renaming so far is the least, and leaves an ordering once its
    atoms serialise above the least found.  Of tied atoms it tries one of
    each pair of twins: two atoms of one relation that a swap of their own
    variables exchanges while it maps the similarity literals onto themselves
    lead to equal serialisations (McKay & Piperno, "Practical graph
    isomorphism, II", 2014, prune automorphic branches the same way).  A twin
    swap fixes every other atom, so it keeps the ordering so far, which a
    renaming that also moves other atoms, as `BoundMD.orbits` allows, need
    not.

    A body is given in `_embeddings`' form: atoms `(relation, terms)` and
    literals `(domain, left, right)`, every term a variable numbered by a
    non-negative integer.
    """

    def __init__(self, atoms, sims):
        self.atoms, self.sims = atoms, sims
        self._count = 1 + max(t for _, terms in atoms for t in terms)  # renaming size
        self._names = [("var", f"v{k}") for k in range(self._count)]
        self._holders: dict[int, set[int]] | None = None
        self._twins: dict[tuple[int, int], bool] = {}

    def _entry(self, index, rename, count):
        """Atom `index` serialised under `rename`, and the names its new
        variables take, numbered on from `count`."""
        relation, args = self.atoms[index]
        fresh: dict[int, int] = {}
        out = []
        for term in args:
            k = rename[term]
            if k < 0:
                k = fresh.setdefault(term, count + len(fresh))
            out.append(self._names[k])
        return (relation, tuple(out)), fresh

    def _sim_part(self, rename):
        """The sorted literals under `rename`, which names every variable."""
        names = self._names
        return tuple(sorted(
            (dom, tuple(sorted((names[rename[l]], names[rename[r]])))) for dom, l, r in self.sims
        ))

    def _leaves(self, pick):
        """Depth-first, the renamings of the orderings whose atom at each
        depth serialises as `pick(depth, entries)` (None prunes), where
        `entries` are the remaining atoms' serialisations."""

        def walk(depth, remaining, rename, count):
            if not remaining:
                yield rename
                return
            entries = [(self._entry(i, rename, count), i) for i in remaining]
            want = pick(depth, entries)
            tried: list[int] = []
            for (entry, fresh), i in entries:
                if entry != want or tried and any(self._twin(k, i) for k in tried):
                    continue
                tried.append(i)
                new = rename
                if fresh:
                    new = list(rename)
                    for var, k in fresh.items():
                        new[var] = k
                rest = tuple(j for j in remaining if j != i)
                yield from walk(depth + 1, rest, new, count + len(fresh))

        return walk(0, tuple(range(len(self.atoms))), [-1] * self._count, 0)

    def _twin(self, a, b) -> bool:
        """Whether swapping the variables that only atoms `a` and `b` hold
        exchanges the two and maps the similarity literals onto themselves."""
        if (a, b) not in self._twins:
            self._twins[a, b] = self._twins[b, a] = self._swapped_by_own_variables(a, b)
        return self._twins[a, b]

    def _swapped_by_own_variables(self, a, b) -> bool:
        (rel_a, args_a), (rel_b, args_b) = self.atoms[a], self.atoms[b]
        if rel_a != rel_b:
            return False
        swap: dict[int, int] = {}
        for x, y in zip(args_a, args_b):
            if swap.setdefault(x, y) != y or swap.setdefault(y, x) != x:
                return False
        if self._holders is None:
            self._holders = {}
            for index, (_, args) in enumerate(self.atoms):
                for term in args:
                    self._holders.setdefault(term, set()).add(index)
        pair = {a, b}
        moved = {x for x, y in swap.items() if x != y}
        if any(not self._holders[x] <= pair for x in moved):
            return False
        touched = [sim for sim in self.sims if sim[1] in moved or sim[2] in moved]
        swapped = [(dom, swap.get(l, l), swap.get(r, r)) for dom, l, r in touched]
        return sorted((d, min(l, r), max(l, r)) for d, l, r in touched) == sorted(
            (d, min(l, r), max(l, r)) for d, l, r in swapped
        )

    def key(self) -> tuple:
        """The canonical key: the least serialisation over atom orderings."""
        part: list = []  # the least atom serialisations found so far
        best: list = [None]  # the least literal part under `part`

        def pick(depth, entries):
            least = min(entry for (entry, _), _ in entries)
            if depth < len(part):
                if least > part[depth]:
                    return None
                if least == part[depth]:
                    return least
            del part[depth:]
            part.append(least)
            best[0] = None
            return least

        for rename in self._leaves(pick):
            sim_part = self._sim_part(rename)
            if best[0] is None or sim_part < best[0]:
                best[0] = sim_part
        return tuple(part), best[0]


def _readable_query(name: str, atoms, sims) -> ConjunctiveQuery:
    """Name the variables T1.., X1.. in first-occurrence order; Boolean, distinct tids."""
    names: dict[int, Var] = {}
    tids = attrs = 0
    for _, terms in atoms:
        for pos, term in enumerate(terms):
            if term not in names:
                if pos == 0:
                    tids += 1
                    names[term] = Var(f"T{tids}")
                else:
                    attrs += 1
                    names[term] = Var(f"X{attrs}")
    query_atoms = tuple(QueryAtom(rel, tuple(names[t] for t in terms)) for rel, terms in atoms)
    query_sims = tuple(SimLiteral(names[left], names[right], dom) for dom, left, right in sims)
    return ConjunctiveQuery(name, (), query_atoms, query_sims, distinct_tids=True)


# ---------------------------------------------------------------------------
# overall classification


class QueryCheck(NamedTuple):
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


class Classification(NamedTuple):
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
    instance: Instance, rules: list[BoundMD], sim: SimilarityRelation
) -> tuple[bool, list[QueryCheck]]:
    """True when every interaction query is unsatisfied on the instance."""
    queries = sfai_queries(rules, instance.schema)
    witnesses = find_witnesses(instance, queries, sim)
    checks = [QueryCheck(query, witness) for query, witness in zip(queries, witnesses)]
    return all(not c.satisfied for c in checks), checks


def classify(
    instance: Instance,
    rules: list[BoundMD],
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction,
) -> Classification:
    pairs = tuple(interaction_pairs(rules))
    preserving, counterexample = is_similarity_preserving(rules, sim, smf)
    sfai, checks = is_sfai(instance, rules, sim)
    if not pairs:
        verdict = Verdict.NON_INTERACTING
    elif preserving:
        verdict = Verdict.SIMILARITY_PRESERVING
    elif sfai:
        verdict = Verdict.SFAI
    else:
        verdict = Verdict.GENERAL
    return Classification(verdict, pairs, tuple(checks), counterexample)
