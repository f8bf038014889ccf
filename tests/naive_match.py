"""Backtracking matchers the engine's rule evaluation is checked against.

`bindings` enumerates the satisfying assignments of a conjunctive query by
matching its atoms in order, each over sorted identifiers; its first
assignment is the witness `query.find_witness` must return.  It checks a
similarity once the atoms binding it are matched, so it needs a query with
at least one atom.  `applicable_steps` tries every ordered pair of leading
tuples and searches the context atoms the same way; it must list exactly the
steps, witnesses and merges of `ChaseEngine.applicable_steps`.

`canonical_key` serialises an interaction query's body under every ordering
of its atoms and keeps the least; `classify._Body.key` must return the same
tuple for the body's `numbered` form.  `sfai_queries_by_key` groups each
pair's embeddings by the key of their query form, and
`classify.sfai_queries`, which groups them by the rules' orbits and an
isomorphism test, must return the same queries.

`exchanges` decides whether a renaming of a rule onto itself exchanges two
of its atoms, as `BoundMD.orbits` asks of each pair, by trying every
bijection of the rule's other atoms onto themselves, with no pruning;
`swap_symmetric` asks it of the leading atoms, as `BoundMD.swap_symmetric`.

Run `PYTHONPATH=src:tests python -m naive_match --draws 745 --bodies 1000`
to compare the classifier's keys, isomorphism verdicts and queries with
these on the acceptance population and on random bodies, and
`BoundMD.swap_symmetric` and `BoundMD.orbits` with `swap_symmetric` and
`exchanges` on random rules; it prints the first disagreement.  The
random-body phase dominates: `canonical_key` tries every ordering of up to
seven atoms for each body and two copies of it, about 75 ms per body on a
2-vCPU machine, so 1,000 bodies take over a minute and 10,000 about 13
minutes.
"""

from __future__ import annotations

import argparse
import itertools
import random
from typing import Iterator

from mdclean.chase import EnforcementStep
from mdclean.classify import _Body, _embeddings, _readable_query, interaction_pairs, sfai_queries
from mdclean.datalog import Var
from mdclean.mdlang import parse_mds, validate_mds
from mdclean.model import MatchingFunction, Schema
from mdclean.query import QueryAtom, SimLiteral, resolve_sim_domain

from population import random_setting


def bindings(instance, query, sim) -> Iterator[dict]:
    """All satisfying assignments, atoms matched in order, sorted tids first."""
    domains = [resolve_sim_domain(query, instance.schema, lit) for lit in query.sims]
    sims_by_stage: dict[int, list] = {}
    for lit, dom in zip(query.sims, domains):
        stage = 0
        for v in (lit.left, lit.right):
            if isinstance(v, Var):
                for a_idx, atom in enumerate(query.atoms):
                    if v in atom.args:
                        stage = max(stage, a_idx)
                        break
        sims_by_stage.setdefault(stage, []).append((lit, dom))

    # distinctness ranges over distinct identifier terms: a variable shared by
    # two atoms is one term and never conflicts with itself
    tid_terms = list(dict.fromkeys(atom.args[0] for atom in query.atoms))

    def value(term, binding):
        if isinstance(term, Var):
            return binding.get(term)
        return term

    def extend(stage, binding):
        if stage == len(query.atoms):
            yield binding
            return
        atom = query.atoms[stage]
        rows = instance.tuples.get(atom.relation, {})
        for tid in sorted(rows):
            vals = (tid,) + rows[tid]
            new = dict(binding)
            ok = True
            for arg, val in zip(atom.args, vals):
                if isinstance(arg, Var):
                    if new.setdefault(arg, val) != val:
                        ok = False
                        break
                elif arg != val:
                    ok = False
                    break
            if not ok:
                continue
            if query.distinct_tids:
                bound_tids = [value(t, new) for t in tid_terms]
                seen = [t for t in bound_tids if t is not None]
                if len(seen) != len(set(seen)):
                    continue
            for lit, dom in sims_by_stage.get(stage, ()):
                left, right = value(lit.left, new), value(lit.right, new)
                if left is None or right is None or not sim.similar(dom, left, right):
                    ok = False
                    break
            if not ok:
                continue
            yield from extend(stage + 1, new)

    yield from extend(0, {})


def eval_cq(instance, query, sim) -> set[tuple[str, ...]]:
    return {tuple(b[v] for v in query.head) for b in bindings(instance, query, sim)}


def find_witness(instance, query, sim) -> dict[str, str] | None:
    for b in bindings(instance, query, sim):
        return {v.name: val for v, val in sorted(b.items(), key=lambda kv: kv[0].name)}
    return None


def applicable_steps(schema, mds, sim, smf, instance) -> list[EnforcementStep]:
    """Every applicable step by trying each ordered pair of leading tuples."""
    steps: dict[tuple, EnforcementStep] = {}
    for md_index, md in enumerate(mds):
        lead0, lead1 = md.leading_atoms()
        rows0 = instance.tuples.get(lead0.relation, {})
        rows1 = instance.tuples.get(lead1.relation, {})
        for tid0 in sorted(rows0):
            for tid1 in sorted(rows1):
                if lead0.relation == lead1.relation and tid0 == tid1:
                    continue
                step = _try_pair(schema, md, sim, smf, instance, tid0, tid1)
                if step is not None:
                    steps.setdefault((md_index, step.lead_tids), step)
    return [steps[key] for key in sorted(steps)]


def _try_pair(schema, md, sim, smf, instance, tid0, tid1):
    lead0, lead1 = md.leading_atoms()
    binding: dict[str, str] = {}
    for atom, tid in ((lead0, tid0), (lead1, tid1)):
        binding[atom.tid_var] = tid
        for var, val in zip(atom.attr_vars, instance.tuples[atom.relation][tid]):
            if binding.setdefault(var, val) != val:
                return None
    context = _match_context(schema, md, sim, instance, binding)
    if context is None:
        return None
    rhs = (md.rhs_left, md.rhs_right)
    p0, p1 = (next(i for i, v in enumerate(a.attr_vars) if v in rhs) for a in (lead0, lead1))
    v0 = instance.tuples[lead0.relation][tid0][p0]
    v1 = instance.tuples[lead1.relation][tid1][p1]
    if v0 == v1:
        return None
    if lead0.relation == lead1.relation and p0 == p1 and tid1 < tid0:
        tid0, tid1 = tid1, tid0
        v0, v1 = v1, v0
    merged = smf.try_match(schema.relation(lead0.relation).domains[p0], v0, v1)
    return EnforcementStep(md.name, (tid0, tid1), context, (v0, v1), merged)


def _domain(schema, md, var):
    """The domain of the first attribute position holding `var`."""
    atom = next(a for a in md.atoms if var in a.attr_vars)
    return schema.relation(atom.relation).domains[atom.attr_vars.index(var)]


def _match_context(schema, md, sim, instance, binding):
    """First assignment of context atoms consistent with the binding."""
    sims = [(sc.left, sc.right, _domain(schema, md, sc.left)) for sc in md.similarities]
    context = md.context_atoms()

    def check_sims(current):
        for left, right, dom in sims:
            lv, rv = current.get(left), current.get(right)
            if lv is not None and rv is not None and not sim.similar(dom, lv, rv):
                return False
        return True

    def extend(idx, current, chosen):
        if not check_sims(current):
            return None
        if idx == len(context):
            return chosen
        atom = context[idx]
        rows = instance.tuples.get(atom.relation, {})
        for tid in sorted(rows):
            trial = dict(current)
            if trial.setdefault(atom.tid_var, tid) != tid:
                continue
            ok = True
            for var, val in zip(atom.attr_vars, rows[tid]):
                if trial.setdefault(var, val) != val:
                    ok = False
                    break
            if not ok:
                continue
            found = extend(idx + 1, trial, chosen + (tid,))
            if found is not None:
                return found
        return None

    return extend(0, binding, ())


def swap_symmetric(rule) -> bool:
    """Whether the rule writes symmetrically and a renaming of it onto
    itself exchanges its leading atoms (`exchanges`)."""
    first, second = (k for k, atom in enumerate(rule.md.atoms) if atom.leading)
    return rule.symmetric_write() and exchanges(rule, first, second)


def exchanges(rule, a: int, b: int) -> bool:
    """Whether, for some bijection of the rule's atoms other than its `a`-th
    and `b`-th onto themselves, the variable map that sends each atom
    position by position onto its image, and those two onto each other, is
    consistent and maps the set of its similarities, each a domain and a set
    of variables, onto itself."""
    atoms = rule.md.atoms
    others = [atom for k, atom in enumerate(atoms) if k not in (a, b)]
    sims = {(dom, frozenset((sc.left, sc.right))) for sc, dom in zip(rule.md.similarities, rule.sim_domains)}
    for perm in itertools.permutations(others):
        mapping: dict[str, str] = {}
        pairs = zip((atoms[a], atoms[b], *others), (atoms[b], atoms[a], *perm))
        if all(
            src.relation == dst.relation
            and all(
                mapping.setdefault(x, y) == y
                for x, y in zip((src.tid_var, *src.attr_vars), (dst.tid_var, *dst.attr_vars))
            )
            for src, dst in pairs
        ) and {(dom, frozenset(mapping[v] for v in pair)) for dom, pair in sims} == sims:
            return True
    return False


# random rules: two `R` leading atoms writing `C`, their context over `P` and
# `S`, and similarities over `d`, most of them with the mirror that swapping
# the leading atoms asks for
RULE_SCHEMA = Schema.parse("R(A: d, B: d, C: e)\nP(A: d, B: d)\nS(A: d, C: e)")
RULE_MF = MatchingFunction(builtins={"e": "value-min"})


def random_rule(rng: random.Random, max_context: int = 4):
    """One random rule bound to `RULE_SCHEMA`.  Its `d` variables are each
    leading atom's own (`x` for the first, `z` for the second), shared by
    both (`s`) or a context atom's own (`c`, and `S`'s `e` variables are
    all its own); a mirror renames `x` and `z` into each other and a context
    atom's own variables apart, and some mirrors get an argument changed."""
    fresh = itertools.count(1)

    def swapped(v: str) -> str:
        return {"x": "z", "z": "x"}.get(v[0], v[0]) + v[1:]

    def pick(side: str) -> str:
        return rng.choice([f"{side}{rng.randint(1, 3)}", f"s{rng.randint(1, 2)}"])

    def own(rel: str) -> str:
        return f"{'c' if rel == 'P' else 'e'}{next(fresh)}"

    lead0 = [pick("x"), pick("x")]
    lead1 = [swapped(v) for v in lead0]
    if rng.random() < 0.3:
        lead1[rng.randrange(2)] = pick("z")
    context = []
    for _ in range(rng.randint(0, max_context)):
        rel = rng.choice(["P", "S"])
        args = [pick("x"), pick("x") if rel == "P" and rng.random() < 0.5 else own(rel)]
        context.append((rel, args))
        if rng.random() < 0.7:
            mirror = [own(rel) if v[0] in "ce" else swapped(v) for v in args]
            if rng.random() < 0.2:
                mirror[0] = pick("z")
            context.append((rel, mirror))
    context = context[:max_context]
    atoms = [f"lead R(t1; {lead0[0]}, {lead0[1]}, y1)", f"lead R(t2; {lead1[0]}, {lead1[1]}, y2)"]
    atoms += [f"{rel}(t{i + 3}; {a}, {b})" for i, (rel, (a, b)) in enumerate(context)]
    d_vars = sorted({*lead0, *lead1, *(v for _, args in context for v in args if v[0] != "e")})
    sims = []
    for _ in range(rng.randint(0, 3)):
        left, right = rng.choice(d_vars), rng.choice(d_vars)
        sims.append((left, right))
        mirror = (swapped(left), swapped(right))
        if rng.random() < 0.7 and set(mirror) <= set(d_vars):
            sims.append(mirror[::rng.choice((1, -1))])
    rng.shuffle(atoms)
    body = ", ".join(atoms + [f"{a} ~d~ {b}" for a, b in sims])
    (rule,) = validate_mds(parse_mds(f"md m: {body} -> y1 := y2;"), RULE_SCHEMA, RULE_MF)
    return rule


def canonical_key(atoms, sims):
    """Isomorphism-invariant key: best serialization over atom orderings."""
    best = None
    for perm in itertools.permutations(range(len(atoms))):
        mapping: dict[Var, str] = {}

        def rn(term):
            if isinstance(term, Var):
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


def numbered(atoms, sims):
    """A body of `QueryAtom`s and `SimLiteral`s over variables in
    `classify._Body`'s form: atoms `(relation, terms)` and literals
    `(domain, left, right)`, each variable numbered in order of first
    occurrence in the atoms."""
    ids: dict[Var, int] = {}
    return (
        tuple((a.relation, tuple(ids.setdefault(t, len(ids)) for t in a.args)) for a in atoms),
        tuple((lit.domain, ids[lit.left], ids[lit.right]) for lit in sims),
    )


def sfai_queries_by_key(rules, schema, key=canonical_key):
    """The interaction queries with each pair's embeddings grouped by `key`
    (atoms, sims) of their query form, which does not depend on variable
    names; the first of each group kept, groups in key order."""
    by_name = {rule.md.name: rule for rule in rules}
    queries = []
    for pair in interaction_pairs(rules):
        group: dict[tuple, tuple] = {}
        for _, embed in _embeddings(by_name[pair.writer], by_name[pair.reader], pair, schema):
            merged = embed()
            query = _readable_query("", *merged)
            group.setdefault(key(query.atoms, query.sims), merged)
        base = f"{pair.writer}__{pair.reader}__{pair.relation}_{pair.attribute}"
        for index, least in enumerate(sorted(group)):
            name = base if len(group) == 1 else f"{base}_{index + 1}"
            queries.append(_readable_query(name, *group[least]))
    return queries


# random bodies: relations with their arities and similarity domains
_RELATIONS = {"R": 3, "S": 2, "P": 4}
_DOMAINS = ["d", "e"]


def random_body(rng: random.Random, max_atoms: int = 7):
    """Atoms and similarity literals with repeated variables, up to 16
    variables and copies of atoms whose private variables are renamed
    apart, together with the literals that read them.  As in an interaction
    query, every term is a variable, every variable of a literal is held by
    some atom, and every literal has a domain."""
    pool = [Var(f"x{i}") for i in range(rng.randint(2, 16))]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = rng.choice(sorted(_RELATIONS))
        atoms.append(QueryAtom(rel, tuple(rng.choice(pool) for _ in range(_RELATIONS[rel]))))
    held = sorted({t for a in atoms for t in a.args}, key=lambda v: v.name)
    sims = [
        SimLiteral(rng.choice(held), rng.choice(held), rng.choice(_DOMAINS))
        for _ in range(rng.randint(0, 4))
    ]
    fresh = len(pool)
    while len(atoms) < max_atoms and rng.random() < 0.6:
        original = rng.choice(atoms)
        private = set(original.args) - {
            t for a in atoms if a is not original for t in a.args
        }
        renamed = {}
        for var in sorted(private, key=lambda v: v.name):
            renamed[var] = Var(f"x{fresh}")
            fresh += 1
        atoms.append(QueryAtom(original.relation, tuple(renamed.get(t, t) for t in original.args)))
        sims += [
            SimLiteral(renamed.get(lit.left, lit.left), renamed.get(lit.right, lit.right), lit.domain)
            for lit in sims
            if lit.left in renamed or lit.right in renamed
        ]
    return tuple(atoms), tuple(sims)


def relabelled(rng: random.Random, atoms, sims):
    """An isomorphic copy: variables renamed, atoms and literals shuffled,
    literal sides swapped at random."""
    names = sorted({t.name for a in atoms for t in a.args})
    targets = [f"y{i}" for i in range(len(names))]
    rng.shuffle(targets)
    sub = {Var(n): Var(t) for n, t in zip(names, targets)}
    atoms = [QueryAtom(a.relation, tuple(sub.get(t, t) for t in a.args)) for a in atoms]
    sims = [
        SimLiteral(*((sub.get(lit.left, lit.left), sub.get(lit.right, lit.right))[::rng.choice((1, -1))]),
                   lit.domain)
        for lit in sims
    ]
    rng.shuffle(atoms)
    rng.shuffle(sims)
    return tuple(atoms), tuple(sims)


def perturbed(rng: random.Random, atoms, sims):
    """A relabelled copy with one argument or one literal domain changed,
    which may or may not stay isomorphic.  A literal whose variable no atom
    holds any more is dropped."""
    atoms, sims = relabelled(rng, atoms, sims)
    if sims and rng.random() < 0.3:
        index = rng.randrange(len(sims))
        lit = sims[index]
        lit = SimLiteral(lit.left, lit.right, rng.choice(_DOMAINS))
        return atoms, sims[:index] + (lit,) + sims[index + 1:]
    index = rng.randrange(len(atoms))
    atom = atoms[index]
    terms = sorted({t for a in atoms for t in a.args}, key=lambda v: v.name)
    pos = rng.randrange(len(atom.args))
    args = list(atom.args)
    args[pos] = rng.choice(terms)
    atoms = atoms[:index] + (QueryAtom(atom.relation, tuple(args)),) + atoms[index + 1:]
    held = {t for a in atoms for t in a.args}
    return atoms, tuple(lit for lit in sims if {lit.left, lit.right} <= held)


def check_body(rng: random.Random, body) -> tuple[str | None, list[bool]]:
    """Compare the classifier's keys of `body` and of a relabelled and a
    perturbed copy with `canonical_key`, and its verdict on whether each
    copy is isomorphic to `body` with the equality of their keys.  Returns
    the first disagreement, as text with the bodies (None when there is
    none), and whether each copy is isomorphic."""
    key = canonical_key(*body)
    if _Body(*numbered(*body)).key() != key:
        return f"key differs from canonical_key on\n  {_show(*body)}", []
    isomorphic = []
    for copy in (relabelled, perturbed):
        other = copy(rng, *body)
        other_key = canonical_key(*other)
        if _Body(*numbered(*other)).key() != other_key:
            return f"key differs from canonical_key on\n  {_show(*other)}", isomorphic
        verdict = _Body(*numbered(*other)).isomorphic_to(_Body(*numbered(*body)))
        if verdict != (other_key == key):
            return (
                f"isomorphism test says {verdict} where the keys are "
                f"{'un' * (other_key != key)}equal on\n  {_show(*body)}\nand its "
                f"{copy.__name__} copy\n  {_show(*other)}"
            ), isomorphic
        isomorphic.append(verdict)
    return None, isomorphic


def _show(atoms, sims) -> str:
    text = [f"{a.relation}({', '.join(t.name for t in a.args)})" for a in atoms]
    text += [f"{lit.left.name} ~{lit.domain}~ {lit.right.name}" for lit in sims]
    return ", ".join(text)


def _scan(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare interaction-query keys with canonical_key.")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--draws", type=int, default=745)
    parser.add_argument("--bodies", type=int, default=10000)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    embeddings: list = []
    wrong: list = []

    def checked_key(atoms, sims):
        key = canonical_key(atoms, sims)
        embeddings.append(atoms)
        if _Body(*numbered(atoms, sims)).key() != key:
            wrong.append(_show(atoms, sims))
        return key

    for draw in range(args.draws):
        s = random_setting(rng)
        rules = s.rules
        expected = sfai_queries_by_key(rules, s.schema, checked_key)
        if wrong:
            print(f"draw {draw}: key differs from canonical_key on\n  {wrong[0]}")
            return 1
        if sfai_queries(rules, s.schema) != expected:
            print(f"draw {draw}: interaction queries differ\n{s.describe()}")
            return 1
    print(f"{args.draws} draws, {len(embeddings)} embeddings: keys and queries agree", flush=True)
    rng = random.Random(args.seed)
    isomorphic = {True: 0, False: 0}
    for count in range(args.bodies):
        problem, verdicts = check_body(rng, random_body(rng))
        if problem:
            print(f"body {count}: {problem}")
            return 1
        for verdict in verdicts:
            isomorphic[verdict] += 1
    print(
        f"{args.bodies} random bodies: keys and isomorphism verdicts agree "
        f"({isomorphic[True]} isomorphic copies, {isomorphic[False]} not)"
    )
    rng = random.Random(args.seed)
    symmetric = {True: 0, False: 0}
    for count in range(args.bodies):
        rule = random_rule(rng)
        expected = swap_symmetric(rule)
        if rule.swap_symmetric() != expected:
            print(f"rule {count}: swap symmetry is {rule.swap_symmetric()}, by brute force {expected}, on\n  {rule.md}")
            return 1
        symmetric[expected] += 1
        for a, b in itertools.combinations(range(len(rule.md.atoms)), 2):
            if rule.orbits((a, b))[b] != (a if exchanges(rule, a, b) else b):
                print(f"rule {count}: orbits of atoms {a} and {b} differ from brute force on\n  {rule.md}")
                return 1
    print(
        f"{args.bodies} random rules: swap symmetry and orbits agree with brute force "
        f"({symmetric[True]} symmetric, {symmetric[False]} not)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(_scan())
