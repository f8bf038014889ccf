"""Backtracking matchers the engine's rule evaluation is checked against.

`bindings` enumerates the satisfying assignments of a conjunctive query by
matching its atoms in order, each over sorted identifiers; its first
assignment is the witness `query.find_witness` must return.  It checks a
similarity once the atoms binding it are matched, so it needs a query with
at least one atom.  `applicable_steps` tries every ordered pair of leading
tuples and searches the context atoms the same way; it must list exactly the
steps, witnesses and merges of `ChaseEngine.applicable_steps`.
"""

from __future__ import annotations

from typing import Iterator

from mdclean.chase import EnforcementStep
from mdclean.query import resolve_sim_domain
from mdclean.terms import is_var


def bindings(instance, query, sim) -> Iterator[dict]:
    """All satisfying assignments, atoms matched in order, sorted tids first."""
    domains = [resolve_sim_domain(query, instance.schema, lit) for lit in query.sims]
    sims_by_stage: dict[int, list] = {}
    for lit, dom in zip(query.sims, domains):
        stage = 0
        for v in (lit.left, lit.right):
            if is_var(v):
                for a_idx, atom in enumerate(query.atoms):
                    if v in atom.args:
                        stage = max(stage, a_idx)
                        break
        sims_by_stage.setdefault(stage, []).append((lit, dom))

    # distinctness ranges over distinct identifier terms: a variable shared by
    # two atoms is one term and never conflicts with itself
    tid_terms = list(dict.fromkeys(atom.args[0] for atom in query.atoms))

    def value(term, binding):
        if is_var(term):
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
                if is_var(arg):
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
                if md.same_relation() and tid0 == tid1:
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
    if md.same_relation() and p0 == p1 and tid1 < tid0:
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

