"""Reference Datalog evaluator used to cross-check the semi-naive engine.

Deliberately shares nothing with the engine's strategy: strata come from a
Kosaraju condensation instead of level iteration, and rules are re-run naively
in written order until nothing changes.  Bodies must therefore be written
binding-first (positive literals before built-ins and negation); the random
generator below only emits such rules.
"""

from __future__ import annotations

import random

from mdclean.datalog import NEQ, Literal, Rule, Var

# the value relations of the random programs' domains, as (kind, domain)
VALUE_USES = [("sim", "doma"), ("sim", "domb"), ("pre", "domb"), ("mf", "domb")]


def _value_relation(pred):
    """(kind, domain) of a `sim_<d>`, `pre_<d>` or `mf_<d>` predicate, else None."""
    kind, _, dom = pred.partition("_")
    return (kind, dom) if kind in ("sim", "pre", "mf") and dom else None


def _dependency_edges(rules):
    pos, neg = set(), set()
    for rule in rules:
        for lit in rule.body:
            if lit.pred == NEQ or _value_relation(lit.pred):
                continue
            (neg if lit.negated else pos).add((rule.head.pred, lit.pred))
    return pos, neg


def _sccs(nodes, edges):
    forward, backward = {}, {}
    for a, b in edges:
        forward.setdefault(a, []).append(b)
        backward.setdefault(b, []).append(a)

    order = []
    seen = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        stack = [(start, iter(sorted(forward.get(start, ()))))]
        seen.add(start)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(sorted(forward.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    assignment = {}
    for root in reversed(order):
        if root in assignment:
            continue
        component = []
        stack = [root]
        assignment[root] = root
        while stack:
            node = stack.pop()
            component.append(node)
            for prev in backward.get(node, ()):
                if prev not in assignment:
                    assignment[prev] = root
                    stack.append(prev)
        yield frozenset(component)


def naive_strata(rules, extra_preds=()):
    """SCC condensation in dependency order; rejects negation inside an SCC."""
    pos, neg = _dependency_edges(rules)
    nodes = set(extra_preds) | {r.head.pred for r in rules}
    for a, b in pos | neg:
        nodes.update((a, b))
    components = list(_sccs(nodes, pos | neg))
    home = {}
    for comp in components:
        for pred in comp:
            home[pred] = comp
    for a, b in neg:
        if home[a] is home[b]:
            raise ValueError(f"negation between {a} and {b} inside one component")
    ordered = []
    placed = set()
    remaining = list(components)
    while remaining:
        progressed = False
        for comp in sorted(remaining, key=lambda c: sorted(c)):
            deps = {
                home[b]
                for a, b in pos | neg
                if a in comp and home[b] is not comp
            }
            if all(frozenset(d) <= placed for d in deps):
                ordered.append(comp)
                placed.update(comp)
                remaining.remove(comp)
                progressed = True
                break
        if not progressed:
            raise ValueError("cyclic condensation")
    return ordered


def naive_evaluate(rules, facts, sim=None, smf=None):
    """Fixpoint by re-running whole rules; returns pred -> frozenset of tuples."""
    db = {pred: set(ts) for pred, ts in facts.items()}
    for component in naive_strata(rules, facts.keys()):
        component_rules = [r for r in rules if r.head.pred in component]
        changed = True
        while changed:
            changed = False
            for rule in component_rules:
                for derived in _derive(rule, db, sim, smf):
                    bucket = db.setdefault(rule.head.pred, set())
                    if derived not in bucket:
                        bucket.add(derived)
                        changed = True
    return {pred: frozenset(ts) for pred, ts in db.items() if ts}


def _derive(rule, db, sim, smf):
    results = set()

    def ground(term, binding):
        if isinstance(term, Var):
            if term not in binding:
                raise ValueError(f"unbound {term.name} in {rule.head.pred} body")
            return binding[term]
        return term

    def walk(i, binding):
        if i == len(rule.body):
            results.add(tuple(ground(a, binding) for a in rule.head.args))
            return
        lit = rule.body[i]
        kind, dom = _value_relation(lit.pred) or (None, None)
        if lit.pred == NEQ:
            if ground(lit.args[0], binding) != ground(lit.args[1], binding):
                walk(i + 1, binding)
        elif kind == "sim":
            a, b = (ground(t, binding) for t in lit.args)
            if sim.similar(dom, a, b):
                walk(i + 1, binding)
        elif kind == "pre":
            a, b = (ground(t, binding) for t in lit.args)
            if smf.domain(dom)[1](a, b):
                walk(i + 1, binding)
        elif kind == "mf":
            a, b = (ground(t, binding) for t in lit.args[:2])
            merged = smf.try_match(dom, a, b)
            if merged is None:
                return
            out = lit.args[2]
            if isinstance(out, Var) and out not in binding:
                walk(i + 1, {**binding, out: merged})
            elif ground(out, binding) == merged:
                walk(i + 1, binding)
        elif lit.negated:
            key = tuple(ground(a, binding) for a in lit.args)
            if key not in db.get(lit.pred, ()):
                walk(i + 1, binding)
        else:
            for tup in list(db.get(lit.pred, ())):
                new = dict(binding)
                ok = True
                for arg, val in zip(lit.args, tup):
                    if isinstance(arg, Var):
                        if new.setdefault(arg, val) != val:
                            ok = False
                            break
                    elif arg != val:
                        ok = False
                        break
                if ok:
                    walk(i + 1, new)

    walk(0, {})
    return results


def random_program(rng: random.Random, with_builtins=False, token_values=None):
    """A small stratifiable program; bodies are written binding-first.

    Predicates carry a fixed order and bodies only mention predicates at or
    below the head (strictly below when negated), so every draw stratifies.
    When `with_builtins` is set the constant pool matches the four-generator
    chain matching function on domain `domb`, so `sim_domb`/`mf_domb`/`pre_domb`
    literals have something to say.  When `token_values` are given they are
    the constant pool instead, and every built-in literal is `sim_doma`.
    """
    if token_values is not None:
        consts, with_builtins = list(token_values), True
    else:
        consts = ["b1", "b2", "b3", "b12", "b23"] if with_builtins else [f"c{i}" for i in range(5)]
    edb = [("e0", rng.choice((1, 2))), ("e1", rng.choice((1, 2)))]
    idb = [(f"i{i}", rng.choice((1, 2))) for i in range(3)]
    order = {name: i for i, (name, _) in enumerate(edb + idb)}
    arity = dict(edb + idb)

    facts = {}
    for name, n in edb:
        ts = set()
        for _ in range(rng.randint(1, 6)):
            ts.add(tuple(rng.choice(consts) for _ in range(n)))
        facts[name] = ts

    def fresh_vars():
        return [Var(f"V{i}") for i in range(4)]

    rules = []
    for _ in range(rng.randint(3, 6)):
        head_name, head_arity = rng.choice(idb)
        pool = fresh_vars()
        body = []
        bound = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice([p for p in order if order[p] <= order[head_name]])
            args = []
            for _ in range(arity[name]):
                term = rng.choice(pool + consts)
                args.append(term)
                if isinstance(term, Var) and term not in bound:
                    bound.append(term)
            body.append(Literal(name, tuple(args)))
        if with_builtins and bound and rng.random() < 0.5:
            kind = "sim" if token_values is not None else rng.choice(("sim", "pre", "mf"))
            dom = "doma" if token_values is not None else "domb"
            a = rng.choice(bound + consts)
            b = rng.choice(bound + consts)
            if kind == "mf":
                out = Var("V9")
                body.append(Literal("mf_domb", (a, b, out)))
                bound.append(out)
            else:
                body.append(Literal(f"{kind}_{dom}", (a, b)))
        if bound and rng.random() < 0.4:
            lower = [p for p, _ in edb + idb if order[p] < order[head_name]]
            if lower:
                name = rng.choice(lower)
                args = tuple(rng.choice(bound + consts) for _ in range(arity[name]))
                body.append(Literal(name, args, negated=True))
        if len(bound) >= 2 and rng.random() < 0.4:
            body.append(Literal(NEQ, (bound[0], bound[1])))
        head_args = tuple(
            rng.choice(bound) if bound and rng.random() < 0.8 else rng.choice(consts)
            for _ in range(head_arity)
        )
        rules.append(Rule((Literal(head_name, head_args),), tuple(body)))
    return rules, facts
