"""Reference stable-model enumerator for the general cleaning program.

Reads the text `emit-asp` prints and enumerates its stable models by brute
force, so that they can be compared with the chase's clean instances.  The
program must be head-cycle-free, which lets each disjunctive rule
`h1 | h2 :- body.` be shifted into the normal rules `h1 :- body, not h2.`
and `h2 :- body, not h1.` without changing the stable models (Ben-Eliyahu &
Dechter, AMAI 1994).

The search decides, for each ground instance of a disjunctive rule whose
body holds, which head it derives.  A decision is a fact of a guess relation
that the shifted rule reads in place of its negated heads, so the program
with the decisions as facts is the Gelfond-Lifschitz reduct of the shifted
program under the candidate model, and its least model is that candidate.
Only decisions feed the rules that derive the disjunctive bodies, and those
rules negate nothing, so the least model only grows as decisions are added:
the search branches on the undecided instances whose body holds in it and
stops when there are none.  A constraint that negates nothing prunes a
branch as soon as it is violated; the others, and the check that the heads
derived are exactly the ones decided, run at the leaves.

`datalog.Program` refuses function terms, so every literal with `mt(...)`
arguments is evaluated under a flat predicate that spells the term's
arguments in place.  A rule that reads such a relation through plain
variables (the transitive closure of the order) is first expanded once per
combination of the term shapes written at those positions.  The constraints
read the order relation through plain variables too and are checked here
over the rebuilt terms.

Run `PYTHONPATH=src:tests python -m naive_asp --max-tuples 4` to compare
the stable models with `chase_all` on the randomized acceptance population;
it exits 1 when a draw's models disagree.
"""

from __future__ import annotations

import argparse
import random
import time
from itertools import product

from mdclean.chase import ChaseEngine
from mdclean.codegen import emit_general_asp
from mdclean.datalog import NEQ, Compound, Literal, Program, Rule, Var, evaluate, parse_asp

from population import random_setting


class SearchLimit(Exception):
    """The enumeration ran past its deadline."""


def _flat(lit: Literal) -> Literal:
    """`lit` with each function term's arguments spliced in, under a
    predicate that records the term's functor and arity."""
    if not any(isinstance(a, Compound) for a in lit.args):
        return lit
    shape, args = [], []
    for arg in lit.args:
        if isinstance(arg, Compound):
            if any(isinstance(a, Compound) for a in arg.args):
                raise ValueError(f"nested function term in {lit}")
            shape.append(f"{arg.functor}{len(arg.args)}")
            args.extend(arg.args)
        else:
            shape.append("")
            args.append(arg)
    return Literal(f"{lit.pred}/{','.join(shape)}", tuple(args), lit.negated)


def _unflat(pred: str, row: tuple[str, ...]) -> tuple[str, tuple]:
    """The predicate and ground arguments that `_flat` spelled as `pred` and `row`."""
    if "/" not in pred:
        return pred, row
    name, shape = pred.split("/")
    args, i = [], 0
    for part in shape.split(","):
        if not part:
            args.append(row[i])
            i += 1
            continue
        functor = part.rstrip("0123456789")
        arity = int(part[len(functor):])
        args.append(Compound(functor, row[i : i + arity]))
        i += arity
    return name, tuple(args)


def _expand_term_variables(statements: list[Rule]) -> list[Rule]:
    """Each rule with a plain variable where some statement writes a function
    term, once per combination of the term shapes written at its positions.

    In each copy the variable is a term of its chosen shape over fresh
    variables, so `_flat` puts its literals under the predicates that the
    rules writing those terms use.  Constraints stay as they are.
    """
    shapes: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for st in statements:
        for lit in (*st.heads, *st.body):
            for i, arg in enumerate(lit.args):
                if isinstance(arg, Compound):
                    shapes.setdefault((lit.pred, i), set()).add((arg.functor, len(arg.args)))
    out = []
    for st in statements:
        options: dict[str, set[tuple[str, int]]] = {}
        for lit in (*st.heads, *st.body):
            for i, arg in enumerate(lit.args):
                if isinstance(arg, Var) and (lit.pred, i) in shapes:
                    options.setdefault(arg.name, set()).update(shapes[lit.pred, i])
        if st.is_constraint or not options:
            out.append(st)
            continue
        names = sorted(options)
        for choice in product(*(sorted(options[name]) for name in names)):
            env = {
                name: Compound(functor, tuple(Var(f"{name}.{k}") for k in range(arity)))
                for name, (functor, arity) in zip(names, choice)
            }

            def subst(lit: Literal) -> Literal:
                args = tuple(env.get(a.name, a) if isinstance(a, Var) else a for a in lit.args)
                return Literal(lit.pred, args, lit.negated)

            out.append(Rule(tuple(map(subst, st.heads)), tuple(map(subst, st.body))))
    return out


def _var_names(args) -> list[str]:
    out: list[str] = []
    for arg in args:
        if isinstance(arg, Var):
            if arg.name not in out:
                out.append(arg.name)
        elif isinstance(arg, Compound):
            out.extend(n for n in _var_names(arg.args) if n not in out)
    return out


def _reaches(edges: dict[str, set[str]], start: str) -> set[str]:
    """The predicates reachable from `start` through at least one edge."""
    seen: set[str] = set()
    todo = list(edges.get(start, ()))
    while todo:
        pred = todo.pop()
        if pred not in seen:
            seen.add(pred)
            todo.extend(edges.get(pred, ()))
    return seen


class ShiftedProgram:
    """A head-cycle-free disjunctive program, shifted and ready to search."""

    def __init__(self, text: str):
        statements = _expand_term_variables(parse_asp(text))
        normal: list[Rule] = []
        self.choices: list[tuple[tuple[Literal, ...], tuple[str, ...]]] = []
        self.constraints = []
        for st in statements:
            if st.is_constraint:
                self.constraints.append(st.body)
            elif len(st.heads) == 1:
                normal.append(Rule((_flat(st.heads[0]),), tuple(_flat(lit) for lit in st.body)))
            else:
                names = tuple(_var_names(a for h in st.heads for a in h.args))
                self.choices.append((st.heads, names))
                index = len(self.choices) - 1
                body = tuple(_flat(lit) for lit in st.body)
                key = tuple(Var(v) for v in names)
                normal.append(Rule((Literal(f"#open{index}", key),), body))
                for j, head in enumerate(st.heads):
                    guess = Literal(f"#guess{index}_{j}", key)
                    normal.append(Rule((_flat(head),), (guess, *body)))
        self._check(statements, normal)
        self.program = Program(normal)

    def _check(self, statements, normal: list[Rule]) -> None:
        """Refuse a program with a head cycle, or whose disjunctive bodies
        depend on a negated literal (the search needs them monotone)."""
        edges: dict[str, set[str]] = {}
        for st in statements:
            for head in st.heads:
                edges.setdefault(head.pred, set()).update(
                    lit.pred for lit in st.body if not lit.negated and lit.pred != NEQ
                )
        for st in statements:
            for i, h1 in enumerate(st.heads):
                for h2 in st.heads[i + 1 :]:
                    if h2.pred in _reaches(edges, h1.pred) and h1.pred in _reaches(edges, h2.pred):
                        raise ValueError(f"heads {h1.pred} and {h2.pred} share a positive cycle")
        negating = {rule.head.pred for rule in normal if any(lit.negated for lit in rule.body)}
        flat_edges: dict[str, set[str]] = {}
        for rule in normal:
            flat_edges.setdefault(rule.head.pred, set()).update(lit.pred for lit in rule.body)
        # unflattened names, so that the constraints can ask
        self.nonmonotone = {
            pred.split("/")[0]
            for pred in flat_edges
            if ({pred} | _reaches(flat_edges, pred)) & negating
        }
        for index in range(len(self.choices)):
            if f"#open{index}" in self.nonmonotone:
                raise ValueError(f"the body of disjunctive rule {index} depends on a negation")

    def _model(self, decisions: dict[tuple[int, tuple], int]) -> dict[str, set]:
        """The least model under `decisions`, with function terms rebuilt."""
        guesses: dict[str, set[tuple]] = {}
        for (index, key), j in decisions.items():
            guesses.setdefault(f"#guess{index}_{j}", set()).add(key)
        model = evaluate(self.program, guesses)
        out: dict[str, set] = {}
        for pred, rows in model.relations.items():
            for row in rows:
                name, args = _unflat(pred, row)
                out.setdefault(name, set()).add(args)
        return out

    def stable_models(self, deadline: float | None = None) -> list[dict[str, set]]:
        """Every stable model, as relations of ground argument tuples."""
        early = [
            body
            for body in self.constraints
            if not any(lit.negated or lit.pred in self.nonmonotone for lit in body)
        ]
        models: list[dict[str, set]] = []

        def visit(decisions: dict[tuple[int, tuple], int]) -> None:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchLimit
            model = self._model(decisions)
            if any(_violated(body, model) for body in early):
                return
            undecided = sorted(
                (index, key)
                for index in range(len(self.choices))
                for key in model.get(f"#open{index}", ())
                if (index, key) not in decisions
            )
            if undecided:
                choice = undecided[0]
                for j in range(len(self.choices[choice[0]][0])):
                    visit({**decisions, choice: j})
                return
            if self._stable(decisions, model) and not any(
                _violated(body, model) for body in self.constraints
            ):
                models.append(model)

        visit({})
        return models

    def _stable(self, decisions, model) -> bool:
        """Whether the disjunctive heads derived are exactly those decided."""
        decided: dict[str, set] = {}
        for (index, key), j in decisions.items():
            heads, names = self.choices[index]
            env = dict(zip(names, key))
            decided.setdefault(heads[j].pred, set()).add(_ground(heads[j].args, env))
        preds = {head.pred for heads, _ in self.choices for head in heads}
        return all(model.get(pred, set()) == decided.get(pred, set()) for pred in preds)


def _ground(args, env) -> tuple:
    return tuple(
        env[a.name] if isinstance(a, Var)
        else Compound(a.functor, _ground(a.args, env)) if isinstance(a, Compound)
        else a
        for a in args
    )


def _match(term, value, env: dict):
    """`env` extended so that `term` equals the ground `value`, or None."""
    if isinstance(term, Var):
        bound = env.get(term.name)
        if bound is None:
            return {**env, term.name: value}
        return env if bound == value else None
    if isinstance(term, Compound):
        if not (
            isinstance(value, Compound)
            and value.functor == term.functor
            and len(value.args) == len(term.args)
        ):
            return None
        for t, v in zip(term.args, value.args):
            env = _match(t, v, env)
            if env is None:
                return None
        return env
    return env if term == value else None


def _violated(body, model: dict[str, set]) -> bool:
    """Whether some ground instance of the constraint body holds in `model`.

    The positive literals bind every variable, in order; `!=` and the
    negated literals are tested on the full binding.
    """
    positive = [lit for lit in body if not lit.negated and lit.pred != NEQ]
    tests = [lit for lit in body if lit.negated or lit.pred == NEQ]

    def holds(lit, env) -> bool:
        args = _ground(lit.args, env)
        if lit.pred == NEQ:
            return args[0] != args[1]
        return args not in model.get(lit.pred, ())

    def solve(i: int, env: dict) -> bool:
        if i == len(positive):
            return all(holds(lit, env) for lit in tests)
        lit = positive[i]
        for row in model.get(lit.pred, ()):
            bound = env
            for term, value in zip(lit.args, row):
                bound = _match(term, value, bound)
                if bound is None:
                    break
            else:
                if solve(i + 1, bound):
                    return True
        return False

    return solve(0, {})


def clean_projections(models, relations) -> set[frozenset]:
    """Each model's `<rel>_clean` rows as one set of (relation, tid, *values)."""
    return {
        frozenset(
            (rel, *row) for rel in relations for row in model.get(f"{rel.lower()}_clean", ())
        )
        for model in models
    }


def endpoint_sets(instances) -> set[frozenset]:
    """Clean instances in the shape of `clean_projections`."""
    return {
        frozenset((rel, tid, *vals) for rel, tid, vals in inst.iter_tuples()) for inst in instances
    }


def _scan(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--draws", type=int, default=745)
    parser.add_argument("--max-tuples", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per draw")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts = {"agree": 0, "mismatch": 0, "timeout": 0, "larger": 0}
    for draw in range(args.draws):
        s = random_setting(rng)
        if sum(1 for _ in s.instance.iter_tuples()) > args.max_tuples:
            counts["larger"] += 1
            continue
        endpoints = ChaseEngine(s.rules, s.sim, s.smf).chase_all(s.instance).instances
        text = emit_general_asp(s.instance, s.rules, s.sim, s.smf).text()
        try:
            models = ShiftedProgram(text).stable_models(time.monotonic() + args.timeout)
        except SearchLimit:
            counts["timeout"] += 1
            print(f"draw {draw}: timed out", flush=True)
            continue
        projected = clean_projections(models, s.schema.relation_names())
        if projected == endpoint_sets(endpoints):
            counts["agree"] += 1
        else:
            counts["mismatch"] += 1
            print(
                f"draw {draw}: {len(models)} stable models project onto {len(projected)} "
                f"instances, chase_all finds {len(endpoints)}\n{s.describe()}",
                flush=True,
            )
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["mismatch"] else 0


if __name__ == "__main__":
    raise SystemExit(_scan())
