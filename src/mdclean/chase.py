"""Chase enforcement of matching dependencies.

A step picks two identified tuples matching the leading atoms of a rule
(plus a context assignment for any further atoms), checks the left-hand
similarities on current values, and replaces both right-hand values with
their merge.  Each rule is compiled once to a Datalog step rule over the
rule's body (`mdlang.md_body`), whose rows name every tuple they read; a
step's context witness is the least one in tuple identifiers.

A chase state is the tuples' value vectors in `Instance.iter_tuples` order.
`chase_all` and `chase_one` run one exploration over these states, which
follows every step of a state or, for `chase_one`, the least under a seeded
rule priority.  It memoises states, which keeps `chase_all` exponential in
the number of reachable value states rather than in step interleavings,
charges every step it follows to one budget, the one bound on either chase
however many tuples the instance holds, and builds an `Instance` only for
each stable endpoint.  It keeps one `datalog.Database` holding the state it
visits and the step rules' rows over it, evaluated from scratch only at its
start (as `applicable_steps` does).  Moving to another state rewrites the
tuples whose values differ, in the manner of delete-and-rederive: their old
facts and the rows naming them go, and the rows reading their new versions
come.  `enforce` steps an instance through the exploration's successor
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .datalog import Database, Literal, Program, Rule, evaluate, value_builtins
from .errors import StepLimitExceeded, StepNotApplicable, UndefinedMatch, ValidationError
from .mdlang import BoundMD, MDSet, md_body, validate_mds, var_name
from .model import Instance, SaturatedMatchingFunction, Schema, SimilarityRelation
from .query import instance_facts, relation_pred
from .terms import Var

DEFAULT_STEP_LIMIT = 20000


def check_step_limit(step_limit: int) -> None:
    """Refuse a negative step budget as invalid input."""
    if step_limit < 0:
        raise ValidationError(f"step limit must not be negative, got {step_limit}")


@dataclass(frozen=True)
class EnforcementStep:
    """One applicable enforcement, identified by rule and leading tuples.

    For rules whose leading atoms share a relation and write one position,
    the pair is stored in sorted order.  `context_tids` is the least context
    witness, in context atom order, of the least orientation of the pair
    that matches; `old_values` follow the leading order here.  `new_value`
    is None when the matching function leaves the merge undefined, and
    enforcing such a step raises `UndefinedMatch`.
    """

    md: str
    lead_tids: tuple[str, str]
    context_tids: tuple[str, ...]
    old_values: tuple[str, str]
    new_value: str | None

    def to_json_dict(self) -> dict:
        out = {
            "md": self.md,
            "tuples": list(self.lead_tids),
            "old": list(self.old_values),
            "new": self.new_value,
        }
        if self.context_tids:
            out["context"] = list(self.context_tids)
        return out


@dataclass(frozen=True)
class ChaseResult:
    """Stable endpoints with one witnessing step sequence each."""

    instances: tuple[Instance, ...]
    sequences: tuple[tuple[EnforcementStep, ...], ...]


def _step_rule(bound: BoundMD, index: int) -> Rule:
    """The step rule of the `index`-th rule.  It derives
    `step_<index>(T1, T2, C1..Ck, V1, V2)`: the two leading identifiers, the
    context identifiers in atom order, and the two current right-hand values,
    for every match of the rule's body (`md_body`)."""
    (lead0, lead1), (p0, p1) = bound.lead, bound.rhs
    names = [lead0.tid_var, lead1.tid_var, *(a.tid_var for a in bound.md.context_atoms())]
    names += [lead0.attr_vars[p0], lead1.attr_vars[p1]]
    head = Literal(f"step_{index}", tuple(Var(var_name(v)) for v in names))
    return Rule((head,), tuple(md_body(bound, relation_pred)))


class _Layout:
    """The tuples of a chase's start instance, in `iter_tuples` order.

    A chase state is the tuple of their value vectors in this order, so
    states compare and sort as the `canonical_key()`s of their instances do.
    """

    def __init__(self, instance: Instance):
        self.start = instance
        tuples = list(instance.iter_tuples())
        self.tids = [tid for _, tid, _ in tuples]
        self.preds = [relation_pred(rel) for rel, _, _ in tuples]
        self.position = {tid: i for i, tid in enumerate(self.tids)}
        self.vectors = tuple(vals for _, _, vals in tuples)

    def instance(self, state: tuple) -> Instance:
        """The state as an instance, with the start's relations and tuples in their order."""
        if state == self.vectors:
            return self.start
        position = self.position
        tuples = {
            rel: {tid: state[position[tid]] for tid in rows}
            for rel, rows in self.start.tuples.items()
        }
        return Instance(self.start.schema, tuples)


class ChaseEngine:
    def __init__(
        self,
        schema: Schema,
        mds: MDSet,
        sim: SimilarityRelation,
        smf: SaturatedMatchingFunction,
    ):
        rules = validate_mds(mds, schema)
        self.schema = schema
        self.mds = mds
        self.sim = sim
        self.smf = smf
        self._rules = {rule.md.name: rule for rule in rules}
        uses = (("sim", dom) for rule in rules for dom in rule.sim_domains)
        steps = [_step_rule(rule, i) for i, rule in enumerate(rules)]
        self._program = Program(steps, value_builtins(uses, sim))
        self._heads = [step.head.pred for step in steps]

    # -- step discovery ----------------------------------------------------

    def applicable_steps(self, instance: Instance) -> list[EnforcementStep]:
        """Every applicable step, sorted by rule order then leading tuples,
        from the step rules evaluated over `instance` from scratch."""
        return self._select(evaluate(self._program, instance_facts(instance)))

    def _select(self, db: Database) -> list[EnforcementStep]:
        """The steps of the step rules' rows in `db`, sorted by rule order
        then leading tuples.

        Of the rows for one step the least in (leading identifiers, context
        identifiers) is kept, so the context is the least witness.  A merge
        the matching function leaves undefined is listed with `new_value`
        None and refused only when enforced.
        """
        steps = []
        for md_index, (bound, head) in enumerate(zip(self._rules.values(), self._heads)):
            # a pair's two orientations are one step only when they write the
            # same cells; otherwise each ordered pair is its own step
            symmetric = bound.symmetric_write()
            chosen: dict[tuple[str, str], tuple[str, ...]] = {}
            for row in sorted(db.get(head)):
                pair = (row[0], row[1])
                if symmetric and pair[1] < pair[0]:
                    pair = (pair[1], pair[0])
                chosen.setdefault(pair, row)
            for pair, row in chosen.items():
                old = (row[-2], row[-1]) if pair[0] == row[0] else (row[-1], row[-2])
                merged = self.smf.try_match(bound.rhs_domain, *old)
                step = EnforcementStep(bound.md.name, pair, row[2:-2], old, merged)
                steps.append(((md_index, pair), step))
        steps.sort(key=lambda keyed: keyed[0])
        return [step for _, step in steps]

    def _steps(self, layout: _Layout, state: tuple, db: Database) -> list[EnforcementStep]:
        """The steps of `state`, a state of `layout` the chase visits, read
        off the step rows of `db`, which holds it."""
        return self._select(db)

    def _move(self, layout: _Layout, db: Database, held: tuple, state: tuple) -> None:
        """Make `db`, which holds the state `held` and its step rows, hold
        `state` and its step rows.

        The tuples whose values differ lose their old facts and the rows
        naming them, and the rows reading their new versions are derived.
        Tuple identifiers are unique across relations, so a row names a tuple
        only if it read it.
        """
        tids: set[str] = set()
        new_versions: dict[str, list[tuple[str, ...]]] = {}
        for tid, pred, old, new in zip(layout.tids, layout.preds, held, state):
            if old != new:
                tids.add(tid)
                db.discard(pred, [(tid, *old)])
                new_versions.setdefault(pred, []).append((tid, *new))
        for head in self._heads:
            db.discard(head, [row for row in db.get(head) if not tids.isdisjoint(row[:-2])])
        evaluate(self._program, new_versions, db)

    def _successor(self, layout: _Layout, state: tuple, step: EnforcementStep) -> tuple:
        """The state that enforcing `step` leads to from `state`.

        A step whose values moved on or already agree is not applicable, and
        one whose merge is undefined raises `UndefinedMatch`.
        """
        bound = self._rules[step.md]
        i, j = (layout.position[tid] for tid in step.lead_tids)
        p0, p1 = bound.rhs
        v0, v1 = state[i][p0], state[j][p1]
        if (v0, v1) != step.old_values:
            raise StepNotApplicable(
                f"step {step.md} on {step.lead_tids}: values are now ({v0!r}, {v1!r}), "
                f"expected {step.old_values}"
            )
        if v0 == v1:
            raise StepNotApplicable(
                f"step {step.md} on {step.lead_tids}: values already agree on {v0!r}"
            )
        new = step.new_value
        if new is None:
            raise UndefinedMatch(bound.rhs_domain, v0, v1)
        out = list(state)
        out[i] = (*out[i][:p0], new, *out[i][p0 + 1:])
        out[j] = (*out[j][:p1], new, *out[j][p1 + 1:])
        return tuple(out)

    # -- enforcement -------------------------------------------------------

    def enforce(self, instance: Instance, step: EnforcementStep) -> Instance:
        """`instance` after `step`, which must be applicable to it."""
        bound = self._rules.get(step.md)
        if bound is None:
            raise ValidationError(f"unknown rule {step.md!r}")
        for atom, tid in zip(bound.lead, step.lead_tids):
            if tid not in instance.tuples[atom.relation]:
                raise StepNotApplicable(f"step {step.md} on missing tuples {step.lead_tids}")
        layout = _Layout(instance)
        return layout.instance(self._successor(layout, layout.vectors, step))

    # -- chase -------------------------------------------------------------

    def chase_all(
        self,
        instance: Instance,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> ChaseResult:
        """All stable endpoints reachable by any enforcement order, sorted by
        `canonical_key()`.  Every step followed is charged to `step_limit`,
        which is what bounds the enumeration, whatever the instance's size."""
        return self._explore(instance, step_limit, lambda steps: steps)

    def chase_one(
        self,
        instance: Instance,
        seed: int = 0,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> ChaseResult:
        """One stable instance, following the rule priority drawn from `seed`."""
        names = rule_priority(self.mds.names(), seed)
        priority = {name: rank for rank, name in enumerate(names)}

        def least(steps: list[EnforcementStep]) -> list[EnforcementStep]:
            return [min(steps, key=lambda s: (priority.get(s.md, 0), s.lead_tids))]

        return self._explore(instance, step_limit, least)

    def _explore(
        self,
        instance: Instance,
        step_limit: int,
        follow: Callable[[list[EnforcementStep]], list[EnforcementStep]],
    ) -> ChaseResult:
        """The stable endpoints reached from `instance` by following, in each
        state, the steps `follow` picks of its steps, sorted by
        `canonical_key()`, with one witnessing sequence each.  Every step
        followed is charged to `step_limit`, which may not be negative."""
        check_step_limit(step_limit)
        budget = step_limit
        layout = _Layout(instance)
        # the state the database holds, with the step rules' rows over it
        db = evaluate(self._program, instance_facts(instance))
        held = layout.vectors
        seen: set[tuple] = set()
        endpoints: dict[tuple, tuple[EnforcementStep, ...]] = {}
        stack: list[tuple] = [(layout.vectors, ())]
        while stack:
            state, path = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            self._move(layout, db, held, state)
            held = state
            steps = self._steps(layout, state, db)
            if not steps:
                endpoints[state] = path
                continue
            for step in follow(steps):
                if budget <= 0:
                    raise StepLimitExceeded(f"chase exceeded {step_limit} enforcement steps")
                budget -= 1
                stack.append((self._successor(layout, state, step), path + (step,)))
        ordered = sorted(endpoints)
        return ChaseResult(
            tuple(layout.instance(state) for state in ordered),
            tuple(endpoints[state] for state in ordered),
        )


def rule_priority(names: list[str], seed: int) -> list[str]:
    """The `seed % k!`-th permutation of the k `names` in `itertools.permutations` order."""
    pool = list(names)
    rank = seed % math.factorial(len(pool))
    out = []
    while pool:
        index, rank = divmod(rank, math.factorial(len(pool) - 1))
        out.append(pool.pop(index))
    return out
