"""Chase enforcement of matching dependencies.

A step picks two identified tuples matching the leading atoms of a rule
(plus a context assignment for any further atoms), checks the left-hand
similarities on current values, and replaces both right-hand values with
their merge.  Each rule is compiled once to a Datalog step rule over the
rule's body (`mdlang.md_body`), its similarity a built-in; an engine keeps
only these rules and the saturated matching function.  A row names every
tuple it read, and a step's context witness is the least in identifiers.
The step rule of a rule that maps onto itself with its leading atoms
exchanged (`BoundMD.swap_symmetric`, asked once per rule) also requires
`T1 < T2`: each of its rows has a mirror with the leading tuples swapped, so
it derives one orientation of each match, the least row's, and no step changes.

A chase state is the tuples' value vectors in `Instance.iter_tuples` order.
`chase_all` and `chase_one` run one exploration over these states, which
follows every step of a state or, for `chase_one`, the least under a seeded
rule priority.  It memoises states, which keeps `chase_all` exponential in
the number of reachable value states rather than in step interleavings,
charges every step it follows to one budget, the one bound on either chase
however many tuples the instance holds, and builds an `Instance` only for
each stable endpoint.

The exploration keeps one `datalog.Database` holding only the tuples of the
state it visits, and one `_Agenda`, the only store of the step rules' rows
over it: per rule, each pair's rows, whose least gives the step, and per
tuple identifier the rows that name it.  No step rule reads a step row, so
one round of `datalog.fire_rules` derives every row: a full round at the
start (as `applicable_steps` runs it), and then one per move.  Moving to
another state rewrites the tuples whose values differ, in the manner of
delete-and-rederive: their old facts and the rows naming them go, found
through the agenda's map, their new versions come in, and the rows of one
round reading those versions as its delta join the agenda.  So a move costs
what it changes rather than what the state holds, and `chase_one` takes the
least pair of the first rule in priority order that has one and builds only
that step, merge included, while `chase_all` lists every step in rule order,
then by pair.  `enforce` steps an instance through the exploration's
successor function.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Mapping, NamedTuple

from .datalog import Builtin, Database, Literal, Program, Rule, Var, fire_rules, value_builtins
from .errors import (
    DEFAULT_STEP_LIMIT,
    StepLimitExceeded,
    StepNotApplicable,
    UndefinedMatch,
    ValidationError,
    check_step_limit,
)
from .mdlang import BoundMD, md_body, var_name
from .model import Instance, SaturatedMatchingFunction, SimilarityRelation
from .query import instance_facts, relation_pred

class EnforcementStep(NamedTuple):
    """One applicable enforcement, identified by rule and leading tuples.

    For rules whose leading atoms share a relation and write one position,
    the pair is stored in sorted order, the order a swap-symmetric rule's
    step rule derives its rows in.  `context_tids` is the least context
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


class ChaseResult(NamedTuple):
    """Stable endpoints with one witnessing step sequence each."""

    instances: tuple[Instance, ...]
    sequences: tuple[tuple[EnforcementStep, ...], ...]


# the order of tuple identifiers, in which `_Agenda` sorts a pair
_LESS = Builtin("<", 2, operator.lt)


def _step_rule(bound: BoundMD, index: int, guarded: bool) -> Rule:
    """The step rule of the `index`-th rule.  It derives
    `step_<index>(T1, T2, C1..Ck, V1, V2)`: the two leading identifiers, the
    context identifiers in atom order, and the two current right-hand values,
    for every match of the rule's body (`md_body`).

    With `guarded`, for a swap-symmetric rule (`BoundMD.swap_symmetric`), it
    also requires `T1 < T2` right after the leading atoms, so that the
    planner tests it before any similarity.  Every match of its body has a mirror that swaps the leading
    tuples and values and renames the context, so the guard keeps, of each
    pair, exactly the rows that start with its smaller identifier, which
    hold its least row; the rows it drops change no step.
    """
    (lead0, lead1), (p0, p1) = bound.lead, bound.rhs
    names = [lead0.tid_var, lead1.tid_var, *(a.tid_var for a in bound.md.context_atoms())]
    names += [lead0.attr_vars[p0], lead1.attr_vars[p1]]
    head = Literal(f"step_{index}", tuple(Var(var_name(v)) for v in names))
    body = md_body(bound, relation_pred)
    if guarded:
        body.insert(2, Literal(_LESS.name, head.args[:2]))
    return Rule((head,), tuple(body))


class _Layout:
    """The tuples of a chase's start instance, in `iter_tuples` order.

    A chase state is the tuple of their value vectors in this order, so
    states compare and sort as the `iter_tuples()` sequences of their instances do.
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


class _Agenda:
    """The steps of the state a chase's database holds, by rule.

    `rows[k]` maps each pair of leading identifiers of the `k`-th rule to its
    step rows; the least of them, read when the step is, has the step's
    witness as its context.  For a rule whose two orientations write the same
    cells (`BoundMD.symmetric_write`) the pair is sorted, so both orientations
    are one step; otherwise each ordered pair is its own.  `sorts[k]` says
    whether the agenda sorts them: a swap-symmetric rule's step rule derives
    only sorted pairs (`_step_rule`), which are taken as they come.  `naming`
    maps each tuple identifier to the (rule index, pair, row) entries whose
    rows name it, so the rows a rewrite takes away are found without a scan.
    """

    def __init__(self, sorts: list[bool], heads: list[str]):
        self.heads, self.sorts = heads, sorts
        self.rows: list[dict[tuple[str, str], set[tuple[str, ...]]]] = [{} for _ in sorts]
        self.naming: dict[str, set[tuple[int, tuple[str, str], tuple[str, ...]]]] = {}

    def add(self, relations: Mapping[str, Iterable[tuple[str, ...]]]) -> None:
        """Take in the step rows that `relations` holds under the step heads;
        each must be new."""
        naming = self.naming
        for k, (head, sorts) in enumerate(zip(self.heads, self.sorts)):
            rows = self.rows[k]
            for row in relations.get(head, ()):
                pair = (row[1], row[0]) if sorts and row[1] < row[0] else (row[0], row[1])
                rows.setdefault(pair, set()).add(row)
                entry = (k, pair, row)
                for tid in row[:-2]:
                    named = naming.get(tid)
                    if named is None:
                        naming[tid] = {entry}
                    else:
                        named.add(entry)

    def drop(self, tids: Iterable[str]) -> None:
        """Take out the rows that name any of `tids`."""
        naming = self.naming
        gone = set().union(*(naming.pop(tid, ()) for tid in tids))
        for entry in gone:
            k, pair, row = entry
            for tid in row[:-2]:
                named = naming.get(tid)
                if named is not None:
                    named.discard(entry)
                    if not named:
                        del naming[tid]
            held = self.rows[k][pair]
            held.discard(row)
            if not held:
                del self.rows[k][pair]


class ChaseEngine:
    def __init__(self, rules: list[BoundMD], sim: SimilarityRelation,
                 smf: SaturatedMatchingFunction):
        self.smf = smf
        self._rules = {rule.md.name: rule for rule in rules}
        # the name and written domain of each rule, which each of its steps reads
        self._named = [(rule.md.name, rule.rhs_domain) for rule in rules]
        uses = (("sim", dom) for rule in rules for dom in rule.sim_domains)
        guarded = [rule.swap_symmetric() for rule in rules]
        self._sorts = [rule.symmetric_write() and not g for rule, g in zip(rules, guarded)]
        steps = [_step_rule(rule, i, g) for i, (rule, g) in enumerate(zip(rules, guarded))]
        self._program = Program(steps, {**value_builtins(uses, sim), _LESS.name: _LESS})
        self._heads = [step.head.pred for step in steps]

    # -- step discovery ----------------------------------------------------

    def applicable_steps(self, instance: Instance) -> list[EnforcementStep]:
        """Every applicable step, sorted by rule order then leading tuples,
        from one full round of the step rules over `instance`."""
        return self._listed(self._start(instance)[1])

    def _start(self, instance: Instance) -> tuple[Database, _Agenda]:
        """A database holding the facts of `instance`, and the agenda of the
        step rows that one round of every step rule in full derives over it.
        No step rule reads a step row, so that round derives them all."""
        db = Database(instance_facts(instance))
        agenda = _Agenda(self._sorts, self._heads)
        agenda.add(fire_rules(self._program, range(len(self._heads)), db, None))
        return db, agenda

    def _step(self, agenda: _Agenda, k: int, pair: tuple[str, str]) -> EnforcementStep:
        """The step of the `k`-th rule on `pair`, read off the pair's least
        row.  A merge the matching function leaves undefined is listed with
        `new_value` None and refused only when enforced."""
        name, domain = self._named[k]
        row = min(agenda.rows[k][pair])
        old = (row[-2], row[-1]) if pair[0] == row[0] else (row[-1], row[-2])
        return EnforcementStep(name, pair, row[2:-2], old, self.smf.try_match(domain, *old))

    def _listed(self, agenda: _Agenda) -> list[EnforcementStep]:
        """Every step of `agenda`, sorted by rule order then leading tuples."""
        return [
            self._step(agenda, k, pair)
            for k, rows in enumerate(agenda.rows) for pair in sorted(rows)
        ]

    def _move(self, layout: _Layout, db: Database, agenda: _Agenda,
              held: tuple, state: tuple) -> None:
        """Make `db` and `agenda`, which hold the state `held` and its steps,
        hold `state` and its own.

        The tuples whose values differ trade their old facts for their new
        versions, and the agenda drops the rows naming them.  A row names
        every tuple it read (tuple identifiers are unique across relations),
        so the rows left read no changed tuple and still hold, and the rows
        that read a new version are the ones a round reading the new versions
        as its delta derives.
        """
        tids: set[str] = set()
        new_versions: dict[str, list[tuple[str, ...]]] = {}
        for tid, pred, old, new in zip(layout.tids, layout.preds, held, state):
            if old != new:
                tids.add(tid)
                db.discard(pred, [(tid, *old)])
                new_versions.setdefault(pred, []).append((tid, *new))
        if not tids:
            return
        for pred, versions in new_versions.items():
            db.add(pred, versions)
        agenda.drop(tids)
        agenda.add(fire_rules(self._program, range(len(self._heads)), db, Database(new_versions)))

    def _successor(self, layout: _Layout, state: tuple, step: EnforcementStep) -> tuple:
        """The state that enforcing `step` leads to from `state`.

        A step whose values moved on or already agree is not applicable, and
        one whose merge is undefined raises `UndefinedMatch`.
        """
        md, lead_tids, _, old_values, new = step
        bound = self._rules[md]
        tid0, tid1 = lead_tids
        i, j = layout.position[tid0], layout.position[tid1]
        p0, p1 = bound.rhs
        v0, v1 = state[i][p0], state[j][p1]
        if (v0, v1) != old_values:
            raise StepNotApplicable(
                f"step {md} on {lead_tids}: values are now ({v0!r}, {v1!r}), "
                f"expected {old_values}"
            )
        if v0 == v1:
            raise StepNotApplicable(f"step {md} on {lead_tids}: values already agree on {v0!r}")
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
        `iter_tuples()`.  Every step followed is charged to `step_limit`,
        which is what bounds the enumeration, whatever the instance's size."""
        return self._explore(instance, step_limit, self._listed)

    def chase_one(
        self,
        instance: Instance,
        seed: int = 0,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> ChaseResult:
        """One stable instance, following the rule priority drawn from `seed`."""
        names = list(self._rules)
        order = [names.index(name) for name in rule_priority(names, seed)]

        def least(agenda: _Agenda) -> list[EnforcementStep]:
            # the least pair of the first rule in priority order that has one
            for k in order:
                if agenda.rows[k]:
                    return [self._step(agenda, k, min(agenda.rows[k]))]
            return []

        return self._explore(instance, step_limit, least)

    def _explore(
        self,
        instance: Instance,
        step_limit: int,
        follow: Callable[[_Agenda], list[EnforcementStep]],
    ) -> ChaseResult:
        """The stable endpoints reached from `instance` by following, in each
        state, the steps `follow` picks of its agenda (none in a stable
        state), sorted by `iter_tuples()`, with one witnessing sequence each.
        Every step followed is charged to `step_limit`, which may not be
        negative."""
        check_step_limit(step_limit)
        budget = step_limit
        layout = _Layout(instance)
        # the database holds the state `held`, and the agenda its steps
        db, agenda = self._start(instance)
        held = layout.vectors
        seen: set[tuple] = set()
        endpoints: dict[tuple, tuple[EnforcementStep, ...]] = {}
        stack: list[tuple] = [(layout.vectors, ())]
        while stack:
            state, path = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            self._move(layout, db, agenda, held, state)
            held = state
            steps = follow(agenda)
            if not steps:
                endpoints[state] = path
                continue
            for step in steps:
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
