"""Chase enforcement of matching dependencies.

A step picks two identified tuples matching the leading atoms of a rule
(plus a context assignment for any further atoms), checks the left-hand
similarities on current values, and replaces both right-hand values with
their merge.  Each rule is compiled once to a Datalog step rule over the
rule's body (`mdlang.md_body`), and the engine in `datalog` finds every step
of an instance by evaluating these rules over its tuples; a step's context
witness is the least one in tuple identifiers.  `chase_all`
explores every enforcement order and returns the distinct stable endpoints;
`chase_one` follows one seeded order.  States are memoised on current values
only, which keeps the exhaustive run exponential in the number of reachable
value states rather than in step interleavings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datalog import Literal, Program, Rule, evaluate, value_builtins
from .errors import (
    InstanceTooLarge,
    StepLimitExceeded,
    StepNotApplicable,
    UndefinedMatch,
    ValidationError,
)
from .mdlang import BoundMD, MDSet, md_body, validate_mds, var_name
from .model import Instance, SaturatedMatchingFunction, Schema, SimilarityRelation
from .query import instance_facts, relation_pred
from .terms import Var

DEFAULT_STEP_LIMIT = 20000
DEFAULT_ENUMERATION_GATE = 12


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


class _CompiledMD:
    """One bound rule and its step rule.

    The step rule derives `step_<i>(T1, T2, C1..Ck, V1, V2)`: the two leading
    identifiers, the context identifiers in atom order, and the two current
    right-hand values, for every match of the rule's body (`md_body`).
    """

    def __init__(self, bound: BoundMD, index: int):
        self.bound = bound
        lead0, lead1 = bound.lead
        names = [
            lead0.tid_var,
            lead1.tid_var,
            *(atom.tid_var for atom in bound.md.context_atoms()),
            lead0.attr_vars[bound.rhs[0]],
            lead1.attr_vars[bound.rhs[1]],
        ]
        self.head = f"step_{index}"
        head = Literal(self.head, tuple(Var(var_name(v)) for v in names))
        self.rule = Rule(head, tuple(md_body(bound, relation_pred)))


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
        self._compiled = [_CompiledMD(rule, i) for i, rule in enumerate(rules)]
        uses = (("sim", dom) for rule in rules for dom in rule.sim_domains)
        builtins = value_builtins(uses, sim)
        self._program = Program([c.rule for c in self._compiled], builtins=builtins)

    # -- step discovery ----------------------------------------------------

    def applicable_steps(self, instance: Instance) -> list[EnforcementStep]:
        """Every applicable step, sorted by rule order then leading tuples.

        Of the step rule's rows for one step the least in (leading
        identifiers, context identifiers) is kept, so the context is the
        least witness.  A merge the matching function leaves undefined is
        listed with `new_value` None and refused only when enforced.
        """
        model = evaluate(self._program, instance_facts(instance))
        steps = []
        for md_index, compiled in enumerate(self._compiled):
            # a pair's two orientations are one step only when they write the
            # same cells; otherwise each ordered pair is its own step
            symmetric = compiled.bound.symmetric_write()
            chosen: dict[tuple[str, str], tuple[str, ...]] = {}
            for row in sorted(model.get(compiled.head)):
                pair = (row[0], row[1])
                if symmetric and pair[1] < pair[0]:
                    pair = (pair[1], pair[0])
                chosen.setdefault(pair, row)
            for pair, row in chosen.items():
                old = (row[-2], row[-1]) if pair[0] == row[0] else (row[-1], row[-2])
                merged = self.smf.try_match(compiled.bound.rhs_domain, *old)
                step = EnforcementStep(compiled.bound.md.name, pair, row[2:-2], old, merged)
                steps.append(((md_index, pair), step))
        steps.sort(key=lambda keyed: keyed[0])
        return [step for _, step in steps]

    # -- enforcement -------------------------------------------------------

    def is_stable(self, instance: Instance) -> bool:
        return not self.applicable_steps(instance)

    def enforce(self, instance: Instance, step: EnforcementStep) -> Instance:
        bound = self._find(step.md)
        lead0, lead1 = bound.lead
        p0, p1 = bound.rhs
        tid0, tid1 = step.lead_tids
        try:
            vals0 = instance.current(lead0.relation, tid0)
            vals1 = instance.current(lead1.relation, tid1)
        except KeyError:
            raise StepNotApplicable(f"step {step.md} on missing tuples {step.lead_tids}") from None
        v0, v1 = vals0[p0], vals1[p1]
        if (v0, v1) != step.old_values:
            raise StepNotApplicable(
                f"step {step.md} on {step.lead_tids}: values are now ({v0!r}, {v1!r}), "
                f"expected {step.old_values}"
            )
        if v0 == v1:
            raise StepNotApplicable(
                f"step {step.md} on {step.lead_tids}: values already agree on {v0!r}"
            )
        if step.new_value is None:
            raise UndefinedMatch(bound.rhs_domain, v0, v1)
        new0 = list(vals0)
        new0[p0] = step.new_value
        updates = {(lead0.relation, tid0): tuple(new0)}
        base1 = updates.get((lead1.relation, tid1), vals1)
        new1 = list(base1)
        new1[p1] = step.new_value
        updates[(lead1.relation, tid1)] = tuple(new1)
        return instance.with_updates(updates)

    def _find(self, md_name: str) -> BoundMD:
        for compiled in self._compiled:
            if compiled.bound.md.name == md_name:
                return compiled.bound
        raise ValidationError(f"unknown rule {md_name!r}")

    # -- chase -------------------------------------------------------------

    def chase_all(
        self,
        instance: Instance,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> ChaseResult:
        """All stable endpoints reachable by any enforcement order, sorted by
        `canonical_key()`."""
        if instance.total_tuples() > DEFAULT_ENUMERATION_GATE:
            raise InstanceTooLarge(
                f"{instance.total_tuples()} tuples exceed the enumeration gate "
                f"({DEFAULT_ENUMERATION_GATE}); use chase_one for large instances"
            )
        budget = step_limit
        seen: set[tuple] = set()
        results: dict[tuple, tuple[Instance, tuple[EnforcementStep, ...]]] = {}
        stack: list[tuple[Instance, tuple[EnforcementStep, ...]]] = [(instance, ())]
        while stack:
            current, path = stack.pop()
            key = current.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            steps = self.applicable_steps(current)
            if not steps:
                results.setdefault(key, (current, path))
                continue
            for step in steps:
                if budget <= 0:
                    raise StepLimitExceeded(
                        f"chase exceeded {step_limit} enforcement steps"
                    )
                budget -= 1
                stack.append((self.enforce(current, step), path + (step,)))
        ordered = sorted(results)
        return ChaseResult(
            tuple(results[key][0] for key in ordered),
            tuple(results[key][1] for key in ordered),
        )

    def chase_one(
        self,
        instance: Instance,
        seed: int = 0,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> ChaseResult:
        """One stable instance, following the rule priority drawn from `seed`."""
        names = rule_priority(self.mds.names(), seed)
        priority = {name: rank for rank, name in enumerate(names)}
        current = instance
        path: list[EnforcementStep] = []
        while steps := self.applicable_steps(current):
            if len(path) >= step_limit:
                raise StepLimitExceeded(f"chase exceeded {step_limit} enforcement steps")
            step = min(steps, key=lambda s: (priority.get(s.md, 0), s.lead_tids))
            current = self.enforce(current, step)
            path.append(step)
        return ChaseResult((current,), (tuple(path),))


def rule_priority(names: list[str], seed: int) -> list[str]:
    """The `seed % k!`-th permutation of the k `names` in `itertools.permutations` order."""
    pool = list(names)
    rank = seed % math.factorial(len(pool))
    out = []
    while pool:
        index, rank = divmod(rank, math.factorial(len(pool) - 1))
        out.append(pool.pop(index))
    return out
