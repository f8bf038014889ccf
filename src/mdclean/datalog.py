"""Stratified Datalog with computed built-ins, plus the ASP rule syntax.

One grammar covers both layers.  Rules look like

    r_clean(T, X, Y) :- r(T, X, Y), not oldversion_r(T, X, Y).

with `%` comments, upper-case/underscore initials for variables, and quoting
for constants that would otherwise read as variables.  Every statement is a
`Rule`, a fact being one with no body; disjunctive heads (`a | b :- ...`) and
headless constraints are parsed for the ASP layer but rejected by `Program`.

A term is a `Var` or a plain string constant.  `Compound` only occurs in
generated ASP text (order terms built from matched tuples): `Program`
refuses it, so the evaluator never sees one.

Built-ins are literals computed from their arguments instead of looked up:
`X != Y`, and per domain `d` the value relations `sim_d(X, Y)` (similarity),
`pre_d(X, Y)` (the merge order) and `mf_d(X, Y, Z)` (the merge), named by
`value_pred` as generated programs spell their tables.  `mf_d` binds its
result argument and has no row where the merge is undefined; everything else
requires fully bound arguments, so rule bodies must ground them through
ordinary literals first.

`evaluate` computes a program's model into a `Database` from scratch.
`fire_rules` runs one semi-naive round over a database, in full or reading
a delta of new facts, and returns the head rows without storing them: a
caller whose rules read no head keeps those rows itself.  Bodies are
joined through the database's indexes, each built the first time a scan
reads it and kept current under `add` and `discard`, so it outlives the
evaluation that built it: a hash index on the positions a scan shares with
what is already bound, and otherwise, when a `sim_d` literal compares a free
position of the scan with a bound value, a blocking-key index on that
position.  Each value has keys such that two similar values share one, so
the candidates under the bound value's keys include every partner; the
`sim_d` test still runs on each of them.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import (
    NotStratifiable,
    ParseError,
    UnsafeRule,
    ValidationError,
)
from .model import SaturatedMatchingFunction, SimilarityRelation

NEQ = "!="


class Var(NamedTuple):
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Compound(NamedTuple):
    functor: str
    args: tuple["Term", ...]


Term = Union[Var, Compound, str]


class Literal(NamedTuple):
    pred: str
    args: tuple[Term, ...]
    negated: bool = False


class Rule(NamedTuple):
    """A statement as written: a rule, a fact (one head, no body), a
    disjunctive rule (several heads) or a constraint (no head)."""

    heads: tuple[Literal, ...]
    body: tuple[Literal, ...] = ()

    @property
    def head(self) -> Literal:
        """The one head; a constraint or a disjunction has none."""
        heads = self.heads
        if len(heads) != 1:
            raise ValidationError(f"{format_rule_ast(self)!r} does not have exactly one head")
        return heads[0]

    @property
    def is_constraint(self) -> bool:
        return not self.heads

    @property
    def is_fact(self) -> bool:
        return len(self.heads) == 1 and not self.body


# ---------------------------------------------------------------------------
# built-ins


class Builtin(NamedTuple):
    """A literal computed from its arguments instead of looked up.

    Its first two arguments must be bound before the literal runs; `fn` is
    called on their values.  A built-in of arity 2 is a test and `fn` says
    whether it holds.  One of arity 3 computes its third argument: `fn`
    returns it, or None where there is none.

    A test may have blocking `keys`, a function from a value to a tuple of
    keys such that `fn(a, b)` implies that `keys(a)` and `keys(b)` share one.
    The planner then reaches the partners of a bound value through an index
    on these keys instead of scanning every tuple; the test still runs.
    """

    name: str
    arity: int
    fn: Callable[[str, str], object]
    keys: Callable[[str], tuple] | None = None


NEQ_BUILTIN = Builtin(NEQ, 2, operator.ne)


def value_pred(kind: str, domain: str) -> str:
    """The predicate of a domain's `sim`, `pre` or `mf` relation, lower-cased."""
    return f"{kind}_{domain.lower()}"


def value_builtins(
    uses: Iterable[tuple[str, str]],
    sim: SimilarityRelation,
    smf: SaturatedMatchingFunction | None = None,
) -> dict[str, Builtin]:
    """`!=` and the value relation of each (kind, domain) in `uses`.

    `sim` tests similarity, with the domain's `SimilarityRelation.keys` as
    blocking keys.  `pre` and `mf` are the order and the merge of the
    domain's `SaturatedMatchingFunction.domain`: `pre` tests two values, `mf`
    computes the merge of its first two arguments into its third.  Two
    domains whose relations would share a predicate are refused.
    """
    out = {NEQ: NEQ_BUILTIN}
    owner: dict[str, str] = {}
    for kind, dom in uses:
        name = value_pred(kind, dom)
        if owner.setdefault(name, dom) != dom:
            raise ValidationError(f"domains {owner[name]!r} and {dom!r} share predicate {name!r}")
        if kind == "mf":
            out[name] = Builtin(name, 3, smf.domain(dom)[0])
        elif kind == "sim":
            out[name] = Builtin(name, 2, functools.partial(sim.similar, dom), sim.keys(dom))
        else:
            out[name] = Builtin(name, 2, smf.domain(dom)[1])
    return out


# ---------------------------------------------------------------------------
# programs


class Program:
    """Ground facts plus single-head rules, validated for safety and
    plannability; the facts of `statements` go to `facts`, the rest to `rules`."""

    def __init__(self, statements: Iterable[Rule], builtins: Mapping[str, Builtin] | None = None):
        self.builtins: dict[str, Builtin] = dict(builtins or {})
        self.builtins.setdefault(NEQ, NEQ_BUILTIN)
        self.rules: list[Rule] = []
        self.facts: dict[str, set[tuple[str, ...]]] = {}
        for st in statements:
            if st.is_constraint:
                raise ValidationError("constraints are not part of the Datalog layer")
            heads = st.heads
            if len(heads) > 1:
                raise ValidationError("disjunctive heads are not part of the Datalog layer")
            head = heads[0]
            pred, args = head.pred, head.args
            if head.negated:
                raise ValidationError("rule head cannot be negated")
            if pred in self.builtins:
                raise ValidationError(f"rule head {pred!r} is a built-in")
            if not st.is_fact:
                self.rules.append(st)
            elif any(isinstance(a, (Var, Compound)) for a in args):
                raise ValidationError(
                    f"fact {RuleWriter().literal(head)!r} must be ground and function-free"
                )
            else:
                self.facts.setdefault(pred, set()).add(args)
        # per rule, its head's predicate and its body literals' by position,
        # which every round of `fire_rules` reads
        self._head_preds = [rule.heads[0].pred for rule in self.rules]
        self._body_preds = [tuple(enumerate(lit.pred for lit in rule.body)) for rule in self.rules]
        self._plans: dict[tuple[int, int | None], _Plan] = {}
        self._strata: list[list[str]] | None = None
        self._validate()

    @property
    def strata(self) -> list[list[str]]:
        """`stratify(self)`, computed on first use."""
        if self._strata is None:
            self._strata = stratify(self)
        return self._strata

    def all_preds(self) -> set[str]:
        preds = set(self.facts) | {rule.head.pred for rule in self.rules}
        for rule in self.rules:
            for lit in rule.body:
                if lit.pred not in self.builtins:
                    preds.add(lit.pred)
        return preds

    def _validate(self) -> None:
        arities: dict[str, int] = {b.name: b.arity for b in self.builtins.values()}
        for pred, ts in self.facts.items():
            for t in ts:
                if arities.setdefault(pred, len(t)) != len(t):
                    raise ValidationError(f"predicate {pred!r} used with mixed arities")
        for rule in self.rules:
            for pred, args, negated in (rule.head, *rule.body):
                if arities.setdefault(pred, len(args)) != len(args):
                    raise ValidationError(f"predicate {pred!r} used with mixed arities")
                for arg in args:
                    if isinstance(arg, Compound):
                        raise ValidationError(
                            "function terms are not supported in evaluated programs"
                        )
                if negated and pred in self.builtins:
                    raise ValidationError(f"built-in {pred!r} cannot be negated")
        for index in range(len(self.rules)):
            self.plan(index, None)

    # -- planning ----------------------------------------------------------

    def plan(self, index: int, delta_occurrence: int | None) -> _Plan:
        """The compiled body of one rule, reading `delta_occurrence` first."""
        key = (index, delta_occurrence)
        if key not in self._plans:
            self._plans[key] = _Plan(self.rules[index], delta_occurrence, self.builtins)
        return self._plans[key]


# ---------------------------------------------------------------------------
# stratification


def stratify(program: Program) -> list[list[str]]:
    """Predicate strata, bottom first; negation must point strictly down.

    Levels rise by relaxation, each predicate recording the dependency that
    last raised it.  If they still rise after |preds| + 1 rounds, following
    those records back |preds| steps from the last predicate raised lands on
    a cycle through a negation, which the error names.
    """
    preds = sorted(program.all_preds())
    edges: list[tuple[str, str, bool]] = []
    for rule in program.rules:
        for lit in rule.body:
            if lit.pred in program.builtins:
                continue
            edges.append((rule.head.pred, lit.pred, lit.negated))
    level = {p: 0 for p in preds}
    raised_by: dict[str, str] = {}
    for _ in range(len(preds) + 1):
        raised = None
        for head, dep, negated in edges:
            need = level[dep] + (1 if negated else 0)
            if level[head] < need:
                level[head] = need
                raised_by[head] = dep
                raised = head
        if raised is None:
            break
    else:
        for _ in preds:
            raised = raised_by[raised]
        cycle = [raised, raised_by[raised]]
        while cycle[-1] != raised:
            cycle.append(raised_by[cycle[-1]])
        raise NotStratifiable(f"negation cycle through {' -> '.join(cycle)}")
    by_level: dict[int, list[str]] = {}
    for p in preds:
        by_level.setdefault(level[p], []).append(p)
    return [sorted(by_level[lv]) for lv in sorted(by_level)]


# ---------------------------------------------------------------------------
# evaluation


class Database:
    """Relations by predicate, with the indexes that scans read of them.

    An index is built the first time a scan asks for it, and `add` and
    `discard` keep every index built so far current.  It maps each key to the
    set of tuples under it: a hash index keys a tuple by its values at the
    positions `key` (the bare value for one position, else their tuple), a
    blocking-key index by each of `keys(value)` of its value at the position
    `key`.
    """

    def __init__(self, facts: Mapping[str, Iterable[tuple[str, ...]]] | None = None):
        self._relations: dict[str, set[tuple[str, ...]]] = {}
        # by predicate, then by (key, keys): (the getter of the indexed
        # value, keys, index)
        self._indexes: dict[str, dict[tuple, tuple[Callable, Callable | None, dict]]] = {}
        for pred, ts in (facts or {}).items():
            self.add(pred, ts)

    @property
    def relations(self) -> dict[str, set[tuple[str, ...]]]:
        """The non-empty relations by predicate, the sets the database holds."""
        return {pred: ts for pred, ts in self._relations.items() if ts}

    def get(self, pred: str) -> AbstractSet[tuple[str, ...]]:
        return self._relations.get(pred, _EMPTY)

    def add(self, pred: str, tuples: Iterable[tuple[str, ...]]) -> set[tuple[str, ...]]:
        """Store `tuples` under `pred`; returns those it did not hold."""
        rel = self._relations.setdefault(pred, set())
        new = set(tuples) - rel
        rel |= new
        for getter, keys, index in self._indexes.get(pred, {}).values():
            _insert(index, getter, keys, new)
        return new

    def discard(self, pred: str, tuples: Iterable[tuple[str, ...]]) -> None:
        """Remove those of `tuples` that `pred` holds."""
        rel = self._relations.get(pred, set())
        gone = rel.intersection(tuples)
        rel -= gone
        for getter, keys, index in self._indexes.get(pred, {}).values():
            for stored in gone:
                value = getter(stored)
                for key in (value,) if keys is None else keys(value):
                    bucket = index.get(key)
                    if bucket is not None:
                        bucket.discard(stored)
                        if not bucket:
                            del index[key]

    def index(
        self, pred: str, key: tuple[int, ...] | int, keys: Callable[[str], tuple] | None = None
    ) -> dict:
        """The hash index of `pred` on the positions `key` (a tuple) or, with
        `keys`, its blocking-key index on the position `key` (an int)."""
        built = self._indexes.setdefault(pred, {})
        entry = built.get((key, keys))
        if entry is None:
            getter = operator.itemgetter(*key) if keys is None else operator.itemgetter(key)
            entry = built[key, keys] = getter, keys, {}
            _insert(entry[2], getter, keys, self.get(pred))
        return entry[2]


def _insert(
    index: dict, getter: Callable, keys: Callable | None, tuples: Iterable[tuple[str, ...]]
) -> None:
    """File each of `tuples` in `index` under the value `getter` reads or,
    with `keys`, under each of its keys."""
    if keys is None:
        for stored in tuples:
            key = getter(stored)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {stored}
            else:
                bucket.add(stored)
        return
    for stored in tuples:
        for key in keys(getter(stored)):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {stored}
            else:
                bucket.add(stored)


def evaluate(
    program: Program,
    facts: Mapping[str, Iterable[tuple[str, ...]]] | None = None,
) -> Database:
    """The minimal model of a stratified program over its own facts and `facts`.

    A new database takes the program's facts and `facts`, and the strata are
    computed bottom-up, each by semi-naive rounds of which the first runs
    every rule of the stratum in full and each later one reads what the round
    before added (a negated literal never reads its own stratum).
    """
    facts = facts or {}
    for pred in facts:
        if pred in program.builtins:
            raise ValidationError(f"built-in {pred!r} has no facts")
    db = Database()
    for given in (program.facts, facts):
        for pred, ts in given.items():
            db.add(pred, ts)
    for stratum in map(set, program.strata):
        rule_indices = [i for i, pred in enumerate(program._head_preds) if pred in stratum]
        delta = None
        while delta is None or delta.relations:
            fresh = fire_rules(program, rule_indices, db, delta)
            delta = Database({pred: db.add(pred, ts) for pred, ts in fresh.items()})
    return db


def fire_rules(
    program: Program,
    rule_indices: Iterable[int],
    db: Database,
    delta: Database | None,
) -> dict[str, set[tuple[str, ...]]]:
    """One round: the head rows of the rules at `rule_indices` over the
    relations of `db`, which it does not change.

    With `delta` None every rule runs in full.  Otherwise each rule runs one
    variant per body literal whose relation `delta` holds, reading that
    literal from `delta` and the others from `db`, so exactly the rows that
    read a fact of `delta` come out when `db` already holds `delta`.  A
    built-in has no facts, in `delta` as in `evaluate`'s `facts`.
    """
    if delta is not None:
        for pred in delta.relations:
            if pred in program.builtins:
                raise ValidationError(f"built-in {pred!r} has no facts")
    fresh: dict[str, set[tuple[str, ...]]] = {}
    head_preds, body_preds = program._head_preds, program._body_preds
    for i in rule_indices:
        if delta is None:
            reads = [None]
        else:
            reads = [occ for occ, pred in body_preds[i] if delta.get(pred)]
        for occ in reads:
            plan = program.plan(i, occ)
            derived = _fire(plan, [delta if j == occ else db for j in plan.reads])
            if derived:
                fresh.setdefault(head_preds[i], set()).update(derived)
    return fresh


_EMPTY: frozenset = frozenset()

# operations a plan runs after binding a level's slots
_NEQ, _TEST, _COMPUTE, _MEMBER = range(4)


def _getter(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function from a sequence to the tuple of its items at `idx`."""
    if len(idx) == 1:
        only = idx[0]
        return lambda seq: (seq[only],)
    return operator.itemgetter(*idx) if idx else (lambda seq: ())


def _next_literal(remaining: list[int], needs: dict[int, set[int]],
                  variables: list[set[int]], bound: set[int]) -> int | None:
    """The body literal a plan places next, of the `remaining` ones in body
    order: the first negated or built-in literal whose `needs` are bound,
    else the first positive literal sharing a bound variable, else the first
    positive literal; None when no literal can run."""
    sharing = positive = None
    for i in remaining:
        need = needs.get(i)
        if need is None:
            if positive is None:
                positive = i
            if sharing is None and not bound.isdisjoint(variables[i]):
                sharing = i
        elif need <= bound:
            return i
    return positive if sharing is None else sharing


class _Plan:
    """A rule body compiled to operations on slots, in the order it runs.

    Each variable and each constant of the rule owns one slot of a list;
    constants are written into theirs once, so every argument is a slot
    index.  The literals are ordered as they are compiled: `first` (a body
    index, or None) runs first; then a negated or built-in literal runs as
    soon as its inputs are bound, and otherwise the first positive literal
    sharing a bound variable is scanned, else the first positive literal.  A
    rule is unsafe when no literal can run or a head variable stays unbound.

    The body splits into levels.  Level 0 holds the operations that need no
    scan; each further level scans one positive literal that has free
    positions, binds the free ones, and then runs the operations its bindings
    made ready: `!=`, the other built-ins, and membership probes of fully
    bound literals, negated or not.  A scan reads a hash index on its bound
    positions; with none, a blocking-key index on a free position that a
    built-in with keys compares with a bound slot; else every tuple.
    """

    def __init__(self, rule: Rule, first: int | None, builtins: Mapping[str, Builtin]):
        # slots by variable and by constant (a `Var` never equals a string)
        slot_of: dict[Term, int] = {}
        self.initial: list[str | None] = []
        bound: set[int] = set()

        def slots(args: Sequence[Term]) -> list[int]:
            out = []
            for term in args:
                s = slot_of.get(term)
                if s is None:
                    s = slot_of[term] = len(self.initial)
                    if isinstance(term, Var):
                        self.initial.append(None)
                    else:
                        self.initial.append(term)
                        bound.add(s)
                out.append(s)
            return out

        body = rule.body
        args_of = [slots(lit.args) for lit in body]
        # the variables of each literal (a constant's slot is bound from the start)
        variables = [{s for s in args if self.initial[s] is None} for args in args_of]
        # what a negated or built-in literal needs bound before it can run
        needs = {
            i: set(args[:2] if body[i].pred in builtins else args)
            for i, args in enumerate(args_of)
            if body[i].negated or body[i].pred in builtins
        }
        remaining = list(range(len(body)))

        # the slots that built-ins with blocking keys compare, with the keys
        blockers = [
            (*args[:2], builtins[lit.pred].keys)
            for lit, args in zip(body, args_of)
            if lit.pred in builtins and builtins[lit.pred].keys is not None
        ]

        def blocking(args: list[int]) -> tuple:
            """(position, slot, keys) for a scan of `args`: a built-in with
            keys compares its free position with the bound slot."""
            for a, b, keys in blockers:
                for mine, other in ((a, b), (b, a)):
                    if other in bound and mine not in bound and mine in args:
                        return args.index(mine), other, keys
            return None, None, None

        # body literal index and predicate of each read, in read order
        self.reads: list[int] = []
        self.preds: list[str] = []
        # per level: (scan, operations); a scan is (read, `Database.index` key,
        # key of the slots, (position, slot) bindings, (position, slot)
        # equalities for a variable repeated inside the literal, blocking
        # keys); a scan through blocking keys holds the position whose keys
        # index a stored tuple and the slot whose keys probe the index
        self.levels: list[tuple[tuple, list[tuple]]] = [((None, None, None, (), (), None), [])]
        while True:
            i = first if first in remaining else _next_literal(remaining, needs, variables, bound)
            if i is None:
                break
            remaining.remove(i)
            (pred, _, negated), args = body[i], args_of[i]
            ops = self.levels[-1][1]
            if pred in builtins:
                handler = builtins[pred]
                if handler is NEQ_BUILTIN:
                    ops.append((_NEQ, args[0], args[1]))
                    continue
                inputs = _getter(args[:2])
                if handler.arity == 2:
                    ops.append((_TEST, handler.fn, inputs))
                    continue
                out = args[-1]
                ops.append((_COMPUTE, handler.fn, inputs, out, out in bound))
                bound.add(out)
                continue
            read = len(self.reads)
            self.reads.append(i)
            self.preds.append(pred)
            keyed = [p for p, s in enumerate(args) if s in bound]
            if negated or len(keyed) == len(args):
                ops.append((_MEMBER, read, _getter(args), negated))
                continue
            if keyed:
                index_key = tuple(keyed)
                slot_key = operator.itemgetter(*(args[p] for p in keyed))
                keys = None
            else:
                index_key, slot_key, keys = blocking(args)
            binds, equal = [], []
            for p, s in enumerate(args):
                if p not in keyed:
                    (equal if s in bound else binds).append((p, s))
                    bound.add(s)
            scan = (read, index_key, slot_key, tuple(binds), tuple(equal), keys)
            self.levels.append((scan, []))
        head = slots(rule.head.args)
        if remaining or not bound.issuperset(head):
            raise UnsafeRule(f"rule {format_rule_ast(rule)!r} cannot be safely evaluated")
        self.head = _getter(head)


def _holds(ops: list[tuple], slots: list, rels: list) -> bool:
    """Run a level's operations on the slots; False at the first that fails."""
    for op in ops:
        kind = op[0]
        if kind == _NEQ:
            if slots[op[1]] == slots[op[2]]:
                return False
        elif kind == _TEST:
            if not op[1](*op[2](slots)):
                return False
        elif kind == _COMPUTE:
            value = op[1](*op[2](slots))
            if value is None:
                return False
            if op[4]:
                if slots[op[3]] != value:
                    return False
            else:
                slots[op[3]] = value
        elif (op[2](slots) in rels[op[1]]) == op[3]:
            return False
    return True


def _fire(plan: _Plan, sources: list[Database]) -> set[tuple[str, ...]]:
    """The head tuples of every solution of the plan's body.

    The plan's k-th read reads its relation from `sources[k]`, and a scan
    through an index borrows it from there.  The search runs depth first, one
    iterator per level on an explicit stack (level 0 iterates over one empty
    tuple).  A blocking-key probe reads the index under each key of the
    bound value, and a stored tuple that more than one of them reaches is
    read once.
    """
    out: set[tuple[str, ...]] = set()
    rels = [source.get(pred) for source, pred in zip(sources, plan.preds)]
    slots = list(plan.initial)
    levels = plan.levels
    last = len(levels) - 1
    indexes: list[dict | None] = [None] * len(levels)
    iters: list = [iter(((),))] + [None] * last
    depth = 0
    while depth >= 0:
        (_, _, _, binds, equal, _), ops = levels[depth]
        for tup in iters[depth]:
            for pos, s in binds:
                slots[s] = tup[pos]
            if equal and any(tup[pos] != slots[s] for pos, s in equal):
                continue
            if ops and not _holds(ops, slots, rels):
                continue
            if depth == last:
                out.add(plan.head(slots))
                continue
            depth += 1
            read, index_key, slot_key, _, _, keys = levels[depth][0]
            if index_key is None:
                iters[depth] = iter(rels[read])
                break
            index = indexes[depth]
            if index is None:
                index = indexes[depth] = sources[read].index(plan.preds[read], index_key, keys)
            if keys is None:
                iters[depth] = iter(index.get(slot_key(slots), ()))
            else:
                hits = [index[key] for key in keys(slots[slot_key]) if key in index]
                iters[depth] = iter(hits[0] if len(hits) == 1 else set().union(*hits))
            break
        else:
            depth -= 1
    return out


# ---------------------------------------------------------------------------
# text format


_CONST_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[A-Z_][A-Za-z0-9_]*\Z")
_UNESCAPE_RE = re.compile(r"\\(.)")


def _name(name: str, pattern: re.Pattern, kind: str) -> str:
    """`name`, refused when the parser would not read it back as a `kind`."""
    if not pattern.match(name) or name == "not":
        raise ValidationError(f"{kind} {name!r} cannot be written as a Datalog {kind}")
    return name


def _quoted(constant: str) -> str:
    if _CONST_RE.match(constant):
        return constant
    return '"' + constant.replace("\\", "\\\\").replace('"', '\\"') + '"'


class RuleWriter:
    """Writes rules as `parse_asp` reads them back, for one text.

    A generated program repeats a few names and values many times, so each
    distinct predicate, functor and variable name is checked once and each
    constant formatted once.  A name the parser would not read back is
    refused where the text first writes it.
    """

    def __init__(self) -> None:
        self._plain: set[str] = set()  # checked predicate and functor names
        # the text of each variable and constant written so far (a `Var`
        # never equals a string)
        self._texts: dict[Var | str, str] = {}

    def _checked(self, name: str, kind: str) -> str:
        if name not in self._plain:
            self._plain.add(_name(name, _CONST_RE, kind))
        return name

    def _joined(self, args: tuple) -> str:
        return ", ".join(map(self._term, args))

    def _term(self, term: Term) -> str:
        text = self._texts.get(term)
        if text is not None:
            return text
        if isinstance(term, Var):
            text = _name(term.name, _VAR_RE, "variable")
        elif isinstance(term, Compound):
            inner = self._joined(term.args)
            return f"{self._checked(term.functor, 'functor')}({inner})"
        else:
            text = _quoted(term)
        self._texts[term] = text
        return text

    def literal(self, lit: Literal) -> str:
        pred, args, negated = lit
        prefix = "not " if negated else ""
        if pred == NEQ:
            left, right = args
            return f"{prefix}{self._term(left)} != {self._term(right)}"
        pred = self._checked(pred, "predicate")
        if not args:
            return prefix + pred
        return f"{prefix}{pred}({self._joined(args)})"

    def rule(self, rule: Rule) -> str:
        heads, body = rule
        head_text = " | ".join(map(self.literal, heads))
        if not body:
            return f"{head_text}."
        body_text = ", ".join(map(self.literal, body))
        if not heads:
            return f":- {body_text}."
        return f"{head_text} :- {body_text}."


def format_rule_ast(rule: Rule) -> str:
    """One statement, as `parse_asp` reads it back."""
    return RuleWriter().rule(rule)


# -- parsing ----------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # the name of the pattern group that matched
    text: str
    line: int
    column: int


class Lexer:
    """The tokens of `text` under `pattern`, a compiled regex of named groups.

    Each match of `pattern` skips whitespace and comments and then takes one
    token, of the kind of the group that matched: the `eof` group matches at
    the end of the text and ends the list, and the `error` group takes a
    character no token starts with.  Each token carries the line and column
    it starts at.
    """

    def __init__(self, text: str, pattern: re.Pattern):
        self.tokens: list[Token] = []
        last = line_start = 0
        line = 1
        for match in pattern.finditer(text):
            kind = match.lastgroup
            start = match.start(kind)
            newlines = text.count("\n", last, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", last, start) + 1
            if kind == "error":
                raise ParseError(f"unexpected character {text[start]!r}", line, start - line_start + 1)
            # `tuple.__new__` skips the named tuple's constructor, which is Python code
            self.tokens.append(tuple.__new__(Token, (kind, match[kind], line, start - line_start + 1)))
            if kind == "eof":
                break
            last = start
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        """The next token, which must be of `kind` (and spell `value`); `what`
        names the expectation in the error, by default `value` or `kind`."""
        token = self.next()
        if token.kind != kind or (value is not None and token.text != value):
            if what is None:
                what = repr(value if value is not None else kind)
            raise ParseError(
                f"expected {what}, found {token.text or 'end of input'!r}", token.line, token.column
            )
        return token


_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*)*
    (?: (?P<implication>:-)
      | (?P<neq>!=)
      | (?P<punct>[(),.|])
      | (?P<quoted>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z0-9_][A-Za-z0-9_]*)
      | (?P<eof>\Z)
      | (?P<error>(?s:.))
    )
    """,
    re.VERBOSE,
)


def parse_asp(text: str) -> list[Rule]:
    """Every statement, keeping disjunctions and constraints."""
    lexer = Lexer(text, _TOKEN_RE)
    rules = []
    while lexer.peek().kind != "eof":
        rules.append(_parse_statement(lexer))
    return rules


def parse_program(text: str, builtins: Mapping[str, Builtin] | None = None) -> Program:
    """A plain Datalog program: ground facts and single-head rules."""
    return Program(parse_asp(text), builtins)


def _parse_statement(lexer: Lexer) -> Rule:
    heads: list[Literal] = []
    if lexer.peek().kind == "implication":
        lexer.next()
        body = _parse_body(lexer)
        lexer.expect("punct", ".")
        return Rule((), tuple(body))
    heads.append(_parse_literal(lexer, allow_not=False))
    while lexer.peek()[:2] == ("punct", "|"):
        lexer.next()
        heads.append(_parse_literal(lexer, allow_not=False))
    token = lexer.next()
    if token[:2] == ("punct", "."):
        return Rule(tuple(heads))
    if token.kind != "implication":
        raise ParseError(f"expected ':-' or '.', found {token.text!r}", token.line, token.column)
    body = _parse_body(lexer)
    lexer.expect("punct", ".")
    return Rule(tuple(heads), tuple(body))


def _parse_body(lexer: Lexer) -> list[Literal]:
    body = [_parse_literal(lexer, allow_not=True)]
    while lexer.peek()[:2] == ("punct", ","):
        lexer.next()
        body.append(_parse_literal(lexer, allow_not=True))
    return body


def _parse_literal(lexer: Lexer, allow_not: bool) -> Literal:
    negated = False
    start = lexer.peek()
    if start[:2] == ("ident", "not"):
        if not allow_not:
            raise ParseError("negation is not allowed here", start.line, start.column)
        lexer.next()
        negated = True
    term = _parse_term(lexer)
    if lexer.peek().kind == "neq":
        lexer.next()
        right = _parse_term(lexer)
        return Literal(NEQ, (term, right), negated)
    if isinstance(term, Compound):
        return Literal(term.functor, term.args, negated)
    if isinstance(term, Var):
        raise ParseError(
            f"predicate name expected, found variable {term.name!r}", start.line, start.column
        )
    return Literal(term, (), negated)


def _parse_term(lexer: Lexer) -> Term:
    kind, value, line, column = lexer.next()
    if kind == "quoted":
        return _UNESCAPE_RE.sub(r"\1", value[1:-1])
    if kind != "ident":
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", line, column)
    if lexer.peek()[:2] == ("punct", "("):
        lexer.next()
        args = []
        if lexer.peek()[:2] != ("punct", ")"):
            args.append(_parse_term(lexer))
            while lexer.peek()[:2] == ("punct", ","):
                lexer.next()
                args.append(_parse_term(lexer))
        lexer.expect("punct", ")")
        return Compound(value, tuple(args))
    if value[0].isupper() or value[0] == "_":
        return Var(value)
    return value
