"""Schemas, instances, similarity relations, and matching functions.

Values are opaque strings.  A matching function on a domain is a partial
binary operation that is idempotent, commutative, and associative; a declared
table is completed ("saturated") by reading every named value as the join of
the base values it is built from, so that any pair whose join lands on a named
value gets a result even when no chain of declared equations reaches it.  The
induced order a <= b iff m(a, b) = b tells old tuple versions from current
ones.  A saturated domain is its merge, its order and its values, the shape
of a built-in's `MF_RULES` entry; the Datalog built-ins call the first two.
"""

from __future__ import annotations

import functools
import io
import json
import operator
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError, SemilatticeViolation, ValidationError

if TYPE_CHECKING:
    from .unions import TokenUnions

TID_ATTR = "tid"


def tokens(value: str) -> frozenset[str]:
    """Whitespace-separated token set of a value."""
    return frozenset(value.split())


def token_canonical(toks: frozenset[str]) -> str:
    return " ".join(sorted(toks))


# ---------------------------------------------------------------------------
# declaration files


def read_text(path: str | Path, newline: str | None = None) -> str:
    """An input file's text, decoded as UTF-8 after a byte-order mark if one
    leads it; `newline` is `open`'s, by default reading every line end as `\\n`."""
    with open(path, encoding="utf-8-sig", newline=newline) as file:
        return file.read()


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Each non-blank line with its number, `#` comment cut and stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_domains(cls, text: str, kind: str, rules: Mapping, is_entry, read_entry):
    """`cls(entries, builtins)` from `domain: ...` lines.  A line `domain: builtin <rule>`
    names one of `rules` unless `is_entry` claims it; `read_entry(rest, line)` reads the rest."""
    entries: dict[str, list] = {}
    builtins: dict[str, str] = {}
    for lineno, line in _lines(text):
        if ":" not in line:
            raise ParseError("expected `domain: ...`", lineno)
        dom, rest = line.split(":", 1)
        dom, rest = dom.strip(), rest.strip()
        if is_entry(rest) or not rest.startswith("builtin"):
            entries.setdefault(dom, []).append(read_entry(rest, lineno))
            continue
        rule = rest[len("builtin"):].strip()
        if rule not in rules:
            raise ParseError(f"unknown {kind} built-in {rule!r}", lineno)
        if builtins.setdefault(dom, rule) != rule:
            raise ParseError(f"conflicting built-in for domain {dom!r}", lineno)
    try:
        return cls(entries, builtins)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# schema


class _RelationFields(NamedTuple):
    name: str
    attrs: tuple[str, ...]
    domains: tuple[str, ...]


class Relation(_RelationFields):
    """A relation name with its non-identifier attributes and their domains.

    The tuple identifier occupies an implicit first position named `tid` and
    has no domain; it never takes part in similarity or matching.
    """

    __slots__ = ()

    def __new__(cls, name: str, attrs: tuple[str, ...], domains: tuple[str, ...]):
        if not name:
            raise ValidationError("relation name must be non-empty")
        if len(attrs) != len(domains):
            raise ValidationError(f"relation {name}: attribute/domain count mismatch")
        if len(set(attrs)) != len(attrs):
            raise ValidationError(f"relation {name}: duplicate attribute name")
        if TID_ATTR in attrs:
            raise ValidationError(f"relation {name}: {TID_ATTR!r} is reserved for the identifier column")
        return super().__new__(cls, name, attrs, domains)

    @property
    def arity(self) -> int:
        """Number of non-identifier attributes."""
        return len(self.attrs)

    def position(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ValidationError(f"relation {self.name} has no attribute {attr!r}") from None


def _plain_name(name: str, lineno: int) -> str:
    """`name`, refused when it holds a character of the schema syntax."""
    for char in name:
        if char in "():,":
            raise ParseError(f"unexpected {char!r} in name {name!r}", lineno)
    return name


class Schema:
    """A fixed collection of relations, indexed by name.

    Generated programs lower-case relation and domain names, so two relation
    names, or two domain names, that differ only by case are refused.
    """

    def __init__(self, relations: Iterable[Relation]):
        self.relations: dict[str, Relation] = {}
        for rel in relations:
            if rel.name in self.relations:
                raise ValidationError(f"duplicate relation {rel.name}")
            self.relations[rel.name] = rel
        for kind, names in (("relation", self.relations), ("domain", self.domains())):
            folded: dict[str, str] = {}
            for name in sorted(names):
                other = folded.setdefault(name.lower(), name)
                if other != name:
                    raise ValidationError(
                        f"{kind} names {other!r} and {name!r} differ only by case"
                    )

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise ValidationError(f"unknown relation {name!r}") from None

    def domains(self) -> frozenset[str]:
        return frozenset(d for rel in self.relations.values() for d in rel.domains)

    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    @classmethod
    def parse(cls, text: str) -> "Schema":
        """Parse lines of the form `R(A: doma, B: domb)`.  `#` starts a comment."""
        relations = []
        for lineno, line in _lines(text):
            if "(" not in line or not line.endswith(")"):
                raise ParseError("expected `Name(attr: domain, ...)`", lineno)
            name, body = line[:-1].split("(", 1)
            name = _plain_name(name.strip(), lineno)
            attrs, domains = [], []
            if body.strip():
                for part in body.split(","):
                    if ":" not in part:
                        raise ParseError(f"attribute {part.strip()!r} needs a `: domain`", lineno)
                    attr, dom = part.split(":", 1)
                    attr, dom = attr.strip(), dom.strip()
                    if not attr or not dom:
                        raise ParseError("empty attribute or domain name", lineno)
                    attrs.append(_plain_name(attr, lineno))
                    domains.append(_plain_name(dom, lineno))
            relations.append(Relation(name, tuple(attrs), tuple(domains)))
        return cls(relations)

    @classmethod
    def load(cls, path: str | Path) -> "Schema":
        return cls.parse(read_text(path))


# ---------------------------------------------------------------------------
# instances


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refused when a key repeats (`json` keeps its last value)."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"key {key!r} repeated in one JSON object")
        out[key] = value
    return out


def _add_row(rows: dict, tid: str, value) -> None:
    """Store `value` under a tuple identifier not used before."""
    if tid in rows:
        raise ValidationError(f"tuple identifier {tid!r} used more than once")
    rows[tid] = value


def _read_row(rows: dict, tid: str, values: Iterable[str]) -> None:
    """Store a row of either instance format, its identifier and values stripped."""
    _add_row(rows, tid.strip(), tuple(v.strip() for v in values))


class Instance:
    """Identified tuples, each a vector of current values, with an entry for
    every relation of the schema.

    Instances are treated as immutable: the chase builds a new instance for
    each state it returns.
    """

    def __init__(
        self,
        schema: Schema,
        tuples: Mapping[str, Mapping[str, Sequence[str]]],
    ):
        self.schema = schema
        self.tuples: dict[str, dict[str, tuple[str, ...]]] = {}
        seen_tids: dict[str, str] = {}
        for rel_name in tuples:
            rel = schema.relation(rel_name)
            rows: dict[str, tuple[str, ...]] = {}
            for tid, vals in tuples[rel_name].items():
                if not tid:
                    raise ValidationError(f"{rel_name}: empty tuple identifier")
                vec = tuple(str(v) for v in vals)
                if len(vec) != rel.arity:
                    raise ValidationError(
                        f"{rel_name}/{tid}: expected {rel.arity} values, got {len(vec)}"
                    )
                _add_row(seen_tids, tid, rel_name)
                rows[tid] = vec
            self.tuples[rel_name] = rows
        for rel_name in schema.relation_names():
            self.tuples.setdefault(rel_name, {})

    def iter_tuples(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        for rel in sorted(self.tuples):
            for tid in sorted(self.tuples[rel]):
                yield rel, tid, self.tuples[rel][tid]

    def total_tuples(self) -> int:
        return sum(len(rows) for rows in self.tuples.values())

    def to_json_dict(self) -> dict:
        out: dict[str, list[dict[str, str]]] = {}
        for rel in sorted(self.tuples):
            attrs = self.schema.relation(rel).attrs
            rows = []
            for tid in sorted(self.tuples[rel]):
                row = {TID_ATTR: tid}
                row.update(zip(attrs, self.tuples[rel][tid]))
                rows.append(row)
            out[rel] = rows
        return out

    @classmethod
    def from_json_dict(cls, schema: Schema, data: Mapping) -> "Instance":
        if not isinstance(data, Mapping):
            raise ValidationError("an instance is an object of row lists keyed by relation")
        tuples: dict[str, dict[str, tuple[str, ...]]] = {}
        for rel_name, rows in data.items():
            rel = schema.relation(rel_name)
            if not isinstance(rows, list):
                raise ValidationError(f"{rel_name}: rows must be a list")
            out_rows: dict[str, tuple[str, ...]] = {}
            for number, row in enumerate(rows, start=1):
                if not isinstance(row, Mapping):
                    raise ValidationError(f"{rel_name}: each row must be an object")
                if TID_ATTR not in row:
                    raise ValidationError(f"{rel_name}: row without {TID_ATTR!r} field")
                extra = set(row) - set(rel.attrs) - {TID_ATTR}
                if extra:
                    raise ValidationError(f"{rel_name}: unknown fields {sorted(extra)}")
                missing = set(rel.attrs) - set(row)
                if missing:
                    raise ValidationError(f"{rel_name}: missing fields {sorted(missing)}")
                for attr in (TID_ATTR, *rel.attrs):
                    if not isinstance(row[attr], str):
                        raise ValidationError(
                            f"{rel_name}: row {number}: field {attr!r} must be a string, "
                            f"got {json.dumps(row[attr])}"
                        )
                _read_row(out_rows, row[TID_ATTR], (row[a] for a in rel.attrs))
            tuples[rel_name] = out_rows
        return cls(schema, tuples)

    @classmethod
    def from_csv_dir(cls, schema: Schema, directory: str | Path) -> "Instance":
        """Load one `<relation>.csv` per relation; the header names the columns.

        A CSV file named after no relation is refused, as a JSON key is.
        """
        import csv  # here, its one use, so that a command reading no CSV never loads it

        directory = Path(directory)
        for path in sorted(directory.glob("*.csv")):
            schema.relation(path.stem)
        tuples: dict[str, dict[str, tuple[str, ...]]] = {}
        for rel_name in schema.relation_names():
            path = directory / f"{rel_name}.csv"
            if not path.exists():
                continue
            rel = schema.relation(rel_name)
            try:
                text = read_text(path, newline="")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from None
            reader = csv.reader(io.StringIO(text, newline=""))
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if header != [TID_ATTR, *rel.attrs]:
                raise ValidationError(
                    f"{path}: header {header} does not match [{TID_ATTR}, {', '.join(rel.attrs)}]"
                )
            rows: dict[str, tuple[str, ...]] = {}
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 1 + rel.arity:
                    raise ValidationError(f"{path}:{lineno}: expected {1 + rel.arity} fields")
                _read_row(rows, row[0], row[1:])
            tuples[rel_name] = rows
        return cls(schema, tuples)

    @classmethod
    def load(cls, schema: Schema, path: str | Path) -> "Instance":
        path = Path(path)
        if path.is_dir():
            return cls.from_csv_dir(schema, path)
        try:
            data = json.loads(read_text(path), object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from None
        return cls.from_json_dict(schema, data)


# ---------------------------------------------------------------------------
# similarity


# each similarity built-in's test of two distinct undeclared values (None:
# never) and the blocking keys it adds to a value's, given the token sets of
# values; two values the test relates share one of these keys
SIM_RULES: dict[str, tuple[Callable[..., bool] | None, Callable[..., Iterable[str]]]] = {
    "exact-equality": (None, lambda toks, v: ()),
    "token-overlap": (lambda toks, a, b: not toks[a].isdisjoint(toks[b]), lambda toks, v: toks[v]),
}


class _TokenSets(dict):
    """Each value's `tokens`, split on first use."""

    def __missing__(self, value: str) -> frozenset[str]:
        toks = self[value] = tokens(value)
        return toks


class _Keys(dict):
    """A domain's blocking keys of each value, found on first use: the value,
    each declared pair holding it, then what the domain's built-in rule adds."""

    def __init__(self, pairs: Iterable[frozenset[str]], rule_keys: Callable[[str], Iterable[str]]):
        super().__init__()
        self.pairs: dict[str, list[frozenset[str]]] = {}
        for pair in pairs:
            for value in pair:
                self.pairs.setdefault(value, []).append(pair)
        self.rule_keys = rule_keys

    def __missing__(self, value: str) -> tuple:
        keys = self[value] = tuple(
            dict.fromkeys((value, *self.pairs.get(value, ()), *self.rule_keys(value)))
        )
        return keys


def _read_pair(rest: str, lineno: int) -> tuple[str, str]:
    if "~" not in rest:
        raise ParseError("expected `v1 ~ v2` or `builtin <rule>`", lineno)
    left, right = rest.split("~", 1)
    left, right = left.strip(), right.strip()
    if not left or not right:
        raise ParseError("similarity needs two values", lineno)
    return left, right


class SimilarityRelation:
    """Reflexive symmetric similarity, given by pairs and per-domain built-in rules.

    Declared pairs are stored unordered; reflexivity and symmetry are applied
    at query time rather than materialised.  The built-in rules share one
    cache of token sets, which lives as long as the relation, and so do the
    blocking keys of `keys`.
    """

    def __init__(
        self,
        pairs: Mapping[str, Iterable[tuple[str, str]]] | None = None,
        builtins: Mapping[str, str] | None = None,
    ):
        self._pairs: dict[str, set[frozenset[str]]] = {}
        for dom, dom_pairs in (pairs or {}).items():
            bucket = self._pairs.setdefault(dom, set())
            for a, b in dom_pairs:
                bucket.add(frozenset((str(a), str(b))))
        self.builtins: dict[str, str] = dict(builtins or {})
        self._builtins: dict[str, Callable[[str, str], bool] | None] = {}
        self._rule_keys: dict[str, Callable[[str], Iterable[str]]] = {}
        self._keys: dict[str, _Keys] = {}
        token_sets = _TokenSets()
        for dom, rule in (builtins or {}).items():
            if rule not in SIM_RULES:
                raise ValidationError(f"unknown similarity built-in {rule!r} (expected one of {tuple(SIM_RULES)})")
            test, keys = SIM_RULES[rule]
            self._builtins[dom] = None if test is None else functools.partial(test, token_sets)
            self._rule_keys[dom] = functools.partial(keys, token_sets)

    def similar(self, domain: str, a: str, b: str) -> bool:
        if a == b:
            return True
        if frozenset((a, b)) in self._pairs.get(domain, ()):
            return True
        rule = self._builtins.get(domain)
        return rule is not None and rule(a, b)

    def keys(self, domain: str) -> Callable[[str], tuple]:
        """The blocking keys of a value of `domain`, memoised per value.

        Two values `similar` relates share a key: a value keys itself, each
        declared pair holding it, and under `token-overlap` each of its tokens.
        """
        keys = self._keys.get(domain)
        if keys is None:
            rule_keys = self._rule_keys.get(domain, lambda value: ())
            keys = self._keys[domain] = _Keys(self._pairs.get(domain, ()), rule_keys)
        return keys.__getitem__

    def declared_pairs(self, domain: str) -> list[tuple[str, str]]:
        return sorted((min(pair), max(pair)) for pair in self._pairs.get(domain, ()))

    def declared_domains(self) -> list[str]:
        return sorted(set(self._pairs) | set(self._builtins))

    @classmethod
    def parse(cls, text: str) -> "SimilarityRelation":
        """Parse lines `dom: v1 ~ v2` and `dom: builtin token-overlap`; a line
        holding `~` is a pair even when its first value begins with `builtin`."""
        return _read_domains(cls, text, "similarity", SIM_RULES, lambda rest: "~" in rest, _read_pair)

    @classmethod
    def load(cls, path: str | Path) -> "SimilarityRelation":
        return cls.parse(read_text(path))


# ---------------------------------------------------------------------------
# matching functions


def _token_unions(active: frozenset[str]) -> TokenUnions:
    # imported on first use, so that `import mdclean.cli` does not compile it
    from .unions import TokenUnions

    return TokenUnions(active)


# each matching built-in: its merge, its order, and its values given the active ones
MF_RULES: dict[str, tuple[Callable, Callable, Callable]] = {
    # token values compare by token set: merge results are canonical
    # spellings, so requiring match(a, b) == b literally would make the
    # order irreflexive on unnormalised input values
    "token-union": (
        lambda a, b: token_canonical(tokens(a) | tokens(b)),
        lambda a, b: tokens(a) <= tokens(b),
        _token_unions,
    ),
    "value-min": (min, lambda a, b: b <= a, lambda active: active),
    "value-max": (max, lambda a, b: a <= b, lambda active: active),
}

# a domain without a matching function: no merge, equality, no values
_NO_MATCHING = (lambda a, b: None, operator.eq, frozenset)


def _read_equation(rest: str, lineno: int) -> tuple[str, str, str]:
    if not rest.startswith("m(") or "=" not in rest:
        raise ParseError("expected `m(v1, v2) = v3` or `builtin <rule>`", lineno)
    call, result = rest.split("=", 1)
    call = call.strip()
    if not call.startswith("m(") or not call.endswith(")"):
        raise ParseError("expected `m(v1, v2)` on the left of `=`", lineno)
    inner = call[2:-1]
    if inner.count(",") != 1:
        raise ParseError("m(...) takes two comma-separated values", lineno)
    left, right = inner.split(",")
    left, right, result = left.strip(), right.strip(), result.strip()
    if not left or not right or not result:
        raise ParseError("empty value in matching equation", lineno)
    for char in result:
        if char in ",=":
            raise ParseError(f"unexpected {char!r} in value {result!r}", lineno)
    return left, right, result


class MatchingFunction:
    """Declared matching-function equations, before saturation."""

    def __init__(
        self,
        triples: Mapping[str, Iterable[tuple[str, str, str]]] | None = None,
        builtins: Mapping[str, str] | None = None,
    ):
        self.triples: dict[str, list[tuple[str, str, str]]] = {
            dom: [tuple(str(x) for x in t) for t in ts] for dom, ts in (triples or {}).items()
        }
        self.builtins: dict[str, str] = {}
        for dom, rule in (builtins or {}).items():
            if rule not in MF_RULES:
                raise ValidationError(f"unknown matching built-in {rule!r} (expected one of {tuple(MF_RULES)})")
            if dom in self.triples:
                raise ValidationError(f"domain {dom!r} has both a table and a built-in rule")
            self.builtins[dom] = rule

    def declared_domains(self) -> list[str]:
        return sorted(set(self.triples) | set(self.builtins))

    def saturate(self, active: Mapping[str, Iterable[str]]) -> "SaturatedMatchingFunction":
        """Complete every declared domain over the given active values."""
        domains: dict[str, tuple[Callable, Callable, Callable]] = {}
        for dom in sorted(self.triples):
            domains[dom] = _saturate_table(dom, self.triples[dom], frozenset(active.get(dom, ())))
        for dom in sorted(self.builtins):
            merge, order, values_of = MF_RULES[self.builtins[dom]]
            # built only when first asked for, since merging and ordering never need them
            values = functools.cache(functools.partial(values_of, frozenset(active.get(dom, ()))))
            domains[dom] = (merge, order, values)
        return SaturatedMatchingFunction(domains)

    @classmethod
    def parse(cls, text: str) -> "MatchingFunction":
        """Parse lines `dom: m(v1, v2) = v3` and `dom: builtin token-union`."""
        return _read_domains(
            cls, text, "matching", MF_RULES, lambda rest: rest.startswith("m("), _read_equation
        )

    @classmethod
    def load(cls, path: str | Path) -> "MatchingFunction":
        return cls.parse(read_text(path))


def _saturate_table(
    domain: str, triples: Sequence[tuple[str, str, str]], active: frozenset[str]
) -> tuple[Callable, Callable, Callable]:
    """A table's `(merge, order, values)`; every value is a join of base values."""
    declared: dict[tuple[str, str], str] = {}
    for a, b, c in triples:
        for key in ((a, b), (b, a)):
            if declared.setdefault(key, c) != c:
                raise SemilatticeViolation(
                    f"domain {domain!r}: m({key[0]}, {key[1]}) declared as both "
                    f"{declared[key]!r} and {c!r}"
                )
    values = set(active)
    for a, b, c in triples:
        values.update((a, b, c))
    defined = {c for a, b, c in triples if c != a and c != b}
    gens: dict[str, frozenset[str]] = {
        v: frozenset((v,)) if v not in defined else frozenset() for v in values
    }
    changed = True
    while changed:
        changed = False
        for a, b, c in triples:
            union = gens[a] | gens[b]
            if not union <= gens[c]:
                gens[c] = gens[c] | union
                changed = True
    for v in sorted(values):
        if not gens[v]:
            raise SemilatticeViolation(
                f"domain {domain!r}: value {v!r} is defined only in terms of other "
                "defined values (cyclic table)"
            )
    by_gens: dict[frozenset[str], str] = {}
    for v in sorted(values):
        other = by_gens.setdefault(gens[v], v)
        if other != v:
            raise SemilatticeViolation(
                f"domain {domain!r}: values {other!r} and {v!r} denote the same join "
                f"of {sorted(gens[v])}"
            )
    for a, b, c in triples:
        named = by_gens.get(gens[a] | gens[b])
        if named != c:
            raise SemilatticeViolation(
                f"domain {domain!r}: m({a}, {b}) = {c} is not reproduced by the "
                f"completed table (join resolves to {named!r})"
            )

    @functools.cache
    def merge(a: str, b: str) -> str | None:
        ga, gb = gens.get(a), gens.get(b)
        return None if ga is None or gb is None else by_gens.get(ga | gb)

    def order(a: str, b: str) -> bool:
        ga, gb = gens.get(a), gens.get(b)
        if ga is None or gb is None:
            return a == b
        return ga <= gb

    value_set = frozenset(values)
    return merge, order, lambda: value_set


class SaturatedMatchingFunction:
    """Each declared domain's merge, order and values after saturation.

    Domains with no matching function at all still answer: their merge is
    nowhere defined, their induced order is plain equality and they hold no
    values.
    """

    def __init__(self, domains: Mapping[str, tuple[Callable, Callable, Callable]]):
        self._domains = dict(domains)

    def domain(self, domain: str) -> tuple[Callable, Callable, Callable]:
        """The domain's `(merge, order, values)`, the shape of an `MF_RULES` entry."""
        return self._domains.get(domain, _NO_MATCHING)

    def domains(self) -> list[str]:
        return sorted(self._domains)

    def has_mf(self, domain: str) -> bool:
        return domain in self._domains

    def try_match(self, domain: str, a: str, b: str) -> str | None:
        return self._domains.get(domain, _NO_MATCHING)[0](a, b)

    def values(self, domain: str) -> frozenset[str] | TokenUnions:
        return self._domains.get(domain, _NO_MATCHING)[2]()


def collect_active_values(
    instance: Instance | None, sim: SimilarityRelation | None
) -> dict[str, set[str]]:
    """Values mentioned per domain, across instance and similarity pairs; a
    matching function's tables add their own values when it is saturated."""
    active: dict[str, set[str]] = {}
    if instance is not None:
        for rel_name, rows in instance.tuples.items():
            rel = instance.schema.relation(rel_name)
            for vals in rows.values():
                for dom, val in zip(rel.domains, vals):
                    active.setdefault(dom, set()).add(val)
    if sim is not None:
        for dom in sim.declared_domains():
            for a, b in sim.declared_pairs(dom):
                active.setdefault(dom, set()).update((a, b))
    return active
