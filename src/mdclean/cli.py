"""Command-line front end: load the inputs, run one command, write one output.

Exit codes: 0 success, 1 malformed input (syntax or structural validation,
or a command line that does not parse), 2 semantic refusal at run time
(diverging rule set, undefined merge, limits), 3 I/O failure.  Outputs
depend only on the inputs and --seed, byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_STEP_LIMIT,
    MdcleanError,
    ParseError,
    UnknownDomain,
    ValidationError,
    check_step_limit,
)
from .model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

if TYPE_CHECKING:
    from .mdlang import BoundMD, MatchingDependency
    from .query import ConjunctiveQuery

# The names of the other layers that the commands call, by the module that
# defines them.  A module is imported the first time one of its names is read
# as an attribute of this module, through `__getattr__`, so each command loads
# only the layers it runs.  The commands read these names through `_cli`, this
# module, so that one replaced on it, as a tracer does, is the one they call.
_LAYER_NAMES = {
    "ChaseEngine": "chase",
    "Verdict": "classify",
    "classify": "classify",
    "emit_general_asp": "codegen",
    "emit_residual_datalog": "codegen",
    "evaluate_residual": "codegen",
    "load_mds": "mdlang",
    "validate_mds": "mdlang",
    "certain_answers": "query",
    "load_queries": "query",
    "validate_query": "query",
}


def __getattr__(name):
    """The name `name` of another layer, imported on first use and then bound here."""
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f"{__package__}.{_LAYER_NAMES[name]}")
    value = globals()[name] = getattr(layer, name)
    return value


_cli = sys.modules[__name__]


@contextmanager
def _blame(path):
    """Prefix the message of an input error raised inside with the file it came
    from, in place, so it keeps its class and attributes (a file that does not
    decode is a `ParseError`); with no file, the error passes unchanged."""
    try:
        yield
    except (MdcleanError, UnicodeDecodeError) as exc:
        if path is None:
            raise
        if isinstance(exc, MdcleanError):
            exc.args = (f"{path}: {exc}",)
            raise
        raise ParseError(f"{path}: {exc}") from exc


class Inputs:
    """Lazy bundle of the input files named on the command line.

    The one place where inputs are loaded and checked against the schema:
    every command, `validate` included, goes through these methods.
    """

    def __init__(self, args):
        self.args = args
        with _blame(args.schema):
            self.schema = Schema.load(args.schema)

    def instance(self) -> Instance:
        with _blame(self.args.instance):
            return Instance.load(self.schema, self.args.instance)

    def mds(self) -> list[MatchingDependency]:
        with _blame(self.args.mds):
            return _cli.load_mds(self.args.mds)

    def check_mds(self, mds: list[MatchingDependency], mf: MatchingFunction) -> list[BoundMD]:
        with _blame(self.args.mds):
            return _cli.validate_mds(mds, self.schema, mf)

    def sim(self) -> SimilarityRelation:
        return self._declarations(SimilarityRelation, self.args.sim, "similarity")

    def mf(self) -> MatchingFunction:
        return self._declarations(MatchingFunction, self.args.mf, "matching function")

    def _declarations(self, cls, path, kind):
        """`cls` loaded from `path`, empty without one, refused when it
        declares a domain the schema does not have."""
        if path is None:
            return cls()
        with _blame(path):
            declared = cls.load(path)
            for dom in sorted(set(declared.declared_domains()) - self.schema.domains()):
                raise UnknownDomain(f"{kind} declared on unknown domain {dom!r}")
        return declared

    def saturated(self, instance, sim, mf):
        active = collect_active_values(instance, sim)
        with _blame(self.args.mf):
            return mf.saturate(active)

    def queries(self) -> list[ConjunctiveQuery]:
        with _blame(self.args.query):
            queries = _cli.load_queries(self.args.query)
            for query in queries:
                _cli.validate_query(query, self.schema)
        return queries

    def setting(self):
        instance = self.instance()
        mds = self.mds()
        sim = self.sim()
        mf = self.mf()
        return instance, self.check_mds(mds, mf), sim, self.saturated(instance, sim, mf)


def _instance_lines(instance: Instance) -> list[str]:
    return [f"{rel}({', '.join((tid, *vals))})" for rel, tid, vals in instance.iter_tuples()]


def _json_text(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline, for a
    payload of dicts with string keys, lists, strings, ints, booleans and
    None, written without the pure-Python encoder that `json.dumps` runs
    when given `indent`."""
    out: list[str] = []
    _write_json(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append `value`'s JSON text to `out`, nested at the indent `newline` ends with."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")


def _render(args, payload, text_lines) -> str:
    if args.format == "json":
        return _json_text(payload)
    return "\n".join(text_lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> str:
    inputs = Inputs(args)
    checked = {"schema": f"{len(inputs.schema.relation_names())} relations"}
    instance = sim = None
    if args.instance is not None:
        instance = inputs.instance()
        checked["instance"] = f"{instance.total_tuples()} tuples"
    if args.sim is not None:
        sim = inputs.sim()
        checked["sim"] = f"domains {', '.join(sim.declared_domains()) or '(none)'}"
    # without --mf the rules are bound against no matching function, as every command binds them
    mf = inputs.mf()
    if args.mf is not None:
        inputs.saturated(instance, sim, mf)
        checked["mf"] = f"domains {', '.join(mf.declared_domains()) or '(none)'}"
    if args.mds is not None:
        checked["mds"] = f"{len(inputs.check_mds(inputs.mds(), mf))} rules"
    if args.query is not None:
        checked["query"] = f"{len(inputs.queries())} queries"
    lines = [f"{kind}: ok ({detail})" for kind, detail in checked.items()]
    return _render(args, {"ok": True, "checked": checked}, lines)


def cmd_classify(args) -> str:
    payload = _cli.classify(*Inputs(args).setting()).to_json_dict()
    lines = [f"verdict: {payload['verdict']}"]
    for pair in payload["interaction_pairs"]:
        lines.append(f"pair: {pair['writer']} writes {pair['attribute']} read by {pair['reader']}")
    for query in payload["queries"]:
        state = "satisfied" if query["satisfied"] else "unsatisfied"
        lines.append(f"query {query['name']}: {state}")
    return _render(args, payload, lines)


def cmd_chase(args) -> str:
    instance, rules, sim, smf = Inputs(args).setting()
    engine = _cli.ChaseEngine(rules, sim, smf)
    if args.all:
        result = engine.chase_all(instance, step_limit=args.step_limit)
    else:
        result = engine.chase_one(instance, seed=args.seed, step_limit=args.step_limit)
    payload = {
        "count": len(result.instances),
        "instances": [inst.to_json_dict() for inst in result.instances],
        "steps": [[step.to_json_dict() for step in seq] for seq in result.sequences],
    }
    lines = []
    for i, (inst, seq) in enumerate(zip(result.instances, result.sequences), start=1):
        lines.append(f"clean instance {i} ({len(seq)} steps)")
        lines.extend("  " + row for row in _instance_lines(inst))
    return _render(args, payload, lines)


def cmd_emit_asp(args) -> str:
    return _cli.emit_general_asp(*Inputs(args).setting()).text()


def cmd_emit_datalog(args) -> str:
    setting = Inputs(args).setting()
    return _cli.emit_residual_datalog(*setting, _cli.classify(*setting)).text()


def cmd_solve(args) -> str:
    setting = Inputs(args).setting()
    _, rules, sim, smf = setting
    residual = _cli.emit_residual_datalog(*setting, _cli.classify(*setting))
    clean = _cli.evaluate_residual(residual, _cli.ChaseEngine(rules, sim, smf))
    return _render(args, clean.to_json_dict(), _instance_lines(clean))


def cmd_answer(args) -> str:
    inputs = Inputs(args)
    setting = inputs.setting()
    instance, rules, sim, smf = setting
    queries = inputs.queries()
    # the residual route runs no chase, so it would never check the budget
    check_step_limit(args.step_limit)
    verdict = _cli.classify(*setting)
    engine = _cli.ChaseEngine(rules, sim, smf)
    if verdict.verdict is _cli.Verdict.GENERAL:
        clean_instances = list(engine.chase_all(instance, step_limit=args.step_limit).instances)
    else:
        residual = _cli.emit_residual_datalog(*setting, verdict)
        clean_instances = [_cli.evaluate_residual(residual, engine)]
    payload = []
    lines = []
    for query in queries:
        answers = sorted(_cli.certain_answers(clean_instances, query, sim))
        payload.append({"query": query.name, "answers": [list(a) for a in answers]})
        if answers:
            lines.extend(f"{query.name}({', '.join(a)})" for a in answers)
        else:
            lines.append(f"{query.name}: no certain answers")
    return _render(args, payload, lines)


# ---------------------------------------------------------------------------
# wiring


def _add_io_flags(parser):
    parser.add_argument("--out", metavar="FILE", help="write the output here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="result encoding for structured outputs (default json)",
    )


def _add_input_flags(parser, *, instance=True, mds=True, query=False):
    parser.add_argument("--schema", required=True, metavar="FILE",
                        help="relation declarations, one `Name(Attr: domain, ...)` per line")
    parser.add_argument("--instance", required=instance, metavar="PATH",
                        help="JSON instance file, or a directory of `<Relation>.csv` files")
    parser.add_argument("--mds", required=mds, metavar="FILE", help="matching dependency rules")
    parser.add_argument("--sim", metavar="FILE", help="similarity pairs per domain")
    parser.add_argument("--mf", metavar="FILE", help="matching function tables per domain")
    parser.add_argument("--query", required=query, metavar="FILE", help="conjunctive queries")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdclean",
        description="Clean a database instance by enforcing matching dependencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate",
                       help="load the given inputs and run the checks every command runs on them")
    _add_input_flags(p, instance=False, mds=False)
    _add_io_flags(p)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("classify", help="report the rule interaction class for this input")
    _add_input_flags(p)
    _add_io_flags(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("chase", help="enforce the rules to a stable instance")
    _add_input_flags(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="enumerate every reachable stable instance")
    group.add_argument("--one", action="store_true", help="follow one seeded enforcement order (default)")
    p.add_argument("--seed", type=int, default=0, help="rule priority seed for --one (default 0)")
    p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT,
                   help=f"abort after this many enforcement steps (default {DEFAULT_STEP_LIMIT})")
    _add_io_flags(p)
    p.set_defaults(run=cmd_chase)

    p = sub.add_parser("emit-asp", help="write the disjunctive cleaning program")
    _add_input_flags(p)
    p.add_argument("--out", metavar="FILE", help="write the program here instead of stdout")
    p.set_defaults(run=cmd_emit_asp)

    p = sub.add_parser("emit-datalog", help="write the residual Datalog program (refused when diverging)")
    _add_input_flags(p)
    p.add_argument("--out", metavar="FILE", help="write the program here instead of stdout")
    p.set_defaults(run=cmd_emit_datalog)

    p = sub.add_parser("solve", help="evaluate the residual program and print the clean instance")
    _add_input_flags(p)
    _add_io_flags(p)
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("answer", help="certain answers of the queries over all clean instances")
    _add_input_flags(p, query=True)
    p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT,
                   help=f"abort after this many enforcement steps (default {DEFAULT_STEP_LIMIT})")
    _add_io_flags(p)
    p.set_defaults(run=cmd_answer)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a command line it refuses, after printing the
        # usage; that is malformed input here, and 2 a semantic refusal
        return 1 if exc.code == 2 else exc.code
    try:
        text = args.run(args)
        if args.out is not None:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ParseError, ValidationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MdcleanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
