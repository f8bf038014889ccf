"""Command-line front end: load the inputs, run one command, write one output.

Exit codes: 0 success, 1 malformed input (syntax or structural validation),
2 semantic refusal at run time (diverging rule set, undefined merge, limits),
3 I/O failure.  Outputs depend only on the inputs and --seed, byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .chase import DEFAULT_STEP_LIMIT, ChaseEngine, check_step_limit
from .classify import Verdict, classify
from .codegen import emit_general_asp, emit_residual_datalog, evaluate_residual
from .errors import MdcleanError, ParseError, UnknownDomain, ValidationError
from .mdlang import MDSet, load_mds, validate_mds
from .model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)
from .query import ConjunctiveQuery, certain_answers, load_queries, validate_query


@contextmanager
def _blame(path):
    """Prefix an input error raised inside with the file it came from, keeping
    its class (a file that does not decode is a `ParseError`); with no file,
    the error passes unchanged."""
    try:
        yield
    except (MdcleanError, UnicodeDecodeError) as exc:
        if path is None:
            raise
        cls = exc.__class__ if isinstance(exc, MdcleanError) else ParseError
        wrapped = cls.__new__(cls)
        MdcleanError.__init__(wrapped, f"{path}: {exc}")
        raise wrapped from exc


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

    def mds(self) -> MDSet:
        with _blame(self.args.mds):
            return load_mds(self.args.mds)

    def check_mds(self, mds: MDSet, mf: MatchingFunction | None) -> None:
        with _blame(self.args.mds):
            validate_mds(mds, self.schema, mf)

    def sim(self) -> SimilarityRelation:
        if self.args.sim is None:
            return SimilarityRelation()
        with _blame(self.args.sim):
            sim = SimilarityRelation.load(self.args.sim)
            for dom in self._unknown(sim.declared_domains()):
                raise UnknownDomain(f"similarity declared on unknown domain {dom!r}")
        return sim

    def mf(self) -> MatchingFunction:
        if self.args.mf is None:
            return MatchingFunction()
        with _blame(self.args.mf):
            mf = MatchingFunction.load(self.args.mf)
            for dom in self._unknown(mf.declared_domains()):
                raise ValidationError(f"unknown domain {dom!r}")
        return mf

    def _unknown(self, domains) -> list[str]:
        known = self.schema.domains()
        return [dom for dom in domains if dom not in known]

    def saturated(self, instance, sim, mf):
        active = collect_active_values(self.schema, instance, sim, mf)
        with _blame(self.args.mf):
            return mf.saturate(active)

    def queries(self) -> list[ConjunctiveQuery]:
        with _blame(self.args.query):
            queries = load_queries(self.args.query)
            for query in queries:
                validate_query(query, self.schema)
        return queries

    def setting(self):
        instance = self.instance()
        mds = self.mds()
        sim = self.sim()
        mf = self.mf()
        self.check_mds(mds, mf)
        return instance, mds, sim, self.saturated(instance, sim, mf)


def _instance_lines(instance: Instance) -> list[str]:
    return [
        f"{rel}({tid}, {', '.join(vals)})" for rel, tid, vals in instance.iter_tuples()
    ]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(args, payload, text_lines) -> str:
    if args.format == "json":
        return _json_text(payload)
    return "\n".join(text_lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> str:
    inputs = Inputs(args)
    checked = {"schema": f"{len(inputs.schema.relation_names())} relations"}
    instance = sim = mf = None
    if args.instance is not None:
        instance = inputs.instance()
        checked["instance"] = f"{instance.total_tuples()} tuples"
    if args.sim is not None:
        sim = inputs.sim()
        checked["sim"] = f"domains {', '.join(sim.declared_domains()) or '(none)'}"
    if args.mf is not None:
        mf = inputs.mf()
        inputs.saturated(instance, sim, mf)
        checked["mf"] = f"domains {', '.join(mf.declared_domains()) or '(none)'}"
    if args.mds is not None:
        mds = inputs.mds()
        inputs.check_mds(mds, mf)
        checked["mds"] = f"{len(mds)} rules"
    if args.query is not None:
        checked["query"] = f"{len(inputs.queries())} queries"
    lines = [f"{kind}: ok ({detail})" for kind, detail in checked.items()]
    return _render(args, {"ok": True, "checked": checked}, lines)


def cmd_classify(args) -> str:
    inputs = Inputs(args)
    instance, mds, sim, smf = inputs.setting()
    report = classify(mds, inputs.schema, instance, sim, smf)
    payload = report.to_json_dict()
    lines = [f"verdict: {payload['verdict']}"]
    for pair in payload["interaction_pairs"]:
        lines.append(f"pair: {pair['writer']} writes {pair['attribute']} read by {pair['reader']}")
    for query in payload["queries"]:
        state = "satisfied" if query["satisfied"] else "unsatisfied"
        lines.append(f"query {query['name']}: {state}")
    return _render(args, payload, lines)


def cmd_chase(args) -> str:
    inputs = Inputs(args)
    instance, mds, sim, smf = inputs.setting()
    engine = ChaseEngine(inputs.schema, mds, sim, smf)
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
    inputs = Inputs(args)
    instance, mds, sim, smf = inputs.setting()
    return emit_general_asp(inputs.schema, instance, mds, sim, smf).text()


def _residual(inputs):
    instance, mds, sim, smf = inputs.setting()
    verdict = classify(mds, inputs.schema, instance, sim, smf)
    return emit_residual_datalog(inputs.schema, instance, mds, sim, smf, verdict)


def cmd_emit_datalog(args) -> str:
    return _residual(Inputs(args)).text()


def cmd_solve(args) -> str:
    inputs = Inputs(args)
    clean = evaluate_residual(_residual(inputs))
    instance = Instance(inputs.schema, clean)
    return _render(args, instance.to_json_dict(), _instance_lines(instance))


def cmd_answer(args) -> str:
    inputs = Inputs(args)
    instance, mds, sim, smf = inputs.setting()
    queries = inputs.queries()
    # the residual route runs no chase, so it would never check the budget
    check_step_limit(args.step_limit)
    verdict = classify(mds, inputs.schema, instance, sim, smf)
    if verdict.verdict is Verdict.GENERAL:
        engine = ChaseEngine(inputs.schema, mds, sim, smf)
        clean_instances = list(engine.chase_all(instance, step_limit=args.step_limit).instances)
    else:
        residual = emit_residual_datalog(inputs.schema, instance, mds, sim, smf, verdict)
        clean_instances = [Instance(inputs.schema, evaluate_residual(residual))]
    payload = []
    lines = []
    for query in queries:
        answers = sorted(certain_answers(clean_instances, query, sim))
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
    args = _parser().parse_args(argv)
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
