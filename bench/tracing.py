"""Span tracing at the layer boundaries of mdclean, from outside the package.

`Tracer.installed()` replaces the public functions each layer exposes, at the
module attributes its callers look them up through, with wrappers that record
a span (name, start, end, parent span, command id) in memory and bump the
layer's counters.  The chase is traced through `TracedChaseEngine`, a
`ChaseEngine` subclass that the CLI instantiates in place of the original.
Everything is restored on exit.  A target that a later version of the package
no longer has is skipped and listed in `Tracer.missing`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); each attribute is a plain function looked up
# by its caller through that module's namespace
FUNCTION_TARGETS = [
    ("mdclean.cli", "load_mds", "mdlang.load_mds"),
    ("mdclean.cli", "validate_mds", "mdlang.validate_mds"),
    ("mdclean.chase", "validate_mds", "mdlang.validate_mds"),
    ("mdclean.codegen", "validate_mds", "mdlang.validate_mds"),
    ("mdclean.cli", "classify", "classify.classify"),
    ("mdclean.classify", "is_similarity_preserving", "classify.preserving"),
    ("mdclean.classify", "is_sfai", "classify.sfai"),
    ("mdclean.cli", "emit_residual_datalog", "codegen.emit_residual"),
    ("mdclean.cli", "emit_general_asp", "codegen.emit_asp"),
    ("mdclean.cli", "evaluate_residual", "codegen.evaluate_residual"),
    ("mdclean.codegen", "parse_program", "datalog.parse"),
    ("mdclean.codegen", "parse_asp", "datalog.parse"),
    ("mdclean.codegen", "evaluate", "datalog.evaluate"),
    ("mdclean.datalog", "stratify", "datalog.stratify"),
    ("mdclean.cli", "certain_answers", "query.certain_answers"),
]

# (module, class, attribute, span name) for class and instance methods
METHOD_TARGETS = [
    ("mdclean.model", "Schema", "load", "model.load"),
    ("mdclean.model", "Instance", "load", "model.load"),
    ("mdclean.model", "SimilarityRelation", "load", "model.load"),
    ("mdclean.model", "MatchingFunction", "load", "model.load"),
    ("mdclean.model", "MatchingFunction", "saturate", "model.saturate"),
]


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counters read off a layer's return value."""
    if name == "model.saturate":
        counts["model.values"] += sum(len(result.values(d)) for d in result.domains())
    elif name == "classify.classify":
        counts["classify.queries"] += len(result.queries)
        counts["classify.satisfied"] += sum(1 for q in result.queries if q.satisfied)
    elif name == "codegen.emit_residual":
        counts["codegen.residual_lines"] += result.text().count("\n")
        counts["codegen.residual_facts"] += sum(len(ts) for ts in result.program.facts.values())
        counts["codegen.residual_rules"] += len(result.program.rules)
    elif name == "codegen.emit_asp":
        counts["codegen.asp_statements"] += len(result.statements)
    elif name == "datalog.stratify":
        counts["datalog.strata"] += len(result)
    elif name == "datalog.evaluate":
        counts["datalog.model_facts"] += sum(len(ts) for ts in result.relations.values())
    elif name == "query.certain_answers":
        counts["query.answers"] += len(result)


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1, command id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.command = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            _count_result(self.counts, name, result)
            return result

        return traced

    def run_command(self, main, argv):
        """One CLI command as a root span with its own command id."""
        self.command += 1
        return self.span("cli.main", main, argv)

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for module_name, attr, name in FUNCTION_TARGETS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            for module_name, cls_name, attr, name in METHOD_TARGETS:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    self.missing.append(f"{module_name}.{cls_name}.{attr}")
                    continue
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
            cli = importlib.import_module("mdclean.cli")
            undo.append((cli, "ChaseEngine", cli.ChaseEngine))
            cli.ChaseEngine = _traced_engine(self, cli.ChaseEngine)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, command) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent if parent >= 0 else None, "command": command}
                ) + "\n")


def _traced_engine(tracer: Tracer, base):
    """A subclass of the CLI's chase engine that spans and counts its calls."""

    class TracedChaseEngine(base):
        _in_all = False

        def applicable_steps(self, instance):
            steps = tracer.span("chase.discover", super().applicable_steps, instance)
            tracer.counts["chase.discover_calls"] += 1
            tracer.counts["chase.applicable"] += len(steps)
            if self._in_all:
                tracer.counts["chase.states"] += 1
            return steps

        def enforce(self, instance, step):
            result = tracer.span("chase.enforce", super().enforce, instance, step)
            tracer.counts["chase.enforce_calls"] += 1
            if self._in_all:
                tracer.counts["chase.successors"] += 1
            return result

        def chase_one(self, *args, **kwargs):
            result = tracer.span("chase.chase_one", super().chase_one, *args, **kwargs)
            tracer.counts["chase.steps"] += sum(len(seq) for seq in result.sequences)
            return result

        def chase_all(self, *args, **kwargs):
            self._in_all = True
            try:
                result = tracer.span("chase.chase_all", super().chase_all, *args, **kwargs)
            finally:
                self._in_all = False
            tracer.counts["chase.chase_all.calls"] += 1
            tracer.counts["chase.endpoints"] += len(result.instances)
            return result

    return TracedChaseEngine


def layer_metrics(tracer: Tracer, settings: int) -> dict[str, float]:
    """Per-layer self times and counts, as means per traced setting."""
    self_s = tracer.self_times()
    counts = tracer.counts
    per = max(settings, 1)

    def secs(*names):
        return sum(self_s.get(n, 0.0) for n in names) / per

    def count(*names):
        return sum(counts.get(n, 0) for n in names) / per

    discover_calls = counts.get("chase.discover_calls", 0)
    successors = counts.get("chase.successors", 0)
    # states explored by chase_all, less each run's initial state, over the
    # successor instances it built: 1.0 means no successor was a duplicate
    new_states = counts.get("chase.states", 0) - counts.get("chase.chase_all.calls", 0)
    return {
        "cli.self_s": secs("cli.main"),
        "model.load_s": secs("model.load"),
        "model.loads": count("model.load.calls"),
        "model.saturate_s": secs("model.saturate"),
        "model.values": count("model.values"),
        "mdlang.load_s": secs("mdlang.load_mds", "mdlang.validate_mds"),
        "mdlang.loads": count("mdlang.load_mds.calls", "mdlang.validate_mds.calls"),
        "classify.self_s": secs("classify.classify"),
        "classify.preserving_s": secs("classify.preserving"),
        "classify.sfai_s": secs("classify.sfai"),
        "classify.queries": count("classify.queries"),
        "classify.satisfied": count("classify.satisfied"),
        "chase.discover_s": secs("chase.discover"),
        "chase.discover_calls": count("chase.discover_calls"),
        "chase.applicable_per_call": counts.get("chase.applicable", 0) / max(discover_calls, 1),
        "chase.steps": count("chase.steps"),
        "chase.chase_one_s": secs("chase.chase_one"),
        "chase.enforce_s": secs("chase.enforce"),
        "chase.enforce_calls": count("chase.enforce_calls"),
        "chase.chase_all_s": secs("chase.chase_all"),
        "chase.states": count("chase.states"),
        "chase.endpoints": count("chase.endpoints"),
        "chase.useful_frac": new_states / successors if successors else 0.0,
        "codegen.emit_residual_s": secs("codegen.emit_residual"),
        "codegen.residual_lines": count("codegen.residual_lines"),
        "codegen.residual_facts": count("codegen.residual_facts"),
        "codegen.residual_rules": count("codegen.residual_rules"),
        "codegen.evaluate_residual_s": secs("codegen.evaluate_residual"),
        "codegen.emit_asp_s": secs("codegen.emit_asp"),
        "codegen.asp_statements": count("codegen.asp_statements"),
        "datalog.parse_s": secs("datalog.parse"),
        "datalog.evaluate_s": secs("datalog.evaluate", "datalog.stratify"),
        "datalog.strata": count("datalog.strata"),
        "datalog.model_facts": count("datalog.model_facts"),
        "query.certain_answers_s": secs("query.certain_answers"),
        "query.answers": count("query.answers"),
    }
