"""The work counters the benchmark's tracer reads off each layer's result.

`bench/run.py --trace 1` records them through `bench/tracing.py`, which reads
attributes of the package's results; a rename there would break traced runs,
so each counter is checked here against the value computed from the output.
The tracer also replaces names of `mdclean.cli`, which the CLI imports on
first use; a fresh interpreter checks that it finds them and that the
commands call its replacements.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdclean.classify import Verdict, classify
from mdclean.codegen import emit_general_asp, emit_residual_datalog
from mdclean.datalog import parse_asp
from mdclean.mdlang import load_mds, validate_mds
from mdclean.model import (
    Instance,
    MatchingFunction,
    Schema,
    SimilarityRelation,
    collect_active_values,
)

from fixture_edits import FIXTURES, fixture_args

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["bibliography", "convergent", "crossrel", "divergent", "reversed"])
def test_traced_counters_read_each_layer_result(name):
    tracing = load_tracing()
    d = FIXTURES / name
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    rules = validate_mds(load_mds(d / "mds.txt"), schema, mf)
    smf = mf.saturate(collect_active_values(instance, sim))
    report = classify(instance, rules, sim, smf)
    asp = emit_general_asp(instance, rules, sim, smf)
    results = {"model.saturate": smf, "classify.classify": report, "codegen.emit_asp": asp}
    queries = report.to_json_dict()["queries"]
    expected = {
        "model.values": sum(len(smf.values(dom)) for dom in smf.domains()),
        "classify.queries": len(queries),
        "classify.satisfied": sum(1 for query in queries if query["satisfied"]),
        "codegen.asp_statements": len(parse_asp(asp.text())),
    }
    if report.verdict is not Verdict.GENERAL:
        rp = emit_residual_datalog(instance, rules, sim, smf, report)
        results["codegen.emit_residual"] = rp
        derived = [rule for rules in rp.blocks().values() for rule in rules if rule.body]
        expected |= {
            "codegen.residual_lines": len(rp.text().splitlines()),
            "codegen.residual_facts": instance.total_tuples(),
            "codegen.residual_rules": len(derived),
        }
    tracer = tracing.Tracer()
    for layer, result in results.items():
        tracing._count_result(tracer.counts, layer, result)
    metrics = tracing.layer_metrics(tracer, 1)
    assert {counter: metrics[counter] for counter in expected} == expected


TRACED_CHILD = """
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import mdclean.cli
tracer = tracing.Tracer()
with tracer.installed():
    codes = [tracer.run_command(mdclean.cli.main, [*argv, "--out", os.devnull])
             for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "missing": tracer.missing,
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_the_tracer_finds_and_replaces_every_cli_name_in_a_fresh_interpreter():
    # `solve` on a converging setting emits and evaluates the residual
    # program and checks it with the chase; `answer` on a diverging one chases
    # every clean instance and computes the certain answers over them
    queries = str(FIXTURES / "divergent" / "queries.txt")
    commands = [["solve", *fixture_args("convergent")],
                ["answer", *fixture_args("divergent"), "--query", queries]]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(ROOT / "bench" / "tracing.py"), json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0], proc.stderr
    assert [name for name in report["missing"] if name.startswith("mdclean.cli.")] == []
    expected = {
        "classify.classify", "codegen.emit_residual", "codegen.evaluate_residual",
        "query.certain_answers", "mdlang.load_mds", "mdlang.validate_mds",
        "chase.discover", "chase.chase_all",
    }
    assert expected <= set(report["spans"])
