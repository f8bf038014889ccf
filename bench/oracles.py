"""Output oracles: what each command's stdout must say for a generated setting.

Each check takes the setting and its outputs (verb -> stdout of the JSON
format) and returns {verb: reason} for every command whose output is wrong.
The expected values come from the generator or from other commands' outputs,
never from the code under test alone.
"""

from __future__ import annotations

import json


def _loads(outputs: dict, verb: str, wrong: dict):
    try:
        return json.loads(outputs[verb])
    except (KeyError, ValueError) as exc:
        wrong[verb] = f"unreadable output ({exc})"
        return None


def check_coauthor(setting, outputs: dict) -> dict[str, str]:
    exp = setting.expected
    wrong: dict[str, str] = {}
    verdict = _loads(outputs, "classify", wrong)
    if verdict is not None and verdict.get("verdict") != exp["verdict"]:
        wrong["classify"] = f"verdict {verdict.get('verdict')!r}, expected {exp['verdict']!r}"
    chase = _loads(outputs, "chase_one", wrong)
    if chase is not None:
        if chase.get("count") != 1 or chase["instances"][0] != exp["clean"]:
            wrong["chase_one"] = "endpoint differs from the generator's clean instance"
        elif len(chase["steps"][0]) != exp["steps"]:
            wrong["chase_one"] = f"{len(chase['steps'][0])} steps, expected {exp['steps']}"
    solve = _loads(outputs, "solve", wrong)
    if solve is not None:
        if solve != exp["clean"]:
            wrong["solve"] = "clean instance differs from the generator's"
        elif chase is not None and chase.get("count") == 1 and solve != chase["instances"][0]:
            wrong["solve"] = "clean instance differs from the chase --one endpoint"
    answer = _loads(outputs, "answer", wrong)
    if answer is not None and answer != exp["answers"]:
        wrong["answer"] = "certain answers differ from the generator's"
    return wrong


def check_token_lattice(setting, outputs: dict) -> dict[str, str]:
    exp = setting.expected
    wrong: dict[str, str] = {}
    verdict = _loads(outputs, "classify", wrong)
    if verdict is not None and verdict.get("verdict") != exp["verdict"]:
        wrong["classify"] = f"verdict {verdict.get('verdict')!r}, expected {exp['verdict']!r}"
    chase = _loads(outputs, "chase_one", wrong)
    if chase is not None:
        rows = chase["instances"][0]["R"] if chase.get("count") == 1 else []
        bad = [r["tid"] for r in rows if r["B"] != exp["final_b"][r["A"]]]
        if not rows or bad:
            wrong["chase_one"] = f"final B is not the block's token union for {bad or 'all'}"
    return wrong


def _pairs(instance: dict, relation: str) -> set[tuple[str, str]]:
    return {(row["A"], row["B"]) for row in instance.get(relation, [])}


def check_soak(setting, outputs: dict) -> dict[str, str]:
    """Cross-checks between commands on one small random setting.

    `chase --one` must land on one of the `chase --all` endpoints; on a
    converging verdict there must be exactly one endpoint and `solve` must
    print it; `answer` must equal the intersection, over all endpoints, of
    each relation's (A, B) pairs, which is what the generated queries ask.
    """
    wrong: dict[str, str] = {}
    verdict = _loads(outputs, "classify", wrong)
    chase_all = _loads(outputs, "chase_all", wrong)
    if verdict is None or chase_all is None:
        return wrong
    endpoints = chase_all["instances"]
    if chase_all.get("count") != len(endpoints) or not endpoints:
        wrong["chase_all"] = "endpoint count does not match the instances listed"
        return wrong
    chase_one = _loads(outputs, "chase_one", wrong)
    if chase_one is not None and (
        chase_one.get("count") != 1 or chase_one["instances"][0] not in endpoints
    ):
        wrong["chase_one"] = "endpoint is not among the chase --all endpoints"
    if verdict.get("verdict") == "general":
        text = outputs.get("emit_asp", "")
        if not text.startswith("% 1. "):
            wrong["emit_asp"] = "program does not open with its first block"
    else:
        if len(endpoints) != 1:
            wrong["classify"] = f"converging verdict but {len(endpoints)} clean instances"
        solve = _loads(outputs, "solve", wrong)
        if solve is not None and solve != endpoints[0]:
            wrong["solve"] = "clean instance differs from the chase --all endpoint"
    answer = _loads(outputs, "answer", wrong)
    if answer is not None:
        expected = []
        for rel in setting.expected["relations"]:
            common = set.intersection(*(_pairs(e, rel) for e in endpoints))
            expected.append({"query": f"q_{rel}", "answers": [list(p) for p in sorted(common)]})
        if answer != expected:
            wrong["answer"] = "certain answers differ from the endpoints' intersection"
    return wrong


CHECKS = {"coauthor": check_coauthor, "soak": check_soak, "token-lattice": check_token_lattice}
