"""The fixtures' command-line arguments and edits of the fixture instances
that several tests share."""

from pathlib import Path

from mdclean.mdlang import load_mds, validate_mds
from mdclean.model import Instance, MatchingFunction, Schema, SimilarityRelation, collect_active_values

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_args(name: str) -> list[str]:
    """The input flags of fixture `name`'s files."""
    d = FIXTURES / name
    return ["--schema", str(d / "schema.txt"), "--instance", str(d), "--mds", str(d / "mds.txt"),
            "--sim", str(d / "sim.txt"), "--mf", str(d / "mf.txt")]


def fixture_setting(name: str):
    """Fixture `name`'s setting `(instance, rules, sim, smf)`."""
    d = FIXTURES / name
    schema = Schema.load(d / "schema.txt")
    instance = Instance.load(schema, d)
    sim = SimilarityRelation.load(d / "sim.txt")
    mf = MatchingFunction.load(d / "mf.txt")
    rules = validate_mds(load_mds(d / "mds.txt"), schema, mf)
    return instance, rules, sim, mf.saturate(collect_active_values(instance, sim))


def with_p2_in_first_block(instance: Instance) -> Instance:
    """The bibliography instance with paper `p2` moved into `p1`'s block
    `pb1`, so that the joneses' papers share a block as the smiths' do."""
    tuples = {rel: dict(rows) for rel, rows in instance.tuples.items()}
    tuples["Paper"]["p2"] = ("entity matching", "v2", "pb1")
    return Instance(instance.schema, tuples)
