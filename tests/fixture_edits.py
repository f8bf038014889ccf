"""The fixtures' command-line arguments and edits of the fixture instances
that several tests share."""

from pathlib import Path

from mdclean.model import Instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_args(name: str) -> list[str]:
    """The input flags of fixture `name`'s files."""
    d = FIXTURES / name
    return ["--schema", str(d / "schema.txt"), "--instance", str(d), "--mds", str(d / "mds.txt"),
            "--sim", str(d / "sim.txt"), "--mf", str(d / "mf.txt")]


def with_p2_in_first_block(instance: Instance) -> Instance:
    """The bibliography instance with paper `p2` moved into `p1`'s block
    `pb1`, so that the joneses' papers share a block as the smiths' do."""
    tuples = {rel: dict(rows) for rel, rows in instance.tuples.items()}
    tuples["Paper"]["p2"] = ("entity matching", "v2", "pb1")
    return Instance(instance.schema, tuples)
