"""Edits of the fixture instances that several tests share."""

from mdclean.model import Instance


def with_p2_in_first_block(instance: Instance) -> Instance:
    """The bibliography instance with paper `p2` moved into `p1`'s block
    `pb1`, so that the joneses' papers share a block as the smiths' do."""
    tuples = {rel: dict(rows) for rel, rows in instance.tuples.items()}
    tuples["Paper"]["p2"] = ("entity matching", "v2", "pb1")
    return Instance(instance.schema, tuples)
