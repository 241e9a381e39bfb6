"""The paper's shapes (EXPERIMENTS.md) on the committed results."""
import os

import pytest

from repro.tables import shapes

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="module")
def outcome():
    return shapes.evaluate(shapes.load(RESULTS))


def test_every_table_has_shapes():
    assert {table for table, _ in shapes.SHAPES.values()} == set(shapes.TABLES)
    assert shapes.FAILING <= set(shapes.SHAPES)


def test_committed_results_show_the_reported_shapes(outcome):
    """Each shape holds on the committed results unless it is reported as
    failing; a regenerated table that breaks one, or mends one, fails here."""
    assert {name for name, holds in outcome.items() if not holds} == shapes.FAILING
