"""Fixtures for the multi-AST rewrite tests."""

from __future__ import annotations

import pytest

from repro.bench import figures
from repro.workloads import small_config


@pytest.fixture(scope="module")
def paper_db():
    """The generated credit-card database with all eight paper ASTs."""
    db = figures.make_database(small_config())
    for name, sql in figures.PAPER_ASTS:
        db.create_summary_table(name, sql)
    return db
