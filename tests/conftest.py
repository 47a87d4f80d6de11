"""Shared fixtures for the whole suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.graphdb import PropertyGraphStore, StoreConfig
from repro.core import Vertexica, VertexicaConfig
from repro.datasets.generators import power_law_graph
from repro.engine import Database

try:
    from hypothesis import settings
except ImportError:  # the fuzz CI jobs install numpy + pytest only
    settings = None
else:
    # Hypothesis budgets: ``repro`` keeps every property fast in tier-1;
    # CI's property-sweep job runs ``--hypothesis-profile=sweep``.
    settings.register_profile("repro", max_examples=40, deadline=None)
    settings.register_profile("sweep", max_examples=500, deadline=None)


def pytest_configure(config):
    # Runs whenever this conftest is registered, so an explicit
    # --hypothesis-profile wins even if the plugin configured first.
    if settings is not None:
        settings.load_profile(config.getoption("--hypothesis-profile") or "repro")


@pytest.fixture
def db() -> Database:
    """A fresh engine database."""
    return Database()


@pytest.fixture
def vx() -> Vertexica:
    """A fresh Vertexica instance (own database, default config)."""
    return Vertexica()


@pytest.fixture
def tiny_edges() -> tuple[list[int], list[int]]:
    """A 5-vertex directed graph used across algorithm tests.

    Edges: 0->1, 0->2, 1->2, 2->0, 2->3, 3->4, 4->0 (one cycle plus a
    tail that cycles back) — every vertex reachable from 0.
    """
    return [0, 0, 1, 2, 2, 3, 4], [1, 2, 2, 0, 3, 4, 0]


@pytest.fixture
def small_graph():
    """A seeded 60-vertex power-law graph (300 edges)."""
    return power_law_graph("small", 60, 300, seed=17)


@pytest.fixture
def fast_store(tmp_path) -> PropertyGraphStore:
    """A property-graph store with simulation latency disabled and its
    WAL in the test's temp directory."""
    store = PropertyGraphStore(
        StoreConfig(wal_path=str(tmp_path / "wal.jsonl"), access_latency_s=0.0)
    )
    yield store
    store.close()


@pytest.fixture
def sample_table(db: Database) -> Database:
    """A database pre-loaded with a small people table."""
    db.execute(
        "CREATE TABLE people (id INTEGER PRIMARY KEY, name VARCHAR, "
        "age INTEGER, score FLOAT)"
    )
    db.execute(
        "INSERT INTO people VALUES "
        "(1, 'alice', 34, 9.5), (2, 'bob', 28, 7.25), (3, 'carol', 41, NULL), "
        "(4, 'dave', NULL, 3.5), (5, 'erin', 28, 8.0)"
    )
    return db
