"""Shared fixtures for the whole suite."""

from __future__ import annotations

import gc
import multiprocessing
import os
from multiprocessing import shared_memory
from pathlib import Path

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


TESTS = Path(__file__).parent

#: Test modules (and directories) that start worker pools or shared-memory
#: planes, or kill runs midway; after each of their tests no child process
#: and no plane segment of this process may survive.
HYGIENE_SCOPES = (
    "core/test_batch_parity.py",
    "core/test_delivery_plan.py",
    "core/test_process_plane.py",
    "core/test_route_plan.py",
    "core/test_session_pool.py",
    "core/test_shard_plane.py",
    "core/test_recovery.py",
    "core/test_recovery_fuzz.py",
    "core/test_sender_gather.py",
    "core/test_failure_injection.py",
    "engine/test_parallel.py",
    "engine/test_result_api.py",
    "graphview/test_incremental_parity.py",
    "graphview/test_parallel_extraction.py",
    "serving/",
)


def plane_segments() -> list[str]:
    """This process's shared-memory plane segments in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = f"vxplane_{os.getpid()}_"
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))


@pytest.fixture(autouse=True)
def no_leaked_workers(request):
    """Fail a test of a :data:`HYGIENE_SCOPES` module that leaves a worker
    process or a plane segment behind, whether it passed, failed or took
    an injected kill.  Leftovers are reaped before the assertion, so one
    leak fails one test, not every test after it."""
    yield
    if not request.path.relative_to(TESTS).as_posix().startswith(HYGIENE_SCOPES):
        return
    gc.collect()  # a session held only by a reference cycle (a caught traceback)
    children = multiprocessing.active_children()
    segments = plane_segments()
    for child in children:
        child.terminate()
        child.join(timeout=10)
    for name in segments:
        leaked = shared_memory.SharedMemory(name=name)
        leaked.close()
        leaked.unlink()
    assert not children and not segments, (
        f"leaked worker processes {[child.pid for child in children]} "
        f"and plane segments {segments}"
    )


@pytest.fixture
def db() -> Database:
    """A fresh engine database."""
    return Database()


@pytest.fixture
def vx() -> Vertexica:
    """A fresh Vertexica instance (own database, default config), closed
    after the test."""
    with Vertexica() as session:
        yield session


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
