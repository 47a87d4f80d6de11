"""Async test support for the serving suite.

The container has no pytest-asyncio plugin, so coroutine test functions
are executed here via a ``pytest_pyfunc_call`` hook: each ``async def``
test runs to completion on a fresh event loop (``asyncio.run``), which
also guarantees no loop state leaks between tests.
"""

from __future__ import annotations

import asyncio
import inspect

import numpy as np
import pytest

from repro.core import Vertexica


def pytest_pyfunc_call(pyfuncitem):
    fn = pyfuncitem.obj
    if inspect.iscoroutinefunction(fn):
        kwargs = {
            name: pyfuncitem.funcargs[name]
            for name in pyfuncitem._fixtureinfo.argnames
        }
        asyncio.run(fn(**kwargs))
        return True
    return None


@pytest.fixture
def served_vx(tiny_edges) -> Vertexica:
    """A Vertexica with the tiny 5-vertex graph loaded as ``g`` plus a
    small relational table for SQL-path tests."""
    src, dst = tiny_edges
    with Vertexica() as vx:
        vx.load_graph("g", src=np.array(src), dst=np.array(dst))
        vx.sql("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        vx.sql("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
        yield vx
