"""VertexicaService: session protocol, read/write routing, admission
control, cached runs with the ``served_from_cache`` marker, and metrics."""

from __future__ import annotations

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.errors import AdmissionError, ServingError
from repro.programs import PageRank

from serving_helpers import rows_of


class TestSqlRouting:
    async def test_select_is_snapshot_isolated_and_cached(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                r1 = await s.sql("SELECT id, v FROM kv ORDER BY id")
                assert not r1.from_cache
                assert rows_of(r1.value) == [(1, 10), (2, 20), (3, 30)]
                r2 = await s.sql("SELECT id, v FROM kv ORDER BY id")
                assert r2.from_cache
                assert rows_of(r2.value) == rows_of(r1.value)
                assert r2.versions == r1.versions
                assert s.cache_hits == 1 and s.requests == 2

    async def test_write_bypasses_cache_and_advances_versions(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                r1 = await s.sql("SELECT id, v FROM kv ORDER BY id")
                w = await s.sql("UPDATE kv SET v = 11 WHERE id = 1")
                assert not w.from_cache and w.versions == ()
                assert w.value.row_count == 1
                r2 = await s.sql("SELECT id, v FROM kv ORDER BY id")
                assert not r2.from_cache  # version advance = new key
                assert rows_of(r2.value)[0] == (1, 11)
                assert r2.versions != r1.versions
            assert service.metrics.writes == 1

    async def test_uncached_read_counts_as_bypass(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                await s.sql("SELECT COUNT(*) AS n FROM kv", cached=False)
                await s.sql("SELECT COUNT(*) AS n FROM kv", cached=False)
            assert service.metrics.bypassed == 2
            assert service.cache.stats.lookups == 0

    async def test_select_of_unknown_table_fails_loudly(self, served_vx):
        from repro.errors import SnapshotInvalid

        async with served_vx.serve() as service:
            async with service.session() as s:
                with pytest.raises(SnapshotInvalid):
                    await s.sql("SELECT * FROM missing")
            assert service.metrics.snapshot_invalid == 1

    async def test_repeatable_read_at_snapshot(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                snap = await s.snapshot(["kv"])
                await s.sql("DELETE FROM kv WHERE id = 2")
                pinned = await s.sql(
                    "SELECT id FROM kv ORDER BY id", at=snap, cached=False
                )
                assert rows_of(pinned.value) == [(1,), (2,), (3,)]
                live = await s.sql("SELECT id FROM kv ORDER BY id")
                assert rows_of(live.value) == [(1,), (3,)]
                with pytest.raises(ServingError):
                    await s.sql("DELETE FROM kv WHERE id = 3", at=snap)


class TestGraphServing:
    async def test_run_cache_hit_is_marked_and_identical(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                cold = await s.run("g", PageRank(iterations=3))
                assert not cold.stats.served_from_cache
                warm = await s.run("g", PageRank(iterations=3))
                assert warm.stats.served_from_cache
                assert all(ss.served_from_cache for ss in warm.stats.supersteps)
                assert "[served from cache]" in warm.stats.summary()
                assert warm.values == cold.values
                # a different program is a different key
                other = await s.run("g", PageRank(iterations=4))
                assert not other.stats.served_from_cache

    async def test_run_does_not_dirty_live_database(self, served_vx):
        before = set(served_vx.db.table_names())
        async with served_vx.serve() as service:
            async with service.session() as s:
                await s.run("g", PageRank(iterations=2))
        assert set(served_vx.db.table_names()) == before

    async def test_write_invalidates_run(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                cold = await s.run("g", PageRank(iterations=2))
                await s.sql("INSERT INTO g_edge VALUES (4, 1, 1.0)")
                recomputed = await s.run("g", PageRank(iterations=2))
                assert not recomputed.stats.served_from_cache
                assert recomputed.values != cold.values

    async def test_one_hop(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                r = await s.one_hop("g", 2)
                assert r.value == [0, 3]
                assert (await s.one_hop("g", 2)).from_cache
                assert (await s.one_hop("g", 0)).value == [1, 2]

    async def test_sql_graph_by_name(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                tri = await s.sql_graph("triangle_count_sql", "g")
                assert not tri.from_cache
                assert (await s.sql_graph("triangle_count_sql", "g")).from_cache
                with pytest.raises(ServingError, match="unknown sql_graph"):
                    await s.sql_graph("not_an_algorithm", "g")

    async def test_extract_view_cached_by_base_versions(self, served_vx):
        from repro import EdgeSpec, NodeSpec

        served_vx.create_graph_view(
            "kvview",
            vertices=NodeSpec("kv", key="id"),
            edges=EdgeSpec("g_edge", src="src", dst="dst"),
            materialized=False,
        )
        async with served_vx.serve() as service:
            async with service.session() as s:
                v1 = await s.extract_view("kvview")
                assert not v1.from_cache and v1.value["num_edges"] > 0
                assert (await s.extract_view("kvview")).from_cache
                await s.sql("INSERT INTO g_edge VALUES (1, 3, 1.0)")
                v2 = await s.extract_view("kvview")
                assert not v2.from_cache
                assert v2.value["num_edges"] == v1.value["num_edges"] + 1
        assert not served_vx.db.has_table("kvview_edge")  # shadow-only


class TestAdmissionAndSessions:
    async def test_queue_overflow_rejected_as_transient(self, served_vx):
        from repro.core import faults

        async with served_vx.serve(max_concurrency=1, max_queue=1) as service:
            async with service.session(max_inflight=16) as s:
                tasks = [
                    asyncio.create_task(
                        s.sql("SELECT COUNT(*) AS n FROM kv", cached=False)
                    )
                    for _ in range(8)
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            rejected = [o for o in outcomes if isinstance(o, AdmissionError)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert rejected and served
            assert all(faults.is_transient(r) for r in rejected)
            assert service.metrics.rejected == len(rejected)
            assert service.metrics.admitted == len(served)

    async def test_session_inflight_limits_concurrency(self, served_vx):
        async with served_vx.serve(max_concurrency=4, max_queue=64) as service:
            async with service.session(max_inflight=1) as s:
                await asyncio.gather(
                    *[s.sql("SELECT COUNT(*) AS n FROM kv") for _ in range(6)]
                )
            # one at a time through the session gate -> never parallel
            assert service.metrics.max_in_flight == 1

    async def test_closed_session_refuses(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                await s.sql("SELECT COUNT(*) AS n FROM kv")
            with pytest.raises(ServingError, match="session is closed"):
                await s.sql("SELECT COUNT(*) AS n FROM kv")

    async def test_closed_service_refuses(self, served_vx):
        service = served_vx.serve()
        service.close()
        async with service.session() as s:
            with pytest.raises(ServingError, match="service is closed"):
                await s.sql("SELECT COUNT(*) AS n FROM kv")

    async def test_metrics_summary_shape(self, served_vx):
        async with served_vx.serve() as service:
            async with service.session() as s:
                await s.sql("SELECT COUNT(*) AS n FROM kv")
                await s.sql("SELECT COUNT(*) AS n FROM kv")
            stats = service.stats()
        assert stats["admitted"] == 2
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
        assert stats["wait"]["count"] == 2 and stats["serve"]["count"] == 2
        assert stats["serve"]["p95_s"] >= stats["serve"]["p50_s"] >= 0
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0


class TestServingOnWorkerProcesses:
    """Serving x processes: every miss runs on the live session's pool."""

    async def test_misses_equal_direct_runs_on_one_pool(self):
        def bits(values: dict) -> bytes:
            return np.array([values[k] for k in sorted(values)]).tobytes()

        def worker_pids() -> set[int]:
            return {child.pid for child in multiprocessing.active_children()}

        vx = Vertexica(config=VertexicaConfig(
            data_plane="shards", n_partitions=4, executor="processes", n_workers=2,
        ))
        vx.load_graph("g", list(range(30)), [(i * 7 + 1) % 30 for i in range(30)])
        pids = None
        async with vx.serve() as service:
            async with service.session() as s:
                for step in range(3):
                    served = await s.run("g", PageRank(iterations=4))
                    assert not served.stats.served_from_cache
                    direct = vx.run("g", PageRank(iterations=4))
                    assert bits(served.values) == bits(direct.values)
                    pids = pids or worker_pids()
                    assert len(pids) == 2 and worker_pids() == pids
                    await s.sql(f"INSERT INTO g_edge VALUES ({step}, {step + 11}, 1.0)")
        assert worker_pids() == pids  # the service borrowed the pool
        vx.close()
        assert multiprocessing.active_children() == []
