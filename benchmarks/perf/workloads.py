"""The seven benchmark workloads.

Each workload generates its inputs from the seed, sets the program up
through the stable facade only (``repro.Vertexica``, ``load_graph`` /
``run`` / ``create_graph_view`` / ``sql`` / ``serve``,
``GraphViewHandle.refresh``, ``db.insert_batch``), performs one *op* per
``step`` call and checks that op's output against an oracle.  ``run.py``
owns the timing loop; a step only reports the seconds of the calls it made.
"""

from __future__ import annotations

import asyncio
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import inputs
import oracles
from repro import CoEdgeSpec, EdgeSpec, NodeSpec, Vertexica
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.types import FLOAT, INTEGER
from repro.programs import ConnectedComponents, PageRank, ShortestPaths

SHARDS = {"data_plane": "shards", "superstep_sync": "halt"}

#: program counters that must repeat exactly for one seed; reported from
#: the first op they occur in (every other layer stat is a median over ops)
EXACT_COUNTS = (
    "coordinator.supersteps",
    "storage.update_steps",
    "storage.replace_steps",
    "storage.vertex_updates",
    "storage.messages_out",
    "storage.messages_precombine",
    "worker.rows_in",
    "worker.rows_out",
    "worker.vertices_ran",
    "parallel.retries",
    "graphview.queries",
    "graphview.delta_rows",
    "graphview.fallbacks",
    "graphview.edges",
    "graphview.vertices",
    "serving.cache_hits",
    "serving.cache_misses",
    "serving.cache_evictions",
    "serving.rejected",
    "serving.snapshot_invalid",
)


@dataclass
class Step:
    """What one op did."""

    #: seconds per named series, e.g. ``{"run_s": 1.2}``; a list holds
    #: several samples (one per request)
    samples: dict
    #: work units completed (messages, extracted edges, delta rows, requests)
    work: float
    #: wall-clock of the op
    seconds: float
    #: seconds the work units took, where that is a part of the op
    work_seconds: float | None = None
    #: the program's own per-layer statistics for this op
    layers: dict = field(default_factory=dict)
    #: wrong answers, one line each
    errors: list = field(default_factory=list)
    #: ops attempted (requests, for the serving slice)
    attempted: int = 1
    #: wall-clock the op's spans should add up to when clients overlap
    traced_wall: float | None = None
    #: position in the run, whether it was traced, and the process's peak RSS
    #: after it (set by the timing loop)
    index: int = -1
    traced: bool = False
    rss_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.work_seconds is None:
            self.work_seconds = self.seconds


def run_layers(stats) -> dict:
    """Per-layer statistics the program itself records for one run."""
    steps = stats.supersteps
    seconds = [s.seconds for s in steps]
    balances = [s.shard_balance for s in steps if s.shard_balance > 0]
    return {
        "coordinator.supersteps": len(steps),
        "coordinator.superstep0_s": seconds[0],
        "coordinator.superstep_p50_s": statistics.median(seconds),
        "storage.update_steps": sum(s.update_path == "update" for s in steps),
        "storage.replace_steps": sum(s.update_path == "replace" for s in steps),
        "storage.vertex_updates": stats.total_vertex_updates,
        "storage.messages_out": stats.total_messages,
        "storage.messages_precombine": stats.total_messages_precombine,
        "worker.rows_in": stats.total_rows_in,
        "worker.rows_out": stats.total_rows_out,
        "worker.vertices_ran": sum(s.active_vertices for s in steps),
        "shards.balance": statistics.median(balances) if balances else 0.0,
        "parallel.retries": stats.retries,
    }


class Workload:
    """Base: subclasses set the class attributes and implement the hooks."""

    #: series whose median is the contract's ``op_s``
    op_series = "run_s"
    #: what ``work_per_s`` counts
    work_unit = "messages"
    #: named metrics: (name, series, statistic)
    named_metrics: tuple = (("run_s", "run_s", "p50"),)
    #: sha256 of the last op's values, where every op of a seed computes the
    #: same ones (``None`` where the graph changes while the run lasts)
    fingerprint: str | None = None

    def __init__(self, name: str, arrays: dict) -> None:
        self.name = name
        self.arrays = arrays

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def step(self, index: int) -> Step:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """End-of-run oracle checks; returns one line per failure."""
        return []


# ----------------------------------------------------------------------
# load_graph + run: pagerank_sql, pagerank_shards, sssp_frontier_sql,
# cc_scalar_procs
# ----------------------------------------------------------------------
class GraphRun(Workload):
    def __init__(self, name, arrays, program, options, expected, exact, symmetrize=False):
        super().__init__(name, arrays)
        self.program = program
        self.options = options
        self.expected = expected
        self.exact = exact
        self.symmetrize = symmetrize
        self.num_vertices = int(arrays["num_vertices"])

    def setup(self) -> None:
        self.vx = Vertexica()
        self.graph = self.vx.load_graph(
            "g",
            self.arrays["src"],
            self.arrays["dst"],
            weights=self.arrays.get("weights"),
            num_vertices=self.num_vertices,
            symmetrize=self.symmetrize,
        )

    def teardown(self) -> None:
        self.vx = self.graph = None

    def step(self, index: int) -> Step:
        started = perf_counter()
        result = self.vx.run(self.graph, self.program(), **self.options)
        run_s = perf_counter() - started
        got = oracles.values_array(result.values, self.num_vertices, self.expected.dtype)
        self.fingerprint = oracles.fingerprint(got)
        errors = [] if _matches(got, self.expected, self.exact) else ["run != oracle"]
        messages = result.stats.total_messages_precombine
        return Step(
            {"run_s": run_s, "run_msgs": messages},
            work=messages,
            seconds=run_s,
            layers=run_layers(result.stats),
            errors=errors,
        )


def _matches(got: np.ndarray, expected: np.ndarray, exact: bool) -> bool:
    if exact:
        return np.array_equal(got, expected)
    return np.allclose(got, expected, rtol=1e-9, atol=0.0)


def pagerank_workload(name, rng, size, options):
    arrays = inputs.graph_inputs(rng, *size)
    expected = oracles.pagerank(size[0], arrays["src"], arrays["dst"], iterations=5)
    return GraphRun(name, arrays, lambda: PageRank(iterations=5), options, expected, exact=False)


def sssp_workload(name, rng, size):
    arrays = inputs.layered_dag_inputs(rng, *size)
    expected = oracles.sssp_layered(
        int(arrays["num_vertices"]), int(arrays["width"]),
        arrays["src"], arrays["dst"], arrays["weights"],
    )
    return GraphRun(name, arrays, lambda: ShortestPaths(0), {}, expected, exact=True)


def cc_workload(name, rng, size, workers):
    arrays = inputs.graph_inputs(rng, *size)
    expected = oracles.min_labels(
        size[0],
        np.concatenate([arrays["src"], arrays["dst"]]),
        np.concatenate([arrays["dst"], arrays["src"]]),
    )
    options = {
        **SHARDS, "compute_strategy": "scalar", "executor": "processes", "n_workers": workers,
    }
    return GraphRun(
        name, arrays, ConnectedComponents, options, expected, exact=True, symmetrize=True
    )


# ----------------------------------------------------------------------
# Graph views over a relational schema: coview_extract_run, view_refresh_dml
# ----------------------------------------------------------------------
def _insert(db, table: str, columns: list) -> None:
    schema = db.table(table).schema
    db.insert_batch(
        table, RecordBatch(schema, [Column.from_numpy(t, np.asarray(a)) for t, a in columns])
    )


class SocialSchema(Workload):
    """Shared set-up: the generated ``users`` / ``follows`` / ``likes``
    tables and the view over them."""

    VIEW = {
        "vertices": NodeSpec("users", key="id"),
        "edges": [
            EdgeSpec("follows", src="follower_id", dst="followee_id", where="closeness > 1.0"),
            CoEdgeSpec("likes", member="user_id", via="post_id"),
        ],
    }

    def load_base_tables(self) -> None:
        a = self.arrays
        self.vx = vx = Vertexica()
        vx.sql("CREATE TABLE users (id INTEGER NOT NULL)")
        vx.sql(
            "CREATE TABLE follows (id INTEGER NOT NULL, follower_id INTEGER NOT NULL, "
            "followee_id INTEGER NOT NULL, closeness FLOAT NOT NULL)"
        )
        vx.sql("CREATE TABLE likes (user_id INTEGER NOT NULL, post_id INTEGER NOT NULL)")
        _insert(vx.db, "users", [(INTEGER, np.arange(int(a["num_users"])))])
        _insert(
            vx.db,
            "follows",
            [
                (INTEGER, np.arange(len(a["follow_src"]))),
                (INTEGER, a["follow_src"]),
                (INTEGER, a["follow_dst"]),
                (FLOAT, a["closeness"]),
            ],
        )
        _insert(vx.db, "likes", [(INTEGER, a["like_user"]), (INTEGER, a["like_post"])])

    def teardown(self) -> None:
        self.vx = self.handle = None

    def table_arrays(self, table: str, columns: tuple) -> list[np.ndarray]:
        batch = self.vx.sql(f"SELECT {', '.join(columns)} FROM {table}").batch
        return [np.asarray(batch.column(c).values) for c in columns]

    def view_edges(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, dst, weight = self.table_arrays(f"{name}_edge", ("src", "dst", "weight"))
        order = np.lexsort((weight, dst, src))
        return src[order], dst[order], weight[order]


class CoviewExtractRun(SocialSchema):
    op_series = "spec_to_values_s"
    work_unit = "extracted edges"
    named_metrics = (
        ("view_ready_s", "view_ready_s", "p50"),
        ("run_s", "run_s", "p50"),
    )

    def __init__(self, name, arrays):
        super().__init__(name, arrays)
        a = arrays
        keep = a["closeness"] > 1.0
        co_src, co_dst = oracles.co_occurrence_pairs(a["like_user"], a["like_post"])
        self.num_users = int(a["num_users"])
        self.expected_edges = int(keep.sum()) + len(co_src)
        self.expected = oracles.pagerank(
            self.num_users,
            np.concatenate([a["follow_src"][keep], co_src]),
            np.concatenate([a["follow_dst"][keep], co_dst]),
            iterations=5,
        )

    def setup(self) -> None:
        self.load_base_tables()
        self.vx.create_graph_view("social", **self.VIEW)

    def step(self, index: int) -> Step:
        started = perf_counter()
        handle = self.vx.create_graph_view("social", replace=True, **self.VIEW)
        ready = perf_counter()
        result = self.vx.run(handle, PageRank(iterations=5), **SHARDS)
        done = perf_counter()
        extraction = handle.last_extraction
        errors = []
        if (extraction.num_edges, extraction.num_vertices) != (
            self.expected_edges, self.num_users,
        ):
            errors.append(
                f"view has {extraction.num_edges} edges / {extraction.num_vertices} vertices, "
                f"tables imply {self.expected_edges} / {self.num_users}"
            )
        got = oracles.values_array(result.values, self.num_users)
        self.fingerprint = oracles.fingerprint(got)
        if not _matches(got, self.expected, exact=False):
            errors.append("run over the view != oracle")
        layers = run_layers(result.stats)
        layers.update(
            {
                "graphview.queries": extraction.num_queries,
                "graphview.edges": extraction.num_edges,
                "graphview.vertices": extraction.num_vertices,
            }
        )
        return Step(
            {
                "view_ready_s": ready - started,
                "run_s": done - ready,
                "run_msgs": result.stats.total_messages_precombine,
                "spec_to_values_s": done - started,
            },
            work=extraction.num_edges,
            seconds=done - started,
            work_seconds=ready - started,
            layers=layers,
            errors=errors,
        )


class ViewRefreshDml(SocialSchema):
    """One op is a block: ``CYCLES`` times {DML batch, ``refresh()``}, then
    a run over the patched graph.  ``work_per_s`` is the delta rows of a
    cycle over the block's median DML + refresh time, the run left out (one
    stalled cycle would otherwise halve a block's rate)."""

    op_series = "block_s"
    work_unit = "delta rows"
    named_metrics = (
        ("dml_p50_s", "dml_s", "p50"),
        ("refresh_p50_s", "refresh_s", "p50"),
        ("refresh_p90_s", "refresh_s", "p90"),
        ("run_s", "run_s", "p50"),
    )
    CYCLES = 12

    def setup(self) -> None:
        self.load_base_tables()
        self.handle = self.vx.create_graph_view("social", **self.VIEW)

    def dml(self, cycle: int) -> None:
        """+ ``follows`` rows, - ``DML_DELETES`` of the original ones, and
        + ``DML_LIKES`` ``likes`` rows in a via-group of their own."""
        a = self.arrays
        db = self.vx.db
        row = cycle % len(a["dml_src"])
        inserts = a["dml_src"].shape[1]
        new_ids = len(a["follow_src"]) + cycle * inserts
        _insert(
            db,
            "follows",
            [
                (INTEGER, np.arange(new_ids, new_ids + inserts)),
                (INTEGER, a["dml_src"][row]),
                (INTEGER, a["dml_dst"][row]),
                (FLOAT, a["dml_closeness"][row]),
            ],
        )
        delete_from = int(a["dml_delete_from"][cycle % len(a["dml_delete_from"])])
        self.vx.sql(
            "DELETE FROM follows WHERE id >= ? AND id < ?",
            [delete_from, delete_from + inputs.DML_DELETES],
        )
        likers = a["dml_like_user"][row]
        post = int(a["num_groups"]) + cycle
        _insert(db, "likes", [(INTEGER, likers), (INTEGER, np.full(len(likers), post))])

    def step(self, index: int) -> Step:
        samples = {"dml_s": [], "refresh_s": []}
        errors = []
        delta_rows = 0
        block_started = perf_counter()
        for cycle in range(index * self.CYCLES, (index + 1) * self.CYCLES):
            started = perf_counter()
            self.dml(cycle)
            dml_done = perf_counter()
            self.handle.refresh()
            samples["dml_s"].append(dml_done - started)
            samples["refresh_s"].append(perf_counter() - dml_done)
            extraction = self.handle.last_extraction
            delta_rows += extraction.delta_rows
            if extraction.mode != "incremental":
                errors.append(f"refresh fell back: {self.handle.last_fallback_reason}")
        run_started = perf_counter()
        result = self.vx.run(self.handle, ConnectedComponents(), **SHARDS)
        done = perf_counter()
        samples["run_s"] = done - run_started
        samples["run_msgs"] = result.stats.total_messages_precombine
        samples["block_s"] = done - block_started
        layers = run_layers(result.stats)
        layers.update(
            {
                "graphview.delta_rows": delta_rows,
                "graphview.queries": extraction.num_queries,
                "graphview.fallbacks": len(errors),
            }
        )
        return Step(
            samples,
            work=delta_rows,
            seconds=done - block_started,
            work_seconds=self.CYCLES * statistics.median(
                d + r for d, r in zip(samples["dml_s"], samples["refresh_s"])
            ),
            layers=layers,
            errors=errors,
        )

    def finish(self) -> list[str]:
        """The patched tables must equal a fresh full extraction, and a
        run over them the oracle's labels."""
        errors = []
        self.vx.create_graph_view("shadow", **self.VIEW)
        patched = self.view_edges("social")
        fresh = self.view_edges("shadow")
        if not all(np.array_equal(p, f) for p, f in zip(patched, fresh)):
            errors.append("patched social_edge != full extraction")
        nodes = [np.sort(self.table_arrays(f"{n}_node", ("id",))[0]) for n in ("social", "shadow")]
        if not np.array_equal(*nodes):
            errors.append("patched social_node != full extraction")
        result = self.vx.run(self.handle, ConnectedComponents(), **SHARDS)
        users = int(self.arrays["num_users"])
        got = oracles.values_array(result.values, users, np.int64)
        if not np.array_equal(got, oracles.min_labels(users, fresh[0], fresh[1])):
            errors.append("run over the patched view != oracle")
        return errors


# ----------------------------------------------------------------------
# serving_mixed
# ----------------------------------------------------------------------
class ServingMixed(Workload):
    """Closed loop: two clients, each sends its next request when the
    previous one returned.  One op is a *slice*: both clients work through
    their ``SLICE_REQUESTS`` scheduled requests and meet at a barrier, then
    client 0 issues three probe requests on the quiescent service (run,
    one_hop, SQL count) whose answers are checked against the oracle for
    the edge table as it stands.

    Client 0 opens a slice with its one write and a run, which misses;
    client 1 spends the first half of its slice on cheap reads, beside
    that miss, and holds its first run until the fresh result is cached.
    So every slice has exactly one run miss and every other run of it is a
    hit: the service's counts repeat however the clients interleave.  (Two
    misses side by side would mostly measure how two threads fight over
    the interpreter lock.)"""

    op_series = "serve_read_s"
    work_unit = "requests"
    named_metrics = (
        ("serve_read_p50_s", "serve_read_s", "p50"),
        ("serve_read_p95_s", "serve_read_s", "p95"),
        ("serve_miss_p50_s", "serve_miss_s", "p50"),
        ("serve_write_p50_s", "serve_write_s", "p50"),
    )
    COUNT_SQL = "SELECT COUNT(*) AS n FROM g_edge WHERE src = ?"

    def __init__(self, name, arrays):
        super().__init__(name, arrays)
        self.num_vertices = int(arrays["num_vertices"])

    def setup(self) -> None:
        self.vx = Vertexica()
        self.vx.load_graph(
            "g", self.arrays["src"], self.arrays["dst"], num_vertices=self.num_vertices
        )
        self.loop = asyncio.new_event_loop()
        self.service = self.vx.serve(max_concurrency=2)
        self.last_served = None
        #: the edge list as the oracle knows it: the input plus every write
        self.src = self.arrays["src"].tolist()
        self.dst = self.arrays["dst"].tolist()

    def teardown(self) -> None:
        self.service.close()
        self.loop.close()
        self.vx = self.service = self.loop = None

    def step(self, index: int) -> Step:
        return self.loop.run_until_complete(self._slice(index % inputs.SERVING_SLICES))

    async def _request(self, session, kind: str, a: int, b: int, out: dict):
        """One timed request; returns its value, or ``None`` if it failed."""
        started = perf_counter()
        try:
            if kind == "run":
                value = await session.run("g", PageRank(iterations=5))
                series = "serve_read_s" if value.stats.served_from_cache else "serve_miss_s"
                out["ranks"].append(value.values)
            elif kind == "one_hop":
                value = (await session.one_hop("g", a)).value
                series = "serve_read_s"
            elif kind == "sql":
                value = (await session.sql(self.COUNT_SQL, [a])).value
                series = "serve_read_s"
            else:
                value = await session.execute_write(
                    "INSERT INTO g_edge VALUES (?, ?, 1.0)", [a, b]
                )
                self.src.append(a)
                self.dst.append(b)
                series = "serve_write_s"
        except Exception as exc:  # a failed or refused request is a failed op
            out["errors"].append(f"{kind} request failed: {exc!r}")
            return None
        out[series].append(perf_counter() - started)
        return value

    async def _client(self, client: int, slice_index: int, fresh, out: dict) -> None:
        a = self.arrays
        async with self.service.session() as session:
            for i in range(inputs.SLICE_REQUESTS):
                kind = inputs.REQUEST_KINDS[a["request_kind"][client, slice_index, i]]
                if kind == "run" and client:
                    await fresh.wait()
                await self._request(
                    session, kind,
                    int(a["request_a"][client, slice_index, i]),
                    int(a["request_b"][client, slice_index, i]),
                    out,
                )
                if kind == "run":
                    fresh.set()

    async def _probe(self, vertex: int, out: dict) -> tuple:
        async with self.service.session() as session:
            return (
                await self._request(session, "run", 0, 0, out),
                await self._request(session, "one_hop", vertex, 0, out),
                await self._request(session, "sql", vertex, 0, out),
            )

    def _check_slice(self, vertex: int, answers: tuple, out: dict) -> None:
        served, hop, count = answers
        if None in answers:
            return
        src, dst = np.array(self.src), np.array(self.dst)
        ranks = oracles.values_array(served.values, self.num_vertices)
        if not _matches(ranks, oracles.pagerank(self.num_vertices, src, dst, 5), exact=False):
            out["errors"].append("served run != oracle")
        # every run of the slice saw the same versions: the miss and all the
        # hits must agree
        if not served.stats.served_from_cache or any(r != served.values for r in out["ranks"]):
            out["errors"].append("served hit != the miss at the same versions")
        if hop != sorted(dst[src == vertex].tolist()):
            out["errors"].append("served one_hop != oracle")
        if count.batch.column("n").values[0] != int((src == vertex).sum()):
            out["errors"].append("served count != oracle")
        self.last_served = ranks

    def _counters(self) -> dict:
        stats = self.service.stats()
        return {
            "serving.cache_hits": stats["cache"]["hits"],
            "serving.cache_misses": stats["cache"]["misses"],
            "serving.cache_evictions": stats["cache"]["evictions"],
            "serving.rejected": stats["rejected"],
            "serving.snapshot_invalid": stats["snapshot_invalid"],
            "wait_s": stats["wait"]["mean_s"] * stats["wait"]["count"],
            "serve_s": stats["serve"]["mean_s"] * stats["serve"]["count"],
            "requests": stats["serve"]["count"],
        }

    async def _slice(self, slice_index: int) -> Step:
        out = {
            "serve_read_s": [], "serve_miss_s": [], "serve_write_s": [], "errors": [], "ranks": [],
        }
        before = self._counters()
        fresh = asyncio.Event()
        started = perf_counter()
        await asyncio.gather(
            self._client(0, slice_index, fresh, out), self._client(1, slice_index, fresh, out)
        )
        vertex = int(self.arrays["request_a"][0, slice_index, 0])
        answers = await self._probe(vertex, out)
        wall = perf_counter() - started
        self._check_slice(vertex, answers, out)
        # the service's own counters, for this slice alone
        layers = {name: value - before[name] for name, value in self._counters().items()}
        requests = layers.pop("requests")
        layers["serving.wait_mean_s"] = layers.pop("wait_s") / requests
        layers["serving.serve_mean_s"] = layers.pop("serve_s") / requests
        lookups = layers["serving.cache_hits"] + layers["serving.cache_misses"]
        layers["serving.cache_hit_rate"] = layers["serving.cache_hits"] / lookups
        errors = out.pop("errors")
        del out["ranks"]
        return Step(
            out,
            work=2 * inputs.SLICE_REQUESTS + 3,
            seconds=wall,
            layers=layers,
            errors=errors,
            attempted=2 * inputs.SLICE_REQUESTS + 3,
            traced_wall=sum(sum(v) for v in out.values()),
        )

    def finish(self) -> list[str]:
        """The last served run must equal a direct run bit for bit."""
        direct = self.vx.run("g", PageRank(iterations=5))
        got = oracles.values_array(direct.values, self.num_vertices)
        if self.last_served is None or not np.array_equal(got, self.last_served):
            return ["final served run != direct vx.run"]
        return []


# ----------------------------------------------------------------------
# The registry: name -> (full size, smoke size, factory).  The one-line
# why of each workload is in BENCHMARK.json.
# ----------------------------------------------------------------------
def _social(cls, with_dml):
    def build(name, rng, size):
        return cls(name, inputs.social_inputs(rng, *size, with_dml=with_dml))

    return build


WORKLOADS = {
    "pagerank_sql": (
        (70_000, 700_000), (1_000, 10_000),
        lambda name, rng, size: pagerank_workload(name, rng, size, {}),
    ),
    "pagerank_shards": (
        (70_000, 700_000), (1_000, 10_000),
        lambda name, rng, size: pagerank_workload(name, rng, size, SHARDS),
    ),
    "sssp_frontier_sql": ((24, 500), (24, 10), sssp_workload),
    "cc_scalar_procs": (
        (8_000, 60_000), (200, 1_500),
        lambda name, rng, size: cc_workload(name, rng, size, workers=min(2, os.cpu_count() or 1)),
    ),
    "coview_extract_run": (
        (25_000, 150_000, 2_000), (500, 3_000, 40), _social(CoviewExtractRun, with_dml=False)
    ),
    "view_refresh_dml": (
        (25_000, 150_000, 2_000), (500, 3_000, 40), _social(ViewRefreshDml, with_dml=True)
    ),
    "serving_mixed": (
        (10_000, 100_000), (300, 3_000),
        lambda name, rng, size: ServingMixed(name, inputs.serving_inputs(rng, *size)),
    ),
}


def build(name: str, seed: int, smoke: bool) -> Workload:
    full, small, factory = WORKLOADS[name]
    return factory(name, np.random.default_rng(seed), small if smoke else full)
