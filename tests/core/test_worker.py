"""Tests for the worker transform UDF (both input formats)."""

import pytest

from repro.core.api import Vertex
from repro.core.codecs import FLOAT_CODEC, INTEGER_CODEC, vector_codec
from repro.core.program import VertexProgram
from repro.core.shards import shard_index
from repro.core.storage import GraphStorage, payload_layout
from repro.core.worker import VertexWorker, worker_output_schema
from repro.engine import Database
from repro.errors import ProgramError
from repro.programs import PageRank


class EchoProgram(VertexProgram):
    """Sends its value to every neighbor, records messages seen."""

    def __init__(self):
        self.seen: dict[int, list] = {}

    def compute(self, vertex: Vertex) -> None:
        self.seen[vertex.id] = list(vertex.messages)
        vertex.send_message_to_all_neighbors(float(vertex.id))
        vertex.vote_to_halt()


@pytest.fixture
def staged(db: Database):
    """Graph 0->1, 0->2, 1->2 with one pending message to vertex 0."""
    storage = GraphStorage(db)
    handle = storage.load_graph("g", [0, 0, 1], [1, 2, 2])
    program = EchoProgram()
    storage.setup_run(handle, program)
    db.execute("INSERT INTO g_message VALUES (2, 0, 7.5)")
    return db, storage, handle, program


def run_union(staged, superstep: int, n_partitions: int = 1):
    """One union-format worker call over ``staged``, its out-edges read
    from the graph version's topology; returns ``(worker, output)``."""
    db, storage, handle, program = staged
    topology, _ = shard_index(db, handle, n_partitions)
    worker = VertexWorker(program, superstep, 3, input_format="union", topology=topology)
    db.register_transform("w", worker, worker.schema)
    out = db.run_transform(
        "w", storage.union_input_sql(handle, program),
        partition_by=("vid",), order_by=("vid", "kind"), n_partitions=n_partitions,
    )
    return worker, out


class TestUnionFormat:
    def test_parses_vertices_edges_messages(self, staged):
        program = staged[3]
        _, out = run_union(staged, superstep=1)
        assert program.seen[0] == [7.5]
        # vertex 0 has out-degree 2 -> 2 messages; plus 3 vertex updates...
        kinds = out.column("kind").to_list()
        assert kinds.count(1) == 2 + 1 + 0  # v0 two edges, v1 one, v2 none

    def test_superstep0_runs_all_with_no_messages(self, staged):
        db, program = staged[0], staged[3]
        db.execute("TRUNCATE TABLE g_message")
        worker, _ = run_union(staged, superstep=0)
        assert worker.vertices_ran == 3
        assert program.seen == {0: [], 1: [], 2: []}

    def test_halted_without_messages_skipped(self, staged):
        staged[0].execute("UPDATE g_vertex SET halted = TRUE")
        worker, _ = run_union(staged, superstep=2)
        # only vertex 0 has a message; others halted with empty inbox
        assert worker.vertices_ran == 1

    def test_message_to_missing_vertex_dropped(self, staged):
        staged[0].execute("INSERT INTO g_message VALUES (0, 99, 1.0)")
        worker, _ = run_union(staged, superstep=1)
        assert worker.messages_dropped == 1

    def test_partition_count_does_not_change_results(self, staged):
        results = []
        for n_partitions in (1, 2, 8):
            _, out = run_union(staged, superstep=1, n_partitions=n_partitions)
            results.append(sorted(out.to_rows()))
        assert results[0] == results[1] == results[2]

    def test_vertex_ids_off_the_topology_split_raise(self, staged):
        """A partition whose vertex rows are not the ids its topology shard
        split — here a vertex row added after the index was built — has no
        out-edges to read."""
        db, storage, handle, program = staged
        topology, _ = shard_index(db, handle, 1)
        db.execute("INSERT INTO g_vertex VALUES (5, 0.0, FALSE)")
        worker = VertexWorker(program, 1, 3, input_format="union", topology=topology)
        db.register_transform("w", worker, worker.schema)
        with pytest.raises(ProgramError, match="differ from the topology's split"):
            db.run_transform(
                "w", storage.union_input_sql(handle, program),
                partition_by=("vid",), order_by=("vid", "kind"),
            )

    def test_union_worker_needs_a_topology(self):
        with pytest.raises(ProgramError, match="topology"):
            VertexWorker(PageRank(iterations=1), 0, 3, input_format="union")


class TestJoinFormat:
    def test_join_format_matches_union_format(self, staged):
        db, storage, handle, program = staged
        _, union_out = run_union(staged, superstep=1)
        join_worker = VertexWorker(program, superstep=1, num_vertices=3, input_format="join")
        db.register_transform("wj", join_worker, join_worker.schema)
        join_out = db.run_transform(
            "wj", storage.join_input_sql(handle, program),
            partition_by=("vid",), order_by=("vid", "edst", "msrc"),
        )
        assert sorted(union_out.to_rows()) == sorted(join_out.to_rows())

    def test_join_format_dedups_messages(self, db):
        # vertex 0: 3 out-edges x 2 messages = 6 combo rows, but compute
        # must see exactly 2 messages and 3 edges.
        storage = GraphStorage(db)
        handle = storage.load_graph("g", [0, 0, 0], [1, 2, 3])
        program = EchoProgram()
        storage.setup_run(handle, program)
        db.execute("INSERT INTO g_message VALUES (1, 0, 1.0), (2, 0, 2.0)")
        worker = VertexWorker(program, superstep=1, num_vertices=4, input_format="join")
        db.register_transform("w", worker, worker.schema)
        out = db.run_transform(
            "w", storage.join_input_sql(handle, program),
            partition_by=("vid",), order_by=("vid", "edst", "msrc"),
        )
        assert sorted(program.seen[0]) == [1.0, 2.0]
        messages_from_zero = [
            r for r in out.to_rows() if r[0] == 1 and r[1] == 0
        ]
        assert len(messages_from_zero) == 3  # one per out-edge

    def test_unknown_format_rejected(self):
        with pytest.raises(ProgramError, match="input format"):
            VertexWorker(PageRank(iterations=1), 0, 3, input_format="csv")


class TestOutputSchema:
    def test_schema_shape(self):
        schema = worker_output_schema(payload_layout(PageRank(iterations=1)))
        assert schema.names() == ["kind", "vid", "dst", "halted", "f1", "p0"]
        assert [c.dtype.name for c in schema] == [
            "INTEGER", "INTEGER", "INTEGER", "BOOLEAN", "FLOAT", "FLOAT"
        ]

    @pytest.mark.parametrize(
        "vertex_codec, message_codec, lane, vertex, message",
        [
            (INTEGER_CODEC, INTEGER_CODEC, ["INTEGER"], ["p0"], ["p0"]),
            (FLOAT_CODEC, FLOAT_CODEC, ["FLOAT"], ["p0"], ["p0"]),
            (FLOAT_CODEC, vector_codec(3), ["FLOAT"] * 3, ["p0"], ["p0", "p1", "p2"]),
            (vector_codec(2), FLOAT_CODEC, ["FLOAT"] * 2, ["p0", "p1"], ["p0"]),
            (INTEGER_CODEC, FLOAT_CODEC, ["INTEGER", "FLOAT"], ["p0"], ["p1"]),
            (FLOAT_CODEC, INTEGER_CODEC, ["FLOAT", "INTEGER"], ["p0"], ["p1"]),
            (vector_codec(2), INTEGER_CODEC, ["FLOAT", "FLOAT", "INTEGER"], ["p0", "p1"], ["p2"]),
        ],
        ids=["integer", "float", "float+vector", "vector+float", "integer+float",
             "float+integer", "vector+integer"],
    )
    def test_lane_columns_are_typed_by_their_codec(
        self, vertex_codec, message_codec, lane, vertex, message
    ):
        """Codecs of one SQL type share the lane from p0; otherwise the
        message lane follows the vertex lane."""

        class Program(VertexProgram):
            def compute(self, v):
                v.vote_to_halt()

        program = Program()
        program.vertex_codec, program.message_codec = vertex_codec, message_codec
        layout = payload_layout(program)
        schema = worker_output_schema(layout)
        assert schema.names()[5:] == [f"p{j}" for j in range(len(lane))]
        assert [c.dtype.name for c in schema][5:] == lane
        assert (list(layout.vertex), list(layout.message)) == (vertex, message)
