"""Tests for the relational graph storage layer."""

import numpy as np
import pytest

from repro.core.codecs import FLOAT_CODEC, INTEGER_CODEC, ValueCodec, vector_codec
from repro.core.program import VertexProgram
from repro.core.shards import shard_index
from repro.core.storage import GraphStorage
from repro.engine import Database
from repro.engine.column import Column
from repro.engine.types import FLOAT, INTEGER
from repro.errors import GraphLoadError, TypeMismatchError
from repro.programs import ConnectedComponents, PageRank


@pytest.fixture
def storage(db: Database) -> GraphStorage:
    return GraphStorage(db)


class TestLoadGraph:
    def test_creates_edge_and_node_tables(self, storage, db):
        handle = storage.load_graph("g", [0, 1], [1, 2])
        assert db.has_table("g_edge") and db.has_table("g_node")
        assert handle.num_vertices == 3
        assert handle.num_edges == 2

    def test_num_vertices_adds_isolated(self, storage):
        handle = storage.load_graph("g", [0], [1], num_vertices=5)
        assert handle.num_vertices == 5

    def test_default_weights_are_one(self, storage, db):
        storage.load_graph("g", [0], [1])
        assert db.execute("SELECT weight FROM g_edge").scalar() == 1.0

    def test_reload_replaces(self, storage, db):
        storage.load_graph("g", [0, 1], [1, 2])
        handle = storage.load_graph("g", [5], [6])
        assert handle.num_edges == 1

    def test_bad_name_rejected(self, storage):
        with pytest.raises(GraphLoadError, match="identifier"):
            storage.load_graph("bad name!", [0], [1])

    def test_ragged_arrays_rejected(self, storage):
        with pytest.raises(GraphLoadError, match="differ in length"):
            storage.load_graph("g", [0, 1], [1])

    def test_negative_ids_rejected(self, storage):
        with pytest.raises(GraphLoadError, match="non-negative"):
            storage.load_graph("g", [-1], [1])

    @pytest.mark.parametrize(
        "bad",
        [
            dict(src=[5, 6], dst=[6, 7], node_ids=[-1, 3]),
            dict(src=[5, -6], dst=[6, 7]),
            dict(src=[5, 6], dst=[6, 7], weights=[1.0]),
        ],
    )
    def test_rejected_reload_leaves_the_previous_graph(self, storage, db, bad):
        handle = storage.load_graph("g", [0, 1, 2], [1, 2, 0], weights=[0.5, 1.5, 2.5])
        storage.setup_run(handle, PageRank())
        index, _ = shard_index(db, handle, 2)
        edges, nodes = db.table("g_edge"), db.table("g_node")
        versions = (edges.uid, edges.version, nodes.uid, nodes.version)
        with pytest.raises(GraphLoadError):
            storage.load_graph("g", **bad)
        assert db.table("g_edge") is edges and db.table("g_node") is nodes
        assert (edges.uid, edges.version, nodes.uid, nodes.version) == versions
        assert db.execute("SELECT * FROM g_edge").rows() == [
            (0, 1, 0.5), (1, 2, 1.5), (2, 0, 2.5)
        ]
        assert db.execute("SELECT id FROM g_node").rows() == [(0,), (1,), (2,)]
        assert shard_index(db, handle, 2)[0] is index  # the kept index, not a rebuild

    def test_node_set_is_the_union_of_every_source(self, storage, db):
        handle = storage.load_graph("g", [9, 2], [2, 4], num_vertices=3, node_ids=[40, 4, 1])
        ids = db.execute("SELECT id FROM g_node").rows()
        assert ids == [(0,), (1,), (2,), (4,), (9,), (40,)]
        assert handle.num_vertices == 6

    def test_handle_reattach(self, storage):
        storage.load_graph("g", [0, 1], [1, 2])
        handle = storage.handle("g")
        assert handle.num_vertices == 3

    def test_handle_unknown_graph(self, storage):
        with pytest.raises(GraphLoadError, match="not loaded"):
            storage.handle("ghost")


class TestSetupRun:
    def test_vertex_table_types_follow_codec(self, storage, db):
        handle = storage.load_graph("g", [0, 1], [1, 2])
        storage.setup_run(handle, PageRank(iterations=2))
        assert db.table("g_vertex").schema.column("value").dtype.name == "FLOAT"
        storage.setup_run(handle, ConnectedComponents())
        assert db.table("g_vertex").schema.column("value").dtype.name == "INTEGER"

    def test_initial_values_computed(self, storage, db):
        handle = storage.load_graph("g", [0, 1], [1, 2], num_vertices=4)
        storage.setup_run(handle, PageRank(iterations=2))
        values = db.execute("SELECT value FROM g_vertex").column("value")
        assert all(v == pytest.approx(0.25) for v in values)

    def test_no_vertex_starts_halted(self, storage, db):
        handle = storage.load_graph("g", [0], [1])
        storage.setup_run(handle, PageRank(iterations=1))
        assert db.execute(
            "SELECT COUNT(*) FROM g_vertex WHERE halted"
        ).scalar() == 0

    @pytest.mark.parametrize(
        "codec, make",
        [
            (FLOAT_CODEC, lambda v, d: [-0.0, 1e300, float("nan"), v / 3 - d * 0.7][v % 4]),
            (FLOAT_CODEC, lambda v, d: v * d),  # ints, encoded by float()
            (INTEGER_CODEC, lambda v, d: 2**62 - v * 1_000_003 - d),
            (INTEGER_CODEC, lambda v, d: v / 2),  # floats, truncated by int()
            (ValueCodec("pair-sum", INTEGER, sum, int), lambda v, d: [v, d]),
            (ValueCodec("f32", FLOAT, np.float32, float), lambda v, d: v / 7),
            (ValueCodec("u8", INTEGER, np.uint8, int), lambda v, d: v),
            (FLOAT_CODEC, lambda v, d: None),
        ],
        ids=[
            "float", "float-from-int", "integer", "integer-from-float", "custom-from-list",
            "numpy-float32", "numpy-uint8", "all-null",
        ],
    )
    def test_initial_value_column_is_from_values_bytes(self, storage, db, codec, make):
        """The vertex table's value column is byte for byte the column
        ``Column.from_values`` builds from the encoded initial values,
        NULLs (every third vertex here) included, whichever way it was
        built."""

        class Initial(VertexProgram):
            vertex_codec = codec

            def initial_value(self, vertex_id, out_degree, num_vertices):
                return None if vertex_id % 3 == 1 else make(vertex_id, out_degree)

            def compute(self, vertex):
                vertex.vote_to_halt()

        handle = storage.load_graph("g", [0, 0, 4, 9], [1, 2, 4, 3], num_vertices=30)
        program = Initial()
        storage.setup_run(handle, program)
        degrees = storage.out_degrees(handle)
        expected = Column.from_values(
            codec.sql_type,
            [
                codec.encode_or_none(program.initial_value(v, degrees.get(v, 0), 30))
                for v in range(30)
            ],
        )
        got = db.table("g_vertex").data().column("value")
        assert got.dtype is expected.dtype and got.values.dtype == expected.values.dtype
        assert got.valid.tobytes() == expected.valid.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()

    def test_initial_value_of_the_wrong_type_still_raises(self, storage):
        class Bools(VertexProgram):
            vertex_codec = ValueCodec("flag", INTEGER, bool, int)

            def initial_value(self, vertex_id, out_degree, num_vertices):
                return vertex_id

            def compute(self, vertex):
                vertex.vote_to_halt()

        handle = storage.load_graph("g", [0], [1])
        with pytest.raises(TypeMismatchError, match="BOOLEAN"):
            storage.setup_run(handle, Bools())

    def test_out_degrees(self, storage):
        handle = storage.load_graph("g", [0, 0, 1], [1, 2, 2], num_vertices=4)
        degrees = storage.out_degrees(handle)
        assert degrees == {0: 2, 1: 1}


class TestInputSql:
    def test_union_input_carries_vertices_and_messages(self, storage, db):
        """The union input is the vertex and message rows: the worker reads
        out-edges from the graph version's topology, so the query neither
        carries an edge weight column nor scans the edge table."""
        handle = storage.load_graph("g", [0, 1], [1, 0])
        program = PageRank(iterations=1)
        storage.setup_run(handle, program)
        db.execute("INSERT INTO g_message VALUES (0, 1, 0.5)")
        db.execute(f"DROP TABLE {handle.edge_table}")
        batch = db.query_batch(storage.union_input_sql(handle, program))
        kinds = sorted(set(batch.column("kind").to_list()))
        assert kinds == [0, 2]
        assert batch.schema.names() == ["vid", "kind", "i1", "p0"]
        assert batch.num_rows == 2 + 1

    def test_join_input_row_count_is_product(self, storage, db):
        # vertex 0 has 2 out-edges and 2 incoming messages -> 4 combo rows.
        handle = storage.load_graph("g", [0, 0], [1, 2], num_vertices=3)
        storage.setup_run(handle, PageRank(iterations=1))
        db.execute("INSERT INTO g_message VALUES (1, 0, 0.5), (2, 0, 0.25)")
        batch = db.query_batch(storage.join_input_sql(handle, PageRank(iterations=1)))
        zero_rows = [r for r in batch.to_rows() if r[0] == 0]
        assert len(zero_rows) == 4
        # vertices with no edges/messages still appear once
        one_rows = [r for r in batch.to_rows() if r[0] == 1]
        assert len(one_rows) == 1

    def test_join_input_carries_codec_columns(self, storage, db):
        """The join projects each codec's own storage columns: a vector
        vertex codec's ``v0..`` as ``vv0..``, an INTEGER message codec's
        ``value`` as ``mvalue`` — each in its own SQL type."""

        class Mixed(VertexProgram):
            vertex_codec = vector_codec(2)
            message_codec = INTEGER_CODEC

            def initial_value(self, vertex_id, out_degree, num_vertices):
                return [float(vertex_id), -1.5]

            def compute(self, vertex):
                vertex.vote_to_halt()

        program = Mixed()
        handle = storage.load_graph("g", [0], [1])
        storage.setup_run(handle, program)
        db.execute("INSERT INTO g_message VALUES (1, 0, 7)")
        batch = db.query_batch(storage.join_input_sql(handle, program))
        assert batch.schema.names() == [
            "vid", "halted", "vv0", "vv1", "edst", "eweight", "msrc", "mvalue"
        ]
        assert [column.dtype for column in batch.schema][2:4] == [FLOAT, FLOAT]
        assert batch.schema[-1].dtype is INTEGER
        assert sorted(batch.to_rows()) == [
            (0, 0, 0.0, -1.5, 1, 1.0, 1, 7), (1, 0, 1.0, -1.5, None, None, None, None)
        ]
