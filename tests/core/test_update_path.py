"""The SQL plane's set-oriented Update path.

``GraphStorage.apply_vertex_updates(replace=False)`` writes every staged
kind-0 row in one keyed scatter through ``Table.update_rows``.  It
replaced a loop issuing one ``UPDATE … WHERE id = ?`` per staged row;
that loop survives here as the reference (:func:`per_tuple_apply`), and
these tests hold the set write to it bit for bit:

* after every superstep of SSSP (FLOAT), ConnectedComponents (INTEGER),
  CF and MultiSourceSSSP (vector) and a program that writes NULLs under
  each codec kind, at int64 extremes and with
  vertex and message codecs of different types, the vertex table under
  ``update_strategy="update"`` equals the reference's and the shard
  plane's position by position and the replace path's row by row, NULLs
  and ``halted`` included, and the message table equals the shard
  plane's row by row;
* the delta change capture records for one update step equals the
  reference's, as row multisets;
* statements per update-path superstep do not grow with the frontier;
* INTEGER values above 2^53 stay exact on both planes: every payload
  rides the payload lane in its codec's own type.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import Vertexica
from repro.core.codecs import FLOAT_CODEC, INTEGER_CODEC, vector_codec
from repro.core.program import VertexProgram
from repro.core.sqlplane import SqlDataPlane
from repro.core.storage import GraphStorage, payload_layout
from repro.engine.batch import RecordBatch
from repro.engine.database import Database
from repro.programs import (
    CollaborativeFiltering,
    ConnectedComponents,
    MultiSourceSSSP,
    ShortestPaths,
)

_set_apply = GraphStorage.apply_vertex_updates


def per_tuple_apply(storage, graph, program, replace, superstep=None, updates=None):
    """The deleted tuple-at-a-time Update path: one parsed, planned and
    executed ``UPDATE … WHERE id = ?`` per staged kind-0 row.  The
    replace path is left as it is."""
    if replace:
        return _set_apply(storage, graph, program, replace, superstep, updates)
    db = storage.db
    updates = storage.count_staged(graph)[0]
    if updates == 0:
        return 0
    staged = db.execute(
        f"SELECT vid, {', '.join(payload_layout(program).vertex)}, halted "
        f"FROM {graph.output_table} WHERE kind = 0"
    ).rows()
    set_clause = ", ".join(f"{name} = ?" for name in program.vertex_codec.column_names())
    for row in staged:
        vid, values, halted = row[0], row[1:-1], row[-1]
        db.execute(
            f"UPDATE {graph.vertex_table} SET {set_clause}, halted = ? WHERE id = ?",
            params=(*values, halted, vid),
        )
    return updates


def assert_tables_identical(a: RecordBatch, b: RecordBatch) -> None:
    """Same columns, same NULL positions, and the same bytes at every
    non-NULL position."""
    assert a.schema.names() == b.schema.names()
    for name, ca, cb in zip(a.schema.names(), a.columns, b.columns):
        assert ca.dtype is cb.dtype, name
        np.testing.assert_array_equal(ca.valid, cb.valid, err_msg=name)
        assert ca.values[ca.valid].tobytes() == cb.values[cb.valid].tobytes(), name


def in_id_order(batch: RecordBatch) -> RecordBatch:
    """The rows by ascending id.  The replace path's LEFT JOIN emits the
    updated vertices first and the rest after them, so its table equals
    the others row for row, not position for position."""
    return batch.take(np.argsort(batch.column("id").values, kind="stable"))


def in_route_order(batch: RecordBatch) -> RecordBatch:
    """Message rows by ``(dst, src)``.  The SQL plane keeps staging order,
    the shard plane's sync destination order; a sender sends one payload
    per superstep, so rows that tie are identical."""
    return batch.take(
        np.lexsort((batch.column("src").values, batch.column("dst").values))
    )


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
class NullWriter(VertexProgram):
    """Every vertex that runs rewrites its value — to NULL for a rotating
    third of the ids — halts for a rotating half, and messages its
    out-neighbours for a rotating quarter, forwarding the first message it
    received (its own message payload when it received none): update
    steps carry NULL over values, values over NULLs, both halt states,
    frontiers of every size, and message payloads through both planes'
    decode and staging.  The message codec defaults to the vertex codec."""

    max_supersteps = 7

    def __init__(self, codec, payload, message_codec=None, message=None) -> None:
        self.vertex_codec = codec
        self.message_codec = message_codec or codec
        self.payload = payload
        self.message = message or payload

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int):
        return None if vertex_id % 5 == 0 else self.payload(vertex_id, -1)

    def compute(self, vertex) -> None:
        step, vid = vertex.superstep, vertex.id
        nulled = (vid + step) % 3 == 0
        vertex.modify_vertex_value(None if nulled else self.payload(vid, step))
        if (vid + step) % 4 == 0:
            sent = vertex.messages[0] if vertex.messages else self.message(vid, step)
            for edge in vertex.out_edges:
                vertex.send_message(edge.target, sent)
        if (vid + step) % 2:
            vertex.vote_to_halt()


INT64 = np.iinfo(np.int64)


def int64_extremes(v: int, s: int) -> int:
    """Odd values above 2^53, ±(2^62 + k) and the int64 bounds."""
    picks = [2**53 + 2 * v + 1, 2**62 + v + s, -(2**62 + v + s), int(INT64.min), int(INT64.max)]
    return picks[(v + s) % 5]


def random_graph(seed: int = 3, n: int = 40, m: int = 120):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.5, 3.0, m), n


def bipartite_graph():
    """Users 0..9 rate items 10..17 (CF's input shape)."""
    rng = np.random.default_rng(5)
    users = rng.integers(0, 10, 50)
    items = rng.integers(10, 18, 50)
    return users, items, rng.integers(1, 6, 50).astype(float), 18


CASES = [
    pytest.param(lambda: ShortestPaths(0), random_graph, False, id="sssp-float"),
    pytest.param(ConnectedComponents, random_graph, True, id="cc-integer"),
    pytest.param(
        lambda: CollaborativeFiltering(iterations=3, rank=3),
        bipartite_graph, True, id="cf-vector",
    ),
    pytest.param(
        lambda: MultiSourceSSSP(sources=(0, 7, 13)), random_graph, False, id="msssp-vector"
    ),
]
NULL_CASES = [
    pytest.param(
        lambda: NullWriter(FLOAT_CODEC, lambda v, s: v / 3 - s * 0.7),
        random_graph, False, id="nulls-float",
    ),
    pytest.param(
        lambda: NullWriter(INTEGER_CODEC, lambda v, s: -(v * 1_000_003 + s)),
        random_graph, False, id="nulls-integer",
    ),
    pytest.param(
        lambda: NullWriter(vector_codec(1), lambda v, s: [v - s / 3]),
        random_graph, False, id="nulls-vector1",
    ),
    pytest.param(
        lambda: NullWriter(vector_codec(3), lambda v, s: [v / 7, -0.0, s * 1e300]),
        random_graph, False, id="nulls-vector",
    ),
    pytest.param(
        lambda: NullWriter(INTEGER_CODEC, int64_extremes),
        random_graph, False, id="nulls-int64-extremes",
    ),
    pytest.param(
        lambda: NullWriter(
            INTEGER_CODEC, lambda v, s: 2**53 + 2 * v + 1 + s, FLOAT_CODEC, lambda v, s: v / 3 - s
        ),
        random_graph, False, id="mixed-integer-float",
    ),
    pytest.param(
        lambda: NullWriter(
            FLOAT_CODEC, lambda v, s: v / 3 - s * 0.7,
            vector_codec(3), lambda v, s: [v / 7, -0.0, s * 1e300],
        ),
        random_graph, False, id="mixed-float-vector",
    ),
    pytest.param(
        lambda: NullWriter(
            vector_codec(3), lambda v, s: [v / 7, -0.0, s * 1e300],
            FLOAT_CODEC, lambda v, s: -v / 9 + s,
        ),
        random_graph, False, id="mixed-vector-float",
    ),
]


def tables_after(monkeypatch, make_program, make_graph, symmetrize, mode, supersteps):
    """The vertex and message tables after ``supersteps`` supersteps under
    ``mode`` (``"update"``, ``"replace"``, ``"reference"`` — the Update
    path through :func:`per_tuple_apply` — or ``"shards"``, the shard
    plane, whose final sync writes the capped state), plus the run's
    update paths."""
    options = (
        {"data_plane": "shards"}
        if mode == "shards"
        else {"update_strategy": "replace" if mode == "replace" else "update"}
    )
    with monkeypatch.context() as patch:
        if mode == "reference":
            patch.setattr(GraphStorage, "apply_vertex_updates", per_tuple_apply)
        src, dst, weights, n = make_graph()
        vx = Vertexica()
        graph = vx.load_graph(
            "g", src, dst, weights=weights, num_vertices=n, symmetrize=symmetrize
        )
        result = vx.run(graph, make_program(), max_supersteps=supersteps, **options)
    paths = [step.update_path for step in result.stats.supersteps]
    tables = vx.db.table(graph.vertex_table).data(), vx.db.table(graph.message_table).data()
    return tables, paths


def vertex_table_after(monkeypatch, make_program, make_graph, symmetrize, mode, supersteps):
    """The vertex table of :func:`tables_after`, plus the update paths."""
    (vertices, _), paths = tables_after(
        monkeypatch, make_program, make_graph, symmetrize, mode, supersteps
    )
    return vertices, paths


@pytest.mark.parametrize("make_program, make_graph, symmetrize", CASES + NULL_CASES)
def test_set_update_matches_per_tuple_reference_after_every_superstep(
    monkeypatch, make_program, make_graph, symmetrize
):
    _, paths = vertex_table_after(
        monkeypatch, make_program, make_graph, symmetrize, "update", None
    )
    assert paths.count("update") >= 2  # the path under test really ran
    for supersteps in range(1, len(paths) + 1):
        tables = {
            mode: tables_after(
                monkeypatch, make_program, make_graph, symmetrize, mode, supersteps
            )[0]
            for mode in ("update", "reference", "replace", "shards")
        }
        vertices = {mode: pair[0] for mode, pair in tables.items()}
        assert_tables_identical(vertices["update"], vertices["reference"])
        assert_tables_identical(vertices["update"], vertices["shards"])
        assert_tables_identical(in_id_order(vertices["update"]), in_id_order(vertices["replace"]))
        assert_tables_identical(
            in_route_order(tables["update"][1]), in_route_order(tables["shards"][1])
        )


def test_null_cases_write_nulls_and_both_halt_states(monkeypatch):
    """The NullWriter cases exercise what they claim to."""
    for param in NULL_CASES:
        make_program, make_graph, symmetrize = param.values
        table, _ = vertex_table_after(
            monkeypatch, make_program, make_graph, symmetrize, "update", 4
        )
        value = table.columns[1]
        halted = table.column("halted").values
        assert 0 < np.count_nonzero(~value.valid) < len(value)
        assert 0 < np.count_nonzero(halted) < len(halted)


# ----------------------------------------------------------------------
# One apply at the storage layer: change capture, table order
# ----------------------------------------------------------------------
def staged_apply(apply, shuffle: bool):
    """Set up a 12-vertex SSSP vertex table (rows shuffled out of id
    order when asked), stage four vertex updates in no particular order —
    one NULL value, both halt states — beside a message row, arm change
    capture, and apply them with ``apply``.  Returns the table afterwards,
    the captured delta and how many versions the apply took."""
    vx = Vertexica()
    graph = vx.load_graph("g", np.arange(11), np.arange(1, 12))
    program = ShortestPaths(0)
    vx.storage.setup_run(graph, program)
    table = vx.db.table(graph.vertex_table)
    if shuffle:
        order = np.random.default_rng(1).permutation(table.num_rows)
        table.replace_data(table.data().take(order))
    staging = vx.db.table(graph.output_table)
    staged = RecordBatch.from_rows(
        staging.schema,
        [
            (0, 7, None, True, None, 1.5),
            (0, 2, None, False, None, None),
            (1, 3, 4, None, None, 9.0),
            (0, 11, None, True, None, -2.25),
            (0, 0, None, False, None, 0.0),
        ],
    )
    vx.storage.stage_worker_output(graph, staged)
    table.changelog.enable(table.version)
    before = table.version
    assert apply(vx.storage, graph, program, False) == 4
    return table.data(), table.changes_since(before), table.version - before


def multiset(batch: RecordBatch) -> Counter:
    return Counter(batch.to_rows())


@pytest.mark.parametrize("shuffle", [False, True], ids=["id-ordered", "shuffled"])
def test_one_update_step_captures_the_reference_delta(shuffle):
    table, delta, versions = staged_apply(_set_apply, shuffle)
    ref_table, ref_delta, ref_versions = staged_apply(per_tuple_apply, shuffle)
    assert_tables_identical(table, ref_table)
    assert multiset(delta.inserted) == multiset(ref_delta.inserted)
    assert multiset(delta.deleted) == multiset(ref_delta.deleted)
    assert delta.inserted.num_rows == delta.deleted.num_rows == 4
    # one write: one version bump, where the reference took one per row
    assert (versions, ref_versions) == (1, 4)


# ----------------------------------------------------------------------
# The gate: statements per update-path superstep do not grow
# ----------------------------------------------------------------------
def update_step_statements(monkeypatch, n: int) -> list[tuple[int, int]]:
    """``(vertex updates, Database.execute calls)`` of each update-path
    superstep of ConnectedComponents on an ``n``-vertex undirected chain.
    Labels move one hop per superstep, so the frontier shrinks by one
    vertex a step, and every superstep takes the Update path."""
    calls = [0]
    steps: list[tuple[int, int]] = []
    execute, run_superstep = Database.execute, SqlDataPlane.run_superstep

    def counting_execute(self, *args, **kwargs):
        calls[0] += 1
        return execute(self, *args, **kwargs)

    def counting_superstep(self, *args, **kwargs):
        before = calls[0]
        stats = run_superstep(self, *args, **kwargs)
        if stats.update_path == "update":
            steps.append((stats.vertex_updates, calls[0] - before))
        return stats

    with monkeypatch.context() as patch:
        patch.setattr(Database, "execute", counting_execute)
        patch.setattr(SqlDataPlane, "run_superstep", counting_superstep)
        vx = Vertexica()
        src = np.arange(n - 1)
        graph = vx.load_graph("chain", src, src + 1, symmetrize=True)
        vx.run(graph, ConnectedComponents())
    return steps


def test_statements_per_update_step_do_not_grow_with_the_frontier(monkeypatch):
    small = update_step_statements(monkeypatch, 6)
    large = update_step_statements(monkeypatch, 60)
    assert max(updates for updates, _ in large) >= 25
    assert len({statements for _, statements in small + large}) == 1


# ----------------------------------------------------------------------
# INTEGER payloads above 2^53
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "options",
    [
        {"data_plane": "sql", "update_strategy": "update"},
        {"data_plane": "sql", "update_strategy": "replace"},
        {"data_plane": "shards"},
    ],
    ids=["sql-update", "sql-replace", "shards"],
)
def test_integer_labels_above_2_pow_53_are_exact(options):
    ids = [2**53 + 1, 2**53 + 3, 2**53 + 5, 2**53 + 7]
    vx = Vertexica()
    graph = vx.load_graph("path", ids[:-1], ids[1:], symmetrize=True)
    values = vx.run(graph, ConnectedComponents(), **options).values
    # through a FLOAT payload column every label read 2^53, not even a vertex id
    assert values == {vid: 2**53 + 1 for vid in ids}
