"""End-to-end integration: the full §3/§4 story on one database.

One scenario exercising everything together: load a graph with metadata,
run vertex-centric and SQL algorithms, verify cross-engine agreement,
mutate the graph, re-analyze, checkpoint, and recover.
"""

import numpy as np
import pytest

from repro.baselines.giraph import GiraphEngine
from repro.core import Vertexica
from repro.datasets import MetadataSpec, attach_metadata, power_law_graph
from repro.engine import Database
from repro.programs import ConnectedComponents, PageRank, ShortestPaths
from repro.sql_graph import pagerank_sql, triangle_count_sql, weak_ties_sql
from repro.temporal import GraphMutator


@pytest.fixture(scope="module")
def world():
    """A shared database with a loaded, metadata-rich graph."""
    vx = Vertexica()
    graph = power_law_graph("world", 80, 500, seed=23)
    handle = vx.load_graph(
        graph.name, graph.src, graph.dst, num_vertices=graph.num_vertices
    )
    node_attrs, edge_attrs = attach_metadata(
        vx.db, handle, MetadataSpec(uniform_ints=2, zipf_ints=1, floats=1, strings=1),
        seed=3,
    )
    return vx, graph, handle, node_attrs, edge_attrs


class TestEndToEnd:
    def test_vertex_centric_equals_sql_equals_giraph(self, world):
        vx, graph, handle, _, _ = world
        vertex_ranks = vx.run(handle, PageRank(iterations=6)).values
        sql_ranks = pagerank_sql(vx.db, handle, iterations=6)
        giraph = GiraphEngine(
            graph.num_vertices, graph.src, graph.dst
        ).run(PageRank(iterations=6)).values
        for v in range(graph.num_vertices):
            assert vertex_ranks[v] == pytest.approx(sql_ranks[v], abs=1e-10)
            assert vertex_ranks[v] == pytest.approx(giraph[v], abs=1e-10)

    def test_metadata_filtered_subgraph_analysis(self, world):
        """§3.4: relational selection on metadata feeding a graph algorithm."""
        vx, graph, handle, _, edge_attrs = world
        family_edges = vx.sql(
            f"SELECT src, dst FROM {edge_attrs} WHERE etype = 'family'"
        ).rows()
        assert family_edges
        sub = vx.load_graph(
            "family", [r[0] for r in family_edges], [r[1] for r in family_edges]
        )
        ranks = pagerank_sql(vx.db, sub, iterations=5)
        assert abs(sum(ranks.values())) <= 1.0 + 1e-9

    def test_graph_output_joined_with_metadata(self, world):
        """Post-process PageRank output against node attributes in SQL."""
        vx, graph, handle, node_attrs, _ = world
        vx.run(handle, PageRank(iterations=5))
        rows = vx.sql(
            f"SELECT a.u0, AVG(v.value) AS avg_rank "
            f"FROM world_vertex v JOIN {node_attrs} a ON v.id = a.id "
            f"GROUP BY a.u0 ORDER BY a.u0"
        ).rows()
        assert len(rows) >= 1
        total = vx.sql("SELECT SUM(value) FROM world_vertex").scalar()
        assert total <= 1.0 + 1e-9

    def test_mutation_then_reanalysis(self, world):
        vx, graph, handle, _, _ = world
        mutator = GraphMutator(vx.db, handle)
        triangles_before = triangle_count_sql(vx.db, handle)
        # close a wedge deterministically: find a bridging vertex
        ties = weak_ties_sql(vx.db, handle, min_pairs=1)
        assert ties
        mutated = False
        for v in sorted(ties):
            neighbors = [
                r[0] for r in vx.sql(
                    f"SELECT DISTINCT dst FROM {handle.edge_table} WHERE src = ?",
                    params=(v,),
                ).rows()
            ]
            for i, a in enumerate(neighbors):
                for b in neighbors[i + 1:]:
                    existing = vx.sql(
                        f"SELECT COUNT(*) FROM {handle.edge_table} "
                        f"WHERE (src = ? AND dst = ?) OR (src = ? AND dst = ?)",
                        params=(a, b, b, a),
                    ).scalar()
                    if not existing:
                        mutator.add_edge(a, b)
                        mutated = True
                        break
                if mutated:
                    break
            if mutated:
                break
        assert mutated
        assert triangle_count_sql(vx.db, handle) > triangles_before

    def test_checkpoint_and_recovery_mid_scenario(self, world, tmp_path):
        vx, graph, handle, _, _ = world
        vx.run(handle, ConnectedComponents())
        directory = str(tmp_path / "ckpt")
        vx.db.checkpoint(directory)
        restored = Database.restore(directory)
        original = vx.sql("SELECT id, value FROM world_vertex ORDER BY id").rows()
        recovered = restored.execute(
            "SELECT id, value FROM world_vertex ORDER BY id"
        ).rows()
        assert original == recovered

    def test_sssp_then_relational_report(self, world):
        vx, graph, handle, _, _ = world
        source = int(np.argmax(graph.degree_sequence()))
        vx.run(handle, ShortestPaths(source=source))
        # §4.2: "top shortest paths" console report straight from SQL
        rows = vx.sql(
            "SELECT id, value FROM world_vertex "
            "WHERE value IS NOT NULL AND id <> ? "
            "ORDER BY value ASC, id LIMIT 5",
            params=(source,),
        ).rows()
        assert len(rows) == 5
        distances = [r[1] for r in rows]
        assert distances == sorted(distances)
