"""Reproduce Figure 2: the paper's four-system performance comparison.

Runs PageRank and single-source shortest paths on the three Figure 2
graphs across all four systems, verifies every system computed the same
answer, and prints the grid in the paper's layout.  Each cell is the
measured wall time plus the simulated latency the baselines charged
(counted, not slept), which the table lists below the grid.

Scale via REPRO_BENCH_SCALE (default 0.25):

    REPRO_BENCH_SCALE=0.1 python examples/reproduce_figure2.py
"""

from repro.bench import bench_graphs, bench_scale, format_figure2_table
from repro.bench.figure2 import figure2_rows


def main() -> None:
    scale = bench_scale()
    graphs = bench_graphs().ordered()
    print(f"scale = {scale}")
    for graph in graphs:
        print(f"  {graph.name:<12} |V| = {graph.num_vertices:>6}  |E| = {graph.num_edges:>7}")
    print()

    for algorithm, title in (
        ("pagerank", "Figure 2(a): PageRank"),
        ("sssp", "Figure 2(b): Single-Source Shortest Paths"),
    ):
        rows = figure2_rows(algorithm, graphs)
        print(format_figure2_table(title, rows))
        print()

    print(
        "All timed systems produced identical results on every graph\n"
        "(asserted via result fingerprints before printing the tables)."
    )


if __name__ == "__main__":
    main()
