"""Label propagation — majority-vote community detection.

Each vertex starts labeled with its own id (or a seed label) and each
superstep adopts the most frequent label among its neighbors' messages,
breaking ties toward the smallest label for determinism.  Runs a fixed
number of rounds; communities are the final label groups.

Unlike PageRank/SSSP this program has no SQL-pushable combiner — the
update needs the full label multiset — so it also exercises Vertexica's
uncombined message path.  The batch kernel computes the per-vertex mode
with one ``(segment, label)`` sort: runs of equal pairs are counted by
run-length, and the winning run per segment is the first one reaching
the segment's maximum count (runs are label-ascending within a segment,
so "first" is exactly the smallest-label tie-break).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.api import Vertex
from repro.core.codecs import INTEGER_CODEC
from repro.core.program import BatchVertexProgram, VertexBatch

__all__ = ["LabelPropagation"]


class LabelPropagation(BatchVertexProgram):
    """Synchronous label propagation over an undirected (symmetrized) graph.

    Args:
        iterations: label-update rounds.
        seeds: optional ``{vertex_id: label}`` fixing initial labels
            (e.g. known communities); unlisted vertices start as their id.
    """

    vertex_codec = INTEGER_CODEC
    message_codec = INTEGER_CODEC
    combiner = None

    def __init__(self, iterations: int = 5, seeds: dict[int, int] | None = None) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.seeds = dict(seeds) if seeds else {}
        self.max_supersteps = iterations + 1

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> int:
        return self.seeds.get(vertex_id, vertex_id)

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = ids.copy()
        if self.seeds:
            keys = np.array(sorted(self.seeds), dtype=np.int64)
            seeded = np.array([int(self.seeds[k]) for k in keys.tolist()], dtype=np.int64)
            at = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
            hit = keys[at] == ids
            labels[hit] = seeded[at[hit]]
        return labels, np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep > 0 and vertex.messages:
            counts = Counter(vertex.messages)
            best_count = max(counts.values())
            winner = min(label for label, count in counts.items() if count == best_count)
            if winner != vertex.value:
                vertex.modify_vertex_value(winner)
        if vertex.superstep < self.iterations:
            vertex.send_message_to_all_neighbors(vertex.value)
        else:
            vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep > 0 and len(batch.message_values):
            counts = batch.message_counts
            segments = np.repeat(np.arange(batch.size), counts)
            labels = batch.message_values.astype(np.int64, copy=False)
            order = np.lexsort((labels, segments))
            seg = segments[order]
            lab = labels[order]
            # Run-length encode the sorted (segment, label) pairs.
            run_start = np.flatnonzero(
                np.r_[True, (seg[1:] != seg[:-1]) | (lab[1:] != lab[:-1])]
            )
            run_seg = seg[run_start]
            run_label = lab[run_start]
            run_count = np.diff(np.append(run_start, len(seg)))
            # Per segment: the first run reaching the max count wins —
            # runs are label-ascending, so ties break to the smallest.
            seg_start = np.flatnonzero(np.r_[True, run_seg[1:] != run_seg[:-1]])
            runs_per_seg = np.diff(np.append(seg_start, len(run_seg)))
            best_count = np.maximum.reduceat(run_count, seg_start)
            is_best = run_count == np.repeat(best_count, runs_per_seg)
            positions = np.where(is_best, np.arange(len(run_seg)), len(run_seg))
            winner_run = np.minimum.reduceat(positions, seg_start)
            new_values = batch.values.copy()
            new_values[run_seg[seg_start]] = run_label[winner_run]
            batch.set_values(new_values)
        if batch.superstep < self.iterations:
            batch.send_to_all_neighbors(batch.values)
        else:
            batch.vote_to_halt()
