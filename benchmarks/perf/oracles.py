"""Numpy-only oracles the benchmark checks program outputs against."""

from __future__ import annotations

import hashlib

import numpy as np


def values_array(values: dict, num_vertices: int, dtype=np.float64) -> np.ndarray:
    """``result.values`` as a dense array indexed by vertex id (ids must be
    exactly ``0..num_vertices-1``)."""
    if len(values) != num_vertices:
        raise ValueError(f"expected {num_vertices} vertex values, got {len(values)}")
    return np.fromiter((values[v] for v in range(num_vertices)), dtype, num_vertices)


def fingerprint(array: np.ndarray) -> str:
    """sha256 of the exact value bytes — equal only for bit-identical results."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def pagerank(
    num_vertices: int, src: np.ndarray, dst: np.ndarray, iterations: int, damping: float = 0.85
) -> np.ndarray:
    """Dense power iteration with the program's semantics: dangling
    vertices keep their rank and distribute nothing."""
    degree = np.bincount(src, minlength=num_vertices).astype(np.float64)
    rank = np.full(num_vertices, 1.0 / num_vertices)
    for _ in range(iterations):
        share = rank / np.where(degree > 0, degree, 1.0)
        incoming = np.bincount(dst, weights=share[src], minlength=num_vertices)
        rank = (1.0 - damping) / num_vertices + damping * incoming
    return rank


def sssp_layered(
    num_vertices: int, width: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Layer-wise DP from vertex 0 over a DAG whose edges only go from
    layer ``l`` to ``l + 1``; the same additions as the program performs,
    so the comparison is exact."""
    dist = np.full(num_vertices, np.inf)
    dist[0] = 0.0
    edge_layer = src // width
    for layer in range(num_vertices // width - 1):
        sel = edge_layer == layer
        np.minimum.at(dist, dst[sel], dist[src[sel]] + weights[sel])
    return dist


def min_labels(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Minimum-label propagation along ``src -> dst`` to a fixpoint: every
    vertex ends with the smallest id that can reach it (its component's
    smallest id when both directions of every edge are given)."""
    label = np.arange(num_vertices, dtype=np.int64)
    while True:
        relaxed = label.copy()
        np.minimum.at(relaxed, dst, label[src])
        if np.array_equal(relaxed, label):
            return label
        label = relaxed


def co_occurrence_pairs(member: np.ndarray, via: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ordered ``(a, b)``, ``a != b``, pairs of members sharing a
    ``via`` value — the edges a ``CoEdgeSpec`` derives."""
    order = np.argsort(via, kind="stable")
    member, via = member[order], via[order]
    starts = np.flatnonzero(np.r_[True, via[1:] != via[:-1]])
    ends = np.r_[starts[1:], len(via)]
    left, right = [], []
    for start, end in zip(starts, ends):
        group = np.unique(member[start:end])
        a, b = np.meshgrid(group, group, indexing="ij")
        keep = a != b
        left.append(a[keep])
        right.append(b[keep])
    pairs = np.unique(np.stack([np.concatenate(left), np.concatenate(right)], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]
