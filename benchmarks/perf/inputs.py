"""Seeded, numpy-only input generators for the perf benchmark.

Every workload's inputs come from one ``numpy.random.Generator`` built
from ``--seed``; the program under test only ever sees the generated
arrays.  ``digest`` fingerprints them so two runs can prove they
measured the same inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: per DML cycle: one follows row inserted per this many base rows (1 000
#: at full size), follows rows deleted, likes rows inserted
DML_INSERT_SHARE = 150
DML_DELETES = 10
DML_LIKES = 20
#: pre-generated DML cycles (the refresh loop wraps around past this)
DML_CYCLES = 512
#: requests per client between two barriers of the serving loop
SLICE_REQUESTS = 40
#: pre-generated serving slices (the loop wraps around past this)
SERVING_SLICES = 64
#: serving request kinds, in schedule-code order
REQUEST_KINDS = ("run", "one_hop", "sql", "write")


def digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over names, dtypes, shapes and bytes of the generated arrays."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def power_law_edges(
    rng: np.random.Generator, num_vertices: int, num_edges: int, exponent: float = 0.9
) -> tuple[np.ndarray, np.ndarray]:
    """``num_edges`` distinct directed edges, no self-loops, both endpoints
    Zipf(``exponent``) over a shuffled id space (hubs spread over the
    hash partitions)."""
    cdf = np.cumsum(np.arange(1, num_vertices + 1, dtype=np.float64) ** -exponent)
    cdf /= cdf[-1]
    perm = rng.permutation(num_vertices)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < num_edges:
        need = int((num_edges - len(keys)) * 1.3) + 16
        s = perm[np.searchsorted(cdf, rng.random(need))]
        d = perm[np.searchsorted(cdf, rng.random(need))]
        keys = np.concatenate([keys, (s * num_vertices + d)[s != d]])
        # keep first occurrences, in draw order
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
    keys = keys[:num_edges]
    return keys // num_vertices, keys % num_vertices


def graph_inputs(rng: np.random.Generator, num_vertices: int, num_edges: int) -> dict:
    src, dst = power_law_edges(rng, num_vertices, num_edges)
    return {"num_vertices": np.int64(num_vertices), "src": src, "dst": dst}


def layered_dag_inputs(
    rng: np.random.Generator, layers: int, width: int, fan_out: int = 5
) -> dict:
    """``layers`` x ``width`` vertices; every vertex but the last layer's
    has up to ``fan_out`` distinct random out-edges into the next layer,
    weights uniform in [1, 2).  Vertex 0 is the SSSP source, so the
    frontier never exceeds ``width``."""
    num_vertices = layers * width
    src = np.repeat(np.arange(num_vertices - width, dtype=np.int64), fan_out)
    dst = (src // width + 1) * width + rng.integers(0, width, len(src))
    keys = np.unique(src * num_vertices + dst)
    return {
        "num_vertices": np.int64(num_vertices),
        "width": np.int64(width),
        "src": keys // num_vertices,
        "dst": keys % num_vertices,
        "weights": rng.uniform(1.0, 2.0, len(keys)),
    }


def social_inputs(
    rng: np.random.Generator, users: int, follows: int, groups: int, with_dml: bool
) -> dict:
    """A normalized ``users`` / ``follows`` / ``likes`` schema.

    ``follows`` is a power-law follower graph with a ``closeness`` payload
    and a row ``id``; ``likes`` has ``groups`` via-groups of
    ``clip(150 / rank^0.35, 2, 150)`` distinct users each, so the
    co-occurrence expansion is dominated by a few large groups.  With
    ``with_dml`` it also carries the DML cycles of the refresh loop.
    """
    src, dst = power_law_edges(rng, users, follows)
    sizes = np.clip(150.0 / np.arange(1, groups + 1) ** 0.35, 2, 150).astype(np.int64)
    sizes = np.minimum(sizes, users)
    out = {
        "num_users": np.int64(users),
        "num_groups": np.int64(groups),
        "follow_src": src,
        "follow_dst": dst,
        "closeness": np.round(rng.uniform(0.1, 5.0, follows), 3),
        "like_user": np.concatenate(
            [rng.choice(users, size, replace=False) for size in sizes]
        ),
        "like_post": np.repeat(np.arange(groups, dtype=np.int64), sizes),
    }
    if with_dml:
        shape = (DML_CYCLES, follows // DML_INSERT_SHARE)
        out["dml_src"] = rng.integers(0, users, shape)
        out["dml_dst"] = rng.integers(0, users, shape)
        out["dml_closeness"] = np.round(rng.uniform(0.1, 5.0, shape), 3)
        # each cycle deletes DML_DELETES original rows, a fresh id range each time
        out["dml_delete_from"] = (
            rng.permutation(follows // DML_DELETES)[:DML_CYCLES] * DML_DELETES
        )
        out["dml_like_user"] = np.stack(
            [rng.choice(users, min(DML_LIKES, users), replace=False) for _ in range(DML_CYCLES)]
        )
    return out


def serving_inputs(rng: np.random.Generator, num_vertices: int, num_edges: int) -> dict:
    """A graph plus the two clients' request schedules, fixed up front.

    Per slice of ``SLICE_REQUESTS`` each client issues 30/42/28 % run /
    one_hop / SQL reads, except that client 0 opens with the slice's one
    write and a run, and the first half of client 1's slice is cheap reads
    only.  Read arguments walk a permutation of the vertices, so no
    one_hop or SQL key comes back before the edge table has changed: the
    cache can only ever hit on runs."""
    out = graph_inputs(rng, num_vertices, num_edges)
    shape = (2, SERVING_SLICES, SLICE_REQUESTS)
    kinds = rng.choice(3, size=shape, p=[0.30, 0.42, 0.28])
    kinds[0, :, 0] = REQUEST_KINDS.index("write")
    kinds[0, :, 1] = REQUEST_KINDS.index("run")
    half = SLICE_REQUESTS // 2
    kinds[1, :, :half] = rng.choice([1, 2], size=(SERVING_SLICES, half), p=[0.6, 0.4])
    out["request_kind"] = kinds
    walk = rng.permutation(num_vertices)
    # slice-major, so that the requests of one slice are distinct vertices
    order = np.arange(kinds.size).reshape(SERVING_SLICES, 2, SLICE_REQUESTS).swapaxes(0, 1)
    out["request_a"] = walk[order % num_vertices]
    out["request_b"] = rng.integers(0, num_vertices, shape)
    return out
