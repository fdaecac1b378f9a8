"""Diameter and average distance (paper §III-A/B, Fig 1, Table II).

All computations run on plain adjacency lists (``list[list[int]]``),
the lingua franca between the topology classes, the routing tables,
and the simulator.  Hot paths are delegated to compiled code: the
all-pairs matrix (:func:`hop_distances`) to one sparse product per BFS
level, the per-source sweeps to :func:`scipy.sparse.csgraph` BFS.

For large graphs the exact all-pairs sweep can be replaced by a
sampled one (``sources=...``) — the estimator used for the biggest
Fig 1 points; the sampling is over BFS *sources*, which is unbiased
for the average distance.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.util.rng import make_rng


def adjacency_to_csr(adjacency: list[list[int]]) -> csr_matrix:
    """Adjacency lists -> scipy CSR matrix (unweighted, symmetric)."""
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v, nbrs in enumerate(adjacency):
        indptr[v + 1] = indptr[v] + len(nbrs)
    indices = np.empty(indptr[-1], dtype=np.int64)
    for v, nbrs in enumerate(adjacency):
        indices[indptr[v] : indptr[v + 1]] = nbrs
    data = np.ones(len(indices), dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def bfs_distances(adjacency: list[list[int]], source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 if unreachable)."""
    n = len(adjacency)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def hop_distances(adjacency: list[list[int]]) -> np.ndarray:
    """All-pairs hop distances (int16; −1 where unreachable).

    Level-synchronous BFS from every source at once: column ``s`` of the
    frontier marks the vertices first reached from ``s`` at the current
    level, and one sparse product per level (``csr @ frontier``, float32
    neighbour counts) marks every vertex adjacent to it.  The expansion
    stops at the first level that reaches nothing new, or as soon as
    every pair is reached, so a connected graph costs one product per
    level of its diameter.  Edges count in both directions, as for an
    undirected graph.
    """
    n = len(adjacency)
    csr = adjacency_to_csr(adjacency).astype(np.float32)
    csr = csr + csr.T
    frontier = np.eye(n, dtype=np.float32)
    unseen = frontier == 0
    dist = np.zeros((n, n), dtype=np.int16)
    for level in range(1, n):
        if not unseen.any():
            break
        new = csr @ frontier > 0
        new &= unseen
        if not new.any():
            break
        np.copyto(dist, level, where=new)
        unseen ^= new
        np.copyto(frontier, new)
    dist[unseen] = -1
    return dist


def distance_matrix(adjacency: list[list[int]]) -> np.ndarray:
    """All-pairs hop distance matrix (float; ``inf`` if disconnected)."""
    hops = hop_distances(adjacency)
    dist = hops.astype(np.float64)
    dist[hops < 0] = np.inf
    return dist


def diameter_and_average_distance(
    adjacency: list[list[int]],
    sources: int | None = None,
    seed=None,
) -> tuple[int, float]:
    """Return ``(diameter, average_distance)`` over distinct vertex pairs.

    Parameters
    ----------
    adjacency:
        Neighbour lists; the graph must be connected (raises otherwise).
    sources:
        If given, sample this many BFS sources uniformly without
        replacement instead of sweeping all vertices.  The diameter is
        then a lower bound and the average an unbiased estimate.
    seed:
        RNG seed for source sampling.
    """
    n = len(adjacency)
    if n <= 1:
        return 0, 0.0
    if sources is None or sources >= n:
        source_list = range(n)
    else:
        rng = make_rng(seed)
        source_list = rng.choice(n, size=sources, replace=False)

    csr = adjacency_to_csr(adjacency)
    worst = 0
    total = 0.0
    count = 0
    for s in source_list:
        # C-speed BFS; node order then distances by position.
        order, preds = breadth_first_order(
            csr, int(s), directed=False, return_predecessors=True
        )
        if len(order) != n:
            raise ValueError("graph is disconnected; distances undefined")
        dist = _distances_from_bfs(order, preds, n)
        worst = max(worst, int(dist.max()))
        total += float(dist.sum())
        count += n - 1
    return worst, total / count


def _distances_from_bfs(order: np.ndarray, preds: np.ndarray, n: int) -> np.ndarray:
    """Reconstruct hop distances from scipy's BFS order/predecessors."""
    dist = np.zeros(n, dtype=np.int64)
    # order[0] is the source; nodes appear in nondecreasing distance.
    for v in order[1:]:
        dist[v] = dist[preds[v]] + 1
    return dist


def diameter(adjacency: list[list[int]]) -> int:
    """Exact diameter of a connected graph."""
    return diameter_and_average_distance(adjacency)[0]


def average_distance(
    adjacency: list[list[int]], sources: int | None = None, seed=None
) -> float:
    """Average hop distance over distinct vertex pairs (Fig 1's y-axis).

    This is the router-to-router average; the paper's "average number
    of hops" for endpoint pairs equals the same quantity because every
    endpoint pair on distinct routers contributes its routers'
    distance, and the concentration factor cancels in the average
    (endpoints on the same router communicate in 0 network hops but
    both the paper and this function average over *distinct router
    pairs*, matching Fig 1's asymptotics).
    """
    return diameter_and_average_distance(adjacency, sources=sources, seed=seed)[1]


def eccentricity(adjacency: list[list[int]], vertex: int) -> int:
    """Largest hop distance from ``vertex`` (∞ -> raises on disconnect)."""
    dist = bfs_distances(adjacency, vertex)
    if (dist < 0).any():
        raise ValueError("graph is disconnected; eccentricity undefined")
    return int(dist.max())
