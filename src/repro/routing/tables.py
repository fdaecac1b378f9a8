"""All-pairs shortest-path tables shared by every routing algorithm.

Stores only the (N_r × N_r) hop-distance matrix (int16) and derives
next-hop candidates on demand: the neighbours v of u with
``dist[v, dst] == dist[u, dst] − 1``, memoized per (router,
destination) pair on first use.  Memory stays the distance matrix plus
the sets of the pairs actually visited, while full path diversity stays
exposed (needed by Valiant sampling and by the worst-case traffic
generator, which must know *the* two-hop path between non-adjacent Slim
Fly routers).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distance import adjacency_to_csr


class RoutingTables:
    """Distance matrix + next-hop derivation for one topology."""

    def __init__(self, adjacency: list[list[int]]):
        self.adjacency = adjacency
        self.num_routers = len(adjacency)
        self.dist = self._all_pairs_distances(adjacency)
        self._dist_list: list[list[int]] | None = None
        self._next_hop: np.ndarray | None = None
        self._next_hop_list: list[list[int]] | None = None
        #: Shortest-path next hops (adjacency order) per visited
        #: (router, destination) pair, keyed ``at * num_routers + dst``.
        self._hop_sets: dict[int, tuple[int, ...]] = {}

    @staticmethod
    def _all_pairs_distances(adjacency: list[list[int]]) -> np.ndarray:
        """Levelised BFS from every source, vectorised over the frontier."""
        from scipy.sparse.csgraph import shortest_path

        csr = adjacency_to_csr(adjacency)
        d = shortest_path(csr, method="D", unweighted=True, directed=False)
        if np.isinf(d).any():
            raise ValueError("routing tables require a connected topology")
        return d.astype(np.int16)

    # -- derived tables ---------------------------------------------------

    def _distances_as_lists(self) -> list[list[int]]:
        """Distance matrix as nested Python lists (hot-loop container).

        Scalar indexing into a numpy matrix costs ~3x a plain list
        lookup; deriving a next-hop set scans every neighbour with it.
        """
        if self._dist_list is None:
            self._dist_list = self.dist.tolist()
        return self._dist_list

    def next_hop_matrix(self) -> np.ndarray:
        """``nh[u, dst]``: the deterministic minimal next hop (int32).

        Entry ``(u, u)`` is ``u`` itself.  The tie-break matches
        :meth:`min_path`: the first neighbour in adjacency order lying
        on a shortest path.  Table-driven protocols (MIN) let the
        simulator follow this matrix directly instead of planning a
        path per packet.
        """
        if self._next_hop is None:
            n = self.num_routers
            nh = np.empty((n, n), dtype=np.int32)
            dist = self.dist
            for u, nbrs in enumerate(self.adjacency):
                nbrs_arr = np.asarray(nbrs)
                on_min = dist[nbrs_arr] == dist[u] - 1  # (deg, n)
                first = on_min.argmax(axis=0)
                nh[u] = nbrs_arr[first]
                nh[u, u] = u
            self._next_hop = nh
        return self._next_hop

    def _next_hop_as_lists(self) -> list[list[int]]:
        if self._next_hop_list is None:
            self._next_hop_list = self.next_hop_matrix().tolist()
        return self._next_hop_list

    # -- queries ---------------------------------------------------------

    def distance(self, src: int, dst: int) -> int:
        return int(self.dist[src, dst])

    def _hop_set(self, at: int, dst: int) -> tuple[int, ...]:
        """Memoized :meth:`next_hop_candidates` (empty when at == dst)."""
        key = at * self.num_routers + dst
        hops = self._hop_sets.get(key)
        if hops is None:
            dist = self._distances_as_lists()
            target = dist[at][dst] - 1
            hops = self._hop_sets[key] = tuple(
                v for v in self.adjacency[at] if dist[v][dst] == target
            )
        return hops

    def next_hop_candidates(self, at: int, dst: int) -> list[int]:
        """Neighbours of ``at`` lying on some shortest path to ``dst``."""
        return list(self._hop_set(at, dst))

    def min_path(self, src: int, dst: int) -> list[int]:
        """Deterministic shortest router path [src, ..., dst].

        Tie-break: the first on-path neighbour in adjacency order —
        the "static" in §IV-A's minimal static routing.
        """
        nh = self._next_hop_as_lists()
        path = [src]
        at = src
        while at != dst:
            at = nh[at][dst]
            path.append(at)
        return path

    def sample_min_path(self, src: int, dst: int, rng) -> list[int]:
        """Uniformly-random-per-hop shortest path (used by VAL segments).

        ``rng`` is a ``Generator`` or a :class:`~repro.util.rng.DrawStream`;
        a hop draws ``rng.integers(k)`` only when ``k > 1`` next hops tie.
        """
        memo = self._hop_sets
        n = self.num_routers
        path = [src]
        at = src
        while at != dst:
            # Off the diagonal every set is non-empty, so a miss is None.
            cands = memo.get(at * n + dst) or self._hop_set(at, dst)
            at = cands[rng.integers(len(cands))] if len(cands) > 1 else cands[0]
            path.append(at)
        return path

    def count_min_paths(self, src: int, dst: int) -> int:
        """Number of distinct shortest paths (path-diversity metric)."""
        if src == dst:
            return 1
        # DP over decreasing distance.
        memo: dict[int, int] = {dst: 1}

        def count(u: int) -> int:
            if u in memo:
                return memo[u]
            memo[u] = sum(count(v) for v in self.next_hop_candidates(u, dst))
            return memo[u]

        return count(src)

    def average_distance(self) -> float:
        n = self.num_routers
        return float(self.dist.sum()) / (n * (n - 1))

    def diameter(self) -> int:
        return int(self.dist.max())
