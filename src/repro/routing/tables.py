"""All-pairs shortest-path tables shared by every routing algorithm.

Stores only the (N_r × N_r) hop-distance matrix (int16) and derives
next-hop candidates on demand: the neighbours v of u with
``dist[v, dst] == dist[u, dst] − 1``, memoized per (router,
destination) pair on first use.  The planners read whole minimal legs
from a second per-pair memo (:meth:`RoutingTables.min_legs`), so a
sampled leg costs one lookup and the draws the hop-by-hop walk would
make.  Memory stays the distance matrix plus the sets and legs of the
pairs actually visited, while full path diversity stays exposed (needed
by Valiant sampling and by the worst-case traffic generator, which must
know *the* two-hop path between non-adjacent Slim Fly routers).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distance import hop_distances


class RoutingTables:
    """Distance matrix + next-hop derivation for one topology."""

    def __init__(self, adjacency: list[list[int]]):
        self.adjacency = adjacency
        self.num_routers = len(adjacency)
        self.dist = hop_distances(adjacency)
        if (self.dist < 0).any():
            raise ValueError("routing tables require a connected topology")
        self._dist_list: list[list[int]] | None = None
        self._next_hop: np.ndarray | None = None
        #: Shortest-path next hops (adjacency order) per visited
        #: (router, destination) pair, keyed ``at * num_routers + dst``.
        self._hop_sets: dict[int, tuple[int, ...]] = {}
        #: Minimal legs per visited (source, destination) pair, same
        #: keys (see :meth:`min_legs`).  Filled on first use, never in
        #: the constructor, so building tables stays the BFS alone.
        self._legs: dict[int, tuple[tuple[int, ...], ...]] = {}

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
        return list(self.min_leg(src, dst))

    def min_legs(self, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
        """Memoized minimal legs of ``(src, dst)``, one per first hop.

        Legs come in adjacency order of their first hop.  Each follows
        the shortest paths from ``src`` while the next hop is unique, so
        it ends at ``dst`` or at the first router where several next
        hops tie.  On a diameter-2 Slim Fly every leg ends at ``dst``:
        a minimal path there is chosen by at most one draw, at its first
        hop.  ``src == dst`` has the single leg ``(src,)``.
        """
        # A bare Generator draws numpy ints; memoized legs hold ints.
        src, dst = int(src), int(dst)
        key = src * self.num_routers + dst
        legs = self._legs.get(key)
        if legs is None:
            if src == dst:
                legs = ((src,),)
            else:
                found = []
                for at in self._hop_set(src, dst):
                    leg = [src, at]
                    while at != dst and len(hops := self._hop_set(at, dst)) == 1:
                        at = hops[0]
                        leg.append(at)
                    found.append(tuple(leg))
                legs = tuple(found)
            self._legs[key] = legs
        return legs

    def min_leg(self, src: int, dst: int) -> tuple[int, ...]:
        """:meth:`min_path` as a tuple: the first leg at every tie."""
        leg = (self._legs.get(src * self.num_routers + dst) or self.min_legs(src, dst))[0]
        if leg[-1] != dst:
            return leg[:-1] + self.min_leg(leg[-1], dst)
        return leg

    def sample_leg(self, src: int, dst: int, rng) -> tuple[int, ...]:
        """A uniformly-random-per-hop shortest path, as a tuple.

        One leg-table lookup, drawing ``rng.integers(k)`` when ``k > 1``
        legs tie at the first hop; a leg whose later hops tie draws at
        each of those in turn.  ``rng`` is a ``Generator`` or a
        :class:`~repro.util.rng.DrawStream`.
        """
        # Every leg set is non-empty, so a miss is None.
        legs = self._legs.get(src * self.num_routers + dst) or self.min_legs(src, dst)
        leg = legs[rng.integers(len(legs))] if len(legs) > 1 else legs[0]
        if leg[-1] != dst:
            return leg[:-1] + self.sample_leg(leg[-1], dst, rng)
        return leg

    def sample_min_path(self, src: int, dst: int, rng) -> list[int]:
        """:meth:`sample_leg` as a list."""
        return list(self.sample_leg(src, dst, rng))

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
