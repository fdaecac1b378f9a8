"""ANCA — Adaptive Nearest Common Ancestor routing for fat trees (§V).

The protocol of Gomez et al. the paper uses as the FT-3 baseline:
route *up* toward the nearest common ancestor, adaptively choosing the
least-loaded uplink at each level, then *down* along the unique
deterministic path.  Upward choices are made per hop from live queue
occupancies, so this is the simulator's per-hop-adaptive flavour.

In the FT-3 of :mod:`repro.topologies.fattree`:

- same edge switch               → 0 network hops;
- same pod                       → edge → (any) agg → edge;
- different pod                  → edge → (any) agg → (any core of the
  agg's group) → agg of dst pod → dst edge.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm
from repro.topologies.fattree import AGG, EDGE, FatTree3
from repro.util.rng import draw_stream


class ANCARouting(RoutingAlgorithm):
    """Per-hop adaptive up / deterministic down fat-tree routing."""

    source_routed = False

    def __init__(self, topology: FatTree3, seed=None, name: str = "FT-ANCA"):
        self.topology = topology
        self.rng = draw_stream(seed)
        self.name = name
        self.num_vcs = 4  # longest route: edge-agg-core-agg-edge = 4 hops
        # Per-router structure, read once per decision.
        routers = range(topology.num_routers)
        self._level = [topology.level(r) for r in routers]
        self._pod = [topology.pod(r) for r in routers]
        self._up = [tuple(topology.up_neighbors(r)) for r in routers]

    def plan(self, src_router: int, dst_router: int, network=None) -> None:
        return None  # decisions are made hop by hop

    def _least_loaded(self, at: int, candidates: tuple[int, ...], network) -> int:
        if network is not None and len(candidates) > 1:
            q = network.queue_length
            queues = [q(at, v) for v in candidates]
            low = min(queues)
            candidates = [v for v, x in zip(candidates, queues) if x == low]
        # A draw from range(1) consumes nothing, so a lone candidate skips it.
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self.rng.integers(len(candidates))]

    def next_hop(self, at_router: int, dst_router: int, packet, network) -> int:
        lvl = self._level[at_router]
        dst_pod = self._pod[dst_router]

        if lvl == EDGE:
            if at_router == dst_router:
                raise ValueError("next_hop called at the destination router")
            # Go up: any aggregation switch of this pod works for both
            # intra-pod and inter-pod destinations.
            return self._least_loaded(at_router, self._up[at_router], network)

        if lvl == AGG:
            if self._pod[at_router] == dst_pod:
                # Down to the destination edge switch (direct neighbour).
                return dst_router
            # Up to any core of this aggregation switch's group.
            return self._least_loaded(at_router, self._up[at_router], network)

        # Core: deterministic down to the aggregation switch of the
        # destination pod within this core's group.
        topo = self.topology
        group = (at_router - topo.n_edge - topo.n_agg) // topo.p
        return topo.n_edge + dst_pod * topo.p + group
