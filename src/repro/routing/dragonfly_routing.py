"""Dragonfly routing: minimal and UGAL-L (paper §V baseline "DF-UGAL-L").

Dragonfly minimal paths are local→global→local (≤ 3 hops) and emerge
naturally from shortest-path tables.  The Valiant flavour used by
Dragonfly UGAL misroutes through a *random intermediate group* (not an
arbitrary router): the packet goes minimally to the gateway of a
random group, crosses, then routes minimally to the destination — the
scheme of Kim et al. that the paper adopts for its DF baseline.
"""

from __future__ import annotations

from repro.routing.base import SourceRoutedAlgorithm
from repro.routing.tables import RoutingTables
from repro.topologies.dragonfly import Dragonfly
from repro.util.rng import draw_stream


class DragonflyMinimal(SourceRoutedAlgorithm):
    """Canonical minimal (local-global-local) Dragonfly routing.

    Uses the designated gateway pair for the (source group, destination
    group) cable — NOT generic shortest-path tables.  In small
    Dragonflies the router graph admits equal-length detours through
    third groups; real DF minimal routing (and the worst-case analysis
    of Kim et al. §4.2 that the paper adopts) funnels all inter-group
    traffic through the single direct cable, which is what this class
    models.
    """

    def __init__(self, topology: Dragonfly, tables: RoutingTables, name: str = "DF-MIN"):
        self.topology = topology
        self.tables = tables
        self.name = name
        self.num_vcs = 3  # l-g-l has at most 3 hops
        self._n = topology.num_routers
        #: Canonical paths per visited (src, dst), keyed ``src * N_r + dst``.
        self._paths: dict[int, tuple[int, ...]] = {}

    def _canonical(self, src_router: int, dst_router: int) -> tuple[int, ...]:
        """Memoized :meth:`canonical_path`, shared between callers."""
        key = src_router * self._n + dst_router
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = tuple(self._build(src_router, dst_router))
        return path

    def _build(self, src_router: int, dst_router: int) -> list[int]:
        topo = self.topology
        g_src, g_dst = topo.group_of(src_router), topo.group_of(dst_router)
        if g_src == g_dst:
            return [src_router] if src_router == dst_router else [src_router, dst_router]
        gw_s = topo.gateway_router(g_src, g_dst)
        gw_d = topo.gateway_router(g_dst, g_src)
        path = [src_router]
        if gw_s != src_router:
            path.append(gw_s)
        path.append(gw_d)
        if gw_d != dst_router:
            path.append(dst_router)
        return path

    def canonical_path(self, src_router: int, dst_router: int) -> list[int]:
        return list(self._canonical(src_router, dst_router))

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        return self.canonical_path(src_router, dst_router)


class DragonflyUGAL(SourceRoutedAlgorithm):
    """UGAL-L for Dragonfly with group-Valiant candidates."""

    def __init__(
        self,
        topology: Dragonfly,
        tables: RoutingTables,
        num_candidates: int = 4,
        mode: str = "local",
        seed=None,
        name: str = "DF-UGAL-L",
    ):
        if mode not in ("local", "global"):
            raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
        self.topology = topology
        self.tables = tables
        self.num_candidates = num_candidates
        self.mode = mode
        self.rng = draw_stream(seed)
        self.name = name
        self.num_vcs = max(1, 2 * tables.diameter())
        self._minimal = DragonflyMinimal(topology, tables)

    def _valiant_group_path(self, src: int, dst: int) -> list[int]:
        """Minimal to a random router of a random intermediate group, then on.

        Draws the k-th group other than the source and destination
        groups (ascending), then a router of that group.
        """
        topo = self.topology
        g_src, g_dst = topo.group_of(src), topo.group_of(dst)
        skip = (g_src,) if g_src == g_dst else (min(g_src, g_dst), max(g_src, g_dst))
        if topo.g == len(skip):
            return self.tables.sample_min_path(src, dst, self.rng)
        mid_group = int(self.rng.integers(topo.g - len(skip)))
        for g in skip:
            if mid_group >= g:
                mid_group += 1
        # Router k of a group is group * a + k (Dragonfly.routers_of_group).
        mid = mid_group * topo.a + int(self.rng.integers(topo.a))
        canonical = self._minimal._canonical
        return [*canonical(src, mid), *canonical(mid, dst)[1:]]

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        cands = [self._minimal.canonical_path(src_router, dst_router)]
        for _ in range(self.num_candidates):
            cands.append(self._valiant_group_path(src_router, dst_router))
        if network is None:
            return cands[0]
        cost = (
            self.path_cost_local if self.mode == "local" else self.path_cost_global
        )
        return min(cands, key=lambda p: (cost(p, network), len(p)))
