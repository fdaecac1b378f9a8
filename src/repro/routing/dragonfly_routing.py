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
from repro.routing.ugal import cheapest
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
        # A bare Generator draws numpy ints; memoized paths hold ints.
        src_router, dst_router = int(src_router), int(dst_router)
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
        if num_candidates < 0:
            raise ValueError(f"num_candidates must be >= 0, got {num_candidates!r}")
        self.topology = topology
        self.tables = tables
        self.num_candidates = num_candidates
        self.mode = mode
        self.rng = draw_stream(seed)
        self.name = name
        self.num_vcs = max(1, 2 * tables.diameter())
        self._minimal = DragonflyMinimal(topology, tables)

    def _candidates(self, src: int, dst: int, count: int):
        """Yield ``count`` group-Valiant candidates as leg pairs ``(a, b)``.

        Each goes minimally to a random router of a random intermediate
        group, then on: it draws the k-th group other than the source
        and destination groups (ascending), then a router of that group,
        and its legs are the two canonical paths (``a + b[1:]`` is the
        path).  With no third group each samples one minimal leg,
        yielded as ``(leg, (dst,))``.
        """
        topo = self.topology
        g_src, g_dst = topo.group_of(src), topo.group_of(dst)
        skip = (g_src,) if g_src == g_dst else (min(g_src, g_dst), max(g_src, g_dst))
        rng = self.rng
        if topo.g == len(skip):
            for _ in range(count):
                yield self.tables.sample_leg(src, dst, rng), (dst,)
            return
        integers = rng.integers
        groups = topo.g - len(skip)
        a = topo.a
        n = topo.num_routers
        paths = self._minimal._paths
        canonical = self._minimal._canonical
        for _ in range(count):
            mid_group = integers(groups)
            for g in skip:
                if mid_group >= g:
                    mid_group += 1
            # Router k of a group is group * a + k (Dragonfly.routers_of_group).
            mid = mid_group * a + integers(a)
            yield (
                paths.get(src * n + mid) or canonical(src, mid),
                paths.get(mid * n + dst) or canonical(mid, dst),
            )

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        return cheapest(
            src_router, dst_router, self._minimal._canonical(src_router, dst_router),
            self._candidates(src_router, dst_router, self.num_candidates),
            network, self.mode == "local",
        )
