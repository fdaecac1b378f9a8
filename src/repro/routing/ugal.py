"""UGAL — Universal Globally-Adaptive Load-balanced routing (§IV-C).

Per packet, UGAL generates a set of Valiant candidates plus the
minimal path and picks the cheapest:

- **UGAL-G** (§IV-C1) sees every router queue: cost of a path is its
  hop count plus the sum of output-queue occupancies along it — the
  idealised implementation used as the quality yardstick.
- **UGAL-L** (§IV-C2) sees only the source router's output queues:
  cost is path length × (1 + local output queue toward the first hop).

The paper found 4 random candidates empirically best for both; that is
the default here.
"""

from __future__ import annotations

from repro.routing.base import SourceRoutedAlgorithm
from repro.routing.tables import RoutingTables
from repro.routing.valiant import ValiantRouting
from repro.util.rng import draw_stream


class UGALRouting(SourceRoutedAlgorithm):
    """UGAL-L / UGAL-G over arbitrary topologies.

    Parameters
    ----------
    tables:
        Precomputed routing tables.
    mode:
        ``"local"`` (UGAL-L) or ``"global"`` (UGAL-G).
    num_candidates:
        Valiant candidates per packet (paper: 4).
    """

    def __init__(
        self,
        tables: RoutingTables,
        mode: str = "local",
        num_candidates: int = 4,
        seed=None,
        name: str | None = None,
    ):
        if mode not in ("local", "global"):
            raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
        self.tables = tables
        self.mode = mode
        self.num_candidates = num_candidates
        self.rng = draw_stream(seed)
        self.valiant = ValiantRouting(tables, seed=self.rng)
        self.name = name or ("UGAL-L" if mode == "local" else "UGAL-G")
        self.num_vcs = max(1, 2 * tables.diameter())

    def candidate_paths(self, src: int, dst: int) -> list[list[int]]:
        cands = [self.tables.min_path(src, dst)]
        for _ in range(self.num_candidates):
            cands.append(self.valiant.plan(src, dst))
        return cands

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        cands = self.candidate_paths(src_router, dst_router)
        if network is None:
            return cands[0]
        cost = (
            self.path_cost_local if self.mode == "local" else self.path_cost_global
        )
        best = min(cands, key=lambda p: (cost(p, network), len(p)))
        return best
