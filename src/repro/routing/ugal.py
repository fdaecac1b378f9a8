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


def cheapest(src, dst, minimal, candidates, network, local) -> list[int]:
    """UGAL's choice between ``minimal`` and the drawn ``candidates``.

    Each candidate is a pair of legs ``(a, b)`` sharing their junction
    (``a[-1] == b[0]``), its path being ``a + b[1:]``.  Candidates are
    drawn and costed in one pass: UGAL-L (``local``) costs ``hops × (1 +
    queue toward the first hop)``, UGAL-G ``hops + Σ queues along the
    path``.  The first candidate with the lowest (cost, hops) wins, as
    ``min`` would pick it, and only the winner becomes a list.  Without
    a ``network`` every candidate is still drawn (same draws) and the
    minimal path returned.
    """
    first, second = minimal, (dst,)
    if network is None:
        for _ in candidates:
            pass
        return list(minimal)
    q = network.queue_length
    hops = len(minimal) - 1
    if local:
        cost = hops * (1 + q(src, minimal[1]))
        for a, b in candidates:
            h = len(a) + len(b) - 2
            c = h * (1 + q(src, a[1]))
            if c < cost or (c == cost and h < hops):
                first, second, cost, hops = a, b, c, h
    else:
        cost = hops + sum(map(q, minimal, minimal[1:]))
        for a, b in candidates:
            h = len(a) + len(b) - 2
            c = h + sum(map(q, a, a[1:])) + sum(map(q, b, b[1:]))
            if c < cost or (c == cost and h < hops):
                first, second, cost, hops = a, b, c, h
    return [*first, *second[1:]]


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
        if num_candidates < 0:
            raise ValueError(f"num_candidates must be >= 0, got {num_candidates!r}")
        self.tables = tables
        self.mode = mode
        self.num_candidates = num_candidates
        self.rng = draw_stream(seed)
        self.valiant = ValiantRouting(tables, seed=self.rng)
        self.name = name or ("UGAL-L" if mode == "local" else "UGAL-G")
        self.num_vcs = max(1, 2 * tables.diameter())

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        minimal = self.tables.min_leg(src_router, dst_router)
        if self.tables.num_routers < 3:
            # No Valiant intermediate: every candidate is minimal, no draw.
            return list(minimal)
        candidates = self.valiant.candidates(
            src_router, dst_router, self.num_candidates
        )
        return cheapest(
            src_router, dst_router, minimal, candidates, network, self.mode == "local"
        )
