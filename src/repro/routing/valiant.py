"""VAL — Valiant random routing (paper §IV-B).

Each packet picks a random intermediate router R_r ∉ {R_s, R_d} and is
routed minimally R_s → R_r → R_d.  In Slim Fly the result has 2–4
hops.  The optional ``max_hops`` constraint re-samples intermediates
until the combined path is short enough; the paper found constraining
to ≤ 3 hops *increases* latency (fewer paths), which the experiments
reproduce by toggling this knob.  A topology with fewer than three
routers has no intermediate to pick, so packets route minimally.
"""

from __future__ import annotations

from repro.routing.base import SourceRoutedAlgorithm
from repro.routing.tables import RoutingTables
from repro.util.rng import draw_stream


def stitch(first_leg: list[int], second_leg: list[int]) -> list[int]:
    """Concatenate two router paths sharing their junction vertex."""
    if first_leg[-1] != second_leg[0]:
        raise ValueError("legs do not share the intermediate router")
    return first_leg + second_leg[1:]


class ValiantRouting(SourceRoutedAlgorithm):
    """Uniform-random intermediate routing."""

    def __init__(
        self,
        tables: RoutingTables,
        seed=None,
        max_hops: int | None = None,
        max_resample: int = 32,
        name: str = "VAL",
    ):
        self.tables = tables
        self.rng = draw_stream(seed)
        self.max_hops = max_hops
        self.max_resample = max_resample
        self.name = name
        self.num_vcs = max(1, 2 * tables.diameter())

    def random_intermediate(self, src: int, dst: int) -> int:
        n = self.tables.num_routers
        if n < 3:
            raise ValueError("a Valiant intermediate needs at least 3 routers")
        while True:
            r = int(self.rng.integers(n))
            if r != src and r != dst:
                return r

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        if self.tables.num_routers < 3:
            # No router lies outside {src, dst}: route minimally, no draw.
            return self.tables.min_path(src_router, dst_router)
        for _ in range(self.max_resample):
            mid = self.random_intermediate(src_router, dst_router)
            path = stitch(
                self.tables.sample_min_path(src_router, mid, self.rng),
                self.tables.sample_min_path(mid, dst_router, self.rng),
            )
            if self.max_hops is None or len(path) - 1 <= self.max_hops:
                return path
        # Give up on the constraint rather than livelock the injector.
        return path
