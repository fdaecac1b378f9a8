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
        if max_resample < 1:
            raise ValueError(f"max_resample must be >= 1, got {max_resample!r}")
        self.tables = tables
        self.rng = draw_stream(seed)
        self.max_hops = max_hops
        self.max_resample = max_resample
        self.name = name
        self.num_vcs = max(1, 2 * tables.diameter())

    def candidates(self, src: int, dst: int, count: int):
        """Yield ``count`` Valiant candidates ``src → mid → dst``.

        Each is a pair of minimal legs ``(a, b)`` through a uniformly
        random intermediate ``mid ∉ {src, dst}`` (``a[-1] == b[0] ==
        mid``); its path is ``a + b[1:]``.  Draws happen as the
        candidates are consumed.
        """
        tables = self.tables
        n = tables.num_routers
        if n < 3:
            raise ValueError("a Valiant intermediate needs at least 3 routers")
        rng = self.rng
        integers = rng.integers
        sample = tables.sample_leg
        for _ in range(count):
            mid = integers(n)
            while mid == src or mid == dst:
                mid = integers(n)
            yield sample(src, mid, rng), sample(mid, dst, rng)

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        if self.tables.num_routers < 3:
            # No router lies outside {src, dst}: route minimally, no draw.
            return self.tables.min_path(src_router, dst_router)
        max_hops = self.max_hops
        for a, b in self.candidates(src_router, dst_router, self.max_resample):
            if max_hops is None or len(a) + len(b) - 2 <= max_hops:
                break
        # Past max_resample the constraint gives way rather than
        # livelock the injector: the last path drawn is returned.
        return [*a, *b[1:]]
