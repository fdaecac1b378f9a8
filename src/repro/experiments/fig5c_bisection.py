"""E4 / Fig 5c: bisection bandwidth vs network size (10 Gb/s links).

The paper derives closed forms for the regular topologies (⌊N/2⌋ for
HC and FT-3, ⌊2N/k⌋ for tori with ary k, ≈⌊N/4⌋ for DF and FBF-3,
3N/2 for LH-HC) and *measures* SF and DLN with METIS; we measure them
with the spectral+KL substitute.  The ``fig5c`` claim checks SF
against DF.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.bisection import bisection_bandwidth
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.registry import balanced_instance
from repro.util.series import SeriesBundle

LINK_GBPS = 10.0


def _sizes(scale: Scale) -> list[int]:
    if scale == Scale.QUICK:
        return [128, 512]
    if scale == Scale.DEFAULT:
        return [256, 1024, 4096]
    return [512, 1024, 2048, 4096, 8192, 16384, 20000]


def analytic_bisection_gbps(topo) -> float | None:
    """The paper's closed forms; None for measured topologies (SF, DLN)."""
    from repro.topologies import (
        Dragonfly,
        FatTree3,
        FlattenedButterfly,
        Hypercube,
        LongHopHypercube,
        Torus,
    )

    n = topo.num_endpoints
    if isinstance(topo, (Hypercube,)):
        return (n // 2) * LINK_GBPS
    if isinstance(topo, FatTree3):
        return (n // 2) * LINK_GBPS
    if isinstance(topo, LongHopHypercube):
        return (3 * n // 2) * LINK_GBPS
    if isinstance(topo, Torus):
        return (2 * n / max(topo.dims)) * LINK_GBPS
    if isinstance(topo, (Dragonfly, FlattenedButterfly)):
        p = topo.concentration
        return ((n + 2 * p * p - 1) // 4) * LINK_GBPS
    return None


def run(scale=Scale.DEFAULT, seed=0, topologies=None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    names = topologies if topologies is not None else [
        "LH-HC", "FT-3", "HC", "DLN", "SF", "T5D", "DF", "FBF-3", "T3D",
    ]
    result = ExperimentResult("fig5c", "Bisection bandwidth vs network size")
    bundle = SeriesBundle(
        title="Fig 5c: bisection bandwidth",
        xlabel="network size [endpoints]",
        ylabel="bisection bandwidth [Gb/s]",
    )
    rows = []
    for name in names:
        series = bundle.new(name)
        for target in _sizes(scale):
            topo = balanced_instance(name, target, seed=seed)
            analytic = analytic_bisection_gbps(topo)
            if analytic is not None:
                bb = analytic
                method = "analytic"
            else:
                bb = bisection_bandwidth(topo.adjacency, LINK_GBPS, seed=seed)
                method = "spectral+KL"
            series.append(topo.num_endpoints, bb)
            rows.append([name, topo.num_endpoints, round(bb, 1), method])
    result.add_bundle(bundle)
    result.add_table(["topology", "N", "BB [Gb/s]", "method"], rows)
    claims.note(result)
    return result
