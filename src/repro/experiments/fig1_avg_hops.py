"""E1 / Fig 1: average hop count vs network size, all nine topologies.

Uniform traffic with minimal routing: the average number of hops is
the mean shortest-path distance of the router graph.  The paper shows
Slim Fly lowest everywhere (→ 2), Dragonfly/FBF next (→ 3), fat tree
≈ 4 (router hops incl. nearest-common-ancestor climbs), tori/hypercube
growing with N; the ``fig1`` claim checks the first.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.distance import diameter_and_average_distance
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.registry import TOPOLOGY_ORDER, balanced_instance
from repro.util.series import SeriesBundle


def _sizes(scale: Scale) -> list[int]:
    if scale == Scale.QUICK:
        return [128, 512]
    if scale == Scale.DEFAULT:
        return [256, 512, 1024, 2048]
    return [256, 512, 1024, 2048, 4096, 5000]


def run(scale=Scale.DEFAULT, seed=0, topologies=None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    sizes = _sizes(scale)
    names = topologies if topologies is not None else TOPOLOGY_ORDER
    result = ExperimentResult(
        "fig1", "Average number of hops vs network size (uniform traffic, minimal routing)"
    )
    bundle = SeriesBundle(
        title="Fig 1: average hops",
        xlabel="network size [endpoints]",
        ylabel="average number of hops",
    )
    rows = []
    for name in names:
        series = bundle.new(name)
        for target in sizes:
            topo = balanced_instance(name, target, seed=seed)
            # Exact sweep up to ~2500 routers, sampled beyond.
            sample = None if topo.num_routers <= 2500 else 256
            _, avg = diameter_and_average_distance(
                topo.adjacency, sources=sample, seed=seed
            )
            series.append(topo.num_endpoints, round(avg, 4))
            rows.append([name, topo.num_endpoints, topo.num_routers, round(avg, 3)])
    result.add_bundle(bundle)
    result.add_table(["topology", "N", "Nr", "avg hops"], rows)
    claims.note(result)
    return result
