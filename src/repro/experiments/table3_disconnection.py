"""E6 / Table III: disconnection resiliency under random link failures.

For each topology and size: the largest fraction of randomly removed
cables at which the network (majority of samples) stays connected,
swept in the paper's 5% increments.  The paper finds SF, DLN and
FBF-3 most resilient (≥ 60–75% at the larger sizes), DF below them,
tori weakest and degrading with N; the ``table3`` claim checks the
resilient group against the 3D torus.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.resiliency import disconnection_resiliency
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.registry import TOPOLOGY_ORDER, balanced_instance


def _plan(scale: Scale) -> tuple[list[int], int]:
    """(network sizes, Monte-Carlo samples per fraction)."""
    if scale == Scale.QUICK:
        return [256], 8
    if scale == Scale.DEFAULT:
        return [256, 1024], 20
    return [256, 512, 1024, 2048, 4096, 8192], 100


def run(scale=Scale.DEFAULT, seed=0, topologies=None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    sizes, samples = _plan(scale)
    names = topologies if topologies is not None else TOPOLOGY_ORDER
    result = ExperimentResult(
        "table3", "Disconnection resiliency: removable cable fraction"
    )
    rows = []
    for name in names:
        for target in sizes:
            topo = balanced_instance(name, target, seed=seed)
            res = disconnection_resiliency(
                topo.adjacency, samples=samples, seed=seed
            )
            pct = round(100 * res.max_survivable_fraction)
            rows.append([name, topo.num_endpoints, f"{pct}%"])
    result.add_table(["topology", "N", "max removable links"], rows)
    claims.note(result)
    result.note(f"Monte-Carlo samples per fraction: {samples} "
                "(paper: 95% CI of width 2; use --scale paper)")
    return result
