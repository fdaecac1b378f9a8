"""E5 / Table II: network diameters of the compared topologies.

Measured on constructed instances and checked against the paper's
closed forms (⌈(3/2)·∛N_r⌉ for T3D, ⌈(5/2)·N_r^{1/5}⌉ for T5D,
⌈log₂N_r⌉ for HC, 4 for FT-3, 3 for FBF-3 and DF, 3–10 for DLN,
4–6 for LH-HC, 2 for SF).
"""

from __future__ import annotations

from repro.analysis import claims
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.registry import TOPOLOGY_ORDER, balanced_instance


def _expected(topo) -> str:
    import math

    from repro.topologies import (
        Dragonfly,
        FatTree3,
        FlattenedButterfly,
        Hypercube,
        LongHopHypercube,
        RandomDLN,
        SlimFly,
        Torus,
    )

    nr = topo.num_routers
    if isinstance(topo, SlimFly):
        return "2"
    if isinstance(topo, Torus):
        return str(topo.analytic_diameter())
    if isinstance(topo, Hypercube):
        return str(int(math.log2(nr)))
    if isinstance(topo, FatTree3):
        return "4"
    if isinstance(topo, FlattenedButterfly):
        return str(topo.levels)
    if isinstance(topo, Dragonfly):
        return "3"
    if isinstance(topo, RandomDLN):
        return "3-10"
    if isinstance(topo, LongHopHypercube):
        return "4-7"
    return "?"


def run(scale=Scale.DEFAULT, seed=0, target: int | None = None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    if target is None:
        target = {Scale.QUICK: 256, Scale.DEFAULT: 1024, Scale.PAPER: 8192}[scale]
    result = ExperimentResult("table2", f"Network diameters (N ≈ {target})")
    rows = []
    for name in TOPOLOGY_ORDER:
        topo = balanced_instance(name, target, seed=seed)
        rows.append([name, topo.num_endpoints, topo.num_routers,
                     topo.diameter(), _expected(topo)])
    result.add_table(
        ["topology", "N", "Nr", "measured diameter", "expected"], rows
    )
    claims.note(result)
    return result
