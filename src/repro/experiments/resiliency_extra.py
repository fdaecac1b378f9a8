"""E7/E8 — §III-D2 and §III-D3: resiliency of diameter and path length.

- *Diameter increase* (§III-D2): max link-failure fraction tolerated
  before the diameter grows by more than 2.  Paper: SF withstands up
  to 40% at N = 2¹³; DLN ≈ 60%; DF ≈ 25%; tori comparable to SF.
- *Average path length increase* (§III-D3): max failure fraction
  before the average distance grows by more than one hop.  Paper:
  DLN ≈ 60%, SF ≈ 55%, DF ≈ 45%, tori ≈ 55%.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.resiliency import diameter_resiliency, pathlength_resiliency
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.registry import balanced_instance

#: Paper headline numbers for the notes (N = 2^13).
PAPER_DIAMETER = {"SF": 0.40, "DLN": 0.60, "DF": 0.25}
PAPER_PATHLEN = {"SF": 0.55, "DLN": 0.60, "DF": 0.45, "T3D": 0.55}


def _plan(scale: Scale) -> tuple[int, int, list[str]]:
    if scale == Scale.QUICK:
        return 256, 5, ["SF", "DF", "DLN"]
    if scale == Scale.DEFAULT:
        return 512, 8, ["SF", "DF", "DLN", "T3D", "FBF-3"]
    return 8192, 30, ["SF", "DF", "DLN", "T3D", "T5D", "HC", "LH-HC", "FT-3", "FBF-3"]


def run_diameter(scale=Scale.DEFAULT, seed=0) -> ExperimentResult:
    scale = Scale.coerce(scale)
    target, samples, names = _plan(scale)
    result = ExperimentResult(
        "res-diameter", "Resiliency: tolerated failures before diameter +2"
    )
    rows = []
    for name in names:
        topo = balanced_instance(name, target, seed=seed)
        res = diameter_resiliency(topo.adjacency, samples=samples, seed=seed)
        rows.append(
            [name, topo.num_endpoints, f"{round(100 * res.max_survivable_fraction)}%",
             f"{round(100 * PAPER_DIAMETER.get(name, float('nan')))}%"
             if name in PAPER_DIAMETER else "-"]
        )
    result.add_table(["topology", "N", "tolerated failures", "paper (N=2^13)"], rows)
    claims.note(result)
    return result


def run_pathlen(scale=Scale.DEFAULT, seed=0) -> ExperimentResult:
    scale = Scale.coerce(scale)
    target, samples, names = _plan(scale)
    result = ExperimentResult(
        "res-pathlen", "Resiliency: tolerated failures before avg path +1 hop"
    )
    rows = []
    for name in names:
        topo = balanced_instance(name, target, seed=seed)
        res = pathlength_resiliency(topo.adjacency, samples=samples, seed=seed)
        rows.append(
            [name, topo.num_endpoints, f"{round(100 * res.max_survivable_fraction)}%",
             f"{round(100 * PAPER_PATHLEN.get(name, float('nan')))}%"
             if name in PAPER_PATHLEN else "-"]
        )
    result.add_table(["topology", "N", "tolerated failures", "paper (N=2^13)"], rows)
    claims.note(result)
    return result
